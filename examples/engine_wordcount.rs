//! Using the MapReduce substrate directly: the classic word-count job,
//! run in memory and again under a 4 KiB memory budget, showing the
//! counters the engine exposes.
//!
//! The matching algorithms of this workspace are written against exactly
//! this engine; this example is the smallest possible end-to-end tour of
//! its API (mapper, reducer, job configuration, metrics) and of its
//! out-of-core shuffle: the budgeted run spills sorted runs to disk and
//! still produces the same bytes.
//!
//! ```text
//! cargo run --example engine_wordcount
//! ```

use social_content_matching::mapreduce::prelude::*;

struct Tokenize;

impl Mapper for Tokenize {
    type InKey = usize;
    type InValue = String;
    type OutKey = String;
    type OutValue = u64;

    fn map(&self, _doc: &usize, text: &String, out: &mut Emitter<String, u64>) {
        for word in text.split_whitespace() {
            out.emit(word.to_lowercase(), 1);
        }
    }
}

struct Sum;

impl Reducer for Sum {
    type Key = String;
    type InValue = u64;
    type OutKey = String;
    type OutValue = u64;

    fn reduce(&self, word: &String, counts: &[u64], out: &mut Emitter<String, u64>) {
        out.emit(word.clone(), counts.iter().sum());
    }
}

fn main() {
    let sentences = [
        "the quick brown fox jumps over the lazy dog",
        "the dog barks and the fox runs",
        "quick quick slow the fox the fox",
    ];
    let documents: Vec<(usize, String)> = (0..300)
        .map(|i| (i, sentences[i % sentences.len()].to_string()))
        .collect();

    let config = JobConfig::named("wordcount")
        .with_threads(2)
        .with_map_tasks(3)
        .with_reduce_tasks(2);
    let plain =
        Job::new(config.clone().with_memory_budget(None)).run(&Tokenize, &Sum, documents.clone());

    println!("top words:");
    let mut counts = plain.output.clone();
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (word, count) in counts.iter().take(5) {
        println!("  {word:<8} {count}");
    }

    let m = &plain.metrics;
    println!("\nin memory:");
    println!("  map output records: {}", m.map_output_records);
    println!("  shuffled records  : {}", m.shuffle_records);
    println!("  merged runs       : {}", m.merge_runs);
    println!(
        "  map tasks: {}, reduce tasks: {}, wall time: {:?}",
        m.map_tasks,
        m.reduce_tasks,
        m.timings.total()
    );

    let budgeted = Job::new(config.with_memory_budget(Some(4096))).run(&Tokenize, &Sum, documents);
    let m = &budgeted.metrics;
    println!("\nunder a 4 KiB memory budget:");
    println!("  spilled bytes     : {}", m.spill_bytes);
    println!("  disk runs         : {}", m.disk_runs);
    println!("  merged runs       : {}", m.merge_runs);
    let identical = budgeted.output == plain.output;
    println!("  identical output  : {identical}");
    assert!(identical, "the budget must not change the output");
}
