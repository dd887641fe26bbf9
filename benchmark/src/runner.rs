//! The runner: one process per workload and pass, every metric printed
//! by name with its unit, results written under `out/`.
//!
//! Each workload runs in a child process so that peak memory and
//! allocator state do not leak from one workload into the next, and so
//! that every temp file the system under test creates lands in one
//! directory the runner owns and removes — also when a check fails or
//! the child dies.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::proc::run_self;
use crate::report::Report;
use crate::spec::{self, Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::Cli;

/// A directory removed, with everything under it, when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn create(out: &Path) -> Result<TempDir, String> {
        let path = out.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One pass of one workload, as the driver's contract wants it.
struct PassResult {
    workload: &'static str,
    traced: bool,
    /// `(name, unit, value)` for every metric of the pass's kind.
    metrics: Vec<(&'static str, &'static str, f64)>,
    report: Report,
}

impl PassResult {
    fn correct(&self) -> bool {
        self.report.failed == 0
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, _, v)| *v)
    }

    /// The one JSON object the driver reads.
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.report.attempted.max(1),
            self.report.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{comma}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// `workload metric value unit`, one line per metric, then the
    /// timing series and the failures.
    fn print(&self) {
        let w = self.workload;
        for (name, unit, value) in &self.metrics {
            println!("{w} {name} {value} {unit}");
        }
        for s in &self.report.series {
            println!(
                "{w} {} median={} q1={} q3={} n={} {}",
                s.name, s.summary.median, s.summary.q1, s.summary.q3, s.summary.n, s.unit
            );
        }
        let share = self.report.failed as f64 / self.report.attempted.max(1) as f64;
        println!(
            "{w} ops_failed_share {share} ratio ({} failed of {} attempted)",
            self.report.failed, self.report.attempted
        );
        for failure in &self.report.failures {
            println!("{w} FAILED {failure}");
        }
    }
}

fn run_pass(
    cli: &Cli,
    workload: &'static str,
    traced: bool,
    home: &Path,
) -> Result<PassResult, String> {
    let out = home.join("out");
    let tmp = TempDir::create(&out)?;
    let args = [
        "--role",
        "workload",
        "--workload",
        workload,
        "--seed",
        &cli.seed.to_string(),
        "--seconds",
        &cli.seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]
    .map(str::to_string);
    let mut report = run_self(&args, &tmp.0)?;
    drop(tmp);

    let mut metrics = Vec::new();
    if traced {
        for m in &PER_LAYER {
            metrics.push((m.name, m.unit, report.get(m.name)));
        }
        let trace: String = report
            .spans
            .iter()
            .map(|line| format!("{line}\n"))
            .collect();
        let path = out.join(format!("trace-{workload}.jsonl"));
        std::fs::write(&path, trace).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    } else {
        for m in &END_TO_END {
            let value = report.get(m.name);
            if !(value.is_finite() && value > 0.0) {
                report.check(Some(format!("{} was not measured", m.name)));
            }
            metrics.push((m.name, m.unit, value));
        }
    }
    if let Some((name, _, _)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(format!("{workload}: {name} is not a finite number"));
    }
    let result = PassResult {
        workload,
        traced,
        metrics,
        report,
    };
    let path = out.join(format!("result-{workload}-trace{}.json", u8::from(traced)));
    std::fs::write(&path, format!("{}\n", result.json()))
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    Ok(result)
}

/// Every requested pass of every requested workload, printed as it
/// finishes.
fn run_set(cli: &Cli, home: &Path) -> Result<Vec<PassResult>, String> {
    let mut results = Vec::new();
    for w in &WORKLOADS {
        if cli.workload.as_deref().is_some_and(|name| name != w.name) {
            continue;
        }
        for traced in [false, true] {
            if cli.trace.is_some_and(|t| t != traced) || (cli.traced_only && !traced) {
                continue;
            }
            let result = run_pass(cli, w.name, traced, home)?;
            result.print();
            results.push(result);
        }
    }
    Ok(results)
}

fn find<'a>(set: &'a [PassResult], workload: &str, traced: bool) -> Option<&'a PassResult> {
    set.iter()
        .find(|r| r.workload == workload && r.traced == traced)
}

/// Two complete sets of runs, compared: every end-to-end metric on every
/// workload must agree within its own bound, and every exact count of
/// the traced pass must be identical.
fn selfcheck(cli: &Cli, home: &Path) -> Result<bool, String> {
    let first = run_set(cli, home)?;
    let second = run_set(cli, home)?;
    let mut table = String::from(
        "| workload | metric | unit | first | second | change | bound | verdict |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    let mut ok = first.iter().chain(&second).all(PassResult::correct);
    for w in &WORKLOADS {
        let (Some(a), Some(b)) = (find(&first, w.name, false), find(&second, w.name, false)) else {
            continue;
        };
        for m in &END_TO_END {
            let (x, y) = (a.value(m.name), b.value(m.name));
            let worse = match m.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let pass = worse.abs() <= m.bound;
            ok &= pass;
            let _ = writeln!(
                table,
                "| {} | {} | {} | {x:.4} | {y:.4} | {:+.1}% | {:.0}% | {} |",
                w.name,
                m.name,
                m.unit,
                worse * 100.0,
                m.bound * 100.0,
                if pass { "pass" } else { "FAIL" }
            );
        }
    }
    let mut differing = Vec::new();
    for w in &WORKLOADS {
        let (Some(a), Some(b)) = (find(&first, w.name, true), find(&second, w.name, true)) else {
            continue;
        };
        for m in PER_LAYER.iter().filter(|m| spec::is_count_unit(m.unit)) {
            if a.value(m.name) != b.value(m.name) {
                differing.push(format!("{} {}", w.name, m.name));
            }
        }
    }
    ok &= differing.is_empty();
    let _ = writeln!(
        table,
        "\nExact counts of the traced pass that differ between the two sets: {}.",
        if differing.is_empty() {
            "none".to_string()
        } else {
            differing.join(", ")
        }
    );
    println!("\n{table}");
    let path = home.join("out").join("selfcheck.md");
    std::fs::write(&path, &table).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    Ok(ok)
}

/// Returns whether every correctness check passed.
pub fn run(cli: &Cli, home: &Path) -> Result<bool, String> {
    if cli.list {
        print!("{}", spec::list());
        return Ok(true);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# seed {} seconds {} cores {cores} (engine threads are pinned at 2, task counts at 4)",
        cli.seed, cli.seconds
    );
    if cli.selfcheck {
        return selfcheck(cli, home);
    }
    let results = run_set(cli, home)?;
    let all_correct = results.iter().all(PassResult::correct);
    // Asked for one pass of one workload, as the driver asks: the last
    // line is the result object, and a failed check is reported in it,
    // not in the exit code.
    if let (Some(_), Some(_), [only]) = (&cli.workload, cli.trace, results.as_slice()) {
        println!("{}", only.json());
        return Ok(true);
    }
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn result() -> PassResult {
        let report = Report {
            attempted: 12,
            ..Report::default()
        };
        PassResult {
            workload: "batch-greedy",
            traced: false,
            metrics: vec![("op_p50_ms", "ms", 1312.0625), ("setup_s", "s", 0.0068)],
            report,
        }
    }

    #[test]
    fn the_result_object_has_exactly_the_contract_keys() {
        let parsed = json::parse(&result().json()).expect("the result line is JSON");
        let Value::Object(fields) = &parsed else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(Value::as_f64), Some(12.0));
        let p50 = parsed
            .get("metrics")
            .and_then(|m| m.get("op_p50_ms"))
            .expect("metric present");
        assert_eq!(p50.get("value").and_then(Value::as_f64), Some(1312.0625));
        assert_eq!(p50.get("unit").and_then(Value::as_str), Some("ms"));
    }

    #[test]
    fn a_failed_check_makes_the_result_incorrect() {
        let mut failing = result();
        failing.report.check(Some("edge below sigma".to_string()));
        assert!(!failing.correct());
        assert!(failing
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 13, \"failed\": 1"));
    }

    /// `BENCHMARK.json` repeats the names in `spec`; the two must agree,
    /// name for name and unit for unit.
    #[test]
    fn names_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is at the repo root");
        let file = json::parse(&text).expect("BENCHMARK.json parses");
        let field = |entry: &Value, key: &str| -> String {
            match entry.get(key) {
                Some(Value::String(s)) => s.clone(),
                Some(Value::Number(n)) => n.to_string(),
                other => panic!("{key}: {other:?}"),
            }
        };
        let entries = |key: &str| -> Vec<Value> {
            file.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("{key} missing"))
                .to_vec()
        };

        let mut listed = String::new();
        for w in entries("workloads") {
            assert_eq!(field(&w, "why").lines().count(), 1);
            assert!(field(&w, "why").len() <= 200);
            listed.push_str(&format!(
                "workload {}: {}\n",
                field(&w, "name"),
                field(&w, "why")
            ));
        }
        for m in entries("end_to_end") {
            let bound: f64 = field(&m, "bound").parse().expect("bound is a number");
            assert!(bound > 0.0 && bound <= 0.25);
            listed.push_str(&format!(
                "end_to_end {} {} {} bound={bound}\n",
                field(&m, "name"),
                field(&m, "unit"),
                field(&m, "better"),
            ));
        }
        for m in entries("per_layer") {
            listed.push_str(&format!(
                "per_layer {} {} {}\n",
                field(&m, "name"),
                field(&m, "unit"),
                field(&m, "better"),
            ));
        }
        assert_eq!(listed, spec::list(), "--list and BENCHMARK.json disagree");
        assert_eq!(field(&file, "run_seconds"), spec::RUN_SECONDS.to_string());
    }

    #[test]
    fn every_emitted_name_and_unit_is_well_formed() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(name_ok(name), "bad name {name}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(unit_ok(unit), "bad unit {unit}");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
