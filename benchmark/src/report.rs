//! What one benchmark process tells the process that launched it.
//!
//! The runner starts one process per workload, and `batch-sharded`
//! starts one process per rep, so results cross a process boundary as
//! plain text lines on stdout: `metric`, `series`, `ops`, `fail`,
//! `digest` and `span` lines.  [`Report::render`] writes them and
//! [`Report::parse`] reads them back; anything else on stdout is
//! ignored.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json;
use crate::spec::DEFAULT_SEED;
use crate::stats::{summarize, Summary};

/// One named timing series, summarized.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    pub name: String,
    pub unit: String,
    pub summary: Summary,
}

#[derive(Debug, Default, Clone, PartialEq)]
pub struct Report {
    /// Named values; a name not in `spec` is internal to the benchmark
    /// (`rep.*` for one rep's wall and memory, `out.*` for the facts the
    /// correctness checks compare).
    pub metrics: BTreeMap<String, f64>,
    pub series: Vec<Series>,
    /// Operations attempted (reps, queries, appends and correctness
    /// checks) and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Hash of the run's candidate edges and matching.
    pub digest: Option<u64>,
    /// Trace spans, one JSON object per line.
    pub spans: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Records the summary of a timing series for display and returns it.
    pub fn add_series(&mut self, name: &str, unit: &str, samples: Vec<f64>) -> Summary {
        let summary = summarize(samples);
        self.series.push(Series {
            name: name.to_string(),
            unit: unit.to_string(),
            summary,
        });
        summary
    }

    /// Counts one attempted operation; `problem` is `Some` if it failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(message) = problem {
            self.fail(message);
        }
    }

    /// Counts one failure of an operation already counted as attempted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.failures.push(message.replace('\n', " "));
    }

    /// On the default seed, compares the facts `out.<key>` with
    /// `expected.json`'s entry for `workload`, to nine significant digits
    /// (counts compare exactly, a matching value up to summation order).
    /// One attempted operation.
    pub fn check_expected(&mut self, home: &Path, workload: &str, seed: u64, keys: &[&str]) {
        if seed != DEFAULT_SEED {
            return;
        }
        let compare = || -> Result<(), String> {
            let text = std::fs::read_to_string(home.join("expected.json"))
                .map_err(|e| format!("cannot read expected.json: {e}"))?;
            let expected = json::parse(&text).map_err(|e| format!("expected.json: {e}"))?;
            for key in keys {
                let want = expected
                    .get(workload)
                    .and_then(|entry| entry.get(key))
                    .and_then(json::Value::as_f64)
                    .ok_or_else(|| format!("expected.json: {workload}.{key} missing"))?;
                let got = self.get(&format!("out.{key}"));
                if format!("{want:.8e}") != format!("{got:.8e}") {
                    return Err(format!(
                        "{workload}: {key} is {got}, expected.json says {want}"
                    ));
                }
            }
            Ok(())
        };
        let problem = compare().err();
        self.check(problem);
    }

    pub fn add_spans(&mut self, jsonl: &str) {
        self.spans.extend(jsonl.lines().map(str::to_string));
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            out.push_str(&format!("metric {name} {value:?}\n"));
        }
        for s in &self.series {
            out.push_str(&format!(
                "series {} {} {} {:?} {:?} {:?}\n",
                s.name, s.unit, s.summary.n, s.summary.q1, s.summary.median, s.summary.q3
            ));
        }
        out.push_str(&format!("ops {} {}\n", self.attempted, self.failed));
        for failure in &self.failures {
            out.push_str(&format!("fail {failure}\n"));
        }
        if let Some(digest) = self.digest {
            out.push_str(&format!("digest {digest:016x}\n"));
        }
        for span in &self.spans {
            out.push_str(&format!("span {span}\n"));
        }
        out
    }

    pub fn parse(stdout: &str) -> Report {
        let mut report = Report::default();
        for line in stdout.lines() {
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            let fields: Vec<&str> = rest.split(' ').collect();
            match (kind, fields.as_slice()) {
                ("metric", [name, value]) => {
                    if let Ok(value) = value.parse() {
                        report.set(name, value);
                    }
                }
                ("series", [name, unit, n, q1, median, q3]) => {
                    if let (Ok(n), Ok(q1), Ok(median), Ok(q3)) =
                        (n.parse(), q1.parse(), median.parse(), q3.parse())
                    {
                        report.series.push(Series {
                            name: name.to_string(),
                            unit: unit.to_string(),
                            summary: Summary { n, q1, median, q3 },
                        });
                    }
                }
                ("ops", [attempted, failed]) => {
                    report.attempted = attempted.parse().unwrap_or(0);
                    report.failed = failed.parse().unwrap_or(0);
                }
                ("fail", _) => report.failures.push(rest.to_string()),
                ("digest", [hex]) => report.digest = u64::from_str_radix(hex, 16).ok(),
                ("span", _) => report.spans.push(rest.to_string()),
                _ => {}
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_report_survives_the_process_boundary() {
        let mut report = Report::default();
        report.set("op_p50_ms", 1312.0625);
        report.set("out.value", 0.1 + 0.2);
        report.add_series("op_ms", "ms", vec![3.0, 1.0, 2.0]);
        report.check(None);
        report.check(Some("edge 7 below\nsigma".to_string()));
        report.digest = Some(0xdead_beef_0123_4567);
        report.add_spans("{\"id\":0}\n{\"id\":1}\n");

        let text = format!("{}noise the parser ignores\n", report.render());
        assert_eq!(Report::parse(&text), report);
    }
}
