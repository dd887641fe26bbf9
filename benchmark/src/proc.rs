//! Process plumbing: launching copies of this binary and reading this
//! process's peak memory.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::report::Report;

/// Environment the system under test reads.  The benchmark decides these
/// itself (budgets per workload, temp files under its own directory), so
/// whatever the caller's shell exported must not leak in.
const CLEARED_ENV: [&str; 10] = [
    "SMR_MEMORY_BUDGET",
    "SMR_SPILL_DIR",
    "SMR_DISTRIB_ROLE",
    "SMR_DISTRIB_DIR",
    "SMR_DISTRIB_SHARD",
    "SMR_DISTRIB_SHARDS",
    "SMR_DISTRIB_ATTEMPT",
    "SMR_DISTRIB_SESSION",
    "SMR_DISTRIB_OCCURRENCE",
    "SMR_DISTRIB_FAIL",
];

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts the kernel's high-water mark for this process, so the next
/// [`peak_rss_mb`] is the peak since now, not since the process began.
/// Best effort: where `/proc/self/clear_refs` cannot be written the mark
/// simply keeps its old value.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Runs a copy of this binary to completion and parses what it printed.
/// Every temp file the copy (and the library under it) creates goes
/// under `tmp`.  A copy that exits non-zero is an error carrying the
/// tail of its stderr.
pub fn run_self(args: &[String], tmp: &Path) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(args)
        .env("TMPDIR", tmp)
        .stdin(Stdio::null())
        .stderr(Stdio::piped());
    for name in CLEARED_ENV {
        command.env_remove(name);
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start {args:?}: {e}"))?;
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        let tail: Vec<&str> = stderr.lines().rev().take(12).collect();
        let tail: Vec<&str> = tail.into_iter().rev().collect();
        return Err(format!(
            "{args:?} ended with {}: {}",
            output.status,
            tail.join(" | ")
        ));
    }
    Ok(Report::parse(&String::from_utf8_lossy(&output.stdout)))
}

/// Spawns this binary with `--noop` and waits for it: the floor under
/// every process `smr_distrib` starts.
pub fn spawn_noop() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .arg("--noop")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("--noop ended with {status}"))
    }
}
