//! Golden figure test: the `figures` binary must reproduce every committed
//! figure CSV and per-epoch metrics CSV byte for byte.
//!
//! The simulated cluster is deterministic, so any engine refactor that
//! keeps behaviour must leave these files untouched. When a change is
//! *meant* to move results, regenerate the golden set and review the diff:
//!
//! ```text
//! cargo run --release -p cagvt-bench --bin figures -- \
//!     all faults health trace samadi ca-queue mpi-modes threshold-sweep \
//!     interval-sweep --bench-scale --out /tmp/golden
//! cp /tmp/golden/*.csv crates/bench/tests/golden/
//! rm crates/bench/tests/golden/trace-*.csv
//! ```
//!
//! (`trace-*.csv` are per-record trace dumps and horizon statistics; they
//! are several megabytes and are covered by the trace crate's own tests.)

use std::path::{Path, PathBuf};
use std::process::Command;

const MODES: &[&str] = &[
    "all",
    "faults",
    "health",
    "trace",
    "samadi",
    "ca-queue",
    "mpi-modes",
    "threshold-sweep",
    "interval-sweep",
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The first line where `want` and `got` differ, as `(line_no, want, got)`.
fn first_difference(want: &str, got: &str) -> Option<(usize, String, String)> {
    let mut w = want.lines();
    let mut g = got.lines();
    for n in 1.. {
        match (w.next(), g.next()) {
            (None, None) => return None,
            (a, b) if a == b => continue,
            (a, b) => {
                let show = |l: Option<&str>| l.unwrap_or("<end of file>").to_string();
                return Some((n, show(a), show(b)));
            }
        }
    }
    unreachable!()
}

#[test]
fn figure_csvs_match_golden_files() {
    let out = std::env::temp_dir().join(format!("cagvt-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(MODES)
        .arg("--bench-scale")
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawn figures");
    assert!(
        run.status.success(),
        "figures exited with {}:\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );

    let mut golden: Vec<PathBuf> = std::fs::read_dir(golden_dir())
        .expect("read golden dir")
        .map(|e| e.expect("golden entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    golden.sort();
    assert!(golden.len() >= 20, "golden set looks truncated: {} files", golden.len());

    let mut failures = Vec::new();
    for want_path in &golden {
        let name = want_path.file_name().unwrap().to_string_lossy().into_owned();
        let want = std::fs::read_to_string(want_path).expect("read golden file");
        let Ok(got) = std::fs::read_to_string(out.join(&name)) else {
            failures.push(format!("{name}: not written by figures"));
            continue;
        };
        if want == got {
            continue;
        }
        match first_difference(&want, &got) {
            Some((line, w, g)) => {
                failures.push(format!("{name}: line {line} differs\n  want: {w}\n  got:  {g}"))
            }
            None => failures.push(format!("{name}: differs only in line endings")),
        }
    }
    // Every metrics CSV the binary writes must be pinned too, so a new
    // series cannot slip past the golden set unnoticed.
    for entry in std::fs::read_dir(&out).expect("read output dir") {
        let name = entry.expect("output entry").file_name().to_string_lossy().into_owned();
        if name.starts_with("metrics-")
            && name.ends_with(".csv")
            && !golden_dir().join(&name).exists()
        {
            failures.push(format!("{name}: written by figures but has no golden file"));
        }
    }
    let _ = std::fs::remove_dir_all(&out);
    assert!(failures.is_empty(), "golden mismatch:\n{}", failures.join("\n"));
}
