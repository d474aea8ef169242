//! Regenerate the paper's figures and tables as CSV.
//!
//! ```text
//! figures [all | <mode>...] [--paper] [--bench-scale] [--out DIR]
//! figures summarize [DIR]
//! ```
//!
//! Run with an unknown mode name to print the full mode list. Default
//! scale is the paper's geometry (60 workers x 128 LPs per node) with a
//! short horizon; `--paper` lengthens the horizon from 12 to 60 (slow);
//! `--bench-scale` shrinks both for smoke runs. Rows print to stdout; with
//! `--out DIR` each figure is additionally written to `DIR/<figure>.csv`.
//!
//! Sweeps run on `CAGVT_SWEEP_THREADS` OS threads (default: one per host
//! core; `1` is the serial runner — row order is identical either way).
//! Host timing is `hostbench/`'s job; this binary only prints each mode's
//! wall-clock as a progress line on stderr.

use cagvt_bench::{sweep_threads, Mode, Row, Scale, MODES};
use std::path::PathBuf;

/// Report a command-line error with the usage line and mode list; exit 2.
fn usage_exit(error: &str) -> ! {
    let names: Vec<&str> = MODES.iter().map(|m| m.name).collect();
    eprintln!("{error}");
    eprintln!("usage: figures [all | <mode>...] [--paper] [--bench-scale] [--out DIR]");
    eprintln!("available modes: all {}", names.join(" "));
    std::process::exit(2);
}

/// The modes `names` selects, each once, in first-occurrence order. No
/// names or `all` selects every core mode first; other named modes follow.
fn selection(names: &[&str]) -> Vec<&'static Mode> {
    let all = names.is_empty() || names.contains(&"all");
    let core = MODES.iter().filter(|m| all && m.core);
    let named = names.iter().filter(|n| **n != "all").map(|n| {
        MODES
            .iter()
            .find(|m| m.name == *n)
            .unwrap_or_else(|| usage_exit(&format!("unknown experiment: {n}")))
    });
    let mut modes: Vec<&Mode> = Vec::new();
    for mode in core.chain(named) {
        if !modes.iter().any(|m| m.name == mode.name) {
            modes.push(mode);
        }
    }
    modes
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::default();
    let mut out_dir: Option<PathBuf> = None;
    let mut names: Vec<&str> = Vec::new();

    // `figures summarize [DIR]` prints the paper-vs-measured headline
    // table from previously generated CSVs.
    if args.first().map(|s| s.as_str()) == Some("summarize") {
        let dir = args.get(1).cloned().unwrap_or_else(|| "results".to_string());
        match cagvt_bench::summary::summarize(std::path::Path::new(&dir)) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("summarize failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper" => scale = Scale::paper(),
            "--bench-scale" => scale = Scale::bench(),
            "--out" => match it.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => usage_exit("--out needs a directory"),
            },
            other => names.push(other),
        }
    }
    let modes = selection(&names);

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    eprintln!("# sweep threads: {}", sweep_threads());

    println!("{}", Row::csv_header());
    for mode in modes {
        let t0 = std::time::Instant::now();
        let rows = mode.run(&scale, out_dir.as_deref());
        let body: String = rows.iter().map(|row| format!("{}\n", row.csv())).collect();
        print!("{body}");
        eprintln!("# {}: {} rows in {:.1}s", mode.name, rows.len(), t0.elapsed().as_secs_f64());
        if let Some(dir) = &out_dir {
            let csv = format!("{}\n{body}", Row::csv_header());
            std::fs::write(dir.join(format!("{}.csv", mode.name)), csv).expect("write figure csv");
        }
    }
}
