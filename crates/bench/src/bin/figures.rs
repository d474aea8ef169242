//! Regenerate the paper's figures and tables as CSV.
//!
//! ```text
//! figures [all | <mode>...] [--paper] [--bench-scale] [--out DIR]
//! figures summarize [DIR]
//! ```
//!
//! Run with an unknown mode name to print the full mode list. Default
//! scale keeps the paper's 60-workers-per-node shape with a reduced LP
//! count and horizon; `--paper` runs the full 128-LPs-per-worker geometry
//! (slow). Rows print to stdout; with `--out DIR` each figure is
//! additionally written to `DIR/<figure>.csv`.
//!
//! Sweeps run on `CAGVT_SWEEP_THREADS` OS threads (default: one per host
//! core; `1` is the serial runner — row order is identical either way).
//! Host timing is `hostbench/`'s job; this binary only prints each mode's
//! wall-clock as a progress line on stderr.

use cagvt_bench::{
    base_config, ca_queue, epg_sweep, fault_sweep, fig10, fig11, fig12, fig3, fig4, fig5, fig6,
    fig8, fig9, interval_sweep, mpi_modes, run_one, samadi, stats_table, sweep_threads,
    threshold_sweep, Row, Scale,
};
use cagvt_models::presets::comm_dominated;
use cagvt_net::MpiMode;
use std::io::Write;

fn ca_trace(scale: &Scale) -> Vec<Row> {
    // §6 text: CA-GVT's sync/async mode trace on the communication-
    // dominated workload.
    let nodes = 8;
    let cfg = base_config(nodes, MpiMode::Dedicated, 25, scale);
    let workload = comm_dominated(&cfg);
    let report = run_one(cagvt_bench::CA_HARNESS, &workload, cfg);
    eprintln!(
        "# ca-trace: {} rounds total, {} synchronous, {} asynchronous, final efficiency {:.2}%",
        report.gvt_rounds,
        report.sync_rounds,
        report.async_rounds,
        report.efficiency * 100.0
    );
    vec![Row { figure: "ca-trace", series: "ca-gvt".into(), nodes, report }]
}

/// One runnable experiment mode.
struct Mode {
    name: &'static str,
    /// Included in the default run and in `all` (ablations stay opt-in).
    core: bool,
    run: fn(&Scale) -> Vec<Row>,
}

/// The single source of truth for every mode the binary knows: the
/// dispatcher, the `all` expansion and the unknown-mode listing all read
/// this table.
const MODES: &[Mode] = &[
    Mode { name: "fig3", core: true, run: fig3 },
    Mode { name: "fig4", core: true, run: fig4 },
    Mode { name: "fig5", core: true, run: fig5 },
    Mode { name: "fig6", core: true, run: fig6 },
    Mode { name: "fig8", core: true, run: fig8 },
    Mode { name: "fig9", core: true, run: fig9 },
    Mode { name: "fig10", core: true, run: fig10 },
    Mode { name: "fig11", core: true, run: fig11 },
    Mode { name: "fig12", core: true, run: fig12 },
    Mode { name: "stats", core: true, run: stats_table },
    Mode { name: "epg-sweep", core: true, run: epg_sweep },
    Mode { name: "ca-trace", core: true, run: ca_trace },
    Mode { name: "threshold-sweep", core: false, run: threshold_sweep },
    Mode { name: "ca-queue", core: false, run: ca_queue },
    Mode { name: "samadi", core: false, run: samadi },
    Mode { name: "interval-sweep", core: false, run: interval_sweep },
    Mode { name: "mpi-modes", core: false, run: mpi_modes },
    Mode { name: "faults", core: false, run: fault_sweep },
];

fn find_mode(name: &str) -> Option<&'static Mode> {
    MODES.iter().find(|m| m.name == name)
}

fn mode_list() -> String {
    let mut names: Vec<&str> = MODES.iter().map(|m| m.name).collect();
    // `trace` and `health` need the output directory, so they dispatch
    // outside the MODES table (see main) but are first-class modes to the
    // user.
    names.push("trace");
    names.push("health");
    names.join(" ")
}

/// Report a command-line error with the usage line and mode list; exit 2.
fn usage_exit(error: &str) -> ! {
    eprintln!("{error}");
    eprintln!("usage: figures [all | <mode>...] [--paper] [--bench-scale] [--out DIR]");
    eprintln!("available modes: all {}", mode_list());
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::default();
    let mut out_dir: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();

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
                Some(dir) => out_dir = Some(dir.clone()),
                None => usage_exit("--out needs a directory"),
            },
            other => selected.push(other.to_string()),
        }
    }
    // "all" expands to every paper experiment (ablations stay opt-in but
    // can be combined with it on the same command line).
    let core_set: Vec<String> =
        MODES.iter().filter(|m| m.core).map(|m| m.name.to_string()).collect();
    if selected.is_empty() {
        selected = core_set;
    } else if selected.iter().any(|s| s == "all") {
        let tail: Vec<String> = selected.iter().filter(|s| *s != "all").cloned().collect();
        selected = core_set;
        for t in tail {
            if !selected.contains(&t) {
                selected.push(t);
            }
        }
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    eprintln!("# sweep threads: {}", sweep_threads());

    println!("{}", Row::csv_header());
    for name in &selected {
        let t0 = std::time::Instant::now();
        let rows = if name == "trace" {
            // Dispatched outside the MODES table: the exporters write
            // per-algorithm Chrome traces and the horizon CSV to --out.
            cagvt_bench::trace_experiment(&scale, out_dir.as_deref().map(std::path::Path::new))
        } else if name == "health" {
            // Likewise: writes per-series epoch CSV/JSONL/Prometheus
            // telemetry to --out and runs the health rules over it.
            cagvt_bench::health_experiment(&scale, out_dir.as_deref().map(std::path::Path::new))
        } else {
            let Some(mode) = find_mode(name) else {
                usage_exit(&format!("unknown experiment: {name}"));
            };
            (mode.run)(&scale)
        };
        for row in &rows {
            println!("{}", row.csv());
        }
        eprintln!("# {name}: {} rows in {:.1}s", rows.len(), t0.elapsed().as_secs_f64());
        if let Some(dir) = &out_dir {
            let path = format!("{dir}/{name}.csv");
            let mut f = std::fs::File::create(&path).expect("create figure csv");
            writeln!(f, "{}", Row::csv_header()).unwrap();
            for row in &rows {
                writeln!(f, "{}", row.csv()).unwrap();
            }
        }
    }
}
