//! `hostbench`: run one workload repeatedly for a fixed time, cycling
//! through inputs derived from the seed, check every run against the
//! sequential reference, and print its metrics, with times calibrated by
//! the kernel in `calib.rs` timed between the runs.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload mixed-cagvt-4n [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced runs and prints the per-layer metrics, writing the
//! summed layer spans to `hostbench/out/layers-<workload>.json`. The last
//! line of stdout is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `--manifest` prints the `BENCHMARK.json` this benchmark
//! defines.

use cagvt_core::seq::SeqOutcome;
use cagvt_hostbench::{
    calib, calibrate, check, end_to_end_values, per_layer_values, workload, Case, Layer,
    LayerTotals, Metric, Probe, RunTiming, DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Seconds one invocation measures (`run_seconds` in `BENCHMARK.json`).
/// The host's speed dips for tens of seconds at a time; a window this long
/// keeps one dip from covering more than one or two of ten invocations.
const RUN_SECONDS: u64 = 35;
/// Fewest measured iterations (pairs, when tracing) whatever `--seconds`.
const MIN_ITERATIONS: usize = INPUTS;
/// Inputs an untraced invocation cycles its runs through, each from its own
/// seed derived from `--seed` ([`input_seeds`]). A seed moves a run's work
/// by up to 20 % (the scheduler steps follow the number of GVT rounds), so
/// the metrics average over several.
const INPUTS: usize = 4;
/// Set-ups timed per measured run (the extra clusters are dropped unrun):
/// a set-up is tens of milliseconds, so `setup_s` needs more samples than
/// there are runs to be steady.
const SETUPS_PER_RUN: usize = 5;

struct Args {
    workload: &'static cagvt_hostbench::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    Manifest,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Command, String> {
    let mut args = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--manifest" => return Ok(Command::Manifest),
            "--workload" => name = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = parse_seed(&v).ok_or_else(|| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds {v}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v} (0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = workload(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seconds = seconds.unwrap_or(RUN_SECONDS as f64);
    Ok(Command::Run(Args { workload, seed, seconds, trace }))
}

/// Reset the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so the
/// next reading covers only what follows. False if the kernel refused.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory of this process since the last reset, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Median of each column of `rows`.
fn column_medians<const N: usize>(rows: &[[f64; N]]) -> [f64; N] {
    std::array::from_fn(|i| median(&mut rows.iter().map(|r| r[i]).collect::<Vec<_>>()))
}

/// One input of a workload: the case and its sequential reference outcome.
struct Input {
    case: Case,
    oracle: SeqOutcome,
}

impl Input {
    fn new(workload: &cagvt_hostbench::Workload, seed: u64) -> Input {
        let case = Case::new(workload, seed);
        let oracle = case.oracle();
        Input { case, oracle }
    }
}

/// The seeds of the inputs one invocation cycles through; the first is
/// `seed` itself.
fn input_seeds(seed: u64) -> [u64; INPUTS] {
    std::array::from_fn(|j| seed ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Tally of runs and their check results.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Check one run; a failure is reported on stderr, never as a row.
    fn check(&mut self, input: &Input, run: &RunTiming, args: &Args) -> bool {
        if self.attempted == 0 {
            let r = &run.report;
            eprintln!(
                "# run: committed {} processed {} rolled_back {} gvt_rounds {} (sync {}) \
                 steps {} idle {} wall {:.3}s cpu {:.3}s setup {:.4}s",
                r.committed,
                r.processed,
                r.rolled_back,
                r.gvt_rounds,
                r.sync_rounds,
                r.sched_steps,
                r.sched_idle_steps,
                run.wall_s,
                run.cpu_s,
                run.setup_s()
            );
        }
        self.attempted += 1;
        match check(&run.report, &input.case.cfg, &input.oracle) {
            Ok(()) => true,
            Err(m) => {
                self.failed += 1;
                eprintln!(
                    "FAIL workload={} seed={} input_seed={:#x} {m}",
                    args.workload.name, args.seed, input.case.cfg.seed
                );
                false
            }
        }
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Print the metric table (stdout) and the result line (last stdout line).
fn report(metrics: &[Metric], values: &[f64], tally: &Tally, runs: usize) {
    for (m, v) in metrics.iter().zip(values) {
        println!("{:<36} {:>20} {}", m.name, json_f64(*v), m.unit);
    }
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "{:<36} {:>20} ratio ({} of {} runs failed; {runs} measured)",
        "error_rate", error_rate, tally.failed, tally.attempted
    );
    let mut json = String::new();
    for (m, v) in metrics.iter().zip(values) {
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_f64(*v),
            m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
}

fn run_untraced(args: &Args, inputs: &[Input]) -> Tally {
    let mut tally = Tally::default();
    let mut rows: Vec<Vec<[f64; END_TO_END.len()]>> = inputs.iter().map(|_| Vec::new()).collect();
    if !reset_peak_rss() {
        eprintln!("warning: cannot reset the peak-RSS mark; peak_rss_mb covers the whole process");
    }
    let mut setups = Vec::new();
    // Warm-up: the first run of a process also pays for growing the heap.
    // It is checked like every run but not measured.
    tally.check(&inputs[0], &inputs[0].case.run(None), args);
    let mut calib = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut i = 0;
    while i < MIN_ITERATIONS || start.elapsed() < budget {
        let input = &inputs[i % inputs.len()];
        setups.extend((1..SETUPS_PER_RUN).map(|_| input.case.setup_s()));
        calib.push(calib::timed());
        reset_peak_rss();
        let run = input.case.run(None);
        let rss = peak_rss_mb();
        calib.push(calib::timed());
        setups.push(run.setup_s());
        if tally.check(input, &run, args) {
            rows[i % inputs.len()].push(end_to_end_values(&run, rss).map(|(_, v)| v));
        } else if rows.iter().all(Vec::is_empty) && tally.attempted as usize >= MIN_ITERATIONS {
            break;
        }
        i += 1;
    }
    // Median over each input's runs, then the mean over the inputs.
    let medians: Vec<_> =
        rows.iter().filter(|r| !r.is_empty()).map(|r| column_medians(r)).collect();
    let mut values: [f64; END_TO_END.len()] =
        std::array::from_fn(|c| medians.iter().map(|m| m[c]).sum::<f64>() / medians.len() as f64);
    let setup = END_TO_END.iter().position(|m| m.name == "setup_s").expect("setup_s is defined");
    values[setup] = median(&mut setups);
    let calib_s = median(&mut calib);
    eprintln!(
        "# medians on the CPU clock: run {:.4} s, set-up {:.5} s, calibration kernel {calib_s:.4} s",
        values[0], values[setup]
    );
    let values = calibrate(values, calib_s);
    let measured = rows.iter().map(Vec::len).sum();
    report(&END_TO_END, &values, &tally, measured);
    tally
}

fn run_traced(args: &Args, input: &Input) -> Tally {
    let case = &input.case;
    let mut tally = Tally::default();
    let mut rows = Vec::new();
    let mut sum = LayerTotals::default();
    let mut traced_wall_s = 0.0;
    let total_lps = case.cfg.total_lps();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    while rows.len() < MIN_ITERATIONS || start.elapsed() < budget {
        let plain = case.run(None);
        let probe = Probe::new();
        let traced = case.run(Some(&probe));
        let layers = probe.totals();
        let calib_s = calib::timed();
        let ok_plain = tally.check(input, &plain, args);
        let ok_traced = tally.check(input, &traced, args);
        if ok_plain && ok_traced {
            rows.push(
                per_layer_values(&traced, &layers, &plain, total_lps, calib_s).map(|(_, v)| v),
            );
            sum.add(&layers);
            traced_wall_s += traced.wall_s;
        } else if rows.is_empty() && tally.attempted as usize >= 2 * MIN_ITERATIONS {
            break;
        }
    }
    let values = if rows.is_empty() { [f64::NAN; PER_LAYER.len()] } else { column_medians(&rows) };
    if !rows.is_empty() {
        if let Err(e) = write_layers(args, &sum, traced_wall_s, rows.len()) {
            eprintln!("warning: cannot write the layer file: {e}");
        }
    }
    report(&PER_LAYER, &values, &tally, rows.len());
    tally
}

/// Write the summed layer spans of the traced runs to
/// `out/layers-<workload>.json` in this crate's directory.
fn write_layers(args: &Args, sum: &LayerTotals, wall_s: f64, runs: usize) -> std::io::Result<()> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let mut layers = String::new();
    for layer in Layer::ALL {
        let s = sum.get(layer);
        let _ = write!(
            layers,
            "{}\n    {{\"layer\": \"{}\", \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            if layers.is_empty() { "" } else { "," },
            layer.name(),
            s.calls,
            s.total_ns,
            s.self_ns
        );
    }
    let body = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"traced_runs\": {runs},\n  \
         \"traced_wall_ns\": {},\n  \"worker_idle_steps\": {},\n  \"worker_idle_ns\": {},\n  \
         \"mpi_idle_steps\": {},\n  \"gvt_blocked\": {},\n  \"layers\": [{layers}\n  ]\n}}\n",
        args.workload.name,
        args.seed,
        (wall_s * 1e9).round() as u64,
        sum.worker_idle_steps,
        sum.worker_idle_ns,
        sum.mpi_idle_steps,
        sum.gvt_blocked,
    );
    std::fs::write(dir.join(format!("layers-{}.json", args.workload.name)), body)
}

/// The `BENCHMARK.json` this benchmark defines.
fn manifest() -> String {
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
        .collect();
    let metrics = |list: &[Metric]| -> String {
        list.iter()
            .map(|m| {
                let bound = m.bound.map(|b| format!(", \"bound\": {b}")).unwrap_or_default();
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"{bound}}}",
                    quote(m.name),
                    quote(m.unit),
                    m.better.as_str()
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"hostbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"hostbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        metrics(&END_TO_END),
        metrics(&PER_LAYER),
    )
}

fn main() -> ExitCode {
    // `build_shared_observed` installs a stderr trace sink when this is set,
    // and every number would then measure the printing.
    if std::env::var_os("CAGVT_TRACE").is_some() {
        eprintln!(
            "hostbench: refusing to run with CAGVT_TRACE set (it installs a stderr trace sink)"
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(Command::Run(args)) => args,
        Ok(Command::Manifest) => {
            print!("{}", manifest());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!(
                "usage: hostbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] | --manifest",
                WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cfg = Case::new(args.workload, args.seed).cfg;
    eprintln!(
        "# {} seed={:#x}: {} nodes x {} workers x {} LPs, end time {}",
        args.workload.name,
        args.seed,
        cfg.spec.nodes,
        cfg.spec.workers_per_node,
        cfg.lps_per_worker,
        cfg.end_time
    );
    let tally = if args.trace {
        run_traced(&args, &Input::new(args.workload, args.seed))
    } else {
        let inputs = input_seeds(args.seed).map(|s| Input::new(args.workload, s));
        run_untraced(&args, &inputs)
    };
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
