//! End-to-end tests of the tracing subsystem against real engine runs:
//! deterministic record streams under the virtual scheduler, and a
//! Perfetto/Chrome export of a 4-node communication-dominated PHOLD run
//! whose track and phase structure is verified through the JSON parser.

use cagvt_core::cluster::run_virtual_with;
use cagvt_core::{RunReport, SimConfig};
use cagvt_exec::VirtualConfig;
use cagvt_gvt::{make_bundle, GvtKind};
use cagvt_models::presets::comm_dominated;
use cagvt_trace::{chrome_trace, TraceRecorder};
use std::sync::Arc;

const NODES: u16 = 4;
const WPN: u16 = 4;

fn config() -> SimConfig {
    let mut cfg = SimConfig::paper(NODES);
    cfg.spec = cagvt_net::ClusterSpec::new(NODES, WPN, cagvt_net::MpiMode::Dedicated);
    cfg.lps_per_worker = 8;
    cfg.end_time = 2.0;
    cfg.gvt_interval = 25;
    cfg.max_outstanding = 600;
    cfg.seed = 0x7ACE;
    cfg
}

fn traced_run(kind: GvtKind) -> (Arc<TraceRecorder>, RunReport) {
    let cfg = config();
    let workload = comm_dominated(&cfg);
    let recorder = TraceRecorder::new();
    let model = Arc::new(workload.model.clone());
    let vcfg = VirtualConfig {
        trace: Some(recorder.clone() as Arc<dyn cagvt_base::TraceSink>),
        ..Default::default()
    };
    let report = run_virtual_with(model, cfg, vcfg, |shared| make_bundle(kind, shared));
    (recorder, report)
}

/// Two identical runs under the virtual scheduler must record the exact
/// same event stream: same order, same timestamps, same payloads.
#[test]
fn record_stream_is_deterministic() {
    let (a, ra) = traced_run(GvtKind::Mattern);
    let (b, rb) = traced_run(GvtKind::Mattern);
    assert_eq!(ra.state_fingerprint, rb.state_fingerprint);
    let (sa, sb) = (a.snapshot(), b.snapshot());
    assert!(!sa.is_empty());
    assert_eq!(sa, sb, "traced record streams diverged between identical runs");
    assert_eq!(a.dropped(), b.dropped());
}

/// The Chrome export of a 4-node COMM-PHOLD run must parse as JSON and
/// carry the expected structure: one named thread per worker, per MPI
/// actor and for the GVT track, spans, GVT phase instants and flow events.
#[test]
fn chrome_export_has_expected_track_and_phase_structure() {
    let (recorder, report) = traced_run(GvtKind::Barrier);
    assert!(report.completed);
    let events = recorder.snapshot();
    let json = chrome_trace(&config().spec, &events);
    let v = serde_json::from_str(&json).expect("chrome trace must be valid JSON");
    let evs = v["traceEvents"].as_array().expect("traceEvents array");
    assert!(!evs.is_empty());

    let mut threads = std::collections::BTreeSet::new();
    let mut spans = 0u64;
    let mut phases = std::collections::BTreeSet::new();
    let (mut flow_starts, mut flow_ends) = (0u64, 0u64);
    for e in evs {
        match e["ph"].as_str().expect("ph") {
            "M" if e["name"].as_str() == Some("thread_name") => {
                threads.insert(e["args"]["name"].as_str().expect("thread name").to_string());
            }
            "X" => spans += 1,
            "i" => {
                if let Some(name) = e["name"].as_str() {
                    if let Some(label) = name.strip_prefix("gvt:") {
                        phases.insert(label.to_string());
                    }
                }
            }
            "s" => flow_starts += 1,
            "f" => flow_ends += 1,
            _ => {}
        }
    }
    // Tracks: every worker lane, every MPI actor, and the global GVT line.
    for n in 0..NODES {
        for l in 0..WPN {
            assert!(threads.contains(&format!("worker@{n}.{l}")), "missing worker@{n}.{l}");
        }
        assert!(threads.contains(&format!("mpi@{n}")), "missing mpi@{n}");
    }
    assert!(threads.contains("gvt"), "missing global gvt track");
    assert!(spans > 0, "no event-processing spans exported");
    // Barrier rounds go through enter -> sum -> exit -> publish.
    for label in ["barrier-enter", "sum-pass", "barrier-exit", "publish"] {
        assert!(phases.contains(label), "missing gvt phase instant {label}");
    }
    assert!(flow_starts > 0, "rounds must open flow events");
    assert!(flow_ends > 0, "published rounds must close flow events");
    assert!(flow_ends <= flow_starts);
}
