//! Chrome trace-event JSON exporter (Perfetto-loadable).
//!
//! Layout: each virtual node is a *process* (`pid` = node index) whose
//! *threads* are its workers (`tid` = lane) and its MPI actor (`tid` =
//! workers-per-node); one extra process (`pid` = node count) carries the
//! cluster-global track (GVT publications). GVT rounds are stitched across
//! tracks with flow events (`ph: s/t/f`, `id` = round), phase transitions
//! are thread-scoped instants, queue depths and LVTs are counter series,
//! and event-processing / barrier-wait stretches are complete spans
//! (`ph: X`).
//!
//! Timestamps: the trace-event format counts in microseconds; records are
//! stamped in simulated wall-clock nanoseconds, exported as `ns/1000` with
//! three decimals so the JSON is byte-deterministic for a deterministic
//! record stream.

use crate::ring::TraceEvent;
use cagvt_base::{GvtPhaseKind, TraceRecord, Track};
use cagvt_net::ClusterSpec;
use std::collections::BTreeSet;

/// Chrome `(pid, tid)` of a track on the cluster `spec`.
fn pid_tid(spec: &ClusterSpec, track: Track) -> (u32, u32) {
    match track {
        Track::Worker(w) => {
            let (node, lane) = spec.worker(w);
            (node.0 as u32, lane.0 as u32)
        }
        Track::Mpi(n) => (n as u32, spec.workers_per_node as u32),
        Track::Global => (spec.nodes as u32, 0),
    }
}

fn ts(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn f64_json(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no Infinity literal; clamp (only reachable if a caller
        // records a non-finite virtual time, which the engine filters).
        format!("{}", f64::MAX)
    }
}

struct Out {
    buf: String,
    first: bool,
}

impl Out {
    fn new() -> Self {
        Out { buf: String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"), first: true }
    }

    /// Append one pre-rendered JSON object.
    fn push(&mut self, obj: String) {
        if !self.first {
            self.buf.push_str(",\n");
        }
        self.first = false;
        self.buf.push_str(&obj);
    }

    fn finish(mut self) -> String {
        self.buf.push_str("\n]}\n");
        self.buf
    }
}

fn meta_event(name: &str, pid: u32, tid: u32, value: &str) -> String {
    format!(
        "{{\"ph\":\"M\",\"name\":\"{name}\",\"pid\":{pid},\"tid\":{tid},\
         \"args\":{{\"name\":\"{value}\"}}}}"
    )
}

/// Render a merged record stream (from `TraceRecorder::snapshot`) of a run
/// on the cluster `spec` as a Chrome trace-event JSON document.
pub fn chrome_trace(spec: &ClusterSpec, events: &[TraceEvent]) -> String {
    let mut out = Out::new();
    let wpn = spec.workers_per_node as u32;

    // Track naming metadata: one process per node plus the cluster track.
    for n in 0..spec.nodes as u32 {
        out.push(meta_event("process_name", n, 0, &format!("node{n}")));
        for lane in 0..wpn {
            out.push(meta_event("thread_name", n, lane, &format!("worker@{n}.{lane}")));
        }
        out.push(meta_event("thread_name", n, wpn, &format!("mpi@{n}")));
    }
    out.push(meta_event("process_name", spec.nodes as u32, 0, "cluster"));
    out.push(meta_event("thread_name", spec.nodes as u32, 0, "gvt"));

    // Flow-event bookkeeping: the first phase record of a round starts the
    // flow ("s"), the publish finishes it ("f"), everything between steps
    // it ("t").
    let mut rounds_seen: BTreeSet<u64> = BTreeSet::new();

    for ev in events {
        let (pid, tid) = pid_tid(spec, ev.rec.track());
        let t = ts(ev.t.0);
        match ev.rec {
            TraceRecord::EventSpan { id, dst, vt, dur, .. } => out.push(format!(
                "{{\"ph\":\"X\",\"name\":\"event\",\"cat\":\"lp\",\"pid\":{pid},\"tid\":{tid},\
                 \"ts\":{t},\"dur\":{dur},\"args\":{{\"id\":\"{id}\",\"lp\":\"{dst}\",\
                 \"vt\":{vt}}}}}",
                dur = ts(dur.0),
                vt = f64_json(vt.as_f64()),
            )),
            TraceRecord::BarrierWait { dur, .. } => out.push(format!(
                "{{\"ph\":\"X\",\"name\":\"barrier-wait\",\"cat\":\"gvt\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{t},\"dur\":{dur}}}",
                dur = ts(dur.0),
            )),
            TraceRecord::MsgSend { id, dst, vt, anti, remote, .. } => out.push(format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"send\",\"cat\":\"msg\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{t},\"args\":{{\"id\":\"{id}\",\"dst\":\"{dst}\",\
                 \"vt\":{vt},\"anti\":{anti},\"remote\":{remote}}}}}",
                vt = f64_json(vt.as_f64()),
            )),
            TraceRecord::MsgRecv { id, vt, anti, .. } => out.push(format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"recv\",\"cat\":\"msg\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{t},\"args\":{{\"id\":\"{id}\",\"vt\":{vt},\
                 \"anti\":{anti}}}}}",
                vt = f64_json(vt.as_f64()),
            )),
            TraceRecord::Reenqueue { id, vt, .. } => out.push(format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"reenqueue\",\"cat\":\"msg\",\
                 \"pid\":{pid},\"tid\":{tid},\"ts\":{t},\"args\":{{\"id\":\"{id}\",\
                 \"vt\":{vt}}}}}",
                vt = f64_json(vt.as_f64()),
            )),
            TraceRecord::Annihilate { id, pending, .. } => out.push(format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"annihilate\",\"cat\":\"msg\",\
                 \"pid\":{pid},\"tid\":{tid},\"ts\":{t},\"args\":{{\"id\":\"{id}\",\
                 \"pending\":{pending}}}}}",
            )),
            TraceRecord::Rollback { undone, straggler, .. } => out.push(format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"rollback\",\"cat\":\"lp\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{t},\"args\":{{\"undone\":{undone},\
                 \"straggler\":{straggler}}}}}",
            )),
            TraceRecord::GvtRound { round, phase, .. } => {
                out.push(format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"gvt:{label}\",\"cat\":\"gvt\",\
                     \"pid\":{pid},\"tid\":{tid},\"ts\":{t},\"args\":{{\"round\":{round}}}}}",
                    label = phase.label(),
                ));
                let ph = if rounds_seen.insert(round) {
                    's'
                } else if phase == GvtPhaseKind::Publish {
                    'f'
                } else {
                    't'
                };
                let bp = if ph == 'f' { ",\"bp\":\"e\"" } else { "" };
                out.push(format!(
                    "{{\"ph\":\"{ph}\",\"name\":\"gvt-round\",\"cat\":\"gvt\",\"id\":{round},\
                     \"pid\":{pid},\"tid\":{tid},\"ts\":{t}{bp}}}",
                ));
            }
            TraceRecord::GvtPublish { round, gvt } => {
                out.push(format!(
                    "{{\"ph\":\"i\",\"s\":\"g\",\"name\":\"gvt-publish\",\"cat\":\"gvt\",\
                     \"pid\":{pid},\"tid\":{tid},\"ts\":{t},\"args\":{{\"round\":{round},\
                     \"gvt\":{gvt}}}}}",
                    gvt = f64_json(gvt.as_f64()),
                ));
                out.push(format!(
                    "{{\"ph\":\"C\",\"name\":\"gvt\",\"pid\":{pid},\"tid\":{tid},\"ts\":{t},\
                     \"args\":{{\"gvt\":{gvt}}}}}",
                    gvt = f64_json(gvt.as_f64()),
                ));
            }
            TraceRecord::MpiQueue { depth, inbound, .. } => out.push(format!(
                "{{\"ph\":\"C\",\"name\":\"{name}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{t},\
                 \"args\":{{\"depth\":{depth}}}}}",
                name = if inbound { "mpi-inbox" } else { "mpi-outbox" },
            )),
            TraceRecord::Lvt { worker, lvt } => out.push(format!(
                "{{\"ph\":\"C\",\"name\":\"lvt\",\"pid\":{pid},\"tid\":{tid},\"ts\":{t},\
                 \"args\":{{\"w{worker}\":{lvt}}}}}",
                lvt = f64_json(lvt.as_f64()),
            )),
            TraceRecord::ActorDone { actor } => out.push(format!(
                "{{\"ph\":\"i\",\"s\":\"g\",\"name\":\"actor-done\",\"cat\":\"sched\",\
                 \"pid\":{pid},\"tid\":{tid},\"ts\":{t},\"args\":{{\"actor\":{actor}}}}}",
            )),
        }
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagvt_base::ids::{EventId, LpId};
    use cagvt_base::time::{VirtualTime, WallNs};

    fn sample_events() -> Vec<TraceEvent> {
        let id = EventId::new(LpId(4), 2);
        vec![
            TraceEvent {
                seq: 0,
                t: WallNs(1_500),
                rec: TraceRecord::GvtRound {
                    track: Track::Worker(0),
                    round: 1,
                    phase: GvtPhaseKind::RoundStart,
                },
            },
            TraceEvent {
                seq: 1,
                t: WallNs(2_000),
                rec: TraceRecord::EventSpan {
                    worker: 1,
                    id,
                    dst: LpId(9),
                    vt: VirtualTime::new(0.25),
                    dur: WallNs(750),
                },
            },
            TraceEvent {
                seq: 2,
                t: WallNs(2_500),
                rec: TraceRecord::MpiQueue { node: 1, depth: 4, inbound: false },
            },
            TraceEvent {
                seq: 3,
                t: WallNs(3_000),
                rec: TraceRecord::GvtRound {
                    track: Track::Mpi(0),
                    round: 1,
                    phase: GvtPhaseKind::Publish,
                },
            },
            TraceEvent {
                seq: 4,
                t: WallNs(3_000),
                rec: TraceRecord::GvtPublish { round: 1, gvt: VirtualTime::new(0.5) },
            },
        ]
    }

    #[test]
    fn chrome_export_is_valid_json_with_flows() {
        let spec = ClusterSpec::new(2, 2, cagvt_net::MpiMode::Dedicated);
        let json = chrome_trace(&spec, &sample_events());
        let doc = serde_json::from_str(&json).expect("exporter output must be valid JSON");
        let evs = doc["traceEvents"].as_array().unwrap();
        // 2 nodes × (1 process + 2 workers + 1 mpi) + cluster process+thread
        // metadata, then the payload events.
        let phs: Vec<&str> = evs.iter().map(|e| e["ph"].as_str().unwrap()).collect();
        assert!(phs.contains(&"M") && phs.contains(&"X") && phs.contains(&"C"));
        assert!(phs.contains(&"s"), "first phase record starts the round flow");
        assert!(phs.contains(&"f"), "publish finishes the round flow");
        // Timestamps are µs strings with 3 decimals: 1500ns -> 1.5.
        let span = evs.iter().find(|e| e["ph"].as_str() == Some("X")).unwrap();
        assert_eq!(span["ts"].as_f64(), Some(2.0));
        assert_eq!(span["dur"].as_f64(), Some(0.75));
    }
}
