//! GVT algorithms from Eker et al., ICPP 2019.
//!
//! Four algorithms against the engine's [`GvtBundle`] interface:
//!
//! * [`barrier::BarrierBundle`] — **synchronous Barrier GVT** (paper
//!   Algorithm 1, Figure 1). Workers stop processing and loop over a
//!   two-level barrier+sum (pthread within a node, MPI across nodes) until
//!   the in-transit message count reaches zero, then barrier-min their
//!   LVTs into the new GVT.
//! * [`mattern::MatternBundle`] — **asynchronous Mattern GVT** (paper
//!   Algorithm 2, Figure 2), the paper's cluster adaptation of Mattern's
//!   distributed snapshot: workers color messages white/red, flush white
//!   send/receive counts into a per-node control structure at the red
//!   transition, a control message circulates a ring of nodes summing the
//!   counters until all white messages have drained, then a second pass
//!   min-reduces LVTs and red timestamps. Workers never stop processing.
//! * [`cagvt::CaGvtBundle`] — **Controlled Asynchronous GVT** (paper
//!   Algorithm 3, Figure 7): Mattern's algorithm plus three conditional
//!   two-level barriers (at the red transition, before the min check-in,
//!   and at round completion) enabled whenever the cumulative simulation
//!   efficiency drops below a threshold (paper: 80%).
//!
//! * [`samadi::SamadiBundle`] — **Samadi's GVT** (1985), the
//!   acknowledgement-based baseline from the paper's related-work section,
//!   implemented to measure the ack-traffic overhead Mattern eliminates.
//!
//! Figures 1, 2 and 7 of the paper are timing diagrams of the first three
//! flows; their prose is folded into the module docs here.

pub mod barrier;
pub mod cagvt;
pub mod common;
pub mod mattern;
pub mod samadi;

use cagvt_core::gvt::GvtBundle;
use cagvt_core::node::EngineShared;
use cagvt_core::Model;
use std::sync::Arc;

pub use barrier::BarrierBundle;
pub use cagvt::CaGvtBundle;
pub use mattern::MatternBundle;
pub use samadi::SamadiBundle;

/// Algorithm selector used by the harness and examples.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum GvtKind {
    Barrier,
    Mattern,
    /// Samadi's acknowledgement-based algorithm (paper §7 related work);
    /// doubles the message traffic, which the `samadi` harness experiment
    /// measures.
    Samadi,
    /// CA-GVT with the given efficiency threshold (the paper uses 0.80).
    CaGvt {
        threshold: f64,
    },
    /// CA-GVT with the extended trigger from the paper's conclusion:
    /// efficiency below `threshold` *or* any node's outbound MPI queue
    /// deeper than `queue_threshold`.
    CaGvtQueue {
        threshold: f64,
        queue_threshold: u64,
    },
}

impl GvtKind {
    pub const CA_DEFAULT: GvtKind = GvtKind::CaGvt { threshold: 0.80 };

    pub fn label(&self) -> &'static str {
        match self {
            GvtKind::Barrier => "barrier",
            GvtKind::Mattern => "mattern",
            GvtKind::Samadi => "samadi",
            GvtKind::CaGvt { .. } => "ca-gvt",
            GvtKind::CaGvtQueue { .. } => "ca-gvt-q",
        }
    }
}

/// Build the selected algorithm's bundle for a prepared engine.
pub fn make_bundle<M: Model>(kind: GvtKind, shared: &Arc<EngineShared<M>>) -> Box<dyn GvtBundle> {
    let core = Arc::clone(&shared.gvt_core);
    let ctrl = Arc::clone(&shared.ctrl);
    let spec = shared.cfg.spec;
    let cost = shared.cfg.cost;
    match kind {
        GvtKind::Barrier => Box::new(BarrierBundle::new(core, spec, cost)),
        GvtKind::Mattern => Box::new(MatternBundle::new(core, ctrl, spec, cost)),
        GvtKind::Samadi => Box::new(SamadiBundle::new(core, spec, cost)),
        GvtKind::CaGvt { threshold } => {
            Box::new(CaGvtBundle::new(core, ctrl, spec, cost, threshold, None))
        }
        GvtKind::CaGvtQueue { threshold, queue_threshold } => {
            Box::new(CaGvtBundle::new(core, ctrl, spec, cost, threshold, Some(queue_threshold)))
        }
    }
}
