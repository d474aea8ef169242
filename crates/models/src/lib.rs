//! Simulation models for the CA-GVT engine.
//!
//! * [`phold`] — the paper's evaluation workload: the classic PHOLD
//!   benchmark modified (as in the paper) with controllable regional /
//!   remote message percentages, event processing granularity (EPG), and
//!   phase-alternating mixed modes (the `X-Y` models of §6).
//! * [`epidemic`] — an SIR epidemic over a ring of regions; a
//!   computation-leaning domain model used by the examples.
//! * [`cqn`] — the classic closed queueing network benchmark (tandem
//!   queues with probabilistic switching); closed job population makes it
//!   a sharp correctness probe.
//! * [`pcs`] — a personal communication services (cellular) model with
//!   call arrivals, completions and handoffs between neighbouring cells; a
//!   communication-leaning domain model.
//! * [`traffic`] — a grid of signalized intersections on a torus (the
//!   ROSS demo family): neighbour-only traffic with a 2-D locality
//!   pattern.
//! * [`presets`] — the exact workload parameterizations the paper's
//!   evaluation section uses (COMP, COMM, and the 10-15 / 15-10 / 5-5
//!   mixed models), plus matching `SimConfig` defaults.

pub mod cqn;
pub mod epidemic;
pub mod pcs;
pub mod phold;
pub mod presets;
pub mod traffic;

pub use cqn::CqnModel;
pub use epidemic::EpidemicModel;
pub use pcs::PcsModel;
pub use phold::{PhaseSchedule, PholdModel, PholdParams};
pub use presets::{comm_dominated, comp_dominated, mixed_model, Workload};
pub use traffic::TrafficModel;
