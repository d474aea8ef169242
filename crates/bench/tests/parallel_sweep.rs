//! Serial/parallel equivalence of the sweep runner: the same cell grid
//! executed on one thread and on several must produce byte-identical CSV
//! rows, in the same order. This is the contract that lets the figure
//! harness parallelize without perturbing any published artifact.

use cagvt_bench::{grid_with, Cell, Load, Row, Scale};
use cagvt_gvt::GvtKind;

/// A small but non-trivial grid: two algorithms, two workloads, two node
/// counts — eight deterministic runs, each with rollback traffic.
fn tiny_cells() -> Vec<Cell> {
    let scale = Scale::bench();
    let mut cells = Vec::new();
    for (kind, series) in [(GvtKind::Mattern, "mattern"), (GvtKind::Barrier, "barrier")] {
        for (load, wname) in [(Load::Comp, "comp"), (Load::Comm, "comm")] {
            for nodes in [1u16, 2] {
                cells.push(Cell {
                    nodes,
                    ..Cell::new(format!("{wname}-{series}"), kind, load, &scale)
                });
            }
        }
    }
    cells
}

fn run(threads: usize) -> Vec<Row> {
    grid_with("ident", tiny_cells(), threads)
}

#[test]
fn parallel_rows_are_byte_identical_to_serial() {
    let serial: Vec<String> = run(1).iter().map(|r| r.csv()).collect();
    let parallel: Vec<String> = run(4).iter().map(|r| r.csv()).collect();
    assert_eq!(serial.len(), 8);
    assert_eq!(serial, parallel, "thread count must not perturb any CSV byte");
}

#[test]
fn parallel_reports_match_serial_fingerprints() {
    // Beyond the CSV projection: the full simulation outcome (state
    // fingerprint, committed counts, final GVT) is thread-count-invariant.
    let serial = run(1);
    let parallel = run(3);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.report.state_fingerprint, p.report.state_fingerprint, "{}", s.series);
        assert_eq!(s.report.committed, p.report.committed, "{}", s.series);
        assert_eq!(s.report.final_gvt, p.report.final_gvt, "{}", s.series);
    }
}
