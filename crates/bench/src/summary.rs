//! Paper-vs-measured summary: reads the CSVs produced by the `figures`
//! binary and prints the headline comparison table from EXPERIMENTS.md,
//! computed fresh from the data.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

/// One parsed row of a figure CSV (the fields the summary needs).
#[derive(Clone, Debug)]
pub struct FigRow {
    pub series: String,
    pub nodes: u16,
    pub steady_rate: f64,
    pub committed_rate: f64,
    pub efficiency: f64,
}

/// Parse one `results/<figure>.csv` file.
pub fn parse_figure_csv(content: &str) -> Result<Vec<FigRow>, String> {
    let mut lines = content.lines();
    let header = lines.next().ok_or("empty csv")?;
    let cols: Vec<&str> = header.split(',').map(|s| s.trim()).collect();
    let idx = |name: &str| {
        cols.iter().position(|c| *c == name).ok_or_else(|| format!("missing column {name}"))
    };
    let (i_series, i_nodes, i_steady, i_committed, i_eff) = (
        idx("series")?,
        idx("nodes")?,
        idx("steady_rate")?,
        idx("committed_rate")?,
        idx("efficiency")?,
    );
    let mut rows = Vec::new();
    for (n, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split(',').collect();
        let field = |i: usize| f.get(i).copied().unwrap_or("").trim();
        let parse_f = |i: usize| -> Result<f64, String> {
            field(i).parse().map_err(|_| format!("line {}: bad number {:?}", n + 2, field(i)))
        };
        rows.push(FigRow {
            series: field(i_series).to_string(),
            nodes: field(i_nodes).parse().map_err(|_| format!("line {}: bad nodes", n + 2))?,
            steady_rate: parse_f(i_steady)?,
            committed_rate: parse_f(i_committed)?,
            efficiency: parse_f(i_eff)?,
        });
    }
    Ok(rows)
}

fn at(rows: &[FigRow], series: &str, nodes: u16) -> Option<FigRow> {
    rows.iter().find(|r| r.series == series && r.nodes == nodes).cloned()
}

/// A headline claim: measured ratio (a over b, percent) vs the paper's.
struct Claim {
    label: &'static str,
    figure: &'static str,
    over: &'static str,
    under: &'static str,
    paper_pct: f64,
    /// Compare on whole-run committed rate instead of the steady window
    /// (used for the unstable inline baselines).
    whole_run: bool,
}

const CLAIMS: &[Claim] = &[
    Claim {
        label: "dedicated over inline, COMP (Mattern)",
        figure: "fig3",
        over: "mattern-dedicated",
        under: "mattern-inline",
        paper_pct: 51.0,
        whole_run: false,
    },
    Claim {
        label: "dedicated over inline, COMP (Barrier)",
        figure: "fig3",
        over: "barrier-dedicated",
        under: "barrier-inline",
        paper_pct: 17.0,
        whole_run: false,
    },
    Claim {
        label: "dedicated over inline, COMM (Mattern)",
        figure: "fig4",
        over: "mattern-dedicated",
        under: "mattern-inline",
        paper_pct: 1359.0,
        whole_run: true,
    },
    Claim {
        label: "dedicated over inline, COMM (Barrier)",
        figure: "fig4",
        over: "barrier-dedicated",
        under: "barrier-inline",
        paper_pct: 329.0,
        whole_run: true,
    },
    Claim {
        label: "Mattern over Barrier, COMP",
        figure: "fig5",
        over: "mattern",
        under: "barrier",
        paper_pct: 27.9,
        whole_run: false,
    },
    Claim {
        label: "Barrier over Mattern, COMM",
        figure: "fig6",
        over: "barrier",
        under: "mattern",
        paper_pct: 14.5,
        whole_run: false,
    },
    Claim {
        label: "CA-GVT over Barrier, COMP",
        figure: "fig8",
        over: "ca-gvt",
        under: "barrier",
        paper_pct: 19.0,
        whole_run: false,
    },
    Claim {
        label: "CA-GVT over Mattern, COMM",
        figure: "fig9",
        over: "ca-gvt",
        under: "mattern",
        paper_pct: 13.0,
        whole_run: false,
    },
    Claim {
        label: "CA-GVT over Barrier, mixed 10-15",
        figure: "fig10",
        over: "ca-gvt",
        under: "barrier",
        paper_pct: 6.4,
        whole_run: false,
    },
    Claim {
        label: "CA-GVT over Barrier, mixed 15-10",
        figure: "fig11",
        over: "ca-gvt",
        under: "barrier",
        paper_pct: 12.7,
        whole_run: false,
    },
    Claim {
        label: "CA-GVT over Barrier, mixed 5-5",
        figure: "fig12",
        over: "ca-gvt",
        under: "barrier",
        paper_pct: 8.3,
        whole_run: false,
    },
];

/// Render the headline table from a directory of figure CSVs. Missing
/// figures are reported, not fatal.
pub fn summarize(dir: &Path) -> Result<String, String> {
    let mut figures: HashMap<String, Vec<FigRow>> = HashMap::new();
    for claim in CLAIMS {
        if figures.contains_key(claim.figure) {
            continue;
        }
        let path = dir.join(format!("{}.csv", claim.figure));
        match std::fs::read_to_string(&path) {
            Ok(content) => {
                figures.insert(claim.figure.to_string(), parse_figure_csv(&content)?);
            }
            Err(_) => continue,
        }
    }

    let mut out = String::new();
    writeln!(out, "{:<44} {:>10} {:>10}  verdict", "claim (8 nodes)", "paper", "measured").unwrap();
    writeln!(out, "{}", "-".repeat(78)).unwrap();
    for claim in CLAIMS {
        let Some(rows) = figures.get(claim.figure) else {
            writeln!(out, "{:<44} {:>9.1}% {:>10}", claim.label, claim.paper_pct, "missing")
                .unwrap();
            continue;
        };
        let rate = |series| {
            let r = at(rows, series, 8)?;
            let rate = if claim.whole_run { r.committed_rate } else { r.steady_rate };
            // A zero rate is a run that committed nothing: no ratio to judge.
            (rate > 0.0).then_some(rate)
        };
        let (Some(ra), Some(rb)) = (rate(claim.over), rate(claim.under)) else {
            writeln!(out, "{:<44} {:>9.1}% {:>10}", claim.label, claim.paper_pct, "no-data")
                .unwrap();
            continue;
        };
        let measured_pct = (ra / rb - 1.0) * 100.0;
        let verdict = if measured_pct > 0.0 {
            "direction ok"
        } else if measured_pct > -5.0 {
            "ties"
        } else {
            "MISMATCH"
        };
        writeln!(
            out,
            "{:<44} {:>9.1}% {:>9.1}%  {}",
            claim.label, claim.paper_pct, measured_pct, verdict
        )
        .unwrap();
    }

    // Efficiency corner: the paper's COMM efficiencies.
    if let Some(rows) = figures.get("fig9") {
        writeln!(
            out,
            "\nCOMM efficiencies at 8 nodes (paper: Mattern 36.2%, Barrier 85.3%, CA 80.0%):"
        )
        .unwrap();
        for s in ["mattern", "barrier", "ca-gvt"] {
            if let Some(r) = at(rows, s, 8) {
                writeln!(out, "  {:<8} {:>6.1}%", s, r.efficiency * 100.0).unwrap();
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
figure,series,nodes,steady_rate,committed_rate,efficiency,committed
fig5,mattern,1,5.0,4.0,0.99,100
fig5,mattern,8,40.0,38.0,0.99,800
fig5,barrier,8,30.0,29.0,0.99,800
";

    #[test]
    fn parses_figure_csv() {
        let rows = parse_figure_csv(SAMPLE).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].series, "mattern");
        assert_eq!(rows[1].nodes, 8);
        assert_eq!(rows[1].steady_rate, 40.0);
        assert_eq!(rows[2].efficiency, 0.99);
    }

    #[test]
    fn rejects_missing_columns() {
        let err = parse_figure_csv("a,b,c\n1,2,3\n").unwrap_err();
        assert!(err.contains("missing column"));
    }

    #[test]
    fn at_finds_the_right_row() {
        let rows = parse_figure_csv(SAMPLE).unwrap();
        assert!(at(&rows, "mattern", 8).is_some());
        assert!(at(&rows, "mattern", 4).is_none());
        assert!(at(&rows, "ca-gvt", 8).is_none());
    }

    /// A zero rate on either side of a claim has no ratio: `no-data`, never
    /// `inf%` or `NaN%`.
    #[test]
    fn zero_rate_claims_are_no_data() {
        let dir = std::env::temp_dir().join(format!("cagvt-summary-zero-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (mattern, barrier) in [("40.0", "0.0"), ("0.0", "30.0"), ("0.0", "0.0")] {
            let csv = SAMPLE
                .replace("fig5,mattern,8,40.0", &format!("fig5,mattern,8,{mattern}"))
                .replace("fig5,barrier,8,30.0", &format!("fig5,barrier,8,{barrier}"));
            std::fs::write(dir.join("fig5.csv"), csv).unwrap();
            let text = summarize(&dir).unwrap();
            let line = text.lines().find(|l| l.starts_with("Mattern over Barrier, COMP")).unwrap();
            assert!(line.ends_with("no-data"), "{line}");
            assert!(!text.contains("inf") && !text.contains("NaN"), "{text}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn summarize_reads_a_directory() {
        let dir = std::env::temp_dir().join(format!("cagvt-summary-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("fig5.csv"), SAMPLE).unwrap();
        let text = summarize(&dir).unwrap();
        assert!(text.contains("Mattern over Barrier, COMP"));
        assert!(text.contains("33.3%"), "40 over 30 is +33.3%:\n{text}");
        assert!(text.contains("missing"), "other figures are absent");
        std::fs::remove_dir_all(&dir).ok();
    }
}
