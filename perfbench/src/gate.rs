//! The correctness gate: every timed step renders its report, and the
//! rendering's digests must agree across steps, repetitions and modes
//! of one seed. A mismatch counts as a failed operation.

use crate::stats::fnv64;
use wmtree::Report;

/// The server's CSV export names, in the order the report writes them.
pub const CSV_NAMES: [&str; 8] = [
    "fig1", "fig2", "fig3", "fig4", "fig7", "fig8", "table5", "table7",
];

/// A report's CSV export by its server name.
fn csv(report: &Report, name: &str) -> String {
    match name {
        "fig1" => report.fig1_csv(),
        "fig2" => report.fig2_csv(),
        "fig3" => report.fig3_csv(),
        "fig4" => report.fig4_csv(),
        "fig7" => report.fig7_csv(),
        "fig8" => report.fig8_csv(),
        "table5" => report.table5_csv(),
        _ => report.table7_csv(),
    }
}

/// Digests of a rendered report: text, JSON and every CSV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportDigest {
    /// Text report (`Report::render`).
    pub text: u64,
    /// JSON report (`Report::to_json`).
    pub json: u64,
    /// Each CSV, in [`CSV_NAMES`] order.
    pub csv: [u64; 8],
}

/// A rendered report: what the user receives from a step.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// Text report.
    pub text: String,
    /// JSON report.
    pub json: String,
    /// CSVs in [`CSV_NAMES`] order.
    pub csvs: Vec<String>,
}

impl Rendered {
    /// Render text, JSON and all CSVs, in memory.
    pub fn of(report: &Report) -> Rendered {
        Rendered {
            text: report.render(),
            json: report.to_json(),
            csvs: CSV_NAMES.iter().map(|n| csv(report, n)).collect(),
        }
    }

    /// Total rendered bytes.
    pub fn bytes(&self) -> usize {
        self.text.len() + self.json.len() + self.csvs.iter().map(String::len).sum::<usize>()
    }

    /// Digests of every rendering.
    pub fn digest(&self) -> ReportDigest {
        let mut csv = [0u64; 8];
        for (slot, body) in csv.iter_mut().zip(&self.csvs) {
            *slot = fnv64(body.as_bytes());
        }
        ReportDigest {
            text: fnv64(self.text.as_bytes()),
            json: fnv64(self.json.as_bytes()),
            csv,
        }
    }
}

/// Counts checked operations against one reference digest per run.
#[derive(Debug, Default)]
pub struct Gate {
    reference: Option<ReportDigest>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed or disagreed with the reference.
    pub failed: u64,
}

impl Gate {
    /// Check one step's digest: the first one becomes the reference,
    /// every later one must equal it.
    pub fn check(&mut self, step: &str, digest: ReportDigest) {
        self.attempted += 1;
        match self.reference {
            None => self.reference = Some(digest),
            Some(r) if r == digest => {}
            Some(_) => self.fail(format!(
                "{step}: report digest differs from the run's first report"
            )),
        }
    }

    /// Count an operation that could not complete, logging why.
    pub fn fail(&mut self, detail: String) {
        eprintln!("[perfbench] FAILED {detail}");
        self.failed += 1;
    }

    /// Count an attempted operation and, when `failure` is set, its
    /// failure.
    pub fn expect(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(detail) = failure {
            self.fail(detail);
        }
    }

    /// No failures so far?
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_fails_on_a_corrupted_digest() {
        let good = ReportDigest {
            text: 1,
            json: 2,
            csv: [3; 8],
        };
        let mut gate = Gate::default();
        gate.check("record", good);
        gate.check("replay", good);
        assert!(gate.correct());

        let mut corrupted = good;
        corrupted.csv[5] ^= 1;
        gate.check("merge", corrupted);
        assert!(!gate.correct());
        assert_eq!((gate.attempted, gate.failed), (3, 1));
    }
}
