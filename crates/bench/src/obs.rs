//! Experiment-side observability plumbing: saving a [`Recorder`]'s JSONL
//! export next to the CSVs under `target/experiments/`, and rendering its
//! per-phase span breakdown as a [`Table`].

use std::io;
use std::path::PathBuf;

use whisper_obs::Recorder;

use crate::Table;

/// Writes the recorder's full export (spans, counters, gauges, histograms)
/// as JSON Lines under `target/experiments/<name>.jsonl` and returns the
/// path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_jsonl(rec: &Recorder, name: &str) -> io::Result<PathBuf> {
    crate::table::save(&format!("{name}.jsonl"), &rec.to_jsonl())
}

/// Renders the recorder's per-phase span breakdown (one row per span name,
/// sorted by total time, like a collapsed flame graph) as a table named
/// `name`.
pub fn phase_table(rec: &Recorder, name: &str) -> Table {
    let mut t = Table::new(name, &["phase", "count", "total ms", "mean ms"]);
    for (phase, count, total, mean) in rec.phase_summary() {
        t.row([
            phase,
            count.to_string(),
            crate::table::ms(total),
            crate::table::ms(mean),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_simnet::{SimDuration, SimTime};

    #[test]
    fn phase_table_has_one_row_per_span_name() {
        let rec = Recorder::new();
        let t0 = SimTime::ZERO;
        let req = rec.begin_request("r", t0);
        let a = rec.start_span("alpha", req, t0);
        rec.end_span(a, t0 + SimDuration::from_millis(2));
        let b = rec.start_span("beta", req, t0);
        rec.end_span(b, t0 + SimDuration::from_millis(1));
        let t = phase_table(&rec, "test_phases");
        assert_eq!(t.len(), 2);
        assert!(t.render().contains("alpha"));
    }
}
