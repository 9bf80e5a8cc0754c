//! The metric registry, the printed table and the result records.
//!
//! Every metric the benchmark can emit is declared once, here, with its
//! unit; `BENCHMARK.json` lists the same names (a self-test compares the
//! two). A run fills a [`Report`]; metrics of layers a workload does not
//! exercise stay at zero with `n = 0`.

use std::fmt::Write as _;

use crate::stats::Summary;

/// Name and unit of every end-to-end metric, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lat_p50_us", "us"),
    ("goodput_rps", "1/s"),
    ("outage_ms", "ms"),
];

/// Name and unit of every per-layer metric, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("xml.parse_us", "us"),
    ("xml.write_us", "us"),
    ("xml.parse_mib_s", "MiB/s"),
    ("soap.parse_us", "us"),
    ("soap.build_us", "us"),
    ("wsdl.parse_us", "us"),
    ("ontology.load_us", "us"),
    ("ontology.match_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.frame_bytes", "bytes"),
    ("wire.flush1_us", "us"),
    ("wire.flush8_us", "us"),
    ("p2p.lookup_us", "us"),
    ("p2p.adv_parse_us", "us"),
    ("p2p.adv_bytes", "bytes"),
    ("election.settle_ms", "ms"),
    ("election.started", "count"),
    ("election.msgs_per_election", "count"),
    ("simnet.tcpnet_hop_us", "us"),
    ("simnet.threadnet_hop_us", "us"),
    ("simnet.msgs_per_req", "count"),
    ("simnet.bytes_per_req", "bytes"),
    ("simnet.frames_per_flush", "count"),
    ("simnet.backpressure_waits", "count"),
    ("simnet.decode_errors", "count"),
    ("simnet.engine_events_per_s", "1/s"),
    ("simnet.virtual_lat_p50_us", "us"),
    ("core.matchmaker_warm_us", "us"),
    ("core.matchmaker_cold_us", "us"),
    ("core.match_cache_hit_share", "%"),
    ("core.backend_us", "us"),
    ("core.proxy_discoveries", "count"),
    ("core.proxy_rebinds", "count"),
    ("core.proxy_faults", "count"),
    ("core.detect_ms", "ms"),
    ("core.rebind_ms", "ms"),
    ("obs.recorder_overhead_pct", "%"),
    ("obs.flight_overhead_pct", "%"),
    ("client.rtt_w1_p50_us", "us"),
    ("client.rtt_w1_p99_us", "us"),
    ("client.lat_w4_p99_us", "us"),
    ("client.lat_w16_p50_us", "us"),
    ("client.lat_w16_p99_us", "us"),
    ("client.cpu_us_per_req", "us"),
    ("client.cpu_busy_share", "%"),
    ("client.gen_late_p99_us", "us"),
    ("client.failed_in_outage", "count"),
    ("client.steady_p50_us", "us"),
    ("client.fail_share", "%"),
    ("trace.path_sum_us", "us"),
    ("trace.unattributed_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.soap_us", "us"),
    ("trace.wire_us", "us"),
    ("trace.simnet_us", "us"),
    ("trace.core_us", "us"),
];

/// The unit `name` was declared with.
///
/// # Panics
///
/// Panics on an undeclared name: a typo in the benchmark, caught by the
/// first run.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("metric {name:?} is not declared in report.rs"))
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, Summary)>,
    /// Requests sent, cold requests included.
    pub attempted: u64,
    /// Requests answered with a fault or a wrong body, answered twice, or
    /// not answered by the time the run drained.
    pub failed: u64,
    /// The subset of `failed` that is a correctness violation on every
    /// workload: wrong bodies and ids answered twice.
    pub violations: u64,
}

impl Report {
    /// Records `name` (declared in this file) as the median of `values`.
    pub fn set(&mut self, name: &'static str, values: &[f64]) {
        self.set_summary(name, Summary::of(values));
    }

    /// Records `name` as the lowest decile of per-slice costs.
    pub fn set_cost(&mut self, name: &'static str, values: &[f64]) {
        self.set_summary(name, Summary::quiet_cost(values));
    }

    /// Records `name` as the highest decile of per-slice rates.
    pub fn set_rate(&mut self, name: &'static str, values: &[f64]) {
        self.set_summary(name, Summary::quiet_rate(values));
    }

    /// Records `name` as a single reading.
    pub fn set_one(&mut self, name: &'static str, value: f64) {
        self.set_summary(name, Summary::single(value));
    }

    /// Records `name` with a ready-made summary.
    pub fn set_summary(&mut self, name: &'static str, summary: Summary) {
        unit_of(name); // declared?
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = summary,
            None => self.metrics.push((name, summary)),
        }
    }

    /// The recorded summary of `name`, if any.
    pub fn get(&self, name: &str) -> Option<Summary> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
    }

    /// Counts a phase's requests into the totals.
    pub fn count(&mut self, log: &crate::generator::PhaseLog) {
        self.attempted += log.issued;
        self.failed += log.failed();
        self.violations += log.violations();
    }

    /// Every metric of `set` in declaration order; ones the run did not
    /// record read as zero over `n = 0` values.
    pub fn rows(
        &self,
        set: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, &'static str, Summary)> {
        set.iter()
            .map(|&(name, unit)| (name, unit, self.get(name).unwrap_or(Summary::of(&[]))))
            .collect()
    }

    /// The table a person reads: every recorded metric by name with unit,
    /// `n`, quartiles, and the value it reports (the median for waits, the
    /// best decile for work).
    pub fn table(&self, traced: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<30} {:>8} {:>5} {:>13} {:>13} {:>13} {:>13}",
            "metric", "unit", "n", "q1", "median", "q3", "value"
        );
        let mut sets = vec![END_TO_END];
        if traced {
            sets.push(PER_LAYER);
        }
        for set in sets {
            for (name, unit, s) in self.rows(set) {
                if self.get(name).is_none() && !traced {
                    continue;
                }
                // sub-unit readings (a 0.3 ms boot in seconds) keep six decimals
                let digits = if s.q3.abs() < 1.0 { 6 } else { 4 };
                let _ = writeln!(
                    out,
                    "{:<30} {:>8} {:>5} {:>13.digits$} {:>13.digits$} {:>13.digits$} {:>13.digits$}",
                    name, unit, s.n, s.q1, s.median, s.q3, s.value
                );
            }
        }
        out
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics` (end-to-end metrics for a timed
    /// run, per-layer metrics for a traced one).
    pub fn result_line(&self, traced: bool, correct: bool) -> String {
        let set = if traced { PER_LAYER } else { END_TO_END };
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit, s)) in self.rows(set).into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(s.value)
            );
        }
        out.push_str("}}");
        out
    }

    /// The full record kept under `benchmark/out/`: every recorded metric
    /// with `n` and quartiles, the counts, the seed and the machine.
    pub fn record(
        &self,
        workload: &str,
        seed: u64,
        seconds: f64,
        traced: bool,
        inputs_digest: u64,
        machine: &Fingerprint,
    ) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"workload\": \"{workload}\",");
        let _ = writeln!(out, "  \"seed\": {seed},");
        let _ = writeln!(out, "  \"seconds\": {},", json_number(seconds));
        let _ = writeln!(out, "  \"traced\": {traced},");
        let _ = writeln!(out, "  \"inputs_digest\": \"{inputs_digest:016x}\",");
        let _ = writeln!(out, "  \"attempted\": {},", self.attempted);
        let _ = writeln!(out, "  \"failed\": {},", self.failed);
        let _ = writeln!(out, "  \"violations\": {},", self.violations);
        let _ = writeln!(out, "  \"machine\": {},", machine.to_json());
        out.push_str("  \"metrics\": {\n");
        for (i, (name, s)) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "    \"{name}\": {{\"unit\": \"{}\", \"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"value\": {}}}",
                unit_of(name),
                s.n,
                json_number(s.q1),
                json_number(s.median),
                json_number(s.q3),
                json_number(s.value)
            );
            out.push_str(if i + 1 < self.metrics.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// A finite float with all its digits; anything else reads as 0 (JSON has
/// no NaN), which the correctness flag then reports.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Where the numbers were taken: enough to tell two machines, or a busy
/// and an idle one, apart.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    nproc: usize,
    /// The processors the run was bound to, one at a time.
    pub bound_to: Vec<usize>,
    cpu_model: String,
    load_avg: String,
    steal_ticks_before: u64,
    steal_ticks: u64,
}

impl Fingerprint {
    /// Reads the machine at the start of a run.
    pub fn take() -> Fingerprint {
        let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
        let cpu_model = read("/proc/cpuinfo")
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: nproc(),
            bound_to: Vec::new(),
            cpu_model,
            load_avg: read("/proc/loadavg").trim().to_string(),
            steal_ticks_before: steal_ticks(),
            steal_ticks: 0,
        }
    }

    /// Closes the run: the steal counter becomes a delta over the run.
    pub fn finish(&mut self) {
        self.steal_ticks = steal_ticks().saturating_sub(self.steal_ticks_before);
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"bound_to\": {}, \"cpu_model\": \"{}\", \"load_avg\": \"{}\", \"steal_ticks\": {}}}",
            self.nproc,
            format_args!("{:?}", self.bound_to),
            self.cpu_model.replace(['"', '\\'], " "),
            self.load_avg.replace(['"', '\\'], " "),
            self.steal_ticks
        )
    }
}

/// Processors this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The aggregate `steal` column of `/proc/stat` (time a hypervisor ran
/// someone else), in clock ticks.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .unwrap_or_default()
        .lines()
        .next()
        .and_then(|cpu| cpu.split_ascii_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_carries_exactly_the_set_of_the_mode() {
        let mut r = Report::default();
        r.set("lat_p50_us", &[300.0, 310.0, 320.0]);
        r.set_one("xml.parse_us", 1.5);
        r.attempted = 10;
        let timed = r.result_line(false, true);
        assert!(timed.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(timed.contains("\"lat_p50_us\": {\"value\": 310, \"unit\": \"us\"}"));
        assert!(timed.contains("\"setup_s\""));
        assert!(!timed.contains("xml.parse_us"));
        let traced = r.result_line(true, true);
        assert!(traced.contains("\"xml.parse_us\": {\"value\": 1.5, \"unit\": \"us\"}"));
        assert!(!traced.contains("\"lat_p50_us\""));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_are_refused() {
        Report::default().set_one("no.such_metric", 1.0);
    }
}
