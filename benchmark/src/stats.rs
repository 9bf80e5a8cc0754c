//! Slice, median, quartile and decile maths shared by every metric.
//!
//! A timed phase is cut into equal short slices and a metric is computed
//! once per slice. What the slices are summarised to depends on what was
//! measured. Waits for timers (boots and kills on the live runtime) report
//! the median of their values. Work — anything whose duration is set by
//! how fast a processor executes the program: the closed-loop phases, the
//! per-layer call timings, the replay — reports the value of the quietest
//! tenth of the slices instead, the best decile. A run is bound to one
//! processor at a time (see [`crate::affinity`]), and on a shared machine
//! other tenants only ever take cycles away from one processor, so its
//! slow slices say more about the neighbours than about the program
//! (measured on the 2-core build box: the processor runs at one of two
//! speeds a factor 1.4–1.5 apart, for seconds to minutes at a time; the
//! median of the slices of a run follows the mix, the best decile the
//! faster speed; see the README). Median and quartiles are always printed
//! beside the reported value.

/// `n`, quartiles and the reported value of a metric's per-slice (or
/// per-boot, per-kill) values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// How many values the summary was taken over.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// The value the metric reports: the median, or the best decile.
    pub value: f64,
}

impl Summary {
    /// A metric that is a plain count or a single reading.
    pub fn single(value: f64) -> Summary {
        Summary {
            n: 1,
            q1: value,
            median: value,
            q3: value,
            value,
        }
    }

    /// Summarises `values` and reports their median; an empty slice reads
    /// as zero over `n = 0` ("this layer did no work on this workload").
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                n: 0,
                ..Summary::single(0.0)
            };
        }
        let [q1, median, q3] = quartiles(values);
        Summary {
            n: values.len(),
            q1,
            median,
            q3,
            value: median,
        }
    }

    /// Summarises per-slice *costs* (latency, CPU per request) and reports
    /// the lowest decile: the cost while the machine was quietest.
    pub fn quiet_cost(values: &[f64]) -> Summary {
        Summary {
            value: quantile(values, 0.1),
            ..Summary::of(values)
        }
    }

    /// Summarises per-slice *rates* (completions per second) and reports
    /// the highest decile: the rate while the machine was quietest.
    pub fn quiet_rate(values: &[f64]) -> Summary {
        Summary {
            value: quantile(values, 0.9),
            ..Summary::of(values)
        }
    }
}

/// The `p`-quantile of `values` (0 when empty), interpolated like
/// [`quartiles`].
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let at = p * (n + 1) as f64;
    let j = (at.floor() as usize).clamp(1, n - 1);
    // off the ends of the data the nearest value stands in
    let delta = (at - j as f64).clamp(0.0, 1.0);
    v[j - 1] + (v[j] - v[j - 1]) * delta
}

/// Quartiles by the rule Python's `statistics.quantiles(values, n=4)` uses
/// (exclusive method), so spreads computed here match the ones the driver
/// computes from the printed values. One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let cut = |i: usize| {
        // position i*(n+1)/4 on a 1-based axis, clamped into the data
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    [cut(1), cut(2), cut(3)]
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Distance between the quartiles as a share of the median — the spread
/// the benchmark's bounds are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let s = Summary::of(values);
    if s.median == 0.0 {
        return 0.0;
    }
    (s.q3 - s.q1) / s.median.abs()
}

/// Nearest-rank percentile of an already sorted sample (0 when empty).
pub fn percentile_sorted(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Splits samples stamped with a time offset into `slices` equal slices of
/// `[0, span_ns)` and returns each slice's values. Samples outside the
/// span (drain stragglers) are left out.
pub fn slice_up<T: Copy>(
    samples: impl Iterator<Item = (u64, T)>,
    span_ns: u64,
    slices: usize,
) -> Vec<Vec<T>> {
    let mut out = vec![Vec::new(); slices];
    for (at_ns, value) in samples {
        if at_ns < span_ns {
            let i = (at_ns as u128 * slices as u128 / span_ns as u128) as usize;
            out[i].push(value);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([1,2,3,4,5,6], n=4) == [1.75, 3.5, 5.25]
        let v: Vec<f64> = (1..=6).map(f64::from).collect();
        assert_eq!(quartiles(&v), [1.75, 3.5, 5.25]);
    }

    #[test]
    fn summary_of_nothing_is_a_zero_with_n_zero() {
        let s = Summary::of(&[]);
        assert_eq!((s.n, s.median), (0, 0.0));
        assert_eq!(Summary::of(&[4.0]).median, 4.0);
    }

    #[test]
    fn spread_is_interquartile_range_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }

    #[test]
    fn slices_are_equal_and_drop_stragglers() {
        let samples = [(0u64, 'a'), (49, 'b'), (50, 'c'), (99, 'd'), (100, 'e')];
        let slices = slice_up(samples.into_iter(), 100, 2);
        assert_eq!(slices, vec![vec!['a', 'b'], vec!['c', 'd']]);
    }

    #[test]
    fn quiet_summaries_report_the_best_decile() {
        // 1..=99: the deciles sit exactly on 10 and 90
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        let cost = Summary::quiet_cost(&v);
        assert_eq!((cost.value, cost.median, cost.n), (10.0, 50.0, 99));
        assert_eq!(Summary::quiet_rate(&v).value, 90.0);
        // few values: the decile falls off the data and the best one stands in
        assert_eq!(Summary::quiet_cost(&[3.0, 1.0, 2.0]).value, 1.0);
        assert_eq!(Summary::quiet_rate(&[3.0, 1.0, 2.0]).value, 3.0);
        assert_eq!(Summary::quiet_rate(&[]).value, 0.0);
        // the quartile rule and the quantile rule are the same rule
        assert_eq!(quantile(&v, 0.25), quartiles(&v)[0]);
    }
}
