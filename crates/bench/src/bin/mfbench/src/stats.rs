//! Order statistics for the benchmark's timings.
//!
//! Every timing is reported with its sample count. The tail rule: a
//! percentile is only trusted when at least [`TAIL_BEYOND`] samples lie
//! beyond it, so `p99` needs 1,000 samples. Quartiles follow Python's
//! `statistics.quantiles(n=4)` (the default "exclusive" method), which is
//! what run-to-run spread is judged with. The gated latency and rate come
//! from the run's quietest stretch ([`quiet_median`], [`quiet_rate`]).

/// Samples that must lie beyond a percentile before it is a trusted tail.
pub const TAIL_BEYOND: usize = 10;

/// Percentiles the tail rule picks from, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples. The epsilon
/// keeps decimal percentiles such as 99.9 (inexact in binary) from rounding
/// up one rank.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(p, v.len()) - 1]
}

/// The highest percentile of the ladder with at least [`TAIL_BEYOND`]
/// samples beyond it, or `None` when `n` is too small for any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - rank(p, n) >= TAIL_BEYOND)
}

/// First, second and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` computes them.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = n + 1;
    let mut q = [0.0; 3];
    for (i, out) in (1..4).zip(q.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative after the clamp for tiny `n`, as in Python.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *out = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    q
}

/// The leading whole parts of `part` items (all of `v` when shorter).
fn whole_parts<T>(v: &[T], part: usize) -> std::slice::Chunks<'_, T> {
    let part = part.max(1);
    let whole = if v.len() < part {
        v.len()
    } else {
        v.len() / part * part
    };
    v[..whole].chunks(part)
}

/// The smallest median among consecutive parts of `part` samples (in
/// arrival order; a trailing partial part is dropped): the median of the
/// run's quietest stretch. A shared host alternates between quiet and
/// contended periods that last seconds; a whole-run median moves with the
/// share of the run that was contended, this statistic only when every
/// part was. 0 when empty.
pub fn quiet_median(samples: &[f64], part: usize) -> f64 {
    whole_parts(samples, part)
        .map(median)
        .reduce(f64::min)
        .unwrap_or(0.0)
}

/// The largest rate among consecutive parts of `part` units of a loop
/// whose units ended at `ends` (seconds since the loop started,
/// ascending), each completing `per_unit` items: the rate of the run's
/// quietest stretch (see [`quiet_median`]). 0 when empty.
pub fn quiet_rate(ends: &[f64], per_unit: f64, part: usize) -> f64 {
    let mut start = 0.0;
    let mut best = 0.0f64;
    for c in whole_parts(ends, part) {
        let end = c[c.len() - 1];
        best = best.max(c.len() as f64 * per_unit / (end - start));
        start = end;
    }
    best
}

/// One result line: `workload metric value unit n=<samples>`.
pub fn result_line(workload: &str, metric: &str, value: f64, unit: &str, n: usize) -> String {
    format!("{workload} {metric} {value} {unit} n={n}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(1500), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quiet_statistics_pick_the_quietest_part() {
        // Parts of three: the second is quiet, the trailing 1.0 is dropped.
        let lat = [4.0, 5.0, 6.0, 2.0, 1.0, 3.0, 4.0, 6.0, 5.0, 1.0];
        assert_eq!(quiet_median(&lat, 3), 2.0);
        assert_eq!(quiet_median(&lat[..2], 3), 4.5, "one short part is kept");
        assert_eq!(quiet_median(&[], 3), 0.0);
        // Parts of two units: 1 s per unit, except 0.25 s in the second.
        let ends = [1.0, 2.0, 2.25, 2.5, 3.5, 4.5, 4.75];
        assert_eq!(quiet_rate(&ends, 8.0, 2), 2.0 * 8.0 / 0.5);
        assert_eq!(quiet_rate(&[], 8.0, 2), 0.0);
    }

    #[test]
    fn result_lines_carry_the_sample_count() {
        assert_eq!(
            result_line("serve_mixed", "latency_p50_ms", 4.25, "ms", 1500),
            "serve_mixed latency_p50_ms 4.25 ms n=1500"
        );
    }
}
