//! Order statistics behind every reported number.

use std::ops::Range;

/// The `p`-quantile (`0.0..=1.0`) of `values`, interpolating linearly
/// between the two closest ranks. `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The geometric mean of positive `values`; `NaN` for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), so a spread reported here matches one computed by
/// a script from the same values. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as i64;
    let cut = |i: i64| {
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        let delta = (m - 4 * j) as f64;
        let (below, above) = (sorted[j as usize - 1], sorted[j as usize]);
        (below * (4.0 - delta) + above * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Time covered by at least one of the `[start, end)` intervals.
pub fn busy_time(intervals: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let mut sorted: Vec<(f64, f64)> = intervals.into_iter().collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut open: Option<(f64, f64)> = None;
    for (start, end) in sorted {
        open = match open {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + open.map_or(0.0, |(s, e)| e - s)
}

/// Cuts `len` items into at most `count` consecutive ranges of whole
/// `unit`s, as equal as they can be; a trailing partial unit is dropped.
pub fn slices(len: usize, unit: usize, count: usize) -> Vec<Range<usize>> {
    let unit = unit.max(1);
    let units = len / unit;
    let count = count.min(units);
    (0..count)
        .map(|g| units * g / count * unit..units * (g + 1) / count * unit)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn busy_time_merges_overlaps_and_skips_gaps() {
        assert_eq!(busy_time([(0.0, 1.0), (2.0, 3.0)]), 2.0);
        assert_eq!(busy_time([(0.0, 2.0), (1.0, 3.0), (1.5, 2.5)]), 3.0);
        assert_eq!(busy_time([(5.0, 6.0), (0.0, 1.0)]), 2.0);
        assert_eq!(busy_time([]), 0.0);
    }

    #[test]
    fn slices_hold_whole_units() {
        assert_eq!(slices(10, 1, 5), vec![0..2, 2..4, 4..6, 6..8, 8..10]);
        // 7 items of 3 hold two whole units: two slices, the rest dropped.
        assert_eq!(slices(7, 3, 5), vec![0..3, 3..6]);
        assert_eq!(slices(12, 2, 4), vec![0..2, 2..6, 6..8, 8..12]);
        assert!(slices(0, 4, 5).is_empty());
    }
}
