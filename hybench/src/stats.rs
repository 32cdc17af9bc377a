//! Sample summaries and deltas of the server's own counters and
//! histograms across a timed window.

use hygraph_metrics::HistogramSnapshot;

/// The nearest-rank percentile `q` of `sorted` (ascending), reported only
/// when at least ten samples lie beyond it — a p99 needs 1000 samples, a
/// median 20. `None` otherwise.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= 10).then(|| sorted[rank - 1])
}

/// Median of `values` (any order); `None` when empty. Unlike
/// [`percentile`] this is for small sets of repeated measurements.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Latency samples of one operation type, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(it: I) -> Self {
        Samples(it.into_iter().collect())
    }
}

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn p50(&self) -> Option<f64> {
        percentile(&self.sorted(), 0.50)
    }

    pub fn p99(&self) -> Option<f64> {
        percentile(&self.sorted(), 0.99)
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.0.is_empty()).then(|| self.0.iter().sum::<f64>() / self.0.len() as f64)
    }
}

/// Splits the `(seconds, value)` events of a `secs`-long window into `k`
/// equal slices, applies `f` to each slice's values, and returns the
/// median over the slices `f` gives a value for. A burst of outside
/// load that hits one slice then moves the result far less than it
/// moves a whole-window statistic.
pub fn slice_median(
    events: &[(f64, f64)],
    secs: f64,
    k: usize,
    f: impl Fn(&mut [f64]) -> Option<f64>,
) -> Option<f64> {
    let mut slices = vec![Vec::new(); k];
    for &(t, v) in events {
        let i = ((t / secs * k as f64) as usize).min(k - 1);
        slices[i].push(v);
    }
    let per: Vec<f64> = slices.iter_mut().filter_map(|s| f(s)).collect();
    median(&per)
}

/// The median of `v` under [`percentile`]'s sample rule, sorting in place.
pub fn p50_of(v: &mut [f64]) -> Option<f64> {
    v.sort_by(f64::total_cmp);
    percentile(v, 0.5)
}

/// `after - before`, bucket by bucket: the distribution of the
/// observations made between two snapshots of one histogram.
pub fn hist_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut d = HistogramSnapshot::empty();
    for (i, (a, b)) in after.buckets.iter().zip(before.buckets.iter()).enumerate() {
        d.buckets[i] = a.saturating_sub(*b);
    }
    d.count = after.count.saturating_sub(before.count);
    d.sum = after.sum.saturating_sub(before.sum);
    d
}

/// A ratio kept with its base counts, so a report can show both.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    pub num: u64,
    pub den: u64,
}

impl Ratio {
    /// The ratio of two counter deltas across a window.
    pub fn of_deltas(num: (u64, u64), den: (u64, u64)) -> Self {
        Ratio {
            num: num.1.saturating_sub(num.0),
            den: den.1.saturating_sub(den.0),
        }
    }

    /// `None` when the base is zero: the layer did no such work.
    pub fn value(&self) -> Option<f64> {
        (self.den > 0).then(|| self.num as f64 / self.den as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None, "999 samples leave 9 beyond p99");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn samples_sort_before_ranking() {
        let mut s = Samples::default();
        for i in (0..40).rev() {
            s.push(f64::from(i));
        }
        assert_eq!(s.p50(), Some(19.0));
        assert_eq!(s.p99(), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn slice_median_ignores_one_disturbed_slice() {
        // 5 slices of 1 s; slice 2 runs 10x slower
        let events: Vec<(f64, f64)> = (0..500)
            .map(|i| {
                let t = i as f64 / 100.0;
                (t, if (2.0..3.0).contains(&t) { 10.0 } else { 1.0 })
            })
            .collect();
        assert_eq!(slice_median(&events, 5.0, 5, p50_of), Some(1.0));
        let rate = slice_median(&events, 5.0, 5, |v| Some(v.len() as f64));
        assert_eq!(rate, Some(100.0));
        assert_eq!(slice_median(&[], 5.0, 5, p50_of), None);
    }

    #[test]
    fn hist_delta_subtracts_the_window() {
        let h = hygraph_metrics::Histogram::default();
        for v in [5u64, 100, 100] {
            h.observe(v);
        }
        let before = h.snapshot();
        for v in [1000u64, 1000, 1000, 7] {
            h.observe(v);
        }
        let after = h.snapshot();
        let d = hist_delta(&after, &before);
        assert_eq!(d.count, 4);
        assert_eq!(d.sum, 3007);
        assert_eq!(d.buckets.iter().sum::<u64>(), 4);
        assert_eq!(d.p50(), after.quantile(1.0), "window median is the 1000s");
        assert_eq!(hist_delta(&before, &before).count, 0);
    }

    #[test]
    fn ratio_subtracts_counters_across_the_window() {
        let r = Ratio::of_deltas((10, 40), (20, 80));
        assert_eq!((r.num, r.den), (30, 60));
        assert_eq!(r.value(), Some(0.5));
        assert_eq!(Ratio::of_deltas((5, 5), (9, 9)).value(), None);
    }
}
