//! The arithmetic behind every reported number: medians, the percentile
//! rule, the geometric mean, window throughput, FNV hashing and the
//! seeded generator the op lists are drawn with.

/// Median of `values` (mean of the two middle ones for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The `p`-th percentile (nearest rank) of `sorted`, or `None` unless at
/// least ten samples lie beyond it: a tail read off fewer samples than
/// that is one outlier's value, not a percentile.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let idx = rank.min(n) - 1;
    (n - 1 - idx >= 10).then(|| sorted[idx])
}

/// Geometric mean of strictly positive values; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Throughput of each consecutive window of the measured phase.
///
/// `passes` holds (verified ops, seconds) per whole pass over the op
/// list. A window is the shortest run of consecutive passes lasting at
/// least `window_s`, so every window holds the same mix of cells;
/// trailing passes too short to fill a window join the last one.
pub fn window_throughputs(passes: &[(u64, f64)], window_s: f64) -> Vec<f64> {
    let mut windows: Vec<(u64, f64)> = Vec::new();
    let mut open = (0u64, 0.0f64);
    for &(ops, secs) in passes {
        open.0 += ops;
        open.1 += secs;
        if open.1 >= window_s {
            windows.push(open);
            open = (0, 0.0);
        }
    }
    if open.1 > 0.0 {
        match windows.last_mut() {
            Some(last) => {
                last.0 += open.0;
                last.1 += open.1;
            }
            None => windows.push(open),
        }
    }
    windows
        .iter()
        .map(|&(ops, secs)| ops as f64 / secs)
        .collect()
}

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// SplitMix64: the op lists' only source of randomness, so the same
/// `--seed` always draws the same list.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.between(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is the 90th; exactly ten lie beyond it.
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        // p99 has one sample beyond it: not printed.
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        // 20 samples: the median has exactly ten beyond it, p90 only two.
        let w: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&w, 50.0), Some(10.0));
        assert_eq!(percentile(&w, 90.0), None);
        // 19 samples: nine beyond the median.
        assert_eq!(percentile(&w[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        // p99 needs a thousand samples.
        let k: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&k, 99.0), Some(990.0));
    }

    #[test]
    fn geomean_weighs_every_cell_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        // Halving the fast cell moves it as much as halving the slow one.
        let base = geomean(&[10.0, 1000.0]);
        assert!((geomean(&[5.0, 1000.0]) / base - geomean(&[10.0, 500.0]) / base).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn windows_hold_whole_passes_and_the_median_ignores_one_burst() {
        // 1 s passes, 2 s windows: two passes a window, and the eighth
        // pass, too short to fill one, joins the last window.
        let mut passes = vec![(10u64, 1.0f64); 8];
        passes[2] = (10, 3.0); // one stalled pass
        let w = window_throughputs(&passes, 2.0);
        assert_eq!(w.len(), 4);
        assert!((w[0] - 10.0).abs() < 1e-9);
        assert!((w[1] - 10.0 / 3.0).abs() < 1e-9); // the stalled pass fills a window alone
        assert!((w[2] - 10.0).abs() < 1e-9);
        assert!((w[3] - 10.0).abs() < 1e-9); // three passes, three seconds
        assert!((median(&w) - 10.0).abs() < 1e-9);
        // A pass longer than the window is a window by itself.
        assert_eq!(
            window_throughputs(&[(4, 8.0), (4, 8.0)], 5.0),
            vec![0.5, 0.5]
        );
        // Less than one window measured: everything is one window.
        assert_eq!(window_throughputs(&[(6, 1.0), (6, 2.0)], 5.0), vec![4.0]);
        assert!(window_throughputs(&[], 5.0).is_empty());
    }

    #[test]
    fn fnv_matches_the_published_vectors() {
        let mut h = Fnv::default();
        h.write(b"");
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            let mut v: Vec<u64> = (0..32).collect();
            r.shuffle(&mut v);
            (v, r.between(5, 9))
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7).0, draw(8).0);
        assert!((5..=9).contains(&draw(7).1));
    }
}
