//! Sample sets and their quantiles.

use std::time::Duration;

/// A set of measurements in one unit.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Records a duration in milliseconds.
    pub fn push_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The `q`-quantile (`0.0..=1.0`), interpolated linearly between
    /// the two closest ranks; 0 for an empty set.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        quantile_sorted(&self.values, q)
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }
}

/// Linear-interpolation quantile of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let h = (n - 1) as f64 * q.clamp(0.0, 1.0);
            let lo = h.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64)
        }
    }
}

/// First quartile, median and third quartile of `values`, by the
/// exclusive method of Python's `statistics.quantiles(values, n=4)`
/// — the rule the benchmark's spread check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::new();
        for x in [4.0, 1.0, 3.0, 2.0, 5.0] {
            s.push(x);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.9), 4.6);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.sum(), 15.0);
    }

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }
}
