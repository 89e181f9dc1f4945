//! Quantiles from kept samples and the open-loop SLO judgement.
//!
//! Every latency figure is read off the full sorted sample set with the
//! nearest-rank rule, never from a bucketed histogram, so a phase whose
//! samples all overflow a limit reads as over the limit.

/// The nearest-rank `q`-quantile of `samples` (`q` in `(0, 1]`).
/// Infinite samples (failed frames) sort last. `NaN` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the `q`-quantile's rank: a percentile is only
/// reported as a tail when at least ten samples lie beyond it.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One fixed-rate phase of the open loop, as the SLO judgement sees it.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Offered arrival rate, frames per second.
    pub rate_hz: f64,
    /// Due-to-completion latency of every served frame, in ms.
    pub latencies_ms: Vec<f64>,
    /// Frames that errored, were shed or missed a deadline.
    pub failed: usize,
    /// Frames handed off but not completed, sampled at each hand-off in
    /// arrival order.
    pub backlog: Vec<usize>,
}

impl Phase {
    /// p90 latency with every failed frame counted as a miss (infinite).
    pub fn p90_with_failures(&self) -> f64 {
        let mut all = self.latencies_ms.clone();
        all.extend(std::iter::repeat_n(f64::INFINITY, self.failed));
        quantile(&all, 0.9)
    }

    /// Whether the backlog grew across the phase: the mean over its last
    /// third exceeds twice the mean over its first third plus two
    /// frames. A queue that only fluctuates around a level does not.
    pub fn backlog_grew(&self) -> bool {
        let n = self.backlog.len();
        if n < 3 {
            return false;
        }
        let as_f64 = |s: &[usize]| s.iter().map(|&b| b as f64).collect::<Vec<_>>();
        let first = mean(&as_f64(&self.backlog[..n / 3]));
        let last = mean(&as_f64(&self.backlog[n - n / 3..]));
        last > 2.0 * first + 2.0
    }

    /// The phase meets the SLO: p90 (failures counted as misses) within
    /// `limit_ms` and no growing backlog.
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.p90_with_failures() <= limit_ms && !self.backlog_grew()
    }
}

/// The highest phase rate that meets the SLO, or 0 when none does.
pub fn sustained_rate(phases: &[Phase], limit_ms: f64) -> f64 {
    phases.iter().filter(|p| p.meets(limit_ms)).map(|p| p.rate_hz).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn slo_judgement_can_fail() {
        crate::selftest::quantile_gate().unwrap();
    }
}
