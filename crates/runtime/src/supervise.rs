//! Request supervision: deadlines, bounded retry and stall detection.

use crate::metrics::Heartbeat;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// How a supervised request ([`DetectionServer::submit`]) responds to
/// failure: how many attempts to make, how long to back off between
/// them, and how long the request may stay in flight overall.
///
/// [`DetectionServer::submit`]: crate::DetectionServer::submit
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts (first try included). At least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per further attempt.
    pub base_backoff: Duration,
    /// Overall in-flight budget. `None` means attempts alone bound the
    /// request.
    pub deadline: Option<Duration>,
    /// Jitter width applied to each backoff, in per-mille of the
    /// exponential base. `0` keeps the exact exponential schedule; `j`
    /// spreads each backoff uniformly over `[base·(1 − j/2000),
    /// base·(1 + j/2000))` so that N producers retrying the same failed
    /// shard do not stampede it in lockstep. The draw is a pure
    /// function of the caller's seed and the attempt number — fully
    /// deterministic, no clock involved.
    #[serde(default)]
    pub jitter_pm: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(5),
            deadline: Some(Duration::from_secs(30)),
            jitter_pm: 0,
        }
    }
}

/// The `splitmix64` finalizer, used to derive deterministic jitter
/// draws from a seed without pulling a generator into the policy.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// A single attempt, no backoff, no deadline — the "fail fast"
    /// policy, equivalent to an unsupervised call.
    pub fn no_retry() -> Self {
        RetryPolicy { max_attempts: 1, base_backoff: Duration::ZERO, deadline: None, jitter_pm: 0 }
    }

    /// This policy with the given jitter width (per-mille of the
    /// exponential base, clamped to 1000).
    #[must_use]
    pub fn with_jitter(mut self, jitter_pm: u32) -> Self {
        self.jitter_pm = jitter_pm.min(1000);
        self
    }

    /// The backoff to sleep after failed attempt number `attempt`
    /// (1-based): `base_backoff << (attempt - 1)`, saturating. The
    /// exact exponential schedule, jitter excluded.
    pub fn backoff_after(&self, attempt: u32) -> Duration {
        self.base_backoff
            .saturating_mul(1_u32.checked_shl(attempt.saturating_sub(1)).unwrap_or(u32::MAX))
    }

    /// The jittered backoff after failed attempt `attempt` for the
    /// request identified by `seed`: the exponential base spread
    /// uniformly over `[base·(1 − j/2000), base·(1 + j/2000))` by a
    /// seeded `splitmix64` draw. Deterministic: the same `(policy,
    /// seed, attempt)` always sleeps the same duration, so retry
    /// schedules replay bit-identically under `Clock::Mock` traces —
    /// while distinct seeds de-synchronize, which is the point.
    pub fn backoff_jittered(&self, attempt: u32, seed: u64) -> Duration {
        let base = self.backoff_after(attempt);
        let jitter = u64::from(self.jitter_pm.min(1000));
        if jitter == 0 || base.is_zero() {
            return base;
        }
        let draw = mix(seed ^ (u64::from(attempt) << 32)) % (jitter + 1);
        // factor in per-mille: 1000 - j/2 + draw, draw ∈ [0, j].
        let factor_pm = 1000 - jitter / 2 + draw;
        let nanos = base.as_nanos().saturating_mul(u128::from(factor_pm)) / 1000;
        Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
    }
}

/// What the watchdog concluded about a runtime's liveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogStatus {
    /// No work in flight and nothing overdue.
    Idle,
    /// Work in flight and the heartbeat is fresh.
    Healthy,
    /// Work has been in flight with no heartbeat for longer than the
    /// configured threshold — a wedged worker, an extractor stuck in
    /// the simulator, or a deadlocked stage.
    Stalled {
        /// Milliseconds since the last sign of life.
        silent_ms: u64,
    },
}

/// A stall detector over a [`Heartbeat`] (a server's
/// [`Metrics::heartbeat`](crate::Metrics::heartbeat), or a cluster serve
/// loop's own). Every pipeline stage beats the heartbeat as it
/// completes; the watchdog flags a stall when work is in flight but the
/// heartbeat has been silent past the threshold.
///
/// The watchdog takes no threads of its own — call
/// [`check`](Watchdog::check) from wherever supervision lives (a
/// monitoring loop, a liveness probe handler).
#[derive(Debug, Clone, Copy)]
pub struct Watchdog {
    stall_after: Duration,
}

impl Watchdog {
    /// A watchdog that flags a stall after `stall_after` of silence
    /// with work in flight.
    pub fn new(stall_after: Duration) -> Self {
        Watchdog { stall_after }
    }

    /// The configured silence threshold.
    pub fn stall_after(&self) -> Duration {
        self.stall_after
    }

    /// Classifies the heartbeat's current liveness. The verdict is only
    /// returned: whoever acts on a `Stalled` verdict counts it (with
    /// [`Metrics::add_stall`](crate::Metrics::add_stall)).
    pub fn check(&self, heartbeat: &Heartbeat) -> WatchdogStatus {
        let in_flight = heartbeat.in_flight();
        let Some(silent_ms) = heartbeat.silent_ms() else {
            return WatchdogStatus::Idle;
        };
        if in_flight == 0 {
            return WatchdogStatus::Idle;
        }
        if u128::from(silent_ms) > self.stall_after.as_millis() {
            WatchdogStatus::Stalled { silent_ms }
        } else {
            WatchdogStatus::Healthy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_per_attempt() {
        let p = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            deadline: None,
            jitter_pm: 0,
        };
        assert_eq!(p.backoff_after(1), Duration::from_millis(10));
        assert_eq!(p.backoff_after(2), Duration::from_millis(20));
        assert_eq!(p.backoff_after(3), Duration::from_millis(40));
    }

    #[test]
    fn zero_jitter_keeps_the_exact_exponential_schedule() {
        let p = RetryPolicy::default();
        for attempt in 1..6 {
            for seed in [0u64, 1, 0xDAC17] {
                assert_eq!(p.backoff_jittered(attempt, seed), p.backoff_after(attempt));
            }
        }
    }

    #[test]
    fn jittered_backoff_is_deterministic_bounded_and_seed_dependent() {
        let p = RetryPolicy::default().with_jitter(500); // ±25 %
        for attempt in 1..6 {
            let base = p.backoff_after(attempt);
            let lo = base.mul_f64(0.75);
            let hi = base.mul_f64(1.25);
            for seed in 0..64u64 {
                let d = p.backoff_jittered(attempt, seed);
                assert_eq!(d, p.backoff_jittered(attempt, seed), "same seed must replay");
                assert!(
                    d >= lo && d <= hi,
                    "attempt {attempt} seed {seed}: {d:?} ∉ [{lo:?}, {hi:?}]"
                );
            }
        }
        // Distinct seeds must actually de-synchronize the schedule.
        let draws: std::collections::BTreeSet<Duration> =
            (0..64u64).map(|seed| p.backoff_jittered(2, seed)).collect();
        assert!(draws.len() > 8, "only {} distinct backoffs across 64 seeds", draws.len());
    }

    #[test]
    fn with_jitter_clamps_to_full_width() {
        let p = RetryPolicy::default().with_jitter(5000);
        assert_eq!(p.jitter_pm, 1000);
        let base = p.backoff_after(1);
        for seed in 0..32u64 {
            let d = p.backoff_jittered(1, seed);
            assert!(d >= base.mul_f64(0.5) && d <= base.mul_f64(1.5));
        }
    }

    #[test]
    fn policy_roundtrips_through_serde() {
        let p = RetryPolicy::default();
        let json = serde_json::to_string(&p).unwrap();
        let back: RetryPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn watchdog_is_idle_then_healthy_then_stalled() {
        let heartbeat = Heartbeat::new();
        let dog = Watchdog::new(Duration::from_millis(30));
        assert_eq!(dog.check(&heartbeat), WatchdogStatus::Idle);

        heartbeat.begin();
        assert_eq!(dog.check(&heartbeat), WatchdogStatus::Healthy);

        std::thread::sleep(Duration::from_millis(60));
        assert!(
            matches!(dog.check(&heartbeat), WatchdogStatus::Stalled { silent_ms } if silent_ms >= 30)
        );
        // The verdict is stable until the heartbeat moves: checking
        // again neither clears nor changes it.
        assert!(matches!(dog.check(&heartbeat), WatchdogStatus::Stalled { .. }));

        heartbeat.beat();
        assert_eq!(dog.check(&heartbeat), WatchdogStatus::Healthy, "a beat revives it");

        heartbeat.end();
        assert_eq!(dog.check(&heartbeat), WatchdogStatus::Idle);
    }
}
