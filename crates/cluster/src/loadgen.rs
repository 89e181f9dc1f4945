//! Sustained load generation and SLO measurement for the cluster tier.
//!
//! The generator is **open loop**: arrival times come from a seeded
//! Poisson process fixed before the run, and the feeder submits each
//! frame at its scheduled instant whether or not the tier has kept up.
//! Closed-loop harnesses hide overload by slowing the offered rate to
//! match the server (coordinated omission); an open schedule keeps the
//! queueing delay of a falling-behind tier in the latency histogram,
//! which is the number an SLO is about.
//!
//! Latency is measured schedule-to-completion per frame and recorded in
//! the same fixed-bucket [`Histogram`] the runtime uses, so the p50/p99
//! the harness reports and the quantiles in a
//! [`RuntimeReport`](pcnn_runtime::RuntimeReport) come from one estimator
//! ([`pcnn_trace::quantile_from_buckets`]).

use crate::cluster::{Cluster, StreamFrame};
use pcnn_runtime::{Histogram, HistogramReport, LATENCY_BOUNDS_US};
use pcnn_vision::GrayImage;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Parameters of the seeded open-loop arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadProfile {
    /// Seed for arrival times and stream assignment. Same seed, same
    /// schedule — byte for byte.
    pub seed: u64,
    /// Distinct stream ids, drawn uniformly per arrival.
    pub streams: u32,
    /// Mean aggregate arrival rate in frames per second.
    pub rate_hz: f64,
    /// Total arrivals to generate.
    pub frames: usize,
}

impl Default for LoadProfile {
    fn default() -> Self {
        LoadProfile { seed: 0, streams: 8, rate_hz: 20.0, frames: 64 }
    }
}

/// One scheduled arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arrival {
    /// Scheduled submission time, microseconds from run start.
    pub at_us: u64,
    /// The stream this frame belongs to.
    pub stream: u64,
}

/// The deterministic arrival schedule for `profile`: exponential
/// inter-arrival gaps (a Poisson process at `rate_hz`) with the stream
/// drawn uniformly per arrival, all from one seeded generator.
///
/// # Panics
///
/// Panics when `rate_hz` is not strictly positive or `streams` is zero.
pub fn arrivals(profile: &LoadProfile) -> Vec<Arrival> {
    assert!(profile.rate_hz > 0.0, "arrival rate must be positive");
    assert!(profile.streams > 0, "need at least one stream");
    let mut rng = SmallRng::seed_from_u64(profile.seed);
    let mut at_s = 0.0f64;
    (0..profile.frames)
        .map(|_| {
            let unit: f64 = rng.random();
            // Inverse-CDF exponential draw; 1-unit is in (0, 1], so the
            // log argument never hits zero.
            at_s += -(1.0 - unit).ln() / profile.rate_hz;
            let stream = rng.random_range(0..u64::from(profile.streams));
            Arrival { at_us: (at_s * 1e6) as u64, stream }
        })
        .collect()
}

/// Latency budgets an SLO run is judged against, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SloBudget {
    /// Median schedule-to-completion budget.
    pub p50_us: u64,
    /// Tail (99th percentile) budget.
    pub p99_us: u64,
    /// Highest tolerable shed fraction, in parts per million of the
    /// offered frames (0 = every frame must be served).
    pub shed_ppm: u64,
}

/// The outcome of one SLO load run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    /// Frames offered by the schedule.
    pub offered: u64,
    /// Frames served to completion.
    pub served: u64,
    /// Frames shed at the cluster edge.
    pub shed: u64,
    /// Frames whose admission deadline expired with the primary and
    /// hedge queues both full (zero when no deadline is configured).
    #[serde(default)]
    pub deadline_exceeded: u64,
    /// Frames admitted only by hedging to their failover shard.
    #[serde(default)]
    pub hedged: u64,
    /// Frames served after at least one failed attempt was retried
    /// (stream runs under a chaos plan; zero on the batch path).
    #[serde(default)]
    pub retried_served: u64,
    /// Wall time of the run in seconds.
    pub wall_s: f64,
    /// Served throughput in frames per second.
    pub throughput_fps: f64,
    /// Measured median schedule-to-completion latency (µs).
    pub p50_us: Option<u64>,
    /// Measured 99th-percentile schedule-to-completion latency (µs).
    pub p99_us: Option<u64>,
    /// The full per-frame latency histogram.
    pub latency: HistogramReport,
    /// The budgets the run was judged against.
    pub budget: SloBudget,
    /// Whether every budget held. A quantile whose rank lies beyond the
    /// histogram's last bound never holds, whatever its budget.
    pub pass: bool,
}

impl std::fmt::Display for SloReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ms = |us: Option<u64>| us.map_or(f64::NAN, |us| us as f64 / 1e3);
        write!(
            f,
            "slo {}: {}/{} frames served ({} shed) in {:.2}s ({:.1} fps)  p50 {:.2}ms (budget {:.2})  p99 {:.2}ms (budget {:.2})",
            if self.pass { "PASS" } else { "FAIL" },
            self.served,
            self.offered,
            self.shed,
            self.wall_s,
            self.throughput_fps,
            ms(self.p50_us),
            self.budget.p50_us as f64 / 1e3,
            ms(self.p99_us),
            self.budget.p99_us as f64 / 1e3,
        )?;
        if self.deadline_exceeded + self.hedged + self.retried_served > 0 {
            write!(
                f,
                "  [{} deadline-exceeded, {} hedged, {} retried-then-served]",
                self.deadline_exceeded, self.hedged, self.retried_served
            )?;
        }
        Ok(())
    }
}

/// Runs `schedule` against `cluster` open loop and judges the measured
/// latency quantiles against `budget`.
///
/// `frame_for` supplies the image for each arrival (typically a small
/// pool of pre-rendered scenes indexed by stream); frames are cloned
/// into the submission order once, up front, so rendering cost never
/// pollutes the latency measurement.
pub fn run_slo<F>(
    cluster: &Cluster,
    schedule: &[Arrival],
    budget: SloBudget,
    mut frame_for: F,
) -> SloReport
where
    F: FnMut(&Arrival) -> GrayImage,
{
    let frames: Vec<StreamFrame> = schedule
        .iter()
        .map(|a| StreamFrame { stream: pcnn_core::StreamId::new(a.stream), image: frame_for(a) })
        .collect();
    let at_us: Vec<u64> = schedule.iter().map(|a| a.at_us).collect();
    let latency = Histogram::new(&LATENCY_BOUNDS_US);

    let start = Instant::now();
    let (results, edge) = cluster.serve_paced(&frames, Some(&at_us), Some(&latency));
    let wall_s = start.elapsed().as_secs_f64();

    let offered = schedule.len() as u64;
    let served = results.iter().filter(|r| r.is_some()).count() as u64;
    judge(
        offered,
        served,
        edge.shed,
        edge.deadline_exceeded,
        edge.hedges,
        0,
        wall_s,
        latency.snapshot(),
        budget,
    )
}

/// Runs a supervised *stream* serve under an optional chaos plan and
/// judges it like [`run_slo`] — the harness behind the chaos bench.
/// Frames are submitted as fast as the tier admits them (the stream
/// path's latency is dominated by queueing, which the per-frame deadline
/// already bounds); losses split into shed, deadline-exceeded and
/// retried-then-served, and all three land in the report.
pub fn run_stream_slo(
    cluster: &Cluster,
    frames: &[StreamFrame],
    budget: SloBudget,
    plan: Option<&crate::ChaosPlan>,
) -> SloReport {
    use crate::cluster::StreamOutcome;
    let latency = Histogram::new(&LATENCY_BOUNDS_US);
    let start = Instant::now();
    let outcomes = cluster.serve_streams_with(frames, plan);
    let wall_s = start.elapsed().as_secs_f64();
    let mut served = 0u64;
    let mut shed = 0u64;
    let mut deadline_exceeded = 0u64;
    let mut retried_served = 0u64;
    for outcome in &outcomes {
        match outcome {
            StreamOutcome::Served { attempts, .. } => {
                served += 1;
                if *attempts > 1 {
                    retried_served += 1;
                }
            }
            StreamOutcome::Shed => shed += 1,
            StreamOutcome::DeadlineExceeded => deadline_exceeded += 1,
            StreamOutcome::Failed { .. } => {}
        }
    }
    // The stream path has no schedule; spread the wall time over the
    // served frames so the histogram still carries a meaningful p50/p99.
    if let Some(per_frame_us) = ((wall_s * 1e6) as u64).checked_div(served) {
        for _ in 0..served {
            latency.record(per_frame_us);
        }
    }
    judge(
        frames.len() as u64,
        served,
        shed,
        deadline_exceeded,
        0,
        retried_served,
        wall_s,
        latency.snapshot(),
        budget,
    )
}

#[allow(clippy::too_many_arguments)]
fn judge(
    offered: u64,
    served: u64,
    shed: u64,
    deadline_exceeded: u64,
    hedged: u64,
    retried_served: u64,
    wall_s: f64,
    snapshot: HistogramReport,
    budget: SloBudget,
) -> SloReport {
    let (p50_us, p99_us) = (snapshot.p50(), snapshot.p99());
    // Every frame the tier failed to serve counts against the loss
    // budget, whether it was shed outright or timed out.
    let lost_ppm = ((shed + deadline_exceeded) * 1_000_000).checked_div(offered).unwrap_or(0);
    // A quantile whose rank lands in the overflow bucket saturates at the
    // last bound, so it says nothing about the budget: it fails the gate.
    let within = |p: Option<u64>, q: f64, budget_us: u64| {
        p.is_some_and(|p| p <= budget_us) && !rank_overflows(&snapshot, q)
    };
    let pass = within(p50_us, 0.50, budget.p50_us)
        && within(p99_us, 0.99, budget.p99_us)
        && lost_ppm <= budget.shed_ppm;
    SloReport {
        offered,
        served,
        shed,
        deadline_exceeded,
        hedged,
        retried_served,
        wall_s,
        throughput_fps: if wall_s > 0.0 { served as f64 / wall_s } else { 0.0 },
        p50_us,
        p99_us,
        latency: snapshot,
        budget,
        pass,
    }
}

/// Whether the `q`-quantile's rank (as [`pcnn_trace::quantile_from_buckets`]
/// places it) falls among the samples above every histogram bound.
fn rank_overflows(h: &HistogramReport, q: f64) -> bool {
    let total = h.total();
    total > 0 && q.clamp(0.0, 1.0) * (total - 1) as f64 >= (total - h.overflow()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn judged(samples_us: &[u64], budget_us: u64) -> SloReport {
        let latency = Histogram::new(&LATENCY_BOUNDS_US);
        for &us in samples_us {
            latency.record(us);
        }
        let n = samples_us.len() as u64;
        let budget = SloBudget { p50_us: budget_us, p99_us: budget_us, shed_ppm: 0 };
        judge(n, n, 0, 0, 0, 0, 1.0, latency.snapshot(), budget)
    }

    #[test]
    fn all_overflow_run_fails_the_slo() {
        // Every frame took longer than the last bound: the quantiles
        // saturate at exactly that bound, which a budget equal to it
        // would otherwise accept.
        let last = *LATENCY_BOUNDS_US.last().unwrap();
        let report = judged(&[3 * last; 40], last);
        assert_eq!(report.p99_us, Some(last), "quantile saturates as documented");
        assert!(!report.pass, "an all-overflow run must fail: {report}");
    }

    #[test]
    fn overflow_fails_only_the_quantiles_it_reaches() {
        let last = *LATENCY_BOUNDS_US.last().unwrap();
        // 1 of 1000 frames overflowed: the p99 rank stays in range.
        let mut samples = vec![10_000; 999];
        samples.push(3 * last);
        assert!(judged(&samples, last).pass);
        // 2% overflowed: the p99 rank lands in the overflow bucket.
        samples.splice(..20, [3 * last; 20]);
        assert!(!judged(&samples, last).pass);
    }

    #[test]
    fn schedule_is_deterministic_and_monotone() {
        let profile = LoadProfile { seed: 9, streams: 4, rate_hz: 100.0, frames: 200 };
        let a = arrivals(&profile);
        let b = arrivals(&profile);
        assert_eq!(a, b, "same seed must give the same schedule");
        for pair in a.windows(2) {
            assert!(pair[0].at_us <= pair[1].at_us, "arrival times must be non-decreasing");
        }
        assert!(a.iter().all(|x| x.stream < 4));
        // Mean gap should be in the right ballpark for 100 Hz: the 200th
        // arrival lands around 2 s, well within (0.5 s, 8 s).
        let last = a.last().unwrap().at_us;
        assert!((500_000..8_000_000).contains(&last), "last arrival at {last}µs");
    }

    #[test]
    fn different_seeds_differ() {
        let a = arrivals(&LoadProfile { seed: 1, ..Default::default() });
        let b = arrivals(&LoadProfile { seed: 2, ..Default::default() });
        assert_ne!(a, b);
    }
}
