//! Serving metrics: lock-free counters, per-stage wall time and latency
//! histograms, snapshotted into a serializable [`RuntimeReport`].

use pcnn_truenorth::SystemStats;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Upper bounds (µs, inclusive) of the latency histogram buckets. All
/// bounds are finite; samples above the last bound land in the
/// histogram's explicit overflow bucket.
pub const LATENCY_BOUNDS_US: [u64; 7] = [100, 1_000, 5_000, 25_000, 100_000, 500_000, 2_000_000];

/// A fixed-bucket histogram over `u64` samples, updatable from many
/// threads without locking.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    /// One count per bound plus a trailing overflow bucket, so samples
    /// above every bound are counted distinctly instead of being
    /// clamped into the last bounded bucket.
    counts: Vec<AtomicU64>,
}

impl Histogram {
    /// A histogram with the given finite inclusive upper bounds; an
    /// overflow bucket is added automatically for samples above the
    /// last bound.
    pub fn new(bounds: &'static [u64]) -> Self {
        Histogram { bounds, counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect() }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let idx = self.bounds.iter().position(|&b| value <= b).unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded above the last bound.
    pub fn overflow(&self) -> u64 {
        self.counts[self.bounds.len()].load(Ordering::Relaxed)
    }

    /// Snapshots the histogram.
    pub fn snapshot(&self) -> HistogramReport {
        HistogramReport {
            bounds_us: self.bounds.to_vec(),
            counts: self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]. `counts` has one entry per
/// bound plus a trailing overflow bucket.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramReport {
    /// Inclusive bucket upper bounds in microseconds.
    pub bounds_us: Vec<u64>,
    /// Sample count per bucket; the final entry counts samples above
    /// every bound.
    pub counts: Vec<u64>,
}

impl HistogramReport {
    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Samples recorded above the last bound.
    pub fn overflow(&self) -> u64 {
        if self.counts.len() > self.bounds_us.len() {
            self.counts[self.bounds_us.len()..].iter().sum()
        } else {
            0
        }
    }

    /// Estimates the `q`-quantile in microseconds by interpolating
    /// within the bucket containing the target rank (each sample is
    /// treated as sitting at the centre of its slot, which removes the
    /// low bias of snapping to a bucket edge). Returns `None` for an
    /// empty histogram; overflow-bucket ranks saturate at the last
    /// bound. Delegates to [`pcnn_trace::quantile_from_buckets`], so
    /// the runtime and the tracer report identical estimates for
    /// identical buckets.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        pcnn_trace::quantile_from_buckets(&self.bounds_us, &self.counts, q)
    }

    /// Median latency estimate in microseconds.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 99th-percentile latency estimate in microseconds.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Combines two histograms bucket-wise, overflow included.
    ///
    /// Histograms sharing bucket bounds (every histogram this runtime
    /// produces uses [`LATENCY_BOUNDS_US`]) merge exactly: each bucket
    /// count — and the trailing overflow bucket — is the sum of the two
    /// inputs. An empty histogram is the identity. When the bound
    /// vectors differ, `other`'s buckets are folded in positionally and
    /// any counts beyond this histogram's buckets land in the overflow
    /// bucket, so no sample is ever lost in a merge.
    pub fn merge(&self, other: &HistogramReport) -> HistogramReport {
        if self.counts.iter().all(|&c| c == 0) && self.bounds_us.is_empty() {
            return other.clone();
        }
        let bounds_us = self.bounds_us.clone();
        let slots = bounds_us.len() + 1;
        let mut counts = vec![0u64; slots];
        for (i, &c) in self.counts.iter().enumerate() {
            counts[i.min(slots - 1)] += c;
        }
        for (i, &c) in other.counts.iter().enumerate() {
            // Positional merge: matching bounds line up exactly, and a
            // longer input folds its tail into the overflow bucket.
            counts[i.min(slots - 1)] += c;
        }
        HistogramReport { bounds_us, counts }
    }
}

/// Wall time spent in each pipeline stage, summed over all batches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTimes {
    /// Scale-pyramid construction.
    pub pyramid_ms: f64,
    /// Cell-histogram grids.
    pub cells_ms: f64,
    /// Window assembly and classification.
    pub classify_ms: f64,
    /// Per-frame merge and non-maximum suppression.
    pub nms_ms: f64,
}

impl StageTimes {
    /// Total stage time.
    pub fn total_ms(&self) -> f64 {
        self.pyramid_ms + self.cells_ms + self.classify_ms + self.nms_ms
    }
}

/// Live counters for one serving runtime. All updates are atomic, so a
/// shared `&Metrics` can be fed from every worker thread.
#[derive(Debug)]
pub struct Metrics {
    frames_served: AtomicU64,
    frames_rejected: AtomicU64,
    windows_scored: AtomicU64,
    batches: AtomicU64,
    max_queue_depth: AtomicU64,
    stage_pyramid_ns: AtomicU64,
    stage_cells_ns: AtomicU64,
    stage_classify_ns: AtomicU64,
    stage_nms_ns: AtomicU64,
    batch_latency_us: Histogram,
    degraded_batches: AtomicU64,
    degraded_frames: AtomicU64,
    health_failures: AtomicU64,
    level_batches: Vec<AtomicU64>,
    panics_caught: AtomicU64,
    retries: AtomicU64,
    deadline_misses: AtomicU64,
    stalls_detected: AtomicU64,
    cells_reused: AtomicU64,
    cells_recomputed: AtomicU64,
    tracks_active: AtomicU64,
    // Watchdog heartbeat: work in flight plus the last time any stage
    // completed, as milliseconds since these metrics were created.
    in_flight: AtomicU64,
    last_beat_ms: AtomicU64,
    created: Instant,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

/// The four timed pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Scale-pyramid construction.
    Pyramid,
    /// Cell-histogram grids.
    Cells,
    /// Window assembly and classification.
    Classify,
    /// Merge + non-maximum suppression.
    Nms,
}

impl Metrics {
    /// Fresh, all-zero metrics with no service-level counters.
    pub fn new() -> Self {
        Self::with_levels(0)
    }

    /// Fresh metrics tracking `levels` fallback-chain service levels.
    pub fn with_levels(levels: usize) -> Self {
        Metrics {
            frames_served: AtomicU64::new(0),
            frames_rejected: AtomicU64::new(0),
            windows_scored: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
            stage_pyramid_ns: AtomicU64::new(0),
            stage_cells_ns: AtomicU64::new(0),
            stage_classify_ns: AtomicU64::new(0),
            stage_nms_ns: AtomicU64::new(0),
            batch_latency_us: Histogram::new(&LATENCY_BOUNDS_US),
            degraded_batches: AtomicU64::new(0),
            degraded_frames: AtomicU64::new(0),
            health_failures: AtomicU64::new(0),
            level_batches: (0..levels).map(|_| AtomicU64::new(0)).collect(),
            panics_caught: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            stalls_detected: AtomicU64::new(0),
            cells_reused: AtomicU64::new(0),
            cells_recomputed: AtomicU64::new(0),
            tracks_active: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            last_beat_ms: AtomicU64::new(0),
            created: Instant::now(),
        }
    }

    /// Counts `n` frames served.
    pub fn add_frames(&self, n: u64) {
        self.frames_served.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` frames rejected by queue backpressure.
    pub fn add_rejected(&self, n: u64) {
        self.frames_rejected.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` windows scored.
    pub fn add_windows(&self, n: u64) {
        self.windows_scored.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one completed batch and its wall time.
    pub fn add_batch(&self, latency: Duration) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_latency_us.record(latency.as_micros() as u64);
    }

    /// Records an observed queue depth.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Counts one batch served below the primary service level, covering
    /// `frames` frames.
    pub fn add_degraded_batch(&self, frames: u64) {
        self.degraded_batches.fetch_add(1, Ordering::Relaxed);
        self.degraded_frames.fetch_add(frames, Ordering::Relaxed);
    }

    /// Counts `n` failed health probes.
    pub fn add_health_failures(&self, n: u64) {
        self.health_failures.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one batch served at fallback-chain level `index`. Ignored
    /// when the metrics were not sized for that level.
    pub fn add_level_batch(&self, index: usize) {
        if let Some(c) = self.level_batches.get(index) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Batches served per fallback-chain level.
    pub fn level_counts(&self) -> Vec<u64> {
        self.level_batches.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Counts `n` worker panics caught and isolated.
    pub fn add_panics(&self, n: u64) {
        self.panics_caught.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one retried request attempt.
    pub fn add_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request abandoned at its deadline.
    pub fn add_deadline_miss(&self) {
        self.deadline_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one watchdog stall detection.
    pub fn add_stall(&self) {
        self.stalls_detected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` pyramid cells served from a stream's temporal cache.
    pub fn add_cells_reused(&self, n: u64) {
        self.cells_reused.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` pyramid cells recomputed because their pixels changed.
    pub fn add_cells_recomputed(&self, n: u64) {
        self.cells_recomputed.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` live tracks observed after one tracker update (one
    /// observation per tracked frame, so totals are conserved across
    /// worker counts and shard layouts).
    pub fn add_tracks_active(&self, n: u64) {
        self.tracks_active.fetch_add(n, Ordering::Relaxed);
    }

    /// Marks the start of one unit of supervised work (a batch).
    pub fn begin_work(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        self.beat();
    }

    /// Marks the end of one unit of supervised work.
    pub fn end_work(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.beat();
    }

    /// Records a sign of life: a stage or batch completed. The watchdog
    /// compares this heartbeat against wall time to detect stalls.
    pub fn beat(&self) {
        let now = self.created.elapsed().as_millis() as u64;
        self.last_beat_ms.fetch_max(now, Ordering::Relaxed);
    }

    /// Units of supervised work currently executing.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Milliseconds since the last heartbeat (`None` before any beat).
    pub fn silent_ms(&self) -> Option<u64> {
        let last = self.last_beat_ms.load(Ordering::Relaxed);
        if last == 0 && self.in_flight() == 0 {
            return None;
        }
        Some((self.created.elapsed().as_millis() as u64).saturating_sub(last))
    }

    /// Adds wall time to one pipeline stage.
    pub fn add_stage(&self, stage: Stage, elapsed: Duration) {
        let ns = elapsed.as_nanos() as u64;
        let counter = match stage {
            Stage::Pyramid => &self.stage_pyramid_ns,
            Stage::Cells => &self.stage_cells_ns,
            Stage::Classify => &self.stage_classify_ns,
            Stage::Nms => &self.stage_nms_ns,
        };
        counter.fetch_add(ns, Ordering::Relaxed);
        self.beat();
    }

    /// Snapshots every counter into a serializable report. `workers` is
    /// echoed into the report; `system` carries simulator counters when
    /// the detector runs on the TrueNorth substrate.
    pub fn report(&self, workers: usize, system: Option<SystemStats>) -> RuntimeReport {
        let ms = |ns: &AtomicU64| ns.load(Ordering::Relaxed) as f64 / 1e6;
        RuntimeReport {
            workers,
            frames_served: self.frames_served.load(Ordering::Relaxed),
            frames_rejected: self.frames_rejected.load(Ordering::Relaxed),
            windows_scored: self.windows_scored.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            stage: StageTimes {
                pyramid_ms: ms(&self.stage_pyramid_ns),
                cells_ms: ms(&self.stage_cells_ns),
                classify_ms: ms(&self.stage_classify_ns),
                nms_ms: ms(&self.stage_nms_ns),
            },
            batch_latency: self.batch_latency_us.snapshot(),
            degraded_batches: self.degraded_batches.load(Ordering::Relaxed),
            degraded_frames: self.degraded_frames.load(Ordering::Relaxed),
            health_failures: self.health_failures.load(Ordering::Relaxed),
            levels: Vec::new(),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            stalls_detected: self.stalls_detected.load(Ordering::Relaxed),
            cells_reused: self.cells_reused.load(Ordering::Relaxed),
            cells_recomputed: self.cells_recomputed.load(Ordering::Relaxed),
            tracks_active: self.tracks_active.load(Ordering::Relaxed),
            kernel_backend: pcnn_kernels::backend_summary(),
            system,
            trace: None,
        }
    }
}

/// Per-stage tracing statistics surfaced in a [`RuntimeReport`] when a
/// `pcnn_trace` tracer is installed. A serializable mirror of
/// [`pcnn_trace::ProfileReport`] (the trace crate itself stays
/// dependency-free, so the serde derives live here).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// The kernel path and SIMD tier the traced spans ran on, e.g.
    /// `"trinary+avx2"` or `"f32+scalar"` (see
    /// [`pcnn_kernels::backend_summary`]).
    #[serde(default)]
    pub kernel_backend: String,
    /// One entry per traced stage, sorted by descending total duration.
    pub stages: Vec<StageSummary>,
}

/// One traced stage's aggregate timings in a [`TraceSummary`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSummary {
    /// The stage's span name, e.g. `"runtime.batch"`.
    pub name: String,
    /// Spans recorded.
    pub count: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
    /// Shortest span in nanoseconds.
    pub min_ns: u64,
    /// Longest span in nanoseconds.
    pub max_ns: u64,
    /// Exact median duration in nanoseconds.
    pub p50_ns: u64,
    /// Exact 99th-percentile duration in nanoseconds.
    pub p99_ns: u64,
    /// Counter totals as `(snake_case name, value)` pairs.
    pub counters: Vec<(String, u64)>,
}

impl From<pcnn_trace::ProfileReport> for TraceSummary {
    fn from(report: pcnn_trace::ProfileReport) -> Self {
        TraceSummary {
            kernel_backend: pcnn_kernels::backend_summary(),
            stages: report
                .stages
                .into_iter()
                .map(|s| StageSummary {
                    name: s.name.to_owned(),
                    count: s.count,
                    total_ns: s.total_ns,
                    min_ns: s.min_ns,
                    max_ns: s.max_ns,
                    p50_ns: s.p50_ns,
                    p99_ns: s.p99_ns,
                    counters: s
                        .counters
                        .into_iter()
                        .map(|(c, v)| (c.name().to_owned(), v))
                        .collect(),
                })
                .collect(),
        }
    }
}

/// Per-service-level serving counters in a [`RuntimeReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelReport {
    /// The level's label, e.g. `"NApprox-HW"`.
    pub label: String,
    /// Batches served at this level.
    pub batches: u64,
}

/// A point-in-time summary of a serving runtime, serializable for
/// dashboards and experiment logs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeReport {
    /// Worker threads the runtime was configured with.
    pub workers: usize,
    /// Frames fully detected (pyramid through NMS).
    pub frames_served: u64,
    /// Frames dropped by `Backpressure::Reject`.
    pub frames_rejected: u64,
    /// Sliding windows scored across all frames and pyramid levels.
    pub windows_scored: u64,
    /// Batches executed.
    pub batches: u64,
    /// Highest queue depth observed at enqueue time.
    pub max_queue_depth: u64,
    /// Per-stage wall time, summed over batches.
    pub stage: StageTimes,
    /// Batch wall-time histogram.
    pub batch_latency: HistogramReport,
    /// Batches served below the primary fallback-chain level.
    #[serde(default)]
    pub degraded_batches: u64,
    /// Frames served below the primary fallback-chain level.
    #[serde(default)]
    pub degraded_frames: u64,
    /// Health probes that failed (one per skipped level per batch).
    #[serde(default)]
    pub health_failures: u64,
    /// Per-level batch counts, in fallback-chain preference order.
    /// Empty when the server has no fallback chain.
    #[serde(default)]
    pub levels: Vec<LevelReport>,
    /// Worker panics caught and isolated to their request.
    #[serde(default)]
    pub panics_caught: u64,
    /// Request attempts retried under a [`RetryPolicy`](crate::RetryPolicy).
    #[serde(default)]
    pub retries: u64,
    /// Requests abandoned because their deadline passed.
    #[serde(default)]
    pub deadline_misses: u64,
    /// Stalls flagged by the watchdog.
    #[serde(default)]
    pub stalls_detected: u64,
    /// Pyramid cells served from stream temporal caches.
    #[serde(default)]
    pub cells_reused: u64,
    /// Pyramid cells recomputed because their pixels changed.
    #[serde(default)]
    pub cells_recomputed: u64,
    /// Live-track observations summed over tracked stream frames.
    #[serde(default)]
    pub tracks_active: u64,
    /// The kernel path and SIMD tier this process serves on, e.g.
    /// `"trinary+avx2"` or `"f32+scalar"`. Snapshotted from
    /// [`pcnn_kernels::backend_summary`] at report time, so the trinary
    /// half reflects whether a multiply-free GEMM has actually run.
    #[serde(default)]
    pub kernel_backend: String,
    /// Neurosynaptic-simulator counters, when the extractor or
    /// classifier runs on the simulated TrueNorth substrate.
    pub system: Option<SystemStats>,
    /// Per-stage tracing statistics, when a `pcnn_trace` tracer was
    /// installed while the server ran.
    #[serde(default)]
    pub trace: Option<TraceSummary>,
}

impl RuntimeReport {
    /// Combines two reports into one, the primitive a cluster-level
    /// aggregate is built from: counters sum, per-stage wall times sum,
    /// latency histograms merge bucket-wise (overflow included, via
    /// [`HistogramReport::merge`]), `max_queue_depth` takes the maximum,
    /// per-level batch counts merge by label, and simulator counters sum
    /// field-wise when both sides carry them. `workers` sums, so an
    /// aggregate over shards reports the total worker threads serving.
    ///
    /// Trace summaries hold non-mergeable quantiles, so the merged
    /// report keeps `self`'s summary when present and falls back to
    /// `other`'s (both snapshot the same process-global tracer anyway).
    ///
    /// A fresh all-zero report is the identity: `zero.merge(&r)` equals
    /// `r` in every counter.
    pub fn merge(&self, other: &RuntimeReport) -> RuntimeReport {
        let mut levels = self.levels.clone();
        for level in &other.levels {
            match levels.iter_mut().find(|l| l.label == level.label) {
                Some(l) => l.batches += level.batches,
                None => levels.push(level.clone()),
            }
        }
        let system = match (&self.system, &other.system) {
            (Some(a), Some(b)) => Some(SystemStats {
                ticks: a.ticks + b.ticks,
                routed_spikes: a.routed_spikes + b.routed_spikes,
                output_spikes: a.output_spikes + b.output_spikes,
                injected_spikes: a.injected_spikes + b.injected_spikes,
                synaptic_events: a.synaptic_events + b.synaptic_events,
            }),
            (a, b) => (*a).or(*b),
        };
        RuntimeReport {
            workers: self.workers + other.workers,
            frames_served: self.frames_served + other.frames_served,
            frames_rejected: self.frames_rejected + other.frames_rejected,
            windows_scored: self.windows_scored + other.windows_scored,
            batches: self.batches + other.batches,
            max_queue_depth: self.max_queue_depth.max(other.max_queue_depth),
            stage: StageTimes {
                pyramid_ms: self.stage.pyramid_ms + other.stage.pyramid_ms,
                cells_ms: self.stage.cells_ms + other.stage.cells_ms,
                classify_ms: self.stage.classify_ms + other.stage.classify_ms,
                nms_ms: self.stage.nms_ms + other.stage.nms_ms,
            },
            batch_latency: self.batch_latency.merge(&other.batch_latency),
            degraded_batches: self.degraded_batches + other.degraded_batches,
            degraded_frames: self.degraded_frames + other.degraded_frames,
            health_failures: self.health_failures + other.health_failures,
            levels,
            panics_caught: self.panics_caught + other.panics_caught,
            retries: self.retries + other.retries,
            deadline_misses: self.deadline_misses + other.deadline_misses,
            stalls_detected: self.stalls_detected + other.stalls_detected,
            cells_reused: self.cells_reused + other.cells_reused,
            cells_recomputed: self.cells_recomputed + other.cells_recomputed,
            tracks_active: self.tracks_active + other.tracks_active,
            kernel_backend: if self.kernel_backend.is_empty() {
                other.kernel_backend.clone()
            } else {
                self.kernel_backend.clone()
            },
            system,
            trace: self.trace.clone().or_else(|| other.trace.clone()),
        }
    }
}

impl std::fmt::Display for RuntimeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "runtime report ({} workers)", self.workers)?;
        writeln!(
            f,
            "  frames served {:>8}   rejected {:>6}   batches {:>6}",
            self.frames_served, self.frames_rejected, self.batches
        )?;
        writeln!(
            f,
            "  windows scored {:>10}   max queue depth {:>4}",
            self.windows_scored, self.max_queue_depth
        )?;
        if !self.kernel_backend.is_empty() {
            writeln!(f, "  kernel backend: {}", self.kernel_backend)?;
        }
        writeln!(
            f,
            "  stage ms: pyramid {:>9.2}  cells {:>9.2}  classify {:>9.2}  nms {:>7.2}",
            self.stage.pyramid_ms, self.stage.cells_ms, self.stage.classify_ms, self.stage.nms_ms
        )?;
        write!(f, "  batch latency:")?;
        for (bound, count) in self.batch_latency.bounds_us.iter().zip(&self.batch_latency.counts) {
            if *count == 0 {
                continue;
            }
            write!(f, "  <={}ms:{count}", bound / 1000)?;
        }
        let overflow = self.batch_latency.overflow();
        if overflow > 0 {
            let last = self.batch_latency.bounds_us.last().copied().unwrap_or(0);
            write!(f, "  >{}ms:{overflow}", last / 1000)?;
        }
        if self.panics_caught + self.retries + self.deadline_misses + self.stalls_detected > 0 {
            writeln!(f)?;
            write!(
                f,
                "  supervision: {} panics caught, {} retries, {} deadline misses, {} stalls",
                self.panics_caught, self.retries, self.deadline_misses, self.stalls_detected
            )?;
        }
        if self.cells_reused + self.cells_recomputed > 0 {
            writeln!(f)?;
            let stats = crate::cache::CacheStats {
                cells_reused: self.cells_reused,
                cells_recomputed: self.cells_recomputed,
            };
            write!(
                f,
                "  stream cache: {} cells reused, {} recomputed ({:.1}% hit), {} track observations",
                self.cells_reused,
                self.cells_recomputed,
                stats.hit_rate() * 100.0,
                self.tracks_active
            )?;
        }
        if !self.levels.is_empty() {
            writeln!(f)?;
            write!(
                f,
                "  degradation: {} batches / {} frames below primary, {} probe failures",
                self.degraded_batches, self.degraded_frames, self.health_failures
            )?;
            for level in &self.levels {
                writeln!(f)?;
                write!(f, "    {:<20} {:>6} batches", level.label, level.batches)?;
            }
        }
        if let Some(s) = &self.system {
            writeln!(f)?;
            write!(
                f,
                "  truenorth: ticks {}  routed {}  synaptic events {}",
                s.ticks, s.routed_spikes, s.synaptic_events
            )?;
        }
        if let Some(trace) = &self.trace {
            writeln!(f)?;
            write!(f, "  trace: {} stages", trace.stages.len())?;
            for stage in &trace.stages {
                writeln!(f)?;
                write!(
                    f,
                    "    {:<20} {:>8} spans  total {:>10.3}ms  p50 {:>8.3}ms  p99 {:>8.3}ms",
                    stage.name,
                    stage.count,
                    stage.total_ns as f64 / 1e6,
                    stage.p50_ns as f64 / 1e6,
                    stage.p99_ns as f64 / 1e6,
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_samples() {
        let h = Histogram::new(&LATENCY_BOUNDS_US);
        h.record(0);
        h.record(100);
        h.record(101);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.counts[0], 2);
        assert_eq!(snap.counts[1], 1);
        assert_eq!(*snap.counts.last().unwrap(), 1);
        assert_eq!(snap.total(), 4);
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let snap = Histogram::new(&LATENCY_BOUNDS_US).snapshot();
        assert_eq!(snap.p50(), None);
        assert_eq!(snap.p99(), None);
        assert_eq!(snap.quantile(0.0), None);
    }

    #[test]
    fn quantile_of_single_sample_lands_in_its_bucket() {
        let h = Histogram::new(&LATENCY_BOUNDS_US);
        h.record(400); // bucket (100, 1000]
        let snap = h.snapshot();
        // One sample: every quantile is the same centred estimate.
        let p50 = snap.p50().unwrap();
        assert_eq!(p50, snap.p99().unwrap());
        assert!(p50 > 100 && p50 <= 1_000, "estimate {p50} inside the sample's bucket");
    }

    #[test]
    fn quantile_all_overflow_saturates_at_last_bound() {
        let h = Histogram::new(&LATENCY_BOUNDS_US);
        for _ in 0..5 {
            h.record(u64::MAX);
        }
        let snap = h.snapshot();
        let last = *LATENCY_BOUNDS_US.last().unwrap();
        assert_eq!(snap.p50(), Some(last));
        assert_eq!(snap.p99(), Some(last));
    }

    #[test]
    fn quantile_interpolates_across_buckets() {
        let h = Histogram::new(&LATENCY_BOUNDS_US);
        // 6 samples in bucket (0,100], 4 in (100,1000]: the p50 rank
        // (4.5 of ranks 0..=9) lies in the first bucket, the p99 rank
        // (8.91) in the second, and both interpolate to interior values.
        for _ in 0..6 {
            h.record(50);
        }
        for _ in 0..4 {
            h.record(500);
        }
        let snap = h.snapshot();
        let p50 = snap.p50().unwrap();
        assert!(p50 > 0 && p50 < 100, "median interior to the first bucket, got {p50}");
        let p99 = snap.p99().unwrap();
        assert!(p99 > 100 && p99 < 1_000, "p99 interior to the second bucket, got {p99}");
        // Exact values under the midpoint-rank convention:
        // p50 = 100·(4.5+0.5)/6 ≈ 83, p99 = 100 + 900·(8.91−6+0.5)/4 ≈ 867.
        assert_eq!(p50, 83);
        assert_eq!(p99, 867);
    }

    #[test]
    fn report_roundtrips_through_serde() {
        let m = Metrics::new();
        m.add_frames(3);
        m.add_windows(1000);
        m.add_batch(Duration::from_millis(12));
        m.add_stage(Stage::Classify, Duration::from_millis(9));
        let report = m.report(4, Some(SystemStats { ticks: 7, ..Default::default() }));
        let json = serde_json::to_string(&report).unwrap();
        let back: RuntimeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.system.unwrap().ticks, 7);
    }

    #[test]
    fn display_is_nonempty() {
        let m = Metrics::new();
        m.add_frames(1);
        let text = m.report(2, None).to_string();
        assert!(text.contains("frames served"));
    }

    #[test]
    fn degradation_counters_reach_the_report() {
        let m = Metrics::with_levels(3);
        m.add_level_batch(0);
        m.add_level_batch(2);
        m.add_level_batch(9); // out of range: ignored, not a panic
        m.add_degraded_batch(4);
        m.add_health_failures(2);
        let mut report = m.report(1, None);
        assert_eq!(m.level_counts(), vec![1, 0, 1]);
        assert_eq!(report.degraded_batches, 1);
        assert_eq!(report.degraded_frames, 4);
        assert_eq!(report.health_failures, 2);
        report.levels = vec![
            LevelReport { label: "NApprox-HW".into(), batches: 1 },
            LevelReport { label: "Traditional-HoG".into(), batches: 1 },
        ];
        let json = serde_json::to_string(&report).unwrap();
        let back: RuntimeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(report.to_string().contains("below primary"));
    }

    #[test]
    fn overflow_bucket_is_explicit_not_clamped() {
        let h = Histogram::new(&LATENCY_BOUNDS_US);
        let last = *LATENCY_BOUNDS_US.last().unwrap();
        h.record(last); // at the bound: last bounded bucket
        h.record(last + 1); // beyond every bound: overflow
        h.record(u64::MAX);
        assert_eq!(h.overflow(), 2);
        let snap = h.snapshot();
        assert_eq!(snap.counts.len(), LATENCY_BOUNDS_US.len() + 1);
        assert_eq!(snap.counts[LATENCY_BOUNDS_US.len() - 1], 1);
        assert_eq!(snap.overflow(), 2);
        assert_eq!(snap.total(), 3);
    }

    #[test]
    fn supervision_counters_reach_the_report() {
        let m = Metrics::new();
        m.add_panics(2);
        m.add_retry();
        m.add_deadline_miss();
        m.add_stall();
        let report = m.report(1, None);
        assert_eq!(report.panics_caught, 2);
        assert_eq!(report.retries, 1);
        assert_eq!(report.deadline_misses, 1);
        assert_eq!(report.stalls_detected, 1);
        let text = report.to_string();
        assert!(text.contains("supervision"), "{text}");
        let json = serde_json::to_string(&report).unwrap();
        let back: RuntimeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn reports_without_supervision_fields_still_decode() {
        // A report serialized before the supervision counters existed
        // must still deserialize (the new fields default to zero).
        let m = Metrics::new();
        m.add_frames(1);
        let report = m.report(1, None);
        let json = serde_json::to_string(&report).unwrap();
        let stripped: String = ["panics_caught", "retries", "deadline_misses", "stalls_detected"]
            .iter()
            .fold(json, |j, field| j.replace(&format!("\"{field}\":0,"), ""));
        assert!(!stripped.contains("panics_caught"));
        let back: RuntimeReport = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn stream_counters_reach_report_merge_and_display() {
        let a = Metrics::new();
        a.add_cells_reused(300);
        a.add_cells_recomputed(100);
        a.add_tracks_active(7);
        let b = Metrics::new();
        b.add_cells_reused(50);
        b.add_tracks_active(3);
        let merged = a.report(1, None).merge(&b.report(1, None));
        assert_eq!(merged.cells_reused, 350);
        assert_eq!(merged.cells_recomputed, 100);
        assert_eq!(merged.tracks_active, 10);
        let text = a.report(1, None).to_string();
        assert!(text.contains("stream cache: 300 cells reused"), "{text}");
        assert!(text.contains("75.0% hit"), "{text}");
        let json = serde_json::to_string(&merged).unwrap();
        let back: RuntimeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, merged);
    }

    #[test]
    fn merge_with_empty_report_is_identity() {
        let m = Metrics::with_levels(2);
        m.add_frames(5);
        m.add_windows(700);
        m.add_batch(Duration::from_micros(450));
        m.add_batch(Duration::from_millis(30));
        m.add_stage(Stage::Pyramid, Duration::from_millis(2));
        m.add_level_batch(0);
        m.add_degraded_batch(3);
        let mut report = m.report(4, Some(SystemStats { ticks: 9, ..Default::default() }));
        report.levels = vec![LevelReport { label: "primary".into(), batches: 1 }];
        let zero = Metrics::new().report(0, None);
        let merged = zero.merge(&report);
        assert_eq!(merged, report, "zero.merge(r) must equal r");
        let merged = report.merge(&zero);
        assert_eq!(merged, report, "r.merge(zero) must equal r");
    }

    #[test]
    fn merge_sums_counters_and_histograms_including_overflow() {
        let a = Metrics::new();
        a.add_frames(2);
        a.add_windows(10);
        a.add_batch(Duration::from_micros(50)); // first bucket
        a.add_batch(Duration::from_secs(10)); // overflow
        a.observe_queue_depth(3);
        let b = Metrics::new();
        b.add_frames(4);
        b.add_rejected(1);
        b.add_batch(Duration::from_micros(60)); // first bucket
        b.add_batch(Duration::from_secs(20)); // overflow
        b.observe_queue_depth(7);
        let merged = a.report(2, None).merge(&b.report(3, None));
        assert_eq!(merged.workers, 5);
        assert_eq!(merged.frames_served, 6);
        assert_eq!(merged.frames_rejected, 1);
        assert_eq!(merged.windows_scored, 10);
        assert_eq!(merged.batches, 4);
        assert_eq!(merged.max_queue_depth, 7);
        assert_eq!(merged.batch_latency.counts[0], 2);
        assert_eq!(merged.batch_latency.overflow(), 2, "overflow buckets merge too");
        assert_eq!(merged.batch_latency.total(), 4);
    }

    #[test]
    fn merge_combines_levels_by_label_and_sums_system_stats() {
        let mut a = Metrics::with_levels(2)
            .report(1, Some(SystemStats { ticks: 5, routed_spikes: 7, ..Default::default() }));
        a.levels = vec![
            LevelReport { label: "hw".into(), batches: 3 },
            LevelReport { label: "sw".into(), batches: 1 },
        ];
        let mut b = Metrics::with_levels(2)
            .report(1, Some(SystemStats { ticks: 2, synaptic_events: 11, ..Default::default() }));
        b.levels = vec![
            LevelReport { label: "sw".into(), batches: 4 },
            LevelReport { label: "floor".into(), batches: 2 },
        ];
        let merged = a.merge(&b);
        assert_eq!(
            merged.levels,
            vec![
                LevelReport { label: "hw".into(), batches: 3 },
                LevelReport { label: "sw".into(), batches: 5 },
                LevelReport { label: "floor".into(), batches: 2 },
            ]
        );
        let system = merged.system.unwrap();
        assert_eq!(system.ticks, 7);
        assert_eq!(system.routed_spikes, 7);
        assert_eq!(system.synaptic_events, 11);
    }

    #[test]
    fn histogram_merge_folds_mismatched_tail_into_overflow() {
        let bounded = Histogram::new(&LATENCY_BOUNDS_US).snapshot();
        let longer = HistogramReport {
            bounds_us: (1..=LATENCY_BOUNDS_US.len() as u64 + 3).collect(),
            counts: vec![1; LATENCY_BOUNDS_US.len() + 4],
        };
        let merged = bounded.merge(&longer);
        assert_eq!(merged.bounds_us, LATENCY_BOUNDS_US.to_vec());
        assert_eq!(merged.total(), longer.total(), "no sample is lost in a merge");
        assert_eq!(merged.overflow(), 4, "tail buckets fold into overflow");
    }

    #[test]
    fn kernel_backend_reaches_report_and_display() {
        let report = Metrics::new().report(1, None);
        // "<numeric>+<simd>", e.g. "f32+avx2" or "trinary+scalar".
        let (numeric, simd) = report.kernel_backend.split_once('+').expect("numeric+simd label");
        assert!(numeric == "f32" || numeric == "trinary", "{numeric}");
        assert!(["scalar", "avx2", "neon"].contains(&simd), "{simd}");
        assert!(report.to_string().contains("kernel backend"));
        // Merge keeps a non-empty label over an empty (pre-field) one.
        let mut old = report.clone();
        old.kernel_backend = String::new();
        assert_eq!(report.merge(&old).kernel_backend, report.kernel_backend);
        assert_eq!(old.merge(&report).kernel_backend, report.kernel_backend);
    }

    #[test]
    fn heartbeat_tracks_in_flight_work() {
        let m = Metrics::new();
        assert_eq!(m.silent_ms(), None);
        assert_eq!(m.in_flight(), 0);
        // Let wall time advance so the first beat records a nonzero
        // timestamp (a zero beat with nothing in flight reads as
        // "never beaten").
        std::thread::sleep(Duration::from_millis(5));
        m.begin_work();
        assert_eq!(m.in_flight(), 1);
        assert!(m.silent_ms().is_some());
        m.end_work();
        assert_eq!(m.in_flight(), 0);
        // Once work has happened the heartbeat history persists.
        assert!(m.silent_ms().is_some());
    }
}
