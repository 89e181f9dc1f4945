//! Cluster-level observability: per-shard reports plus their merged
//! aggregate, serializable for dashboards and the SLO harness.
//!
//! Every serving event is counted once, in the report of the shard it
//! happened on — edge retries, sheds, deadline misses and watchdog
//! stalls included — and read tier-wide from the aggregate. Only
//! events that belong to no single shard (routing, swaps, failovers,
//! respawns, hedges) are counted on the [`ClusterReport`] itself.

use pcnn_runtime::{RuntimeReport, TraceSummary};
use serde::{Deserialize, Serialize};

/// One shard's slice of a [`ClusterReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// The shard's index in the cluster.
    pub shard: u32,
    /// The generation of the model currently installed.
    pub generation: u64,
    /// Completed blue/green installs on this shard.
    pub swaps: u64,
    /// Whether the shard is currently out of the routing rotation.
    pub drained: bool,
    /// The shard's accumulated serving report: its servers' counters
    /// plus the retries (`retries`), sheds (`frames_rejected`), deadline
    /// misses (`deadline_misses`) and watchdog condemnations
    /// (`stalls_detected`) the cluster attributed to it. Carries no
    /// trace summary; see [`ClusterReport::trace`].
    pub report: RuntimeReport,
}

/// A point-in-time summary of the whole serving tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Per-shard reports, by shard index.
    pub shards: Vec<ShardReport>,
    /// Every shard report merged through
    /// [`RuntimeReport::merge`]: counters summed, latency histograms
    /// combined bucket-wise, `workers` totalling the threads serving
    /// across the tier.
    pub aggregate: RuntimeReport,
    /// Frames accepted and routed to a shard queue.
    pub frames_routed: u64,
    /// Completed cluster-wide blue/green swaps.
    pub swaps: u64,
    /// Streams migrated off a dead shard to a survivor (tracker state
    /// carried over, cache warmth rebuilt).
    #[serde(default)]
    pub failovers: u64,
    /// Dead or stalled shards respawned warm from the latest
    /// checkpoint (or the seed snapshot).
    #[serde(default)]
    pub respawns: u64,
    /// Frames hedged to their failover shard when the primary blocked
    /// past half the deadline.
    #[serde(default)]
    pub hedges: u64,
    /// Live per-stage tracing statistics, when a `pcnn_trace` tracer is
    /// installed (spans from every shard land in the same process-global
    /// tracer, so this is the tier-wide view).
    #[serde(default)]
    pub trace: Option<TraceSummary>,
}

impl std::fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cluster report ({} shards, {} workers total)",
            self.shards.len(),
            self.aggregate.workers
        )?;
        writeln!(
            f,
            "  frames routed {:>8}   shed {:>6}   served {:>8}   swaps {:>3}",
            self.frames_routed,
            self.aggregate.frames_rejected,
            self.aggregate.frames_served,
            self.swaps
        )?;
        for shard in &self.shards {
            writeln!(
                f,
                "  shard {:>2}: gen {:>3}  swaps {:>3}  {:>8} frames  {:>6} batches{}",
                shard.shard,
                shard.generation,
                shard.swaps,
                shard.report.frames_served,
                shard.report.batches,
                if shard.drained { "  [drained]" } else { "" }
            )?;
        }
        let latency = &self.aggregate.batch_latency;
        if let (Some(p50), Some(p99)) = (latency.p50(), latency.p99()) {
            writeln!(
                f,
                "  batch latency: p50 {:.2}ms  p99 {:.2}ms",
                p50 as f64 / 1e3,
                p99 as f64 / 1e3
            )?;
        }
        if self.aggregate.cells_reused + self.aggregate.cells_recomputed > 0 {
            let total = self.aggregate.cells_reused + self.aggregate.cells_recomputed;
            writeln!(
                f,
                "  stream cache: {} cells reused, {} recomputed ({:.1}% hit)",
                self.aggregate.cells_reused,
                self.aggregate.cells_recomputed,
                100.0 * self.aggregate.cells_reused as f64 / total as f64
            )?;
        }
        let (retries, stalls) = (self.aggregate.retries, self.aggregate.stalls_detected);
        if self.failovers + self.respawns + retries + stalls > 0 {
            writeln!(
                f,
                "  self-healing: {} failovers  {} respawns  {retries} retries  {stalls} stalls",
                self.failovers, self.respawns
            )?;
        }
        if self.hedges + self.aggregate.deadline_misses > 0 {
            writeln!(
                f,
                "  deadlines: {} hedged  {} exceeded",
                self.hedges, self.aggregate.deadline_misses
            )?;
        }
        if self.aggregate.degraded_batches > 0 {
            writeln!(
                f,
                "  degradation: {} batches / {} frames on the fallback floor",
                self.aggregate.degraded_batches, self.aggregate.degraded_frames
            )?;
        }
        Ok(())
    }
}
