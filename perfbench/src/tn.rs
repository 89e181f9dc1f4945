//! The simulator probe of the `serve-eedn` traced run: the paper's
//! chip-scale workload on the tick layer, which no serving path uses.
//! `Fig5CellArray::paper_classifier` (95 NApprox cells on 2850 cores,
//! 16-spike coding) runs `extract_batch` over 10×10 cell patches cut
//! from synthetic scenes, one patch per cell.
//!
//! Its batch time follows the host's shared-cache contention (its
//! working set far exceeds a core's 2 MB L2): on a shared 2-vCPU Xeon
//! host its median batch time ranged 86–169 ms across runs of one build,
//! so it reports per-layer figures only.

use crate::check;
use crate::common::{mix, sample_indices, Outcome};
use crate::stats::median;
use crate::trace::Tracer;
use pcnn_corelets::{Fig5CellArray, NApproxHogCorelet};
use pcnn_hog::cell::{cell_patch, CELL_SIZE};
use pcnn_truenorth::SystemStats;
use pcnn_vision::{GrayImage, SynthConfig, SynthDataset};
use std::time::{Duration, Instant};

/// Input coding window; the simulator steps on one thread (its
/// default): a tick barrier across two threads made every figure follow
/// the host's momentary contention rather than the simulator.
const SPIKES: u32 = 16;
/// Batches cut in set-up; a probe never repeats one.
const POOL: usize = 160;
/// Batches whose counts are reported as the exact per-batch activity:
/// always the first ones, so the figure does not depend on speed.
const COUNTED: usize = 16;
/// Batches re-run cell by cell on standalone corelets per run.
const ORACLE_BATCHES: usize = 2;

struct Ctx {
    array: Fig5CellArray,
    batches: Vec<Vec<GrayImage>>,
}

fn setup(seed: u64) -> Ctx {
    let array = Fig5CellArray::paper_classifier(SPIKES);
    let cells = array.cell_count();
    let data = SynthDataset::new(SynthConfig { seed: mix(seed, 70), ..SynthConfig::default() });
    let config = *data.config();
    let (cells_x, cells_y) = (config.scene_width / CELL_SIZE, config.scene_height / CELL_SIZE);
    let per_scene = cells_x * cells_y / cells;
    let mut batches = Vec::with_capacity(POOL);
    let mut scene_index = 0;
    while batches.len() < POOL {
        let scene = data.test_scene(scene_index);
        let shift = (mix(seed, 71 + scene_index) % (cells_x * cells_y) as u64) as usize;
        scene_index += 1;
        for b in 0..per_scene.min(POOL - batches.len()) {
            batches.push(
                (0..cells)
                    .map(|c| {
                        let k = (shift + b * cells + c) % (cells_x * cells_y);
                        cell_patch(&scene.image, 0, 0, k % cells_x, k / cells_x)
                    })
                    .collect(),
            );
        }
    }
    Ctx { array, batches }
}

/// One batch's outputs and counters.
struct Batch {
    histograms: Vec<Vec<f32>>,
    stats: SystemStats,
}

/// Extracts batches in order until `budget` runs out, each in a span.
fn batch_loop(ctx: &mut Ctx, budget: Duration, tracer: &Tracer) -> Vec<Batch> {
    let start = Instant::now();
    let mut out = Vec::new();
    for (b, patches) in ctx.batches.iter().enumerate() {
        if start.elapsed() >= budget && out.len() >= COUNTED {
            break;
        }
        let before = ctx.array.stats();
        let histograms = tracer
            .record("truenorth.extract_batch", None, b as u64, || ctx.array.extract_batch(patches));
        out.push(Batch { histograms, stats: check::delta(&ctx.array.stats(), &before) });
    }
    out
}

/// Every cell of `batch` on a standalone corelet: histograms must match
/// and the array's activity must equal the sum over the cells.
fn oracle(batch: &Batch, patches: &[GrayImage], what: &str, out: &mut Outcome) {
    let mut corelet = NApproxHogCorelet::new(SPIKES);
    let mut sum = SystemStats::default();
    for (c, (patch, served)) in patches.iter().zip(&batch.histograms).enumerate() {
        let before = corelet.stats();
        let hist = corelet.extract(patch);
        sum = check::add(&sum, &check::delta(&corelet.stats(), &before));
        out.check(format_args!("{what} cell {c}"), check::histogram(served, &hist));
    }
    out.check(format_args!("{what} activity"), check::activity(&batch.stats, &sum));
}

/// Runs the probe for `seconds` (at least `COUNTED` batches), sets the
/// simulator's per-layer metrics on `out`, and checks sampled batches
/// against standalone corelets.
pub fn probe(seed: u64, seconds: f64, tracer: &Tracer, out: &mut Outcome) {
    let mut ctx = setup(seed);
    let batches = batch_loop(&mut ctx, Duration::from_secs_f64(seconds), tracer);
    out.attempted += batches.len() as u64;

    for b in sample_indices(mix(seed, 72), batches.len(), ORACLE_BATCHES) {
        oracle(&batches[b], &ctx.batches[b], &format!("tn-fig5 batch {b}"), out);
    }
    // Replaying a batch on the same array must repeat its counts exactly.
    let again = ctx.array.stats();
    let replay = ctx.array.extract_batch(&ctx.batches[0]);
    out.check(
        "tn-fig5 batch 0 replay",
        check::activity(&check::delta(&ctx.array.stats(), &again), &batches[0].stats),
    );
    for (c, (a, b)) in replay.iter().zip(&batches[0].histograms).enumerate() {
        out.check(format_args!("tn-fig5 batch 0 replay cell {c}"), check::histogram(a, b));
    }

    let counted = &batches[..COUNTED];
    let per_batch = |count: fn(&SystemStats) -> u64| {
        counted.iter().map(|b| count(&b.stats)).sum::<u64>() as f64 / COUNTED as f64
    };
    let spans = tracer.durations_ms("truenorth.extract_batch");
    let total_ms: f64 = spans.iter().sum();
    let ticks: u64 = batches.iter().map(|b| b.stats.ticks).sum();
    let events: u64 = batches.iter().map(|b| b.stats.synaptic_events).sum();
    out.set("truenorth.us_per_tick", total_ms * 1e3 / ticks.max(1) as f64);
    out.set("truenorth.ns_per_synaptic_event", total_ms * 1e6 / events.max(1) as f64);
    out.set("truenorth.sim_ticks_per_s", ticks as f64 / (total_ms / 1e3));
    out.set("truenorth.synaptic_events", per_batch(|s| s.synaptic_events));
    out.set("truenorth.routed_spikes", per_batch(|s| s.routed_spikes));
    out.note("truenorth.batch_ms_p50", median(&spans));
    out.note("truenorth.batches", batches.len());
    out.note("truenorth.cells", ctx.array.cell_count());
    out.note("truenorth.cores", ctx.array.core_count());
}
