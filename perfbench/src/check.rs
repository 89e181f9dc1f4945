//! Oracle comparisons. Each returns a description of the first
//! difference, so a mismatch can be reported and fail the run.

use pcnn_truenorth::SystemStats;
use pcnn_vision::Detection;

/// Bit-exact comparison of two detection lists.
pub fn detections(served: &[Detection], oracle: &[Detection]) -> Result<(), String> {
    if served.len() != oracle.len() {
        return Err(format!("{} detections served, oracle has {}", served.len(), oracle.len()));
    }
    for (i, (a, b)) in served.iter().zip(oracle).enumerate() {
        let bits = |d: &Detection| {
            [d.bbox.x, d.bbox.y, d.bbox.width, d.bbox.height, d.score].map(f32::to_bits)
        };
        if bits(a) != bits(b) {
            return Err(format!("detection {i}: served {a:?}, oracle {b:?}"));
        }
    }
    Ok(())
}

/// Bit-exact comparison of two cell histograms.
pub fn histogram(served: &[f32], oracle: &[f32]) -> Result<(), String> {
    let bits = |h: &[f32]| h.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    if bits(served) == bits(oracle) {
        Ok(())
    } else {
        Err(format!("histogram {served:?} differs from oracle {oracle:?}"))
    }
}

/// Exact comparison of the activity counters that do not depend on how
/// many ticks the array ran (the cells of one array share its ticks).
pub fn activity(served: &SystemStats, oracle: &SystemStats) -> Result<(), String> {
    let key =
        |s: &SystemStats| (s.synaptic_events, s.routed_spikes, s.output_spikes, s.injected_spikes);
    if key(served) == key(oracle) {
        Ok(())
    } else {
        Err(format!("activity {served:?} differs from oracle {oracle:?}"))
    }
}

/// Counter delta `after - before`.
pub fn delta(after: &SystemStats, before: &SystemStats) -> SystemStats {
    SystemStats {
        ticks: after.ticks - before.ticks,
        routed_spikes: after.routed_spikes - before.routed_spikes,
        output_spikes: after.output_spikes - before.output_spikes,
        injected_spikes: after.injected_spikes - before.injected_spikes,
        synaptic_events: after.synaptic_events - before.synaptic_events,
    }
}

/// Counter sum.
pub fn add(a: &SystemStats, b: &SystemStats) -> SystemStats {
    SystemStats {
        ticks: a.ticks + b.ticks,
        routed_spikes: a.routed_spikes + b.routed_spikes,
        output_spikes: a.output_spikes + b.output_spikes,
        injected_spikes: a.injected_spikes + b.injected_spikes,
        synaptic_events: a.synaptic_events + b.synaptic_events,
    }
}
