//! Self-tests run at the start of every benchmark run: each gate the
//! benchmark relies on must be able to fail. A tampered detection list,
//! histogram or counter must be caught, and an open-loop phase whose
//! samples all exceed the latency limit must be judged over it.

use crate::check;
use crate::stats::{sustained_rate, Phase};
use pcnn_truenorth::SystemStats;
use pcnn_vision::{BoundingBox, Detection};

fn expect_caught(what: &str, result: Result<(), String>) -> Result<(), String> {
    match result {
        Err(_) => Ok(()),
        Ok(()) => Err(format!("tampered {what} passed its oracle check")),
    }
}

/// The detection, histogram and counter comparators reject tampering.
pub fn tamper() -> Result<(), String> {
    let dets = vec![
        Detection { bbox: BoundingBox::new(8.0, 16.0, 64.0, 128.0), score: 1.25 },
        Detection { bbox: BoundingBox::new(40.0, 0.0, 70.4, 140.8), score: -0.5 },
    ];
    check::detections(&dets, &dets.clone())?;
    let mut nudged = dets.clone();
    nudged[1].score = f32::from_bits(nudged[1].score.to_bits() + 1);
    expect_caught("detection score", check::detections(&nudged, &dets))?;
    let mut moved = dets.clone();
    moved[0].bbox.x += 8.0;
    expect_caught("detection box", check::detections(&moved, &dets))?;
    expect_caught("detection list", check::detections(&dets[..1], &dets))?;

    let hist: Vec<f32> = (0..18).map(|b| (b % 5) as f32).collect();
    check::histogram(&hist, &hist.clone())?;
    let mut bumped = hist.clone();
    bumped[7] += 1.0;
    expect_caught("histogram", check::histogram(&bumped, &hist))?;

    let stats = SystemStats {
        ticks: 20,
        routed_spikes: 1000,
        output_spikes: 40,
        injected_spikes: 900,
        synaptic_events: 90_000,
    };
    check::activity(&stats, &stats.clone())?;
    let tampered = SystemStats { synaptic_events: stats.synaptic_events + 1, ..stats };
    expect_caught("counter", check::activity(&tampered, &stats))?;
    Ok(())
}

/// An all-over-limit phase fails the SLO and does not count toward the
/// sustained rate, even though a histogram capped at the limit would
/// have put its p90 exactly on it; failed frames count as misses; a
/// growing backlog fails the phase.
pub fn quantile_gate() -> Result<(), String> {
    let limit = 100.0;
    let ok = Phase {
        rate_hz: 10.0,
        latencies_ms: (0..200).map(|i| 20.0 + f64::from(i % 50)).collect(),
        failed: 0,
        backlog: vec![1; 200],
    };
    let over = Phase {
        rate_hz: 20.0,
        latencies_ms: (0..200).map(|i| limit * 20.0 + f64::from(i)).collect(),
        ..ok.clone()
    };
    let failing = Phase { rate_hz: 30.0, failed: 40, ..ok.clone() };
    let growing = Phase { rate_hz: 40.0, backlog: (0..200).collect(), ..ok.clone() };
    if !ok.meets(limit) {
        return Err("a phase within the limit was judged over it".into());
    }
    if over.meets(limit) || over.p90_with_failures() <= limit {
        return Err("an all-over-limit phase was judged within the limit".into());
    }
    if failing.meets(limit) {
        return Err("failed frames were not counted as misses".into());
    }
    if growing.meets(limit) {
        return Err("a growing backlog was not caught".into());
    }
    let rate = sustained_rate(&[ok, over, failing, growing], limit);
    if rate != 10.0 {
        return Err(format!("sustained rate {rate} counted a failing phase"));
    }
    Ok(())
}

pub fn run() -> Result<(), String> {
    tamper()?;
    quantile_gate()
}

#[cfg(test)]
mod tests {
    #[test]
    fn comparators_catch_tampering() {
        super::tamper().unwrap();
    }
}
