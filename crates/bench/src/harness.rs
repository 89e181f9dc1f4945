//! Shared plumbing for the benches that gate a committed
//! `results/BENCH_*.json` (`kernel_gemm`, `truenorth_tick`): flag
//! parsing, interleaved min-of-reps timing, the speedup regression check
//! and the results write. Each bench keeps its own cases and result type.
//!
//! The vendored criterion stand-in has no CLI parsing, so these benches
//! carry their own `main` and accept:
//!
//! * `--test` (as CI's smoke step passes) — one-rep correctness run, no
//!   JSON write;
//! * `--check [path]` — re-measure and fail if any speedup drops below
//!   [`FLOOR`] × its committed value (CI's bench-regression guard);
//! * no flags — full run, rewrites the bench's results file.

use serde::{Deserialize, Serialize, Value};
use std::time::Instant;

/// Fraction of a committed speedup a re-measurement must reach under
/// `--check`.
pub const FLOOR: f64 = 0.8;

/// A timed comparison that can be gated against its committed value.
pub trait Speedup {
    /// The entry's stable name, matched against the committed file.
    fn name(&self) -> &str;
    /// Baseline time over measured time.
    fn speedup(&self) -> f64;
}

/// The parsed command line of a gated bench.
#[derive(Debug)]
pub struct BenchArgs {
    /// `--test`: one rep per case, no JSON write.
    pub smoke: bool,
    /// `--check [path]`: the committed results file to gate against.
    check: Option<String>,
    /// The bench's own results file: `--check`'s default and the full
    /// run's output.
    results_path: String,
}

impl BenchArgs {
    /// Parses the process arguments; `results_file` names the bench's
    /// file under the workspace's `results/` directory.
    pub fn parse(results_file: &str) -> Self {
        let results_path = format!("{}/../../results/{results_file}", env!("CARGO_MANIFEST_DIR"));
        let args: Vec<String> = std::env::args().collect();
        let smoke = args.iter().any(|a| a == "--test");
        let check = args.iter().position(|a| a == "--check").map(|i| {
            args.get(i + 1)
                .filter(|p| !p.starts_with("--"))
                .cloned()
                .unwrap_or_else(|| results_path.clone())
        });
        BenchArgs { smoke, check, results_path }
    }

    /// Timed reps per case: `full`, or 1 in smoke mode.
    pub fn reps(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }

    /// Concludes the run: gates `results` under `--check`, stops in
    /// smoke mode, and otherwise writes `{bench, results}` to the
    /// results file.
    ///
    /// # Panics
    ///
    /// Panics when a speedup regressed or the results file cannot be
    /// read or written — a bench's way of failing.
    pub fn finish<R: Speedup + Serialize>(&self, bench: &str, results: Vec<R>) {
        if let Some(path) = &self.check {
            check_regressions(&results, path);
            return;
        }
        if self.smoke {
            println!("{bench}: smoke mode (--test), skipping JSON write");
            return;
        }
        let doc = Value::Map(vec![
            ("bench".to_string(), bench.to_value()),
            ("results".to_string(), results.to_value()),
        ]);
        std::fs::write(&self.results_path, serde_json::to_string_pretty(&doc).expect("serialize"))
            .unwrap_or_else(|e| panic!("write {}: {e}", self.results_path));
        println!("wrote {}", self.results_path);
    }
}

/// Minimum seconds per call for a baseline/kernel pair, measured
/// **interleaved** over `reps` rounds (after one warmup each). Two
/// defenses keep the recorded speedups reproducible enough for the
/// `--check` regression gate on a shared box: the minimum (scheduler
/// interference only ever adds time, so the fastest observation is the
/// most stable estimate), and interleaving (frequency drift mid-run
/// hits both sides equally instead of skewing their ratio).
pub fn time_pair<A: FnMut(), B: FnMut()>(reps: usize, mut base: A, mut kernel: B) -> (f64, f64) {
    base();
    kernel();
    let (mut best_base, mut best_kernel) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t = Instant::now();
        base();
        best_base = best_base.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        kernel();
        best_kernel = best_kernel.min(t.elapsed().as_secs_f64());
    }
    (best_base, best_kernel)
}

/// The fields of a committed entry the gate reads.
#[derive(Deserialize)]
struct Committed {
    name: String,
    speedup: f64,
}

#[derive(Deserialize)]
struct CommittedDoc {
    results: Vec<Committed>,
}

/// Compares fresh measurements against a committed results file: any
/// entry whose measured speedup falls below [`FLOOR`] × committed speedup
/// is a regression. Entries present on only one side are reported but
/// don't fail (they have nothing to regress against).
///
/// # Panics
///
/// Panics on any regression, or if the committed file cannot be read.
fn check_regressions<R: Speedup>(measured: &[R], committed_path: &str) {
    let text = std::fs::read_to_string(committed_path)
        .unwrap_or_else(|e| panic!("read {committed_path}: {e}"));
    let committed: CommittedDoc = serde_json::from_str(&text).expect("parse committed bench doc");
    let mut failures = Vec::new();
    for old in &committed.results {
        let Some(new) = measured.iter().find(|r| r.name() == old.name) else {
            println!("check: {:<40} committed but not measured — skipped", old.name);
            continue;
        };
        let threshold = old.speedup * FLOOR;
        let regressed = new.speedup() < threshold;
        println!(
            "check: {:<40} committed {:>7.2}x  measured {:>7.2}x  (floor {threshold:>7.2}x) {}",
            old.name,
            old.speedup,
            new.speedup(),
            if regressed { "REGRESSED" } else { "ok" },
        );
        if regressed {
            failures.push(format!(
                "{}: speedup {:.2}x below {:.0}% of committed {:.2}x",
                old.name,
                new.speedup(),
                FLOOR * 100.0,
                old.speedup
            ));
        }
    }
    assert!(failures.is_empty(), "bench regressions detected:\n  {}", failures.join("\n  "));
    println!("check: no speedup fell below {:.0}% of its committed value", FLOOR * 100.0);
}
