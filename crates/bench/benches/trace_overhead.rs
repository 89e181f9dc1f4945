//! Overhead of `pcnn-trace` spans on an instrumented hot path.
//!
//! Measures per-call costs around a tiny unit of real work (an 8×8×8
//! GEMM, roughly one microkernel invocation):
//!
//! * `bare` — the work alone, no span;
//! * `disabled` — the work wrapped in a span with no tracer installed
//!   (the production default: one relaxed atomic load and a branch);
//! * `enabled` — the work wrapped in a recording span under a
//!   wall-clock tracer.
//!
//! The contract pinned by `crates/trace/tests/disabled_alloc.rs` is
//! that `disabled` allocates nothing; this bench gates that its time
//! cost is likewise negligible. The one recorded row's speedup is bare
//! over disabled time (≈1), so `--check` fails when the disabled span
//! path gets slower. Only that ratio is gated: the enabled path's cost
//! depends on how many spans the tracer retains. Writes
//! `results/BENCH_trace.json`.
//!
//! Flags (`--test`, `--check [path]`) as in [`pcnn_bench::harness`].

use pcnn_bench::harness::{time_pair, BenchArgs, Speedup};
use pcnn_kernels::{gemm, GemmScratch};
use pcnn_trace::{stages, Clock, Counter, Tracer};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// The span-on-GEMM comparison, as recorded in `results/BENCH_trace.json`.
#[derive(Serialize)]
struct BenchResult {
    name: String,
    /// Calls per timed batch.
    calls: usize,
    bare_ns: f64,
    disabled_ns: f64,
    enabled_ns: f64,
    /// A disabled span open/add/drop with no work at all — the raw
    /// per-site cost of the branch-on-atomic fast path.
    disabled_span_only_ns: f64,
    /// `bare_ns / disabled_ns`: 1 means a disabled span costs nothing.
    speedup: f64,
}

impl Speedup for BenchResult {
    fn name(&self) -> &str {
        &self.name
    }
    fn speedup(&self) -> f64 {
        self.speedup
    }
}

/// Mean nanoseconds per call over `calls` invocations (after warmup).
fn time_ns<F: FnMut()>(calls: usize, mut f: F) -> f64 {
    for _ in 0..calls / 10 {
        f();
    }
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / calls as f64
}

/// One microkernel-sized unit of work, with its own buffers.
fn gemm_8x8x8() -> impl FnMut() {
    let (m, k, n) = (8usize, 8, 8);
    let a = vec![0.25f32; m * k];
    let b = vec![0.5f32; k * n];
    let mut c = vec![0.0f32; m * n];
    let mut s = GemmScratch::default();
    move || {
        c.iter_mut().for_each(|v| *v = 0.0);
        gemm(&mut s, m, k, n, black_box(&a), k, black_box(&b), n, &mut c, n);
        black_box(&mut c);
    }
}

/// `work` wrapped in one extra span. `gemm` already opens its own span,
/// so the delta over bare `work` is exactly one span open/add/drop.
fn spanned(mut work: impl FnMut()) -> impl FnMut() {
    move || {
        let span = pcnn_trace::span(stages::KERNELS_GEMM);
        span.add(Counter::Flops, 1024);
        work();
    }
}

fn main() {
    let args = BenchArgs::parse("BENCH_trace.json");
    let calls = if args.smoke { 100 } else { 200_000 };

    assert!(!pcnn_trace::is_enabled(), "bench must start with tracing off");

    // The fast path in isolation: with no tracer installed a span site
    // is one relaxed atomic load and a branch, so this sits at ~1 ns.
    let span_only = time_ns(calls.max(1_000_000), || {
        let span = pcnn_trace::span(stages::KERNELS_GEMM);
        span.add(Counter::Flops, black_box(1024));
    });

    let (mut bare, mut disabled) = (gemm_8x8x8(), spanned(gemm_8x8x8()));
    let (bare_s, disabled_s) = time_pair(
        args.reps(10),
        || (0..calls).for_each(|_| bare()),
        || (0..calls).for_each(|_| disabled()),
    );
    let (bare_ns, disabled_ns) = (bare_s * 1e9 / calls as f64, disabled_s * 1e9 / calls as f64);

    let tracer = Tracer::install(Clock::wall());
    let enabled_ns = time_ns(calls, spanned(gemm_8x8x8()));
    let trace = tracer.drain();
    Tracer::uninstall();
    assert!(trace.span_count() > calls, "enabled run must have recorded spans");

    let result = BenchResult {
        name: "span_on_gemm_8x8x8".to_string(),
        calls,
        bare_ns,
        disabled_ns,
        enabled_ns,
        disabled_span_only_ns: span_only,
        speedup: bare_ns / disabled_ns,
    };
    println!("bench: trace/disabled_span_only   {span_only:>8.2}ns per site");
    println!(
        "bench: trace/span_on_gemm_8x8x8   bare {bare_ns:>8.1}ns  disabled {disabled_ns:>8.1}ns \
         ({:+.1}ns, bare/disabled {:.3})  enabled {enabled_ns:>8.1}ns ({:+.1}ns)",
        disabled_ns - bare_ns,
        result.speedup,
        enabled_ns - bare_ns,
    );

    args.finish("trace_overhead", vec![result]);
}
