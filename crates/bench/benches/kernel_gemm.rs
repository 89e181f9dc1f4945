//! Kernel-vs-naive timing for the `pcnn-kernels` compute path.
//!
//! Times the blocked GEMM, the im2col+GEMM `Conv2d` forward (f32 and
//! the multiply-free trinary inference path), and the SIMD-vs-scalar
//! micro-kernel spread against the golden naive loops in
//! `pcnn_eedn::reference` at Fig. 5 representative shapes, plus batched
//! against per-window scoring on the paper-sized Eedn window classifier;
//! verifies the outputs still agree bit-for-bit, and writes
//! `results/BENCH_kernels.json` with the measured speedups — each entry
//! tagged with the kernel `backend` it ran on.
//!
//! Flags (`--test`, `--check [path]`) as in [`pcnn_bench::harness`].

use pcnn_bench::harness::{time_pair, BenchArgs, Speedup};
use pcnn_core::pipeline::WINDOW_BATCH;
use pcnn_core::{EednClassifier, EednClassifierConfig, WindowClassifier};
use pcnn_eedn::reference::{conv2d_forward, ConvSpec};
use pcnn_eedn::{Conv2d, Layer, Scratch, Tensor};
use pcnn_kernels::{gemm, gemm_with_backend, GemmScratch, SimdBackend};
use serde::Serialize;
use std::hint::black_box;

/// One timed comparison, as recorded in `results/BENCH_kernels.json`.
#[derive(Serialize)]
struct BenchResult {
    name: String,
    dims: Vec<usize>,
    /// Kernel path and SIMD tier the `kernel_ms` column ran on, e.g.
    /// `"trinary+avx2"`; the baseline column is named in `baseline`.
    backend: String,
    /// What `naive_ms` timed: the reference loops (`"naive"`), a
    /// slower kernel backend (`"f32+scalar"`), or one classifier call
    /// per window (`"per_window"`).
    baseline: String,
    naive_ms: f64,
    kernel_ms: f64,
    speedup: f64,
    /// Logical CPUs and CPU model of the host the row was measured on.
    machine: String,
}

impl Speedup for BenchResult {
    fn name(&self) -> &str {
        &self.name
    }
    fn speedup(&self) -> f64 {
        self.speedup
    }
}

/// The measuring host: logical CPU count and CPU model name.
fn machine() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown CPU", str::trim);
    format!("{cpus} vCPU, {model}")
}

fn pseudo(data: &mut [f32], seed: u64) {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    for v in data.iter_mut() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        *v = (s % 2000) as f32 / 1000.0 - 1.0;
    }
}

struct ConvCase {
    name: &'static str,
    in_ch: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    h: usize,
    w: usize,
    batch: usize,
}

fn bench_conv(case: &ConvCase, trinary: bool, reps: usize) -> BenchResult {
    let layer = Conv2d::new(
        case.in_ch,
        case.out_ch,
        case.k,
        case.stride,
        case.pad,
        case.groups,
        trinary,
        42,
    );
    let spec = ConvSpec {
        in_ch: case.in_ch,
        out_ch: case.out_ch,
        k: case.k,
        stride: case.stride,
        pad: case.pad,
        groups: case.groups,
    };
    let mut data = vec![0.0f32; case.batch * case.in_ch * case.h * case.w];
    pseudo(&mut data, 7);
    let input = Tensor::from_vec(&[case.batch, case.in_ch, case.h, case.w], data);
    let w_eff = layer.effective_weights();
    let (alpha, bias) = (layer.alpha().to_vec(), layer.bias().to_vec());

    // Correctness gate before timing: kernel output must stay bitwise
    // equal to the naive oracle at the benchmarked shape — on the
    // trinary path too, where `infer_with` routes through the bitplane
    // kernels.
    let mut scratch = Scratch::default();
    let kernel_out = layer.infer_with(&input, &mut scratch);
    let (_, naive_out) = conv2d_forward(&spec, &w_eff, &alpha, &bias, &input);
    assert_eq!(kernel_out.data().len(), naive_out.data().len(), "{}: shape drift", case.name);
    for (i, (a, b)) in kernel_out.data().iter().zip(naive_out.data()).enumerate() {
        assert!(a.to_bits() == b.to_bits(), "{} elem {i}: kernel {a} != naive {b}", case.name);
    }

    let name = if trinary { format!("{}_trinary", case.name) } else { case.name.to_string() };
    let (naive_s, kernel_s) = time_pair(
        reps,
        || {
            black_box(conv2d_forward(&spec, black_box(&w_eff), &alpha, &bias, black_box(&input)));
        },
        || {
            black_box(layer.infer_with(black_box(&input), &mut scratch));
        },
    );
    let speedup = naive_s / kernel_s;
    let backend =
        format!("{}+{}", if trinary { "trinary" } else { "f32" }, pcnn_kernels::backend_label());
    println!(
        "bench: conv/{name:<36} [{backend}] naive {:>9.3}ms  kernel {:>9.3}ms  speedup {speedup:>6.2}x",
        naive_s * 1e3,
        kernel_s * 1e3,
    );
    BenchResult {
        name,
        // batch, in_ch, out_ch, h, w, k, stride, pad, groups
        dims: vec![
            case.batch,
            case.in_ch,
            case.out_ch,
            case.h,
            case.w,
            case.k,
            case.stride,
            case.pad,
            case.groups,
        ],
        backend,
        baseline: "naive".to_string(),
        naive_ms: naive_s * 1e3,
        kernel_ms: kernel_s * 1e3,
        speedup,
        machine: machine(),
    }
}

fn bench_raw_gemm(m: usize, k: usize, n: usize, reps: usize) -> BenchResult {
    let mut a = vec![0.0f32; m * k];
    let mut b = vec![0.0f32; k * n];
    pseudo(&mut a, 1);
    pseudo(&mut b, 2);
    let mut c_naive = vec![0.0f32; m * n];
    let mut c_kernel = vec![0.0f32; m * n];
    let mut s = GemmScratch::default();

    let (naive_s, kernel_s) = time_pair(
        reps,
        || {
            c_naive.iter_mut().for_each(|v| *v = 0.0);
            for i in 0..m {
                for p in 0..k {
                    let av = a[i * k + p];
                    for j in 0..n {
                        c_naive[i * n + j] += av * b[p * n + j];
                    }
                }
            }
            black_box(&mut c_naive);
        },
        || {
            c_kernel.iter_mut().for_each(|v| *v = 0.0);
            gemm(&mut s, m, k, n, black_box(&a), k, black_box(&b), n, &mut c_kernel, n);
            black_box(&mut c_kernel);
        },
    );
    let speedup = naive_s / kernel_s;
    let backend = format!("f32+{}", pcnn_kernels::backend_label());
    println!(
        "bench: gemm/{m}x{k}x{n:<26} [{backend}] naive {:>9.3}ms  kernel {:>9.3}ms  speedup {speedup:>6.2}x",
        naive_s * 1e3,
        kernel_s * 1e3,
    );
    BenchResult {
        name: format!("gemm_{m}x{k}x{n}"),
        dims: vec![m, k, n],
        backend,
        baseline: "naive".to_string(),
        naive_ms: naive_s * 1e3,
        kernel_ms: kernel_s * 1e3,
        speedup,
        machine: machine(),
    }
}

/// The SIMD micro-kernel against the forced-scalar fallback on the same
/// blocked GEMM — isolates what runtime dispatch buys over safe scalar.
fn bench_simd_vs_scalar(m: usize, k: usize, n: usize, reps: usize) -> BenchResult {
    let hw = pcnn_kernels::detect_backend();
    let mut a = vec![0.0f32; m * k];
    let mut b = vec![0.0f32; k * n];
    pseudo(&mut a, 3);
    pseudo(&mut b, 4);
    let mut c_scalar = vec![0.0f32; m * n];
    let mut c_simd = vec![0.0f32; m * n];
    let mut s_scalar = GemmScratch::default();
    let mut s_simd = GemmScratch::default();

    let (scalar_s, simd_s) = time_pair(
        reps,
        || {
            c_scalar.iter_mut().for_each(|v| *v = 0.0);
            gemm_with_backend(
                SimdBackend::Scalar,
                &mut s_scalar,
                m,
                k,
                n,
                black_box(&a),
                k,
                black_box(&b),
                n,
                &mut c_scalar,
                n,
            );
            black_box(&mut c_scalar);
        },
        || {
            c_simd.iter_mut().for_each(|v| *v = 0.0);
            gemm_with_backend(
                hw,
                &mut s_simd,
                m,
                k,
                n,
                black_box(&a),
                k,
                black_box(&b),
                n,
                &mut c_simd,
                n,
            );
            black_box(&mut c_simd);
        },
    );
    let speedup = scalar_s / simd_s;
    let backend = format!("f32+{}", hw.name());
    println!(
        "bench: gemm/{m}x{k}x{n}_simd_vs_scalar  [{backend}] scalar {:>9.3}ms  simd {:>9.3}ms  speedup {speedup:>6.2}x",
        scalar_s * 1e3,
        simd_s * 1e3,
    );
    BenchResult {
        name: format!("gemm_{m}x{k}x{n}_simd_vs_scalar"),
        dims: vec![m, k, n],
        backend,
        baseline: "f32+scalar".to_string(),
        naive_ms: scalar_s * 1e3,
        kernel_ms: simd_s * 1e3,
        speedup,
        machine: machine(),
    }
}

/// Per-window `score` against one `score_batch` call over the same
/// `WINDOW_BATCH` descriptors, on the paper-sized Eedn classifier
/// (7560 → 240 → 120 → 2, briefly trained on seeded data). Both sides
/// read the same resident packed weights, so the ratio isolates what
/// one network pass per batch buys over one pass per window.
fn bench_eedn_classify(reps: usize) -> BenchResult {
    let dim = 7560;
    let mut data = vec![0.0f32; 2 * WINDOW_BATCH * dim];
    pseudo(&mut data, 5);
    let descriptors: Vec<Vec<f32>> = data.chunks_exact(dim).map(<[f32]>::to_vec).collect();
    let labels: Vec<bool> = (0..descriptors.len()).map(|i| i % 2 == 0).collect();
    let classifier = WindowClassifier::Eedn(Box::new(EednClassifier::train(
        &descriptors[WINDOW_BATCH..],
        &labels[WINDOW_BATCH..],
        EednClassifierConfig { epochs: 1, ..EednClassifierConfig::default() },
    )));
    let windows = &descriptors[..WINDOW_BATCH];
    let mut scratch = Scratch::default();
    let mut buf = Vec::with_capacity(WINDOW_BATCH * dim);
    let mut batched = || {
        buf.clear();
        for d in windows {
            buf.extend_from_slice(d);
        }
        classifier.score_batch(&mut buf, &mut scratch)
    };

    // Correctness gate before timing: the batch must score every window
    // exactly as the per-window path does.
    let per_window: Vec<f32> = windows.iter().map(|d| classifier.score(d)).collect();
    for (i, (a, b)) in batched().iter().zip(&per_window).enumerate() {
        assert!(a.to_bits() == b.to_bits(), "window {i}: batched {a} != per-window {b}");
    }

    let (per_window_s, batch_s) = time_pair(
        reps,
        || {
            for d in windows {
                black_box(classifier.score(black_box(d)));
            }
        },
        || {
            black_box(batched());
        },
    );
    let speedup = per_window_s / batch_s;
    let name = format!("eedn_classify_{dim}_b{WINDOW_BATCH}");
    let backend = format!("trinary+{}", pcnn_kernels::backend_label());
    println!(
        "bench: eedn/{name:<36} [{backend}] per-window {:>9.3}ms  batch {:>9.3}ms  speedup {speedup:>6.2}x",
        per_window_s * 1e3,
        batch_s * 1e3,
    );
    BenchResult {
        name,
        // windows, in_dim, hidden1, hidden2, logits
        dims: vec![WINDOW_BATCH, dim, 240, 120, 2],
        backend,
        baseline: "per_window".to_string(),
        naive_ms: per_window_s * 1e3,
        kernel_ms: batch_s * 1e3,
        speedup,
        machine: machine(),
    }
}

fn main() {
    let args = BenchArgs::parse("BENCH_kernels.json");
    let reps = args.reps(20);

    let cases = [
        // Fig. 5 front: 32 -> 64 channels over a 30x30 map, 3x3 taps.
        ConvCase {
            name: "fig5_32to64_30x30_k3",
            in_ch: 32,
            out_ch: 64,
            k: 3,
            stride: 1,
            pad: 1,
            groups: 1,
            h: 30,
            w: 30,
            batch: 4,
        },
        // Same shape with crossbar-style channel groups.
        ConvCase {
            name: "fig5_grouped_g4",
            in_ch: 32,
            out_ch: 64,
            k: 3,
            stride: 1,
            pad: 1,
            groups: 4,
            h: 30,
            w: 30,
            batch: 4,
        },
        // 1x1 mixing layer on a pooled map.
        ConvCase {
            name: "mix_64to64_15x15_k1",
            in_ch: 64,
            out_ch: 64,
            k: 1,
            stride: 1,
            pad: 0,
            groups: 1,
            h: 15,
            w: 15,
            batch: 4,
        },
    ];

    let mut results: Vec<BenchResult> = Vec::new();
    for case in &cases {
        results.push(bench_conv(case, false, reps));
        results.push(bench_conv(case, true, reps));
    }
    // The raw GEMM behind the fig5 conv: (out_ch) x (in_ch*k*k) x (ho*wo).
    results.push(bench_raw_gemm(64, 288, 900, reps));
    results.push(bench_simd_vs_scalar(64, 288, 900, reps));
    results.push(bench_eedn_classify(reps));

    args.finish("kernel_gemm", results);
}
