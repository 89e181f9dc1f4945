//! The one harness every bench under `benches/` runs on: flag parsing,
//! interleaved min-of-reps timing, the speedup regression check and the
//! write of the bench's committed `results/BENCH_*.json`. Each bench
//! keeps its own cases and result type.
//!
//! Every bench carries its own `main` (`harness = false`), calls
//! [`BenchArgs::parse`] and accepts:
//!
//! * `--test` (as CI's smoke steps pass) — one-rep correctness run that
//!   never writes under `results/`;
//! * `--check [path]` — re-measure and fail if any speedup drops below
//!   [`FLOOR`] × its committed value (CI's bench-regression guard);
//! * no flags — full run, rewrites the bench's results file in the
//!   workspace's `results/` directory, whatever the working directory.
//!
//! A bench whose results are [`Speedup`]s concludes with
//! [`BenchArgs::finish`]; one with nothing to gate concludes with
//! [`BenchArgs::finish_ungated`].

use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
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

/// The parsed command line of a bench.
#[derive(Debug)]
pub struct BenchArgs {
    /// `--test`: one rep per case, no JSON write.
    pub smoke: bool,
    /// `--check [path]`: the committed results file to gate against.
    check: Option<PathBuf>,
    /// The bench's own results file: `--check`'s default and the full
    /// run's output.
    results_path: PathBuf,
}

impl BenchArgs {
    /// Parses the process arguments; `results_file` names the bench's
    /// file under the workspace's `results/` directory.
    pub fn parse(results_file: &str) -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::from_args(&args, results_file)
    }

    fn from_args(args: &[String], results_file: &str) -> Self {
        // Fixed at compile time, so the path does not depend on the
        // directory the bench runs from (`cargo bench` runs it from
        // `crates/bench`).
        let results_path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("the bench crate sits two levels below the workspace root")
            .join("results")
            .join(results_file);
        let smoke = args.iter().any(|a| a == "--test");
        let check = args.iter().position(|a| a == "--check").map(|i| {
            args.get(i + 1)
                .filter(|p| !p.starts_with("--"))
                .map_or_else(|| results_path.clone(), PathBuf::from)
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

    /// Concludes a gated run: gates `results` under `--check`, stops in
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
        self.write(bench, vec![("results".to_string(), results.to_value())]);
    }

    /// Concludes a run with no speedup to gate: stops in smoke mode, and
    /// otherwise writes `bench` followed by the fields of `doc` (a
    /// struct) to the results file.
    ///
    /// # Panics
    ///
    /// Panics under `--check`, which has nothing to gate here, or when
    /// the results file cannot be written.
    pub fn finish_ungated<D: Serialize>(&self, bench: &str, doc: &D) {
        assert!(
            self.check.is_none(),
            "{bench} records no speedups, so --check has nothing to gate"
        );
        let Value::Map(fields) = doc.to_value() else {
            panic!("{bench}: a bench document must serialize to a JSON object");
        };
        self.write(bench, fields);
    }

    fn write(&self, bench: &str, fields: Vec<(String, Value)>) {
        if self.smoke {
            println!("{bench}: smoke mode (--test), skipping JSON write");
            return;
        }
        let mut doc = vec![("bench".to_string(), bench.to_value())];
        doc.extend(fields);
        let json = serde_json::to_string_pretty(&Value::Map(doc)).expect("serialize");
        let path = &self.results_path;
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
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

/// The measuring host, recorded with every row: logical CPU count and
/// CPU model name.
pub fn machine() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown CPU", str::trim);
    format!("{cpus} vCPU, {model}")
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

/// Compares fresh measurements against a committed results file.
///
/// # Panics
///
/// Panics on any regression (see [`regressions`]), or if the committed
/// file cannot be read.
fn check_regressions<R: Speedup>(measured: &[R], committed_path: &Path) {
    let text = std::fs::read_to_string(committed_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", committed_path.display()));
    let failures = regressions(measured, &text);
    assert!(failures.is_empty(), "bench regressions detected:\n  {}", failures.join("\n  "));
    println!("check: no speedup fell below {:.0}% of its committed value", FLOOR * 100.0);
}

/// One message per entry of the committed document `committed` whose
/// measured speedup falls below [`FLOOR`] × its committed speedup.
/// Entries present on only one side are reported but don't fail (they
/// have nothing to regress against).
fn regressions<R: Speedup>(measured: &[R], committed: &str) -> Vec<String> {
    let committed: CommittedDoc =
        serde_json::from_str(committed).expect("parse committed bench doc");
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
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(flags: &[&str]) -> BenchArgs {
        let argv: Vec<String> = ["bench"].iter().chain(flags).map(|s| s.to_string()).collect();
        BenchArgs::from_args(&argv, "BENCH_x.json")
    }

    #[test]
    fn no_flags_is_a_full_writing_run() {
        let a = args(&["--bench"]);
        assert!(!a.smoke);
        assert_eq!(a.check, None);
        assert_eq!(a.reps(10), 10);
    }

    #[test]
    fn test_flag_is_a_one_rep_smoke_run() {
        let a = args(&["--bench", "--test"]);
        assert!(a.smoke);
        assert_eq!(a.check, None);
        assert_eq!(a.reps(10), 1);
    }

    #[test]
    fn check_defaults_to_the_bench_results_file() {
        let a = args(&["--bench", "--check"]);
        assert_eq!(a.check.as_deref(), Some(a.results_path.as_path()));
        assert!(!a.smoke);
        // A following flag is not a path.
        let a = args(&["--check", "--bench"]);
        assert_eq!(a.check.as_deref(), Some(a.results_path.as_path()));
    }

    #[test]
    fn check_takes_an_explicit_path() {
        let a = args(&["--bench", "--check", "old/BENCH_x.json"]);
        assert_eq!(a.check, Some(PathBuf::from("old/BENCH_x.json")));
    }

    #[test]
    fn results_path_is_the_workspace_results_dir_from_any_cwd() {
        let a = args(&[]);
        assert!(a.results_path.is_absolute(), "{}", a.results_path.display());
        assert!(a.results_path.ends_with("results/BENCH_x.json"));
        let root = a.results_path.parent().and_then(Path::parent).expect("results dir parent");
        assert!(root.join("Cargo.lock").is_file(), "{} is not the workspace root", root.display());
        assert!(root.join("crates/bench/Cargo.toml").is_file());
    }

    struct Row(&'static str, f64);

    impl Speedup for Row {
        fn name(&self) -> &str {
            self.0
        }
        fn speedup(&self) -> f64 {
            self.1
        }
    }

    const COMMITTED: &str = r#"{"bench": "x", "results": [{"name": "a", "speedup": 5.0}, {"name": "gone", "speedup": 3.0}]}"#;

    #[test]
    fn a_speedup_below_the_floor_fails() {
        let failures = regressions(&[Row("a", 3.99)], COMMITTED);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("a: "), "{failures:?}");
    }

    #[test]
    fn a_speedup_at_the_floor_passes() {
        assert_eq!(FLOOR * 5.0, 4.0);
        assert!(regressions(&[Row("a", 4.0)], COMMITTED).is_empty());
        assert!(regressions(&[Row("a", 9.0)], COMMITTED).is_empty());
    }

    #[test]
    fn entries_on_only_one_side_are_skipped() {
        // "gone" is committed but not measured; "new" is measured but
        // not committed: neither can regress.
        assert!(regressions(&[Row("a", 5.0), Row("new", 0.01)], COMMITTED).is_empty());
        assert!(regressions::<Row>(&[], COMMITTED).is_empty());
    }
}
