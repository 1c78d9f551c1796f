//! One command that drives the Expresso workspace end to end and reports
//! every end-to-end metric, or with `--trace 1` every per-layer metric, as
//! the last line of its standard output.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite_cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run sets its workload up several times (reporting the median set-up
//! time), makes one discarded warm-up pass, then repeats short timed passes
//! for `--seconds` seconds and reports their median. Each pass checks the
//! program's outputs; any failed check exits nonzero without a result. The
//! per-layer numbers come from one separate pass with span recording on, so
//! the timed passes measure the program with tracing off. See README.md.

mod corpus;
mod explore;
mod measure;
mod saturation;
mod suite_cold;

use measure::Layers;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The outcome of one timed pass.
pub struct Pass {
    /// Wall time of the program's work in the pass (checks excluded).
    pub ms: f64,
    /// Operations the pass attempted: monitors analysed, executions
    /// checked or monitor calls made.
    pub ops: u64,
    /// Operations among them that returned an error.
    pub failed: u64,
    /// Counts that are a pure function of the inputs; every pass of a run
    /// must repeat them exactly.
    pub counts: Vec<(&'static str, u64)>,
}

/// One workload after set-up.
pub trait Workload {
    /// One timed pass followed by its output checks.
    fn pass(&mut self) -> Result<Pass, String>;

    /// One pass with span recording on, returning the per-layer metrics.
    /// `timed_ms` is the median of the untraced timed passes.
    fn traced(&mut self, timed_ms: f64) -> Result<Layers, String>;
}

const WORKLOADS: [&str; 4] = [
    "suite_cold",
    "corpus_incremental",
    "explore_conformance",
    "runtime_saturation",
];

/// Set-up repeats at least this often and, while it is cheap, until it
/// has taken `SETUP_MIN_TOTAL` in all.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_TOTAL: Duration = Duration::from_millis(300);
const SETUP_MAX_REPS: usize = 200;

/// Fewest timed passes a run reports a median over.
const MIN_PASSES: usize = 3;

/// Every per-layer metric with its unit, in the order of BENCHMARK.json.
/// A metric a workload does not exercise reads 0 on that workload.
const PER_LAYER: &[(&str, &str)] = &[
    ("monitor_lang.parse_check_ms", "ms"),
    ("abduction.invariant_ms", "ms"),
    ("abduction.candidates", "count"),
    ("abduction.kept", "count"),
    ("core.placement_ms", "ms"),
    ("core.codegen_ms", "ms"),
    ("core.triples_checked", "count"),
    ("core.pairs_considered", "count"),
    ("core.pool_tasks", "count"),
    ("core.pool_steals", "count"),
    ("core.notifications", "count"),
    ("core.broadcasts", "count"),
    ("core.warm_analysis_ms", "ms"),
    ("smt.sat_self_ms", "ms"),
    ("smt.theory_self_ms", "ms"),
    ("smt.qe_self_ms", "ms"),
    ("smt.sat_queries", "count"),
    ("smt.cache_misses", "count"),
    ("smt.sat_solver_calls", "count"),
    ("smt.theory_checks", "count"),
    ("smt.quantifier_eliminations", "count"),
    ("smt.fm_fast_conflicts", "count"),
    ("smt.cache_hit_ratio", "ratio"),
    ("smt.disk_hits", "count"),
    ("vcgen.wp_self_ms", "ms"),
    ("vcgen.wp_hits", "count"),
    ("vcgen.wp_misses", "count"),
    ("vcgen.wp_disk_hits", "count"),
    ("vcgen.refine_ms", "ms"),
    ("logic.formula_nodes", "count"),
    ("persist.load_ms", "ms"),
    ("persist.save_ms", "ms"),
    ("persist.artifact_bytes", "bytes"),
    ("persist.seeded_entries", "count"),
    ("explore.executions", "count"),
    ("explore.transitions", "count"),
    ("explore.dedup_hits", "count"),
    ("explore.sleep_prunes", "count"),
    ("explore.frontier_roots", "count"),
    ("explore.us_per_execution", "us"),
    ("semantics.transitions_per_s", "1/s"),
    ("runtime.autosynch.ops_per_s", "ops/s"),
    ("runtime.autosynch.call_p50_us", "us"),
    ("runtime.autosynch.call_p99_us", "us"),
    ("runtime.autosynch.wakeups_per_op", "ratio"),
    ("runtime.autosynch.predicate_evals_per_op", "ratio"),
    ("runtime.static.ops_per_s", "ops/s"),
    ("runtime.static.call_p50_us", "us"),
    ("runtime.static.call_p99_us", "us"),
    ("runtime.static.wakeups_per_op", "ratio"),
    ("runtime.static.predicate_evals_per_op", "ratio"),
    ("runtime.targeted.ops_per_s", "ops/s"),
    ("runtime.targeted.call_p50_us", "us"),
    ("runtime.targeted.call_p99_us", "us"),
    ("runtime.targeted.wakeups_per_op", "ratio"),
    ("runtime.targeted.predicate_evals_per_op", "ratio"),
    ("runtime.targeted.avoided_wakeups", "count"),
    ("runtime.targeted.elided_notifications", "count"),
    ("bench.trace_overhead_ms", "ms"),
    ("bench.unattributed_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// SplitMix64: derives independent input parameters from the run's seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xA076_1D64_78BD_642F))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn setup(args: &Args, work: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "suite_cold" => Box::new(suite_cold::setup(args.seed)?),
        "corpus_incremental" => Box::new(corpus::setup(args.seed, work)?),
        "explore_conformance" => Box::new(explore::setup()?),
        "runtime_saturation" => Box::new(saturation::setup()?),
        other => unreachable!("workload {other} was validated"),
    })
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    let mut setup_s = Vec::new();
    let mut workload = None;
    let setup_start = Instant::now();
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_start.elapsed() < SETUP_MIN_TOTAL && setup_s.len() < SETUP_MAX_REPS)
    {
        // The previous repetition's state is dropped first, so every
        // repetition starts from the same point.
        drop(workload.take());
        let start = Instant::now();
        workload = Some(setup(args, work)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("set up at least once");

    // The discarded warm-up pass; every timed pass must repeat its counts.
    let reference = workload.pass()?;
    let mut passes: Vec<Pass> = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed() < budget {
        let pass = workload.pass()?;
        if pass.counts != reference.counts {
            return Err(format!(
                "deterministic counts changed between passes: {:?} then {:?}",
                reference.counts, pass.counts
            ));
        }
        passes.push(pass);
    }
    let pass_ms: Vec<f64> = passes.iter().map(|p| p.ms).collect();
    let median_ms = measure::median(&pass_ms);
    let attempted: u64 = passes.iter().map(|p| p.ops).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    eprintln!(
        "{}: {} passes, pass_ms median {:.3} (min {:.3}, max {:.3}); setup_s median {:.4} over {} set-ups",
        args.workload,
        passes.len(),
        median_ms,
        pass_ms.iter().copied().fold(f64::INFINITY, f64::min),
        pass_ms.iter().copied().fold(0.0, f64::max),
        measure::median(&setup_s),
        setup_s.len(),
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let layers = workload.traced(median_ms)?;
        if let Some((overhead, _)) = layers.get("bench.trace_overhead_ms") {
            eprintln!(
                "{}: tracing overhead {overhead:.3} ms per pass",
                args.workload
            );
        }
        for (name, (_, unit)) in &layers {
            match PER_LAYER.iter().find(|(n, _)| n == name) {
                Some((_, declared)) if declared == unit => {}
                _ => return Err(format!("layer metric {name} ({unit}) is not declared")),
            }
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.get(name).map_or(0.0, |v| v.0), unit))
            .collect()
    } else {
        vec![
            ("pass_ms", median_ms, "ms"),
            ("setup_s", measure::median(&setup_s), "s"),
            ("peak_rss_mb", measure::peak_rss_mb()?, "MB"),
        ]
    };
    Ok(measure::result_json(attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // The program reads these at context construction; the benchmark sets
    // the cache directory and the recorder itself.
    std::env::remove_var(expresso_core::CACHE_DIR_ENV);
    std::env::remove_var(expresso_core::TRACE_ENV);
    let work: PathBuf = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    // Removed only when no concurrent run still uses it.
    let _ = std::fs::remove_dir(".perfbench-work");
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
