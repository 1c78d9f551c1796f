//! `runtime_saturation`: the paper's Figs. 8–9 comparison. Set-up analyses
//! all 16 suite monitors; each timed pass drives every monitor's balanced
//! saturation plans through the AutoSynch engine and the explicit engine in
//! `Static` and `Targeted` mode. Each plan runs on its own OS thread in a
//! closed loop: a thread makes its next call when the previous one returns.
//! A failed call fails the run: its peers could otherwise wait forever.

use crate::measure::{self, Layers};
use crate::{Pass, Workload};
use expresso_core::{Expresso, ExpressoConfig, SharedAnalysisContext};
use expresso_loadgen::Histogram;
use expresso_logic::{Formula, Valuation};
use expresso_monitor_lang::{ExplicitMonitor, Monitor};
use expresso_runtime::{AutoSynchRuntime, ExplicitRuntime, MonitorRuntime, SignalMode, ThreadPlan};
use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// Threads asked of each plan builder (H2OBarrier and the decoder round
/// up to groups of three).
const THREADS: usize = 2;
/// Calls each thread makes per plan.
const OPS_PER_THREAD: usize = 1000;

#[derive(Clone, Copy)]
enum Engine {
    AutoSynch,
    Static,
    Targeted,
}

const ENGINES: [Engine; 3] = [Engine::AutoSynch, Engine::Static, Engine::Targeted];

impl Engine {
    fn label(self) -> &'static str {
        self.metrics()[0]
            .split('.')
            .nth(1)
            .expect("runtime.<engine>.<metric>")
    }

    /// Per-layer metric names: throughput, call p50 and p99, wakeups and
    /// predicate evaluations per call.
    fn metrics(self) -> [&'static str; 5] {
        match self {
            Engine::AutoSynch => [
                "runtime.autosynch.ops_per_s",
                "runtime.autosynch.call_p50_us",
                "runtime.autosynch.call_p99_us",
                "runtime.autosynch.wakeups_per_op",
                "runtime.autosynch.predicate_evals_per_op",
            ],
            Engine::Static => [
                "runtime.static.ops_per_s",
                "runtime.static.call_p50_us",
                "runtime.static.call_p99_us",
                "runtime.static.wakeups_per_op",
                "runtime.static.predicate_evals_per_op",
            ],
            Engine::Targeted => [
                "runtime.targeted.ops_per_s",
                "runtime.targeted.call_p50_us",
                "runtime.targeted.call_p99_us",
                "runtime.targeted.wakeups_per_op",
                "runtime.targeted.predicate_evals_per_op",
            ],
        }
    }
}

struct Target {
    name: &'static str,
    monitor: Monitor,
    explicit: ExplicitMonitor,
    invariant: Formula,
    /// Bindings of the invariant's copies of thread locals, one per
    /// combination of values the plans give those locals.
    local_bindings: Vec<Valuation>,
    ctor: Valuation,
    plans: Arc<Vec<ThreadPlan>>,
}

/// Most combinations of local values the invariant is evaluated under.
const MAX_BINDINGS: usize = 100_000;

/// Free variables of an inferred invariant that are not shared fields are
/// renamed copies of thread locals (`id!other`), which the invariant
/// quantifies over every thread. Binds each to every value its local takes
/// in `plans`.
fn local_bindings(
    name: &str,
    invariant: &Formula,
    state: &Valuation,
    plans: &[ThreadPlan],
) -> Result<Vec<Valuation>, String> {
    let mut copies: Vec<String> = invariant
        .free_vars()
        .into_iter()
        .filter(|v| state.int(v).is_none() && state.boolean(v).is_none())
        .collect();
    copies.sort();
    let mut bindings = vec![Valuation::new()];
    for copy in copies {
        let local = copy.split('!').next().expect("split yields a first part");
        let ops = plans.iter().flatten();
        let mut ints: Vec<i64> = ops.clone().filter_map(|op| op.locals.int(local)).collect();
        let mut bools: Vec<bool> = ops.filter_map(|op| op.locals.boolean(local)).collect();
        ints.sort_unstable();
        ints.dedup();
        bools.sort_unstable();
        bools.dedup();
        if ints.is_empty() && bools.is_empty() {
            return Err(format!(
                "{name}: invariant variable {copy} names no field or plan local"
            ));
        }
        if bindings.len() * (ints.len() + bools.len()) > MAX_BINDINGS {
            return Err(format!(
                "{name}: more than {MAX_BINDINGS} invariant bindings"
            ));
        }
        let mut next = Vec::new();
        for b in &bindings {
            for &i in &ints {
                let mut v = b.clone();
                v.set_int(copy.clone(), i);
                next.push(v);
            }
            for &x in &bools {
                let mut v = b.clone();
                v.set_bool(copy.clone(), x);
                next.push(v);
            }
        }
        bindings = next;
    }
    Ok(bindings)
}

pub struct Saturation {
    targets: Vec<Target>,
    workers: Workers,
    /// Per engine, the geometric mean over monitors of calls per second,
    /// one value per timed pass.
    ops_per_s: [Vec<f64>; 3],
}

pub fn setup() -> Result<Saturation, String> {
    let benchmarks = expresso_suite::all();
    let monitors: Vec<Monitor> = benchmarks.iter().map(|b| b.monitor()).collect();
    // Sequential, so that no pool thread's allocations vary the peak RSS.
    let pipeline = Expresso::with_config(ExpressoConfig {
        parallel_analysis: false,
        analysis_threads: 1,
        ..ExpressoConfig::default()
    });
    let context = SharedAnalysisContext::new(pipeline.config());
    let outcomes = pipeline.analyze_suite(&context, &monitors);
    let mut targets = Vec::new();
    for ((b, monitor), outcome) in benchmarks.iter().zip(monitors).zip(outcomes) {
        let outcome = outcome.map_err(|e| format!("{}: analysis failed: {e}", b.name))?;
        let ctor = (b.ctor_args)(THREADS);
        let plans = (b.plans)(THREADS, OPS_PER_THREAD);
        let initial = build(&monitor, &outcome.explicit, &ctor, Engine::Static)
            .map_err(|e| format!("{}: {e}", b.name))?
            .snapshot();
        let local_bindings = local_bindings(b.name, &outcome.invariant, &initial, &plans)?;
        targets.push(Target {
            name: b.name,
            monitor,
            explicit: outcome.explicit,
            invariant: outcome.invariant,
            local_bindings,
            ctor,
            plans: Arc::new(plans),
        });
    }
    let widest = targets.iter().map(|t| t.plans.len()).max().unwrap_or(0);
    Ok(Saturation {
        targets,
        workers: Workers::new(widest),
        ops_per_s: Default::default(),
    })
}

/// One engine driven through one monitor's plans.
struct Run {
    calls: u64,
    elapsed_s: f64,
    wakeups: usize,
    predicate_evaluations: usize,
    avoided_wakeups: usize,
    elided_notifications: usize,
    /// Per-call latency in ns; recorded only when `timed_calls` is set.
    latency: Histogram,
}

fn build(
    monitor: &Monitor,
    explicit: &ExplicitMonitor,
    ctor: &Valuation,
    engine: Engine,
) -> Result<Box<dyn MonitorRuntime>, String> {
    let built: Result<Box<dyn MonitorRuntime>, _> = match engine {
        Engine::AutoSynch => AutoSynchRuntime::new(monitor.clone(), ctor)
            .map(|r| Box::new(r) as Box<dyn MonitorRuntime>),
        Engine::Static => ExplicitRuntime::with_mode(explicit.clone(), ctor, SignalMode::Static)
            .map(|r| Box::new(r) as Box<dyn MonitorRuntime>),
        Engine::Targeted => {
            ExplicitRuntime::with_mode(explicit.clone(), ctor, SignalMode::Targeted)
                .map(|r| Box::new(r) as Box<dyn MonitorRuntime>)
        }
    };
    built.map_err(|e| format!("{} engine: {e}", engine.label()))
}

/// One thread's share of a run: a plan to call through an engine.
struct Job {
    runtime: Arc<dyn MonitorRuntime>,
    plans: Arc<Vec<ThreadPlan>>,
    plan: usize,
    timed_calls: bool,
}

type JobResult = Result<(u64, Histogram), String>;

/// Long-lived plan threads, one per plan of the widest workload, reused by
/// every run so that no timed run spawns a thread.
struct Workers {
    jobs: Vec<mpsc::Sender<Job>>,
    results: mpsc::Receiver<JobResult>,
    handles: Vec<JoinHandle<()>>,
}

impl Workers {
    fn new(count: usize) -> Self {
        let (result_tx, results) = mpsc::channel();
        let mut jobs = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..count {
            let (job_tx, job_rx) = mpsc::channel::<Job>();
            let result_tx = result_tx.clone();
            jobs.push(job_tx);
            handles.push(std::thread::spawn(move || {
                for job in job_rx {
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| run_plan(&job)))
                        .unwrap_or_else(|_| Err("a monitor call panicked".into()));
                    if result_tx.send(result).is_err() {
                        break;
                    }
                }
            }));
        }
        Workers {
            jobs,
            results,
            handles,
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        // Closing the job channels ends each worker's loop.
        self.jobs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn run_plan(job: &Job) -> JobResult {
    let mut latency = Histogram::new();
    let mut calls = 0u64;
    for op in &job.plans[job.plan] {
        let call_start = job.timed_calls.then(Instant::now);
        job.runtime
            .call(&op.method, &op.locals)
            .map_err(|e| format!("{}: {e}", op.method))?;
        if let Some(call_start) = call_start {
            latency.record(call_start.elapsed().as_nanos() as u64);
        }
        calls += 1;
    }
    Ok((calls, latency))
}

/// Drives `t`'s plans through a fresh engine, one plan per worker, then
/// checks that every call completed and that the quiescent shared state
/// satisfies the invariant inferred in set-up.
fn drive(workers: &Workers, t: &Target, engine: Engine, timed_calls: bool) -> Result<Run, String> {
    let runtime: Arc<dyn MonitorRuntime> = build(&t.monitor, &t.explicit, &t.ctor, engine)
        .map_err(|e| format!("{}: {e}", t.name))?
        .into();
    let start = Instant::now();
    for plan in 0..t.plans.len() {
        let job = Job {
            runtime: Arc::clone(&runtime),
            plans: Arc::clone(&t.plans),
            plan,
            timed_calls,
        };
        workers.jobs[plan]
            .send(job)
            .map_err(|_| "a plan worker exited".to_string())?;
    }
    let threads: Vec<JobResult> = (0..t.plans.len())
        .map(|_| {
            workers
                .results
                .recv()
                .map_err(|_| "a plan worker exited".to_string())?
        })
        .collect();
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut calls = 0;
    let mut latency = Histogram::new();
    for thread in threads {
        let (n, h) = thread.map_err(|e| format!("{} ({}): {e}", t.name, engine.label()))?;
        calls += n;
        latency.merge(&h);
    }
    let planned: usize = t.plans.iter().map(|p| p.len()).sum();
    if calls != planned as u64 {
        return Err(format!(
            "{} ({}): {calls} of {planned} planned calls completed",
            t.name,
            engine.label()
        ));
    }
    let state = runtime.snapshot();
    for binding in &t.local_bindings {
        let mut view = state.clone();
        view.extend_with(binding);
        match view.eval(&t.invariant) {
            Ok(true) => {}
            Ok(false) => {
                return Err(format!(
                    "{} ({}): quiescent state {view:?} violates the invariant {}",
                    t.name,
                    engine.label(),
                    t.invariant
                ))
            }
            Err(e) => {
                return Err(format!(
                    "{} ({}): cannot evaluate the invariant: {e:?}",
                    t.name,
                    engine.label()
                ))
            }
        }
    }
    Ok(Run {
        calls,
        elapsed_s,
        wakeups: runtime.wakeups(),
        predicate_evaluations: runtime.predicate_evaluations(),
        avoided_wakeups: runtime.avoided_wakeups(),
        elided_notifications: runtime.elided_notifications(),
        latency,
    })
}

impl Saturation {
    /// Every monitor through every engine; runs indexed `[monitor][engine]`.
    fn drive_all(&self, timed_calls: bool) -> Result<Vec<[Run; 3]>, String> {
        self.targets
            .iter()
            .map(|t| {
                let _span = expresso_obs::SpanGuard::enter("bench.runtime.monitor");
                let [autosynch, fixed, targeted] =
                    ENGINES.map(|engine| drive(&self.workers, t, engine, timed_calls));
                Ok([autosynch?, fixed?, targeted?])
            })
            .collect()
    }
}

impl Workload for Saturation {
    fn pass(&mut self) -> Result<Pass, String> {
        let start = Instant::now();
        let runs = self.drive_all(false)?;
        let ms = measure::ms_since(start);
        for (e, series) in self.ops_per_s.iter_mut().enumerate() {
            let rates: Vec<f64> = runs
                .iter()
                .map(|r| r[e].calls as f64 / r[e].elapsed_s)
                .collect();
            series.push(measure::geomean(&rates));
        }
        let calls: u64 = runs.iter().flatten().map(|r| r.calls).sum();
        Ok(Pass {
            ms,
            ops: calls,
            failed: 0,
            counts: vec![("calls", calls)],
        })
    }

    fn traced(&mut self, timed_ms: f64) -> Result<Layers, String> {
        let start = Instant::now();
        let (runs, _) = measure::record_spans(|| self.drive_all(true));
        let runs = runs?;
        let wall_ms = measure::ms_since(start);
        let mut layers = Layers::new();
        for (e, engine) in ENGINES.iter().enumerate() {
            let mut latency = Histogram::new();
            let (mut calls, mut wakeups, mut evals) = (0u64, 0usize, 0usize);
            for r in &runs {
                latency.merge(&r[e].latency);
                calls += r[e].calls;
                wakeups += r[e].wakeups;
                evals += r[e].predicate_evaluations;
            }
            let [ops_per_s, p50, p99, wakeups_per_op, evals_per_op] = engine.metrics();
            layers.insert(ops_per_s, (measure::median(&self.ops_per_s[e]), "ops/s"));
            layers.insert(p50, (latency.p50() as f64 / 1e3, "us"));
            layers.insert(p99, (latency.p99() as f64 / 1e3, "us"));
            layers.insert(wakeups_per_op, (wakeups as f64 / calls as f64, "ratio"));
            layers.insert(evals_per_op, (evals as f64 / calls as f64, "ratio"));
        }
        let (mut avoided, mut elided) = (0, 0);
        for [_, _, targeted] in &runs {
            avoided += targeted.avoided_wakeups;
            elided += targeted.elided_notifications;
        }
        let avoided = (avoided as f64, "count");
        layers.insert("runtime.targeted.avoided_wakeups", avoided);
        let elided = (elided as f64, "count");
        layers.insert("runtime.targeted.elided_notifications", elided);
        measure::insert_code_size(&mut layers, self.targets.iter().map(|t| &t.explicit));
        layers.insert("bench.trace_overhead_ms", (wall_ms - timed_ms, "ms"));
        let implicit = layers["runtime.autosynch.ops_per_s"].0;
        let explicit = layers["runtime.static.ops_per_s"].0;
        eprintln!(
            "runtime_saturation: static/autosynch throughput ratio {:.3} (paper: 1.56)",
            explicit / implicit
        );
        Ok(layers)
    }
}
