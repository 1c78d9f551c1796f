//! `explore_conformance`: bounded exhaustive conformance checking. Set-up
//! analyses the six-monitor representative subset; each timed pass refines
//! each monitor's dependence relation with `refine_independence` and runs
//! the Optimal-DPOR conformance check of its bounded workload on the
//! default pool.

use crate::measure::{self, Layers};
use crate::{Pass, Workload};
use expresso_core::{Expresso, Scheduler, SharedAnalysisContext};
use expresso_explore::{
    benchmark_workload, explore, render_trace, ExploreConfig, ExploreReport, RefinedIndependence,
    Workload as ExploreWorkload,
};
use expresso_monitor_lang::{check_monitor, ExplicitMonitor, Monitor, VarTable};
use expresso_vcgen::{refine_independence, DisjointnessStore};
use std::sync::Arc;
use std::time::Instant;

/// The representative subset: one monitor of each synchronisation shape.
const SUBSET: [&str; 6] = [
    "BoundedBuffer",
    "H2OBarrier",
    "RoundRobin",
    "ReadersWriters",
    "AsyncDispatch",
    "BroadcastRing",
];
const THREADS: usize = 3;
const OPS_PER_THREAD: usize = 2;
const PREEMPTION_BOUND: usize = 5;

struct Target {
    name: &'static str,
    monitor: Monitor,
    table: VarTable,
    explicit: ExplicitMonitor,
    workload: ExploreWorkload,
}

pub struct Explore {
    context: SharedAnalysisContext,
    targets: Vec<Target>,
}

pub fn setup() -> Result<Explore, String> {
    let benchmarks: Vec<_> = expresso_suite::all()
        .into_iter()
        .filter(|b| SUBSET.contains(&b.name))
        .collect();
    let monitors: Vec<Monitor> = benchmarks.iter().map(|b| b.monitor()).collect();
    let pipeline = Expresso::new();
    let context = SharedAnalysisContext::new(pipeline.config());
    let outcomes = pipeline.analyze_suite(&context, &monitors);
    let mut targets = Vec::new();
    for ((b, monitor), outcome) in benchmarks.iter().zip(monitors).zip(outcomes) {
        let outcome = outcome.map_err(|e| format!("{}: analysis failed: {e}", b.name))?;
        let table = check_monitor(&monitor).map_err(|e| format!("{}: {e:?}", b.name))?;
        let workload = benchmark_workload(b, &monitor, &table, THREADS, OPS_PER_THREAD)
            .map_err(|e| format!("{}: workload: {e:?}", b.name))?;
        targets.push(Target {
            name: b.name,
            monitor,
            table,
            explicit: outcome.explicit,
            workload,
        });
    }
    Ok(Explore { context, targets })
}

/// One monitor's refinement and exploration, with their outside times.
struct Checked {
    report: Result<ExploreReport, String>,
    refine_ms: f64,
    explore_ms: f64,
}

impl Explore {
    fn check_all(&self) -> Vec<Checked> {
        self.targets
            .iter()
            .map(|t| {
                // A fresh store per pass, so the refinement runs every time
                // (its solver queries are served from the warm solver).
                let store = DisjointnessStore::new();
                let (table, refine_ms) = measure::timed("bench.refine", || {
                    refine_independence(&t.monitor, &t.table, self.context.solver(), &store)
                });
                let stats = store.stats();
                let config = ExploreConfig {
                    preemption_bound: Some(PREEMPTION_BOUND),
                    scheduler: Some(Arc::clone(Scheduler::global())),
                    independence: Some(Arc::new(RefinedIndependence {
                        table,
                        queries: stats.queries,
                        cache_hits: stats.hits,
                    })),
                    ..ExploreConfig::default()
                };
                let (report, explore_ms) = measure::timed("bench.explore", || {
                    explore(&t.monitor, &t.table, &t.explicit, &t.workload, &config)
                });
                Checked {
                    report: report.map_err(|e| format!("{}: {e:?}", t.name)),
                    refine_ms,
                    explore_ms,
                }
            })
            .collect()
    }

    /// Output checks. The operations are the executions checked; a monitor
    /// whose exploration fails has no execution count and counts as one
    /// failed operation.
    fn check(&self, checked: &[Checked], ms: f64) -> Result<Pass, String> {
        let mut executions = 0;
        let mut failed = 0;
        let mut counts = Vec::new();
        for (t, c) in self.targets.iter().zip(checked) {
            let report = match &c.report {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("exploration failed: {e}");
                    failed += 1;
                    continue;
                }
            };
            if let Some(d) = report.divergences.first() {
                return Err(format!(
                    "{}: implicit/explicit divergence ({:?} driver): {}\n{}",
                    t.name,
                    d.driver,
                    d.reason,
                    render_trace(&t.monitor, &d.trace)
                ));
            }
            if report.sleep_set_blocked() > 0 {
                return Err(format!(
                    "{}: {} sleep-set-blocked executions",
                    t.name,
                    report.sleep_set_blocked()
                ));
            }
            executions += report.executions() as u64;
            counts.push(("executions", report.executions() as u64));
            counts.push(("transitions", report.transitions() as u64));
        }
        Ok(Pass {
            ms,
            ops: executions + failed,
            failed,
            counts,
        })
    }
}

impl Workload for Explore {
    fn pass(&mut self) -> Result<Pass, String> {
        let start = Instant::now();
        let checked = self.check_all();
        self.check(&checked, measure::ms_since(start))
    }

    fn traced(&mut self, timed_ms: f64) -> Result<Layers, String> {
        let solver_before = self.context.stats();
        let start = Instant::now();
        let (checked, traces) = measure::record_spans(|| self.check_all());
        let wall_ms = measure::ms_since(start);
        self.check(&checked, wall_ms)?;
        let solver = self.context.stats().delta_since(&solver_before);
        let mut layers = Layers::new();
        let mut sum = |name: &'static str, unit: &'static str, value: f64| {
            layers.entry(name).or_insert((0.0, unit)).0 += value;
        };
        let mut explore_ms = 0.0;
        for c in &checked {
            sum("vcgen.refine_ms", "ms", c.refine_ms);
            explore_ms += c.explore_ms;
            let Ok(r) = &c.report else { continue };
            for d in [&r.implicit, &r.explicit] {
                sum("explore.executions", "count", d.executions as f64);
                sum("explore.transitions", "count", d.transitions as f64);
                sum("explore.dedup_hits", "count", d.dedup_hits as f64);
                sum("explore.sleep_prunes", "count", d.sleep_prunes as f64);
                sum("explore.frontier_roots", "count", d.frontier_roots as f64);
            }
        }
        let executions = layers["explore.executions"].0;
        let transitions = layers["explore.transitions"].0;
        layers.insert(
            "explore.us_per_execution",
            (explore_ms * 1e3 / executions, "us"),
        );
        layers.insert(
            "semantics.transitions_per_s",
            (transitions / (explore_ms / 1e3), "1/s"),
        );
        measure::insert_solver(&mut layers, &solver);
        measure::insert_self_times(&mut layers, &traces);
        layers.insert("bench.trace_overhead_ms", (wall_ms - timed_ms, "ms"));
        Ok(layers)
    }
}
