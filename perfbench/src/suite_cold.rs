//! `suite_cold`: the Table 1 cost. Each timed pass parses all 16 suite
//! monitors and analyses them on the default pool against a fresh
//! `SharedAnalysisContext`, then generates Java for each.
//!
//! Set-up and the traced pass compose the same pipeline sequentially from
//! the layer calls (`parse_monitor` + `check_monitor`,
//! `infer_monitor_invariant_configured`, `place_signals_with`, `to_java`),
//! so each layer is timed from the outside and the solver counters are those
//! of sequential mode. Set-up's composition is the reference the pool passes
//! must reproduce.

use crate::measure::{self, Layers, PoolDeltas};
use crate::{mix, Pass, Workload};
use expresso_abduction::{infer_monitor_invariant_configured, AbductionConfig};
use expresso_core::{
    place_signals_with, to_java, Expresso, ExpressoConfig, PlacementConfig, Scheduler,
    SharedAnalysisContext,
};
use expresso_logic::Formula;
use expresso_monitor_lang::{
    check_monitor, initial_state, parse_monitor, ExplicitMonitor, Monitor, VarTable,
};
use expresso_semantics::{check_equivalence, EquivalenceConfig, ThreadSpec};
use expresso_smt::SolverStats;
use expresso_suite::Benchmark;
use expresso_vcgen::WpCacheStats;
use std::sync::Arc;
use std::time::Instant;

/// Threads and sampled traces of the Definition 3.4 check per monitor.
const EQUIVALENCE_THREADS: usize = 4;
const EQUIVALENCE_SAMPLES: usize = 8;
const EQUIVALENCE_EVENTS: usize = 40;

/// Share of the traced pass's wall time the layer calls may leave
/// unaccounted for.
const UNATTRIBUTED_TOLERANCE: f64 = 0.05;

/// Untraced and traced compositions the tracing overhead is measured over.
const OVERHEAD_PAIRS: usize = 3;

pub struct SuiteCold {
    benchmarks: Vec<Benchmark>,
    /// Set-up's untraced sequential composition.
    reference: Composition,
    pool: PoolDeltas,
}

fn parse(b: &Benchmark) -> Result<Monitor, String> {
    parse_monitor(b.source).map_err(|e| format!("{}: parse: {e}", b.name))
}

fn check(b: &Benchmark, monitor: &Monitor) -> Result<VarTable, String> {
    check_monitor(monitor).map_err(|e| format!("{}: check: {e:?}", b.name))
}

pub fn setup(seed: u64) -> Result<SuiteCold, String> {
    // Start the default pool's workers before anything is timed.
    Scheduler::global();
    let benchmarks = expresso_suite::all();
    let reference = compose(&benchmarks)?;
    let equivalence_seed = mix(seed, 1) % 1_000_000;
    for (b, m) in benchmarks.iter().zip(&reference.monitors) {
        check_reference(b, m, equivalence_seed)?;
    }
    Ok(SuiteCold {
        benchmarks,
        reference,
        pool: PoolDeltas::default(),
    })
}

/// Checks one synthesized monitor against properties that hold of any
/// correct synthesis: it notifies no more than broadcast-all does, its Java
/// is its own class, and sampled traces of it and its implicit source are
/// equivalent (Definition 3.4).
fn check_reference(b: &Benchmark, m: &Composed, seed: u64) -> Result<(), String> {
    let monitor = parse(b)?;
    let table = check(b, &monitor)?;
    let naive = ExplicitMonitor::broadcast_all(monitor.clone()).notification_count();
    if m.explicit.notification_count() > naive {
        return Err(format!(
            "{}: {} notifications, more than the {naive} of broadcast-all",
            b.name,
            m.explicit.notification_count()
        ));
    }
    check_java(&m.explicit, &m.java)?;
    let ctor = (b.ctor_args)(EQUIVALENCE_THREADS);
    let initial = initial_state(&monitor, &table, &ctor)
        .map_err(|e| format!("{}: initial state: {e}", b.name))?;
    let threads: Vec<ThreadSpec> = (b.plans)(EQUIVALENCE_THREADS, 1)
        .iter()
        .filter_map(|plan| plan.first())
        .map(|op| ThreadSpec::with_locals(op.method.clone(), op.locals.clone()))
        .collect();
    let config = EquivalenceConfig {
        samples: EQUIVALENCE_SAMPLES,
        max_events: EQUIVALENCE_EVENTS,
        seed,
    };
    let report = check_equivalence(&monitor, &m.explicit, &table, &initial, &threads, &config)
        .map_err(|e| format!("{}: equivalence check failed to run: {e:?}", b.name))?;
    if report.holds() {
        Ok(())
    } else {
        Err(format!(
            "{}: synthesized monitor is not equivalent to its source: {:?}",
            b.name, report.violations
        ))
    }
}

/// Checks that a generated Java class is the class of `explicit`.
fn check_java(explicit: &ExplicitMonitor, java: &str) -> Result<(), String> {
    let name = &explicit.monitor.name;
    if java.contains(&format!("class {name}")) {
        Ok(())
    } else {
        Err(format!("{name}: generated Java declares no class {name}"))
    }
}

/// One monitor's result of the sequential composition.
struct Composed {
    explicit: ExplicitMonitor,
    invariant: Formula,
    java: String,
}

/// Results, outside times and counters of one sequential composition.
#[derive(Default)]
struct Composition {
    monitors: Vec<Composed>,
    wall_ms: f64,
    parse_check_ms: f64,
    invariant_ms: f64,
    placement_ms: f64,
    codegen_ms: f64,
    candidates: usize,
    kept: usize,
    triples: usize,
    pairs: usize,
    solver: SolverStats,
    wp: WpCacheStats,
    formula_nodes: usize,
}

/// The pipeline composed from its layer calls on one thread, against a
/// fresh sequential context. Spans around each call are recorded when the
/// recorder is on.
fn compose(benchmarks: &[Benchmark]) -> Result<Composition, String> {
    let context = SharedAnalysisContext::new(&ExpressoConfig {
        parallel_analysis: false,
        analysis_threads: 1,
        ..ExpressoConfig::default()
    });
    let solver = context.solver();
    let mut c = Composition::default();
    let start = Instant::now();
    for b in benchmarks {
        let (checked, ms) = measure::timed("bench.parse_check", || {
            parse(b).and_then(|m| check(b, &m).map(|t| (m, t)))
        });
        let (monitor, table) = checked?;
        c.parse_check_ms += ms;
        solver.begin_analysis_epoch();
        let wp_cache = context.wp_store().session();
        let (outcome, ms) = measure::timed("bench.invariant", || {
            let config = AbductionConfig {
                executor: None,
                wp_cache: Some(Arc::clone(&wp_cache)),
                ..AbductionConfig::default()
            };
            infer_monitor_invariant_configured(&monitor, &table, solver, &config)
        });
        c.invariant_ms += ms;
        c.candidates += outcome.candidates;
        c.kept += outcome.kept;
        let ((explicit, report), ms) = measure::timed("bench.placement", || {
            let config = PlacementConfig {
                use_commutativity: ExpressoConfig::default().use_commutativity,
                parallel: false,
                wp_cache: Some(wp_cache),
                scheduler: None,
            };
            place_signals_with(&monitor, &table, solver, &outcome.invariant, &config)
        });
        c.placement_ms += ms;
        c.triples += report.triples_checked;
        c.pairs += report.pairs_considered;
        let (java, ms) = measure::timed("bench.codegen", || to_java(&explicit));
        c.codegen_ms += ms;
        c.monitors.push(Composed {
            explicit,
            invariant: outcome.invariant,
            java,
        });
    }
    c.wall_ms = measure::ms_since(start);
    c.solver = context.stats();
    c.wp = context.wp_stats();
    c.formula_nodes = context.interner_stats().formula_nodes;
    Ok(c)
}

impl Composition {
    /// Counts that any analysis of the suite, sequential or pooled, must
    /// repeat exactly. The solver's SAT, theory and QE call counts and the
    /// WP hit and miss counts are left out: concurrent analyses race on
    /// those memo tables, so they vary between pool passes.
    fn counts(&self) -> Vec<(&'static str, u64)> {
        let notifications = self
            .monitors
            .iter()
            .map(|m| m.explicit.notification_count());
        let broadcasts = self.monitors.iter().map(|m| m.explicit.broadcast_count());
        vec![
            ("triples_checked", self.triples as u64),
            ("pairs_considered", self.pairs as u64),
            ("invariant_candidates", self.candidates as u64),
            ("invariant_conjuncts", self.kept as u64),
            ("notifications", notifications.sum::<usize>() as u64),
            ("broadcasts", broadcasts.sum::<usize>() as u64),
            ("sat_queries", self.solver.sat_queries as u64),
            ("sat_cache_misses", self.solver.cache_misses as u64),
            ("formula_nodes", self.formula_nodes as u64),
        ]
    }

    /// An error naming the first monitor whose result differs from `other`.
    fn same_results(&self, other: &Composition, benchmarks: &[Benchmark]) -> Result<(), String> {
        for ((a, b), bench) in self.monitors.iter().zip(&other.monitors).zip(benchmarks) {
            if a.explicit != b.explicit || a.invariant != b.invariant || a.java != b.java {
                return Err(format!(
                    "{}: two analyses of the suite disagree",
                    bench.name
                ));
            }
        }
        Ok(())
    }
}

impl Workload for SuiteCold {
    fn pass(&mut self) -> Result<Pass, String> {
        let pipeline = Expresso::new();
        let mark = PoolDeltas::mark();
        let start = Instant::now();
        let context = SharedAnalysisContext::new(pipeline.config());
        let monitors = self
            .benchmarks
            .iter()
            .map(parse)
            .collect::<Result<Vec<_>, _>>()?;
        let outcomes = pipeline.analyze_suite(&context, &monitors);
        let java: Vec<Option<String>> = outcomes
            .iter()
            .map(|o| o.as_ref().ok().map(|o| to_java(&o.explicit)))
            .collect();
        let ms = measure::ms_since(start);
        self.pool.push(&mark);

        let mut failed = 0;
        let mut pooled = Composition {
            solver: context.stats(),
            formula_nodes: context.interner_stats().formula_nodes,
            ..Composition::default()
        };
        for (outcome, java) in outcomes.into_iter().zip(java) {
            let (Ok(o), Some(java)) = (outcome, java) else {
                failed += 1;
                continue;
            };
            pooled.triples += o.report.triples_checked;
            pooled.pairs += o.report.pairs_considered;
            pooled.candidates += o.stats.invariant_candidates;
            pooled.kept += o.stats.invariant_conjuncts;
            pooled.monitors.push(Composed {
                explicit: o.explicit,
                invariant: o.invariant,
                java,
            });
        }
        if failed == 0 {
            pooled.same_results(&self.reference, &self.benchmarks)?;
            if pooled.counts() != self.reference.counts() {
                return Err(format!(
                    "the pool pass counted {:?}, the sequential composition {:?}",
                    pooled.counts(),
                    self.reference.counts()
                ));
            }
        }
        Ok(Pass {
            ms,
            ops: monitors.len() as u64,
            failed,
            counts: pooled.counts(),
        })
    }

    /// Alternates untraced and traced sequential compositions; the layer
    /// metrics come from the last traced one, the tracing overhead from the
    /// medians of both.
    fn traced(&mut self, _timed_ms: f64) -> Result<Layers, String> {
        let mut untraced_ms = Vec::new();
        let mut traced_ms = Vec::new();
        let mut last = None;
        for _ in 0..OVERHEAD_PAIRS {
            untraced_ms.push(compose(&self.benchmarks)?.wall_ms);
            let (c, traces) = measure::record_spans(|| compose(&self.benchmarks));
            let c = c?;
            c.same_results(&self.reference, &self.benchmarks)?;
            if c.solver != self.reference.solver {
                return Err(format!(
                    "sequential solver counters changed between passes: {:?} then {:?}",
                    self.reference.solver, c.solver
                ));
            }
            traced_ms.push(c.wall_ms);
            last = Some((c, traces));
        }
        let (c, traces) = last.expect("at least one traced composition");
        let overhead = measure::median(&traced_ms) - measure::median(&untraced_ms);
        let attributed = c.parse_check_ms + c.invariant_ms + c.placement_ms + c.codegen_ms;
        let unattributed = c.wall_ms - attributed;
        if unattributed > UNATTRIBUTED_TOLERANCE * c.wall_ms {
            return Err(format!(
                "the layer calls cover {attributed:.3} of {:.3} ms traced wall time",
                c.wall_ms
            ));
        }
        eprintln!(
            "suite_cold traced: wall {:.3} ms, layers {attributed:.3} ms, unattributed {unattributed:.3} ms; tracing overhead {overhead:.3} ms over the untraced sequential composition",
            c.wall_ms
        );
        let mut layers = Layers::new();
        layers.insert("monitor_lang.parse_check_ms", (c.parse_check_ms, "ms"));
        layers.insert("abduction.invariant_ms", (c.invariant_ms, "ms"));
        layers.insert("abduction.candidates", (c.candidates as f64, "count"));
        layers.insert("abduction.kept", (c.kept as f64, "count"));
        layers.insert("core.placement_ms", (c.placement_ms, "ms"));
        layers.insert("core.codegen_ms", (c.codegen_ms, "ms"));
        layers.insert("core.triples_checked", (c.triples as f64, "count"));
        layers.insert("core.pairs_considered", (c.pairs as f64, "count"));
        self.pool.insert(&mut layers);
        measure::insert_code_size(&mut layers, c.monitors.iter().map(|m| &m.explicit));
        measure::insert_solver(&mut layers, &c.solver);
        measure::insert_wp(&mut layers, &c.wp);
        measure::insert_self_times(&mut layers, &traces);
        layers.insert("logic.formula_nodes", (c.formula_nodes as f64, "count"));
        layers.insert("bench.trace_overhead_ms", (overhead, "ms"));
        layers.insert("bench.unattributed_ms", (unattributed, "ms"));
        Ok(layers)
    }
}
