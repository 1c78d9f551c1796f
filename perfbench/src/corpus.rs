//! `corpus_incremental`: a developer edits one monitor of a 500-monitor
//! corpus. Set-up analyses the seeded corpus cold and saves its artifact.
//! Each timed pass builds a fresh context warm-started from that artifact,
//! re-analyses the corpus with one monitor edited, and saves to a directory
//! of its own, so every pass starts from the same artifact.

use crate::measure::{self, Layers, PoolDeltas};
use crate::{mix, Pass, Workload};
use expresso_core::{AnalysisOutcome, Expresso, ExpressoConfig, SharedAnalysisContext};
use expresso_monitor_lang::{parse_monitor, Monitor};
use expresso_suite::{generate, mutate_source, CorpusSpec};
use std::path::{Path, PathBuf};
use std::time::Instant;

const CORPUS_SIZE: usize = 500;

/// The edited monitor is always a variant of this suite template (index
/// into `expresso_suite::all()`), so the cost of re-analysing it does not
/// swing with the seed; the seed picks which variant.
const EDITED_TEMPLATE: usize = 0;

pub struct Corpus {
    base: PathBuf,
    pass_dir: PathBuf,
    /// The corpus with one monitor edited.
    monitors: Vec<Monitor>,
    edited: usize,
    /// Set-up's cold outcome of every monitor of the unedited corpus.
    cold: Vec<AnalysisOutcome>,
    /// A cold analysis of the edited monitor alone, in a private context.
    edited_alone: AnalysisOutcome,
    pool: PoolDeltas,
}

fn config(cache_dir: &Path) -> ExpressoConfig {
    ExpressoConfig {
        cache_dir: Some(cache_dir.to_path_buf()),
        ..ExpressoConfig::default()
    }
}

fn analysed(
    outcomes: Vec<Result<AnalysisOutcome, expresso_core::ExpressoError>>,
) -> Result<Vec<AnalysisOutcome>, String> {
    outcomes
        .into_iter()
        .enumerate()
        .map(|(i, o)| o.map_err(|e| format!("corpus monitor {i} failed analysis: {e}")))
        .collect()
}

pub fn setup(seed: u64, work: &Path) -> Result<Corpus, String> {
    let spec = CorpusSpec {
        size: CORPUS_SIZE,
        seed: mix(seed, 2),
    };
    let corpus = generate(&spec);
    let mut monitors: Vec<Monitor> = corpus.iter().map(|v| v.monitor()).collect();
    let templates = expresso_suite::all().len();
    let edited =
        EDITED_TEMPLATE + templates * (mix(seed, 3) % (CORPUS_SIZE / templates) as u64) as usize;

    let base = work.join("base");
    let _ = std::fs::remove_dir_all(&base);
    let config = config(&base);
    let context = SharedAnalysisContext::new(&config);
    if context.warm_start().is_some() {
        return Err("set-up found an artifact before its cold analysis".into());
    }
    let cold = analysed(Expresso::with_config(config).analyze_suite(&context, &monitors))?;
    context
        .persist()
        .map_err(|e| format!("saving the cold artifact: {e}"))?
        .ok_or("no cache directory in effect")?;
    drop(context);

    let edited_source = mutate_source(&corpus[edited].source);
    monitors[edited] =
        parse_monitor(&edited_source).map_err(|e| format!("edited monitor does not parse: {e}"))?;
    let edited_alone = Expresso::new()
        .analyze(&monitors[edited])
        .map_err(|e| format!("edited monitor failed analysis: {e}"))?;
    Ok(Corpus {
        base,
        pass_dir: work.join("pass"),
        monitors,
        edited,
        cold,
        edited_alone,
        pool: PoolDeltas::default(),
    })
}

fn same_outcome(a: &AnalysisOutcome, b: &AnalysisOutcome) -> bool {
    a.explicit == b.explicit
        && a.invariant == b.invariant
        && a.report.decisions == b.report.decisions
        && a.report.triples_checked == b.report.triples_checked
        && a.report.pairs_considered == b.report.pairs_considered
        && a.report.skipped == b.report.skipped
}

/// What one incremental pass produced, with its outside times.
struct Incremental {
    outcomes: Vec<Result<AnalysisOutcome, expresso_core::ExpressoError>>,
    load_ms: f64,
    analysis_ms: f64,
    save_ms: f64,
    wall_ms: f64,
    seeded: usize,
    artifact_bytes: u64,
    solver: expresso_smt::SolverStats,
    wp: expresso_vcgen::WpCacheStats,
    formula_nodes: usize,
}

impl Corpus {
    fn incremental(&self) -> Result<Incremental, String> {
        let start = Instant::now();
        let (context, load_ms) = measure::timed("bench.persist.load", || {
            SharedAnalysisContext::new(&config(&self.base))
        });
        let pipeline = Expresso::with_config(config(&self.base));
        let (outcomes, analysis_ms) = measure::timed("bench.warm_analysis", || {
            pipeline.analyze_suite(&context, &self.monitors)
        });
        // `SharedAnalysisContext::persist` writes to the directory it loaded
        // from; the pass saves through the same call into its own directory.
        let (saved, save_ms) = measure::timed("bench.persist.save", || {
            expresso_persist::save(
                &self.pass_dir,
                context.solver(),
                context.wp_store(),
                context.disjointness(),
            )
        });
        let saved = saved.map_err(|e| format!("saving the pass artifact: {e}"))?;
        let seeded = context
            .warm_start()
            .ok_or("the pass did not load the set-up artifact")?
            .total();
        let solver = context.stats();
        let wp = context.wp_stats();
        let formula_nodes = context.interner_stats().formula_nodes;
        drop(context);
        let wall_ms = measure::ms_since(start);
        std::fs::remove_dir_all(&self.pass_dir)
            .map_err(|e| format!("removing {}: {e}", self.pass_dir.display()))?;
        Ok(Incremental {
            outcomes,
            load_ms,
            analysis_ms,
            save_ms,
            wall_ms,
            seeded,
            artifact_bytes: saved.bytes,
            solver,
            wp,
            formula_nodes,
        })
    }

    /// The pass's output checks.
    fn check(&self, inc: &Incremental) -> Result<Pass, String> {
        let mut failed = 0;
        let mut recomputed = Vec::new();
        for (i, outcome) in inc.outcomes.iter().enumerate() {
            let Ok(o) = outcome else {
                failed += 1;
                continue;
            };
            let expected = if i == self.edited {
                &self.edited_alone
            } else {
                &self.cold[i]
            };
            if !same_outcome(o, expected) {
                return Err(format!(
                    "corpus monitor {i}{}: warm outcome differs from its cold analysis",
                    if i == self.edited { " (edited)" } else { "" }
                ));
            }
            if o.stats.wp_cache.misses > 0 {
                recomputed.push(i);
            }
        }
        if recomputed != [self.edited] {
            return Err(format!(
                "monitors {recomputed:?} recomputed a weakest precondition; only the edited monitor {} may",
                self.edited
            ));
        }
        if inc.wp.disk_hits < CORPUS_SIZE || inc.solver.disk_hits < CORPUS_SIZE {
            return Err(format!(
                "only {} WP and {} solver hits were served from disk for {CORPUS_SIZE} monitors",
                inc.wp.disk_hits, inc.solver.disk_hits
            ));
        }
        Ok(Pass {
            ms: inc.wall_ms,
            ops: inc.outcomes.len() as u64,
            failed,
            counts: vec![
                ("seeded_entries", inc.seeded as u64),
                ("sat_queries", inc.solver.sat_queries as u64),
                ("sat_cache_misses", inc.solver.cache_misses as u64),
                ("sat_disk_hits", inc.solver.disk_hits as u64),
                ("wp_disk_hits", inc.wp.disk_hits as u64),
                ("formula_nodes", inc.formula_nodes as u64),
            ],
        })
    }
}

impl Workload for Corpus {
    fn pass(&mut self) -> Result<Pass, String> {
        let mark = PoolDeltas::mark();
        let inc = self.incremental()?;
        self.pool.push(&mark);
        self.check(&inc)
    }

    fn traced(&mut self, timed_ms: f64) -> Result<Layers, String> {
        let (inc, traces) = measure::record_spans(|| self.incremental());
        let inc = inc?;
        self.check(&inc)?;
        let outcomes: Vec<&AnalysisOutcome> = inc
            .outcomes
            .iter()
            .filter_map(|o| o.as_ref().ok())
            .collect();
        let sum = |f: fn(&AnalysisOutcome) -> f64| outcomes.iter().map(|o| f(o)).sum::<f64>();
        let mut layers = Layers::new();
        layers.insert("persist.load_ms", (inc.load_ms, "ms"));
        layers.insert("core.warm_analysis_ms", (inc.analysis_ms, "ms"));
        layers.insert("persist.save_ms", (inc.save_ms, "ms"));
        layers.insert(
            "persist.artifact_bytes",
            (inc.artifact_bytes as f64, "bytes"),
        );
        layers.insert("persist.seeded_entries", (inc.seeded as f64, "count"));
        // Inside `analyze_suite` the layer calls run on pool tasks; these are
        // the program's own timings around them, summed over monitors.
        layers.insert(
            "abduction.invariant_ms",
            (sum(|o| o.stats.invariant_time.as_secs_f64() * 1e3), "ms"),
        );
        layers.insert(
            "core.placement_ms",
            (sum(|o| o.stats.placement_time.as_secs_f64() * 1e3), "ms"),
        );
        layers.insert(
            "abduction.candidates",
            (sum(|o| o.stats.invariant_candidates as f64), "count"),
        );
        layers.insert(
            "abduction.kept",
            (sum(|o| o.stats.invariant_conjuncts as f64), "count"),
        );
        layers.insert(
            "core.triples_checked",
            (sum(|o| o.report.triples_checked as f64), "count"),
        );
        layers.insert(
            "core.pairs_considered",
            (sum(|o| o.report.pairs_considered as f64), "count"),
        );
        self.pool.insert(&mut layers);
        measure::insert_solver(&mut layers, &inc.solver);
        measure::insert_wp(&mut layers, &inc.wp);
        measure::insert_self_times(&mut layers, &traces);
        layers.insert("logic.formula_nodes", (inc.formula_nodes as f64, "count"));
        layers.insert("bench.trace_overhead_ms", (inc.wall_ms - timed_ms, "ms"));
        Ok(layers)
    }
}
