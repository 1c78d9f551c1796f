//! Statistics, span attribution and the result line shared by every workload.

use expresso_core::{Scheduler, SchedulerStats};
use expresso_monitor_lang::ExplicitMonitor;
use expresso_obs::{RecordKind, SpanGuard, ThreadTrace};
use expresso_smt::SolverStats;
use expresso_vcgen::WpCacheStats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Geometric mean of positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Tasks and steals of the default analysis pool, one value per pass.
#[derive(Default)]
pub struct PoolDeltas {
    tasks: Vec<f64>,
    steals: Vec<f64>,
}

impl PoolDeltas {
    /// The default pool's counters now, for [`PoolDeltas::push`] when the
    /// pass ends.
    pub fn mark() -> SchedulerStats {
        Scheduler::global().stats()
    }

    /// Records what the default pool did since `mark`.
    pub fn push(&mut self, mark: &SchedulerStats) {
        let now = Scheduler::global().stats();
        self.tasks
            .push((now.tasks_executed - mark.tasks_executed) as f64);
        self.steals.push((now.steals - mark.steals) as f64);
    }

    /// The medians over the recorded passes.
    pub fn insert(&self, layers: &mut Layers) {
        layers.insert("core.pool_tasks", (median(&self.tasks), "count"));
        layers.insert("core.pool_steals", (median(&self.steals), "count"));
    }
}

/// Per-layer metrics of one traced pass: name → (value, unit).
pub type Layers = BTreeMap<&'static str, (f64, &'static str)>;

/// Runs `f` inside a recorded span named `name` (a no-op while recording is
/// off) and returns its result with the outside time in milliseconds.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = SpanGuard::enter(name);
    let start = Instant::now();
    let out = f();
    (out, ms_since(start))
}

/// Runs `f` with the span recorder on and returns what it recorded: the
/// benchmark's spans around each layer call plus the program's own spans.
pub fn record_spans<T>(f: impl FnOnce() -> T) -> (T, Vec<ThreadTrace>) {
    drop(expresso_obs::drain());
    expresso_obs::set_enabled(true);
    let out = f();
    expresso_obs::set_enabled(false);
    (out, expresso_obs::drain())
}

/// The solver's counters.
pub fn insert_solver(layers: &mut Layers, s: &SolverStats) {
    layers.insert("smt.sat_queries", (s.sat_queries as f64, "count"));
    layers.insert("smt.cache_misses", (s.cache_misses as f64, "count"));
    layers.insert("smt.sat_solver_calls", (s.sat_solver_calls as f64, "count"));
    layers.insert("smt.theory_checks", (s.theory_checks as f64, "count"));
    let qe = s.quantifier_eliminations as f64;
    layers.insert("smt.quantifier_eliminations", (qe, "count"));
    layers.insert(
        "smt.fm_fast_conflicts",
        (s.fm_fast_conflicts as f64, "count"),
    );
    layers.insert("smt.cache_hit_ratio", (s.cache_hit_rate(), "ratio"));
    layers.insert("smt.disk_hits", (s.disk_hits as f64, "count"));
}

/// The weakest-precondition store's counters.
pub fn insert_wp(layers: &mut Layers, s: &WpCacheStats) {
    layers.insert("vcgen.wp_hits", (s.hits as f64, "count"));
    layers.insert("vcgen.wp_misses", (s.misses as f64, "count"));
    layers.insert("vcgen.wp_disk_hits", (s.disk_hits as f64, "count"));
}

/// The size of the generated code: notifications and broadcasts.
pub fn insert_code_size<'a>(
    layers: &mut Layers,
    explicit: impl Iterator<Item = &'a ExplicitMonitor>,
) {
    let (mut notifications, mut broadcasts) = (0, 0);
    for e in explicit {
        notifications += e.notification_count();
        broadcasts += e.broadcast_count();
    }
    layers.insert("core.notifications", (notifications as f64, "count"));
    layers.insert("core.broadcasts", (broadcasts as f64, "count"));
}

/// Self time of the program's solver and weakest-precondition spans.
pub fn insert_self_times(layers: &mut Layers, traces: &[ThreadTrace]) {
    let totals = self_times(traces);
    let self_ms = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    layers.insert("smt.sat_self_ms", (self_ms("smt.sat"), "ms"));
    layers.insert("smt.theory_self_ms", (self_ms("smt.theory"), "ms"));
    layers.insert("smt.qe_self_ms", (self_ms("smt.qe"), "ms"));
    layers.insert("vcgen.wp_self_ms", (self_ms("vcgen.wp"), "ms"));
}

/// Self time in ms of drained spans, summed by span name. A span's self
/// time is its duration minus the part of it covered by the spans nested
/// directly inside it on the same thread.
pub fn self_times(traces: &[ThreadTrace]) -> BTreeMap<&'static str, f64> {
    let mut totals = BTreeMap::new();
    for trace in traces {
        let mut spans: Vec<(u64, u64, &'static str)> = trace
            .records
            .iter()
            .filter(|r| r.kind == RecordKind::Span)
            .map(|r| (r.start_ns, r.end_ns, r.name))
            .collect();
        // Parents first: earlier start, and on a tie the longer span.
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut open: Vec<OpenSpan> = Vec::new();
        for (start, end, name) in spans {
            while open.last().is_some_and(|top| top.end <= start) {
                let top = open.pop().expect("checked non-empty");
                top.close(&mut totals);
            }
            if let Some(parent) = open.last_mut() {
                parent.covered += end.min(parent.end) - start;
            }
            open.push(OpenSpan {
                name,
                start,
                end,
                covered: 0,
            });
        }
        while let Some(top) = open.pop() {
            top.close(&mut totals);
        }
    }
    totals
}

/// A span whose nested children are still being collected.
struct OpenSpan {
    name: &'static str,
    start: u64,
    end: u64,
    /// Nanoseconds covered by direct children.
    covered: u64,
}

impl OpenSpan {
    fn close(self, totals: &mut BTreeMap<&'static str, f64>) {
        let self_ns = (self.end - self.start).saturating_sub(self.covered);
        *totals.entry(self.name).or_default() += self_ns as f64 / 1e6;
    }
}

/// Renders the result line of a run whose checks all passed: one JSON
/// object with the run's accounting and every metric with its unit. Values
/// keep all their digits.
pub fn result_json(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not a finite number");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_obs::SpanRecord;

    fn span(name: &'static str, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            detail: None,
            start_ns,
            end_ns,
            kind: RecordKind::Span,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let trace = ThreadTrace {
            tid: 1,
            thread_name: "main".into(),
            records: vec![
                span("leaf", 2_000_000, 3_000_000),
                span("mid", 1_000_000, 5_000_000),
                span("root", 0, 10_000_000),
                span("sibling", 6_000_000, 7_000_000),
            ],
        };
        let totals = self_times(&[trace]);
        assert_eq!(totals["root"], 5.0);
        assert_eq!(totals["mid"], 3.0);
        assert_eq!(totals["leaf"], 1.0);
        assert_eq!(totals["sibling"], 1.0);
    }

    #[test]
    fn statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
