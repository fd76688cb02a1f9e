//! The metric catalogue and the report printer. The names and units here
//! are the ones BENCHMARK.json declares (a unit test checks the two agree).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// For a per-layer metric: the end-to-end metric it should move, and on
    /// which workload (BENCHMARK.json has no field for it).
    pub moves: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        moves: "",
    }
}

const fn l(name: &'static str, unit: &'static str, moves: &'static str) -> Metric {
    Metric { name, unit, moves }
}

/// End-to-end metrics, measured with tracing off, on every workload.
/// `stored_mb` is the newest index's `disk_bytes()` at the end of the run
/// and `rss_peak_mb` the process's peak; on churn both are the serving
/// process's, so they include the window's inserts.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("query_mean_us", "us"),
    m("query_p99_us", "us"),
    m("query_qps", "1/s"),
    m("rss_peak_mb", "MiB"),
    m("stored_mb", "MiB"),
];

/// End-to-end metrics printed with the report but left out of the final
/// JSON line, whose metrics must exist on every workload and never read 0:
/// the commit and recovery metrics exist on churn only, and the failure
/// shares read 0 on a healthy run (`attempted`/`failed` carry them).
/// `query_p50_us` is printed but not gated: on uniform3d and churn about
/// half the queries see a single Step-2 candidate and finish within a few
/// microseconds of each other, so the median sits on the edge of that mode
/// (p48 to p52 spans 22 to 28 us) and jumps by a quarter between runs of
/// the same code; `query_mean_us` carries the typical latency instead.
pub const REPORT_ONLY: &[Metric] = &[
    m("query_p50_us", "us"),
    m("commit_p50_ms", "ms"),
    m("commit_p99_ms", "ms"),
    m("commit_failed_share", "ratio"),
    m("recovery_s", "s"),
    m("failed_share", "ratio"),
];

const STEP1: &str =
    "query_mean_us on uniform3d and churn; records per query rise with churn's octree growth";
const FETCH: &str = "query_mean_us, query_qps on uniform3d and rrlines2d";
const SWEEP: &str = "query_mean_us, query_p99_us on rrlines2d (about 11 candidates) and uniform3d";
const COMMIT: &str = "commit_p50_ms, commit_p99_ms on churn";
const SHAPE: &str =
    "stored_mb, rss_peak_mb on churn (end-of-run value; after-setup value in the notes)";
const PUBLISH: &str = "commit_p50_ms on churn";
const RECOVERY: &str = "recovery_s on churn";

/// Per-layer metrics of the traced run. Time metrics are means per
/// operation (query, commit or recovery), so a query's layer self times add
/// up to its traced latency; a layer the workload never calls reads 0.
pub const PER_LAYER: &[Metric] = &[
    l(
        "se.build_cpu_s",
        "s",
        "setup_s: large on uniform3d and churn, small on rrlines2d",
    ),
    l("index.bulk_load_s", "s", "setup_s on every workload"),
    l("index.step1_ns", "ns", STEP1),
    l("octree.records", "count", STEP1),
    l("octree.pages", "count", STEP1),
    l("octree.keep_ratio", "ratio", STEP1),
    l("index.fetch_ns", "ns", FETCH),
    l("index.payloads", "count", FETCH),
    l(
        "uncertain.stream_ns",
        "ns",
        "as index.fetch_ns; fetch minus stream is the exthash copy",
    ),
    l("prob.sweep_ns", "ns", SWEEP),
    l("prob.worlds", "count", SWEEP),
    l(
        "query.driver_ns",
        "ns",
        "query_mean_us on rrlines2d (per-candidate sort, early termination)",
    ),
    l(
        "query.skipped_ratio",
        "ratio",
        "query_mean_us on rrlines2d (early termination)",
    ),
    l("durable.commit_ns", "ns", COMMIT),
    l("durable.wait_ms", "ms", COMMIT),
    l("index.apply_ns", "ns", COMMIT),
    l("index.affected", "count", COMMIT),
    l("se.update_ns", "ns", COMMIT),
    l(
        "index.maint_ns",
        "ns",
        "commit metrics, rss_peak_mb, stored_mb on churn",
    ),
    l("index.stale_backlog", "count", SHAPE),
    l("octree.leaf_nodes", "count", SHAPE),
    l("octree.leaf_records", "count", SHAPE),
    l("octree.depth", "count", SHAPE),
    l("pager.pages", "count", SHAPE),
    l(
        "pager.cow_copies",
        "count",
        "commit_p50_ms, rss_peak_mb on churn",
    ),
    l("durable.overhead_ns", "ns", PUBLISH),
    l("db.fork_ns", "ns", PUBLISH),
    l("wal.append_ns", "ns", PUBLISH),
    l("wal.sync_ns", "ns", PUBLISH),
    l("wal.bytes", "bytes", PUBLISH),
    l("snapshot.load_ns", "ns", RECOVERY),
    l("recovery.replay_ns", "ns", RECOVERY),
    l("recovery.replayed_commits", "count", RECOVERY),
];

/// A measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// The value.
    pub value: f64,
    /// Samples it summarises.
    pub n: u64,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end values (tracing off), including the report-only ones.
    pub e2e: BTreeMap<&'static str, Value>,
    /// The same end-to-end values measured in the traced phase.
    pub e2e_traced: BTreeMap<&'static str, Value>,
    /// Per-layer values (traced phase).
    pub layers: BTreeMap<&'static str, Value>,
    /// Free-form context lines.
    pub notes: Vec<String>,
    /// Operations attempted: queries, commits due, oracle checks, recovery.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// False when any output disagreed with the oracle, or a traced replay
    /// or span accounting check failed.
    pub correct: bool,
}

impl Report {
    /// Prints the human-readable table, then the JSON result as the last
    /// line: the end-to-end metrics when `trace` is off, the per-layer ones
    /// when it is on.
    pub fn print(&self, trace: bool) {
        let mut text = String::new();
        for m in END_TO_END.iter().chain(REPORT_ONLY) {
            if let Some(v) = self.e2e.get(m.name) {
                let _ = writeln!(
                    text,
                    "e2e   {:<22} {:>16.4} {:<6} n={}",
                    m.name, v.value, m.unit, v.n
                );
            }
        }
        if trace {
            for m in END_TO_END.iter().chain(REPORT_ONLY) {
                if let (Some(a), Some(b)) = (self.e2e.get(m.name), self.e2e_traced.get(m.name)) {
                    let _ = writeln!(
                        text,
                        "trace-overhead {:<22} {:>+16.4} {:<6} (traced {:.4} - untraced {:.4})",
                        m.name,
                        b.value - a.value,
                        m.unit,
                        b.value,
                        a.value
                    );
                }
            }
            for m in PER_LAYER {
                let v = self
                    .layers
                    .get(m.name)
                    .copied()
                    .unwrap_or(Value { value: 0.0, n: 0 });
                let _ = writeln!(
                    text,
                    "layer {:<26} {:>16.4} {:<6} n={:<8} moves {}",
                    m.name, v.value, m.unit, v.n, m.moves
                );
            }
        }
        for n in &self.notes {
            let _ = writeln!(text, "note  {n}");
        }
        let _ = writeln!(
            text,
            "ops   attempted={} failed={} correct={}",
            self.attempted, self.failed, self.correct
        );
        print!("{text}");

        let (list, values) = if trace {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.e2e)
        };
        let metrics: Vec<String> = list
            .iter()
            .map(|m| {
                // Every end-to-end metric is measured on every workload; a
                // per-layer metric is absent only when the workload never
                // calls that layer, and then reads 0.
                let v = match values.get(m.name) {
                    Some(v) => v.value,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {} was not measured", m.name),
                };
                assert!(v.is_finite(), "{} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
