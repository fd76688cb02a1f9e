//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <uniform3d|rrlines2d|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then one JSON line with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). A traced
//! run first repeats the untraced measurement, so it also reports the
//! tracing overhead. BENCHMARK.json at the repository root lists the
//! workloads (and why each was chosen) and the metrics; `metrics.rs` says
//! which end-to-end metric each per-layer metric should move.

mod churn;
mod metrics;
mod read;
mod stats;
mod sys;
mod trace;
mod workload;

use metrics::{Report, Value};
use pv_core::verify::LinearScan;
use pv_core::PvIndex;
use pv_uncertain::UncertainDb;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};
use workload::{Kind, QueryStream};

/// Set-ups per run: at least this many, then more until [`SETUP_BUDGET`]
/// is spent; `setup_s` is their median. A light build (rrlines2d's takes
/// ~0.3 s) thus gets a dozen samples, so one burst of host interference
/// moves one sample rather than the median; a heavy one (uniform3d's takes
/// 2–4 s) gets two, which leaves the run's time to the measured window.
pub const SETUP_MIN_REPS: usize = 2;
/// Wall time the set-ups of a run fill before they stop.
pub const SETUP_BUDGET: f64 = 4.0;
/// Upper limit on set-ups per run.
pub const SETUP_MAX_REPS: usize = 20;
/// Issued queries the oracle re-checks against LinearScan.
pub const ORACLE_QUERIES: usize = 100;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// The workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Measurement window.
    pub window: Duration,
    /// Traced run.
    pub trace: bool,
    /// Internal: the role of a churn child process.
    pub role: Option<String>,
    /// Internal: role-specific options.
    pub extra: BTreeMap<String, String>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let mut take = |k: &str| kv.remove(k).ok_or_else(|| format!("missing --{k}"));
    let kind = take("workload")?;
    let kind = Kind::parse(&kind).ok_or_else(|| format!("unknown workload {kind:?}"))?;
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    let role = kv.remove("role");
    if role.is_none() {
        if let Some(k) = kv.keys().next() {
            return Err(format!("unknown option --{k}"));
        }
    }
    Ok(Args {
        kind,
        seed,
        window: Duration::from_secs(seconds),
        trace,
        role,
        extra: kv,
    })
}

/// Where runs write span dumps and churn's database directories.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Median; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// True while a run should time another set-up, given the wall times (s)
/// of those done so far.
pub fn more_setups(times: &[f64]) -> bool {
    times.len() < SETUP_MIN_REPS
        || (times.len() < SETUP_MAX_REPS && times.iter().sum::<f64>() < SETUP_BUDGET)
}

/// Builds the index until [`more_setups`] says stop and keeps the last;
/// returns each build's wall time in seconds.
pub fn timed_builds(data: &UncertainDb) -> (PvIndex, Vec<f64>) {
    let mut times = Vec::new();
    let mut index = None;
    while more_setups(&times) {
        drop(index.take());
        let t0 = Instant::now();
        let built = PvIndex::build(data, workload::params());
        times.push(t0.elapsed().as_secs_f64());
        index = Some(built);
    }
    (index.expect("at least one build"), times)
}

fn v(value: f64, n: u64) -> Value {
    Value { value, n }
}

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Query-side end-to-end metrics from one reader's log: means over its
/// slices of each slice's mean, p50, p99 and throughput.
pub fn query_metrics(out: &mut BTreeMap<&'static str, Value>, log: &read::QueryLog) {
    let n = log.attempted();
    let over = |f: &dyn Fn(&read::Slice) -> f64| {
        log.slices.iter().map(f).sum::<f64>() / log.slices.len().max(1) as f64
    };
    out.insert("query_mean_us", v(over(&|s| s.mean.as_secs_f64() * 1e6), n));
    out.insert("query_p50_us", v(over(&|s| s.p50.as_secs_f64() * 1e6), n));
    out.insert("query_p99_us", v(over(&|s| s.p99.as_secs_f64() * 1e6), n));
    out.insert("query_qps", v(over(&|s| s.qps), log.completed));
}

/// The per-slice figures behind the medians, for judging a run's own
/// steadiness.
pub fn slice_note(log: &read::QueryLog) -> String {
    let list =
        |f: &dyn Fn(&read::Slice) -> String| log.slices.iter().map(f).collect::<Vec<_>>().join(" ");
    format!(
        "slices: mean_us [{}] p50_us [{}] qps [{}]",
        list(&|s| format!("{:.1}", s.mean.as_secs_f64() * 1e6)),
        list(&|s| format!("{:.1}", s.p50.as_secs_f64() * 1e6)),
        list(&|s| format!("{:.0}", s.qps))
    )
}

/// Index-shape per-layer metrics.
pub fn shape_metrics(out: &mut BTreeMap<&'static str, Value>, index: &PvIndex) {
    let t = index.octree_stats();
    out.insert(
        "index.stale_backlog",
        v(index.maintenance_backlog() as f64, 1),
    );
    out.insert("octree.leaf_nodes", v(t.leaf_nodes as f64, 1));
    out.insert("octree.leaf_records", v(t.leaf_records as f64, 1));
    out.insert("octree.depth", v(t.depth as f64, 1));
    out.insert("pager.pages", v(index.pager().live_pages() as f64, 1));
}

/// Build-phase per-layer metrics from the timed build's own statistics.
pub fn build_metrics(out: &mut BTreeMap<&'static str, Value>, index: &PvIndex) {
    let b = index.build_stats();
    let se = (b.se.cset_time + b.se.refine_time).as_secs_f64();
    out.insert("se.build_cpu_s", v(se, b.ubr_count as u64));
    out.insert("index.bulk_load_s", v(b.insert_time.as_secs_f64(), 1));
}

/// Read-side per-layer metrics: means per traced query.
pub fn query_layer_metrics(out: &mut BTreeMap<&'static str, Value>, a: &read::QueryLayers) {
    let n = a.queries;
    let per = |x: u64| x as f64 / n.max(1) as f64;
    let ratio = |x: u64, y: u64| if y == 0 { 0.0 } else { x as f64 / y as f64 };
    let driver = a.execute_ns as f64 - (a.step1_ns + a.fetch_ns + a.sweep_ns) as f64;
    out.insert("index.step1_ns", v(per(a.step1_ns), n));
    out.insert("octree.records", v(per(a.records), n));
    out.insert("octree.pages", v(per(a.pages), n));
    out.insert("octree.keep_ratio", v(ratio(a.survivors, a.records), n));
    out.insert("index.fetch_ns", v(per(a.fetch_ns), n));
    out.insert("index.payloads", v(per(a.payloads), n));
    out.insert("uncertain.stream_ns", v(per(a.stream_ns), n));
    out.insert("prob.sweep_ns", v(per(a.sweep_ns), n));
    out.insert("prob.worlds", v(per(a.worlds), n));
    out.insert("query.driver_ns", v(driver / n.max(1) as f64, n));
    out.insert("query.skipped_ratio", v(ratio(a.skipped, a.survivors), n));
}

fn run_reads(args: &Args) -> Report {
    let kind = args.kind;
    let spec = kind.spec();
    let data = workload::dataset(kind);
    let mut rep = Report {
        correct: true,
        ..Report::default()
    };
    let never = AtomicBool::new(false);

    let (engine, setups) = timed_builds(&data);
    read::warm_up(&engine, &spec, &data.domain, args.seed);
    let mut stream = QueryStream::new(&data.domain, args.seed);
    let (mut scratch, mut out) = Default::default();
    let log = read::closed_loop(args.window, &never, &mut stream, |q| {
        read::timed_query(&engine, q, &spec, &mut scratch, &mut out)
    });
    rep.e2e.insert("rss_peak_mb", v(sys::peak_rss_mib(), 1));
    rep.e2e
        .insert("setup_s", v(median(&setups), setups.len() as u64));
    query_metrics(&mut rep.e2e, &log);
    rep.notes.push(slice_note(&log));
    rep.e2e
        .insert("stored_mb", v(engine.pager().disk_bytes() as f64 / MIB, 1));

    // Oracle, outside the timed window.
    let points = read::sampled_points(&data.domain, args.seed, log.attempted(), ORACLE_QUERIES);
    let truth = LinearScan::new(&data);
    let oracle = read::oracle_check(&engine, &truth, &spec, &points);
    drop(truth);
    rep.attempted = log.attempted() + oracle.checked;
    rep.failed = log.failed + oracle.mismatches;
    rep.correct &= oracle.mismatches == 0;
    rep.e2e.insert(
        "failed_share",
        v(stats::share(rep.failed, rep.attempted), rep.attempted),
    );
    rep.notes.push(format!(
        "oracle: {} sampled queries vs LinearScan, {} mismatches",
        oracle.checked, oracle.mismatches
    ));

    if args.trace {
        shape_metrics(&mut rep.layers, &engine);
        drop(engine);
        let t0 = Instant::now();
        let engine = PvIndex::build(&data, workload::params());
        let setup = t0.elapsed().as_secs_f64();
        build_metrics(&mut rep.layers, &engine);
        read::warm_up(&engine, &spec, &data.domain, args.seed);
        let mut tracer = trace::Tracer::new();
        let mut acc = read::QueryLayers::default();
        let mut rb = read::Replay::default();
        let mut stream = QueryStream::new(&data.domain, args.seed);
        let log = read::closed_loop(args.window, &never, &mut stream, |q| {
            read::traced_query(&engine, q, &spec, &mut rb, &mut tracer, &mut acc)
        });
        rep.e2e_traced
            .insert("rss_peak_mb", v(sys::peak_rss_mib(), 1));
        rep.e2e_traced.insert("setup_s", v(setup, 1));
        query_metrics(&mut rep.e2e_traced, &log);
        rep.notes.push(format!("traced {}", slice_note(&log)));
        rep.e2e_traced
            .insert("stored_mb", v(engine.pager().disk_bytes() as f64 / MIB, 1));
        query_layer_metrics(&mut rep.layers, &acc);
        let db_fork_ns = fork_ns(&engine);
        rep.layers.insert("db.fork_ns", v(db_fork_ns, 1));
        finish_trace(&mut rep, args, &tracer, acc.replay_mismatches);
    }
    rep
}

/// Times `WritableEngine::fork` of `engine` (median of five).
pub fn fork_ns(engine: &PvIndex) -> f64 {
    use pv_core::WritableEngine;
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let f = std::hint::black_box(engine.fork());
            let ns = t0.elapsed().as_nanos() as f64;
            drop(f);
            ns
        })
        .collect();
    median(&times)
}

/// Records the traced phase's self-checks and writes the spans out.
pub fn finish_trace(rep: &mut Report, args: &Args, tracer: &trace::Tracer, replay_mismatches: u64) {
    rep.correct &= replay_mismatches == 0 && tracer.accounting_errors == 0;
    rep.notes.push(format!(
        "trace: {} requests, {} replays differing from execute_into, {} span trees whose self times miss the root",
        tracer.requests, replay_mismatches, tracer.accounting_errors
    ));
    let path = out_dir().join(format!("trace-{}-{}.jsonl", args.kind.name(), args.seed));
    match tracer.write_out(&path) {
        Ok(()) => rep
            .notes
            .push(format!("trace: spans written to {}", path.display())),
        Err(e) => rep.notes.push(format!("trace: could not write spans: {e}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <uniform3d|rrlines2d|churn> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match (args.role.as_deref(), args.kind) {
        (None, Kind::Uniform3d | Kind::Rrlines2d) => {
            run_reads(&args).print(args.trace);
            ExitCode::SUCCESS
        }
        (None, Kind::Churn) => match churn::coordinate(&args) {
            Ok(rep) => {
                rep.print(args.trace);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: churn run failed: {e}");
                ExitCode::FAILURE
            }
        },
        (Some("serve"), Kind::Churn) => churn::serve_child(&args),
        (Some("recover"), Kind::Churn) => churn::recover_child(&args),
        (Some(role), _) => {
            eprintln!("perfbench: unknown role {role:?}");
            ExitCode::from(2)
        }
    }
}
