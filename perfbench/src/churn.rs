//! The churn workload: uniform3d's data served through a `DurableDb`, one
//! closed-loop reader plus one open-loop writer inserting fresh objects,
//! then a crash and recovery.
//!
//! Serving and recovery each run in a child process of their own, so the
//! crash is a real one and a hung commit can be cut off: a thread stuck
//! inside a commit cannot be cancelled, a process can. The serving child
//! enforces the run's wall-time and memory caps itself and exits when the
//! window (plus a grace for the write in flight) ends or a cap is reached,
//! leaving the database directory exactly as a crash would (the writer is
//! never shut down cleanly). The coordinator then recovers that directory
//! in a second child under its own wall-time cap. Writes still
//! unacknowledged at the cap, and a recovery the cap cuts off, count as
//! failed.

use crate::metrics::{Report, Value};
use crate::read::{self, QueryLayers, Replay};
use crate::stats::{self, WriteRecord};
use crate::trace::Tracer;
use crate::workload::{
    self, churn_inputs, live_after, streams, sub_seed, Kind, QueryStream,
};
use crate::{sys, Args, MIB};
use pv_core::durable::encode_ops;
use pv_core::{DbOp, DurableDb, DurableOptions, PvIndex, SyncPolicy, WritableEngine};
use pv_storage::{RetryPolicy, StdFs, Wal};
use pv_uncertain::UncertainObject;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Resident-memory cap of the serving process: several times what the
/// freshly built index, the reader and a window of inserts need. A write
/// path that grows the index without bound ends the run at the cap, and
/// the writes it leaves unacknowledged count as failed.
pub const MEMORY_CAP_MIB: f64 = 256.0;
/// How long after the window a write already in flight may still finish.
pub const GRACE: Duration = Duration::from_secs(2);
/// Wall-time cap of recovery.
pub const RECOVERY_CAP: Duration = Duration::from_secs(20);
/// Sampled queries compared with LinearScan on the recovered database.
pub const ORACLE_QUERIES: usize = 50;

fn durable_options() -> DurableOptions {
    DurableOptions {
        sync: SyncPolicy::EveryCommit,
        ..DurableOptions::default()
    }
}

fn plan_len(window: Duration) -> usize {
    (window.as_millis() as u64 * workload::WRITE_RATE / 1000) as usize
}

/// Due time of write `i` on the open-loop schedule.
fn due(i: usize) -> Duration {
    Duration::from_nanos(i as u64 * 1_000_000_000 / workload::WRITE_RATE)
}

fn base_args(args: &Args, role: &str, trace: bool, dir: &Path) -> Vec<String> {
    [
        "--role",
        role,
        "--workload",
        Kind::Churn.name(),
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.window.as_secs().to_string(),
        "--trace",
        if trace { "1" } else { "0" },
        "--dir",
        &dir.display().to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// What a child printed, parsed.
#[derive(Debug, Default)]
struct ChildOutput {
    e2e: BTreeMap<String, Value>,
    layers: BTreeMap<String, Value>,
    counts: BTreeMap<String, u64>,
    notes: Vec<String>,
    applied: String,
    complete: bool,
}

fn parse_child(stdout: &str) -> ChildOutput {
    let mut out = ChildOutput::default();
    for line in stdout.lines() {
        let mut f = line.splitn(2, ' ');
        let (tag, rest) = (f.next().unwrap_or(""), f.next().unwrap_or(""));
        let parts: Vec<&str> = rest.split(' ').collect();
        let value = |i: usize| parts.get(i).and_then(|s| s.parse::<f64>().ok());
        match tag {
            "e2e" | "layer" => {
                if let (Some(name), Some(val), Some(n)) = (parts.first(), value(1), value(2)) {
                    let map = if tag == "e2e" {
                        &mut out.e2e
                    } else {
                        &mut out.layers
                    };
                    map.insert(
                        name.to_string(),
                        Value {
                            value: val,
                            n: n as u64,
                        },
                    );
                }
            }
            "count" => {
                if let (Some(name), Some(val)) =
                    (parts.first(), parts.get(1).and_then(|s| s.parse().ok()))
                {
                    out.counts.insert(name.to_string(), val);
                }
            }
            "note" => out.notes.push(rest.to_string()),
            "applied" => out.applied = rest.to_string(),
            "done" => out.complete = true,
            _ => {}
        }
    }
    out
}

fn intern(name: &str) -> Option<&'static str> {
    crate::metrics::END_TO_END
        .iter()
        .chain(crate::metrics::REPORT_ONLY)
        .chain(crate::metrics::PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.name)
}

/// Names a cycle in directory names and notes.
fn phase_name(trace: bool) -> &'static str {
    if trace {
        "traced"
    } else {
        "untraced"
    }
}

/// One serve + recover cycle, with tracing off (the end-to-end metrics) or
/// on (the per-layer metrics and the tracing overhead).
fn cycle(args: &Args, trace: bool, rep: &mut Report) -> Result<(), String> {
    let dir = crate::out_dir().join(format!(
        "churn-{}-{}-{}",
        std::process::id(),
        args.seed,
        phase_name(trace)
    ));
    let sargs = base_args(args, "serve", trace, &dir);
    // Setup (a few index builds), warm-up, window and grace, with slack:
    // the child enforces its own caps, this only guards against a wedged
    // child, and keeps a traced run's two cycles well inside 180 s.
    let serve_deadline = args.window + GRACE + Duration::from_secs(30);
    let serve = sys::run_self(&sargs, serve_deadline)
        .map_err(|e| format!("spawning the serving process: {e}"))?;
    let s = parse_child(&serve.stdout);
    if !s.complete {
        let _ = std::fs::remove_dir_all(&dir);
        return Err(format!(
            "the serving process ended without a result (killed by the backstop: {})",
            serve.killed
        ));
    }

    let mut rargs = base_args(args, "recover", trace, &dir);
    rargs.extend([
        "--applied".to_string(),
        if s.applied.is_empty() {
            "-".into()
        } else {
            s.applied.clone()
        },
        "--expect-version".to_string(),
        s.counts
            .get("last_version")
            .copied()
            .unwrap_or(0)
            .to_string(),
    ]);
    if let Some(i) = s.counts.get("in_flight") {
        rargs.extend(["--in-flight".to_string(), i.to_string()]);
    }
    let rec = sys::run_self(&rargs, RECOVERY_CAP).map_err(|e| format!("spawning recovery: {e}"))?;
    let r = parse_child(&rec.stdout);
    let _ = std::fs::remove_dir_all(&dir);

    let c = |m: &ChildOutput, k: &str| m.counts.get(k).copied().unwrap_or(0);
    let recovery = Recovery::classify(rec.killed, &r);
    let (recovery_correct, recovery_failed) = recovery.verdict();
    rep.correct &= recovery_correct;
    if trace {
        rep.correct &= c(&s, "accounting_errors") + c(&s, "replay_mismatches") == 0;
    }

    let mut e2e = BTreeMap::new();
    for (k, v) in s.e2e.iter().chain(&r.e2e) {
        if let Some(name) = intern(k) {
            e2e.insert(name, *v);
        }
    }
    if !r.e2e.contains_key("recovery_s") {
        // Cut off or died: the censored time is what the run paid.
        let value = rec.elapsed.as_secs_f64();
        e2e.insert("recovery_s", Value { value, n: 1 });
    }

    if trace {
        rep.e2e_traced = e2e;
        for (k, v) in s.layers.iter().chain(&r.layers) {
            if let Some(name) = intern(k) {
                rep.layers.insert(name, *v);
            }
        }
    } else {
        rep.attempted = c(&s, "queries_attempted") + c(&s, "writes_due") + RECOVERY_OPS;
        rep.failed = c(&s, "queries_failed") + c(&s, "writes_failed") + recovery_failed;
        let value = stats::share(rep.failed, rep.attempted);
        e2e.insert(
            "failed_share",
            Value {
                value,
                n: rep.attempted,
            },
        );
        rep.e2e = e2e;
    }
    let tag = phase_name(trace);
    rep.notes
        .extend(s.notes.iter().map(|n| format!("{tag} serve: {n}")));
    rep.notes
        .extend(r.notes.iter().map(|n| format!("{tag} recovery: {n}")));
    if rec.killed {
        let cap = RECOVERY_CAP.as_secs();
        rep.notes
            .push(format!("{tag} recovery: cut off by the {cap} s cap"));
    }
    Ok(())
}

/// Operations the recovery phase attempts: the open, the state check and
/// the sampled queries.
const RECOVERY_OPS: u64 = ORACLE_QUERIES as u64 + 2;

/// How recovery of the crashed directory ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Recovery {
    /// `DurableDb::open` succeeded; `mismatches` of the state check and the
    /// sampled queries disagreed with the expected database.
    Checked { mismatches: u64 },
    /// The wall-time cap killed the child before it reported.
    CutOff,
    /// `DurableDb::open` returned an error, or the child died without a
    /// result: acknowledged writes cannot be read back.
    Lost,
}

impl Recovery {
    fn classify(killed: bool, out: &ChildOutput) -> Recovery {
        let c = |k: &str| out.counts.get(k).copied().unwrap_or(0);
        if killed {
            Recovery::CutOff
        } else if out.complete && c("recovered") == 1 {
            Recovery::Checked {
                mismatches: c("state_mismatch") + c("oracle_mismatches"),
            }
        } else {
            Recovery::Lost
        }
    }

    /// Whether the run's output is still correct, and how many of the
    /// [`RECOVERY_OPS`] failed. A wrong recovered state or answer, and
    /// acknowledged writes that cannot be read back, are incorrect output; a
    /// recovery the cap cut off is a failure, not a wrong answer.
    fn verdict(self) -> (bool, u64) {
        match self {
            Recovery::Checked { mismatches } => (mismatches == 0, mismatches),
            Recovery::CutOff => (true, RECOVERY_OPS),
            Recovery::Lost => (false, RECOVERY_OPS),
        }
    }
}

/// The plan indices a database recovered at `version` must hold: the
/// acknowledged writes (the last at `last_acked`), plus, one version later,
/// the write in flight at the crash, whose log record may or may not have
/// reached the file before the process ended. `None` for any other version.
fn recovered_writes(
    version: u64,
    last_acked: u64,
    applied: &[usize],
    in_flight: Option<usize>,
) -> Option<Vec<usize>> {
    let mut writes = applied.to_vec();
    if version != last_acked {
        writes.push(in_flight.filter(|_| version == last_acked + 1)?);
    }
    Some(writes)
}

/// Runs the churn workload and assembles the report. A traced run repeats
/// the cycle with spans on, for the per-layer metrics and the tracing
/// overhead.
pub fn coordinate(args: &Args) -> Result<Report, String> {
    let mut rep = Report {
        correct: true,
        ..Report::default()
    };
    cycle(args, false, &mut rep)?;
    if args.trace {
        cycle(args, true, &mut rep)?;
    }
    Ok(rep)
}

/// Per-commit layer sums of the traced writer.
#[derive(Debug, Default, Clone)]
struct CommitLayers {
    commits: u64,
    commit_ns: u64,
    wait_ns: u64,
    apply_ns: u64,
    affected: u64,
    se_ns: u64,
    cow_copies: u64,
    fork_ns: u64,
    append_ns: u64,
    sync_ns: u64,
    wal_bytes: u64,
    /// `(commit, se.update, index.maint, durable.overhead)` of the slowest
    /// commit, ns.
    slowest: (u64, u64, u64, u64),
}

/// Shared writer state, readable while the writer is stuck in a commit.
#[derive(Debug, Default)]
struct WriterLog {
    records: Vec<WriteRecord>,
    /// Plan indices of acknowledged writes, in order.
    applied: Vec<usize>,
    /// Plan index of the write whose commit has started but whose outcome
    /// is not recorded yet.
    in_flight: Option<usize>,
    last_version: u64,
    errors: Vec<String>,
    layers: CommitLayers,
    /// Spans of the traced commits.
    tracer: Tracer,
    finished: bool,
}

fn emit(out: &mut String, tag: &str, name: &str, value: f64, n: u64) {
    assert!(value.is_finite(), "{name} is not finite");
    out.push_str(&format!("{tag} {name} {value} {n}\n"));
}

fn exit_with(text: String) -> ! {
    let mut stdout = std::io::stdout().lock();
    let _ = stdout.write_all(text.as_bytes());
    let _ = stdout.flush();
    // A writer thread may still be inside a commit; exiting the process
    // abandons it mid-flight, which is the crash the recovery phase expects.
    std::process::exit(0)
}

fn dir_arg(args: &Args) -> PathBuf {
    PathBuf::from(
        args.extra
            .get("dir")
            .expect("--dir is passed to churn children"),
    )
}

/// The serving child: setup, reader + writer for the window, caps.
pub fn serve_child(args: &Args) -> ExitCode {
    let dir = dir_arg(args);
    let (initial, plan) = churn_inputs(plan_len(args.window));
    let spec = Kind::Churn.spec();
    let mut out = String::new();

    // Setup: index build + DurableDb::create, repeated as `more_setups`
    // says (once when traced); the median is setup_s. Each repetition
    // replaces the previous database, so the one that serves is the last,
    // under the name recovery will open.
    let more = |setups: &[f64]| {
        if args.trace {
            setups.is_empty()
        } else {
            crate::more_setups(setups)
        }
    };
    let mut setups = Vec::new();
    let mut db = None;
    while more(&setups) {
        drop(db.take());
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let index = PvIndex::build(&initial, workload::params());
        let created = DurableDb::create(&dir, index, durable_options());
        setups.push(t0.elapsed().as_secs_f64());
        match created {
            Ok(x) => db = Some(x),
            Err(e) => {
                eprintln!("perfbench: DurableDb::create failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let db = Arc::new(db.expect("at least one setup"));
    emit(
        &mut out,
        "e2e",
        "setup_s",
        crate::median(&setups),
        setups.len() as u64,
    );
    let stored_setup = db.db().reader().engine().pager().disk_bytes() as f64 / MIB;
    out.push_str(&format!("note after setup stored_mb = {stored_setup}\n"));
    let mut layers = BTreeMap::new();
    if args.trace {
        let engine = db.db().reader();
        crate::build_metrics(&mut layers, engine.engine());
        let mut after_setup = BTreeMap::new();
        crate::shape_metrics(&mut after_setup, engine.engine());
        for (k, v) in after_setup {
            out.push_str(&format!("note after setup {k} = {}\n", v.value));
        }
    }
    read::warm_up(db.db().reader().engine(), &spec, &initial.domain, args.seed);
    out.push_str(&format!(
        "note rss_peak_mb when the writes begin = {}\n",
        sys::peak_rss_mib()
    ));

    // The plan holds exactly the writes due within the window.
    let due_count = plan.len();
    let abort = Arc::new(AtomicBool::new(false));
    let log = Arc::new(Mutex::new(WriterLog::default()));
    let t0 = Instant::now();
    let window = args.window;

    let reader = {
        let (db, abort, domain, seed, trace) = (
            db.clone(),
            abort.clone(),
            initial.domain.clone(),
            args.seed,
            args.trace,
        );
        let spec = spec.clone();
        thread::spawn(move || {
            let mut stream = QueryStream::new(&domain, seed);
            let mut acc = QueryLayers::default();
            let mut tracer = Tracer::new();
            let qlog = if trace {
                let mut rb = Replay::default();
                read::closed_loop(window, &abort, &mut stream, |q| {
                    let snap = db.db().reader();
                    read::traced_query(snap.engine(), q, &spec, &mut rb, &mut tracer, &mut acc)
                })
            } else {
                let mut session = db.db().session();
                read::closed_loop(window, &abort, &mut stream, |q| {
                    let t = Instant::now();
                    let r = session.query(q, &spec).map(|_| ());
                    let d = t.elapsed();
                    r.map(|()| d).map_err(|_| d)
                })
            };
            (qlog, acc, tracer)
        })
    };

    let writer = {
        let (db, abort, log, trace, dir) = (
            db.clone(),
            abort.clone(),
            log.clone(),
            args.trace,
            dir.clone(),
        );
        thread::spawn(move || {
            let mut side = trace.then(|| {
                Wal::create(
                    Arc::new(StdFs),
                    &dir.with_extension("sidewal"),
                    RetryPolicy::default(),
                )
                .expect("creating the side WAL")
            });
            for (i, o) in plan.iter().enumerate() {
                let due_at = due(i);
                if due_at >= window || abort.load(Ordering::Relaxed) {
                    break;
                }
                let wait = due_at.saturating_sub(t0.elapsed());
                if !wait.is_zero() {
                    thread::sleep(wait);
                }
                if t0.elapsed() >= window || abort.load(Ordering::Relaxed) {
                    break;
                }
                let start = t0.elapsed();
                {
                    let mut l = log.lock().expect("writer log lock");
                    // The main thread raises `abort` before it takes this
                    // lock to report, so no write starts after the report
                    // that recovery is checked against.
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    // One record per plan index, in order: records[i] is
                    // write i.
                    l.records.push(WriteRecord {
                        due: due_at,
                        start: Some(start),
                        acked: None,
                    });
                    l.in_flight = Some(i);
                }
                let wal_before = db.wal_bytes();
                let c0 = Instant::now();
                let res = db.insert(o.clone());
                let c1 = Instant::now();
                let mut l = log.lock().expect("writer log lock");
                l.in_flight = None;
                match res {
                    Ok(commit) => {
                        l.records[i].acked = Some(c1.duration_since(t0));
                        l.applied.push(i);
                        l.last_version = commit.version;
                        drop(l);
                        if let Some(side) = side.as_mut() {
                            let wait = start.saturating_sub(due_at);
                            trace_commit(&db, &commit, o, side, &log, (c0, c1), wait, wal_before);
                        }
                    }
                    Err(e) => l.errors.push(format!("write {i}: {e}")),
                }
            }
            log.lock().expect("writer log lock").finished = true;
        })
    };

    // Watchdog: the window, then the grace for an in-flight write, and the
    // memory cap throughout.
    let mut mem_cap_hit = false;
    let mut rss_at_cap = 0.0;
    loop {
        let rss = sys::rss_mib();
        if rss > MEMORY_CAP_MIB {
            mem_cap_hit = true;
            rss_at_cap = rss;
            abort.store(true, Ordering::Relaxed);
            break;
        }
        let now = t0.elapsed();
        let writer_done = log.lock().expect("writer log lock").finished;
        if now >= window && (writer_done || now >= window + GRACE) {
            break;
        }
        thread::sleep(Duration::from_millis(5));
    }
    let run_end = t0.elapsed();
    abort.store(true, Ordering::Relaxed);
    let (qlog, qacc, qtracer) = reader.join().expect("reader thread");
    let peak = sys::peak_rss_mib();
    let newest = db.db().reader();
    let stored_end = newest.engine().pager().disk_bytes() as f64 / MIB;

    let l = log.lock().expect("writer log lock");
    // Every write due before the window ended counts, started or not.
    let mut records = l.records.clone();
    for i in records.len()..due_count {
        records.push(WriteRecord {
            due: due(i),
            start: None,
            acked: None,
        });
    }
    let samples = stats::commit_samples(&records, run_end);
    let commit_ms = |p| stats::percentile(&samples, p).map_or(0.0, |d| d.as_secs_f64() * 1e3);
    let failed_writes = samples
        .iter()
        .filter(|s| matches!(s, stats::Sample::Failed(_)))
        .count() as u64;
    let mut qm = BTreeMap::new();
    crate::query_metrics(&mut qm, &qlog);
    for (k, v) in qm {
        emit(&mut out, "e2e", k, v.value, v.n);
    }
    out.push_str(&format!("note {}\n", crate::slice_note(&qlog)));
    emit(&mut out, "e2e", "rss_peak_mb", peak, 1);
    emit(&mut out, "e2e", "stored_mb", stored_end, 1);
    emit(
        &mut out,
        "e2e",
        "commit_p50_ms",
        commit_ms(50.0),
        samples.len() as u64,
    );
    emit(
        &mut out,
        "e2e",
        "commit_p99_ms",
        commit_ms(99.0),
        samples.len() as u64,
    );
    emit(
        &mut out,
        "e2e",
        "commit_failed_share",
        stats::share(failed_writes, due_count as u64),
        due_count as u64,
    );
    out.push_str(&format!("count queries_attempted {}\n", qlog.attempted()));
    out.push_str(&format!("count queries_failed {}\n", qlog.failed));
    out.push_str(&format!("count writes_due {due_count}\n"));
    out.push_str(&format!("count writes_failed {failed_writes}\n"));
    out.push_str(&format!("count last_version {}\n", l.last_version));
    let applied: Vec<String> = l.applied.iter().map(|i| i.to_string()).collect();
    out.push_str(&format!("applied {}\n", applied.join(",")));
    if let Some(i) = l.in_flight {
        out.push_str(&format!("count in_flight {i}\n"));
    }
    out.push_str(&format!(
        "note writes: {} due, {} acknowledged, {} errored, in flight at the end: {}; writer start lag p50 {:.3} ms; run ended at {:.3} s{}\n",
        due_count,
        l.applied.len(),
        l.errors.len(),
        l.in_flight.is_some(),
        stats::median_start_lag(&records).map_or(0.0, |d| d.as_secs_f64() * 1e3),
        run_end.as_secs_f64(),
        if mem_cap_hit { format!(" (memory cap: {rss_at_cap:.0} MiB > {MEMORY_CAP_MIB} MiB)") } else { String::new() }
    ));
    for e in l.errors.iter().take(5) {
        out.push_str(&format!("note {e}\n"));
    }
    if args.trace {
        crate::shape_metrics(&mut layers, newest.engine());
        crate::query_layer_metrics(&mut layers, &qacc);
        commit_layer_metrics(&mut layers, &l.layers);
        for (k, v) in &layers {
            emit(&mut out, "layer", k, v.value, v.n);
        }
        let ms = |ns: u64| ns as f64 / 1e6;
        let (commit, se, maint, overhead) = l.layers.slowest;
        out.push_str(&format!(
            "note slowest completed commit: {:.3} ms = se.update {:.3} ms + index.maint {:.3} ms + durable.overhead {:.3} ms\n",
            ms(commit),
            ms(se),
            ms(maint),
            ms(overhead)
        ));
        let path = |who: &str| {
            let name = format!("trace-churn-{}-{who}.jsonl", args.seed);
            crate::out_dir().join(name)
        };
        let written = qtracer
            .write_out(&path("reader"))
            .and(l.tracer.write_out(&path("writer")));
        let errors = qtracer.accounting_errors + l.tracer.accounting_errors;
        out.push_str(&format!("count accounting_errors {errors}\n"));
        out.push_str(&format!(
            "count replay_mismatches {}\n",
            qacc.replay_mismatches
        ));
        out.push_str(&format!(
            "note trace: {} queries, {} commits traced; spans written to {}: {}\n",
            qacc.queries,
            l.layers.commits,
            path("{reader,writer}").display(),
            written.map_or_else(|e| e.to_string(), |()| "ok".into())
        ));
    }
    let writer_done = l.finished;
    drop(l);
    drop(newest);
    if writer_done {
        // Crash by drop: no sync, no compaction, no clean shutdown.
        let _ = writer.join();
        drop(db);
    }
    let _ = std::fs::remove_file(dir.with_extension("sidewal"));
    out.push_str("done\n");
    exit_with(out)
}

/// Side calls and self-time accounting for one acknowledged traced commit:
/// COW page copies and WAL bytes of the commit, a `fork` of the engine it
/// published, and a side WAL's append and sync of the same operation bytes.
#[allow(clippy::too_many_arguments)]
fn trace_commit(
    db: &DurableDb<PvIndex>,
    commit: &pv_core::DurableCommit,
    o: &UncertainObject,
    side: &mut Wal,
    log: &Mutex<WriterLog>,
    (c0, c1): (Instant, Instant),
    wait: Duration,
    wal_before: u64,
) {
    let st = commit.stats.first().cloned().unwrap_or_default();
    let newest = db.db().reader();
    let cow_copies = newest.engine().pager().cow_copies();
    let wal_bytes = db.wal_bytes().saturating_sub(wal_before);
    let f0 = Instant::now();
    drop(std::hint::black_box(newest.engine().fork()));
    let f1 = Instant::now();
    drop(newest);
    let body = encode_ops(&[DbOp::Insert(o.clone())]);
    let a0 = Instant::now();
    let appended = side.append_commit(commit.version, &body);
    let a1 = Instant::now();
    let synced = side.sync();
    let a2 = Instant::now();

    let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
    let commit_ns = ns(c0, c1);
    let apply_ns = st.time.as_nanos() as u64;
    let se_ns = (st.se.cset_time + st.se.refine_time).as_nanos() as u64;
    let mut l = log.lock().expect("writer log lock");
    let t = &mut l.tracer;
    let root = t.span("write", None, t.at(c0), t.at(a2));
    t.span("durable.commit", Some(root), t.at(c0), t.at(c1));
    t.span("db.fork", Some(root), t.at(f0), t.at(f1));
    t.span("wal.append", Some(root), t.at(a0), t.at(a1));
    t.span("wal.sync", Some(root), t.at(a1), t.at(a2));
    t.finish();
    // UpdateStats are measured inside the commit, so se.update ≤ apply ≤
    // commit must hold for the write-side self times to add up.
    if !(se_ns <= apply_ns && apply_ns <= commit_ns) {
        t.accounting_errors += 1;
    }
    if let Err(e) = appended.and(synced) {
        l.errors.push(format!("side WAL: {e}"));
    }
    let c = &mut l.layers;
    c.commits += 1;
    c.commit_ns += commit_ns;
    c.wait_ns += wait.as_nanos() as u64;
    c.apply_ns += apply_ns;
    c.affected += st.affected as u64;
    c.se_ns += se_ns;
    c.cow_copies += cow_copies;
    c.fork_ns += ns(f0, f1);
    c.append_ns += ns(a0, a1);
    c.sync_ns += ns(a1, a2);
    c.wal_bytes += wal_bytes;
    if commit_ns > c.slowest.0 {
        let maint = apply_ns.saturating_sub(se_ns);
        c.slowest = (commit_ns, se_ns, maint, commit_ns.saturating_sub(apply_ns));
    }
}

/// Write-side per-layer metrics: means per acknowledged commit.
fn commit_layer_metrics(out: &mut BTreeMap<&'static str, Value>, c: &CommitLayers) {
    let n = c.commits;
    let per = |x: u64| x as f64 / n.max(1) as f64;
    let v = |value| Value { value, n };
    out.insert("durable.commit_ns", v(per(c.commit_ns)));
    out.insert("durable.wait_ms", v(per(c.wait_ns) / 1e6));
    out.insert("index.apply_ns", v(per(c.apply_ns)));
    out.insert("index.affected", v(per(c.affected)));
    out.insert("se.update_ns", v(per(c.se_ns)));
    out.insert("index.maint_ns", v(per(c.apply_ns - c.se_ns)));
    out.insert("pager.cow_copies", v(per(c.cow_copies)));
    out.insert("durable.overhead_ns", v(per(c.commit_ns - c.apply_ns)));
    out.insert("db.fork_ns", v(per(c.fork_ns)));
    out.insert("wal.append_ns", v(per(c.append_ns)));
    out.insert("wal.sync_ns", v(per(c.sync_ns)));
    out.insert("wal.bytes", v(per(c.wal_bytes)));
}

/// The recovery child: open the crashed directory, check it, query it.
pub fn recover_child(args: &Args) -> ExitCode {
    let dir = dir_arg(args);
    let applied: Vec<usize> = match args.extra.get("applied").map(String::as_str) {
        None | Some("-") => Vec::new(),
        Some(list) => list.split(',').filter_map(|s| s.parse().ok()).collect(),
    };
    let expect_version: u64 = args
        .extra
        .get("expect-version")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let in_flight: Option<usize> = args.extra.get("in-flight").and_then(|s| s.parse().ok());
    let (initial, plan) = churn_inputs(plan_len(args.window));
    let mut out = String::new();

    let t0 = Instant::now();
    let opened = DurableDb::<PvIndex>::open(&dir, durable_options());
    let recovery = t0.elapsed();
    let (db, report) = match opened {
        Ok(x) => x,
        Err(e) => {
            out.push_str(&format!("note open failed: {e}\ncount recovered 0\ndone\n"));
            emit(&mut out, "e2e", "recovery_s", recovery.as_secs_f64(), 1);
            exit_with(out)
        }
    };
    emit(&mut out, "e2e", "recovery_s", recovery.as_secs_f64(), 1);
    out.push_str("count recovered 1\n");

    let snap = db.db().reader();
    let writes = recovered_writes(snap.version(), expect_version, &applied, in_flight);
    // A version that matches neither state is a mismatch; the queries are
    // then still checked against the acknowledged one.
    let expected = live_after(&initial, &plan, writes.as_deref().unwrap_or(&applied));
    let mut want: Vec<u64> = expected.objects.iter().map(|o| o.id).collect();
    want.sort_unstable();
    let state_ok = writes.is_some() && snap.engine().ids() == want;
    out.push_str(&format!("count state_mismatch {}\n", u64::from(!state_ok)));
    out.push_str(&format!(
        "note recovered version {} (acknowledged {expect_version}, write in flight: {}), {} objects (expected {}), {} commits replayed from snapshot v{}\n",
        snap.version(),
        in_flight.map_or("none".into(), |i| format!("plan index {i}")),
        snap.engine().len(),
        want.len(),
        report.replayed_commits,
        report.snapshot_version
    ));

    let truth = pv_core::verify::LinearScan::new(&expected);
    let mut stream = QueryStream::new(&initial.domain, sub_seed(args.seed, streams::ORACLE));
    let points: Vec<_> = (0..ORACLE_QUERIES).map(|_| stream.next_point()).collect();
    let oracle = read::oracle_check(snap.engine(), &truth, &Kind::Churn.spec(), &points);
    out.push_str(&format!("count oracle_mismatches {}\n", oracle.mismatches));
    out.push_str(&format!(
        "note oracle: {} queries on the recovered database vs LinearScan over the expected live set, {} mismatches\n",
        oracle.checked, oracle.mismatches
    ));

    if args.trace {
        let path = dir.join(format!("snap.{}.pvix", report.snapshot_version));
        let l0 = Instant::now();
        let loaded = PvIndex::load(&path);
        let load = l0.elapsed();
        if loaded.is_ok() {
            let load_ns = load.as_nanos() as f64;
            emit(&mut out, "layer", "snapshot.load_ns", load_ns, 1);
            emit(
                &mut out,
                "layer",
                "recovery.replay_ns",
                (recovery.as_nanos() as f64 - load_ns).max(0.0),
                1,
            );
        }
        emit(
            &mut out,
            "layer",
            "recovery.replayed_commits",
            report.replayed_commits as f64,
            1,
        );
    }
    out.push_str(&format!(
        "note recovery process rss_peak_mb = {}\n",
        sys::peak_rss_mib()
    ));
    out.push_str("done\n");
    drop(snap);
    drop(db);
    exit_with(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_verdicts() {
        let verdict = |killed, stdout: &str| Recovery::classify(killed, &parse_child(stdout));
        // Opened, and every check agreed.
        let ok = "e2e recovery_s 0.5 1\ncount recovered 1\ncount state_mismatch 0\ncount oracle_mismatches 0\ndone\n";
        assert_eq!(verdict(false, ok), Recovery::Checked { mismatches: 0 });
        assert_eq!(verdict(false, ok).verdict(), (true, 0));
        // Opened, with a wrong state and two wrong answers.
        let wrong = "count recovered 1\ncount state_mismatch 1\ncount oracle_mismatches 2\ndone\n";
        assert_eq!(verdict(false, wrong).verdict(), (false, 3));
        // `open` returned an error: acknowledged writes are lost, which is
        // incorrect output, not a cut-off.
        let err = "note open failed: bad record\ncount recovered 0\ndone\ne2e recovery_s 0.1 1\n";
        assert_eq!(verdict(false, err), Recovery::Lost);
        assert_eq!(verdict(false, err).verdict(), (false, RECOVERY_OPS));
        // The child died without a result.
        assert_eq!(verdict(false, "").verdict(), (false, RECOVERY_OPS));
        // Only the cap's kill is a cut-off: every recovery op failed, but
        // no answer was wrong.
        assert_eq!(verdict(true, ""), Recovery::CutOff);
        assert_eq!(verdict(true, "").verdict(), (true, RECOVERY_OPS));
    }

    #[test]
    fn recovered_state_may_include_the_write_in_flight() {
        let applied = [0, 1, 3];
        assert_eq!(
            recovered_writes(7, 7, &applied, Some(4)),
            Some(vec![0, 1, 3])
        );
        assert_eq!(
            recovered_writes(8, 7, &applied, Some(4)),
            Some(vec![0, 1, 3, 4])
        );
        assert_eq!(recovered_writes(7, 7, &applied, None), Some(vec![0, 1, 3]));
        // Nothing was in flight, so nothing beyond the acknowledged writes.
        assert_eq!(recovered_writes(8, 7, &applied, None), None);
        // A lost acknowledged write, or a second extra one, matches nothing.
        assert_eq!(recovered_writes(6, 7, &applied, Some(4)), None);
        assert_eq!(recovered_writes(9, 7, &applied, Some(4)), None);
    }

}
