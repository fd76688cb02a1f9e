//! The closed-loop reader, its traced variant, and the LinearScan oracle.

use crate::stats::{mean_done, percentile, Sample};
use crate::trace::Tracer;
use crate::workload::{streams, sub_seed, QueryStream};
use pv_core::prob::{qualification_sweep_into, ProbScratch};
use pv_core::query::{FetchScratch, ProbNnEngine, QueryOutcome, QueryScratch, Step1Engine};
use pv_core::verify::LinearScan;
use pv_core::{PvIndex, QuerySpec};
use pv_geom::{min_dist_sq, HyperRect, Point};
use pv_uncertain::SampleScratch;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Probabilities from the index and from LinearScan may differ by at most
/// this much.
pub const ORACLE_TOLERANCE: f64 = 1e-9;

/// One client's figures over one slice of the window.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Median latency.
    pub p50: Duration,
    /// Mean latency of the completed queries.
    pub mean: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// Completed queries per second.
    pub qps: f64,
}

/// What one closed-loop client saw.
#[derive(Debug, Default)]
pub struct QueryLog {
    /// Per-slice figures, in order.
    pub slices: Vec<Slice>,
    /// Queries completed.
    pub completed: u64,
    /// Queries that failed.
    pub failed: u64,
}

impl QueryLog {
    /// Queries attempted.
    pub fn attempted(&self) -> u64 {
        self.completed + self.failed
    }
}

/// The window is measured in slices of this length, and each figure is the
/// mean over slices. The shared host's speed drifts by a fifth from one
/// second to the next; the mean averages that drift over the window, where
/// the median over slices spread about twice as much between runs of the
/// same code (uniform3d throughput: 0.086 against 0.036 IQR/median over
/// four runs). Each slice's figures are printed in the report's notes. A
/// slice holds over a thousand queries on every
/// workload (rrlines2d, the slowest, runs ~3,000 per second on an idle
/// two-core host and ~1,300 on a loaded one), so its p99 has at least ten
/// samples beyond it.
pub const SLICE: Duration = Duration::from_secs(1);

/// One client issuing `stream`'s points back to back for `window` (or until
/// `abort` is raised). `run` executes one query and returns its latency,
/// as `Err` when the query failed.
pub fn closed_loop(
    window: Duration,
    abort: &AtomicBool,
    stream: &mut QueryStream,
    mut run: impl FnMut(&Point) -> Result<Duration, Duration>,
) -> QueryLog {
    let mut log = QueryLog::default();
    let mut samples: Vec<Sample> = Vec::new();
    let t0 = Instant::now();
    let mut slice_start = Instant::now();
    loop {
        let now = Instant::now();
        let over = now.duration_since(t0) >= window || abort.load(Ordering::Relaxed);
        if over || now.duration_since(slice_start) >= SLICE {
            let elapsed = now.duration_since(slice_start);
            let done = samples
                .iter()
                .filter(|s| matches!(s, Sample::Done(_)))
                .count();
            if let (Some(p50), Some(p99), Some(mean)) = (
                percentile(&samples, 50.0),
                percentile(&samples, 99.0),
                mean_done(&samples),
            ) {
                let qps = done as f64 / elapsed.as_secs_f64().max(1e-9);
                log.slices.push(Slice {
                    p50,
                    mean,
                    p99,
                    qps,
                });
            }
            log.completed += done as u64;
            log.failed += (samples.len() - done) as u64;
            samples.clear();
            if over {
                break;
            }
            // The slice's own bookkeeping stays out of the next slice.
            slice_start = Instant::now();
        }
        let q = stream.next_point();
        samples.push(match run(&q) {
            Ok(d) => Sample::Done(d),
            Err(d) => Sample::Failed(d),
        });
    }
    log
}

/// Length of the untimed warm-up.
pub const WARM_UP: Duration = Duration::from_secs(1);

/// Untimed warm-up: scratch buffers reach their working size and the core
/// leaves any idle clock state before the window opens.
pub fn warm_up(engine: &PvIndex, spec: &QuerySpec, domain: &HyperRect, seed: u64) {
    let mut stream = QueryStream::new(domain, sub_seed(seed, streams::WARM_UP));
    let (mut scratch, mut out) = (QueryScratch::default(), QueryOutcome::default());
    let t0 = Instant::now();
    while t0.elapsed() < WARM_UP {
        let _ = engine.execute_into(&stream.next_point(), spec, &mut scratch, &mut out);
    }
}

/// Times one untraced query.
pub fn timed_query(
    engine: &PvIndex,
    q: &Point,
    spec: &QuerySpec,
    scratch: &mut QueryScratch,
    out: &mut QueryOutcome,
) -> Result<Duration, Duration> {
    let t0 = Instant::now();
    let r = engine.execute_into(q, spec, scratch, out);
    let d = t0.elapsed();
    r.map(|()| d).map_err(|_| d)
}

/// Per-layer sums over every traced query.
#[derive(Debug, Default, Clone)]
pub struct QueryLayers {
    /// Traced queries.
    pub queries: u64,
    /// Σ `execute_into` span, ns.
    pub execute_ns: u64,
    /// Σ `step1_into` self time, ns.
    pub step1_ns: u64,
    /// Σ `fetch_dists_sq` self time, ns.
    pub fetch_ns: u64,
    /// Σ `UncertainObject::dists_sq_into` on the fetched candidates, ns.
    pub stream_ns: u64,
    /// Σ `qualification_sweep_into`, ns.
    pub sweep_ns: u64,
    /// Σ octree leaf records scanned (`Step1Stats::candidates`).
    pub records: u64,
    /// Σ pages read by Step 1.
    pub pages: u64,
    /// Σ Step-1 survivors (candidate ids returned).
    pub survivors: u64,
    /// Σ payloads fetched.
    pub payloads: u64,
    /// Σ samples swept.
    pub worlds: u64,
    /// Σ payloads skipped by early termination.
    pub skipped: u64,
    /// Replays whose answers differ from their `execute_into`.
    pub replay_mismatches: u64,
}

/// Buffers for replaying the driver's layer calls.
#[derive(Debug, Default)]
pub struct Replay {
    scratch: QueryScratch,
    out: QueryOutcome,
    ids: Vec<u64>,
    fetch: FetchScratch,
    order: Vec<(u64, f64)>,
    spans: Vec<(u64, u32, u32)>,
    dists: Vec<f64>,
    prob: ProbScratch,
    answers: Vec<(u64, f64)>,
    samples: SampleScratch,
    streamed: Vec<f64>,
}

/// Runs one traced query: times `execute_into`, then replays its layer
/// calls on the same point in the driver's order — `step1_into`, one
/// `fetch_dists_sq` per fetched candidate (plus the catalog object's
/// `dists_sq_into` on the same candidate), then `qualification_sweep_into` —
/// and checks the replay reproduces the answers bit for bit. Returns the
/// `execute_into` latency.
pub fn traced_query(
    engine: &PvIndex,
    q: &Point,
    spec: &QuerySpec,
    rb: &mut Replay,
    tracer: &mut Tracer,
    acc: &mut QueryLayers,
) -> Result<Duration, Duration> {
    let e0 = tracer.now();
    let r = engine.execute_into(q, spec, &mut rb.scratch, &mut rb.out);
    let e1 = tracer.now();
    let latency = Duration::from_nanos(e1 - e0);
    if r.is_err() {
        return Err(latency);
    }

    let root = tracer.span("query", None, e0, e0);
    tracer.span("query.execute", Some(root), e0, e1);
    let r0 = tracer.now();
    let replay = tracer.span("query.replay", Some(root), r0, r0);

    let s0 = tracer.now();
    let st = engine.step1_into(q, &mut rb.ids, &mut rb.fetch);
    let s1 = tracer.now();
    tracer.span("index.step1", Some(replay), s0, s1);

    rb.order.clear();
    rb.order.extend(
        rb.ids
            .iter()
            .map(|&id| (id, min_dist_sq(engine.candidate_region(id), q))),
    );
    rb.order
        .sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let fetched = rb.order.len().saturating_sub(rb.out.skipped_payloads);
    rb.spans.clear();
    rb.dists.clear();
    for &(id, _) in &rb.order[..fetched] {
        let start = rb.dists.len() as u32;
        let f0 = tracer.now();
        engine.fetch_dists_sq(id, q, &mut rb.dists, &mut rb.fetch);
        let f1 = tracer.now();
        tracer.span("index.fetch", Some(replay), f0, f1);
        rb.dists[start as usize..].sort_unstable_by(f64::total_cmp);
        rb.spans.push((id, start, rb.dists.len() as u32 - start));

        let object = engine
            .object(id)
            .expect("a fetched candidate is in the catalog");
        rb.streamed.clear();
        let u0 = tracer.now();
        object.dists_sq_into(q, &mut rb.samples, &mut rb.streamed);
        let u1 = tracer.now();
        tracer.span("uncertain.stream", Some(replay), u0, u1);
    }

    let w0 = tracer.now();
    qualification_sweep_into(&rb.spans, &rb.dists, &mut rb.prob, &mut rb.answers);
    let w1 = tracer.now();
    tracer.span("prob.sweep", Some(replay), w0, w1);
    rb.answers
        .sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    if let Some(tau) = spec.threshold() {
        rb.answers.retain(|&(_, p)| p >= tau && p > 0.0);
    }
    if let Some(k) = spec.top_k() {
        rb.answers.retain(|&(_, p)| p > 0.0);
        rb.answers.truncate(k);
    }
    let r1 = tracer.now();
    tracer.set_end(replay, r1);
    tracer.set_end(root, r1);
    let self_ns = tracer.finish();

    let same = rb.ids == rb.out.candidates
        && rb.answers.len() == rb.out.answers.len()
        && rb
            .answers
            .iter()
            .zip(&rb.out.answers)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
    let get = |name| self_ns.get(name).copied().unwrap_or(0);
    acc.queries += 1;
    acc.execute_ns += e1 - e0;
    acc.step1_ns += get("index.step1");
    acc.fetch_ns += get("index.fetch");
    acc.stream_ns += get("uncertain.stream");
    acc.sweep_ns += get("prob.sweep");
    acc.records += st.candidates as u64;
    acc.pages += st.io_reads;
    acc.survivors += rb.ids.len() as u64;
    acc.payloads += fetched as u64;
    acc.worlds += rb.dists.len() as u64;
    acc.skipped += rb.out.skipped_payloads as u64;
    acc.replay_mismatches += u64::from(!same);
    Ok(latency)
}

/// Result of the oracle comparison.
#[derive(Debug, Default, Clone, Copy)]
pub struct OracleResult {
    /// Queries compared.
    pub checked: u64,
    /// Queries whose answers differ from LinearScan's.
    pub mismatches: u64,
}

/// True when two answer lists agree: same ids in the same order, and
/// probabilities within [`ORACLE_TOLERANCE`].
pub fn answers_match(got: &[(u64, f64)], want: &[(u64, f64)]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.0 == b.0 && (a.1 - b.1).abs() <= ORACLE_TOLERANCE)
}

/// Compares `engine`'s answers with LinearScan's on `points`.
pub fn oracle_check<E: ProbNnEngine>(
    engine: &E,
    truth: &LinearScan,
    spec: &QuerySpec,
    points: &[Point],
) -> OracleResult {
    let mut res = OracleResult::default();
    for q in points {
        res.checked += 1;
        let ok = match (engine.execute(q, spec), truth.execute(q, spec)) {
            (Ok(got), Ok(want)) => answers_match(&got.answers, &want.answers),
            _ => false,
        };
        res.mismatches += u64::from(!ok);
    }
    res
}

/// A seeded sample of `m` of the first `issued` points of the run's query
/// stream (regenerated, so the timed loop never stores its points).
pub fn sampled_points(domain: &HyperRect, seed: u64, issued: u64, m: usize) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, streams::ORACLE));
    let mut picks: Vec<u64> = (0..m).map(|_| rng.gen_range(0..issued.max(1))).collect();
    picks.sort_unstable();
    let mut stream = QueryStream::new(domain, seed);
    let mut out = Vec::with_capacity(m);
    let mut next = 0u64;
    let mut current = stream.next_point();
    for p in picks {
        while next < p {
            current = stream.next_point();
            next += 1;
        }
        out.push(current.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_tolerance_and_order() {
        let want = [(3, 0.75), (1, 0.25)];
        assert!(answers_match(&[(3, 0.75 + 5e-10), (1, 0.25)], &want));
        assert!(!answers_match(&[(3, 0.75 + 2e-9), (1, 0.25)], &want));
        assert!(!answers_match(&[(1, 0.25), (3, 0.75)], &want));
        assert!(!answers_match(&[(3, 0.75)], &want));
    }

    #[test]
    fn sampled_points_come_from_the_issued_prefix() {
        let domain = HyperRect::cube(2, 0.0, 100.0);
        let mut stream = QueryStream::new(&domain, 9);
        let issued: Vec<Point> = (0..50).map(|_| stream.next_point()).collect();
        let picks = sampled_points(&domain, 9, 50, 20);
        assert_eq!(picks.len(), 20);
        assert!(picks.iter().all(|p| issued.contains(p)));
        assert_eq!(picks, sampled_points(&domain, 9, 50, 20));
    }
}
