//! Answer-semantics laws of the unified query API, checked across all four
//! engines (PV-index, R-tree baseline, UV-index, linear scan):
//!
//! * raising `threshold` yields a subset of the answers;
//! * `top_k(k)` is a prefix of `top_k(k + 1)`;
//! * both agree with the `LinearScan` ground truth (exactly for the exact
//!   engines, at high recall for the approximate UV-index);
//! * `query_batch` (sequential and parallel) matches per-query execution;
//! * Step-2 early termination never changes a reported probability;
//! * a query point with a NaN or infinite coordinate is rejected.

use pv_suite::core::baseline::RTreeBaseline;
use pv_suite::core::{
    verify, Db, LinearScan, ProbNnEngine, PvIndex, PvParams, QueryError, QueryOutcome,
    QueryScratch, QuerySpec,
};
use pv_suite::geom::Point;
use pv_suite::uncertain::UncertainDb;
use pv_suite::uvindex::{UvIndex, UvParams};
use pv_suite::workload::{queries, synthetic, SyntheticConfig};

const TAUS: [f64; 5] = [0.0, 0.02, 0.1, 0.3, 0.7];

fn db2d(n: usize, seed: u64) -> UncertainDb {
    synthetic(&SyntheticConfig {
        n,
        dim: 2,
        max_side: 150.0,
        samples: 16,
        seed,
    })
}

fn workload(db: &UncertainDb, m: usize, seed: u64) -> Vec<Point> {
    queries::uniform(&db.domain, m, seed)
}

/// The internal laws every engine must satisfy, exact or not.
fn check_internal_laws<E: ProbNnEngine + Sync>(engine: &E, qs: &[Point]) {
    for q in qs {
        let default = engine.execute(q, &QuerySpec::new()).expect("query");
        let mut prev = default.answers.clone();
        prev.retain(|&(_, p)| p > 0.0);
        for tau in TAUS {
            let cur = engine
                .execute(q, &QuerySpec::new().with_threshold(tau))
                .expect("query")
                .answers;
            assert!(
                cur.iter().all(|a| prev.contains(a)),
                "{}: threshold({tau}) is not a subset at {q:?}",
                engine.engine_name()
            );
            prev = cur;
        }
        let mut prefix: Vec<(u64, f64)> = Vec::new();
        for k in 1..=6 {
            let cur = engine
                .execute(q, &QuerySpec::new().with_top_k(k))
                .expect("query")
                .answers;
            assert!(cur.len() <= k);
            assert_eq!(
                &cur[..prefix.len()],
                &prefix[..],
                "{}: top_k({k}) does not extend top_k({})",
                engine.engine_name(),
                k - 1
            );
            assert!(
                cur.iter().all(|&(_, p)| p > 0.0),
                "top-k answers must have positive probability"
            );
            prefix = cur;
        }
        // early termination may skip payloads but never changes probabilities
        let pruned = engine
            .execute(q, &QuerySpec::new().with_threshold(0.0))
            .expect("query");
        for &(id, p) in &pruned.answers {
            assert_eq!(
                default.answers.iter().find(|&&(aid, _)| aid == id),
                Some(&(id, p)),
                "{}: pruning changed P({id}) at {q:?}",
                engine.engine_name()
            );
        }
        assert!(pruned.stats.pc_io_reads <= default.stats.pc_io_reads);
    }
}

/// Exact engines must match the linear scan bit-for-bit under every spec.
fn check_against_ground_truth<E: ProbNnEngine + Sync>(
    engine: &E,
    scan: &LinearScan,
    db: &UncertainDb,
    qs: &[Point],
) {
    for q in qs {
        let want_ids = verify::possible_nn(db.objects.iter(), q);
        let step1 = engine
            .execute(q, &QuerySpec::new().with_step1_only())
            .expect("query");
        assert_eq!(
            step1.candidates,
            want_ids,
            "{}: step1 differs at {q:?}",
            engine.engine_name()
        );
        assert!(step1.answers.is_empty());
        assert_eq!(
            engine.execute(q, &QuerySpec::new()).expect("query").answers,
            scan.execute(q, &QuerySpec::new()).expect("query").answers,
            "{}: default answers differ at {q:?}",
            engine.engine_name()
        );
        for tau in TAUS {
            let spec = QuerySpec::new().with_threshold(tau);
            assert_eq!(
                engine.execute(q, &spec).expect("query").answers,
                scan.execute(q, &spec).expect("query").answers,
                "{}: threshold({tau}) differs at {q:?}",
                engine.engine_name()
            );
        }
        for k in [1usize, 3, 5] {
            let spec = QuerySpec::new().with_top_k(k);
            assert_eq!(
                engine.execute(q, &spec).expect("query").answers,
                scan.execute(q, &spec).expect("query").answers,
                "{}: top_k({k}) differs at {q:?}",
                engine.engine_name()
            );
        }
    }
}

/// Batched execution must equal per-query execution, at any thread count.
fn check_batch<E: ProbNnEngine + Sync>(engine: &E, qs: &[Point]) {
    let spec = QuerySpec::new().with_top_k(4);
    let seq = engine
        .query_batch(qs, &spec.clone().with_batch_threads(1))
        .expect("batch");
    let par = engine
        .query_batch(qs, &spec.clone().with_batch_threads(4))
        .expect("batch");
    assert_eq!(seq.stats.queries, qs.len());
    assert_eq!(par.stats.threads, 4.min(qs.len()));
    for (i, q) in qs.iter().enumerate() {
        let single = engine.execute(q, &spec).expect("query");
        assert_eq!(seq.outcomes[i].answers, single.answers);
        assert_eq!(par.outcomes[i].answers, single.answers);
        assert_eq!(seq.outcomes[i].candidates, single.candidates);
    }
    assert_eq!(
        seq.stats.answers,
        par.stats.answers,
        "{}: aggregate answer counts diverge",
        engine.engine_name()
    );
}

#[test]
fn exact_engines_satisfy_all_laws() {
    let db = db2d(250, 71);
    let params = PvParams::default();
    let pv = PvIndex::build(&db, params);
    let rt = RTreeBaseline::build(&db, params.rtree_fanout, params.page_size);
    let scan = LinearScan::with_page_size(&db, params.page_size);
    let qs = workload(&db, 25, 5);

    check_internal_laws(&pv, &qs);
    check_internal_laws(&rt, &qs);
    check_internal_laws(&scan, &qs);
    check_against_ground_truth(&pv, &scan, &db, &qs);
    check_against_ground_truth(&rt, &scan, &db, &qs);
    check_batch(&pv, &qs);
    check_batch(&rt, &qs);
    check_batch(&scan, &qs);
}

/// An approx-built PV-index (PR 8) is a fully *exact* engine: inflated UBRs
/// only admit extra Step-1 candidates, and Step 2 re-qualifies every one of
/// them — so it must pass the same laws and ground-truth checks as the
/// engines built with exact SE, not the UV-index's recall bound.
#[test]
fn approx_built_engine_satisfies_exact_laws() {
    let db = db2d(250, 74);
    let pv = PvIndex::build(&db, PvParams::default().approx_ubr(20.0));
    let scan = LinearScan::new(&db);
    let qs = workload(&db, 25, 8);

    check_internal_laws(&pv, &qs);
    check_against_ground_truth(&pv, &scan, &db, &qs);
    check_batch(&pv, &qs);
}

#[test]
fn uv_index_satisfies_laws_with_high_recall() {
    let db = db2d(250, 72);
    let uv = UvIndex::build(&db, UvParams::default());
    let scan = LinearScan::new(&db);
    let qs = workload(&db, 20, 6);

    check_internal_laws(&uv, &qs);
    check_batch(&uv, &qs);

    // The ray-marched UV cells are approximate; its thresholded answers
    // must still recall ≈ all of the ground truth's.
    let spec = QuerySpec::new().with_threshold(0.02);
    let mut found = 0usize;
    let mut expected = 0usize;
    for q in &qs {
        let want = scan.execute(q, &spec).expect("query").answer_ids();
        let got = uv.execute(q, &spec).expect("query").answer_ids();
        expected += want.len();
        found += want.iter().filter(|id| got.contains(id)).count();
    }
    let recall = found as f64 / expected.max(1) as f64;
    assert!(recall > 0.95, "UV thresholded recall {recall}");
}

#[test]
fn early_termination_saves_payload_io_somewhere() {
    // Over a whole workload the distmin-vs-cutoff skip must actually fire:
    // instances rarely touch their region's far corner, so some Step-1
    // candidate is provably irrelevant once its peers are fetched.
    let db = db2d(400, 73);
    let index = PvIndex::build(&db, PvParams::default());
    let mut skipped = 0usize;
    let mut io_pruned = 0u64;
    let mut io_full = 0u64;
    for q in workload(&db, 40, 7) {
        let full = index.execute(&q, &QuerySpec::new()).expect("query");
        let pruned = index
            .execute(&q, &QuerySpec::new().with_top_k(3))
            .expect("query");
        skipped += pruned.skipped_payloads;
        io_full += full.stats.pc_io_reads;
        io_pruned += pruned.stats.pc_io_reads;
    }
    assert!(
        skipped > 0,
        "expected early termination to skip at least one payload"
    );
    assert!(io_pruned < io_full, "pruning should save Step-2 I/O");
}

/// Every entry point rejects a query point with a NaN or infinite
/// coordinate as [`QueryError::NonFinitePoint`]: with such a point the
/// min/max-distance filter prunes nothing, so every object would come back
/// as an answer with a meaningless probability.
#[test]
fn non_finite_points_are_rejected() {
    fn check<E: ProbNnEngine + Sync>(engine: E) {
        let name = engine.engine_name();
        let good = Point::new(vec![5_000.0, 5_000.0]);
        let db = Db::new(engine);
        let reader = db.reader();
        let engine = reader.engine();
        for bad in [
            Point::new(vec![f64::NAN, 11.0]),
            Point::new(vec![11.0, f64::INFINITY]),
            Point::new(vec![f64::NEG_INFINITY, f64::NAN]),
        ] {
            let spec = QuerySpec::new();
            assert_eq!(
                engine.execute(&bad, &spec).err(),
                Some(QueryError::NonFinitePoint),
                "{name}: execute at {bad:?}"
            );
            let mut out = QueryOutcome::default();
            engine
                .execute_into(&good, &spec, &mut QueryScratch::default(), &mut out)
                .unwrap();
            assert!(!out.answers.is_empty());
            assert_eq!(
                engine.execute_into(&bad, &spec, &mut QueryScratch::default(), &mut out),
                Err(QueryError::NonFinitePoint),
                "{name}: execute_into at {bad:?}"
            );
            assert!(
                out.answers.is_empty(),
                "{name}: a rejected query leaves `out` cleared"
            );
            assert_eq!(
                engine
                    .query_batch(&[good.clone(), bad.clone()], &spec)
                    .err(),
                Some(QueryError::NonFinitePoint),
                "{name}: query_batch with {bad:?}"
            );
            assert_eq!(
                db.query(&bad, &spec).err(),
                Some(QueryError::NonFinitePoint),
                "{name}: Db::query at {bad:?}"
            );
        }
    }
    let db = db2d(20, 61);
    check(LinearScan::new(&db));
    check(PvIndex::build(&db, PvParams::default()));
}
