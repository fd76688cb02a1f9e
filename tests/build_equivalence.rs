//! Build-equivalence suite for the construction pipeline.
//!
//! The build has two independently swappable parts — work-stealing Phase-1
//! parallelism and the opt-in approximate-UBR mode — and each one is only
//! admissible if it is *invisible* in the artifact, or provably sound. The
//! lock is byte equality of canonical snapshots: [`pv_index_to_bytes`]
//! re-emits the disk image from the logical state, so two builds serialise
//! identically iff they agree on every UBR, every octree split decision and
//! every stored record.
//!
//! * **parallel ≡ serial** (threads 0/2/4/8, dims 2–4, with and without UBR
//!   quantization): the work-stealing scheduler's batch merge must make
//!   thread count unobservable;
//! * **approx soundness**: `approx_ubr(ε)` may inflate each stored UBR by at
//!   most ε per axis side, and never changes query answers;
//! * **worker panics are values**: a poisoned object surfaces as
//!   [`BuildError::WorkerPanicked`] from `try_build`, at any thread count;
//! * **empty databases build**: at any thread count, and the empty index
//!   takes a first insert.
//!
//! The vendored proptest runner is deterministic; `PROPTEST_CASES` scales
//! the case count for the scheduled deep-fuzz job (as in `cow_sharing.rs`).

use proptest::prelude::*;
use pv_suite::core::snapshot::pv_index_to_bytes;
use pv_suite::core::{BuildError, LinearScan, ProbNnEngine, PvIndex, PvParams, QuerySpec};
use pv_suite::uncertain::UncertainDb;
use pv_suite::workload::{queries, synthetic, SyntheticConfig};

/// Case count: small in the normal CI job (several builds per case), scaled
/// up by `PROPTEST_CASES` in the scheduled deep-fuzz job.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(6)
}

fn seed_db(n: usize, dim: usize, seed: u64) -> UncertainDb {
    synthetic(&SyntheticConfig {
        n,
        dim,
        max_side: 120.0,
        samples: 8,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Work-stealing workers race for object batches, so only the
    /// deterministic batch merge keeps thread count out of the artifact:
    /// every thread count (0 runs one worker, as 1 does) must serialise to
    /// the serial build's bytes — including under UBR quantization, whose
    /// shorter secondary records shift every page-fit decision.
    #[test]
    fn parallel_build_matches_serial_bytes(
        dim in 2usize..=4,
        n in 40usize..=160,
        seed in 0u64..1_000,
        quantize in any::<bool>(),
    ) {
        let db = seed_db(n, dim, 11_000 + seed);
        let serial = PvParams {
            ubr_quantize_steps: quantize.then_some(2_048u16),
            ..Default::default()
        };
        let want = pv_index_to_bytes(&PvIndex::build(&db, serial));
        for threads in [0usize, 2, 4, 8] {
            let params = PvParams {
                build_threads: threads,
                ..serial
            };
            prop_assert_eq!(
                &pv_index_to_bytes(&PvIndex::build(&db, params)),
                &want,
                "{}-thread build diverges from serial (dim {}, n {}, seed {}, quantize {})",
                threads, dim, n, seed, quantize
            );
        }
    }

    /// Approximate-UBR soundness: every approx UBR contains its exact
    /// counterpart (SE only *stops refining earlier*, it never cuts deeper),
    /// exceeds it by at most ε per axis side, and — because Step 2
    /// re-qualifies every candidate — answers stay identical to the ground
    /// truth on every spec.
    #[test]
    fn approx_mode_is_sound_and_answers_exactly(
        dim in 2usize..=3,
        seed in 0u64..1_000,
    ) {
        let epsilon = 25.0;
        let db = seed_db(70, dim, 15_000 + seed);
        let exact = PvIndex::build(&db, PvParams::default());
        let approx = PvIndex::build(&db, PvParams::default().approx_ubr(epsilon));

        for o in &db.objects {
            let e = exact.ubr(o.id).unwrap();
            let a = approx.ubr(o.id).unwrap();
            for d in 0..dim {
                prop_assert!(
                    a.lo()[d] <= e.lo()[d] + 1e-9 && a.hi()[d] >= e.hi()[d] - 1e-9,
                    "approx B({}) does not contain the exact UBR on axis {d}",
                    o.id
                );
                prop_assert!(
                    e.lo()[d] - a.lo()[d] <= epsilon + 1e-9
                        && a.hi()[d] - e.hi()[d] <= epsilon + 1e-9,
                    "approx B({}) exceeds the ε bound on axis {d}: exact [{}, {}], approx [{}, {}]",
                    o.id, e.lo()[d], e.hi()[d], a.lo()[d], a.hi()[d]
                );
            }
        }

        let scan = LinearScan::new(&db);
        let specs = [
            QuerySpec::new(),
            QuerySpec::new().with_top_k(3),
            QuerySpec::new().with_threshold(0.05),
        ];
        for q in queries::uniform(&db.domain, 8, 55 + seed) {
            for spec in &specs {
                prop_assert_eq!(
                    &approx.execute(&q, spec).expect("approx query").answers,
                    &scan.execute(&q, spec).expect("ground truth").answers,
                    "approx-built index diverges from LinearScan at {:?} under {:?}",
                    &q, spec
                );
            }
        }
    }
}

/// A panicking Phase-1 worker must come back as a typed error from
/// `try_build` — at every thread count, a serial build included — with the
/// panic message preserved, and must not leave detached threads running
/// (thread::scope joins all workers before `try_build` returns).
#[test]
fn poisoned_worker_surfaces_as_build_error() {
    use pv_suite::core::index::BUILD_POISON_ID;
    use std::sync::atomic::Ordering;

    // The poison id exists only in this test's database, so the global
    // fail-point cannot trip concurrently running builds (their ids are
    // disjoint small integers or 10_000+/20_000+ ranges).
    let mut db = seed_db(60, 2, 99);
    let victim = 777_000_777u64;
    db.objects[30].id = victim;

    BUILD_POISON_ID.store(victim, Ordering::SeqCst);
    for threads in [0usize, 1, 2, 4] {
        let params = PvParams {
            build_threads: threads,
            ..Default::default()
        };
        match PvIndex::try_build(&db, params) {
            Err(BuildError::WorkerPanicked { message }) => assert!(
                message.contains("poisoned object 777000777"),
                "{threads}-thread build lost the panic message: {message:?}"
            ),
            Err(e) => panic!("unexpected build error variant: {e}"),
            Ok(_) => panic!("{threads}-thread build swallowed the worker panic"),
        }
    }
    BUILD_POISON_ID.store(u64::MAX, Ordering::SeqCst);

    // With the fail-point disarmed the same database builds fine.
    assert_eq!(
        PvIndex::try_build(&db, PvParams::default()).unwrap().len(),
        60
    );
}

/// An empty database has no Phase-1 batch, yet every thread count —
/// `build_threads: 0` included — still runs one worker and builds; the
/// empty index then takes a first insert and answers like a scan.
#[test]
fn empty_database_builds_and_accepts_an_insert() {
    let one = seed_db(1, 2, 123);
    let empty = UncertainDb::new(one.domain.clone(), Vec::new());
    let q = one.objects[0].region.center();
    let want = LinearScan::new(&one)
        .execute(&q, &QuerySpec::new())
        .expect("ground truth")
        .answers;
    for threads in [0usize, 1, 2] {
        let params = PvParams {
            build_threads: threads,
            ..Default::default()
        };
        let mut index = PvIndex::try_build(&empty, params).expect("empty build");
        assert!(index.is_empty(), "{threads}-thread build of nothing");
        index
            .insert(one.objects[0].clone())
            .expect("first insert into an empty index");
        assert_eq!(index.ids(), vec![one.objects[0].id]);
        let got = index.execute(&q, &QuerySpec::new()).expect("query");
        assert_eq!(got.answers, want, "{threads}-thread build");
    }
}
