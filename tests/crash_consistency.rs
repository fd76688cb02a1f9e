//! Crash-consistency torture harness for the durable layer (PR 9).
//!
//! The contract under test: after *any* crash, recovery yields exactly the
//! state of some acknowledged-prefix version — never a torn hybrid, never a
//! state that drops an acknowledged-and-fsynced commit, and never a guess
//! when the damage is not a crash signature.
//!
//! * **Every-byte WAL cuts** (proptest, dims 2–4): run a random
//!   insert/remove commit sequence against a `DurableDb<PvIndex>`,
//!   recording each acknowledged version's object set and canonical
//!   snapshot bytes. Then replay the crash at *every byte prefix* of the
//!   WAL: recovery must succeed, land on an acknowledged version, lose no
//!   commit whose bytes were fully on disk at the cut, and reproduce that
//!   version's engine byte-for-byte.
//! * **Recovery across snapshot rotation** (proptest, dims 2–4): with a
//!   small drawn `compact_after_commits`, interleaved inserts and removes
//!   write new snapshot generations mid-sequence. After a crash behind the
//!   last commit, recovery loads the newest generation, replays the log
//!   past it, and must rebuild the live engine byte-for-byte — the index
//!   may keep no state that a snapshot drops.
//! * **Acknowledged states answer like the ground truth**: every recorded
//!   version is cross-checked against a `LinearScan` over its object set,
//!   so the byte-equality above transfers query correctness to every
//!   recovery outcome.
//! * **Snapshot damage fails closed**: truncated or bit-flipped snapshot
//!   generations yield typed `RecoveryError`s, not silently empty
//!   databases; mid-log corruption reports the last durable version.
//! * **Live torn writes**: a `FaultFs`-injected torn append makes the
//!   commit fail *without* acknowledging, the database stays usable, and
//!   a post-crash reopen recovers every acknowledged commit.
//!
//! The vendored proptest runner is deterministic; `PROPTEST_CASES` scales
//! the sweep for the scheduled deep-fuzz job.

use proptest::prelude::*;
use pv_suite::core::durable::{DurableDb, DurableOptions, SyncPolicy};
use pv_suite::core::{
    LinearScan, PersistentEngine, ProbNnEngine, PvIndex, PvParams, QuerySpec, RecoveryError,
};
use pv_suite::storage::wal::{WalError, WAL_HEADER_LEN};
use pv_suite::storage::{FaultFs, FaultKind, FaultPlan, Fs, ScheduledFault, StdFs};
use pv_suite::uncertain::{UncertainDb, UncertainObject};
use pv_suite::workload::{queries, synthetic, SyntheticConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;

/// Case count: small in the normal CI job, scaled by `PROPTEST_CASES` in
/// the scheduled deep-fuzz job.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
}

fn seed_db(n: usize, dim: usize, seed: u64) -> UncertainDb {
    synthetic(&SyntheticConfig {
        n,
        dim,
        max_side: 150.0,
        samples: 6,
        seed,
    })
}

/// No compaction, fsync on every commit: the WAL holds the whole history
/// and every acknowledgement is a durability promise the cuts can test.
fn opts() -> DurableOptions {
    DurableOptions {
        sync: SyncPolicy::EveryCommit,
        compact_after_commits: u64::MAX,
        compact_after_bytes: u64::MAX,
        ..DurableOptions::default()
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pv_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// One acknowledged version: its object set, its engine's canonical
/// snapshot bytes, and the WAL length at which its commit was fsynced.
struct Acked {
    objects: Vec<UncertainObject>,
    snapshot: Vec<u8>,
    durable_at: u64,
}

/// `opts()` with snapshot rotation after every `every` commits.
fn rotating_opts(every: u64) -> DurableOptions {
    DurableOptions {
        compact_after_commits: every,
        ..opts()
    }
}

/// Runs `steps` random commits against a fresh durable PvIndex in `dir`,
/// returning the per-version acknowledgement record (index = version).
fn run_commits(
    dir: &PathBuf,
    base: &UncertainDb,
    pool: Vec<UncertainObject>,
    steps: usize,
    rng: &mut StdRng,
    opts: DurableOptions,
) -> Vec<Acked> {
    let db = DurableDb::create(dir, PvIndex::build(base, PvParams::default()), opts).unwrap();
    let mut shadow = base.objects.clone();
    let mut acked = vec![Acked {
        objects: shadow.clone(),
        snapshot: db.db().reader().engine().snapshot_bytes().unwrap(),
        durable_at: db.wal_bytes(),
    }];
    let mut fresh = pool.into_iter();
    for k in 0..steps {
        let do_remove = !shadow.is_empty() && rng.gen_bool(0.35);
        let commit = if do_remove {
            let victim = shadow[rng.gen_range(0..shadow.len())].id;
            shadow.retain(|o| o.id != victim);
            db.remove(victim).unwrap()
        } else {
            let mut o = fresh.next().expect("pool sized to steps");
            o.id = 10_000 + k as u64;
            shadow.push(o.clone());
            db.insert(o).unwrap()
        };
        assert!(commit.synced, "EveryCommit must fsync before acknowledging");
        assert!(commit.compaction_error.is_none());
        assert_eq!(commit.version, (k + 1) as u64);
        acked.push(Acked {
            objects: shadow.clone(),
            snapshot: db.db().reader().engine().snapshot_bytes().unwrap(),
            durable_at: db.wal_bytes(),
        });
    }
    acked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The tentpole guarantee, exhaustively: cut the WAL at every byte
    /// prefix and recover. Each cut must land on an acknowledged version,
    /// keep every commit fully durable at the cut, and rebuild that
    /// version's engine byte-for-byte.
    #[test]
    fn every_wal_byte_cut_recovers_an_acknowledged_version(
        dim in 2usize..=4,
        seed in 0u64..1_000,
        steps in 4usize..=8,
    ) {
        let base = seed_db(10, dim, 900 + seed);
        let pool = seed_db(steps, dim, 5_000 + seed).objects;
        let mut rng = StdRng::seed_from_u64((seed << 8) | dim as u64);

        let live = fresh_dir(&format!("live_{dim}_{seed}"));
        let acked = run_commits(&live, &base, pool, steps, &mut rng, opts());
        let wal_bytes = std::fs::read(live.join("wal")).unwrap();
        let snap_bytes = std::fs::read(live.join("snap.0.pvix")).unwrap();
        prop_assert_eq!(wal_bytes.len() as u64, acked.last().unwrap().durable_at);

        // Every acknowledged state answers exactly like the ground truth,
        // so the byte-equality below carries query correctness with it.
        let specs = [
            QuerySpec::new(),
            QuerySpec::new().with_top_k(3),
            QuerySpec::new().with_threshold(0.05),
        ];
        for (v, a) in acked.iter().enumerate() {
            let engine = PvIndex::from_snapshot_bytes(&a.snapshot).unwrap();
            let scan = LinearScan::new(&UncertainDb::new(base.domain.clone(), a.objects.clone()));
            for q in queries::uniform(&base.domain, 4, 77 + seed) {
                for spec in &specs {
                    let got = engine.execute(&q, spec).expect("recovered query");
                    let want = scan.execute(&q, spec).expect("ground truth");
                    prop_assert_eq!(
                        &got.answers, &want.answers,
                        "acknowledged v{} diverges from LinearScan at {:?} under {:?}",
                        v, &q, spec
                    );
                }
            }
        }

        // The crash sweep. The WAL file header is written and fsynced by
        // `create` before any commit is acknowledged, so cuts start there.
        let crash = fresh_dir(&format!("cut_{dim}_{seed}"));
        for cut in (WAL_HEADER_LEN as usize)..=wal_bytes.len() {
            std::fs::write(crash.join("snap.0.pvix"), &snap_bytes).unwrap();
            std::fs::write(crash.join("wal"), &wal_bytes[..cut]).unwrap();
            let (rdb, report) = DurableDb::<PvIndex>::open(&crash, opts())
                .unwrap_or_else(|e| panic!("cut at byte {cut} must recover, got: {e}"));
            let v = report.recovered_version as usize;
            prop_assert!(v < acked.len(), "cut {} recovered unknown v{}", cut, v);
            // Zero lost acknowledged-and-fsynced commits: every version
            // whose acknowledgement point lies within the cut survives.
            let required = acked.iter().rposition(|a| a.durable_at <= cut as u64).unwrap();
            prop_assert!(
                v >= required,
                "cut {} lost acknowledged commits: recovered v{}, v{} was durable",
                cut, v, required
            );
            let got = rdb.db().reader().engine().snapshot_bytes().unwrap();
            prop_assert_eq!(
                &got, &acked[v].snapshot,
                "cut {} recovered v{} but its bytes differ from the acknowledged state",
                cut, v
            );
        }

        std::fs::remove_dir_all(&live).unwrap();
        std::fs::remove_dir_all(&crash).unwrap();
    }
}

/// Runs `steps` interleaved inserts and removes with snapshot rotation
/// every `every` commits, crashes behind the last acknowledged commit, and
/// reopens: recovery must start from the newest generation, replay only the
/// commits past it, and rebuild the live engine's canonical bytes. `tag`
/// keeps concurrently running tests out of each other's directories.
fn rotation_case(tag: &str, dim: usize, seed: u64, steps: usize, every: u64) {
    let base = seed_db(30, dim, 900 + seed);
    let pool = seed_db(steps, dim, 5_000 + seed).objects;
    let mut rng = StdRng::seed_from_u64((seed << 8) | dim as u64);
    let dir = fresh_dir(&format!("{tag}_{dim}_{seed}_{steps}_{every}"));
    // `run_commits` drops the live database when it returns: the crash.
    let acked = run_commits(&dir, &base, pool, steps, &mut rng, rotating_opts(every));
    let case = format!("dim {dim}, seed {seed}, {steps} commits, rotation every {every}");
    let (rdb, report) = DurableDb::<PvIndex>::open(&dir, rotating_opts(every))
        .unwrap_or_else(|e| panic!("{case}: recovery failed: {e}"));
    let steps = steps as u64;
    assert_eq!(report.recovered_version, steps, "{case}");
    assert_eq!(report.snapshot_version, steps / every * every, "{case}");
    assert_eq!(report.replayed_commits, steps % every, "{case}");
    let got = rdb.db().reader().engine().snapshot_bytes().unwrap();
    assert!(
        got == acked[acked.len() - 1].snapshot,
        "{case}: the recovered engine's bytes differ from the live engine's"
    );
    drop(rdb);
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Recovery across snapshot rotation reproduces the live engine.
    #[test]
    fn recovery_after_rotation_matches_the_live_bytes(
        dim in 2usize..=4,
        seed in 0u64..1_000,
        steps in 5usize..=10,
        every in 2u64..=4,
    ) {
        rotation_case("rot", dim, seed, steps, every);
    }
}

/// A fixed rotation case: three commits replayed past the generation
/// written at version 4.
#[test]
fn rotation_then_replay_matches_the_live_bytes() {
    rotation_case("rot_fixed", 2, 2, 7, 4);
}

/// Snapshot-generation damage is never papered over: a truncated or
/// bit-flipped `snap.<v>.pvix` fails recovery closed with the typed
/// [`RecoveryError::Snapshot`] chain, and a missing directory reports
/// [`RecoveryError::MissingGeneration`].
#[test]
fn damaged_snapshot_fails_closed() {
    let base = seed_db(10, 3, 42);
    let pool = seed_db(3, 3, 5_042).objects;
    let mut rng = StdRng::seed_from_u64(42);
    let dir = fresh_dir("snapdmg");
    let _ = run_commits(&dir, &base, pool, 3, &mut rng, opts());
    let snap = std::fs::read(dir.join("snap.0.pvix")).unwrap();

    for cut in [0, 1, snap.len() / 4, snap.len() / 2, snap.len() - 1] {
        std::fs::write(dir.join("snap.0.pvix"), &snap[..cut]).unwrap();
        match DurableDb::<PvIndex>::open(&dir, opts()) {
            Err(RecoveryError::Snapshot { path, .. }) => {
                assert!(path.ends_with("snap.0.pvix"), "wrong path: {path:?}");
            }
            Err(other) => panic!("snapshot cut {cut}: wrong error: {other}"),
            Ok(_) => panic!("snapshot cut {cut} must not recover"),
        }
    }

    let mut flipped = snap.clone();
    flipped[snap.len() / 2] ^= 0x10;
    std::fs::write(dir.join("snap.0.pvix"), &flipped).unwrap();
    assert!(
        matches!(
            DurableDb::<PvIndex>::open(&dir, opts()),
            Err(RecoveryError::Snapshot { .. })
        ),
        "bit-flipped snapshot must fail closed"
    );

    std::fs::remove_dir_all(&dir).unwrap();
    match DurableDb::<PvIndex>::open(&dir, opts()) {
        Err(RecoveryError::Io(_)) | Err(RecoveryError::MissingGeneration { .. }) => {}
        other => panic!("missing dir: unexpected outcome: {other:?}"),
    }
}

/// Mid-log corruption (a bit flip inside a fully-written record, with more
/// records after it) is *not* a crash signature: recovery must refuse with
/// [`WalError::Corrupt`] and report the last version readable before the
/// damage, rather than silently truncating history.
#[test]
fn mid_log_bit_flip_reports_last_durable_version() {
    let base = seed_db(10, 2, 7);
    let pool = seed_db(3, 2, 5_007).objects;
    let mut rng = StdRng::seed_from_u64(7);
    let dir = fresh_dir("midlog");
    let acked = run_commits(&dir, &base, pool, 3, &mut rng, opts());

    // Flip a byte in commit record 2's body: the record after commit 1's
    // fsync point, well before EOF (commit 3 and its marker follow).
    let mut wal = std::fs::read(dir.join("wal")).unwrap();
    let rec2_start = acked[1].durable_at as usize;
    wal[rec2_start + 30] ^= 0x08; // 24-byte header + a few body bytes in
    std::fs::write(dir.join("wal"), &wal).unwrap();

    match DurableDb::<PvIndex>::open(&dir, opts()) {
        Err(RecoveryError::Log(WalError::Corrupt {
            last_durable_version,
            ..
        })) => assert_eq!(
            last_durable_version, 1,
            "corruption in record 2 leaves v1 as the last durable version"
        ),
        other => panic!("mid-log corruption: unexpected outcome: {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A torn write during a live commit: the commit must fail without
/// acknowledging, the database must remain usable for further commits,
/// and a post-crash reopen must recover every acknowledged commit.
#[test]
fn live_torn_append_is_unacknowledged_and_recoverable() {
    let base = seed_db(10, 2, 11);
    let pool = seed_db(4, 2, 5_011).objects;
    let dir = fresh_dir("livetorn");

    let ffs = Arc::new(FaultFs::new(StdFs, FaultPlan::none()));
    let fs: Arc<dyn Fs> = ffs.clone();
    let db =
        DurableDb::create_with_fs(fs, &dir, PvIndex::build(&base, PvParams::default()), opts())
            .unwrap();

    let mut objs = pool.into_iter();
    let mut o1 = objs.next().unwrap();
    o1.id = 10_001;
    let c1 = db.insert(o1.clone()).unwrap();
    assert!(c1.synced);

    // Tear the WAL append of commit 2. The append is preceded by a length
    // probe (and possibly a truncate), where a TornWrite passes through
    // harmlessly — so arm the next few operations and let the append be
    // the one that tears.
    let mut o2 = objs.next().unwrap();
    o2.id = 10_002;
    let next = ffs.ops();
    ffs.set_plan(FaultPlan::new(
        (next..next + 3)
            .map(|op| ScheduledFault {
                op,
                kind: FaultKind::TornWrite { keep: 10 },
            })
            .collect(),
    ));
    let err = db.insert(o2.clone()).unwrap_err();
    assert!(
        !ffs.fired().is_empty(),
        "the scheduled torn write must have fired: {err}"
    );
    ffs.set_plan(FaultPlan::none());
    assert_eq!(db.db().version(), 1, "a failed commit must not publish");
    assert!(!db.is_poisoned(), "rolled-back torn append must not poison");

    // The database remains usable: the same logical update goes through.
    let c2 = db.insert(o2).unwrap();
    assert_eq!(c2.version, 2);
    let expected = db.db().reader().engine().snapshot_bytes().unwrap();
    drop(db);

    // Crash-and-reopen from plain disk: both acknowledged commits survive.
    let (rdb, report) = DurableDb::<PvIndex>::open(&dir, opts()).unwrap();
    assert_eq!(report.recovered_version, 2);
    assert_eq!(report.replayed_commits, 2);
    assert_eq!(
        rdb.db().reader().engine().snapshot_bytes().unwrap(),
        expected,
        "recovery after a rolled-back torn write must match the live state"
    );
    drop(rdb);
    std::fs::remove_dir_all(&dir).unwrap();
}
