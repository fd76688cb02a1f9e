//! Crash-safe durability: the write-ahead-logged, snapshot-rotated `Db`.
//!
//! [`Db`] commits are volatile — a crash between a commit
//! and a manual [`Db::save`](crate::db::Db::save) loses every acknowledged
//! write. [`DurableDb`] closes that gap with the classic WAL + checkpoint
//! protocol over a directory it owns:
//!
//! ```text
//! <dir>/wal                  append-only commit log (pv-storage::wal)
//! <dir>/snap.<v>.pvix        current snapshot generation (engine at v)
//! <dir>/snap.<v'>.tmp        in-flight rotation (removed at recovery)
//! ```
//!
//! **Commit path.** Each [`DurableDb::commit`] applies its operation batch
//! to a copy-on-write fork (validating every operation *before* anything
//! touches disk), appends the encoded batch to the WAL, fsyncs per the
//! [`SyncPolicy`], and only then publishes the successor snapshot to
//! readers. An operation batch is therefore acknowledged if and only if it
//! is in the log; a crash at any byte of the append leaves a torn tail the
//! next replay truncates away — exactly the unacknowledged suffix.
//!
//! **Rotation (compaction).** When the log passes the [`DurableOptions`]
//! watermarks, the current engine state is written to `snap.<v>.tmp`,
//! fsynced, atomically renamed over the previous generation, the directory
//! entry fsynced, and the log truncated back to its header. Every step is
//! crash-safe: until the `rename(2)` commits, recovery uses the old
//! generation plus the full log; after it, replay skips records the new
//! generation already contains.
//!
//! **Recovery.** [`DurableDb::open`] removes leftover `.tmp` files, loads
//! the newest `snap.<v>.pvix`, replays the WAL's surviving records with
//! version > v through the engine's own `apply_insert`/`apply_remove`, and
//! resumes at the recovered version. Damage beyond the tolerated crash
//! signatures is never guessed around — see
//! [`RecoveryError`] for the taxonomy.
//!
//! All file I/O runs through an injectable [`Fs`], so the
//! crash-consistency torture suite (`tests/crash_consistency.rs`) can cut
//! writes at every byte and prove the "exactly some acknowledged-prefix
//! version" invariant holds.
//!
//! ```
//! use pv_core::durable::{DbOp, DurableDb, DurableOptions};
//! use pv_core::{LinearScan, QuerySpec};
//! use pv_geom::{HyperRect, Point};
//! use pv_uncertain::{UncertainDb, UncertainObject};
//!
//! let dir = std::env::temp_dir().join(format!("pv_durable_doc_{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let domain = HyperRect::cube(2, 0.0, 100.0);
//! let objects = (0..4u64)
//!     .map(|i| {
//!         let lo = vec![i as f64 * 20.0, 40.0];
//!         UncertainObject::uniform(i, HyperRect::new(lo.clone(), vec![lo[0] + 5.0, 46.0]), 8)
//!     })
//!     .collect();
//! let scan = LinearScan::new(&UncertainDb::new(domain, objects));
//!
//! // Create: snapshot generation 0 + empty WAL hit disk before returning.
//! let db = DurableDb::create(&dir, scan, DurableOptions::default())?;
//! let commit = db.insert(UncertainObject::uniform(
//!     99,
//!     HyperRect::new(vec![1.0, 41.0], vec![3.0, 43.0]),
//!     8,
//! ))?;
//! assert!(commit.synced, "EveryCommit policy: acknowledged = crash-durable");
//! drop(db);
//!
//! // Reopen: the acknowledged insert survives.
//! let (db, report) = DurableDb::<LinearScan>::open(&dir, DurableOptions::default())?;
//! assert_eq!(report.replayed_commits, 1);
//! assert_eq!(db.db().version(), 1);
//! let hit = db.db().query(&Point::new(vec![2.0, 42.0]), &QuerySpec::new().with_top_k(1))?;
//! assert_eq!(hit.best().unwrap().0, 99);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::db::{Db, PersistentEngine, WritableEngine};
use crate::error::{DbError, RecoveryError, SnapshotError};
use crate::stats::UpdateStats;
use pv_storage::codec::{self, DecodeError};
use pv_storage::fsio::{Fs, RetryPolicy, StdFs};
use pv_storage::wal::{TornTail, Wal};
use pv_uncertain::UncertainObject;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// One engine-level mutation, as logged and replayed.
#[derive(Debug, Clone, PartialEq)]
pub enum DbOp {
    /// Insert an object.
    Insert(UncertainObject),
    /// Remove the object with this id.
    Remove(u64),
}

const OP_INSERT: u8 = 1;
const OP_REMOVE: u8 = 2;

/// Encodes an operation batch as a WAL record body.
pub fn encode_ops(ops: &[DbOp]) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_u32_len(&mut out, ops.len());
    for op in ops {
        match op {
            DbOp::Insert(o) => {
                codec::put_u8(&mut out, OP_INSERT);
                codec::put_bytes(&mut out, &o.encode());
            }
            DbOp::Remove(id) => {
                codec::put_u8(&mut out, OP_REMOVE);
                codec::put_u64(&mut out, *id);
            }
        }
    }
    out
}

/// Decodes a WAL record body written by [`encode_ops`].
pub fn decode_ops(bytes: &[u8]) -> Result<Vec<DbOp>, DecodeError> {
    let mut r = codec::Reader::new(bytes);
    let n = r.try_u32()? as usize;
    let mut ops = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        match r.try_u8()? {
            OP_INSERT => {
                let rec = r.try_bytes()?;
                ops.push(DbOp::Insert(UncertainObject::try_decode(&rec)?));
            }
            OP_REMOVE => ops.push(DbOp::Remove(r.try_u64()?)),
            t => {
                return Err(DecodeError::UnknownTag {
                    context: "durable operation",
                    tag: t.into(),
                })
            }
        }
    }
    if r.remaining() != 0 {
        return Err(DecodeError::Invalid {
            context: "durable operation batch (trailing bytes)",
        });
    }
    Ok(ops)
}

/// When acknowledged commits are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every commit: an `Ok` means the write survives any
    /// crash. The default — and the policy the durability guarantees in
    /// the module docs are stated for.
    EveryCommit,
    /// `fsync` after every `n`-th commit: bounded loss window in exchange
    /// for amortised fsync cost (group commit).
    EveryN(u32),
    /// Only [`DurableDb::sync`] fsyncs. Acknowledged-but-unsynced commits
    /// can be lost to a crash — recovery still lands on an acknowledged
    /// *prefix*, just maybe not the newest.
    Manual,
}

/// Tuning for a [`DurableDb`].
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// Fsync cadence for the commit path.
    pub sync: SyncPolicy,
    /// Rotate the snapshot once the log holds this many commits.
    pub compact_after_commits: u64,
    /// Rotate the snapshot once the log reaches this many bytes.
    pub compact_after_bytes: u64,
    /// Retry budget for transient I/O faults on the durable path.
    pub retry: RetryPolicy,
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self {
            sync: SyncPolicy::EveryCommit,
            compact_after_commits: 1024,
            compact_after_bytes: 16 << 20,
            retry: RetryPolicy::default(),
        }
    }
}

/// What [`DurableDb::open`] found and repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Version of the snapshot generation recovery started from.
    pub snapshot_version: u64,
    /// WAL commits replayed on top of it.
    pub replayed_commits: u64,
    /// The version the database resumed at.
    pub recovered_version: u64,
    /// Highest version an fsync-point marker guarantees durable. Every
    /// commit ≤ this was acknowledged *and* synced, and all of them were
    /// recovered (the zero-loss guarantee).
    pub synced_version: u64,
    /// The torn WAL tail that was truncated away, if the crash left one.
    pub torn_tail: Option<TornTail>,
    /// Leftover `snap.*.tmp` files from an interrupted rotation, removed.
    pub removed_tmp_files: usize,
}

/// The result of one durable commit.
#[derive(Debug)]
#[must_use = "check whether the commit was synced and whether compaction failed"]
pub struct DurableCommit {
    /// The version the batch published.
    pub version: u64,
    /// Per-operation engine statistics, in batch order.
    pub stats: Vec<UpdateStats>,
    /// True when this commit is already fsynced (per the [`SyncPolicy`]).
    pub synced: bool,
    /// A snapshot rotation was triggered by the watermarks and failed.
    /// The commit itself *is* durable; the log just keeps growing until a
    /// later rotation (or an explicit [`DurableDb::compact`]) succeeds.
    pub compaction_error: Option<DbError>,
}

struct DurableState {
    wal: Wal,
    /// Version of the current `snap.<v>.pvix` generation.
    snapshot_version: u64,
    /// Commits acknowledged since the last fsync (for [`SyncPolicy::EveryN`]).
    unsynced_commits: u32,
    /// Set when a failed WAL append could not be rolled back; all further
    /// writes are refused with [`DbError::Poisoned`].
    poisoned: bool,
}

/// A [`Db`] whose commits survive crashes: write-ahead logged, fsynced per
/// policy, and periodically checkpointed via atomic snapshot rotation.
///
/// Reads go through the inner [`Db`] ([`DurableDb::db`]) and keep all of
/// its properties — snapshot isolation, pooled sessions, wait-free readers.
/// Writes **must** go through [`DurableDb::commit`] (or the
/// [`DurableDb::insert`]/[`DurableDb::remove`] wrappers): writing through
/// the inner `Db` directly would publish state the log does not contain.
pub struct DurableDb<E> {
    db: Db<E>,
    dir: PathBuf,
    fs: Arc<dyn Fs>,
    opts: DurableOptions,
    /// Also the writer lock: every durable mutation holds it end-to-end,
    /// so the WAL order and the publication order are the same order.
    state: Mutex<DurableState>,
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal")
}

fn snap_path(dir: &Path, version: u64) -> PathBuf {
    dir.join(format!("snap.{version}.pvix"))
}

fn snap_tmp_path(dir: &Path, version: u64) -> PathBuf {
    dir.join(format!("snap.{version}.tmp"))
}

/// Parses `snap.<v>.pvix` names; returns the generation version.
fn parse_snap_name(path: &Path) -> Option<u64> {
    path.file_name()?
        .to_str()?
        .strip_prefix("snap.")?
        .strip_suffix(".pvix")?
        .parse()
        .ok()
}

fn is_tmp_name(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("snap.") && n.ends_with(".tmp"))
}

impl<E: WritableEngine + PersistentEngine> DurableDb<E> {
    /// Initialises `dir` as a durable database holding `engine` at version
    /// 0: the initial snapshot generation and an empty WAL are fully on
    /// disk (fsynced) before this returns. Any previous durable state in
    /// `dir` is replaced.
    ///
    /// # Errors
    /// [`DbError::Snapshot`] / [`DbError::Wal`] on I/O failure; nothing
    /// usable is left behind on error.
    pub fn create(dir: impl AsRef<Path>, engine: E, opts: DurableOptions) -> Result<Self, DbError> {
        Self::create_with_fs(Arc::new(StdFs), dir, engine, opts)
    }

    /// [`DurableDb::create`] over an injectable filesystem (the fault
    /// harness's entry point).
    pub fn create_with_fs(
        fs: Arc<dyn Fs>,
        dir: impl AsRef<Path>,
        engine: E,
        opts: DurableOptions,
    ) -> Result<Self, DbError> {
        let dir = dir.as_ref().to_path_buf();
        fs.create_dir_all(&dir)?;
        // Clear any stale generations so recovery cannot resurrect them.
        if let Ok(files) = fs.list(&dir) {
            for f in files {
                if parse_snap_name(&f).is_some() || is_tmp_name(&f) {
                    let _ = fs.remove(&f);
                }
            }
        }
        let bytes = engine.snapshot_bytes()?;
        let tmp = snap_tmp_path(&dir, 0);
        fs.write(&tmp, &bytes)?;
        fs.sync(&tmp)?;
        fs.rename(&tmp, &snap_path(&dir, 0))?;
        fs.sync_dir(&dir)?;
        let wal = Wal::create(Arc::clone(&fs), &wal_path(&dir), opts.retry)?;
        Ok(Self {
            db: Db::new(engine),
            dir,
            fs,
            opts,
            state: Mutex::new(DurableState {
                wal,
                snapshot_version: 0,
                unsynced_commits: 0,
                poisoned: false,
            }),
        })
    }

    /// Recovers a durable database from `dir`: loads the newest snapshot
    /// generation, replays the WAL's surviving suffix, and reports what
    /// was found (including tolerated crash signatures — a torn log tail,
    /// leftover rotation temporaries).
    ///
    /// # Errors
    /// See [`RecoveryError`]; recovery never guesses around damage it
    /// cannot classify as a crash signature.
    pub fn open(
        dir: impl AsRef<Path>,
        opts: DurableOptions,
    ) -> Result<(Self, RecoveryReport), RecoveryError> {
        Self::open_with_fs(Arc::new(StdFs), dir, opts)
    }

    /// [`DurableDb::open`] over an injectable filesystem.
    pub fn open_with_fs(
        fs: Arc<dyn Fs>,
        dir: impl AsRef<Path>,
        opts: DurableOptions,
    ) -> Result<(Self, RecoveryReport), RecoveryError> {
        let dir = dir.as_ref().to_path_buf();
        let files = fs.list(&dir)?;

        // An interrupted rotation can leave `snap.<v>.tmp`; it was never
        // renamed in, so it is not part of the durable state.
        let mut removed_tmp_files = 0;
        let mut newest: Option<(u64, PathBuf)> = None;
        for f in &files {
            if is_tmp_name(f) {
                fs.remove(f)?;
                removed_tmp_files += 1;
            } else if let Some(v) = parse_snap_name(f) {
                if newest.as_ref().is_none_or(|(best, _)| v > *best) {
                    newest = Some((v, f.clone()));
                }
            }
        }
        let (snapshot_version, snap) =
            newest.ok_or(RecoveryError::MissingGeneration { dir: dir.clone() })?;

        let bytes = fs.read(&snap)?;
        let mut engine = E::from_snapshot_bytes(&bytes).map_err(|e| RecoveryError::Snapshot {
            path: snap.clone(),
            source: SnapshotError::from(e),
        })?;

        let (wal, replay) = Wal::open(Arc::clone(&fs), &wal_path(&dir), opts.retry)?;
        let mut version = snapshot_version;
        let mut replayed_commits = 0u64;
        for rec in &replay.records {
            if rec.version <= snapshot_version {
                // Rotation raced the crash: the generation already holds
                // this commit, the log just was not truncated yet.
                continue;
            }
            if rec.version != version + 1 {
                return Err(RecoveryError::VersionGap {
                    expected: version + 1,
                    found: rec.version,
                });
            }
            let ops = decode_ops(&rec.body).map_err(|e| RecoveryError::BadRecord {
                version: rec.version,
                source: e,
            })?;
            for op in ops {
                let applied = match op {
                    DbOp::Insert(o) => engine.apply_insert(o),
                    DbOp::Remove(id) => engine.apply_remove(id),
                };
                applied.map_err(|e| RecoveryError::Apply {
                    version: rec.version,
                    source: Box::new(e),
                })?;
            }
            version = rec.version;
            replayed_commits += 1;
        }

        let report = RecoveryReport {
            snapshot_version,
            replayed_commits,
            recovered_version: version,
            synced_version: replay.synced_version.max(snapshot_version),
            torn_tail: replay.torn_tail,
            removed_tmp_files,
        };
        Ok((
            Self {
                db: Db::at_version(engine, version),
                dir,
                fs,
                opts,
                state: Mutex::new(DurableState {
                    wal,
                    snapshot_version,
                    unsynced_commits: 0,
                    poisoned: false,
                }),
            },
            report,
        ))
    }

    /// Applies one operation batch durably: validate on a copy-on-write
    /// fork, append to the WAL, fsync per policy, publish to readers —
    /// in that order, so an `Ok` means the batch is logged (and, under
    /// [`SyncPolicy::EveryCommit`], crash-durable), and an `Err` means no
    /// reader will ever observe it and no replay will ever apply it.
    ///
    /// # Errors
    /// Engine validation errors ([`DbError::DuplicateId`], …) leave disk
    /// untouched. [`DbError::Wal`] means the append or fsync failed and
    /// was rolled back. [`DbError::Poisoned`] means a previous rollback
    /// failed — reopen to recover.
    pub fn commit(&self, ops: &[DbOp]) -> Result<DurableCommit, DbError> {
        let mut guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let state = &mut *guard;
        if state.poisoned {
            return Err(DbError::Poisoned);
        }
        let version = self.db.version() + 1;
        let body = encode_ops(ops);
        let mut synced = false;
        let mark = state.wal.mark();
        let wal = &mut state.wal;
        let unsynced = &mut state.unsynced_commits;
        let sync_policy = self.opts.sync;
        let result = self.db.commit(|e| {
            // 1. Validate and apply every operation on the fork. Any
            //    engine error aborts before a byte is written.
            let mut stats = Vec::with_capacity(ops.len());
            for op in ops {
                stats.push(match op {
                    DbOp::Insert(o) => e.apply_insert(o.clone())?,
                    DbOp::Remove(id) => e.apply_remove(*id)?,
                });
            }
            // 2. Log, then 3. sync per policy. Only after both does
            //    Db::commit publish the fork.
            wal.append_commit(version, &body)?;
            match sync_policy {
                SyncPolicy::EveryCommit => {
                    wal.sync()?;
                    synced = true;
                }
                SyncPolicy::EveryN(n) => {
                    *unsynced += 1;
                    if *unsynced >= n {
                        wal.sync()?;
                        *unsynced = 0;
                        synced = true;
                    }
                }
                SyncPolicy::Manual => {}
            }
            Ok(stats)
        });

        let stats = match result {
            Ok(stats) => stats,
            Err(e) => {
                // Engine validation errors abort before the append — disk
                // was never touched, so there is nothing to verify or roll
                // back (and a transient stat failure must not poison a
                // database whose log is pristine).
                if !matches!(e, DbError::Wal(_)) {
                    return Err(e);
                }
                // If the commit record reached the log but a later step
                // failed (the fsync-marker append, or the fsync itself),
                // this `Err` would otherwise be replayed by the next
                // recovery — and the next commit would reuse its version
                // and trip the WAL's monotonicity assert. Roll the log
                // back to its pre-append state, durably.
                let rolled_back = if state.wal.last_version() == version {
                    state.wal.rollback_to(mark).is_ok()
                } else {
                    true
                };
                // The WAL rolls failed appends back internally; verify it
                // managed to. A mismatch means torn bytes are on disk with
                // no live bookkeeping for them — refuse further writes.
                if !rolled_back
                    || self
                        .opts
                        .retry
                        .run(|| self.fs.len(state.wal.path()))
                        .map_or(true, |on_disk| on_disk != state.wal.bytes())
                {
                    state.poisoned = true;
                }
                return Err(e);
            }
        };

        let compaction_error = if state.wal.commits() >= self.opts.compact_after_commits
            || state.wal.bytes() >= self.opts.compact_after_bytes
        {
            self.compact_locked(state).err()
        } else {
            None
        };
        Ok(DurableCommit {
            version,
            stats,
            synced,
            compaction_error,
        })
    }

    /// Durably inserts one object (a single-operation [`DurableDb::commit`]).
    pub fn insert(&self, o: UncertainObject) -> Result<DurableCommit, DbError> {
        self.commit(&[DbOp::Insert(o)])
    }

    /// Durably removes one object (a single-operation [`DurableDb::commit`]).
    pub fn remove(&self, id: u64) -> Result<DurableCommit, DbError> {
        self.commit(&[DbOp::Remove(id)])
    }

    /// Forces every acknowledged commit to stable storage now, regardless
    /// of the [`SyncPolicy`].
    pub fn sync(&self) -> Result<(), DbError> {
        let mut guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if guard.poisoned {
            return Err(DbError::Poisoned);
        }
        guard.wal.sync()?;
        guard.unsynced_commits = 0;
        Ok(())
    }

    /// Rotates the current engine state into a new snapshot generation and
    /// truncates the log — the checkpoint the watermarks trigger
    /// automatically. Safe to call at any point; a crash anywhere inside
    /// leaves a recoverable directory.
    pub fn compact(&self) -> Result<(), DbError> {
        let mut guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if guard.poisoned {
            return Err(DbError::Poisoned);
        }
        self.compact_locked(&mut guard)
    }

    fn compact_locked(&self, state: &mut DurableState) -> Result<(), DbError> {
        let reader = self.db.reader();
        let version = reader.version();
        if version == state.snapshot_version && state.wal.commits() == 0 {
            return Ok(());
        }
        // Unsynced commits must be durable before the generation that
        // contains them replaces the log that also contains them.
        if state.wal.synced_version() < state.wal.last_version() {
            state.wal.sync()?;
            state.unsynced_commits = 0;
        }
        let bytes = reader.engine().snapshot_bytes()?;
        let tmp = snap_tmp_path(&self.dir, version);
        self.fs.write(&tmp, &bytes)?;
        self.fs.sync(&tmp)?;
        self.fs.rename(&tmp, &snap_path(&self.dir, version))?;
        self.fs.sync_dir(&self.dir)?;
        // The new generation is the recovery root from here on; the old
        // one and the log contents are redundant. Removal is best-effort
        // (recovery always picks the newest generation).
        if version != state.snapshot_version {
            let _ = self
                .fs
                .remove(&snap_path(&self.dir, state.snapshot_version));
        }
        state.snapshot_version = version;
        state.wal.reset()?;
        Ok(())
    }

    /// The inner concurrent [`Db`]: use it for everything read-side
    /// (queries, sessions, pinned readers). Do **not** write through it —
    /// [`Db::insert`] and friends on the inner handle bypass the log, and
    /// such writes are lost on the next recovery.
    pub fn db(&self) -> &Db<E> {
        &self.db
    }

    /// The directory holding the log and snapshot generations.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes currently in the write-ahead log (file header included).
    pub fn wal_bytes(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .wal
            .bytes()
    }

    /// Version of the current on-disk snapshot generation.
    pub fn snapshot_version(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .snapshot_version
    }

    /// True when a failed rollback has poisoned the write path.
    pub fn is_poisoned(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .poisoned
    }
}

impl<E: WritableEngine + PersistentEngine> Db<E> {
    /// Opens (recovers) a durable database from `dir` with default
    /// [`DurableOptions`] — sugar for [`DurableDb::open`].
    pub fn open_durable(
        dir: impl AsRef<Path>,
    ) -> Result<(DurableDb<E>, RecoveryReport), RecoveryError> {
        DurableDb::open(dir, DurableOptions::default())
    }
}

impl<E: crate::query::ProbNnEngine> fmt::Debug for DurableDb<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableDb")
            .field("db", &self.db)
            .field("dir", &self.dir)
            .field("opts", &self.opts)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::RTreeBaseline;
    use crate::query::QuerySpec;
    use crate::verify::LinearScan;
    use pv_geom::{HyperRect, Point};
    use pv_storage::fault::{FaultFs, FaultKind, FaultPlan};
    use pv_uncertain::UncertainDb;

    fn obj(id: u64, x: f64) -> UncertainObject {
        UncertainObject::uniform(id, HyperRect::new(vec![x, 0.0], vec![x + 2.0, 2.0]), 8)
    }

    fn base_db() -> UncertainDb {
        let domain = HyperRect::cube(2, 0.0, 100.0);
        let objects = (0..6u64).map(|i| obj(i, i as f64 * 10.0)).collect();
        UncertainDb::new(domain, objects)
    }

    fn scan() -> LinearScan {
        LinearScan::new(&base_db())
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pv_durable_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn ops_roundtrip_through_the_codec() {
        let ops = vec![
            DbOp::Insert(obj(41, 3.0)),
            DbOp::Remove(2),
            DbOp::Insert(obj(42, 7.0)),
        ];
        let bytes = encode_ops(&ops);
        assert_eq!(decode_ops(&bytes).unwrap(), ops);
        assert!(matches!(
            decode_ops(&bytes[..bytes.len() - 1]),
            Err(DecodeError::Truncated { .. })
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            decode_ops(&trailing),
            Err(DecodeError::Invalid { .. })
        ));
    }

    /// Create → two commits → drop → open on `engine`: the log replays both
    /// commits and the recovered engine answers exactly like the original.
    fn create_commit_reopen<E: WritableEngine + PersistentEngine>(tag: &str, engine: E) {
        let dir = tmp_dir(tag);
        let db = DurableDb::create(&dir, engine, DurableOptions::default()).unwrap();
        let c1 = db.insert(obj(100, 50.0)).unwrap();
        assert_eq!(c1.version, 1);
        assert!(c1.synced);
        let c2 = db
            .commit(&[DbOp::Remove(0), DbOp::Insert(obj(101, 60.0))])
            .unwrap();
        assert_eq!(c2.version, 2);
        assert_eq!(c2.stats.len(), 2);
        let queries: Vec<Point> = (0..8)
            .map(|i| Point::new(vec![i as f64 * 12.0 + 1.0, 1.0]))
            .collect();
        let answers = |db: &DurableDb<E>| -> Vec<Vec<(u64, f64)>> {
            queries
                .iter()
                .map(|q| db.db().query(q, &QuerySpec::new()).unwrap().answers)
                .collect()
        };
        let before = answers(&db);
        assert!(before.iter().all(|a| !a.is_empty()));
        drop(db);

        let (db, report) = DurableDb::<E>::open(&dir, DurableOptions::default()).unwrap();
        assert_eq!(report.snapshot_version, 0);
        assert_eq!(report.replayed_commits, 2);
        assert_eq!(report.recovered_version, 2);
        assert_eq!(report.synced_version, 2);
        assert!(report.torn_tail.is_none());
        assert_eq!(db.db().version(), 2);
        assert_eq!(db.db().len(), 7);
        assert_eq!(answers(&db), before);
        // And the recovered state keeps accepting versioned commits.
        assert_eq!(db.insert(obj(102, 70.0)).unwrap().version, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_commit_reopen_recovers_everything() {
        create_commit_reopen("roundtrip_scan", scan());
        let params = crate::params::PvParams::default();
        create_commit_reopen(
            "roundtrip_rtree",
            RTreeBaseline::build(&base_db(), params.rtree_fanout, params.page_size),
        );
    }

    #[test]
    fn failed_ops_leave_disk_untouched() {
        let dir = tmp_dir("validate");
        let db = DurableDb::create(&dir, scan(), DurableOptions::default()).unwrap();
        let before = db.wal_bytes();
        // Second op fails validation: nothing may reach the log.
        let err = db.commit(&[DbOp::Insert(obj(200, 30.0)), DbOp::Remove(999)]);
        assert!(matches!(err, Err(DbError::UnknownId(999))));
        assert_eq!(db.wal_bytes(), before);
        assert_eq!(db.db().version(), 0);
        let (db, report) = DurableDb::<LinearScan>::open(&dir, DurableOptions::default()).unwrap();
        assert_eq!(report.recovered_version, 0);
        assert_eq!(db.db().len(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_rotates_and_truncates() {
        let dir = tmp_dir("compact");
        let opts = DurableOptions {
            compact_after_commits: 3,
            ..DurableOptions::default()
        };
        let db = DurableDb::create(&dir, scan(), opts).unwrap();
        for i in 0..3u64 {
            let c = db.insert(obj(100 + i, 50.0 + i as f64)).unwrap();
            assert!(c.compaction_error.is_none());
        }
        assert_eq!(db.snapshot_version(), 3, "watermark rotated at commit 3");
        assert!(snap_path(&dir, 3).exists());
        assert!(!snap_path(&dir, 0).exists(), "old generation removed");
        // Log is empty again; recovery comes straight from the generation.
        let (db, report) = DurableDb::<LinearScan>::open(&dir, opts).unwrap();
        assert_eq!(report.snapshot_version, 3);
        assert_eq!(report.replayed_commits, 0);
        assert_eq!(db.db().len(), 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_append_is_rolled_back_and_not_recovered() {
        let dir = tmp_dir("torn");
        let fs = Arc::new(FaultFs::new(StdFs, FaultPlan::none()));
        let opts = DurableOptions {
            retry: RetryPolicy::none(),
            ..DurableOptions::default()
        };
        let db =
            DurableDb::create_with_fs(Arc::clone(&fs) as Arc<dyn Fs>, &dir, scan(), opts).unwrap();
        let _ = db.insert(obj(100, 50.0)).unwrap();
        // Tear the *next* WAL append mid-record.
        let next_op = fs.ops();
        fs.set_plan(FaultPlan::single(
            next_op + 1,
            FaultKind::TornWrite { keep: 7 },
        ));
        let err = db.insert(obj(101, 60.0));
        assert!(matches!(err, Err(DbError::Wal(_))), "{err:?}");
        assert!(!db.is_poisoned(), "rollback succeeded");
        assert_eq!(db.db().version(), 1, "failed commit was not published");
        // The next commit works, and recovery sees a consistent history.
        let _ = db.insert(obj(102, 70.0)).unwrap();
        drop(db);
        let (db, report) = DurableDb::<LinearScan>::open(&dir, DurableOptions::default()).unwrap();
        assert_eq!(report.recovered_version, 2);
        assert!(db
            .db()
            .query(&Point::new(vec![61.0, 1.0]), &crate::QuerySpec::new())
            .unwrap()
            .candidates
            .iter()
            .all(|&id| id != 101));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_fsync_rolls_the_appended_record_back() {
        // The commit record lands in the log, then the fsync fails: the
        // record must be durably removed again — otherwise recovery would
        // replay an unacknowledged commit and the next commit would reuse
        // its version and trip the WAL's monotonicity assert.
        let dir = tmp_dir("fsync_fail");
        let fs = Arc::new(FaultFs::new(StdFs, FaultPlan::none()));
        let opts = DurableOptions {
            retry: RetryPolicy::none(),
            ..DurableOptions::default()
        };
        let db =
            DurableDb::create_with_fs(Arc::clone(&fs) as Arc<dyn Fs>, &dir, scan(), opts).unwrap();
        let _ = db.insert(obj(100, 50.0)).unwrap();

        // A commit's op sequence is: len, append (commit record), len,
        // append (sync marker), sync. Fail the sync itself.
        let next_op = fs.ops();
        fs.set_plan(FaultPlan::single(next_op + 4, FaultKind::NoSpace));
        let err = db.insert(obj(101, 60.0));
        assert!(matches!(err, Err(DbError::Wal(_))), "{err:?}");
        assert!(!db.is_poisoned(), "rollback succeeded");
        assert_eq!(db.db().version(), 1);

        // And the same for a failure of the sync-marker append.
        let next_op = fs.ops();
        fs.set_plan(FaultPlan::single(next_op + 3, FaultKind::NoSpace));
        let err = db.insert(obj(101, 60.0));
        assert!(matches!(err, Err(DbError::Wal(_))), "{err:?}");
        assert!(!db.is_poisoned(), "rollback succeeded");

        // The next commit must not panic and must reuse the version.
        let c = db.insert(obj(102, 70.0)).unwrap();
        assert_eq!(c.version, 2);
        drop(db);

        // Recovery replays exactly the acknowledged commits; the one whose
        // fsync failed is gone.
        let (db, report) = DurableDb::<LinearScan>::open(&dir, DurableOptions::default()).unwrap();
        assert_eq!(report.recovered_version, 2);
        assert!(db
            .db()
            .query(&Point::new(vec![61.0, 1.0]), &crate::QuerySpec::new())
            .unwrap()
            .candidates
            .iter()
            .all(|&id| id != 101));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_rollback_poisons_instead_of_panicking_later() {
        let dir = tmp_dir("poison");
        let fs = Arc::new(FaultFs::new(StdFs, FaultPlan::none()));
        let opts = DurableOptions {
            retry: RetryPolicy::none(),
            ..DurableOptions::default()
        };
        let db =
            DurableDb::create_with_fs(Arc::clone(&fs) as Arc<dyn Fs>, &dir, scan(), opts).unwrap();
        let _ = db.insert(obj(100, 50.0)).unwrap();

        // Fail the commit fsync (op +4), then the rollback's truncate
        // (op +6: rollback runs len, truncate, sync) — the unacknowledged
        // record stays on disk, so the writer must refuse to continue.
        let next_op = fs.ops();
        fs.set_plan(FaultPlan::new(vec![
            pv_storage::fault::ScheduledFault {
                op: next_op + 4,
                kind: FaultKind::NoSpace,
            },
            pv_storage::fault::ScheduledFault {
                op: next_op + 6,
                kind: FaultKind::FailOnce,
            },
        ]));
        let err = db.insert(obj(101, 60.0));
        assert!(matches!(err, Err(DbError::Wal(_))), "{err:?}");
        assert!(db.is_poisoned(), "unrolled-back append must poison");
        assert!(matches!(db.insert(obj(102, 70.0)), Err(DbError::Poisoned)));
        // Reopening recovers (the leftover record is acknowledged-looking
        // but consistent, so replay accepts it — zero-loss still holds for
        // everything that was acknowledged).
        drop(db);
        let (db, _) = DurableDb::<LinearScan>::open(&dir, DurableOptions::default()).unwrap();
        assert!(db.insert(obj(103, 80.0)).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validation_errors_skip_the_disk_probe() {
        // A pure engine validation error never touches the log; even if
        // every subsequent stat fails, the database must stay writable.
        let dir = tmp_dir("probe_skip");
        let fs = Arc::new(FaultFs::new(StdFs, FaultPlan::none()));
        let opts = DurableOptions {
            retry: RetryPolicy::none(),
            ..DurableOptions::default()
        };
        let db =
            DurableDb::create_with_fs(Arc::clone(&fs) as Arc<dyn Fs>, &dir, scan(), opts).unwrap();
        // Make the next several fs ops fail: a probe here would poison.
        let next_op = fs.ops();
        fs.set_plan(FaultPlan::new(
            (0..4)
                .map(|i| pv_storage::fault::ScheduledFault {
                    op: next_op + i,
                    kind: FaultKind::FailOnce,
                })
                .collect(),
        ));
        let err = db.remove(999);
        assert!(matches!(err, Err(DbError::UnknownId(999))));
        assert!(!db.is_poisoned(), "validation errors never touch disk");
        fs.set_plan(FaultPlan::none());
        assert!(db.insert(obj(110, 55.0)).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_faults_are_absorbed() {
        let dir = tmp_dir("transient");
        let fs = Arc::new(FaultFs::new(StdFs, FaultPlan::none()));
        let db = DurableDb::create_with_fs(
            Arc::clone(&fs) as Arc<dyn Fs>,
            &dir,
            scan(),
            DurableOptions::default(),
        )
        .unwrap();
        let next_op = fs.ops();
        fs.set_plan(FaultPlan::new(vec![pv_storage::fault::ScheduledFault {
            op: next_op + 1,
            kind: FaultKind::FailOnce,
        }]));
        let c = db.insert(obj(100, 50.0)).unwrap();
        assert_eq!(c.version, 1, "bounded retry absorbed the transient fault");
        assert_eq!(fs.fired().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_generation_is_typed() {
        let dir = tmp_dir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        match DurableDb::<LinearScan>::open(&dir, DurableOptions::default()) {
            Err(RecoveryError::MissingGeneration { dir: d }) => assert_eq!(d, dir),
            other => panic!("expected MissingGeneration, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
