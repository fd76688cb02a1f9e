//! The concurrent database facade: snapshot-isolated readers, a
//! non-blocking single writer, and pooled query sessions.
//!
//! The engines of this workspace answer queries through `&self` and mutate
//! through `&mut self` — a writer therefore used to stop the world for
//! every reader. The moving-query settings the roadmap targets (and the
//! Probabilistic Voronoi Diagram line of work in PAPERS.md) interleave
//! object updates with query traffic, so PR 5 wraps any engine in a
//! [`Db`] handle built on *snapshot publication*:
//!
//! * the current engine state lives behind an [`ArcSwap`] as an immutable
//!   [`Snapshot`] (engine + monotonically increasing version);
//! * **readers** ([`Db::query`], [`Db::query_batch`], [`Reader`],
//!   [`Session`]) pin the current `Arc` — one mutex-guarded pointer clone,
//!   O(1), never waiting on index work — and run the whole query against
//!   that pinned state. A query never observes a half-applied update;
//! * the **writer** ([`Db::insert`], [`Db::remove`], [`Db::rebuild`],
//!   [`Db::commit`]) forks a copy-on-write successor via
//!   [`WritableEngine::fork`], applies the mutation off to the side while
//!   readers keep serving from the old snapshot, and publishes the
//!   successor with a single atomic pointer swap;
//! * superseded snapshots are freed by reference counting the moment the
//!   last reader unpins them (asserted by the drop-ordering test in
//!   `tests/db_concurrency.rs`). The flip side of eager reclamation: the
//!   thread dropping that last pin — usually the writer at the next
//!   publication, but a long-lived reader if it outlives one — pays the
//!   O(index) deallocation. Readers never wait on the *writer's* work
//!   (forking, SE, page writes), but a reader unpinning a dead snapshot
//!   does pay its free; pin a [`Reader`] for bounded scopes if that tail
//!   matters.
//!
//! ```text
//!   readers                 ArcSwap slot                writer
//!   ───────                 ────────────                ──────
//!   pin ──────────────▶ Arc<Snapshot v3> ◀── fork ── Snapshot v3
//!   query on v3              │                          │ insert/remove
//!   pin ──────────────▶      │                          ▼
//!   query on v3              └── swap ◀── publish ── Snapshot v4
//!   (v3 freed when the last pin drops)
//! ```
//!
//! Forking is *page-level copy-on-write* (since PR 6): the PV-index forks
//! its simulated disk by cloning the page-pointer table, and a commit
//! touching k objects physically copies only the O(k·log n) pages it
//! writes — untouched pages stay shared with every pinned older snapshot.
//! Writers that apply many operations can still batch them in one
//! [`Db::commit`] closure — one fork, one publication. Readers are
//! wait-free with respect to all of that work: the only shared critical
//! section is the pointer swap itself.
//!
//! # Example
//!
//! ```
//! use pv_core::db::Db;
//! use pv_core::{LinearScan, QuerySpec};
//! use pv_geom::{HyperRect, Point};
//! use pv_uncertain::{UncertainDb, UncertainObject};
//!
//! let domain = HyperRect::cube(2, 0.0, 100.0);
//! let objects = (0..10u64)
//!     .map(|i| {
//!         let lo = vec![i as f64 * 9.0, 40.0];
//!         UncertainObject::uniform(i, HyperRect::new(lo.clone(), vec![lo[0] + 5.0, 46.0]), 12)
//!     })
//!     .collect();
//! let db = Db::new(LinearScan::new(&UncertainDb::new(domain.clone(), objects)));
//!
//! // Reads pin a consistent snapshot; writes publish a successor.
//! let q = Point::new(vec![2.0, 43.0]);
//! let before = db.query(&q, &QuerySpec::new().with_top_k(1))?;
//! db.insert(UncertainObject::uniform(
//!     99,
//!     HyperRect::new(vec![1.0, 42.0], vec![3.0, 44.0]),
//!     12,
//! ))?;
//! let after = db.query(&q, &QuerySpec::new().with_top_k(1))?;
//! assert_eq!(before.best().unwrap().0, 0);
//! assert_eq!(after.best().unwrap().0, 99);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::error::{DbError, QueryError};
use crate::query::{
    BatchOutcome, BatchSlots, BatchStats, ProbNnEngine, QueryOutcome, QueryScratch, QuerySpec,
};
use crate::stats::{BuildStats, UpdateStats};
use pv_geom::Point;
use pv_uncertain::UncertainObject;
use std::fmt;
use std::ops::Deref;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

/// A minimal atomically-swappable `Arc` slot, built on `std::sync` (the
/// workspace is offline, so the `arc-swap` crate is reimplemented in the
/// small).
///
/// `load` and `store` guard the slot with a mutex whose critical section is
/// a single `Arc` pointer clone or swap — a few nanoseconds, independent of
/// the engine behind the pointer. Readers therefore never wait on a
/// writer's *work* (forking, SE recomputation, page writes all happen
/// outside the lock); the only contention is pointer-sized. Lock poisoning
/// is neutralised (`Arc` clone/swap cannot leave the slot torn), so a
/// panicking thread cannot wedge the database.
#[derive(Debug)]
pub struct ArcSwap<T> {
    slot: Mutex<Arc<T>>,
}

impl<T> ArcSwap<T> {
    /// Wraps an initial value.
    pub fn new(value: Arc<T>) -> Self {
        Self {
            slot: Mutex::new(value),
        }
    }

    /// Returns a clone of the current `Arc` (pinning the value it points
    /// to until the clone is dropped).
    pub fn load(&self) -> Arc<T> {
        self.slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Publishes `value`, returning the previously published `Arc`.
    pub fn store(&self, value: Arc<T>) -> Arc<T> {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *slot, value)
    }
}

/// One published engine state: an immutable engine plus the monotonically
/// increasing version it was published at. Versions make snapshot isolation
/// *observable*: a reader can report exactly which published state answered
/// its query, which the concurrency stress test exploits.
#[derive(Debug)]
pub struct Snapshot<E> {
    version: u64,
    engine: E,
}

impl<E> Snapshot<E> {
    /// The publication version (`0` for the state [`Db::new`] wrapped).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The engine state.
    pub fn engine(&self) -> &E {
        &self.engine
    }
}

impl<E> Deref for Snapshot<E> {
    type Target = E;

    fn deref(&self) -> &E {
        &self.engine
    }
}

/// A cheap read handle pinning one published [`Snapshot`].
///
/// Dereferences to the engine, so the whole read-only engine API
/// (`step1`, `execute`, statistics accessors, …) is available on the
/// pinned state. The snapshot stays alive — and every query through this
/// handle stays consistent — until the last clone of the handle drops,
/// even if the writer has long since published successors.
#[must_use = "a Reader pins a snapshot; drop it to release the state"]
#[derive(Debug, Clone)]
pub struct Reader<E> {
    snap: Arc<Snapshot<E>>,
}

impl<E> Reader<E> {
    /// The pinned snapshot's publication version.
    pub fn version(&self) -> u64 {
        self.snap.version
    }

    /// The pinned engine state.
    pub fn engine(&self) -> &E {
        &self.snap.engine
    }

    /// The underlying reference-counted snapshot (e.g. for
    /// `Arc::downgrade`-based lifetime assertions).
    pub fn pinned(&self) -> &Arc<Snapshot<E>> {
        &self.snap
    }
}

impl<E> Deref for Reader<E> {
    type Target = E;

    fn deref(&self) -> &E {
        &self.snap.engine
    }
}

/// A query session owning pooled scratch memory.
///
/// [`Db::query`] allocates fresh buffers per call; a session keeps one
/// [`QueryScratch`], one [`QueryOutcome`] and one [`BatchSlots`] alive
/// across calls, so a steady-state serving loop runs **zero heap
/// allocations per query** — the PR-4 hot-path contract, preserved across
/// snapshot swaps because pinning a snapshot is just an `Arc` clone
/// (`tests/alloc_steady_state.rs` asserts this on the `Db` path).
///
/// Each call pins the *newest* published snapshot; two consecutive calls
/// may therefore answer from different versions. Pin a [`Reader`] instead
/// when a sequence of queries must share one consistent state.
#[must_use = "a Session pools scratch buffers; issue queries through it"]
pub struct Session<'db, E> {
    db: &'db Db<E>,
    scratch: QueryScratch,
    outcome: QueryOutcome,
    slots: BatchSlots,
}

impl<E: ProbNnEngine> fmt::Debug for Session<'_, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("db", self.db)
            .finish_non_exhaustive()
    }
}

impl<'db, E: ProbNnEngine> Session<'db, E> {
    /// Executes `spec` at `q` against the newest published snapshot,
    /// reusing the session's buffers. The returned reference stays valid
    /// until the next call on this session.
    ///
    /// # Errors
    /// See [`ProbNnEngine::execute`].
    pub fn query(&mut self, q: &Point, spec: &QuerySpec) -> Result<&QueryOutcome, QueryError> {
        let snap = self.db.current.load();
        snap.engine
            .execute_into(q, spec, &mut self.scratch, &mut self.outcome)?;
        Ok(&self.outcome)
    }

    /// Executes `spec` at every point against the newest published
    /// snapshot, reusing the session's batch slots. Per-query outcomes are
    /// available via [`Session::outcomes`] until the next call.
    ///
    /// # Errors
    /// See [`ProbNnEngine::query_batch`].
    pub fn query_batch(
        &mut self,
        points: &[Point],
        spec: &QuerySpec,
    ) -> Result<BatchStats, QueryError>
    where
        E: Sync,
    {
        let snap = self.db.current.load();
        snap.engine.query_batch_into(points, spec, &mut self.slots)
    }

    /// The per-query outcomes of the latest **successful**
    /// [`Session::query_batch`] run, in input order. A failed call leaves
    /// the slots untouched (batch validation is up-front), so after an
    /// `Err` this still reflects the previous successful batch — check the
    /// `Result` before reading.
    pub fn outcomes(&self) -> &[QueryOutcome] {
        &self.slots.outcomes
    }

    /// The database this session queries.
    pub fn db(&self) -> &'db Db<E> {
        self.db
    }
}

/// An engine that supports copy-on-write mutation through the [`Db`]
/// facade: fork an independent successor, apply fallible updates to it,
/// publish atomically.
///
/// The contract of [`WritableEngine::fork`] is *observational
/// independence*: no mutation of the fork may be observable through the
/// original, and vice versa. Sharing immutable state (`Arc`-shared pages,
/// persistent-structure arenas) is encouraged — that is what makes commits
/// cheap — as long as every write path copies before mutating anything a
/// sibling can still reach. `Db` relies on this for snapshot isolation;
/// `tests/cow_sharing.rs` checks it over randomized commit sequences.
pub trait WritableEngine: ProbNnEngine {
    /// An observationally independent copy of the engine to apply the next
    /// update batch against (copy-on-write sharing with `self` is fine).
    fn fork(&self) -> Self
    where
        Self: Sized;

    /// Inserts an object.
    ///
    /// # Errors
    /// [`DbError::DuplicateId`] when the id is already indexed;
    /// [`DbError::OutOfDomain`] when the engine tracks a domain and the
    /// object's region escapes it.
    fn apply_insert(&mut self, o: UncertainObject) -> Result<UpdateStats, DbError>;

    /// Removes an object by id.
    ///
    /// # Errors
    /// [`DbError::UnknownId`] when the id is not indexed.
    fn apply_remove(&mut self, id: u64) -> Result<UpdateStats, DbError>;

    /// A freshly rebuilt successor over this engine's current object
    /// catalog, plus the build cost — what [`Db::rebuild`] publishes (the
    /// paper's "Rebuild" maintenance competitor). It is built straight from
    /// the catalog, so no copy-on-write fork is paid first.
    fn rebuilt(&self) -> (Self, BuildStats)
    where
        Self: Sized;
}

/// An engine whose full state round-trips through a snapshot — the hook
/// [`Db::save`] / [`Db::open`] persist through, with failures surfaced as
/// [`DbError::Snapshot`].
///
/// The byte-level pair is the required surface: the durable write path
/// ([`crate::durable::DurableDb`]) routes snapshot bytes through an
/// injectable filesystem for atomic rotation and fault injection, so it
/// must be able to obtain them without touching `std::fs` itself. The
/// path-level pair has default implementations in terms of the bytes.
pub trait PersistentEngine: Sized {
    /// The engine's full state as one self-contained snapshot artifact
    /// (the versioned, checksummed envelope of `pv-storage::snapshot`).
    fn snapshot_bytes(&self) -> std::io::Result<Vec<u8>>;

    /// Restores an engine from bytes produced by
    /// [`PersistentEngine::snapshot_bytes`].
    ///
    /// # Errors
    /// Corruption and version skew yield an
    /// [`std::io::ErrorKind::InvalidData`] error wrapping the precise
    /// [`pv_storage::codec::DecodeError`].
    fn from_snapshot_bytes(bytes: &[u8]) -> std::io::Result<Self>;

    /// Serialises the engine to a snapshot file at `path`.
    fn save_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.snapshot_bytes()?)
    }

    /// Restores an engine from a snapshot written by
    /// [`PersistentEngine::save_to`].
    fn load_from(path: &Path) -> std::io::Result<Self> {
        Self::from_snapshot_bytes(&std::fs::read(path)?)
    }
}

/// A shared, concurrently-usable database handle over any query engine.
///
/// See the [module docs](self) for the concurrency model. `Db` is `Sync`
/// whenever the engine is `Send + Sync`: share one instance (or an
/// `Arc<Db<_>>`) across every serving thread.
#[must_use = "a Db serves queries; share it across threads"]
pub struct Db<E> {
    current: ArcSwap<Snapshot<E>>,
    /// Serialises writers. Readers never touch this lock.
    writer: Mutex<()>,
}

impl<E: ProbNnEngine> Db<E> {
    /// Wraps an engine as publication version 0.
    pub fn new(engine: E) -> Self {
        Self::at_version(engine, 0)
    }

    /// Wraps an engine at an explicit starting version — the recovery path
    /// of [`crate::durable::DurableDb`] uses this so versions survive a
    /// restart (a reader that recorded "answered at version 7" before a
    /// crash means the same state after one).
    pub fn at_version(engine: E, version: u64) -> Self {
        Self {
            current: ArcSwap::new(Arc::new(Snapshot { version, engine })),
            writer: Mutex::new(()),
        }
    }

    /// Pins the newest published snapshot as a cheap read handle.
    pub fn reader(&self) -> Reader<E> {
        Reader {
            snap: self.current.load(),
        }
    }

    /// Opens a query session with pooled scratch buffers (the
    /// allocation-free serving path).
    pub fn session(&self) -> Session<'_, E> {
        Session {
            db: self,
            scratch: QueryScratch::default(),
            outcome: QueryOutcome::default(),
            slots: BatchSlots::default(),
        }
    }

    /// The newest published version (0 until the first write commits).
    pub fn version(&self) -> u64 {
        self.current.load().version
    }

    /// Number of objects in the newest published snapshot.
    pub fn len(&self) -> usize {
        self.current.load().engine.len()
    }

    /// True when the newest published snapshot indexes nothing.
    pub fn is_empty(&self) -> bool {
        self.current.load().engine.is_empty()
    }

    /// Dimensionality of the indexed data.
    pub fn dim(&self) -> usize {
        self.current.load().engine.dim()
    }

    /// Executes `spec` at `q` against the newest published snapshot with
    /// fresh buffers. Hot loops should prefer a [`Session`] (pooled
    /// buffers) or a pinned [`Reader`] (explicit snapshot control).
    ///
    /// # Errors
    /// See [`ProbNnEngine::execute`].
    pub fn query(&self, q: &Point, spec: &QuerySpec) -> Result<QueryOutcome, QueryError> {
        self.current.load().engine.execute(q, spec)
    }

    /// Executes `spec` at every point against one consistent snapshot.
    ///
    /// # Errors
    /// See [`ProbNnEngine::query_batch`].
    pub fn query_batch(
        &self,
        points: &[Point],
        spec: &QuerySpec,
    ) -> Result<BatchOutcome, QueryError>
    where
        E: Sync,
    {
        self.current.load().engine.query_batch(points, spec)
    }
}

impl<E: WritableEngine> Db<E> {
    /// Applies a batch of mutations to one copy-on-write successor and
    /// publishes it atomically — one [`WritableEngine::fork`] regardless of
    /// how many operations the closure applies. If the closure errors,
    /// nothing is published and the error is returned.
    ///
    /// Writers serialise on an internal lock; readers keep serving the old
    /// snapshot throughout and see the successor only after the closure
    /// returned `Ok` and the pointer swap completed.
    pub fn commit<T>(
        &self,
        mutate: impl FnOnce(&mut E) -> Result<T, DbError>,
    ) -> Result<T, DbError> {
        let guard = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let base = self.current.load();
        let mut successor = base.engine.fork();
        let out = mutate(&mut successor)?;
        self.publish(base.version, successor);
        drop(guard);
        Ok(out)
    }

    /// Publishes `successor` as `base_version + 1`. Must be called while
    /// holding the writer lock — the single place the publication protocol
    /// lives.
    fn publish(&self, base_version: u64, successor: E) {
        self.current.store(Arc::new(Snapshot {
            version: base_version + 1,
            engine: successor,
        }));
    }

    /// Inserts an object into a successor snapshot and publishes it.
    ///
    /// # Errors
    /// See [`WritableEngine::apply_insert`]; on error nothing is published.
    pub fn insert(&self, o: UncertainObject) -> Result<UpdateStats, DbError> {
        self.commit(|e| e.apply_insert(o))
    }

    /// Removes an object in a successor snapshot and publishes it.
    ///
    /// # Errors
    /// See [`WritableEngine::apply_remove`]; on error nothing is published.
    pub fn remove(&self, id: u64) -> Result<UpdateStats, DbError> {
        self.commit(|e| e.apply_remove(id))
    }

    /// Rebuilds the engine from its current object catalog in a successor
    /// snapshot and publishes it. Readers keep serving the old index for
    /// the whole (expensive) rebuild. Uses [`WritableEngine::rebuilt`]
    /// directly — no copy-on-write fork is paid, since a rebuild replaces
    /// the forked state wholesale anyway.
    pub fn rebuild(&self) -> BuildStats {
        let guard = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let base = self.current.load();
        let (successor, stats) = base.engine.rebuilt();
        self.publish(base.version, successor);
        drop(guard);
        stats
    }
}

impl<E: ProbNnEngine + PersistentEngine> Db<E> {
    /// Persists the newest published snapshot to `path`.
    ///
    /// # Errors
    /// [`DbError::Snapshot`] wrapping the underlying I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DbError> {
        self.current
            .load()
            .engine
            .save_to(path.as_ref())
            .map_err(DbError::from)
    }

    /// Opens a database from an engine snapshot file written by
    /// [`Db::save`] (or the engine's own `save`).
    ///
    /// # Errors
    /// [`DbError::Snapshot`] wrapping the underlying I/O failure or — for
    /// a corrupt file — the typed
    /// [`SnapshotError::Decode`](crate::error::SnapshotError) chain down to
    /// the codec-level [`pv_storage::codec::DecodeError`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self, DbError> {
        let engine = E::load_from(path.as_ref()).map_err(DbError::from)?;
        Ok(Self::new(engine))
    }
}

impl<E: ProbNnEngine> fmt::Debug for Db<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snap = self.current.load();
        f.debug_struct("Db")
            .field("engine", &snap.engine.engine_name())
            .field("version", &snap.version)
            .field("len", &snap.engine.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::LinearScan;
    use pv_geom::HyperRect;
    use pv_uncertain::UncertainDb;

    fn obj(id: u64, x: f64) -> UncertainObject {
        UncertainObject::uniform(id, HyperRect::new(vec![x, 0.0], vec![x + 2.0, 2.0]), 8)
    }

    fn small_db() -> Db<LinearScan> {
        let domain = HyperRect::cube(2, 0.0, 100.0);
        let objects = (0..8u64).map(|i| obj(i, i as f64 * 10.0)).collect();
        Db::new(LinearScan::new(&UncertainDb::new(domain, objects)))
    }

    #[test]
    fn arc_swap_load_store() {
        let swap = ArcSwap::new(Arc::new(1u32));
        assert_eq!(*swap.load(), 1);
        let old = swap.store(Arc::new(2));
        assert_eq!(*old, 1);
        assert_eq!(*swap.load(), 2);
    }

    #[test]
    fn reads_see_published_writes_in_order() {
        let db = small_db();
        assert_eq!(db.version(), 0);
        assert_eq!(db.len(), 8);
        db.insert(obj(100, 50.0)).unwrap();
        assert_eq!(db.version(), 1);
        assert_eq!(db.len(), 9);
        db.remove(100).unwrap();
        assert_eq!(db.version(), 2);
        assert_eq!(db.len(), 8);
    }

    #[test]
    fn readers_pin_old_snapshots() {
        let db = small_db();
        let pinned = db.reader();
        db.insert(obj(100, 50.0)).unwrap();
        db.insert(obj(101, 60.0)).unwrap();
        // The pinned reader still sees version 0 with 8 objects; a fresh
        // reader sees the latest.
        assert_eq!(pinned.version(), 0);
        assert_eq!(pinned.len(), 8);
        let fresh = db.reader();
        assert_eq!(fresh.version(), 2);
        assert_eq!(fresh.len(), 10);
    }

    #[test]
    fn failed_writes_publish_nothing() {
        let db = small_db();
        assert!(matches!(
            db.insert(obj(3, 1.0)),
            Err(DbError::DuplicateId(3))
        ));
        assert!(matches!(db.remove(777), Err(DbError::UnknownId(777))));
        // out of domain (LinearScan tracks the construction domain)
        assert!(matches!(
            db.insert(obj(50, 5000.0)),
            Err(DbError::OutOfDomain(50))
        ));
        assert_eq!(db.version(), 0, "failed writes must not publish");
        assert_eq!(db.len(), 8);
    }

    #[test]
    fn commit_batches_many_ops_into_one_publication() {
        let db = small_db();
        let n = db
            .commit(|e| {
                e.apply_insert(obj(200, 30.0))?;
                e.apply_insert(obj(201, 35.0))?;
                e.apply_remove(0)?;
                Ok(e.len())
            })
            .unwrap();
        assert_eq!(n, 9);
        assert_eq!(db.version(), 1, "one commit = one version");
        assert_eq!(db.len(), 9);
    }

    #[test]
    fn commit_rolls_back_on_error() {
        let db = small_db();
        let err = db.commit(|e| {
            e.apply_insert(obj(300, 30.0))?;
            e.apply_remove(999)?; // fails after a successful op
            Ok(())
        });
        assert!(matches!(err, Err(DbError::UnknownId(999))));
        assert_eq!(db.version(), 0);
        assert!(db
            .query(&Point::new(vec![31.0, 1.0]), &QuerySpec::new())
            .unwrap()
            .candidates
            .iter()
            .all(|&id| id != 300));
    }

    #[test]
    fn session_matches_fresh_queries() {
        let db = small_db();
        let mut session = db.session();
        let spec = QuerySpec::new().with_top_k(2);
        let points: Vec<Point> = (0..6)
            .map(|i| Point::new(vec![i as f64 * 13.0, 1.0]))
            .collect();
        for q in &points {
            let pooled = session.query(q, &spec).unwrap().answers.clone();
            let fresh = db.query(q, &spec).unwrap().answers;
            assert_eq!(pooled, fresh);
        }
        let stats = session
            .query_batch(&points, &spec.clone().with_batch_threads(1))
            .unwrap();
        assert_eq!(stats.queries, points.len());
        let batch = db.query_batch(&points, &spec).unwrap();
        for (a, b) in session.outcomes().iter().zip(batch.outcomes.iter()) {
            assert_eq!(a.answers, b.answers);
        }
    }

    #[test]
    fn query_errors_surface_through_the_facade() {
        let db = small_db();
        let bad = Point::new(vec![1.0, 2.0, 3.0]);
        assert!(matches!(
            db.query(&bad, &QuerySpec::new()),
            Err(QueryError::DimensionMismatch {
                expected: 2,
                got: 3
            })
        ));
        let mut session = db.session();
        assert!(session.query(&bad, &QuerySpec::new()).is_err());
    }

    #[test]
    fn rebuild_publishes_a_new_version() {
        let db = small_db();
        let stats = db.rebuild();
        let _ = stats; // LinearScan's rebuild is trivial; the publication matters
        assert_eq!(db.version(), 1);
        assert_eq!(db.len(), 8);
    }

    #[test]
    fn debug_formats_without_engine_debug_bound() {
        let db = small_db();
        let s = format!("{db:?}");
        assert!(s.contains("linear-scan") && s.contains("version"));
    }
}
