//! # pv-core — PV-cells, UBRs, the SE algorithm and the PV-index
//!
//! This crate implements the primary contribution of *"Voronoi-based Nearest
//! Neighbor Search for Multi-Dimensional Uncertain Databases"* (Zhang, Cheng,
//! Mamoulis, Renz, Züfle, Tang, Emrich — ICDE 2013):
//!
//! * [`cset`] — the `chooseCSet` routine (§V-A): **ALL**, **FS** (fixed
//!   selection: k nearest means) and **IS** (incremental selection with
//!   `2^d` partition counters);
//! * [`se`] — the **Shrink-and-Expand** algorithm (§V, Algorithm 1)
//!   computing an Uncertain Bounding Rectangle `B(o) ⊇ V(o)`, run by the
//!   build and by every insertion (§VI-B);
//! * [`index`] — the **PV-index** (§VI): octree primary index + extendible
//!   hash secondary index, PNNQ Step-1 retrieval, full PNNQ evaluation, and
//!   incremental insertion/deletion;
//! * [`prob`] — PNNQ **Step 2**: qualification probabilities from discrete
//!   instances (the method of Cheng et al., the paper's reference \[8\]);
//! * [`query`] — the **unified query API**: [`query::QuerySpec`] (point /
//!   threshold / top-k / Step-1-only / I/O budget), [`query::QueryOutcome`],
//!   and the [`query::Step1Engine`] / [`query::ProbNnEngine`] traits every
//!   engine implements, with batched parallel execution;
//! * [`db`] — the **concurrent database facade**: [`db::Db`] publishes
//!   immutable engine snapshots through an [`db::ArcSwap`]; readers pin
//!   them ([`db::Reader`], pooled [`db::Session`]s) and never block on the
//!   single copy-on-write writer ([`db::WritableEngine`]);
//! * [`durable`] — **crash-safe durability**: [`durable::DurableDb`]
//!   write-ahead logs every commit before publication, checkpoints via
//!   atomic snapshot rotation, and recovers to exactly some
//!   acknowledged-prefix version after any crash;
//! * [`error`] — the typed error surface: [`error::QueryError`] (read
//!   side) and [`error::DbError`] (write/persistence side) replace the
//!   pre-PR-5 panics;
//! * [`baseline`] — the R-tree branch-and-prune Step-1 baseline \[8\] the
//!   experiments compare against;
//! * [`snapshot`] — persistent index snapshots: a built [`PvIndex`] (or
//!   [`baseline::RTreeBaseline`]) saves to one versioned, checksummed file
//!   and loads back in O(file read) with byte-identical answers — see
//!   [`PvIndex::save`] / [`PvIndex::load`];
//! * [`verify`] — a naive linear-scan ground truth ([`verify::possible_nn`]
//!   and the [`verify::LinearScan`] engine) used by tests and the recall
//!   measurements.
//!
//! ## Example
//!
//! ```
//! use pv_core::db::Db;
//! use pv_core::{PvIndex, PvParams, QuerySpec};
//! use pv_workload::{synthetic, SyntheticConfig, queries};
//!
//! let data = synthetic(&SyntheticConfig { n: 200, dim: 2, samples: 50, ..Default::default() });
//! let db = Db::new(PvIndex::build(&data, PvParams::default()));
//! let q = queries::uniform(&data.domain, 1, 7)[0].clone();
//!
//! // The three most likely nearest neighbors, best first. Queries read a
//! // pinned snapshot, so concurrent inserts/removes never block them.
//! let outcome = db.query(&q, &QuerySpec::new().with_top_k(3))?;
//! assert!(!outcome.answers.is_empty()); // someone is always a possible NN
//! assert!(outcome.best().unwrap().1 > 0.0);
//! # Ok::<(), pv_core::QueryError>(())
//! ```

#![deny(missing_docs)]

pub mod baseline;
pub mod cset;
pub mod db;
pub mod durable;
pub mod error;
pub mod index;
pub mod params;
pub mod prob;
pub mod query;
pub mod se;
pub mod snapshot;
pub mod stats;
pub mod verify;

pub use db::{Db, PersistentEngine, Reader, Session, WritableEngine};
pub use durable::{DbOp, DurableCommit, DurableDb, DurableOptions, RecoveryReport, SyncPolicy};
pub use error::{BuildError, DbError, QueryError, RecoveryError, SnapshotError};
pub use index::PvIndex;
pub use params::{CSetStrategy, PvParams};
pub use query::{
    BatchOutcome, BatchSlots, BatchStats, FetchScratch, ProbNnEngine, QueryOutcome, QueryScratch,
    QuerySpec, Step1Engine,
};
pub use stats::{BuildStats, QueryStats, Step1Stats, UpdateStats};
pub use verify::LinearScan;
