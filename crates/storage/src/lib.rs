//! # pv-storage — a simulated paged disk with honest I/O accounting
//!
//! The ICDE 2013 PV-index paper measures its indexes on a machine with 4 KiB
//! disk pages and a 5 MB main-memory budget for non-leaf index nodes
//! (§VII-A). Figures 9(c) and 9(g) report *I/O* directly. To reproduce those
//! experiments on a modern laptop we model the disk explicitly instead of
//! relying on a real device:
//!
//! * [`MemPager`] is an in-memory array of fixed-size pages with read / write
//!   / allocation counters ([`IoStats`]) and copy-on-write forks, behind the
//!   [`Pager`] trait so tests can interpose spy or failure-injecting pagers;
//! * [`PageList`] implements the paper's leaf-node layout: a linked list of
//!   pages holding variable-size records, with new pages attached at the
//!   *head* of the list (§VI-A, construction step 3);
//! * [`codec`] provides the little-endian record encoding shared by the
//!   octree leaves and the extendible hash table, and surfaces corruption
//!   as [`codec::DecodeError`] values instead of panics;
//! * [`snapshot`] provides the versioned, checksummed envelope every index
//!   snapshot file in the workspace is wrapped in;
//! * [`fsio`] is the injectable filesystem surface ([`fsio::Fs`] /
//!   [`fsio::StdFs`]) the durability layer performs its file I/O through,
//!   with bounded [`fsio::RetryPolicy`] handling for transient faults;
//! * [`wal`] is the length-prefixed, checksummed write-ahead commit log
//!   behind `pv-core`'s `DurableDb`, with torn-tail repair and typed
//!   corruption reporting on replay;
//! * [`fault`] injects deterministic failures — torn writes, short reads,
//!   full disks, bit flips — behind the [`fsio::Fs`] trait
//!   ([`fault::FaultFs`]), driven by seeded, replayable
//!   [`fault::FaultPlan`]s.
//!
//! Every index structure in the workspace performs its "disk" accesses
//! through this crate, so a unit of I/O means the same thing for the R-tree
//! baseline, the PV-index and the UV-index.
//!
//! ```
//! use pv_storage::{MemPager, PageList, Pager};
//!
//! // A 4 KiB-page simulated disk holding one leaf-node page chain.
//! let disk = MemPager::default_pager();
//! let mut leaf = PageList::new();
//! leaf.append(&disk, b"record one");
//! leaf.append(&disk, b"record two");
//! assert_eq!(leaf.read_all(&disk).len(), 2);
//! assert!(disk.stats().snapshot().writes > 0); // every access is counted
//! ```

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;
pub mod fault;
pub mod fsio;
pub mod pagelist;
pub mod pager;
pub mod snapshot;
pub mod wal;

pub use fault::{FaultFs, FaultKind, FaultPlan, ScheduledFault};
pub use fsio::{Fs, RetryPolicy, StdFs};
pub use pagelist::{PageList, PageListStats};
pub use pager::{IoStats, MemPager, PageId, Pager, DEFAULT_PAGE_SIZE};
pub use snapshot::fnv1a64;
pub use wal::{TornTail, Wal, WalError, WalRecord, WalReplay};
