//! The unified query-engine API: request/response types and engine traits.
//!
//! The paper evaluates one query shape — a point PNNQ returning every object
//! with non-zero qualification probability — but the surrounding literature
//! (probability-threshold PNN, top-k PNN) and this repo's roadmap (batched,
//! multi-backend, concurrent serving) need a single engine-agnostic surface.
//! This module provides it:
//!
//! * [`QuerySpec`] — a builder describing *what to answer*: plain PNNQ,
//!   probability threshold, top-k, Step-1-only retrieval, and batch
//!   parallelism;
//! * [`QueryOutcome`] / [`BatchOutcome`] — rich results: answers sorted by
//!   qualification probability, the raw Step-1 candidate set, and per-phase
//!   [`Step1Stats`]/[`QueryStats`];
//! * [`Step1Engine`] — candidate retrieval (PNNQ Step 1), implemented by
//!   every index in the workspace;
//! * [`ProbNnEngine`] — full PNNQ. Engines implement one hook per paper
//!   step, each writing into caller-owned buffers: Step 1 is
//!   [`Step1Engine::step1_into`], Step 2 is [`ProbNnEngine::fetch_dists_sq`]
//!   (plus [`ProbNnEngine::candidate_region`] for ordering). There is no
//!   second, allocating tier to implement: [`Step1Engine::step1`] is a
//!   provided wrapper, and engines inherit the entire Step-2 pipeline:
//!   squared-distance candidate ordering, early termination, the merged-CDF
//!   probability sweep, answer semantics, and batching
//!   ([`ProbNnEngine::query_batch`] / [`ProbNnEngine::query_batch_into`]
//!   with reusable [`BatchSlots`]).
//!
//! Every evaluation entry point is **fallible**: data-dependent misuse — a
//! query point of the wrong dimensionality, a query against an empty
//! engine, a [`ProbNnEngine::run`] call on a spec without a target — comes
//! back as a [`QueryError`] instead of a panic, so a serving layer (see
//! [`crate::db`]) can reject one bad request without taking the process
//! down. Spec-construction misuse (`with_top_k(0)`, a negative threshold)
//! stays a documented panic: it cannot depend on runtime data.
//!
//! # Answer semantics
//!
//! * default — every Step-1 candidate with its exact probability, zeros
//!   retained (the paper's semantics, plus filter observability);
//! * [`QuerySpec::with_threshold`]`(τ)` — answers with `p ≥ τ` and `p > 0`;
//! * [`QuerySpec::with_top_k`]`(k)` — the `k` highest-probability answers
//!   among those with `p > 0`.
//!
//! Raising `τ` yields a subset; `with_top_k(k)` is a prefix of
//! `with_top_k(k + 1)`; both agree with the
//! [`LinearScan`](crate::verify::LinearScan) ground truth
//! (`tests/answer_semantics.rs` at the workspace root checks the laws
//! across all four engines).
//!
//! The same spec runs unchanged on every engine — here against the
//! linear-scan ground truth:
//!
//! ```
//! use pv_core::query::{ProbNnEngine, QuerySpec};
//! use pv_core::verify::LinearScan;
//! use pv_geom::{HyperRect, Point};
//! use pv_uncertain::{UncertainDb, UncertainObject};
//!
//! let domain = HyperRect::cube(2, 0.0, 100.0);
//! let objects = (0..20u64)
//!     .map(|i| {
//!         let lo = vec![(i * 4) as f64, 10.0];
//!         let hi = vec![(i * 4 + 3) as f64, 13.0];
//!         UncertainObject::uniform(i, HyperRect::new(lo, hi), 16)
//!     })
//!     .collect();
//! let scan = LinearScan::new(&UncertainDb::new(domain, objects));
//!
//! let spec = QuerySpec::point(Point::new(vec![1.0, 11.0])).with_top_k(3);
//! let outcome = scan.run(&spec).unwrap();
//! assert!(!outcome.answers.is_empty() && outcome.answers.len() <= 3);
//! assert!(outcome.best().unwrap().1 > 0.0); // most likely NN, first
//!
//! // Malformed requests are values, not panics:
//! let bad = QuerySpec::point(Point::new(vec![1.0, 2.0, 3.0]));
//! assert!(scan.run(&bad).is_err()); // 3-D point, 2-D data
//! ```
//!
//! # Early termination
//!
//! When a threshold or top-k is requested, Step 2 visits candidates in
//! ascending `distmin` order and maintains `cutoff`, the smallest *farthest
//! instance distance* seen so far. Each fetched candidate's farthest
//! instance is a linear `total_cmp` maximum over its distances (no
//! per-candidate sort: the kernel takes them in any order). A candidate `x`
//! with `distmin(x, q) > cutoff` is provably irrelevant: some fetched object
//! `o` has **all** instances strictly closer than all of `x`'s, so
//! `P(x) = 0`; and in every possible world that contributes probability
//! mass to another candidate the winning distance `d` satisfies
//! `d ≤ cutoff < distmin(x)`, making `x`'s factor `P(dist(x, q) > d)`
//! exactly `1`. Skipping `x`'s pdf payload therefore changes no reported
//! probability — the first semantics-level optimization the old per-engine
//! inherent methods could not express. Because candidates are sorted by
//! `distmin`, the first skip ends the scan. (The driver compares `distmin²`
//! against a squared cutoff — the same argument, one `sqrt` cheaper.)
//!
//! The kernel applies the same cutoff inside Step 2, for every spec: over the
//! fetched candidates, a world farther than the smallest farthest instance
//! has a rival with no farther mass left and adds exactly `+0.0`, so
//! [`qualification_sweep_into`] merges only the instances at or below it.

use crate::error::QueryError;
use crate::prob::{qualification_sweep_into, ProbScratch};
use crate::stats::{QueryStats, Step1Stats};
use pv_geom::{min_dist_sq, HyperRect, Point};
use std::time::{Duration, Instant};

/// Engine-side reusable buffers: everything an engine needs to run Step 1
/// and fetch Step-2 payloads without touching the heap. Owned by
/// [`QueryScratch`], handed to [`Step1Engine::step1_into`] and
/// [`ProbNnEngine::fetch_dists_sq`]. Engines use whichever fields suit their
/// storage layout; unused fields stay empty and cost nothing.
#[derive(Debug, Default)]
pub struct FetchScratch {
    /// Raw page bytes (hash-bucket pages, overflow pages).
    pub page: Vec<u8>,
    /// Record/value bytes (secondary-index records).
    pub record: Vec<u8>,
    /// Instance-sampling buffers for the pdf payload path.
    pub samples: pv_uncertain::SampleScratch,
    /// Octree point-query descent buffers.
    pub octree: pv_octree::PointQueryScratch,
    /// Step-1 candidate triples `(id, distmin², distmax²)`.
    pub cand: Vec<(u64, f64, f64)>,
}

/// Per-thread reusable state for the Step-2 driver. Thread one instance
/// through repeated [`ProbNnEngine::execute_into`] calls (or let
/// [`ProbNnEngine::query_batch_into`] manage a set) and, once the buffers
/// have grown to the workload's working size, every query runs with **zero
/// heap allocations** — the property the counting-allocator test at the
/// workspace root asserts. The [`Session`](crate::db::Session) handle of
/// the concurrent [`Db`](crate::db::Db) facade pools one of these per
/// session so the contract survives snapshot swaps.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Candidates ordered by squared `distmin` (ascending, ties by id).
    order: Vec<(u64, f64)>,
    /// `(id, start, len)` spans into `dists`, in fetch order.
    spans: Vec<(u64, u32, u32)>,
    /// Flat buffer of per-candidate squared instance distances, each span
    /// in fetch order (unsorted).
    dists: Vec<f64>,
    /// Merged-CDF sweep state.
    prob: ProbScratch,
    /// Engine-side buffers.
    pub fetch: FetchScratch,
}

/// Reusable outcome + scratch storage for repeated
/// [`ProbNnEngine::query_batch_into`] runs. The outcome vectors are cleared
/// and refilled in place, so a steady-state batch loop re-running the same
/// workload performs no per-query heap allocation.
#[derive(Debug, Default)]
pub struct BatchSlots {
    /// Per-query outcomes of the latest run, in input order.
    pub outcomes: Vec<QueryOutcome>,
    scratches: Vec<QueryScratch>,
    /// One error slot per worker, reused across runs so the parallel path
    /// can report a worker failure without allocating a channel.
    errors: Vec<Option<QueryError>>,
}

impl BatchSlots {
    /// Empty slots; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A declarative description of one probabilistic-NN request.
///
/// Build with [`QuerySpec::point`] (single query) or [`QuerySpec::new`]
/// (a template for [`ProbNnEngine::query_batch`] /
/// [`ProbNnEngine::execute`]), then chain the `with_*` builder methods.
/// Each builder has a symmetric getter of the bare name
/// (`with_threshold(τ)` ↔ `threshold()`).
///
/// ```
/// use pv_core::query::QuerySpec;
/// use pv_geom::Point;
///
/// let spec = QuerySpec::point(Point::new(vec![1.0, 2.0]))
///     .with_threshold(0.1)
///     .with_top_k(5);
/// assert_eq!(spec.top_k(), Some(5));
/// assert_eq!(spec.threshold(), Some(0.1));
/// ```
#[must_use = "a QuerySpec does nothing until an engine executes it"]
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuerySpec {
    target: Option<Point>,
    threshold: Option<f64>,
    top_k: Option<usize>,
    step1_only: bool,
    batch_threads: Option<usize>,
}

impl QuerySpec {
    /// A spec with no target point — a template for
    /// [`ProbNnEngine::execute`] and [`ProbNnEngine::query_batch`], which
    /// supply the point(s) themselves.
    pub fn new() -> Self {
        Self::default()
    }

    /// A spec for a single PNNQ at `q`, runnable via
    /// [`ProbNnEngine::run`].
    pub fn point(q: Point) -> Self {
        Self {
            target: Some(q),
            ..Self::default()
        }
    }

    /// Keep only answers whose qualification probability is at least `tau`
    /// (and strictly positive). Enables Step-2 early termination.
    ///
    /// # Panics
    /// If `tau` is negative or not finite.
    pub fn with_threshold(mut self, tau: f64) -> Self {
        assert!(tau.is_finite() && tau >= 0.0, "threshold must be ≥ 0");
        self.threshold = Some(tau);
        self
    }

    /// Keep only the `k` highest-probability answers (positive probability
    /// only). Enables Step-2 early termination.
    ///
    /// # Panics
    /// If `k` is zero.
    pub fn with_top_k(mut self, k: usize) -> Self {
        assert!(k > 0, "top_k must be ≥ 1");
        self.top_k = Some(k);
        self
    }

    /// Stop after Step 1: [`QueryOutcome::candidates`] is populated,
    /// [`QueryOutcome::answers`] stays empty and no pdf payload is read.
    pub fn with_step1_only(mut self) -> Self {
        self.step1_only = true;
        self
    }

    /// Worker threads for [`ProbNnEngine::query_batch`] (default: one per
    /// available core, capped at the batch size). `1` forces sequential
    /// execution.
    pub fn with_batch_threads(mut self, threads: usize) -> Self {
        self.batch_threads = Some(threads.max(1));
        self
    }

    /// The target point, if one was set via [`QuerySpec::point`].
    pub fn target(&self) -> Option<&Point> {
        self.target.as_ref()
    }

    /// The probability threshold, if any.
    pub fn threshold(&self) -> Option<f64> {
        self.threshold
    }

    /// The top-k cap, if any.
    pub fn top_k(&self) -> Option<usize> {
        self.top_k
    }

    /// True when the spec stops after Step 1.
    pub fn is_step1_only(&self) -> bool {
        self.step1_only
    }

    /// The requested batch parallelism, if any.
    pub fn batch_threads(&self) -> Option<usize> {
        self.batch_threads
    }

    /// True when the answer semantics allow dropping zero-probability
    /// candidates — the precondition for Step-2 early termination.
    fn prunes(&self) -> bool {
        self.threshold.is_some() || self.top_k.is_some()
    }
}

/// The result of one query executed through [`ProbNnEngine`].
#[must_use = "a QueryOutcome carries the answers and per-phase statistics"]
#[derive(Debug, Clone, Default)]
pub struct QueryOutcome {
    /// The Step-1 candidate set (ids ascending) — populated for every spec,
    /// including [`QuerySpec::with_step1_only`].
    pub candidates: Vec<u64>,
    /// Final answers `(id, qualification probability)`, sorted by
    /// probability descending (ties: id ascending). Empty for
    /// Step-1-only specs.
    pub answers: Vec<(u64, f64)>,
    /// Per-phase cost breakdown.
    pub stats: QueryStats,
    /// Candidates whose pdf payload was never fetched: the proven-zero
    /// candidates removed by early termination.
    pub skipped_payloads: usize,
}

impl QueryOutcome {
    /// The most likely nearest neighbor, if any answer qualified.
    pub fn best(&self) -> Option<(u64, f64)> {
        self.answers.first().copied()
    }

    /// The qualification probability of `id`, if it is among the answers.
    pub fn probability_of(&self, id: u64) -> Option<f64> {
        self.answers
            .iter()
            .find(|&&(aid, _)| aid == id)
            .map(|&(_, p)| p)
    }

    /// Answer ids in reported (probability-descending) order.
    pub fn answer_ids(&self) -> Vec<u64> {
        self.answers.iter().map(|&(id, _)| id).collect()
    }

    /// Clears the outcome for reuse, keeping the vector capacities.
    fn reset(&mut self) {
        self.candidates.clear();
        self.answers.clear();
        self.stats = QueryStats::default();
        self.skipped_payloads = 0;
    }
}

/// Aggregated cost of a [`ProbNnEngine::query_batch`] run.
///
/// `io_reads` sums the per-outcome totals; engines meter I/O through shared
/// atomic counters, so under parallel execution a page read can be
/// attributed to more than one concurrent query — `wall_time` is the
/// authoritative throughput figure, per-query I/O is exact only at
/// `threads == 1`.
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Number of queries executed.
    pub queries: usize,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall time of the whole batch.
    pub wall_time: Duration,
    /// Summed per-query total I/O (see the type-level note).
    pub io_reads: u64,
    /// Total answers across the batch.
    pub answers: usize,
}

impl BatchStats {
    /// Batch throughput in queries per second. Returns `0.0` (not `inf` or
    /// NaN) when the measured wall time is zero — sub-resolution clocks on
    /// tiny CI batches must not poison downstream aggregation.
    #[must_use]
    pub fn queries_per_sec(&self) -> f64 {
        let s = self.wall_time.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.queries as f64 / s
        }
    }
}

/// The result of a batch execution: one [`QueryOutcome`] per input point (in
/// input order) plus aggregated statistics.
#[must_use = "a BatchOutcome carries the per-query outcomes and batch statistics"]
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Per-query outcomes, in input order.
    pub outcomes: Vec<QueryOutcome>,
    /// Aggregated cost.
    pub stats: BatchStats,
}

/// PNNQ Step 1: retrieval of every object with a non-zero chance of being
/// the query point's nearest neighbor (possibly over-approximated by engines
/// with approximate cells, e.g. the UV-index).
pub trait Step1Engine {
    /// Short engine identifier for reports (`"pv-index"`, `"rtree"`, …).
    fn engine_name(&self) -> &'static str;

    /// Dimensionality of the indexed data. Drives the
    /// [`QueryError::DimensionMismatch`] validation in the shared driver.
    fn dim(&self) -> usize;

    /// Number of indexed objects. Drives the
    /// [`QueryError::EmptyDatabase`] validation in the shared driver.
    fn len(&self) -> usize;

    /// True when no object is indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// PNNQ Step 1, the required retrieval hook: writes the candidate ids
    /// (ascending) into `ids` (cleared first) and returns the retrieval
    /// statistics, reusing `scratch` so a warmed query performs no heap
    /// allocation.
    ///
    /// Step 1 is infallible by contract: callers reach it through the
    /// validated [`ProbNnEngine::execute_into`] driver (or validate
    /// themselves when calling it directly). The per-phase statistics must
    /// be measured with a single clock / I/O-counter pair around the whole
    /// retrieval — never inside the candidate loop.
    fn step1_into(&self, q: &Point, ids: &mut Vec<u64>, scratch: &mut FetchScratch) -> Step1Stats;

    /// Retrieves the candidate ids (ascending) with retrieval statistics:
    /// [`Step1Engine::step1_into`] with fresh buffers, for callers outside
    /// the query loop.
    fn step1(&self, q: &Point) -> (Vec<u64>, Step1Stats) {
        let mut ids = Vec::new();
        let stats = self.step1_into(q, &mut ids, &mut FetchScratch::default());
        (ids, stats)
    }
}

/// Full probabilistic-NN query evaluation over a [`Step1Engine`].
///
/// Implementors provide the two data-access hooks; the whole Step-2
/// pipeline — input validation, candidate ordering, early termination,
/// probability computation, answer semantics and batching — is inherited.
///
/// A complete engine is the required hooks and nothing else — here a toy
/// in-memory scan that answers exactly like [`LinearScan`](crate::verify::LinearScan):
///
/// ```
/// use pv_core::query::{FetchScratch, ProbNnEngine, QuerySpec, Step1Engine};
/// use pv_core::stats::Step1Stats;
/// use pv_core::verify::{possible_nn, LinearScan};
/// use pv_geom::{HyperRect, Point};
/// use pv_uncertain::{UncertainDb, UncertainObject};
///
/// struct Scan(Vec<UncertainObject>);
///
/// impl Scan {
///     fn get(&self, id: u64) -> &UncertainObject {
///         self.0.iter().find(|o| o.id == id).expect("Step-1 ids are indexed")
///     }
/// }
///
/// impl Step1Engine for Scan {
///     fn engine_name(&self) -> &'static str {
///         "toy-scan"
///     }
///     fn dim(&self) -> usize {
///         2
///     }
///     fn len(&self) -> usize {
///         self.0.len()
///     }
///     fn step1_into(&self, q: &Point, ids: &mut Vec<u64>, _: &mut FetchScratch) -> Step1Stats {
///         ids.clear();
///         ids.extend(possible_nn(&self.0, q));
///         Step1Stats { candidates: ids.len(), answers: ids.len(), ..Default::default() }
///     }
/// }
///
/// impl ProbNnEngine for Scan {
///     fn candidate_region(&self, id: u64) -> &HyperRect {
///         &self.get(id).region
///     }
///     fn fetch_dists_sq(&self, id: u64, q: &Point, out: &mut Vec<f64>, s: &mut FetchScratch) -> u64 {
///         self.get(id).dists_sq_into(q, &mut s.samples, out);
///         0
///     }
/// }
///
/// let objects: Vec<_> = (0..12u64)
///     .map(|i| {
///         let (x, y) = ((i % 4) as f64 * 9.0, (i / 4) as f64 * 9.0);
///         UncertainObject::uniform(i, HyperRect::new(vec![x, y], vec![x + 7.0, y + 7.0]), 32)
///     })
///     .collect();
/// let scan = LinearScan::new(&UncertainDb::new(HyperRect::cube(2, 0.0, 40.0), objects.clone()));
/// let toy = Scan(objects);
/// for (x, y) in [(0.0, 0.0), (8.0, 8.0), (20.5, 3.0), (39.0, 39.0)] {
///     let spec = QuerySpec::point(Point::new(vec![x, y]));
///     let (got, want) = (toy.run(&spec).unwrap(), scan.run(&spec).unwrap());
///     assert_eq!(got.candidates, want.candidates);
///     assert_eq!(got.answers, want.answers);
/// }
/// let q = Point::new(vec![1.0, 1.0]);
/// assert_eq!(toy.step1(&q).0, scan.step1(&q).0); // the provided wrapper
/// ```
pub trait ProbNnEngine: Step1Engine {
    /// The uncertainty region of a Step-1 candidate, served by reference
    /// from the engine's in-memory catalog (no I/O is charged; used for
    /// candidate ordering and pruning).
    fn candidate_region(&self, id: u64) -> &HyperRect;

    /// PNNQ Step 2, the required payload hook: appends candidate `id`'s
    /// **squared** instance distances to `q` onto `out` and returns the
    /// pages the fetch charged (index pages actually read plus the
    /// modelled pdf-payload pages). Engines with a shared pager meter their
    /// reads with a *narrow* per-fetch counter bracket, so under a parallel
    /// batch a concurrent query's reads can only leak into the attribution
    /// during the fetch itself, not across the whole Step-2 phase.
    fn fetch_dists_sq(
        &self,
        id: u64,
        q: &Point,
        out: &mut Vec<f64>,
        scratch: &mut FetchScratch,
    ) -> u64;

    /// Validates `q` against the engine: at least one object must be
    /// indexed, the dimensionality must match, and every coordinate must be
    /// finite. Shared by every evaluation entry point; call it directly
    /// before a raw [`Step1Engine::step1`] when bypassing the driver.
    fn validate_point(&self, q: &Point) -> Result<(), QueryError> {
        if self.is_empty() {
            return Err(QueryError::EmptyDatabase);
        }
        let expected = self.dim();
        if q.dim() != expected {
            return Err(QueryError::DimensionMismatch {
                expected,
                got: q.dim(),
            });
        }
        if !q.coords().iter().all(|c| c.is_finite()) {
            return Err(QueryError::NonFinitePoint);
        }
        Ok(())
    }

    /// Executes `spec` at point `q`.
    ///
    /// Convenience wrapper over [`ProbNnEngine::execute_into`] with fresh
    /// buffers; batch callers should reuse a [`QueryScratch`] (or use
    /// [`ProbNnEngine::query_batch_into`]) to amortise them away.
    ///
    /// # Errors
    /// [`QueryError::DimensionMismatch`] when `q` does not match the
    /// indexed data's dimensionality; [`QueryError::NonFinitePoint`] when a
    /// coordinate of `q` is NaN or infinite; [`QueryError::EmptyDatabase`]
    /// when nothing is indexed.
    fn execute(&self, q: &Point, spec: &QuerySpec) -> Result<QueryOutcome, QueryError> {
        let mut out = QueryOutcome::default();
        self.execute_into(q, spec, &mut QueryScratch::default(), &mut out)?;
        Ok(out)
    }

    /// Executes `spec` at point `q`, writing the result into `out` (cleared
    /// first) and reusing every buffer in `scratch` — the allocation-free
    /// query driver. On error `out` is left cleared.
    ///
    /// Step 2 works entirely in **squared** distances (ordering, the early
    /// termination cutoff and the probability kernel are all invariant
    /// under the monotone square), visits candidates in ascending
    /// `distmin²` order, and computes the probabilities with the merged-CDF
    /// sweep ([`qualification_sweep_into`]). Each phase is *timed* with a
    /// single `Instant` pair (the clock is never read inside the candidate
    /// loop); I/O is the sum of the per-fetch charges reported by
    /// [`ProbNnEngine::fetch_dists_sq`], keeping attribution narrow under
    /// concurrent batches.
    ///
    /// # Errors
    /// Same contract as [`ProbNnEngine::execute`].
    fn execute_into(
        &self,
        q: &Point,
        spec: &QuerySpec,
        scratch: &mut QueryScratch,
        out: &mut QueryOutcome,
    ) -> Result<(), QueryError> {
        out.reset();
        self.validate_point(q)?;
        out.stats.step1 = self.step1_into(q, &mut out.candidates, &mut scratch.fetch);
        if spec.is_step1_only() {
            return Ok(());
        }

        let t1 = Instant::now();
        // Visit candidates in ascending distmin² order so that early
        // termination can stop at the first provably-irrelevant candidate.
        scratch.order.clear();
        for &id in out.candidates.iter() {
            scratch
                .order
                .push((id, min_dist_sq(self.candidate_region(id), q)));
        }
        scratch
            .order
            .sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

        let prune = spec.prunes();
        let mut cutoff_sq = f64::INFINITY; // min over fetched of max instance dist²
        let mut pc_io = 0u64;
        scratch.spans.clear();
        scratch.dists.clear();
        for (i, &(id, mind_sq)) in scratch.order.iter().enumerate() {
            if prune && mind_sq > cutoff_sq {
                // Sorted ascending: every remaining candidate is proven
                // irrelevant too (see the module-level soundness argument).
                out.skipped_payloads = scratch.order.len() - i;
                break;
            }
            let start = scratch.dists.len() as u32;
            pc_io += self.fetch_dists_sq(id, q, &mut scratch.dists, &mut scratch.fetch);
            // The candidate's farthest instance tightens the prune cutoff. A
            // linear `total_cmp` max, the element a sort would put last: the
            // kernel takes each span's distances in any order.
            let farthest_sq = scratch
                .dists
                .get(start as usize..)
                .and_then(|new_dists| new_dists.iter().copied().max_by(f64::total_cmp));
            if let Some(farthest_sq) = farthest_sq {
                cutoff_sq = cutoff_sq.min(farthest_sq);
            }
            scratch
                .spans
                .push((id, start, scratch.dists.len() as u32 - start));
        }

        qualification_sweep_into(
            &scratch.spans,
            &scratch.dists,
            &mut scratch.prob,
            &mut out.answers,
        );
        out.answers
            .sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        if let Some(tau) = spec.threshold() {
            out.answers.retain(|&(_, p)| p >= tau && p > 0.0);
        }
        if let Some(k) = spec.top_k() {
            out.answers.retain(|&(_, p)| p > 0.0);
            out.answers.truncate(k);
        }
        out.stats.pc_time = t1.elapsed();
        out.stats.pc_io_reads = pc_io;
        Ok(())
    }

    /// Executes a spec built with [`QuerySpec::point`].
    ///
    /// (Named `run` rather than `query` for historical reasons: the engines
    /// once carried inherent `query` methods, removed after a deprecation
    /// cycle, and the trait method was named to never collide with them.)
    ///
    /// # Errors
    /// [`QueryError::MissingTarget`] when the spec has no target point,
    /// plus the [`ProbNnEngine::execute`] contract.
    fn run(&self, spec: &QuerySpec) -> Result<QueryOutcome, QueryError> {
        let q = spec.target().ok_or(QueryError::MissingTarget)?;
        self.execute(q, spec)
    }

    /// Executes `spec` at every point of `points`, in parallel by default
    /// (`std::thread::scope` over chunks, like the parallel index build);
    /// `&self` queries are already shareable across threads. Control the
    /// worker count with [`QuerySpec::with_batch_threads`].
    ///
    /// Each worker reuses one [`QueryScratch`] across its whole chunk; for a
    /// serving loop that runs batch after batch, keep a [`BatchSlots`] and
    /// call [`ProbNnEngine::query_batch_into`] to also recycle the outcome
    /// storage.
    ///
    /// # Errors
    /// The whole batch is validated up front: the first offending point (or
    /// an empty engine) fails the call before any query runs, so there are
    /// no partial results.
    fn query_batch(&self, points: &[Point], spec: &QuerySpec) -> Result<BatchOutcome, QueryError>
    where
        Self: Sync,
    {
        let mut slots = BatchSlots::new();
        let stats = self.query_batch_into(points, spec, &mut slots)?;
        Ok(BatchOutcome {
            outcomes: slots.outcomes,
            stats,
        })
    }

    /// Buffer-reusing batch execution: like [`ProbNnEngine::query_batch`]
    /// but writing into `slots`, whose outcome vectors and per-worker
    /// scratches persist across calls. At steady state (a warmed `slots`
    /// re-running a same-shaped workload) the whole batch performs **zero
    /// per-query heap allocations** with `with_batch_threads(1)`; with more
    /// threads only the worker spawns allocate.
    ///
    /// # Errors
    /// Validated up front like [`ProbNnEngine::query_batch`]; on a
    /// validation error `slots` is left untouched. A per-query failure
    /// during execution (defensive — up-front validation covers every
    /// current [`QueryError`]) is propagated too, with the outcomes written
    /// so far left in place.
    fn query_batch_into(
        &self,
        points: &[Point],
        spec: &QuerySpec,
        slots: &mut BatchSlots,
    ) -> Result<BatchStats, QueryError>
    where
        Self: Sync,
    {
        let t0 = Instant::now();
        for p in points {
            self.validate_point(p)?;
        }
        let threads = spec
            .batch_threads()
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
            .clamp(1, points.len().max(1));
        // Chunk rounding can need fewer workers than requested (e.g. 10
        // points over 8 threads → 5 chunks of 2); report the count actually
        // used.
        let chunk = points.len().div_ceil(threads).max(1);
        let workers = points.len().div_ceil(chunk).max(1);
        slots
            .outcomes
            .resize_with(points.len(), QueryOutcome::default);
        if slots.scratches.len() < workers {
            slots.scratches.resize_with(workers, QueryScratch::default);
        }
        if workers <= 1 {
            // `scratches` was just resized to at least one entry, so
            // `first_mut` is `Some`; errors propagate directly.
            if let Some(scratch) = slots.scratches.first_mut() {
                for (q, out) in points.iter().zip(slots.outcomes.iter_mut()) {
                    self.execute_into(q, spec, scratch, out)?;
                }
            }
        } else {
            slots.errors.clear();
            slots.errors.resize_with(workers, || None);
            std::thread::scope(|scope| {
                for (((ps, outs), scratch), err) in points
                    .chunks(chunk)
                    .zip(slots.outcomes.chunks_mut(chunk))
                    .zip(slots.scratches.iter_mut())
                    .zip(slots.errors.iter_mut())
                {
                    scope.spawn(move || {
                        for (q, out) in ps.iter().zip(outs.iter_mut()) {
                            if let Err(e) = self.execute_into(q, spec, scratch, out) {
                                *err = Some(e);
                                return;
                            }
                        }
                    });
                }
            });
            if let Some(e) = slots.errors.iter_mut().find_map(Option::take) {
                return Err(e);
            }
        }
        Ok(BatchStats {
            queries: points.len(),
            threads: workers,
            wall_time: t0.elapsed(),
            io_reads: slots.outcomes.iter().map(|o| o.stats.total_io()).sum(),
            answers: slots.outcomes.iter().map(|o| o.answers.len()).sum(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::LinearScan;
    use pv_uncertain::{Pdf, UncertainDb, UncertainObject};
    use std::sync::Arc;

    fn explicit(id: u64, lo: &[f64], hi: &[f64], pts: &[&[f64]]) -> UncertainObject {
        UncertainObject {
            id,
            region: HyperRect::new(lo.to_vec(), hi.to_vec()),
            pdf: Pdf::Explicit(Arc::new(
                pts.iter().map(|p| Point::new(p.to_vec())).collect(),
            )),
        }
    }

    /// near: huge region [0,10] but instances at 1 and 2; far: region [5,6]
    /// with instances at 5 and 6. Step 1 keeps both (distmax(near) = 10),
    /// yet far's distmin (5) exceeds near's farthest instance (2), so a
    /// pruning spec must skip far's payload and still be exact.
    fn skip_db() -> UncertainDb {
        let domain = HyperRect::new(vec![0.0], vec![20.0]);
        let near = explicit(1, &[0.0], &[10.0], &[&[1.0], &[2.0]]);
        let far = explicit(2, &[5.0], &[6.0], &[&[5.0], &[6.0]]);
        UncertainDb::new(domain, vec![near, far])
    }

    #[test]
    fn step1_only_skips_step2() {
        let db = skip_db();
        let scan = LinearScan::new(&db);
        let q = Point::new(vec![0.0]);
        let out = scan
            .execute(&q, &QuerySpec::new().with_step1_only())
            .unwrap();
        assert_eq!(out.candidates, vec![1, 2]);
        assert!(out.answers.is_empty());
        assert_eq!(out.stats.pc_io_reads, 0);
    }

    #[test]
    fn default_spec_retains_zero_probability_candidates() {
        let db = skip_db();
        let scan = LinearScan::new(&db);
        let q = Point::new(vec![0.0]);
        let out = scan.execute(&q, &QuerySpec::new()).unwrap();
        assert_eq!(out.answers, vec![(1, 1.0), (2, 0.0)]);
        assert_eq!(out.skipped_payloads, 0);
    }

    #[test]
    fn early_termination_skips_irrelevant_payloads_exactly() {
        let db = skip_db();
        let scan = LinearScan::new(&db);
        let q = Point::new(vec![0.0]);
        let full = scan.execute(&q, &QuerySpec::new()).unwrap();
        let pruned = scan
            .execute(&q, &QuerySpec::new().with_threshold(1e-9))
            .unwrap();
        assert_eq!(pruned.answers, vec![(1, 1.0)]);
        assert_eq!(pruned.skipped_payloads, 1);
        assert!(pruned.stats.pc_io_reads < full.stats.pc_io_reads);
        // the retained probability is untouched by the skip
        assert_eq!(pruned.probability_of(1), full.probability_of(1));
    }

    #[test]
    fn threshold_is_monotone_and_top_k_is_a_prefix() {
        let domain = HyperRect::new(vec![0.0], vec![100.0]);
        // interleaved instances give a spread of probabilities
        let objs = vec![
            explicit(1, &[1.0], &[7.0], &[&[1.0], &[4.0], &[7.0]]),
            explicit(2, &[2.0], &[8.0], &[&[2.0], &[5.0], &[8.0]]),
            explicit(3, &[3.0], &[9.0], &[&[3.0], &[6.0], &[9.0]]),
        ];
        let db = UncertainDb::new(domain, objs);
        let scan = LinearScan::new(&db);
        let q = Point::new(vec![0.0]);
        let mut prev = scan
            .execute(&q, &QuerySpec::new().with_threshold(0.0))
            .unwrap()
            .answers;
        for tau in [0.1, 0.3, 0.6, 0.9] {
            let cur = scan
                .execute(&q, &QuerySpec::new().with_threshold(tau))
                .unwrap()
                .answers;
            assert!(
                cur.iter().all(|a| prev.contains(a)),
                "threshold {tau} not a subset"
            );
            prev = cur;
        }
        let mut prefix: Vec<(u64, f64)> = Vec::new();
        for k in 1..=4 {
            let cur = scan
                .execute(&q, &QuerySpec::new().with_top_k(k))
                .unwrap()
                .answers;
            assert!(cur.len() <= k);
            assert_eq!(&cur[..prefix.len()], &prefix[..], "top_k({k}) prefix");
            prefix = cur;
        }
    }

    #[test]
    fn batch_matches_sequential_execution() {
        let db = skip_db();
        let scan = LinearScan::new(&db);
        let points: Vec<Point> = (0..16).map(|i| Point::new(vec![i as f64])).collect();
        let spec = QuerySpec::new().with_top_k(2);
        let seq = scan
            .query_batch(&points, &spec.clone().with_batch_threads(1))
            .unwrap();
        let par = scan
            .query_batch(&points, &spec.clone().with_batch_threads(4))
            .unwrap();
        assert_eq!(seq.stats.threads, 1);
        assert_eq!(par.stats.threads, 4);
        assert_eq!(seq.outcomes.len(), par.outcomes.len());
        for (a, b) in seq.outcomes.iter().zip(par.outcomes.iter()) {
            assert_eq!(a.answers, b.answers);
            assert_eq!(a.candidates, b.candidates);
        }
        assert_eq!(seq.stats.queries, 16);
        assert_eq!(seq.stats.answers, par.stats.answers);
    }

    #[test]
    fn query_batch_into_reuses_slots_and_matches_fresh_runs() {
        let db = skip_db();
        let scan = LinearScan::new(&db);
        let points: Vec<Point> = (0..9).map(|i| Point::new(vec![i as f64])).collect();
        let spec = QuerySpec::new().with_top_k(2).with_batch_threads(1);
        let mut slots = BatchSlots::new();
        let first = scan.query_batch_into(&points, &spec, &mut slots).unwrap();
        assert_eq!(first.queries, 9);
        let fresh = scan.query_batch(&points, &spec).unwrap();
        for (a, b) in slots.outcomes.iter().zip(fresh.outcomes.iter()) {
            assert_eq!(a.answers, b.answers);
            assert_eq!(a.candidates, b.candidates);
        }
        // Re-running into the same slots must fully overwrite the previous
        // outcomes, and shrinking the workload must shrink the outcome list.
        let shorter = &points[..4];
        let second = scan.query_batch_into(shorter, &spec, &mut slots).unwrap();
        assert_eq!(second.queries, 4);
        assert_eq!(slots.outcomes.len(), 4);
        for (out, q) in slots.outcomes.iter().zip(shorter.iter()) {
            assert_eq!(out.answers, scan.execute(q, &spec).unwrap().answers);
        }
    }

    #[test]
    fn execute_into_with_reused_scratch_matches_execute() {
        let db = skip_db();
        let scan = LinearScan::new(&db);
        let mut scratch = QueryScratch::default();
        let mut out = QueryOutcome::default();
        for spec in [
            QuerySpec::new(),
            QuerySpec::new().with_threshold(0.1),
            QuerySpec::new().with_top_k(1),
            QuerySpec::new().with_step1_only(),
        ] {
            for i in 0..8 {
                let q = Point::new(vec![i as f64 * 1.5]);
                scan.execute_into(&q, &spec, &mut scratch, &mut out)
                    .unwrap();
                let fresh = scan.execute(&q, &spec).unwrap();
                assert_eq!(out.answers, fresh.answers);
                assert_eq!(out.candidates, fresh.candidates);
                assert_eq!(out.skipped_payloads, fresh.skipped_payloads);
            }
        }
    }

    #[test]
    fn run_uses_the_spec_target() {
        let db = skip_db();
        let scan = LinearScan::new(&db);
        let spec = QuerySpec::point(Point::new(vec![0.0])).with_top_k(1);
        let out = scan.run(&spec).unwrap();
        assert_eq!(out.best(), Some((1, 1.0)));
        assert_eq!(out.answer_ids(), vec![1]);
    }

    #[test]
    fn run_without_target_is_a_typed_error() {
        let db = skip_db();
        let scan = LinearScan::new(&db);
        assert_eq!(
            scan.run(&QuerySpec::new()).unwrap_err(),
            QueryError::MissingTarget
        );
    }

    #[test]
    fn dimension_mismatch_is_a_typed_error() {
        let db = skip_db(); // 1-D data
        let scan = LinearScan::new(&db);
        let q2 = Point::new(vec![0.0, 1.0]);
        assert_eq!(
            scan.execute(&q2, &QuerySpec::new()).unwrap_err(),
            QueryError::DimensionMismatch {
                expected: 1,
                got: 2
            }
        );
        // batch validation is up-front: a bad point anywhere fails the call
        let points = vec![Point::new(vec![0.0]), q2];
        assert!(scan.query_batch(&points, &QuerySpec::new()).is_err());
    }

    #[test]
    fn empty_database_is_a_typed_error() {
        let domain = HyperRect::new(vec![0.0], vec![10.0]);
        let scan = LinearScan::new(&UncertainDb::new(domain, vec![]));
        assert_eq!(
            scan.execute(&Point::new(vec![1.0]), &QuerySpec::new())
                .unwrap_err(),
            QueryError::EmptyDatabase
        );
    }

    #[test]
    fn queries_per_sec_guards_zero_duration() {
        let stats = BatchStats {
            queries: 100,
            wall_time: Duration::ZERO,
            ..Default::default()
        };
        assert_eq!(stats.queries_per_sec(), 0.0);
        assert!(stats.queries_per_sec().is_finite());
        let real = BatchStats {
            queries: 100,
            wall_time: Duration::from_millis(500),
            ..Default::default()
        };
        assert!((real.queries_per_sec() - 200.0).abs() < 1e-9);
    }
}
