//! The three workloads: their datasets, query specs, seeded query streams
//! and the churn write plan. The engine only ever sees the generated inputs.
//!
//! Each workload serves one fixed dataset, as the paper does: its real
//! datasets are fixed files and its synthetic one is generated once per
//! configuration. Churn's writes insert the generator's next objects, so
//! they too are part of the fixed data. The `--seed` argument draws the
//! query points and the oracle's sample, so runs with different seeds
//! measure the same index under different load rather than different
//! indexes.

use pv_core::{PvParams, QuerySpec};
use pv_geom::{HyperRect, Point};
use pv_uncertain::{UncertainDb, UncertainObject};
use pv_workload::{realistic, synthetic, SyntheticConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// |S| of the paper's Table-I synthetic data (uniform3d and churn).
pub const UNIFORM_N: usize = 6000;
/// Railroad corridor segments of rrlines2d.
pub const RRLINES_N: usize = 3600;
/// Index builds fan out over two workers: the benchmark host has two cores.
pub const BUILD_THREADS: usize = 2;
/// Churn's open-loop writer: writes due per second. A durable insert costs
/// about 5 ms of the writer's time on the two-core host, and up to twice
/// that while the host is loaded, so 25 per second leaves the writer
/// headroom: at 100 per second it falls behind and writes due near the end
/// of the window are never acknowledged.
pub const WRITE_RATE: u64 = 25;
/// Generator seed of every workload's dataset (the synthetic generator's
/// default).
pub const DATA_SEED: u64 = 42;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Table-I synthetic data, full-probability PNNQs, one closed-loop client.
    Uniform3d,
    /// Railroad corridors, top-1 PNNQs, one closed-loop client.
    Rrlines2d,
    /// uniform3d's data behind a `DurableDb`: one closed-loop reader plus an
    /// open-loop writer inserting fresh objects at [`WRITE_RATE`].
    Churn,
}

impl Kind {
    /// Every workload, in BENCHMARK.json order.
    pub const ALL: [Kind; 3] = [Kind::Uniform3d, Kind::Rrlines2d, Kind::Churn];

    /// The workload's name on the command line and in BENCHMARK.json.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Uniform3d => "uniform3d",
            Kind::Rrlines2d => "rrlines2d",
            Kind::Churn => "churn",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The reader's query spec.
    pub fn spec(self) -> QuerySpec {
        match self {
            Kind::Uniform3d | Kind::Churn => QuerySpec::new(),
            Kind::Rrlines2d => QuerySpec::new().with_top_k(1),
        }
    }
}

/// Index parameters: the paper's Table-I defaults with a two-worker build.
pub fn params() -> PvParams {
    PvParams {
        build_threads: BUILD_THREADS,
        ..PvParams::default()
    }
}

/// Derives an independent stream seed from the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    // splitmix64 finaliser: nearby run seeds give unrelated streams.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream tags for [`sub_seed`].
pub mod streams {
    /// The reader's query points.
    pub const QUERIES: u64 = 1;
    /// Which issued queries the oracle re-checks.
    pub const ORACLE: u64 = 2;
    /// The untimed warm-up's query points.
    pub const WARM_UP: u64 = 4;
}

fn uniform_config(n: usize, seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        n,
        dim: 3,
        max_side: 60.0,
        samples: 500,
        seed,
    }
}

/// The dataset a workload serves.
pub fn dataset(kind: Kind) -> UncertainDb {
    match kind {
        Kind::Uniform3d | Kind::Churn => synthetic(&uniform_config(UNIFORM_N, DATA_SEED)),
        Kind::Rrlines2d => realistic::rrlines(RRLINES_N, DATA_SEED),
    }
}

/// Uniform query points over the domain, one at a time.
#[derive(Debug)]
pub struct QueryStream {
    rng: StdRng,
    domain: HyperRect,
}

impl QueryStream {
    /// A stream over `domain` seeded from the run seed.
    pub fn new(domain: &HyperRect, seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(sub_seed(seed, streams::QUERIES)),
            domain: domain.clone(),
        }
    }

    /// The next query point.
    pub fn next_point(&mut self) -> Point {
        let (lo, hi) = (self.domain.lo(), self.domain.hi());
        Point::new(
            lo.iter()
                .zip(hi)
                .map(|(&l, &h)| self.rng.gen_range(l..=h))
                .collect(),
        )
    }
}

/// The churn inputs: the initial dataset (uniform3d's) and `count` writes,
/// each inserting the generator's next object. Like the dataset, the
/// inserted objects are the same for every seed, so the index grows the
/// same way in every run; the seed draws the reader's queries and the
/// oracle's sample. The plan is fixed before the run starts; the writer
/// never skips or re-draws a write.
///
/// Writes are inserts only: on today's engine a remove can stall for
/// seconds and grow the octree by gigabytes within the first few dozen
/// writes, so a plan with removes ends every run at a cap with most writes
/// failed, and the benchmark's workloads must be ones on which no
/// operation fails.
pub fn churn_inputs(count: usize) -> (UncertainDb, Vec<UncertainObject>) {
    // The generator draws objects one after another from one RNG, so the
    // first UNIFORM_N objects of the longer run are exactly uniform3d's data
    // and the rest are "the generator's next objects".
    let all = synthetic(&uniform_config(UNIFORM_N + count, DATA_SEED));
    let mut objects = all.objects;
    let plan = objects.split_off(UNIFORM_N);
    (UncertainDb::new(all.domain, objects), plan)
}

/// The live objects after applying `applied` (indices into `plan`, in
/// order) to `initial`: the state a recovered database must hold.
pub fn live_after(
    initial: &UncertainDb,
    plan: &[UncertainObject],
    applied: &[usize],
) -> UncertainDb {
    let mut objects = initial.objects.clone();
    objects.extend(applied.iter().map(|&i| plan[i].clone()));
    UncertainDb::new(initial.domain.clone(), objects)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_starts_from_uniform3d_data() {
        let base = dataset(Kind::Uniform3d);
        let (initial, plan) = churn_inputs(50);
        assert_eq!(base.objects.len(), initial.objects.len());
        for (a, b) in base.objects.iter().zip(&initial.objects) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.region, b.region);
        }
        assert_eq!(plan.len(), 50);
        // Fresh ids, none shared with the initial objects or each other.
        let ids: std::collections::BTreeSet<u64> = initial
            .objects
            .iter()
            .chain(&plan)
            .map(|o| o.id)
            .collect();
        assert_eq!(ids.len(), UNIFORM_N + 50);
        for o in &plan {
            assert!(base.domain.contains_rect(&o.region), "{:?}", o.region);
        }
    }

    #[test]
    fn live_after_adds_the_applied_inserts() {
        let (initial, plan) = churn_inputs(40);
        let after = live_after(&initial, &plan, &[0, 1, 5]);
        assert_eq!(after.objects.len(), UNIFORM_N + 3);
        let ids: std::collections::BTreeSet<u64> = after.objects.iter().map(|o| o.id).collect();
        for i in [0, 1, 5] {
            assert!(ids.contains(&plan[i].id));
        }
        assert!(!ids.contains(&plan[2].id));
    }

    #[test]
    fn same_seed_same_inputs() {
        // A longer window's plan starts with a shorter one's.
        let regions = |count| {
            let (_, plan) = churn_inputs(count);
            plan.into_iter().map(|o| o.region).collect::<Vec<_>>()
        };
        assert_eq!(regions(30)[..], regions(40)[..30]);
        let d = dataset(Kind::Rrlines2d);
        let mut s1 = QueryStream::new(&d.domain, 5);
        let mut s2 = QueryStream::new(&d.domain, 5);
        let mut s3 = QueryStream::new(&d.domain, 6);
        let p = s1.next_point();
        assert_eq!(p, s2.next_point());
        assert_ne!(p, s3.next_point());
    }
}
