//! # pv-bench — experiment harness for §VII of the paper
//!
//! Shared machinery for the `experiments` binary: scale presets, workload
//! builders, measurement loops and table/CSV output. Every public function
//! in [`figures`] regenerates one figure (or the analysis behind one figure)
//! of the paper's evaluation; the command → figure mapping is in the README
//! ("Reproducing the paper's evaluation"). Performance claims about the
//! engine are measured by the repository benchmark (`BENCHMARK.json`, run by
//! the separate `perfbench` package), not here.

#![deny(missing_docs)]

pub mod figures;
pub mod report;

use pv_core::params::PvParams;
use pv_uncertain::UncertainDb;
use pv_workload::{realistic, synthetic, SyntheticConfig};

/// Experiment scale. The paper runs |S| up to 100k with 50 queries per data
/// point on 2008-class hardware; the presets trade cardinality for laptop
/// turnaround while keeping every *relative* comparison intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Minutes-scale smoke runs (|S| ≤ 2.5k).
    Tiny,
    /// The `experiments` binary's default (|S| ≤ 10k).
    Small,
    /// Construction-scaling runs (|S| ≤ 25k): large enough that the build
    /// (work-stealing SE, then per-object octree insertion) dominates the
    /// wall clock, small enough to finish in minutes.
    Large,
    /// The paper's Table-I scale (|S| ≤ 100k). Hours.
    Paper,
}

impl Preset {
    /// Parses a preset name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "tiny" => Some(Self::Tiny),
            "small" => Some(Self::Small),
            "large" => Some(Self::Large),
            "paper" => Some(Self::Paper),
            _ => None,
        }
    }

    /// The |S| sweep of Figs. 9(a)/(c) and 10(b)/(c)/(h)/(i).
    pub fn s_sweep(self) -> Vec<usize> {
        match self {
            Self::Tiny => vec![500, 1_000, 1_500, 2_000, 2_500],
            Self::Small => vec![2_000, 4_000, 6_000, 8_000, 10_000],
            Self::Large => vec![5_000, 10_000, 15_000, 20_000, 25_000],
            Self::Paper => vec![20_000, 40_000, 60_000, 80_000, 100_000],
        }
    }

    /// Default |S| for non-cardinality sweeps.
    pub fn s_default(self) -> usize {
        match self {
            Self::Tiny => 1_500,
            Self::Small => 6_000,
            Self::Large => 25_000,
            Self::Paper => 100_000,
        }
    }

    /// Queries per data point (the paper averages 50 runs).
    pub fn queries(self) -> usize {
        match self {
            Self::Tiny => 25,
            Self::Small => 50,
            Self::Large => 50,
            Self::Paper => 50,
        }
    }

    /// Real-dataset cardinalities (paper: roads 30k, rrlines 36k,
    /// airports 20k), scaled with the preset.
    pub fn real_sizes(self) -> (usize, usize, usize) {
        match self {
            Self::Tiny => (1_000, 1_200, 700),
            Self::Small => (3_000, 3_600, 2_000),
            Self::Large => (10_000, 12_000, 7_000),
            Self::Paper => (30_000, 36_000, 20_000),
        }
    }

    /// Objects deleted/re-inserted in the update experiments (paper: 1k).
    pub fn update_batch(self) -> usize {
        match self {
            Self::Tiny => 50,
            Self::Small => 150,
            Self::Large => 500,
            Self::Paper => 1_000,
        }
    }

    /// Instances per object (paper: 500). Step 2 cost scales linearly with
    /// this; the tiny preset trims it.
    pub fn samples(self) -> u32 {
        match self {
            Self::Tiny => 100,
            _ => 500,
        }
    }
}

/// Common experiment context: preset + construction parallelism.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Scale preset.
    pub preset: Preset,
    /// Worker threads for the build's UBR construction (queries stay serial,
    /// as in the paper).
    pub threads: usize,
}

impl Ctx {
    /// Context with all available cores for construction.
    pub fn new(preset: Preset) -> Self {
        Self {
            preset,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    }

    /// `PvParams` matching Table I, with this context's build parallelism.
    pub fn pv_params(&self) -> PvParams {
        PvParams {
            build_threads: self.threads,
            ..Default::default()
        }
    }

    /// Synthetic database with Table-I defaults at the given cardinality.
    pub fn synthetic_db(&self, n: usize, dim: usize, max_side: f64, seed: u64) -> UncertainDb {
        synthetic(&SyntheticConfig {
            n,
            dim,
            max_side,
            samples: self.preset.samples(),
            seed,
        })
    }

    /// The three simulated real datasets at preset scale.
    pub fn real_dbs(&self) -> Vec<(&'static str, UncertainDb)> {
        let (roads_n, rr_n, air_n) = self.preset.real_sizes();
        vec![
            ("roads", realistic::roads(roads_n, 71)),
            ("rrlines", realistic::rrlines(rr_n, 72)),
            ("airports", realistic::airports(air_n, 73)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_parsing() {
        assert_eq!(Preset::parse("tiny"), Some(Preset::Tiny));
        assert_eq!(Preset::parse("small"), Some(Preset::Small));
        assert_eq!(Preset::parse("large"), Some(Preset::Large));
        assert_eq!(Preset::parse("paper"), Some(Preset::Paper));
        assert_eq!(Preset::parse("huge"), None);
    }

    #[test]
    fn sweeps_are_monotone() {
        for p in [Preset::Tiny, Preset::Small, Preset::Large, Preset::Paper] {
            let sweep = p.s_sweep();
            assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn ctx_builds_dbs() {
        let ctx = Ctx::new(Preset::Tiny);
        let db = ctx.synthetic_db(100, 2, 60.0, 1);
        assert_eq!(db.len(), 100);
        assert!(ctx.pv_params().build_threads >= 1);
    }
}
