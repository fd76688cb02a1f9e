//! Instrumentation structures shared by construction, queries and updates.
//!
//! Every figure of §VII decomposes into these measurements: query time split
//! into Step-1 object retrieval (`OR`) and Step-2 probability computation
//! (`PC`), page-level I/O, construction-time split into `chooseCSet` and
//! UBR refinement, and per-update maintenance cost.

use std::time::Duration;

/// Cost of PNNQ Step 1 (object retrieval).
#[derive(Debug, Clone, Copy, Default)]
pub struct Step1Stats {
    /// Wall-clock time of the retrieval (the paper's `T_OR`).
    pub time: Duration,
    /// Disk pages read (PV-index leaf pages, or R-tree leaf-node visits).
    pub io_reads: u64,
    /// Candidates fetched before the min/max-distance pruning.
    pub candidates: usize,
    /// Objects with non-zero qualification probability.
    pub answers: usize,
}

/// Cost of a full PNNQ (Step 1 + Step 2).
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Step-1 breakdown.
    pub step1: Step1Stats,
    /// Wall-clock time of probability computation (the paper's `T_PC`).
    pub pc_time: Duration,
    /// Disk pages read during Step 2 (pdf payload fetches).
    pub pc_io_reads: u64,
}

impl QueryStats {
    /// Total query time `Tq = T_OR + T_PC`.
    pub fn total_time(&self) -> Duration {
        self.step1.time + self.pc_time
    }

    /// Total I/O over both steps.
    pub fn total_io(&self) -> u64 {
        self.step1.io_reads + self.pc_io_reads
    }
}

/// Cost of one SE run (UBR computation for a single object).
#[derive(Debug, Clone, Default)]
pub struct SeStats {
    /// Time spent inside `chooseCSet`.
    pub cset_time: Duration,
    /// Time spent shrinking/expanding (Steps 4–12 of Algorithm 1).
    pub refine_time: Duration,
    /// Size of the candidate set used.
    pub cset_size: usize,
    /// Slab tests executed (Step 9 evaluations).
    pub slab_tests: u64,
    /// Slab tests that proved emptiness (h was shrunk).
    pub shrinks: u64,
    /// Slab tests that failed (l was expanded).
    pub expands: u64,
    /// Spatial-domination rectangle tests executed.
    pub dom_tests: u64,
    /// Partitions generated by domination-count estimation.
    pub partitions: u64,
}

impl SeStats {
    /// Merges another run into this accumulator.
    pub fn absorb(&mut self, other: &SeStats) {
        self.cset_time += other.cset_time;
        self.refine_time += other.refine_time;
        self.cset_size += other.cset_size;
        self.slab_tests += other.slab_tests;
        self.shrinks += other.shrinks;
        self.expands += other.expands;
        self.dom_tests += other.dom_tests;
        self.partitions += other.partitions;
    }
}

/// Cost of building the whole PV-index.
#[derive(Debug, Clone, Default)]
pub struct BuildStats {
    /// Total wall-clock construction time (the paper's `Tc`).
    pub total_time: Duration,
    /// Aggregated SE statistics over all objects (cset vs refinement split
    /// of Fig. 10(e); `cset_size / ubr_count` is the paper's average C-set
    /// size comparison — IS ≈ 120 vs FS = 200).
    pub se: SeStats,
    /// Time spent inserting UBRs into the primary/secondary indexes.
    pub insert_time: Duration,
    /// Number of UBRs computed.
    pub ubr_count: usize,
}

impl BuildStats {
    /// Average candidate-set size per object.
    pub fn avg_cset_size(&self) -> f64 {
        if self.ubr_count == 0 {
            0.0
        } else {
            self.se.cset_size as f64 / self.ubr_count as f64
        }
    }
}

/// Cost of one incremental insertion or deletion (§VI-B).
#[derive(Debug, Clone, Default)]
pub struct UpdateStats {
    /// Total wall-clock time of the update (the paper's `Tu`).
    pub time: Duration,
    /// Objects whose UBRs a deletion recomputed: those that survived the
    /// Lemma-8 filters of its primary-index range query. The PV-index runs
    /// that query only on deletion, so an insertion, which leaves its
    /// neighbours' UBRs as they are, reports 0.
    pub affected: usize,
    /// SE work: the new object's one run on insertion; one run per
    /// [`UpdateStats::affected`] object on deletion.
    pub se: SeStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_stats_totals() {
        let qs = QueryStats {
            step1: Step1Stats {
                time: Duration::from_millis(4),
                io_reads: 3,
                candidates: 10,
                answers: 2,
            },
            pc_time: Duration::from_millis(6),
            pc_io_reads: 5,
        };
        assert_eq!(qs.total_time(), Duration::from_millis(10));
        assert_eq!(qs.total_io(), 8);
    }

    #[test]
    fn se_stats_absorb() {
        let mut a = SeStats {
            cset_size: 5,
            slab_tests: 2,
            ..Default::default()
        };
        let b = SeStats {
            cset_size: 7,
            slab_tests: 3,
            shrinks: 1,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.cset_size, 12);
        assert_eq!(a.slab_tests, 5);
        assert_eq!(a.shrinks, 1);
    }

    #[test]
    fn avg_cset_size() {
        let mut bs = BuildStats::default();
        assert_eq!(bs.avg_cset_size(), 0.0);
        bs.ubr_count = 4;
        bs.se.cset_size = 10;
        assert_eq!(bs.avg_cset_size(), 2.5);
    }
}
