//! Tuning parameters of the PV-index (Table I of the paper).

/// `chooseCSet` strategy (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CSetStrategy {
    /// Return the whole database `S` as the candidate set. Correct but
    /// extremely slow (the paper measures ~10³ hours at 20k objects);
    /// included as the ALL baseline of Fig. 10(b).
    All,
    /// Fixed Selection: the `k` objects whose mean positions are closest to
    /// the mean of `o` (paper default `k = 200`).
    Fixed {
        /// Number of nearest means to select.
        k: usize,
    },
    /// Incremental Selection: examine NNs of `o` in ascending mean distance,
    /// skipping objects whose uncertainty regions overlap `u(o)`, until
    /// every one of the `2^d` partitions around `o` has seen at least
    /// `k_partition` candidates or `k_global` NNs were examined
    /// (paper defaults: 10 and 200).
    Incremental {
        /// Per-partition candidate quota.
        k_partition: usize,
        /// Global cap on examined nearest neighbors.
        k_global: usize,
    },
}

impl Default for CSetStrategy {
    fn default() -> Self {
        CSetStrategy::Incremental {
            k_partition: 10,
            k_global: 200,
        }
    }
}

/// All tunables of the PV-index, with the defaults of Table I.
#[derive(Debug, Clone, Copy)]
pub struct PvParams {
    /// SE termination threshold `Δ` (domain units; paper default 1).
    pub delta: f64,
    /// Partition budget `m_max` of the domination-count estimation
    /// (paper default 10).
    pub mmax: usize,
    /// `chooseCSet` strategy of every SE run: the build's and each
    /// insertion's (paper default: IS).
    pub cset: CSetStrategy,
    /// Disk page size in bytes (paper: 4 KiB).
    pub page_size: usize,
    /// Main-memory budget for non-leaf primary-index nodes (paper: 5 MB).
    pub mem_budget: usize,
    /// R*-tree fanout for the bootstrap index (paper: 100).
    pub rtree_fanout: usize,
    /// Number of worker threads for bulk UBR construction (1 = serial;
    /// not part of the paper, exposed for the parallel-build ablation).
    pub build_threads: usize,
    /// UBR compression (the paper's §VIII "compression" future-work item):
    /// when set, every stored UBR is snapped *outward* onto a grid of this
    /// many steps per dimension and serialised as 2-byte cell indices.
    /// Step 1 stays exact (enlargement preserves `B(o) ⊇ V(o)`; the min/max
    /// filter removes the extra candidates) at a small I/O premium.
    pub ubr_quantize_steps: Option<u16>,
    /// Approximate-UBR mode (PR 8): when positive, SE terminates boundary
    /// refinement once the per-axis uncertainty gap drops below this value
    /// instead of `delta`, inflating every stored UBR by at most this much
    /// per axis side. UBRs are conservative by construction (Lemma 7), so a
    /// looser rectangle stays sound: Step 1 admits a few extra candidates
    /// and Step-2 qualification — hence every answer — is unchanged, while
    /// SE pays far fewer partition refinements. `0.0` (the default) is the
    /// exact mode. Set through [`PvParams::approx_ubr`].
    pub approx_epsilon: f64,
}

impl Default for PvParams {
    fn default() -> Self {
        Self {
            delta: 1.0,
            mmax: 10,
            cset: CSetStrategy::default(),
            page_size: 4096,
            mem_budget: 5 * 1024 * 1024,
            rtree_fanout: 100,
            build_threads: 1,
            ubr_quantize_steps: None,
            approx_epsilon: 0.0,
        }
    }
}

impl PvParams {
    /// Paper defaults but with FS candidate selection.
    pub fn with_fs(k: usize) -> Self {
        Self {
            cset: CSetStrategy::Fixed { k },
            ..Default::default()
        }
    }

    /// Paper defaults but with the ALL candidate set.
    pub fn with_all() -> Self {
        Self {
            cset: CSetStrategy::All,
            ..Default::default()
        }
    }

    /// Opt into approximate-UBR construction: SE stops refining each UBR
    /// boundary once its uncertainty gap is below `epsilon` (instead of
    /// `delta`), trading UBR tightness — at most `epsilon` of inflation per
    /// axis side — for far fewer refinement passes. Answers remain exact;
    /// see [`PvParams::approx_epsilon`].
    ///
    /// # Panics
    /// If `epsilon` is negative, NaN or infinite (cannot depend on runtime
    /// data).
    pub fn approx_ubr(mut self, epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "approx_ubr epsilon must be finite and non-negative"
        );
        self.approx_epsilon = epsilon;
        self
    }

    /// The SE termination threshold in effect: `delta`, relaxed to
    /// `approx_epsilon` when the approximate mode dominates it. Every SE
    /// call site (build and insertion) goes through this, so approx-built
    /// indexes also keep their looseness bound across commits.
    pub fn effective_delta(&self) -> f64 {
        self.delta.max(self.approx_epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_one() {
        let p = PvParams::default();
        assert_eq!(p.delta, 1.0);
        assert_eq!(p.mmax, 10);
        assert_eq!(p.page_size, 4096);
        assert_eq!(p.mem_budget, 5 * 1024 * 1024);
        assert_eq!(p.rtree_fanout, 100);
        assert_eq!(
            p.cset,
            CSetStrategy::Incremental {
                k_partition: 10,
                k_global: 200
            }
        );
    }

    #[test]
    fn strategy_constructors() {
        assert_eq!(PvParams::with_fs(50).cset, CSetStrategy::Fixed { k: 50 });
        assert_eq!(PvParams::with_all().cset, CSetStrategy::All);
    }

    #[test]
    fn approx_mode_relaxes_effective_delta() {
        let exact = PvParams::default();
        assert_eq!(exact.approx_epsilon, 0.0);
        assert_eq!(exact.effective_delta(), exact.delta);
        let approx = PvParams::default().approx_ubr(5.0);
        assert_eq!(approx.effective_delta(), 5.0);
        // An epsilon below delta never tightens the threshold.
        assert_eq!(PvParams::default().approx_ubr(0.25).effective_delta(), 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_epsilon_panics() {
        let _ = PvParams::default().approx_ubr(-1.0);
    }
}
