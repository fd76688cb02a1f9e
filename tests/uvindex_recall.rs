//! UV-index baseline validation: the ray-marched UV-cell stand-in must keep
//! near-perfect Step-1 recall against the naive ground truth (see
//! ARCHITECTURE.md §1 — this test quantifies the residual approximation risk
//! of the substitution), while the PV-index stays exact on the same data.

use pv_suite::core::{verify, PvIndex, PvParams, Step1Engine};
use pv_suite::uvindex::{UvIndex, UvParams};
use pv_suite::workload::{queries, realistic, synthetic, SyntheticConfig};

fn recall_on(db: &pv_suite::uncertain::UncertainDb, n_queries: usize, seed: u64) -> f64 {
    let uv = UvIndex::build(db, UvParams::default());
    let mut found = 0usize;
    let mut expected = 0usize;
    for q in queries::uniform(&db.domain, n_queries, seed) {
        let want = verify::possible_nn(db.objects.iter(), &q);
        let (got, _) = uv.step1(&q);
        expected += want.len();
        found += want.iter().filter(|id| got.contains(id)).count();
    }
    found as f64 / expected.max(1) as f64
}

#[test]
fn uniform_2d_recall() {
    let db = synthetic(&SyntheticConfig {
        n: 250,
        dim: 2,
        max_side: 150.0,
        samples: 8,
        seed: 51,
    });
    let r = recall_on(&db, 40, 1);
    assert!(r > 0.98, "recall {r}");
}

#[test]
fn roads_recall() {
    let db = realistic::roads(300, 52);
    let r = recall_on(&db, 30, 2);
    assert!(r > 0.95, "recall {r}");
}

#[test]
fn rrlines_recall() {
    let db = realistic::rrlines(300, 53);
    let r = recall_on(&db, 30, 3);
    assert!(r > 0.95, "recall {r}");
}

#[test]
fn pv_remains_exact_where_uv_approximates() {
    let db = synthetic(&SyntheticConfig {
        n: 200,
        dim: 2,
        max_side: 150.0,
        samples: 8,
        seed: 54,
    });
    let pv = PvIndex::build(&db, PvParams::default());
    for q in queries::uniform(&db.domain, 30, 4) {
        let want = verify::possible_nn(db.objects.iter(), &q);
        let (got, _) = pv.step1(&q);
        assert_eq!(got, want);
    }
}

#[test]
fn uv_cells_wider_than_pv_ubrs_on_average() {
    // Circles circumscribe rectangles, so UV cells are systematically
    // looser — one reason the PV-index also wins on space (§II).
    let db = synthetic(&SyntheticConfig {
        n: 150,
        dim: 2,
        max_side: 150.0,
        samples: 8,
        seed: 55,
    });
    let pv = PvIndex::build(&db, PvParams::default());
    let uv = UvIndex::build(&db, UvParams::default());
    let mut pv_vol = 0.0;
    let mut uv_vol = 0.0;
    for o in &db.objects {
        pv_vol += pv.ubr(o.id).unwrap().volume();
        uv_vol += uv.cell_mbr(o.id).unwrap().volume();
    }
    assert!(
        uv_vol > pv_vol,
        "UV total cell volume {uv_vol} should exceed PV {pv_vol}"
    );
}
