//! Property tests: the octree must agree with a linear scan under arbitrary
//! interleavings of inserts and removals, for every memory budget.

use proptest::prelude::*;
use pv_geom::{HyperRect, Point};
use pv_octree::{decode_leaf_record, encode_leaf_record, Octree};
use pv_storage::MemPager;
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone)]
enum Op {
    Insert { lo: (f64, f64), ext: (f64, f64) },
    RemoveNth(usize),
    PointQuery { x: f64, y: f64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => ((0.0f64..95.0, 0.0f64..95.0), (0.5f64..20.0, 0.5f64..20.0))
            .prop_map(|(lo, ext)| Op::Insert { lo, ext }),
        1 => (0usize..64).prop_map(Op::RemoveNth),
        3 => (0.0f64..100.0, 0.0f64..100.0).prop_map(|(x, y)| Op::PointQuery { x, y }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn octree_matches_linear_scan(
        ops in prop::collection::vec(arb_op(), 1..140),
        mem_budget in prop::sample::select(vec![64usize, 2_048, 1 << 20]),
    ) {
        let domain = HyperRect::cube(2, 0.0, 100.0);
        let mut tree = Octree::new(MemPager::new(256), domain.clone(), mem_budget, 40);
        let mut shadow: HashMap<u64, HyperRect> = HashMap::new();
        let mut next_id = 0u64;
        for op in ops {
            match op {
                Op::Insert { lo, ext } => {
                    let ubr = HyperRect::new(
                        vec![lo.0, lo.1],
                        vec![(lo.0 + ext.0).min(100.0), (lo.1 + ext.1).min(100.0)],
                    );
                    shadow.insert(next_id, ubr.clone());
                    let lookup_src = shadow.clone();
                    let lookup = move |id: u64| lookup_src[&id].clone();
                    tree.insert(&ubr, &encode_leaf_record(next_id, &ubr), &lookup);
                    next_id += 1;
                }
                Op::RemoveNth(n) => {
                    if !shadow.is_empty() {
                        let key = *shadow.keys().nth(n % shadow.len()).unwrap();
                        let ubr = shadow.remove(&key).unwrap();
                        let removed = tree.remove(&ubr, key);
                        prop_assert!(removed >= 1, "id {key} had no leaf records");
                    }
                }
                Op::PointQuery { x, y } => {
                    let q = Point::new(vec![x, y]);
                    let got: HashSet<u64> = tree
                        .point_query(&q)
                        .iter()
                        .map(|r| decode_leaf_record(r, 2).unwrap().0)
                        .collect();
                    // completeness: every object whose UBR contains q is found
                    for (id, ubr) in &shadow {
                        if ubr.contains_point(&q) {
                            prop_assert!(got.contains(id),
                                "object {id} with UBR {ubr:?} missing at {q:?}");
                        }
                    }
                    // soundness of the record store: returned ids exist
                    for id in &got {
                        prop_assert!(shadow.contains_key(id), "ghost record {id}");
                    }
                }
            }
            prop_assert!(tree.mem_used() <= mem_budget.max(64),
                "memory budget violated: {} > {}", tree.mem_used(), mem_budget);
        }
        // final integrity: per-leaf record counters match reality
        let st = tree.stats();
        prop_assert!(st.leaf_records >= shadow.len());
    }
}
