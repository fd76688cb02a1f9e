//! Fleet tracking with live updates: the paper's location-based-service
//! scenario plus §VI-B's incremental maintenance.
//!
//! Vehicle positions arrive from GPS with bounded error (uncertain 2-D
//! objects). Vehicles enter and leave the service area continuously, so the
//! index must absorb insertions and deletions without a rebuild. Dispatch
//! queries ask "which vehicles could be nearest to this incident?".
//!
//! Run with:
//! ```text
//! cargo run --release --example fleet_tracking
//! ```

use pv_suite::core::{verify, ProbNnEngine, PvIndex, PvParams, QuerySpec, Step1Engine};
use pv_suite::geom::HyperRect;
use pv_suite::uncertain::{UncertainDb, UncertainObject};
use pv_suite::workload::queries;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::{Duration, Instant};

fn gps_box(rng: &mut StdRng, err: f64) -> HyperRect {
    let cx = rng.gen_range(err..10_000.0 - err);
    let cy = rng.gen_range(err..10_000.0 - err);
    HyperRect::new(vec![cx - err, cy - err], vec![cx + err, cy + err])
}

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let err = 35.0; // GPS error half-side in domain units

    // Initial fleet.
    let fleet: Vec<UncertainObject> = (0..1_200u64)
        .map(|id| UncertainObject::uniform(id, gps_box(&mut rng, err), 500))
        .collect();
    let db = UncertainDb::new(HyperRect::cube(2, 0.0, 10_000.0), fleet);

    println!("building PV-index over {} vehicles...", db.len());
    let t = Instant::now();
    let mut index = PvIndex::build(&db, PvParams::default());
    println!("  built in {:?}", t.elapsed());

    // Mirror of the database for ground-truth checks.
    let mut shadow = db.objects.clone();
    let mut next_id = 10_000u64;

    // Simulate a stream of fleet churn interleaved with dispatch queries.
    let mut t_insert = Duration::ZERO;
    let mut t_delete = Duration::ZERO;
    let mut n_insert = 0u32;
    let mut n_delete = 0u32;
    let mut affected_total = 0usize;
    for tick in 0..60 {
        match tick % 3 {
            0 => {
                // vehicle enters the service area
                let o = UncertainObject::uniform(next_id, gps_box(&mut rng, err), 500);
                next_id += 1;
                shadow.push(o.clone());
                let t0 = Instant::now();
                index.insert(o).expect("fresh vehicle id");
                t_insert += t0.elapsed();
                n_insert += 1;
            }
            1 => {
                // vehicle leaves
                let pos = rng.gen_range(0..shadow.len());
                let victim = shadow.swap_remove(pos).id;
                let t0 = Instant::now();
                let st = index.remove(victim).expect("known vehicle");
                t_delete += t0.elapsed();
                n_delete += 1;
                // An insertion leaves its neighbours' UBRs as they are; a
                // deletion grows the affected ones by the union bound.
                affected_total += st.affected;
            }
            _ => {
                // dispatch query at a random incident location
                let q = &queries::uniform(index.domain(), 1, 1000 + tick)[0];
                let out = index
                    .execute(q, &QuerySpec::new().with_step1_only())
                    .expect("dispatch query");
                let (ids, stats) = (out.candidates, out.stats.step1);
                let want = verify::possible_nn(shadow.iter(), q);
                assert_eq!(ids, want, "index drifted from ground truth");
                if tick % 15 == 2 {
                    println!(
                        "  tick {tick:>2}: incident at ({:.0}, {:.0}) → {} candidate vehicles ({:?}, {} I/O)",
                        q[0],
                        q[1],
                        ids.len(),
                        stats.time,
                        stats.io_reads
                    );
                }
            }
        }
    }

    println!(
        "\nchurn summary over {} inserts / {} deletes:",
        n_insert, n_delete
    );
    println!(
        "  avg insert {:?}, avg delete {:?}, avg UBRs grown per delete {:.1}",
        t_insert / n_insert.max(1),
        t_delete / n_delete.max(1),
        affected_total as f64 / n_delete.max(1) as f64
    );

    // Compare with the paper's Rebuild alternative for one update.
    let o = UncertainObject::uniform(next_id, gps_box(&mut rng, err), 500);
    shadow.push(o.clone());
    let t0 = Instant::now();
    index.insert(o).expect("fresh vehicle id");
    let inc = t0.elapsed();
    let t0 = Instant::now();
    index.rebuild();
    let rebuild = t0.elapsed();
    println!(
        "\nincremental insert {:?} vs full rebuild {:?}  (speedup ×{:.0})",
        inc,
        rebuild,
        rebuild.as_secs_f64() / inc.as_secs_f64().max(1e-9)
    );

    // Final consistency check.
    let q = &queries::uniform(index.domain(), 1, 77)[0];
    assert_eq!(index.step1(q).0, verify::possible_nn(shadow.iter(), q));
    println!(
        "final ground-truth check passed ({} vehicles indexed)",
        index.len()
    );
}
