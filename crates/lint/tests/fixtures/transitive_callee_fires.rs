//! Fixture: hot-path callees with planted violations, reached only through
//! the call-graph closure from `transitive_entry.rs` — the cross-file proof
//! that `hot-path-no-panic` and `hot-path-no-alloc` follow entry points
//! (plain and `Wal::*`-qualified) into other files. Not in the tree scan.
#![allow(dead_code)]

pub fn min_dist_sq(r: &Rect, p: &Point) -> f64 {
    let first = r.lo.first().unwrap();
    first + p.coords[0]
}

pub fn stage_candidates(d: f64, out: &mut Vec<u64>) {
    let mut tmp = Vec::new();
    tmp.push(d as u64);
    out.extend(tmp);
}

pub fn flush_meta() -> io::Result<()> {
    std::fs::metadata("wal").unwrap();
    Ok(())
}
