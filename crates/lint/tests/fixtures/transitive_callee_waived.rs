//! Fixture: the same closure-reached callees as `transitive_callee_fires.rs`
//! with every violation under a reasoned waiver — closure findings respect
//! the callee file's own waiver comments.
#![allow(dead_code)]

pub fn min_dist_sq(r: &Rect, p: &Point) -> f64 {
    let first = r.lo.first().unwrap(); // pv-lint: allow(hot-path-no-panic, reason = "corner vectors are non-empty by construction")
    first + p.coords[0] // pv-lint: allow(hot-path-no-panic, reason = "dim >= 1 by construction")
}

pub fn stage_candidates(d: f64, out: &mut Vec<u64>) {
    let mut tmp = Vec::new(); // pv-lint: allow(hot-path-no-alloc, reason = "fixture: demonstrates a reasoned waiver inside a closure-reached body")
    tmp.push(d as u64);
    out.extend(tmp);
}

pub fn flush_meta() -> io::Result<()> {
    std::fs::metadata("wal").unwrap(); // pv-lint: allow(hot-path-no-panic, reason = "fixture: metadata of a file this fn just created cannot race")
    Ok(())
}
