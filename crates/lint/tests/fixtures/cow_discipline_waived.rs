//! Fixture: the designated dirty-copy helper carries a reasoned waiver,
//! exactly like `MemPager::write` in pv-storage.

use std::sync::Arc;

pub fn write(page: &mut Arc<[u8]>, data: &[u8]) {
    // pv-lint: allow(cow-discipline, reason = "this is the designated dirty-copy helper: get_mut overwrites a uniquely-owned page in place, and an outstanding reader forces the Arc::from copy")
    match Arc::get_mut(page) {
        Some(bytes) => bytes.copy_from_slice(data),
        None => *page = Arc::from(data),
    }
}
