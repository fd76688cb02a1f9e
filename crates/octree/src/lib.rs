//! # pv-octree — the PV-index's primary index structure
//!
//! §VI-A of the paper describes the primary index: a multi-dimensional
//! octree whose non-leaf nodes each point to `2^d` children covering equal
//! fractions of the parent region, with child regions derived (never stored);
//! leaf nodes store, for every object whose UBR overlaps the leaf region, the
//! object id and its uncertainty region. Non-leaf nodes live in main memory;
//! each leaf is a linked list of disk pages.
//!
//! This crate implements exactly that structure for arbitrary dimensionality
//! (a quad-tree at `d = 2`, octree at `d = 3`, …):
//!
//! * child regions are derived from the parent on the fly — they are never
//!   stored (as in the paper);
//! * leaves are [`pv_storage::PageList`] chains on the simulated disk;
//! * non-leaf nodes consume a **main-memory budget** `M`; once the budget is
//!   exhausted, full leaves grow by chaining additional pages instead of
//!   splitting (§VI-A construction step 3);
//! * insertion requires a *UBR lookup* callback, because a leaf split must
//!   re-route the resident objects by their UBRs, which live in the
//!   secondary index (§VI-A step 3 re-inserts the UBRs of the objects that
//!   the overflowing leaf contained).
//!
//! Leaf records are opaque byte strings whose first 8 bytes must be the
//! object id; the rest is up to the caller (the PV-index stores the
//! uncertainty region `u(o)` there).

#![deny(missing_docs)]

use pv_geom::{HyperRect, Point};
use pv_storage::{codec, PageId, PageList, Pager};
use std::sync::Arc;

/// Per-node main-memory cost model (bytes) used against the budget `M`.
///
/// A non-leaf node stores `2^d` child pointers (8 bytes each) plus a small
/// header; a leaf stores its head page id, entry count and header. This
/// mirrors the paper's `⌈M/2^{d+2}⌉·(1+2^d)` node-count bound.
fn internal_node_cost(dim: usize) -> usize {
    16 + (1 << dim) * 8
}
fn leaf_node_cost() -> usize {
    32
}

#[derive(Debug, Clone)]
enum ONode {
    /// Child arena indices, one per octant (always exactly `2^d`).
    Internal(Vec<u32>),
    Leaf {
        list: PageList,
        entries: u32,
    },
}

/// Aggregate shape / occupancy statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OctreeStats {
    /// Number of internal nodes (resident in main memory).
    pub internal_nodes: usize,
    /// Number of leaf nodes.
    pub leaf_nodes: usize,
    /// Total leaf records (an object appears once per overlapped leaf).
    pub leaf_records: usize,
    /// Main-memory bytes consumed by the node arena.
    pub mem_used: usize,
    /// Tree depth (root = 1).
    pub depth: usize,
}

/// Reusable buffers for [`Octree::point_query_with`]: the descent's cell
/// bounds plus a page buffer for the leaf chain. Keep one per query thread
/// and the whole Step-1 lookup runs without heap allocation.
#[derive(Debug, Default, Clone)]
pub struct PointQueryScratch {
    lo: Vec<f64>,
    hi: Vec<f64>,
    page: Vec<u8>,
}

/// A `2^d`-ary space-partitioning tree with disk-resident leaves.
///
/// The node arena holds one `Arc` per node so [`Octree::fork`] can share the
/// whole structure with a sibling tree; a fork's mutations clone only the
/// nodes along the mutated path ([`Arc::make_mut`]) and leave every untouched
/// subtree physically shared.
pub struct Octree<P: Pager> {
    pager: P,
    domain: HyperRect,
    dim: usize,
    nodes: Vec<Arc<ONode>>,
    root: u32,
    mem_budget: usize,
    mem_used: usize,
    /// Maximum records in a leaf before a split is attempted. Derived from
    /// the page size and a representative record length at construction.
    split_threshold: usize,
}

impl<P: Pager> std::fmt::Debug for Octree<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Octree")
            .field("dim", &self.dim)
            .field("nodes", &self.nodes.len())
            .finish_non_exhaustive()
    }
}

impl<P: Pager> Octree<P> {
    /// Creates an empty tree over `domain` with a main-memory budget of
    /// `mem_budget` bytes for nodes (the paper uses 5 MB).
    ///
    /// `record_len_hint` is the typical leaf record length in bytes; it
    /// determines how many records fit a page and therefore when a leaf is
    /// considered full.
    pub fn new(pager: P, domain: HyperRect, mem_budget: usize, record_len_hint: usize) -> Self {
        let dim = domain.dim();
        let payload = pager.page_size() - 10; // PageList header
        let per_record = record_len_hint + 2; // record length prefix
        let split_threshold = (payload / per_record).max(2);
        let mut tree = Self {
            pager,
            domain,
            dim,
            nodes: Vec::new(),
            root: 0,
            mem_budget,
            mem_used: 0,
            split_threshold,
        };
        tree.root = tree.alloc_leaf();
        tree
    }

    fn alloc_leaf(&mut self) -> u32 {
        self.mem_used += leaf_node_cost();
        let id = self.nodes.len() as u32;
        self.nodes.push(Arc::new(ONode::Leaf {
            list: PageList::new(),
            entries: 0,
        }));
        id
    }

    /// Forks the tree onto `pager` — typically a copy-on-write fork of this
    /// tree's device (see [`pv_storage::MemPager::fork`]). The node arena is
    /// shared per-node: the fork clones only `Arc` pointers here, and later
    /// mutations on either side copy just the nodes along the mutated path.
    pub fn fork(&self, pager: P) -> Self {
        Self {
            pager,
            domain: self.domain.clone(),
            dim: self.dim,
            nodes: self.nodes.clone(),
            root: self.root,
            mem_budget: self.mem_budget,
            mem_used: self.mem_used,
            split_threshold: self.split_threshold,
        }
    }

    /// Domain covered by the tree.
    pub fn domain(&self) -> &HyperRect {
        &self.domain
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Main-memory bytes currently used by nodes.
    pub fn mem_used(&self) -> usize {
        self.mem_used
    }

    /// True when the budget still allows converting a leaf into an internal
    /// node with `2^d` fresh leaves.
    fn can_split(&self) -> bool {
        let extra =
            internal_node_cost(self.dim) - leaf_node_cost() + (1 << self.dim) * leaf_node_cost();
        self.mem_used + extra <= self.mem_budget
    }

    /// Inserts an object: `ubr` decides which leaves hold the record;
    /// `record` is the leaf payload (first 8 bytes = object id);
    /// `ubr_lookup` resolves object id → UBR during leaf splits.
    pub fn insert(
        &mut self,
        ubr: &HyperRect,
        record: &[u8],
        ubr_lookup: &dyn Fn(u64) -> HyperRect,
    ) {
        debug_assert_eq!(ubr.dim(), self.dim);
        debug_assert!(record.len() >= 8, "record must start with the object id");
        self.insert_rec(self.root, self.domain.clone(), ubr, record, ubr_lookup, 0);
    }

    fn insert_rec(
        &mut self,
        node: u32,
        region: HyperRect,
        ubr: &HyperRect,
        record: &[u8],
        ubr_lookup: &dyn Fn(u64) -> HyperRect,
        depth: usize,
    ) {
        match self.nodes[node as usize].as_ref() {
            ONode::Internal(children) => {
                let children = children.clone();
                for (i, child_region) in region.octants().into_iter().enumerate() {
                    if child_region.intersects(ubr) {
                        self.insert_rec(
                            children[i],
                            child_region,
                            ubr,
                            record,
                            ubr_lookup,
                            depth + 1,
                        );
                    }
                }
            }
            ONode::Leaf { .. } => {
                self.leaf_insert(node, region, record, ubr_lookup, depth);
            }
        }
    }

    fn leaf_insert(
        &mut self,
        node: u32,
        region: HyperRect,
        record: &[u8],
        ubr_lookup: &dyn Fn(u64) -> HyperRect,
        depth: usize,
    ) {
        let entries = match self.nodes[node as usize].as_ref() {
            ONode::Leaf { entries, .. } => *entries,
            ONode::Internal(_) => unreachable!(),
        };
        // Paper step 2/3: if the leaf is full, either split (if main memory
        // allows) or chain a page — `PageList::append` chains automatically,
        // so the only decision made here is the split. The depth guard stops
        // subdividing once cells approach float resolution.
        let mut should_split =
            entries as usize >= self.split_threshold && self.can_split() && depth < 40;
        if should_split {
            // Splitting can only resolve the overflow if the records that
            // would land in *every* child — those whose UBR contains the
            // split point (the octants' shared corner) — fit in a leaf by
            // themselves. Otherwise every descendant inherits the full
            // overflow and the redistribution recursion cascades towards the
            // depth cap (each level copying the core into 2^d children).
            // That happens under deletion storms, where the union bound
            // leaves many catalog UBRs loose; chaining pages keeps those
            // leaves flat until a rebuild re-tightens the boxes.
            let center = region.center();
            let core = {
                let list = match self.nodes[node as usize].as_ref() {
                    ONode::Leaf { list, .. } => list,
                    ONode::Internal(_) => unreachable!(),
                };
                let mut core = 0usize;
                list.for_each_record(&self.pager, &mut Vec::new(), |rec: &[u8]| {
                    let id = u64::from_le_bytes(rec[0..8].try_into().expect("record has id"));
                    if ubr_lookup(id).contains_point(&center) {
                        core += 1;
                    }
                });
                core
            };
            should_split = core < self.split_threshold;
        }
        if !should_split {
            match Arc::make_mut(&mut self.nodes[node as usize]) {
                ONode::Leaf { list, entries } => {
                    list.append(&self.pager, record);
                    *entries += 1;
                }
                ONode::Internal(_) => unreachable!(),
            }
            return;
        }
        // Split: convert the leaf into an internal node with 2^d leaf
        // children and re-route all resident records by their UBRs.
        let old_records = match Arc::make_mut(&mut self.nodes[node as usize]) {
            ONode::Leaf { list, .. } => {
                let recs = list.read_all(&self.pager);
                list.clear(&self.pager);
                recs
            }
            ONode::Internal(_) => unreachable!(),
        };
        self.mem_used -= leaf_node_cost();
        self.mem_used += internal_node_cost(self.dim);
        let children: Vec<u32> = (0..(1 << self.dim)).map(|_| self.alloc_leaf()).collect();
        self.nodes[node as usize] = Arc::new(ONode::Internal(children.clone()));
        let child_regions = region.octants();
        for rec in old_records.iter().map(Vec::as_slice).chain([record]) {
            let id = u64::from_le_bytes(rec[0..8].try_into().expect("record has id"));
            let obj_ubr = ubr_lookup(id);
            for (i, child_region) in child_regions.iter().enumerate() {
                if child_region.intersects(&obj_ubr) {
                    self.leaf_insert(
                        children[i],
                        child_region.clone(),
                        rec,
                        ubr_lookup,
                        depth + 1,
                    );
                }
            }
        }
    }

    /// Point query: descends to the single leaf containing `q` and returns
    /// its records (the PV-index's Step-1 lookup). Page reads are charged to
    /// the pager's statistics.
    pub fn point_query(&self, q: &Point) -> Vec<Vec<u8>> {
        debug_assert!(self.domain.contains_point(q), "query outside the domain");
        let mut node = self.root;
        let mut region = self.domain.clone();
        loop {
            match self.nodes[node as usize].as_ref() {
                ONode::Internal(children) => {
                    let oct = region.octant_of(q);
                    node = children[oct];
                    region = region.octants().swap_remove(oct);
                }
                ONode::Leaf { list, .. } => return list.read_all(&self.pager),
            }
        }
    }

    /// Allocation-free [`Octree::point_query`]: descends with the cell bounds
    /// held in `scratch` (mutated in place instead of materialising child
    /// rectangles) and streams each leaf record to `sink` as a borrowed
    /// slice. Visits the same leaf, in the same record order, charging the
    /// same page reads; at steady state it performs no heap allocation.
    pub fn point_query_with(
        &self,
        q: &Point,
        scratch: &mut PointQueryScratch,
        sink: impl FnMut(&[u8]),
    ) {
        debug_assert!(self.domain.contains_point(q), "query outside the domain");
        scratch.lo.clear();
        scratch.lo.extend_from_slice(self.domain.lo());
        scratch.hi.clear();
        scratch.hi.extend_from_slice(self.domain.hi());
        let mut node = self.root;
        loop {
            // pv-lint: allow(hot-path-no-panic, reason = "node ids are produced by this tree's own Internal children arrays; a dangling id is construction-level corruption and must fail loudly")
            match self.nodes[node as usize].as_ref() {
                ONode::Internal(children) => {
                    // In-place equivalent of `octant_of` + `octants()[oct]`:
                    // same midpoints, same tie rule (ties go to the upper
                    // half).
                    let mut oct = 0usize;
                    for (j, ((l, h), &c)) in scratch
                        .lo
                        .iter_mut()
                        .zip(scratch.hi.iter_mut())
                        .zip(q.coords())
                        .enumerate()
                    {
                        let mid = 0.5 * (*l + *h);
                        if c >= mid {
                            oct |= 1 << j;
                            *l = mid;
                        } else {
                            *h = mid;
                        }
                    }
                    // pv-lint: allow(hot-path-no-panic, reason = "oct has dim bits and Internal children are 2^dim-long by construction")
                    node = children[oct];
                }
                ONode::Leaf { list, .. } => {
                    list.for_each_record(&self.pager, &mut scratch.page, sink);
                    return;
                }
            }
        }
    }

    /// Range query: returns the distinct records of every leaf whose region
    /// intersects `range`. Records are deduplicated by object id (an object
    /// may be registered in several leaves).
    pub fn range_query(&self, range: &HyperRect) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        self.range_rec(self.root, self.domain.clone(), range, &mut |rec| {
            let id = u64::from_le_bytes(rec[0..8].try_into().expect("record has id"));
            if seen.insert(id) {
                out.push(rec.to_vec());
            }
        });
        out
    }

    fn range_rec(
        &self,
        node: u32,
        region: HyperRect,
        range: &HyperRect,
        sink: &mut dyn FnMut(&[u8]),
    ) {
        match self.nodes[node as usize].as_ref() {
            ONode::Internal(children) => {
                for (i, child_region) in region.octants().into_iter().enumerate() {
                    if child_region.intersects(range) {
                        self.range_rec(children[i], child_region, range, sink);
                    }
                }
            }
            ONode::Leaf { list, .. } => {
                for rec in list.read_all(&self.pager) {
                    sink(&rec);
                }
            }
        }
    }

    /// Removes every record of `id` from leaves overlapping `ubr`.
    /// Returns the number of leaf records removed.
    pub fn remove(&mut self, ubr: &HyperRect, id: u64) -> usize {
        self.remove_rec(self.root, self.domain.clone(), ubr, id)
    }

    fn remove_rec(&mut self, node: u32, region: HyperRect, ubr: &HyperRect, id: u64) -> usize {
        match self.nodes[node as usize].as_ref() {
            ONode::Internal(children) => {
                let children = children.clone();
                let mut removed = 0;
                for (i, child_region) in region.octants().into_iter().enumerate() {
                    if child_region.intersects(ubr) {
                        removed += self.remove_rec(children[i], child_region, ubr, id);
                    }
                }
                removed
            }
            ONode::Leaf { .. } => match Arc::make_mut(&mut self.nodes[node as usize]) {
                ONode::Leaf { list, entries } => {
                    let removed = list.retain(&self.pager, |rec| {
                        u64::from_le_bytes(rec[0..8].try_into().expect("record has id")) != id
                    });
                    *entries -= removed as u32;
                    removed
                }
                ONode::Internal(_) => unreachable!(),
            },
        }
    }

    /// Registers each record in every leaf overlapping `cover` that does
    /// not already hold a record of the same id (dedup by scanning the
    /// leaf once for the whole batch).
    ///
    /// It makes no assumption about where the records currently live, so a
    /// caller can extend objects' leaf coverage by an arbitrary rectangle.
    /// The deletion path uses it to register all affected neighbours exactly
    /// where they can newly win — the removed object's UBR — instead of
    /// everywhere under the (potentially huge) bounding box of each
    /// neighbour's union, and in one traversal instead of one per neighbour.
    pub fn insert_covering(
        &mut self,
        cover: &HyperRect,
        records: &[&[u8]],
        ubr_lookup: &dyn Fn(u64) -> HyperRect,
    ) {
        self.insert_covering_rec(
            self.root,
            self.domain.clone(),
            cover,
            records,
            ubr_lookup,
            0,
        );
    }

    fn insert_covering_rec(
        &mut self,
        node: u32,
        region: HyperRect,
        cover: &HyperRect,
        records: &[&[u8]],
        ubr_lookup: &dyn Fn(u64) -> HyperRect,
        depth: usize,
    ) {
        match self.nodes[node as usize].as_ref() {
            ONode::Internal(children) => {
                let children = children.clone();
                for (i, child_region) in region.octants().into_iter().enumerate() {
                    if child_region.intersects(cover) {
                        self.insert_covering_rec(
                            children[i],
                            child_region,
                            cover,
                            records,
                            ubr_lookup,
                            depth + 1,
                        );
                    }
                }
            }
            ONode::Leaf { list, .. } => {
                fn rec_id(rec: &[u8]) -> u64 {
                    u64::from_le_bytes(rec[0..8].try_into().expect("record has id"))
                }
                let mut present: Vec<u64> = Vec::with_capacity(records.len());
                list.for_each_record(&self.pager, &mut Vec::new(), |rec: &[u8]| {
                    present.push(rec_id(rec));
                });
                for (i, record) in records.iter().enumerate() {
                    if present.contains(&rec_id(record)) {
                        continue;
                    }
                    // An insert can split the leaf; re-descend with the
                    // remaining batch (the dedup scan makes re-visiting the
                    // just-inserted record a no-op).
                    if matches!(self.nodes[node as usize].as_ref(), ONode::Internal(_)) {
                        self.insert_covering_rec(
                            node,
                            region,
                            cover,
                            &records[i..],
                            ubr_lookup,
                            depth,
                        );
                        return;
                    }
                    self.leaf_insert(node, region.clone(), record, ubr_lookup, depth);
                }
            }
        }
    }

    /// Shape statistics (walks the arena; leaf record counts come from the
    /// in-memory counters, so no I/O is charged).
    pub fn stats(&self) -> OctreeStats {
        let mut st = OctreeStats {
            mem_used: self.mem_used,
            ..Default::default()
        };
        self.stats_rec(self.root, 1, &mut st);
        st
    }

    fn stats_rec(&self, node: u32, depth: usize, st: &mut OctreeStats) {
        st.depth = st.depth.max(depth);
        match self.nodes[node as usize].as_ref() {
            ONode::Internal(children) => {
                st.internal_nodes += 1;
                for &c in children {
                    self.stats_rec(c, depth + 1, st);
                }
            }
            ONode::Leaf { entries, .. } => {
                st.leaf_nodes += 1;
                st.leaf_records += *entries as usize;
            }
        }
    }

    /// Access to the pager handle (for I/O statistics).
    pub fn pager(&self) -> &P {
        &self.pager
    }

    /// Bulk-loads a tree from a completed `(ubr, record)` catalog, replaying
    /// the exact split/chain decision sequence of inserting the items one at
    /// a time — but entirely in memory, with leaf pages emitted once at the
    /// end ([`PageList::build_from_records`], one write per page).
    ///
    /// The resulting tree is *logically identical* to
    /// `items.iter().for_each(|(ubr, rec)| tree.insert(ubr, rec, …))` on an
    /// empty tree built with the same arguments: same arena (shape and
    /// numbering — splits allocate children at the same points of the
    /// sequence), same per-leaf records in the same chain order, same
    /// `mem_used`. Only the physical page ids differ, because the
    /// incremental path allocates and frees transient pages during splits
    /// while the bulk path allocates each final page exactly once. The
    /// PV-index's canonical snapshot re-emission erases that difference.
    ///
    /// Records resolve their own UBRs positionally — the UBR paired with a
    /// record is what split re-routing uses — so no lookup callback is
    /// needed; the catalog must be complete before loading.
    pub fn bulk_load(
        pager: P,
        domain: HyperRect,
        mem_budget: usize,
        record_len_hint: usize,
        items: &[(HyperRect, Vec<u8>)],
    ) -> Self {
        let dim = domain.dim();
        let payload = pager.page_size() - 10; // PageList header
        let per_record = record_len_hint + 2; // record length prefix
        let split_threshold = (payload / per_record).max(2);
        let mut b = BulkBuilder {
            dim,
            page_payload: PageList::page_payload(&pager),
            mem_budget,
            mem_used: 0,
            split_threshold,
            nodes: Vec::new(),
            items,
        };
        let root = b.alloc_leaf();
        for (i, item) in items.iter().enumerate() {
            debug_assert_eq!(item.0.dim(), dim);
            debug_assert!(item.1.len() >= 8, "record must start with the object id");
            b.route(root, domain.clone(), i as u32, 0);
        }
        let nodes = b
            .nodes
            .iter()
            .map(|node| match node {
                BuildNode::Internal(children) => Arc::new(ONode::Internal(children.clone())),
                BuildNode::Leaf {
                    groups, entries, ..
                } => {
                    let list = PageList::build_from_records(
                        &pager,
                        groups
                            .iter()
                            .flatten()
                            .map(|&r| items[r as usize].1.as_slice()),
                    );
                    Arc::new(ONode::Leaf {
                        list,
                        entries: *entries,
                    })
                }
            })
            .collect();
        Self {
            pager,
            domain,
            dim,
            nodes,
            root,
            mem_budget,
            mem_used: b.mem_used,
            split_threshold,
        }
    }

    /// Re-emits every leaf chain onto `pager` in a canonical, history-free
    /// form: leaves are visited in arena order, their records sorted by
    /// object id, and each chain written with one write per page. The arena
    /// itself (shape, numbering, budgets) carries over unchanged.
    ///
    /// Two trees holding identical logical content — whatever
    /// insert/split/chain history produced their pages — re-emit identical
    /// page images in an identical allocation order, which is what makes
    /// PV-index snapshots canonical.
    pub fn reemit_canonical<Q: Pager>(&self, pager: Q) -> Octree<Q> {
        let nodes = self
            .nodes
            .iter()
            .map(|node| match node.as_ref() {
                ONode::Internal(children) => Arc::new(ONode::Internal(children.clone())),
                ONode::Leaf { list, entries } => {
                    let mut recs = list.read_all(&self.pager);
                    recs.sort_by_key(|r| {
                        u64::from_le_bytes(r[0..8].try_into().expect("record has id"))
                    });
                    let list = PageList::build_from_records(&pager, recs.iter().map(Vec::as_slice));
                    Arc::new(ONode::Leaf {
                        list,
                        entries: *entries,
                    })
                }
            })
            .collect();
        Octree {
            pager,
            domain: self.domain.clone(),
            dim: self.dim,
            nodes,
            root: self.root,
            mem_budget: self.mem_budget,
            mem_used: self.mem_used,
            split_threshold: self.split_threshold,
        }
    }

    /// Serialises the tree's in-memory state — domain, budgets, and the
    /// node arena with its leaf-chain head page ids — for an index
    /// snapshot. The leaf *pages* are not included: they belong to the
    /// pager, whose image is snapshotted separately by the caller.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        codec::put_u16(&mut out, self.dim as u16);
        for &x in self.domain.lo() {
            codec::put_f64(&mut out, x);
        }
        for &x in self.domain.hi() {
            codec::put_f64(&mut out, x);
        }
        codec::put_u32(&mut out, self.root);
        codec::put_u64(&mut out, self.mem_budget as u64);
        codec::put_u64(&mut out, self.mem_used as u64);
        codec::put_u32(&mut out, self.split_threshold as u32);
        codec::put_u32(&mut out, self.nodes.len() as u32);
        for node in &self.nodes {
            match node.as_ref() {
                ONode::Internal(children) => {
                    codec::put_u16(&mut out, 0);
                    for &c in children {
                        codec::put_u32(&mut out, c);
                    }
                }
                ONode::Leaf { list, entries } => {
                    codec::put_u16(&mut out, 1);
                    codec::put_u64(&mut out, list.head().0);
                    codec::put_u32(&mut out, *entries);
                }
            }
        }
        out
    }

    /// Rebuilds a tree handle from [`Octree::to_snapshot`] bytes over a
    /// pager already holding the corresponding leaf pages.
    ///
    /// # Errors
    /// Truncated buffers, unknown node tags and out-of-range references are
    /// reported as [`codec::DecodeError`] — never a panic — so snapshot
    /// corruption surfaces cleanly.
    pub fn from_snapshot(pager: P, buf: &[u8]) -> Result<Self, codec::DecodeError> {
        let invalid = |context: &'static str| codec::DecodeError::Invalid { context };
        let mut r = codec::Reader::new(buf);
        let dim = r.try_u16()? as usize;
        if dim == 0 || dim > 16 {
            return Err(invalid("octree snapshot dimensionality"));
        }
        let lo: Vec<f64> = (0..dim).map(|_| r.try_f64()).collect::<Result<_, _>>()?;
        let hi: Vec<f64> = (0..dim).map(|_| r.try_f64()).collect::<Result<_, _>>()?;
        let domain = HyperRect::new(lo, hi);
        let root = r.try_u32()?;
        let mem_budget = r.try_u64()? as usize;
        let mem_used = r.try_u64()? as usize;
        let split_threshold = r.try_u32()? as usize;
        let n_nodes = r.try_u32()? as usize;
        let mut nodes = Vec::with_capacity(n_nodes.min(1 << 20));
        for i in 0..n_nodes {
            match r.try_u16()? {
                0 => {
                    let children: Vec<u32> = (0..(1usize << dim))
                        .map(|_| r.try_u32())
                        .collect::<Result<_, _>>()?;
                    // Split order appends children after their parent, so in
                    // any legitimate arena every child index exceeds its
                    // parent's; enforcing that also rejects all cycles, which
                    // would otherwise hang queries on a corrupt snapshot.
                    if children
                        .iter()
                        .any(|&c| c as usize >= n_nodes || c as usize <= i)
                    {
                        return Err(invalid("octree snapshot child index"));
                    }
                    nodes.push(Arc::new(ONode::Internal(children)));
                }
                1 => {
                    let head = PageId(r.try_u64()?);
                    let entries = r.try_u32()?;
                    nodes.push(Arc::new(ONode::Leaf {
                        list: PageList::from_head(head),
                        entries,
                    }));
                }
                t => {
                    return Err(codec::DecodeError::UnknownTag {
                        context: "octree snapshot node",
                        tag: t,
                    })
                }
            }
        }
        if root as usize >= nodes.len() {
            return Err(invalid("octree snapshot root index"));
        }
        if split_threshold == 0 {
            return Err(invalid("octree snapshot split threshold"));
        }
        Ok(Self {
            pager,
            domain,
            dim,
            nodes,
            root,
            mem_budget,
            mem_used,
            split_threshold,
        })
    }
}

/// In-memory node used by [`Octree::bulk_load`]'s insertion replay.
///
/// A leaf models its future page chain as chronological first-fit *groups*
/// of record indices — exactly the grouping [`PageList::append`] would
/// produce — because the split decision sequence observes records in chain
/// read order (newest group first), and reproducing that order is what
/// makes the replay bit-faithful to incremental insertion.
enum BuildNode {
    Internal(Vec<u32>),
    Leaf {
        /// Page groups, oldest first; the chain head is the *last* group.
        groups: Vec<Vec<u32>>,
        /// Payload bytes used by the newest (last) group.
        tail_used: usize,
        entries: u32,
    },
}

struct BulkBuilder<'a> {
    dim: usize,
    /// Per-page payload capacity ([`PageList::page_payload`]).
    page_payload: usize,
    mem_budget: usize,
    mem_used: usize,
    split_threshold: usize,
    nodes: Vec<BuildNode>,
    items: &'a [(HyperRect, Vec<u8>)],
}

impl BulkBuilder<'_> {
    fn alloc_leaf(&mut self) -> u32 {
        self.mem_used += leaf_node_cost();
        let id = self.nodes.len() as u32;
        self.nodes.push(BuildNode::Leaf {
            groups: Vec::new(),
            tail_used: 0,
            entries: 0,
        });
        id
    }

    fn can_split(&self) -> bool {
        let extra =
            internal_node_cost(self.dim) - leaf_node_cost() + (1 << self.dim) * leaf_node_cost();
        self.mem_used + extra <= self.mem_budget
    }

    /// Record indices in chain read order: newest group first, in-group
    /// records in append order (mirrors [`PageList::read_all`]).
    fn read_order(groups: &[Vec<u32>]) -> impl Iterator<Item = u32> + '_ {
        groups.iter().rev().flatten().copied()
    }

    /// Mirrors `Octree::insert_rec`: descend to every leaf whose region
    /// intersects the item's UBR.
    fn route(&mut self, node: u32, region: HyperRect, item: u32, depth: usize) {
        match &self.nodes[node as usize] {
            BuildNode::Internal(children) => {
                let children = children.clone();
                let ubr = &self.items[item as usize].0;
                for (i, child_region) in region.octants().into_iter().enumerate() {
                    if child_region.intersects(ubr) {
                        self.route(children[i], child_region, item, depth + 1);
                    }
                }
            }
            BuildNode::Leaf { .. } => self.leaf_insert(node, region, item, depth),
        }
    }

    /// Mirrors `Octree::leaf_insert` decision for decision: threshold and
    /// budget checks, the core-record split veto, chain-order re-routing.
    fn leaf_insert(&mut self, node: u32, region: HyperRect, item: u32, depth: usize) {
        let entries = match &self.nodes[node as usize] {
            BuildNode::Leaf { entries, .. } => *entries,
            BuildNode::Internal(_) => unreachable!(),
        };
        let mut should_split =
            entries as usize >= self.split_threshold && self.can_split() && depth < 40;
        if should_split {
            let center = region.center();
            let core = match &self.nodes[node as usize] {
                BuildNode::Leaf { groups, .. } => Self::read_order(groups)
                    .filter(|&r| self.items[r as usize].0.contains_point(&center))
                    .count(),
                BuildNode::Internal(_) => unreachable!(),
            };
            should_split = core < self.split_threshold;
        }
        if !should_split {
            let len = self.items[item as usize].1.len();
            let payload = self.page_payload;
            match &mut self.nodes[node as usize] {
                BuildNode::Leaf {
                    groups,
                    tail_used,
                    entries,
                } => {
                    // First-fit append, as `PageList::append` would group it.
                    if !groups.is_empty() && PageList::RECORD_OVERHEAD + len <= payload - *tail_used
                    {
                        groups.last_mut().expect("non-empty").push(item);
                        *tail_used += PageList::RECORD_OVERHEAD + len;
                    } else {
                        groups.push(vec![item]);
                        *tail_used = PageList::RECORD_OVERHEAD + len;
                    }
                    *entries += 1;
                }
                BuildNode::Internal(_) => unreachable!(),
            }
            return;
        }
        // Split: same child allocation order and the same (chain read order
        // + the incoming record last) re-routing sequence as the
        // incremental path.
        let old_records: Vec<u32> = match &self.nodes[node as usize] {
            BuildNode::Leaf { groups, .. } => Self::read_order(groups).collect(),
            BuildNode::Internal(_) => unreachable!(),
        };
        self.mem_used -= leaf_node_cost();
        self.mem_used += internal_node_cost(self.dim);
        let children: Vec<u32> = (0..(1 << self.dim)).map(|_| self.alloc_leaf()).collect();
        self.nodes[node as usize] = BuildNode::Internal(children.clone());
        let child_regions = region.octants();
        for r in old_records.into_iter().chain([item]) {
            let ubr = self.items[r as usize].0.clone();
            for (i, child_region) in child_regions.iter().enumerate() {
                if child_region.intersects(&ubr) {
                    self.leaf_insert(children[i], child_region.clone(), r, depth + 1);
                }
            }
        }
    }
}

/// Helper for the standard leaf record format used by the PV-index:
/// `id: u64 | rect(lo..hi): f64 × 2d`.
pub fn encode_leaf_record(id: u64, rect: &HyperRect) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + rect.dim() * 16);
    codec::put_u64(&mut out, id);
    for &x in rect.lo() {
        codec::put_f64(&mut out, x);
    }
    for &x in rect.hi() {
        codec::put_f64(&mut out, x);
    }
    out
}

/// Decodes a record produced by [`encode_leaf_record`].
///
/// # Errors
/// [`codec::DecodeError::Truncated`] when `rec` is shorter than a
/// `dim`-dimensional record.
pub fn decode_leaf_record(rec: &[u8], dim: usize) -> Result<(u64, HyperRect), codec::DecodeError> {
    let mut r = codec::Reader::new(rec);
    let id = r.try_u64()?;
    let lo = (0..dim).map(|_| r.try_f64()).collect::<Result<_, _>>()?;
    let hi = (0..dim).map(|_| r.try_f64()).collect::<Result<_, _>>()?;
    Ok((id, HyperRect::new(lo, hi)))
}

/// Reads a leaf record's id plus the squared min/max distance between its
/// rectangle and `q`, straight from the record bytes — the allocation-free
/// Step-1 filter. Bit-identical to decoding the rectangle and calling
/// [`pv_geom::min_dist_sq`] / [`pv_geom::max_dist_sq`] (same per-dimension
/// accumulation order).
#[inline]
pub fn leaf_record_dists_sq(rec: &[u8], dim: usize, q: &Point) -> (u64, f64, f64) {
    debug_assert!(rec.len() >= 8 + dim * 16, "truncated leaf record");
    // Total chunk-splitting parse: a record shorter than the fixed layout
    // (storage corruption) yields an infinitely-far candidate — pruned by
    // Step 1 — instead of panicking mid-query. Well-formed records take the
    // exact same byte offsets and accumulation order as before.
    let Some((id8, body)) = rec.split_first_chunk::<8>() else {
        return (0, f64::INFINITY, f64::INFINITY);
    };
    let id = u64::from_le_bytes(*id8);
    let mut mind = 0.0;
    let mut maxd = 0.0;
    let lo_words = body.chunks_exact(8).take(dim);
    let hi_words = body.chunks_exact(8).skip(dim).take(dim);
    for ((lo_w, hi_w), &c) in lo_words.zip(hi_words).zip(q.coords()) {
        let lo = f64::from_le_bytes(word8(lo_w));
        let hi = f64::from_le_bytes(word8(hi_w));
        if c < lo {
            mind += pv_geom::sq(lo - c);
        } else if c > hi {
            mind += pv_geom::sq(c - hi);
        }
        maxd += pv_geom::sq((c - lo).abs().max((hi - c).abs()));
    }
    (id, mind, maxd)
}

/// Copies a `chunks_exact(8)` window into an array: the iterator guarantees
/// exactly 8 bytes, so the copy cannot length-mismatch.
#[inline(always)]
fn word8(w: &[u8]) -> [u8; 8] {
    let mut b = [0u8; 8];
    b.copy_from_slice(w);
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_storage::MemPager;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn domain2d() -> HyperRect {
        HyperRect::cube(2, 0.0, 100.0)
    }

    fn mk_tree(mem: usize) -> Octree<MemPager> {
        Octree::new(MemPager::new(512), domain2d(), mem, 40)
    }

    /// Builds `n` random (id, ubr) pairs.
    fn random_objects(n: usize, seed: u64) -> Vec<(u64, HyperRect)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let lo: Vec<f64> = (0..2).map(|_| rng.gen_range(0.0..90.0)).collect();
                let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.5..10.0)).collect();
                (i as u64, HyperRect::new(lo, hi))
            })
            .collect()
    }

    fn insert_all(tree: &mut Octree<MemPager>, objs: &[(u64, HyperRect)]) {
        let lookup_src: std::collections::HashMap<u64, HyperRect> = objs.iter().cloned().collect();
        let lookup = move |id: u64| lookup_src[&id].clone();
        for (id, ubr) in objs {
            tree.insert(ubr, &encode_leaf_record(*id, ubr), &lookup);
        }
    }

    #[test]
    fn leaf_record_dists_sq_matches_decoded_rectangle() {
        let mut rng = StdRng::seed_from_u64(4);
        for dim in [2usize, 3, 4] {
            for _ in 0..100 {
                let lo: Vec<f64> = (0..dim).map(|_| rng.gen_range(-40.0..40.0)).collect();
                let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.0..25.0)).collect();
                let rect = HyperRect::new(lo, hi);
                let rec = encode_leaf_record(17, &rect);
                let q = Point::new((0..dim).map(|_| rng.gen_range(-60.0..60.0)).collect());
                let (id, mind, maxd) = leaf_record_dists_sq(&rec, dim, &q);
                assert_eq!(id, 17);
                assert_eq!(mind.to_bits(), pv_geom::min_dist_sq(&rect, &q).to_bits());
                assert_eq!(maxd.to_bits(), pv_geom::max_dist_sq(&rect, &q).to_bits());
            }
        }
    }

    #[test]
    fn point_query_with_matches_point_query() {
        let mut tree = mk_tree(1 << 20);
        let objs = random_objects(300, 9);
        insert_all(&mut tree, &objs);
        let mut rng = StdRng::seed_from_u64(31);
        let mut scratch = PointQueryScratch::default();
        for _ in 0..60 {
            let q = Point::new(vec![rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]);
            let want = tree.point_query(&q);
            let mut got: Vec<Vec<u8>> = Vec::new();
            let r0 = tree.pager.stats().snapshot().reads;
            tree.point_query_with(&q, &mut scratch, |rec| got.push(rec.to_vec()));
            let reads = tree.pager.stats().snapshot().reads - r0;
            assert_eq!(got, want, "q = {q:?}");
            let r1 = tree.pager.stats().snapshot().reads;
            let _ = tree.point_query(&q);
            assert_eq!(tree.pager.stats().snapshot().reads - r1, reads);
        }
    }

    #[test]
    fn point_query_finds_overlapping_ubrs() {
        let mut tree = mk_tree(1 << 20);
        let objs = random_objects(300, 5);
        insert_all(&mut tree, &objs);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..50 {
            let q = Point::new(vec![rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]);
            let got: std::collections::HashSet<u64> = tree
                .point_query(&q)
                .iter()
                .map(|r| decode_leaf_record(r, 2).unwrap().0)
                .collect();
            // every object whose UBR contains q must be present
            for (id, ubr) in &objs {
                if ubr.contains_point(&q) {
                    assert!(got.contains(id), "object {id} missing at {q:?}");
                }
            }
        }
    }

    /// Structural equality: same arena (shape + numbering), same per-leaf
    /// records in the same chain read order, same accounting.
    fn assert_logically_equal(a: &Octree<MemPager>, b: &Octree<MemPager>) {
        assert_eq!(a.root, b.root);
        assert_eq!(a.mem_used, b.mem_used);
        assert_eq!(a.split_threshold, b.split_threshold);
        assert_eq!(a.nodes.len(), b.nodes.len());
        for (i, (na, nb)) in a.nodes.iter().zip(&b.nodes).enumerate() {
            match (na.as_ref(), nb.as_ref()) {
                (ONode::Internal(ca), ONode::Internal(cb)) => assert_eq!(ca, cb, "node {i}"),
                (
                    ONode::Leaf {
                        list: la,
                        entries: ea,
                    },
                    ONode::Leaf {
                        list: lb,
                        entries: eb,
                    },
                ) => {
                    assert_eq!(ea, eb, "node {i} entries");
                    assert_eq!(
                        la.read_all(&a.pager),
                        lb.read_all(&b.pager),
                        "node {i} records"
                    );
                }
                _ => panic!("node {i}: kind mismatch"),
            }
        }
    }

    #[test]
    fn bulk_load_replays_incremental_insertion() {
        for (n, mem, seed) in [
            (40usize, 1usize << 20, 3u64),
            (500, 1 << 20, 9),
            (300, 600, 5),
        ] {
            let objs = random_objects(n, seed);
            let mut incremental = Octree::new(MemPager::new(512), domain2d(), mem, 40);
            insert_all(&mut incremental, &objs);
            let items: Vec<(HyperRect, Vec<u8>)> = objs
                .iter()
                .map(|(id, ubr)| (ubr.clone(), encode_leaf_record(*id, ubr)))
                .collect();
            let bulk = Octree::bulk_load(MemPager::new(512), domain2d(), mem, 40, &items);
            assert_logically_equal(&incremental, &bulk);
            assert_eq!(incremental.stats(), bulk.stats());
        }
    }

    #[test]
    fn bulk_and_incremental_reemit_identical_pages() {
        let objs = random_objects(400, 11);
        let mut incremental = Octree::new(MemPager::new(512), domain2d(), 1 << 20, 40);
        insert_all(&mut incremental, &objs);
        let items: Vec<(HyperRect, Vec<u8>)> = objs
            .iter()
            .map(|(id, ubr)| (ubr.clone(), encode_leaf_record(*id, ubr)))
            .collect();
        let bulk = Octree::bulk_load(MemPager::new(512), domain2d(), 1 << 20, 40, &items);
        // Live page images differ (split churn vs one-shot emission), but
        // canonical re-emission onto fresh pagers is byte-identical.
        let pa = MemPager::new(512);
        let pb = MemPager::new(512);
        let ca = incremental.reemit_canonical(pa.clone());
        let cb = bulk.reemit_canonical(pb.clone());
        assert_eq!(pa.image(), pb.image());
        assert_eq!(ca.to_snapshot(), cb.to_snapshot());
        // Re-emission preserves query results.
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..40 {
            let q = Point::new(vec![rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]);
            let ids = |recs: Vec<Vec<u8>>| {
                let mut v: Vec<u64> = recs
                    .iter()
                    .map(|r| decode_leaf_record(r, 2).unwrap().0)
                    .collect();
                v.sort_unstable();
                v
            };
            assert_eq!(ids(ca.point_query(&q)), ids(incremental.point_query(&q)));
        }
        // Canonicalisation is idempotent: re-emitting the canonical tree
        // reproduces the same bytes.
        let pc = MemPager::new(512);
        let _ = ca.reemit_canonical(pc.clone());
        assert_eq!(pc.image(), pa.image());
    }

    #[test]
    fn splits_happen_with_memory() {
        let mut tree = mk_tree(1 << 20);
        let objs = random_objects(500, 9);
        insert_all(&mut tree, &objs);
        let st = tree.stats();
        assert!(st.internal_nodes > 0, "expected splits: {st:?}");
        assert!(st.depth > 1);
    }

    #[test]
    fn no_memory_means_chaining_not_splitting() {
        // Budget so small that no leaf can ever split.
        let mut tree = mk_tree(64);
        let objs = random_objects(200, 11);
        insert_all(&mut tree, &objs);
        let st = tree.stats();
        assert_eq!(st.internal_nodes, 0);
        assert_eq!(st.leaf_nodes, 1);
        // all records in one chained leaf
        assert_eq!(st.leaf_records, 200);
        let recs = tree.point_query(&Point::new(vec![50.0, 50.0]));
        assert_eq!(recs.len(), 200, "single leaf holds everything");
    }

    #[test]
    fn memory_budget_is_respected() {
        let budget = 4096;
        let mut tree = Octree::new(MemPager::new(512), domain2d(), budget, 40);
        let objs = random_objects(2000, 13);
        insert_all(&mut tree, &objs);
        assert!(
            tree.mem_used() <= budget,
            "mem_used {} exceeds budget {budget}",
            tree.mem_used()
        );
    }

    #[test]
    fn range_query_deduplicates() {
        let mut tree = mk_tree(1 << 20);
        // one big object spanning many leaves, plus enough small ones to
        // force splits; a single lookup must cover them all because splits
        // re-route every resident object.
        let big = HyperRect::new(vec![10.0, 10.0], vec![80.0, 80.0]);
        let mut objs = vec![(1u64, big.clone())];
        objs.extend(
            random_objects(400, 17)
                .into_iter()
                .map(|(id, r)| (id + 100, r)),
        );
        insert_all(&mut tree, &objs);
        let hits = tree.range_query(&HyperRect::new(vec![0.0, 0.0], vec![100.0, 100.0]));
        let ones = hits
            .iter()
            .filter(|r| decode_leaf_record(r, 2).unwrap().0 == 1)
            .count();
        assert_eq!(ones, 1, "big object must be reported once");
    }

    #[test]
    fn remove_erases_everywhere() {
        let mut tree = mk_tree(1 << 20);
        let objs = random_objects(300, 19);
        insert_all(&mut tree, &objs);
        let (id, ubr) = objs[42].clone();
        let removed = tree.remove(&ubr, id);
        assert!(removed >= 1);
        let probe = ubr.center();
        let got: Vec<u64> = tree
            .point_query(&probe)
            .iter()
            .map(|r| decode_leaf_record(r, 2).unwrap().0)
            .collect();
        assert!(!got.contains(&id));
        // total records decreased by exactly `removed`
        assert_eq!(tree.stats().leaf_records, {
            let mut tree2 = mk_tree(1 << 20);
            insert_all(&mut tree2, &objs);
            tree2.stats().leaf_records - removed
        });
    }

    #[test]
    fn record_codec_roundtrip() {
        let r = HyperRect::new(vec![1.5, -2.0, 3.0], vec![4.0, 5.0, 6.5]);
        let rec = encode_leaf_record(42, &r);
        let (id, back) = decode_leaf_record(&rec, 3).unwrap();
        assert_eq!(id, 42);
        assert_eq!(back, r);
    }

    #[test]
    fn three_dimensional_tree() {
        let pager = MemPager::new(512);
        let mut tree = Octree::new(pager, HyperRect::cube(3, 0.0, 100.0), 1 << 20, 56);
        let mut rng = StdRng::seed_from_u64(31);
        let objs: Vec<(u64, HyperRect)> = (0..300)
            .map(|i| {
                let lo: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..90.0)).collect();
                let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.5..8.0)).collect();
                (i as u64, HyperRect::new(lo, hi))
            })
            .collect();
        let lookup_src: std::collections::HashMap<u64, HyperRect> = objs.iter().cloned().collect();
        let lookup = move |id: u64| lookup_src[&id].clone();
        for (id, ubr) in &objs {
            tree.insert(ubr, &encode_leaf_record(*id, ubr), &lookup);
        }
        let q = Point::new(vec![45.0, 45.0, 45.0]);
        let got: std::collections::HashSet<u64> = tree
            .point_query(&q)
            .iter()
            .map(|r| decode_leaf_record(r, 3).unwrap().0)
            .collect();
        for (id, ubr) in &objs {
            if ubr.contains_point(&q) {
                assert!(got.contains(id));
            }
        }
        // 8 children per internal node in 3-D
        assert!(tree.stats().internal_nodes > 0);
    }

    #[test]
    fn snapshot_roundtrip_preserves_queries() {
        let pager = MemPager::new(512);
        let mut tree = Octree::new(pager.clone(), domain2d(), 1 << 20, 40);
        let objs = random_objects(400, 41);
        insert_all(&mut tree, &objs);
        let snap = tree.to_snapshot();
        let restored = Octree::from_snapshot(pager.clone(), &snap).unwrap();
        assert_eq!(restored.stats(), tree.stats());
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..25 {
            let q = Point::new(vec![rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]);
            assert_eq!(restored.point_query(&q), tree.point_query(&q));
        }
        // corruption surfaces as an error, not a panic
        assert!(Octree::<MemPager>::from_snapshot(pager.clone(), &snap[..snap.len() / 2]).is_err());
        let mut bad = snap.clone();
        bad[0] = 0xFF; // absurd dimensionality
        assert!(Octree::<MemPager>::from_snapshot(pager, &bad).is_err());
    }

    #[test]
    fn fork_shares_structure_and_diverges_on_write() {
        let pager = MemPager::new(512);
        let mut tree = Octree::new(pager.clone(), domain2d(), 1 << 20, 40);
        let objs = random_objects(400, 47);
        insert_all(&mut tree, &objs);
        let before = tree.stats();

        let fork_pager = pager.fork();
        let mut fork = tree.fork(fork_pager.clone());
        assert_eq!(fork.stats(), before);

        // Mutate only the fork: remove one object and insert a fresh one.
        let lookup_src: std::collections::HashMap<u64, HyperRect> = objs.iter().cloned().collect();
        let (gone_id, gone_ubr) = objs[7].clone();
        fork.remove(&gone_ubr, gone_id);
        let fresh = HyperRect::new(vec![48.0, 48.0], vec![52.0, 52.0]);
        let lookup = {
            let fresh = fresh.clone();
            move |i: u64| {
                if i == 7777 {
                    fresh.clone()
                } else {
                    lookup_src[&i].clone()
                }
            }
        };
        fork.insert(&fresh, &encode_leaf_record(7777, &fresh), &lookup);

        // The original tree is bit-for-bit unaffected.
        assert_eq!(tree.stats(), before);
        let probe = gone_ubr.center();
        let orig_ids: Vec<u64> = tree
            .point_query(&probe)
            .iter()
            .map(|r| decode_leaf_record(r, 2).unwrap().0)
            .collect();
        assert!(orig_ids.contains(&gone_id), "original must keep the object");
        let fork_ids: Vec<u64> = fork
            .point_query(&probe)
            .iter()
            .map(|r| decode_leaf_record(r, 2).unwrap().0)
            .collect();
        assert!(!fork_ids.contains(&gone_id), "fork must have removed it");

        // The fork copied only the pages it touched, not the whole device.
        assert!(
            (fork_pager.cow_copies() as usize) < pager.live_pages() / 2,
            "fork copied {} of {} pages — not structural sharing",
            fork_pager.cow_copies(),
            pager.live_pages()
        );
        assert!(fork_pager.shared_pages() > 0, "no page stayed shared");
    }

    #[test]
    fn io_charged_for_point_queries() {
        let pager = MemPager::new(512);
        let mut tree = Octree::new(pager.clone(), domain2d(), 1 << 20, 40);
        let objs = random_objects(200, 37);
        insert_all(&mut tree, &objs);
        let s0 = pager.stats().snapshot();
        let _ = tree.point_query(&Point::new(vec![50.0, 50.0]));
        let s1 = pager.stats().snapshot();
        assert!(s1.since(&s0).reads >= 1, "leaf pages must cost reads");
        assert_eq!(s1.since(&s0).writes, 0, "queries must not write");
    }
}
