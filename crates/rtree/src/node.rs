//! R*-tree node arena, insertion, deletion and bulk loading.

use crate::split;
use pv_geom::{HyperRect, OrderedF64};
use std::sync::atomic::{AtomicU64, Ordering};

/// A leaf entry: a rectangle with an opaque 64-bit payload (object id).
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Bounding rectangle of the indexed object.
    pub rect: HyperRect,
    /// Caller-defined identifier.
    pub id: u64,
}

/// Tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct RTreeParams {
    /// Maximum entries per node (the paper uses a fanout of 100).
    pub max_entries: usize,
    /// Minimum entries per node (R*: 40% of max).
    pub min_entries: usize,
    /// Fraction of entries removed during forced reinsertion (R*: 30%).
    pub reinsert_fraction: f64,
}

impl Default for RTreeParams {
    fn default() -> Self {
        Self::with_fanout(100)
    }
}

impl RTreeParams {
    /// Standard R* parameterisation for a given fanout.
    pub fn with_fanout(max_entries: usize) -> Self {
        assert!(max_entries >= 4);
        Self {
            max_entries,
            min_entries: (max_entries * 2 / 5).max(2),
            reinsert_fraction: 0.3,
        }
    }
}

/// Access counters, split per level class so experiments can charge leaf
/// visits as disk I/O (§VII-A stores non-leaf nodes in main memory).
///
/// Counters are atomic so a built tree can serve concurrent read-only
/// queries (the parallel UBR-construction phase of the PV-index shares one
/// tree across worker threads).
#[derive(Debug, Default)]
pub struct RTreeStats {
    /// Leaf nodes visited by queries.
    pub leaf_visits: AtomicU64,
    /// Internal nodes visited by queries.
    pub internal_visits: AtomicU64,
    /// Node splits performed.
    pub splits: AtomicU64,
    /// Forced reinsertions performed.
    pub reinserts: AtomicU64,
}

impl RTreeStats {
    /// Resets the query counters (leaf/internal visits) only.
    pub fn reset_visits(&self) {
        self.leaf_visits.store(0, Ordering::Relaxed);
        self.internal_visits.store(0, Ordering::Relaxed);
    }
}

pub(crate) type NodeId = u32;
pub(crate) const INVALID: NodeId = u32::MAX;

#[derive(Debug, Clone)]
pub(crate) struct ChildRef {
    pub rect: HyperRect,
    pub node: NodeId,
}

#[derive(Debug, Clone)]
pub(crate) enum NodeKind {
    Leaf(Vec<Entry>),
    Internal(Vec<ChildRef>),
}

#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub kind: NodeKind,
    /// Height above the leaves: 0 for leaf nodes.
    pub level: u32,
    pub parent: NodeId,
}

impl Node {
    pub fn len(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf(v) => v.len(),
            NodeKind::Internal(v) => v.len(),
        }
    }

    pub fn mbr(&self) -> Option<HyperRect> {
        match &self.kind {
            NodeKind::Leaf(v) => {
                let mut it = v.iter();
                let first = it.next()?.rect.clone();
                Some(it.fold(first, |acc, e| acc.union(&e.rect)))
            }
            NodeKind::Internal(v) => {
                let mut it = v.iter();
                let first = it.next()?.rect.clone();
                Some(it.fold(first, |acc, c| acc.union(&c.rect)))
            }
        }
    }
}

/// An R*-tree over axis-parallel rectangles with `u64` payloads.
///
/// `Clone` is a deep structural copy in O(nodes) — no rebuild, no
/// re-splitting — so a cloned tree is bit-for-bit the same shape as the
/// original. The copy-on-write `fork` of the R-tree baseline engine relies
/// on this being much cheaper than a fresh bulk load.
pub struct RTree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
    pub(crate) params: RTreeParams,
    pub(crate) dim: usize,
    pub(crate) len: usize,
    pub(crate) free: Vec<NodeId>,
    /// Per-insertion flag set of levels that already did forced reinsert.
    pub(crate) reinserted_levels: Vec<bool>,
    /// Query/maintenance statistics.
    pub stats: RTreeStats,
}

impl std::fmt::Debug for RTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RTree")
            .field("dim", &self.dim)
            .field("len", &self.len)
            .field("nodes", &self.nodes.len())
            .finish_non_exhaustive()
    }
}

impl Clone for RTree {
    /// Deep-copies the arena; the clone starts with fresh (zeroed)
    /// statistics, since `RTreeStats` counters describe one handle's query
    /// traffic, not tree shape.
    fn clone(&self) -> Self {
        Self {
            nodes: self.nodes.clone(),
            root: self.root,
            params: self.params,
            dim: self.dim,
            len: self.len,
            free: self.free.clone(),
            reinserted_levels: self.reinserted_levels.clone(),
            stats: RTreeStats::default(),
        }
    }
}

impl RTree {
    /// Creates an empty tree for `dim`-dimensional rectangles.
    pub fn new(dim: usize, params: RTreeParams) -> Self {
        let root_node = Node {
            kind: NodeKind::Leaf(Vec::new()),
            level: 0,
            parent: INVALID,
        };
        Self {
            nodes: vec![root_node],
            root: 0,
            params,
            dim,
            len: 0,
            free: Vec::new(),
            reinserted_levels: Vec::new(),
            stats: RTreeStats::default(),
        }
    }

    /// Creates an empty tree with default parameters (fanout 100).
    pub fn with_default_params(dim: usize) -> Self {
        Self::new(dim, RTreeParams::default())
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the indexed rectangles.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Tree height (1 for a single leaf root).
    pub fn height(&self) -> usize {
        self.nodes[self.root as usize].level as usize + 1
    }

    /// Bounding rectangle of the whole tree, `None` when empty.
    pub fn mbr(&self) -> Option<HyperRect> {
        self.nodes[self.root as usize].mbr()
    }

    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id as usize]
    }

    pub(crate) fn alloc_node(&mut self, node: Node) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = node;
            id
        } else {
            let id = self.nodes.len() as NodeId;
            self.nodes.push(node);
            id
        }
    }

    /// Inserts one entry.
    pub fn insert(&mut self, rect: HyperRect, id: u64) {
        assert_eq!(rect.dim(), self.dim, "dimension mismatch");
        let height = self.nodes[self.root as usize].level as usize + 1;
        self.reinserted_levels = vec![false; height];
        self.insert_entry(Entry { rect, id }, 0);
        self.len += 1;
    }

    /// Inserts an entry at the given level (0 = leaf). Shared by the public
    /// insert, forced reinsertion, and delete's orphan reinsertion.
    pub(crate) fn insert_entry(&mut self, entry: Entry, level: u32) {
        debug_assert_eq!(level, 0, "entries live at leaf level");
        let _ = level;
        let leaf = self.choose_subtree(&entry.rect, 0);
        match &mut self.node_mut(leaf).kind {
            NodeKind::Leaf(v) => v.push(entry),
            NodeKind::Internal(_) => unreachable!("choose_subtree(0) returns a leaf"),
        }
        self.adjust_rects_upward(leaf);
        if self.node(leaf).len() > self.params.max_entries {
            self.handle_overflow(leaf);
        }
    }

    /// Re-inserts a whole subtree (used by delete's condensation).
    pub(crate) fn insert_subtree(&mut self, rect: HyperRect, node: NodeId, level: u32) {
        let target = self.choose_subtree(&rect, level + 1);
        self.node_mut(node).parent = target;
        match &mut self.node_mut(target).kind {
            NodeKind::Internal(v) => v.push(ChildRef { rect, node }),
            NodeKind::Leaf(_) => unreachable!("subtree target must be internal"),
        }
        self.adjust_rects_upward(target);
        if self.node(target).len() > self.params.max_entries {
            self.handle_overflow(target);
        }
    }

    /// R* `ChooseSubtree`: descends from the root to a node at `target_level`.
    fn choose_subtree(&mut self, rect: &HyperRect, target_level: u32) -> NodeId {
        let mut cur = self.root;
        loop {
            let node = self.node(cur);
            if node.level == target_level {
                return cur;
            }
            let children = match &node.kind {
                NodeKind::Internal(v) => v,
                NodeKind::Leaf(_) => return cur,
            };
            // At the level right above the leaves, minimise overlap
            // enlargement; higher up, minimise area enlargement (R* policy).
            let best = if node.level == 1 {
                self.pick_min_overlap_child(children, rect)
            } else {
                Self::pick_min_area_child(children, rect)
            };
            cur = children[best].node;
        }
    }

    fn pick_min_area_child(children: &[ChildRef], rect: &HyperRect) -> usize {
        let mut best = 0usize;
        let mut best_enl = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for (i, c) in children.iter().enumerate() {
            let area = c.rect.volume();
            let enl = c.rect.union(rect).volume() - area;
            if enl < best_enl || (enl == best_enl && area < best_area) {
                best = i;
                best_enl = enl;
                best_area = area;
            }
        }
        best
    }

    fn pick_min_overlap_child(&self, children: &[ChildRef], rect: &HyperRect) -> usize {
        let mut best = 0usize;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, c) in children.iter().enumerate() {
            let enlarged = c.rect.union(rect);
            let mut overlap_delta = 0.0;
            for (j, other) in children.iter().enumerate() {
                if i == j {
                    continue;
                }
                overlap_delta +=
                    enlarged.overlap_volume(&other.rect) - c.rect.overlap_volume(&other.rect);
            }
            let area = c.rect.volume();
            let enl = enlarged.volume() - area;
            let key = (overlap_delta, enl, area);
            if key < best_key {
                best = i;
                best_key = key;
            }
        }
        best
    }

    /// Recomputes bounding rectangles from `from` up to the root.
    pub(crate) fn adjust_rects_upward(&mut self, from: NodeId) {
        let mut cur = from;
        while self.node(cur).parent != INVALID {
            let parent = self.node(cur).parent;
            let mbr = self.node(cur).mbr().expect("non-empty node");
            match &mut self.node_mut(parent).kind {
                NodeKind::Internal(v) => {
                    let slot = v
                        .iter_mut()
                        .find(|c| c.node == cur)
                        .expect("child registered in parent");
                    slot.rect = mbr;
                }
                NodeKind::Leaf(_) => unreachable!("parent is internal"),
            }
            cur = parent;
        }
    }

    /// R* overflow treatment: forced reinsert once per level per insertion,
    /// then split.
    fn handle_overflow(&mut self, node_id: NodeId) {
        let level = self.node(node_id).level as usize;
        let is_root = node_id == self.root;
        let do_reinsert =
            !is_root && level < self.reinserted_levels.len() && !self.reinserted_levels[level];
        if do_reinsert {
            self.reinserted_levels[level] = true;
            self.forced_reinsert(node_id);
        } else {
            self.split_node(node_id);
        }
    }

    /// Removes the `reinsert_fraction` entries farthest from the node centre
    /// and re-inserts them.
    fn forced_reinsert(&mut self, node_id: NodeId) {
        self.stats
            .reinserts
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let count =
            ((self.node(node_id).len() as f64) * self.params.reinsert_fraction).ceil() as usize;
        let count = count.max(1);
        let center = self
            .node(node_id)
            .mbr()
            .expect("overflowing node is non-empty")
            .center();
        match &mut self.nodes[node_id as usize].kind {
            NodeKind::Leaf(entries) => {
                // sort by distance of entry-centre to node-centre, descending
                entries.sort_by_key(|e| {
                    std::cmp::Reverse(OrderedF64(e.rect.center().dist_sq(&center)))
                });
                let removed: Vec<Entry> = entries.drain(..count).collect();
                self.adjust_rects_upward(node_id);
                // far-reinsert: farthest first (classic R* policy)
                for e in removed {
                    self.insert_entry(e, 0);
                }
            }
            NodeKind::Internal(children) => {
                children.sort_by_key(|c| {
                    std::cmp::Reverse(OrderedF64(c.rect.center().dist_sq(&center)))
                });
                let removed: Vec<ChildRef> = children.drain(..count).collect();
                let level = self.node(node_id).level;
                self.adjust_rects_upward(node_id);
                for c in removed {
                    self.insert_subtree(c.rect, c.node, level - 1);
                }
            }
        }
    }

    /// Splits an overflowing node with the R* topological split, growing the
    /// tree when the root splits.
    pub(crate) fn split_node(&mut self, node_id: NodeId) {
        self.stats
            .splits
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let min = self.params.min_entries;
        let new_kind = match &mut self.nodes[node_id as usize].kind {
            NodeKind::Leaf(entries) => {
                let spilled = split::rstar_split(entries, min, |e| &e.rect);
                NodeKind::Leaf(spilled)
            }
            NodeKind::Internal(children) => {
                let spilled = split::rstar_split(children, min, |c| &c.rect);
                NodeKind::Internal(spilled)
            }
        };
        let level = self.node(node_id).level;
        let parent = self.node(node_id).parent;
        let sibling = self.alloc_node(Node {
            kind: new_kind,
            level,
            parent: INVALID,
        });
        // Reparent grandchildren of the new internal sibling.
        if let NodeKind::Internal(children) = &self.node(sibling).kind {
            let moved: Vec<NodeId> = children.iter().map(|c| c.node).collect();
            for m in moved {
                self.node_mut(m).parent = sibling;
            }
        }
        let sib_rect = self.node(sibling).mbr().expect("sibling non-empty");
        if parent == INVALID {
            // Root split: create a new root.
            let old_rect = self.node(node_id).mbr().expect("old root non-empty");
            let new_root = self.alloc_node(Node {
                kind: NodeKind::Internal(vec![
                    ChildRef {
                        rect: old_rect,
                        node: node_id,
                    },
                    ChildRef {
                        rect: sib_rect,
                        node: sibling,
                    },
                ]),
                level: level + 1,
                parent: INVALID,
            });
            self.node_mut(node_id).parent = new_root;
            self.node_mut(sibling).parent = new_root;
            self.root = new_root;
            // A new level exists; extend the reinsert bookkeeping.
            self.reinserted_levels.push(true);
        } else {
            self.node_mut(sibling).parent = parent;
            match &mut self.node_mut(parent).kind {
                NodeKind::Internal(v) => v.push(ChildRef {
                    rect: sib_rect,
                    node: sibling,
                }),
                NodeKind::Leaf(_) => unreachable!(),
            }
            self.adjust_rects_upward(node_id);
            self.adjust_rects_upward(sibling);
            if self.node(parent).len() > self.params.max_entries {
                self.handle_overflow(parent);
            }
        }
    }

    /// Deletes the entry with the given `id` whose rectangle equals `rect`.
    /// Returns true if an entry was removed.
    pub fn remove(&mut self, rect: &HyperRect, id: u64) -> bool {
        let Some(leaf) = self.find_leaf(self.root, rect, id) else {
            return false;
        };
        match &mut self.node_mut(leaf).kind {
            NodeKind::Leaf(v) => {
                let pos = v
                    .iter()
                    .position(|e| e.id == id && &e.rect == rect)
                    .expect("find_leaf located the entry");
                v.swap_remove(pos);
            }
            NodeKind::Internal(_) => unreachable!(),
        }
        self.len -= 1;
        self.condense(leaf);
        true
    }

    fn find_leaf(&self, node_id: NodeId, rect: &HyperRect, id: u64) -> Option<NodeId> {
        match &self.node(node_id).kind {
            NodeKind::Leaf(v) => v
                .iter()
                .any(|e| e.id == id && &e.rect == rect)
                .then_some(node_id),
            NodeKind::Internal(children) => children
                .iter()
                .filter(|c| c.rect.contains_rect(rect))
                .find_map(|c| self.find_leaf(c.node, rect, id)),
        }
    }

    /// Condenses the tree after a deletion: underfull nodes on the path to
    /// the root are dissolved and their contents re-inserted.
    fn condense(&mut self, leaf: NodeId) {
        let mut orphans_entries: Vec<Entry> = Vec::new();
        let mut orphan_subtrees: Vec<(HyperRect, NodeId, u32)> = Vec::new();
        let mut cur = leaf;
        while cur != self.root {
            let parent = self.node(cur).parent;
            if self.node(cur).len() < self.params.min_entries {
                // Unlink from parent and queue contents for reinsertion.
                match &mut self.node_mut(parent).kind {
                    NodeKind::Internal(v) => {
                        let pos = v.iter().position(|c| c.node == cur).expect("linked child");
                        v.swap_remove(pos);
                    }
                    NodeKind::Leaf(_) => unreachable!(),
                }
                let level = self.nodes[cur as usize].level;
                match &mut self.nodes[cur as usize].kind {
                    NodeKind::Leaf(v) => orphans_entries.append(v),
                    NodeKind::Internal(v) => {
                        for c in v.drain(..) {
                            orphan_subtrees.push((c.rect, c.node, level - 1));
                        }
                    }
                }
                self.free.push(cur);
            } else {
                self.adjust_rects_upward(cur);
            }
            cur = parent;
        }
        // Shrink the root if it became a trivial internal node.
        loop {
            let root = self.root;
            let replace = match &self.node(root).kind {
                NodeKind::Internal(v) if v.len() == 1 => Some(v[0].node),
                _ => None,
            };
            match replace {
                Some(only) => {
                    self.node_mut(only).parent = INVALID;
                    self.free.push(root);
                    self.root = only;
                }
                None => break,
            }
        }
        let height = self.nodes[self.root as usize].level as usize + 1;
        self.reinserted_levels = vec![true; height]; // no forced reinsert during condensation
        for (rect, node, level) in orphan_subtrees {
            self.insert_subtree(rect, node, level);
        }
        for e in orphans_entries {
            self.insert_entry(e, 0);
        }
    }

    /// STR (Sort-Tile-Recursive) bulk load. Far faster than repeated inserts
    /// and produces well-packed leaves; used to bootstrap experiments.
    pub fn bulk_load(dim: usize, params: RTreeParams, mut entries: Vec<Entry>) -> Self {
        if entries.is_empty() {
            return Self::new(dim, params);
        }
        let cap = params.max_entries;
        // Build leaf level.
        let mut tree = Self::new(dim, params);
        str_sort(&mut entries, dim, cap, 0);
        let mut level_nodes: Vec<NodeId> = entries
            .chunks(cap)
            .map(|chunk| {
                tree.alloc_node(Node {
                    kind: NodeKind::Leaf(chunk.to_vec()),
                    level: 0,
                    parent: INVALID,
                })
            })
            .collect();
        tree.len = entries.len();
        let mut level = 0u32;
        while level_nodes.len() > 1 {
            level += 1;
            let mut refs: Vec<ChildRef> = level_nodes
                .iter()
                .map(|&n| ChildRef {
                    rect: tree.node(n).mbr().expect("bulk nodes non-empty"),
                    node: n,
                })
                .collect();
            str_sort(&mut refs, dim, cap, 0);
            level_nodes = refs
                .chunks(cap)
                .map(|chunk| {
                    let id = tree.alloc_node(Node {
                        kind: NodeKind::Internal(chunk.to_vec()),
                        level,
                        parent: INVALID,
                    });
                    for c in chunk {
                        tree.node_mut(c.node).parent = id;
                    }
                    id
                })
                .collect();
        }
        // The placeholder root created by `new` is replaced.
        tree.free.push(tree.root);
        tree.root = level_nodes[0];
        tree.node_mut(level_nodes[0]).parent = INVALID;
        tree
    }

    /// Validates structural invariants; used by tests.
    pub fn check_invariants(&self) {
        let mut seen = 0usize;
        self.check_node(self.root, None);
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            match &self.node(n).kind {
                NodeKind::Leaf(v) => seen += v.len(),
                NodeKind::Internal(v) => stack.extend(v.iter().map(|c| c.node)),
            }
        }
        assert_eq!(seen, self.len, "entry count mismatch");
    }

    fn check_node(&self, id: NodeId, expected_rect: Option<&HyperRect>) {
        let node = self.node(id);
        if id != self.root {
            assert!(
                node.len() >= 1,
                "non-root node {id} is empty (level {})",
                node.level
            );
        }
        assert!(node.len() <= self.params.max_entries + 1);
        if let Some(r) = expected_rect {
            let mbr = node.mbr().expect("non-empty");
            assert!(
                r.contains_rect(&mbr) && mbr.contains_rect(r),
                "stored child rect differs from recomputed MBR"
            );
        }
        if let NodeKind::Internal(children) = &node.kind {
            for c in children {
                assert_eq!(self.node(c.node).parent, id, "broken parent link");
                assert_eq!(self.node(c.node).level + 1, node.level, "level mismatch");
                self.check_node(c.node, Some(&c.rect));
            }
        }
    }
}

/// Recursive STR tiling sort: sorts items by centre coordinate of dimension
/// `axis`, then partitions into vertical "slabs" that are recursively sorted
/// on the remaining axes.
fn str_sort<T>(items: &mut [T], dim: usize, cap: usize, axis: usize)
where
    T: HasRect,
{
    if axis >= dim || items.len() <= cap {
        return;
    }
    items.sort_by_key(|it| OrderedF64(it.rect_ref().center()[axis]));
    let leaves = (items.len() as f64 / cap as f64).ceil();
    let slabs = leaves.powf(1.0 / (dim - axis) as f64).ceil() as usize;
    let slab_len = items.len().div_ceil(slabs.max(1));
    for chunk in items.chunks_mut(slab_len.max(1)) {
        str_sort(chunk, dim, cap, axis + 1);
    }
}

pub(crate) trait HasRect {
    fn rect_ref(&self) -> &HyperRect;
}

impl HasRect for Entry {
    fn rect_ref(&self) -> &HyperRect {
        &self.rect
    }
}

impl HasRect for ChildRef {
    fn rect_ref(&self) -> &HyperRect {
        &self.rect
    }
}
