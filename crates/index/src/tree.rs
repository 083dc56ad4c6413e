//! The R\*-tree of Beckmann, Kriegel, Schneider and Seeger (SIGMOD 1990),
//! on an index-based node arena.
//!
//! Stardust maintains one R\*-tree per resolution level; every MBR produced
//! by the summarizer is inserted here and retired (deleted) once it falls
//! out of the history of interest, so the tree must support efficient
//! inserts, deletes, rectangle-intersection queries and point/radius
//! queries. The implementation follows the original paper:
//!
//! * **ChooseSubtree** — minimum *overlap* enlargement at the level above
//!   the leaves, minimum *area* enlargement elsewhere, with the published
//!   tie-breaks.
//! * **Split** — choose the split axis by minimum total margin over all
//!   candidate distributions, then the distribution with minimum overlap
//!   (ties: minimum combined area).
//! * **Forced reinsertion** — on the first overflow per level per insertion,
//!   the `p` entries farthest from the node center are reinserted instead of
//!   splitting, which is where most of the R\*-tree's query-quality advantage
//!   comes from.
//! * **Deletion** with tree condensation: underfull nodes are dissolved and
//!   their entries reinserted at their home level.
//!
//! # Arena layout
//!
//! Nodes live in one `Vec`-backed pool addressed by `u32` ids; deleted
//! nodes go on a free-list and are recycled with their `Vec` capacities
//! intact, so steady-state insert/delete churn performs no node
//! allocation. Edges are ids, not `Box` pointers — a descent follows
//! indexes into one contiguous allocation instead of chasing heap
//! pointers. Each node additionally mirrors its children's bounds in a
//! flat SoA-style `f64` array (entry `i` occupies `[2·d·i, 2·d·(i+1))` as
//! `lo` then `hi`), which turns the hot ChooseSubtree / `search_*` /
//! radius scans into tight branch-light loops over `f64` slices (the
//! `coords_*` primitives of [`crate::geometry`]). The materialized
//! [`Rect`]s are kept alongside — they back the reference-returning
//! public API (`search_*` visitors, [`NodeRef`], [`Iter`]) and exact
//! `PartialEq` matching in `remove`/`update`.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::geometry::{
    check_corners, coords_area, coords_margin, coords_overlap_area, coords_scan_intersecting,
    coords_scan_within, coords_union_area, Rect,
};

/// Cumulative structural-operation counters for one [`RStarTree`].
///
/// Maintained in relaxed atomics so read paths (`search_*`, which take
/// `&self`) can record node visits without locks or `&mut`, and so the
/// parallel range queries ([`RStarTree::par_collect_intersecting`]) can
/// share the tree across scoped worker threads — the tree is `Sync`
/// whenever its payload is. Uncontended relaxed increments cost about as
/// much as the plain register increment they replaced. Read with
/// [`RStarTree::counters`], or [`RStarTree::reset_counters`] for
/// per-query deltas.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TreeCounters {
    /// Data items inserted via [`RStarTree::insert`] (bulk-loaded items
    /// count here too).
    pub inserts: u64,
    /// Data items removed via [`RStarTree::remove`] / [`RStarTree::take`].
    pub removes: u64,
    /// Node splits (after forced reinsertion declined).
    pub splits: u64,
    /// Entries moved by forced reinsertion (the R\*-tree's
    /// OverflowTreatment) and deletion condensation.
    pub reinserted_entries: u64,
    /// Nodes visited by intersection / within-radius / nearest-neighbour
    /// searches.
    pub node_visits: u64,
}

impl TreeCounters {
    /// Field-wise sum, for aggregating across the per-level trees of a
    /// monitor.
    pub fn merged(self, other: TreeCounters) -> TreeCounters {
        TreeCounters {
            inserts: self.inserts + other.inserts,
            removes: self.removes + other.removes,
            splits: self.splits + other.splits,
            reinserted_entries: self.reinserted_entries + other.reinserted_entries,
            node_visits: self.node_visits + other.node_visits,
        }
    }
}

/// Interior-mutable backing store for [`TreeCounters`]: one relaxed
/// atomic per field. Counters are monotonic event tallies with no
/// cross-field invariants, so relaxed ordering (and non-atomic snapshots
/// across fields) is sound.
#[derive(Debug, Default)]
struct CounterCell {
    inserts: AtomicU64,
    removes: AtomicU64,
    splits: AtomicU64,
    reinserted_entries: AtomicU64,
    node_visits: AtomicU64,
}

impl CounterCell {
    fn snapshot(&self) -> TreeCounters {
        TreeCounters {
            inserts: self.inserts.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            splits: self.splits.load(Ordering::Relaxed),
            reinserted_entries: self.reinserted_entries.load(Ordering::Relaxed),
            node_visits: self.node_visits.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) -> TreeCounters {
        TreeCounters {
            inserts: self.inserts.swap(0, Ordering::Relaxed),
            removes: self.removes.swap(0, Ordering::Relaxed),
            splits: self.splits.swap(0, Ordering::Relaxed),
            reinserted_entries: self.reinserted_entries.swap(0, Ordering::Relaxed),
            node_visits: self.node_visits.swap(0, Ordering::Relaxed),
        }
    }
}

/// Adds `n` to one counter field (relaxed; see [`CounterCell`]).
#[inline]
fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Tuning parameters for an [`RStarTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Maximum entries per node (`M`).
    pub max_entries: usize,
    /// Minimum entries per node (`m`), 40% of `M` by default.
    pub min_entries: usize,
    /// Entries removed by forced reinsertion (30% of `M` by default).
    pub reinsert_count: usize,
}

impl Params {
    /// The parameters recommended by the R\*-tree paper for a node capacity
    /// of `max_entries`: `m = 40%·M`, `p = 30%·M`.
    ///
    /// # Panics
    /// Panics if `max_entries < 4`.
    pub fn new(max_entries: usize) -> Self {
        assert!(max_entries >= 4, "node capacity must be at least 4");
        let min_entries = (max_entries * 2 / 5).max(2);
        let reinsert_count = (max_entries * 3 / 10).max(1);
        Params { max_entries, min_entries, reinsert_count }
    }
}

impl Default for Params {
    /// Capacity 16: measured sweet spot for the insert/delete-heavy
    /// workloads of the streaming summarizer (the O(M²) overlap criterion
    /// in ChooseSubtree dominates insertion at larger capacities).
    fn default() -> Self {
        Params::new(16)
    }
}

/// An entry moved between nodes by the insertion/deletion machinery: a
/// data item, or an edge to an arena node.
enum Entry<T> {
    /// A data item; only at level 0.
    Item(Rect, T),
    /// A subtree; the rect is the MBR of the child node.
    Child(Rect, u32),
}

impl<T> Entry<T> {
    fn rect(&self) -> &Rect {
        match self {
            Entry::Item(rect, _) | Entry::Child(rect, _) => rect,
        }
    }
}

/// One arena node. Parallel arrays: entry `i` is described by `rects[i]`,
/// its bounds mirrored flat in `coords`, and its payload in `values[i]`
/// (leaves) or `children[i]` (internal nodes).
struct Node<T> {
    /// 0 for leaves, increasing towards the root.
    level: usize,
    /// Flat SoA mirror of the entry bounds, `2·dims` values per entry
    /// (`lo` then `hi`); the hot scan loops read only this.
    coords: Vec<f64>,
    /// Materialized per-entry rectangles (same bounds as `coords`); the
    /// reference-returning public API borrows these.
    rects: Vec<Rect>,
    /// Leaf payloads; empty on internal nodes.
    values: Vec<T>,
    /// Child node ids; empty on leaves.
    children: Vec<u32>,
}

impl<T> Node<T> {
    fn new(level: usize) -> Self {
        Node {
            level,
            coords: Vec::new(),
            rects: Vec::new(),
            values: Vec::new(),
            children: Vec::new(),
        }
    }

    #[inline]
    fn count(&self) -> usize {
        self.rects.len()
    }

    /// `(lo, hi)` bound slices of entry `i` from the flat mirror.
    #[inline]
    fn bounds(&self, dims: usize, i: usize) -> (&[f64], &[f64]) {
        let w = 2 * dims;
        self.coords[i * w..(i + 1) * w].split_at(dims)
    }

    fn push_entry(&mut self, entry: Entry<T>) {
        let rect = match entry {
            Entry::Item(rect, value) => {
                debug_assert_eq!(self.level, 0, "item entry above leaf level");
                self.values.push(value);
                rect
            }
            Entry::Child(rect, id) => {
                debug_assert!(self.level > 0, "child entry at leaf level");
                self.children.push(id);
                rect
            }
        };
        self.coords.extend_from_slice(rect.lo());
        self.coords.extend_from_slice(rect.hi());
        self.rects.push(rect);
    }

    fn swap_remove_entry(&mut self, dims: usize, i: usize) -> Entry<T> {
        let w = 2 * dims;
        let last = self.count() - 1;
        if i != last {
            self.coords.copy_within(last * w..(last + 1) * w, i * w);
        }
        self.coords.truncate(last * w);
        let rect = self.rects.swap_remove(i);
        if self.level == 0 {
            Entry::Item(rect, self.values.swap_remove(i))
        } else {
            Entry::Child(rect, self.children.swap_remove(i))
        }
    }

    /// Replaces the bounds of entry `i` in both the mirror and the
    /// materialized rectangle.
    fn set_rect(&mut self, dims: usize, i: usize, rect: Rect) {
        let w = 2 * dims;
        self.coords[i * w..i * w + dims].copy_from_slice(rect.lo());
        self.coords[i * w + dims..(i + 1) * w].copy_from_slice(rect.hi());
        self.rects[i] = rect;
    }

    /// Drains every entry, leaving the node empty (capacities retained).
    fn take_entries(&mut self) -> Vec<Entry<T>> {
        self.coords.clear();
        let n = self.rects.len();
        let mut out = Vec::with_capacity(n);
        if self.level == 0 {
            for (rect, value) in self.rects.drain(..).zip(self.values.drain(..)) {
                out.push(Entry::Item(rect, value));
            }
        } else {
            for (rect, id) in self.rects.drain(..).zip(self.children.drain(..)) {
                out.push(Entry::Child(rect, id));
            }
        }
        out
    }

    /// MBR of all entries, computed from the flat mirror.
    fn mbr(&self, dims: usize) -> Rect {
        debug_assert!(self.count() > 0, "mbr of empty node");
        let w = 2 * dims;
        let mut lo = self.coords[..dims].to_vec();
        let mut hi = self.coords[dims..w].to_vec();
        for chunk in self.coords.chunks_exact(w).skip(1) {
            for d in 0..dims {
                if chunk[d] < lo[d] {
                    lo[d] = chunk[d];
                }
                if chunk[dims + d] > hi[d] {
                    hi[d] = chunk[dims + d];
                }
            }
        }
        Rect::new(lo, hi)
    }
}

/// An R\*-tree mapping rectangles to values of type `T`.
///
/// ```
/// use stardust_index::{Rect, RStarTree};
///
/// let mut tree = RStarTree::new(2);
/// for i in 0..100 {
///     let x = (i % 10) as f64;
///     let y = (i / 10) as f64;
///     tree.insert(Rect::point(&[x, y]), i);
/// }
/// let mut hits = Vec::new();
/// tree.search_intersecting(&Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]), |_, &v| {
///     hits.push(v)
/// });
/// hits.sort_unstable();
/// assert_eq!(hits, vec![0, 1, 10, 11]);
/// ```
pub struct RStarTree<T> {
    /// Node pool; ids index into this. Slots on the free-list are vacant.
    nodes: Vec<Node<T>>,
    /// Recycled node ids (emptied, capacities retained).
    free: Vec<u32>,
    root: u32,
    dims: usize,
    params: Params,
    len: usize,
    counters: CounterCell,
}

impl<T> RStarTree<T> {
    /// An empty tree over `dims`-dimensional rectangles with default
    /// parameters.
    ///
    /// # Panics
    /// Panics if `dims` is zero.
    pub fn new(dims: usize) -> Self {
        Self::with_params(dims, Params::default())
    }

    /// An empty tree with explicit parameters.
    ///
    /// # Panics
    /// Panics if `dims` is zero or the parameters are inconsistent.
    pub fn with_params(dims: usize, params: Params) -> Self {
        assert!(dims > 0, "dimensionality must be positive");
        assert!(params.min_entries >= 2, "min entries must be at least 2");
        assert!(
            params.min_entries * 2 <= params.max_entries + 1,
            "min entries too large for capacity"
        );
        assert!(
            params.reinsert_count >= 1 && params.reinsert_count <= params.max_entries / 2,
            "reinsert count out of range"
        );
        RStarTree {
            nodes: vec![Node::new(0)],
            free: Vec::new(),
            root: 0,
            dims,
            params,
            len: 0,
            counters: CounterCell::default(),
        }
    }

    #[inline]
    fn node(&self, id: u32) -> &Node<T> {
        &self.nodes[id as usize]
    }

    #[inline]
    fn node_mut(&mut self, id: u32) -> &mut Node<T> {
        &mut self.nodes[id as usize]
    }

    /// Allocates a node at `level`, recycling from the free-list when
    /// possible (the recycled node keeps its `Vec` capacities, so churn
    /// settles into zero-allocation steady state).
    fn alloc(&mut self, level: usize) -> u32 {
        if let Some(id) = self.free.pop() {
            let node = &mut self.nodes[id as usize];
            debug_assert!(node.rects.is_empty(), "free-listed node not empty");
            node.level = level;
            id
        } else {
            assert!(self.nodes.len() < u32::MAX as usize, "node arena exhausted");
            self.nodes.push(Node::new(level));
            (self.nodes.len() - 1) as u32
        }
    }

    /// Empties a node and returns its slot to the free-list.
    fn release(&mut self, id: u32) {
        let node = &mut self.nodes[id as usize];
        node.coords.clear();
        node.rects.clear();
        node.values.clear();
        node.children.clear();
        self.free.push(id);
    }

    /// Cumulative structural-operation counters since construction (or
    /// the last [`RStarTree::reset_counters`]).
    pub fn counters(&self) -> TreeCounters {
        self.counters.snapshot()
    }

    /// Returns the current counters and resets them to zero; callers
    /// use this to attribute node visits to a single query.
    pub fn reset_counters(&self) -> TreeCounters {
        self.counters.reset()
    }

    /// Records one node visit; crate-internal hook for traversals that
    /// walk the tree through [`NodeRef`] (best-first k-NN).
    pub(crate) fn note_node_visit(&self) {
        bump(&self.counters.node_visits, 1);
    }

    /// Number of data items stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no items are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the indexed rectangles.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Tree height (1 for a single leaf root).
    pub fn height(&self) -> usize {
        self.node(self.root).level + 1
    }

    /// MBR of the whole tree, `None` when empty.
    pub fn bounding_rect(&self) -> Option<Rect> {
        let root = self.node(self.root);
        if root.count() == 0 {
            None
        } else {
            Some(root.mbr(self.dims))
        }
    }

    /// Inserts a rectangle/value pair.
    ///
    /// # Panics
    /// Panics if the rectangle has the wrong dimensionality.
    pub fn insert(&mut self, rect: Rect, value: T) {
        assert_eq!(rect.dims(), self.dims, "rectangle dimensionality mismatch");
        self.len += 1;
        bump(&self.counters.inserts, 1);
        self.insert_queue(vec![(Entry::Item(rect, value), 0)]);
    }

    /// Runs the insertion machinery over a queue of (entry, home level)
    /// pairs; shared by public insert, forced reinsertion and deletion
    /// condensation.
    fn insert_queue(&mut self, mut queue: Vec<(Entry<T>, usize)>) {
        let mut reinserted = vec![false; self.node(self.root).level + 1];
        while let Some((entry, level)) = queue.pop() {
            let root_level = self.node(self.root).level;
            if reinserted.len() <= root_level {
                reinserted.resize(root_level + 1, false);
            }
            let split = self.insert_rec(self.root, entry, level, true, &mut reinserted, &mut queue);
            if let Some(sibling) = split {
                let old_root = self.root;
                let old_rect = self.node(old_root).mbr(self.dims);
                let new_root = self.alloc(root_level + 1);
                self.node_mut(new_root).push_entry(Entry::Child(old_rect, old_root));
                self.node_mut(new_root).push_entry(sibling);
                self.root = new_root;
            }
        }
    }

    /// Inserts `entry` (whose home level is `target_level`) into the
    /// subtree rooted at `id`. Returns a sibling entry if the node split.
    fn insert_rec(
        &mut self,
        id: u32,
        entry: Entry<T>,
        target_level: usize,
        is_root: bool,
        reinserted: &mut [bool],
        queue: &mut Vec<(Entry<T>, usize)>,
    ) -> Option<Entry<T>> {
        if self.node(id).level == target_level {
            self.node_mut(id).push_entry(entry);
        } else {
            let idx = self.choose_subtree(id, entry.rect());
            let child = self.node(id).children[idx];
            let split = self.insert_rec(child, entry, target_level, false, reinserted, queue);
            // The child may have grown (insert) or shrunk (reinsertion
            // removed entries), so recompute its MBR either way.
            let dims = self.dims;
            let crect = self.node(child).mbr(dims);
            self.node_mut(id).set_rect(dims, idx, crect);
            if let Some(sibling) = split {
                self.node_mut(id).push_entry(sibling);
            }
        }
        if self.node(id).count() > self.params.max_entries {
            self.overflow_treatment(id, is_root, reinserted, queue)
        } else {
            None
        }
    }

    /// R\*-tree OverflowTreatment: forced reinsertion on the first overflow
    /// per level per insertion, split otherwise.
    fn overflow_treatment(
        &mut self,
        id: u32,
        is_root: bool,
        reinserted: &mut [bool],
        queue: &mut Vec<(Entry<T>, usize)>,
    ) -> Option<Entry<T>> {
        let level = self.node(id).level;
        if !is_root && !reinserted[level] {
            reinserted[level] = true;
            let center = self.node(id).mbr(self.dims);
            // Sort by distance of entry center to node center, take the p
            // farthest for reinsertion ("far reinsert"); keeping the
            // closest entries compacts the node.
            let node = self.node(id);
            let mut order: Vec<usize> = (0..node.count()).collect();
            order.sort_by(|&a, &b| {
                let da = node.rects[a].center_dist_sqr(&center);
                let db = node.rects[b].center_dist_sqr(&center);
                da.partial_cmp(&db).expect("finite distances")
            });
            let cut = node.count() - self.params.reinsert_count;
            let far: Vec<usize> = order[cut..].to_vec();
            let mut removed = self.extract_indices(id, &far);
            // Reinsert closest-first: the last popped from the LIFO queue
            // is the closest, matching the paper's "close reinsert"
            // ordering.
            removed.reverse();
            bump(&self.counters.reinserted_entries, removed.len() as u64);
            for e in removed {
                queue.push((e, level));
            }
            None
        } else {
            bump(&self.counters.splits, 1);
            Some(self.split_node(id))
        }
    }

    /// Removes the entries at `indices` (any order) and returns them in
    /// ascending index order.
    fn extract_indices(&mut self, id: u32, indices: &[usize]) -> Vec<Entry<T>> {
        let dims = self.dims;
        let mut sorted = indices.to_vec();
        sorted.sort_unstable();
        let node = self.node_mut(id);
        let mut out = Vec::with_capacity(sorted.len());
        for &i in sorted.iter().rev() {
            out.push(node.swap_remove_entry(dims, i));
        }
        out.reverse();
        out
    }

    /// R\*-tree ChooseSubtree, scanning the flat bound mirror.
    fn choose_subtree(&self, id: u32, rect: &Rect) -> usize {
        let dims = self.dims;
        let node = self.node(id);
        debug_assert!(node.level > 0);
        let n = node.count();
        let (qlo, qhi) = (rect.lo(), rect.hi());
        let mut best = 0usize;
        if node.level == 1 {
            // Children are leaves: minimize overlap enlargement. The grown
            // bounds are materialized once per candidate; overlap deltas
            // prune early against the running best.
            let mut best_overlap = f64::INFINITY;
            let mut best_enlarge = f64::INFINITY;
            let mut best_area = f64::INFINITY;
            let mut glo = vec![0.0; dims];
            let mut ghi = vec![0.0; dims];
            for i in 0..n {
                let (ilo, ihi) = node.bounds(dims, i);
                for d in 0..dims {
                    glo[d] = ilo[d].min(qlo[d]);
                    ghi[d] = ihi[d].max(qhi[d]);
                }
                let mut overlap_delta = 0.0;
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let (jlo, jhi) = node.bounds(dims, j);
                    overlap_delta += coords_overlap_area(&glo, &ghi, jlo, jhi)
                        - coords_overlap_area(ilo, ihi, jlo, jhi);
                    if overlap_delta > best_overlap {
                        break;
                    }
                }
                let area = coords_area(ilo, ihi);
                let enlarge = coords_area(&glo, &ghi) - area;
                if overlap_delta < best_overlap
                    || (overlap_delta == best_overlap && enlarge < best_enlarge)
                    || (overlap_delta == best_overlap
                        && enlarge == best_enlarge
                        && area < best_area)
                {
                    best = i;
                    best_overlap = overlap_delta;
                    best_enlarge = enlarge;
                    best_area = area;
                }
            }
        } else {
            // Minimize area enlargement, ties by smallest area.
            let mut best_enlarge = f64::INFINITY;
            let mut best_area = f64::INFINITY;
            for i in 0..n {
                let (ilo, ihi) = node.bounds(dims, i);
                let area = coords_area(ilo, ihi);
                let enlarge = coords_union_area(ilo, ihi, qlo, qhi) - area;
                if enlarge < best_enlarge || (enlarge == best_enlarge && area < best_area) {
                    best = i;
                    best_enlarge = enlarge;
                    best_area = area;
                }
            }
        }
        best
    }

    /// R\*-tree Split: returns the new sibling as a child entry; the node
    /// keeps the first group.
    fn split_node(&mut self, id: u32) -> Entry<T> {
        let dims = self.dims;
        let min = self.params.min_entries;
        let level = self.node(id).level;
        let entries = self.node_mut(id).take_entries();
        let total = entries.len();
        debug_assert!(total > self.params.max_entries);
        let w = 2 * dims;

        // ChooseSplitAxis: minimize the sum of margins over all
        // distributions of both sort orders.
        let mut best_axis = 0usize;
        let mut best_margin = f64::INFINITY;
        for axis in 0..dims {
            let mut margin_sum = 0.0;
            for sort_by_hi in [false, true] {
                let order = sorted_order(&entries, axis, sort_by_hi);
                let (prefix, suffix) = prefix_suffix_bounds(&entries, &order, dims);
                for k in min..=total - min {
                    let p = &prefix[(k - 1) * w..k * w];
                    let s = &suffix[k * w..(k + 1) * w];
                    margin_sum += coords_margin(&p[..dims], &p[dims..])
                        + coords_margin(&s[..dims], &s[dims..]);
                }
            }
            if margin_sum < best_margin {
                best_margin = margin_sum;
                best_axis = axis;
            }
        }

        // ChooseSplitIndex on the best axis: minimize overlap, ties by area.
        let mut best: Option<(Vec<usize>, usize)> = None;
        let mut best_overlap = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for sort_by_hi in [false, true] {
            let order = sorted_order(&entries, best_axis, sort_by_hi);
            let (prefix, suffix) = prefix_suffix_bounds(&entries, &order, dims);
            for k in min..=total - min {
                let p = &prefix[(k - 1) * w..k * w];
                let s = &suffix[k * w..(k + 1) * w];
                let overlap = coords_overlap_area(&p[..dims], &p[dims..], &s[..dims], &s[dims..]);
                let area =
                    coords_area(&p[..dims], &p[dims..]) + coords_area(&s[..dims], &s[dims..]);
                if overlap < best_overlap || (overlap == best_overlap && area < best_area) {
                    best_overlap = overlap;
                    best_area = area;
                    best = Some((order.clone(), k));
                }
            }
        }
        let (order, k) = best.expect("at least one distribution");

        // Partition the entries according to the chosen distribution: the
        // first group refills this node, the second a recycled sibling.
        let sibling = self.alloc(level);
        let mut slots: Vec<Option<Entry<T>>> = entries.into_iter().map(Some).collect();
        for (pos, &idx) in order.iter().enumerate() {
            let e = slots[idx].take().expect("each entry used once");
            let target = if pos < k { id } else { sibling };
            self.node_mut(target).push_entry(e);
        }
        let rect = self.node(sibling).mbr(dims);
        Entry::Child(rect, sibling)
    }

    /// Removes one item equal to `(rect, value)`. Returns `true` if found.
    ///
    /// # Panics
    /// Panics if the rectangle has the wrong dimensionality.
    pub fn remove(&mut self, rect: &Rect, value: &T) -> bool
    where
        T: PartialEq,
    {
        self.take(rect, value).is_some()
    }

    /// Removes one item equal to `(rect, value)` and returns its value.
    ///
    /// # Panics
    /// Panics if the rectangle has the wrong dimensionality.
    pub fn take(&mut self, rect: &Rect, value: &T) -> Option<T>
    where
        T: PartialEq,
    {
        assert_eq!(rect.dims(), self.dims, "rectangle dimensionality mismatch");
        let mut orphans = Vec::new();
        let removed = self.remove_rec(self.root, rect, value, &mut orphans);
        if removed.is_none() {
            debug_assert!(orphans.is_empty());
            return None;
        }
        self.len -= 1;
        bump(&self.counters.removes, 1);
        bump(&self.counters.reinserted_entries, orphans.len() as u64);
        // Shrink the root while it is an internal node with a single child.
        while self.node(self.root).level > 0 && self.node(self.root).count() == 1 {
            let old = self.root;
            self.root = self.node(old).children[0];
            self.release(old);
        }
        if !orphans.is_empty() {
            self.insert_queue(orphans);
        }
        removed
    }

    /// Removes one matching item, returning its value; collects orphaned
    /// entries from dissolved underfull nodes into `orphans` as (entry,
    /// home level) pairs.
    fn remove_rec(
        &mut self,
        id: u32,
        rect: &Rect,
        value: &T,
        orphans: &mut Vec<(Entry<T>, usize)>,
    ) -> Option<T>
    where
        T: PartialEq,
    {
        let dims = self.dims;
        if self.node(id).level == 0 {
            let node = self.node(id);
            let pos =
                (0..node.count()).find(|&i| &node.rects[i] == rect && &node.values[i] == value);
            pos.map(|i| match self.node_mut(id).swap_remove_entry(dims, i) {
                Entry::Item(_, v) => v,
                Entry::Child(..) => unreachable!("leaf holds items"),
            })
        } else {
            let mut found = None;
            for i in 0..self.node(id).count() {
                if !self.node(id).rects[i].contains_rect(rect) {
                    continue;
                }
                let child = self.node(id).children[i];
                if let Some(v) = self.remove_rec(child, rect, value, orphans) {
                    found = Some((i, v));
                    break;
                }
            }
            let (i, taken) = found?;
            let child = self.node(id).children[i];
            if self.node(child).count() < self.params.min_entries {
                // Condensation: dissolve the underfull child, re-queue its
                // entries at their home level, and recycle the node.
                self.node_mut(id).swap_remove_entry(dims, i);
                let level = self.node(child).level;
                let entries = self.node_mut(child).take_entries();
                self.release(child);
                for e in entries {
                    orphans.push((e, level));
                }
            } else {
                let crect = self.node(child).mbr(dims);
                self.node_mut(id).set_rect(dims, i, crect);
            }
            Some(taken)
        }
    }

    /// Replaces the rectangle of the item `(old_rect, value)` with
    /// `new_rect` — the frequent-update optimization of Lee et al. (VLDB
    /// 2003), which §4 cites for accelerating streaming workloads where
    /// consecutive feature boxes barely move.
    ///
    /// When the new rectangle stays inside the hosting leaf's MBR, the
    /// entry is patched **in place** (ancestor MBRs are tightened on the
    /// way back up, no structural change); otherwise it falls back to
    /// `remove` + `insert`. Returns `false` if the item was not found.
    ///
    /// # Panics
    /// Panics on a dimensionality mismatch.
    pub fn update(&mut self, old_rect: &Rect, value: &T, new_rect: Rect) -> bool
    where
        T: PartialEq,
    {
        assert_eq!(old_rect.dims(), self.dims, "rectangle dimensionality mismatch");
        assert_eq!(new_rect.dims(), self.dims, "rectangle dimensionality mismatch");
        match self.update_rec(self.root, old_rect, value, &new_rect) {
            UpdateOutcome::NotFound => false,
            UpdateOutcome::Patched => true,
            UpdateOutcome::NeedsReinsert => {
                let owned = self.take(old_rect, value).expect("entry was just located");
                self.insert(new_rect, owned);
                true
            }
        }
    }

    /// Descends guided by `old_rect`; patches the entry in place if
    /// `new_rect` stays within the hosting leaf's MBR.
    fn update_rec(&mut self, id: u32, old_rect: &Rect, value: &T, new_rect: &Rect) -> UpdateOutcome
    where
        T: PartialEq,
    {
        let dims = self.dims;
        if self.node(id).level == 0 {
            let node = self.node(id);
            let pos =
                (0..node.count()).find(|&i| &node.rects[i] == old_rect && &node.values[i] == value);
            let Some(i) = pos else { return UpdateOutcome::NotFound };
            if !node.mbr(dims).contains_rect(new_rect) {
                return UpdateOutcome::NeedsReinsert;
            }
            self.node_mut(id).set_rect(dims, i, new_rect.clone());
            UpdateOutcome::Patched
        } else {
            for i in 0..self.node(id).count() {
                if !self.node(id).rects[i].contains_rect(old_rect) {
                    continue;
                }
                let child = self.node(id).children[i];
                match self.update_rec(child, old_rect, value, new_rect) {
                    UpdateOutcome::NotFound => continue,
                    UpdateOutcome::Patched => {
                        // The leaf may have shrunk if the old rectangle was
                        // on its boundary; tighten MBRs on the way up.
                        let crect = self.node(child).mbr(dims);
                        self.node_mut(id).set_rect(dims, i, crect);
                        return UpdateOutcome::Patched;
                    }
                    UpdateOutcome::NeedsReinsert => return UpdateOutcome::NeedsReinsert,
                }
            }
            UpdateOutcome::NotFound
        }
    }

    /// Visits every item whose rectangle intersects `query`.
    pub fn search_intersecting<'a, F>(&'a self, query: &Rect, visit: F)
    where
        F: FnMut(&'a Rect, &'a T),
    {
        self.search_intersecting_box(query.lo(), query.hi(), visit);
    }

    /// [`Self::search_intersecting`] with the query box given by borrowed
    /// corners, so a caller probing on every arrival can reuse its corner
    /// buffers instead of building a [`Rect`].
    ///
    /// # Panics
    /// Panics if the corners would not make a valid [`Rect`] or have the
    /// wrong dimensionality.
    pub fn search_intersecting_box<'a, F>(&'a self, qlo: &[f64], qhi: &[f64], mut visit: F)
    where
        F: FnMut(&'a Rect, &'a T),
    {
        check_corners(qlo, qhi);
        assert_eq!(qlo.len(), self.dims, "query dimensionality mismatch");
        let mut visits = 0;
        self.search_rec(self.root, qlo, qhi, &mut visits, &mut visit);
        bump(&self.counters.node_visits, visits);
    }

    /// `visits` batches the node-visit count for one atomic add per query
    /// instead of one per node — the counter is shared (the tree is
    /// queryable from several threads), but the hot path must not pay a
    /// read-modify-write per visited node.
    fn search_rec<'a, F>(
        &'a self,
        id: u32,
        qlo: &[f64],
        qhi: &[f64],
        visits: &mut u64,
        visit: &mut F,
    ) where
        F: FnMut(&'a Rect, &'a T),
    {
        *visits += 1;
        let node = &self.nodes[id as usize];
        if node.level == 0 {
            coords_scan_intersecting(&node.coords, self.dims, qlo, qhi, |i| {
                visit(&node.rects[i], &node.values[i]);
            });
        } else {
            coords_scan_intersecting(&node.coords, self.dims, qlo, qhi, |i| {
                self.search_rec(node.children[i], qlo, qhi, visits, visit);
            });
        }
    }

    /// Collects every item whose rectangle intersects `query`.
    pub fn collect_intersecting(&self, query: &Rect) -> Vec<(&Rect, &T)> {
        let mut out = Vec::new();
        self.search_intersecting(query, |r, v| out.push((r, v)));
        out
    }

    /// Visits every item whose rectangle lies within Euclidean distance `r`
    /// of `point` (`d_min(point, rect) ≤ r`) — the range query of the
    /// pattern and correlation monitors.
    pub fn search_within<'a, F>(&'a self, point: &[f64], r: f64, mut visit: F)
    where
        F: FnMut(&'a Rect, &'a T),
    {
        assert_eq!(point.len(), self.dims, "query dimensionality mismatch");
        assert!(r >= 0.0, "radius must be nonnegative");
        let mut visits = 0;
        self.within_rec(self.root, point, r, &mut visits, &mut visit);
        bump(&self.counters.node_visits, visits);
    }

    fn within_rec<'a, F>(&'a self, id: u32, point: &[f64], r: f64, visits: &mut u64, visit: &mut F)
    where
        F: FnMut(&'a Rect, &'a T),
    {
        *visits += 1;
        let node = &self.nodes[id as usize];
        if node.level == 0 {
            coords_scan_within(&node.coords, self.dims, point, r, |i| {
                visit(&node.rects[i], &node.values[i]);
            });
        } else {
            coords_scan_within(&node.coords, self.dims, point, r, |i| {
                self.within_rec(node.children[i], point, r, visits, visit);
            });
        }
    }

    /// Collects every item within distance `r` of `point`.
    pub fn collect_within(&self, point: &[f64], r: f64) -> Vec<(&Rect, &T)> {
        let mut out = Vec::new();
        self.search_within(point, r, |rect, v| out.push((rect, v)));
        out
    }

    /// [`Self::collect_intersecting`] split across up to `threads` scoped
    /// worker threads — intra-query parallelism for range queries that
    /// touch many nodes.
    ///
    /// The root's intersecting subtrees are partitioned into contiguous
    /// runs, each run is walked serially by one worker, and the per-run
    /// results are concatenated in run order. Serial depth-first search
    /// visits those same subtrees in the same order, so the result is
    /// **identical — contents and order — to the serial path at every
    /// thread count** (pinned by `par_queries_match_serial` and the
    /// runtime's chaos equivalence suite). With `threads <= 1`, a
    /// single-level tree, or fewer than two intersecting subtrees, no
    /// threads are spawned and the serial path runs directly.
    pub fn par_collect_intersecting(&self, query: &Rect, threads: usize) -> Vec<(&Rect, &T)>
    where
        T: Sync,
    {
        assert_eq!(query.dims(), self.dims, "query dimensionality mismatch");
        let root = self.node(self.root);
        if threads <= 1 || root.level == 0 {
            return self.collect_intersecting(query);
        }
        let (qlo, qhi) = (query.lo(), query.hi());
        bump(&self.counters.node_visits, 1);
        let mut subtrees: Vec<u32> = Vec::new();
        coords_scan_intersecting(&root.coords, self.dims, qlo, qhi, |i| {
            subtrees.push(root.children[i]);
        });
        self.fan_out(&subtrees, threads, |id, out| {
            let mut visits = 0;
            self.search_rec(id, qlo, qhi, &mut visits, &mut |r, v| out.push((r, v)));
            bump(&self.counters.node_visits, visits);
        })
    }

    /// [`Self::collect_within`] split across up to `threads` scoped worker
    /// threads; same partitioning and determinism contract as
    /// [`Self::par_collect_intersecting`].
    pub fn par_collect_within(&self, point: &[f64], r: f64, threads: usize) -> Vec<(&Rect, &T)>
    where
        T: Sync,
    {
        assert_eq!(point.len(), self.dims, "query dimensionality mismatch");
        assert!(r >= 0.0, "radius must be nonnegative");
        let root = self.node(self.root);
        if threads <= 1 || root.level == 0 {
            return self.collect_within(point, r);
        }
        bump(&self.counters.node_visits, 1);
        let mut subtrees: Vec<u32> = Vec::new();
        coords_scan_within(&root.coords, self.dims, point, r, |i| {
            subtrees.push(root.children[i]);
        });
        self.fan_out(&subtrees, threads, |id, out| {
            let mut visits = 0;
            self.within_rec(id, point, r, &mut visits, &mut |rect, v| out.push((rect, v)));
            bump(&self.counters.node_visits, visits);
        })
    }

    /// Walks each subtree id in `subtrees` with `walk`, spreading
    /// contiguous runs across scoped threads, and concatenates the per-run
    /// outputs in run order — exactly the serial visit order.
    fn fan_out<'a, F>(&'a self, subtrees: &[u32], threads: usize, walk: F) -> Vec<(&'a Rect, &'a T)>
    where
        T: Sync,
        F: Fn(u32, &mut Vec<(&'a Rect, &'a T)>) + Sync,
    {
        if subtrees.len() < 2 {
            let mut out = Vec::new();
            for &id in subtrees {
                walk(id, &mut out);
            }
            return out;
        }
        let run = subtrees.len().div_ceil(threads.min(subtrees.len()));
        let mut parts: Vec<Vec<(&Rect, &T)>> = Vec::with_capacity(subtrees.len().div_ceil(run));
        std::thread::scope(|scope| {
            let handles: Vec<_> = subtrees
                .chunks(run)
                .map(|ids| {
                    let walk = &walk;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for &id in ids {
                            walk(id, &mut out);
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                parts.push(h.join().expect("parallel query worker panicked"));
            }
        });
        parts.concat()
    }

    /// Iterates over all items in unspecified order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { tree: self, stack: vec![(self.root, 0)] }
    }

    /// Verifies the structural invariants of the tree; used by tests and
    /// property checks. Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let root = self.node(self.root);
        if root.level > 0 && root.count() < 2 {
            return Err("internal root with fewer than 2 entries".into());
        }
        let mut count = 0;
        let mut visited = 0;
        self.validate_rec(self.root, true, &mut count, &mut visited)?;
        if count != self.len {
            return Err(format!("len {} but {} items reachable", self.len, count));
        }
        if visited + self.free.len() != self.nodes.len() {
            return Err(format!(
                "arena accounting broken: {} slots, {} reachable + {} free",
                self.nodes.len(),
                visited,
                self.free.len()
            ));
        }
        Ok(())
    }

    fn validate_rec(
        &self,
        id: u32,
        is_root: bool,
        count: &mut usize,
        visited: &mut usize,
    ) -> Result<(), String> {
        *visited += 1;
        let node = self.node(id);
        let dims = self.dims;
        if !is_root
            && (node.count() < self.params.min_entries || node.count() > self.params.max_entries)
        {
            return Err(format!(
                "node at level {} has {} entries (bounds {}..={})",
                node.level,
                node.count(),
                self.params.min_entries,
                self.params.max_entries
            ));
        }
        if node.count() > self.params.max_entries {
            return Err("root exceeds capacity".into());
        }
        if node.coords.len() != node.count() * 2 * dims {
            return Err(format!("flat mirror length mismatch at level {}", node.level));
        }
        let payloads = if node.level == 0 { node.values.len() } else { node.children.len() };
        if payloads != node.count() {
            return Err(format!("payload arity mismatch at level {}", node.level));
        }
        if node.level == 0 && !node.children.is_empty() {
            return Err("child entry at leaf level".into());
        }
        if node.level > 0 && !node.values.is_empty() {
            return Err("item entry above leaf level".into());
        }
        for i in 0..node.count() {
            let rect = &node.rects[i];
            if rect.dims() != dims {
                return Err("entry with wrong dimensionality".into());
            }
            let (lo, hi) = node.bounds(dims, i);
            if lo != rect.lo() || hi != rect.hi() {
                return Err(format!("flat mirror out of sync at level {}", node.level));
            }
            if node.level == 0 {
                *count += 1;
            } else {
                let child_id = node.children[i];
                let child = self.node(child_id);
                if child.level + 1 != node.level {
                    return Err(format!(
                        "child level {} under node level {}",
                        child.level, node.level
                    ));
                }
                if child.count() == 0 {
                    return Err("empty child node".into());
                }
                let actual = child.mbr(dims);
                if &actual != rect {
                    return Err(format!(
                        "stale child MBR at level {}: stored {:?}, actual {:?}",
                        node.level, rect, actual
                    ));
                }
                self.validate_rec(child_id, false, count, visited)?;
            }
        }
        Ok(())
    }
}

/// Crate-internal construction surface for the STR bulk loader
/// ([`crate::bulk`]): packs nodes directly into the arena, bottom-up.
impl<T> RStarTree<T> {
    /// A full leaf node from pre-grouped items; returns its id.
    pub(crate) fn bulk_new_leaf(&mut self, items: impl IntoIterator<Item = (Rect, T)>) -> u32 {
        let id = self.alloc(0);
        for (rect, value) in items {
            self.node_mut(id).push_entry(Entry::Item(rect, value));
        }
        id
    }

    /// An internal node at `level` over already-built children.
    pub(crate) fn bulk_new_inner(&mut self, level: usize, children: &[u32]) -> u32 {
        let id = self.alloc(level);
        for &child in children {
            debug_assert_eq!(self.node(child).level + 1, level);
            let rect = self.node(child).mbr(self.dims);
            self.node_mut(id).push_entry(Entry::Child(rect, child));
        }
        id
    }

    /// MBR of an arena node (for STR ordering of upper levels).
    pub(crate) fn bulk_node_mbr(&self, id: u32) -> Rect {
        self.node(id).mbr(self.dims)
    }

    /// Installs the packed root, recycling the placeholder root the tree
    /// was constructed with, and accounts the loaded items.
    pub(crate) fn bulk_finish(&mut self, root: u32, n_items: usize) {
        if root != self.root {
            let old = self.root;
            self.root = root;
            self.release(old);
        }
        self.len = n_items;
        bump(&self.counters.inserts, n_items as u64);
    }
}

impl<T> std::fmt::Debug for RStarTree<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RStarTree")
            .field("dims", &self.dims)
            .field("len", &self.len)
            .field("height", &self.height())
            .finish()
    }
}

/// Outcome of the in-place update descent.
enum UpdateOutcome {
    /// No matching item in this subtree.
    NotFound,
    /// The entry was patched in place; ancestor MBRs were refreshed.
    Patched,
    /// The entry exists, but the new rectangle escapes its leaf's MBR —
    /// delete + reinsert is required for tree quality (Lee et al.).
    NeedsReinsert,
}

fn sorted_order<T>(entries: &[Entry<T>], axis: usize, by_hi: bool) -> Vec<usize> {
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by(|&a, &b| {
        let (ka, kb) = if by_hi {
            (entries[a].rect().hi()[axis], entries[b].rect().hi()[axis])
        } else {
            (entries[a].rect().lo()[axis], entries[b].rect().lo()[axis])
        };
        ka.partial_cmp(&kb).expect("finite coordinates")
    });
    order
}

/// Flat running unions over a candidate split order: chunk `i` of the
/// prefix buffer (width `2·dims`, `lo` then `hi`) bounds `order[0..=i]`,
/// chunk `i` of the suffix buffer bounds `order[i..]`.
fn prefix_suffix_bounds<T>(
    entries: &[Entry<T>],
    order: &[usize],
    dims: usize,
) -> (Vec<f64>, Vec<f64>) {
    let n = order.len();
    let w = 2 * dims;
    let mut prefix = vec![0.0; n * w];
    let mut acc_lo = entries[order[0]].rect().lo().to_vec();
    let mut acc_hi = entries[order[0]].rect().hi().to_vec();
    prefix[..dims].copy_from_slice(&acc_lo);
    prefix[dims..w].copy_from_slice(&acc_hi);
    for (pos, &i) in order.iter().enumerate().skip(1) {
        let r = entries[i].rect();
        for d in 0..dims {
            if r.lo()[d] < acc_lo[d] {
                acc_lo[d] = r.lo()[d];
            }
            if r.hi()[d] > acc_hi[d] {
                acc_hi[d] = r.hi()[d];
            }
        }
        prefix[pos * w..pos * w + dims].copy_from_slice(&acc_lo);
        prefix[pos * w + dims..(pos + 1) * w].copy_from_slice(&acc_hi);
    }
    let mut suffix = vec![0.0; n * w];
    acc_lo.copy_from_slice(entries[order[n - 1]].rect().lo());
    acc_hi.copy_from_slice(entries[order[n - 1]].rect().hi());
    suffix[(n - 1) * w..(n - 1) * w + dims].copy_from_slice(&acc_lo);
    suffix[(n - 1) * w + dims..n * w].copy_from_slice(&acc_hi);
    for pos in (0..n - 1).rev() {
        let r = entries[order[pos]].rect();
        for d in 0..dims {
            if r.lo()[d] < acc_lo[d] {
                acc_lo[d] = r.lo()[d];
            }
            if r.hi()[d] > acc_hi[d] {
                acc_hi[d] = r.hi()[d];
            }
        }
        suffix[pos * w..pos * w + dims].copy_from_slice(&acc_lo);
        suffix[pos * w + dims..(pos + 1) * w].copy_from_slice(&acc_hi);
    }
    (prefix, suffix)
}

/// Read-only handle to a tree node, used by traversal-based algorithms
/// (best-first k-NN in [`crate::knn`]).
pub struct NodeRef<'a, T> {
    tree: &'a RStarTree<T>,
    id: u32,
}

/// One child of a [`NodeRef`]: either a stored item or a subtree with its
/// bounding rectangle.
pub enum ChildRef<'a, T> {
    /// A data item at the leaf level.
    Item(&'a Rect, &'a T),
    /// An internal child with its MBR.
    Node(&'a Rect, NodeRef<'a, T>),
}

impl<'a, T> NodeRef<'a, T> {
    /// Iterates the node's children.
    pub fn children(&self) -> impl Iterator<Item = ChildRef<'a, T>> + 'a {
        let tree = self.tree;
        let node = &tree.nodes[self.id as usize];
        node.rects.iter().enumerate().map(move |(i, rect)| {
            if node.level == 0 {
                ChildRef::Item(rect, &node.values[i])
            } else {
                ChildRef::Node(rect, NodeRef { tree, id: node.children[i] })
            }
        })
    }

    /// Level of this node (0 = leaf).
    pub fn level(&self) -> usize {
        self.tree.nodes[self.id as usize].level
    }
}

impl<T> RStarTree<T> {
    /// Read-only handle to the root node.
    pub fn root_ref(&self) -> NodeRef<'_, T> {
        NodeRef { tree: self, id: self.root }
    }
}

/// Depth-first iterator over the items of an [`RStarTree`].
pub struct Iter<'a, T> {
    tree: &'a RStarTree<T>,
    /// (node id, next entry index) frames.
    stack: Vec<(u32, usize)>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (&'a Rect, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        let tree = self.tree;
        loop {
            let (id, idx) = self.stack.last_mut()?;
            let node = &tree.nodes[*id as usize];
            if *idx >= node.count() {
                self.stack.pop();
                continue;
            }
            let i = *idx;
            *idx += 1;
            if node.level == 0 {
                return Some((&node.rects[i], &node.values[i]));
            }
            self.stack.push((node.children[i], 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random f64 in [0, 1) via splitmix64.
    fn rng(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn random_rect(seed: &mut u64, dims: usize) -> Rect {
        let lo: Vec<f64> = (0..dims).map(|_| rng(seed) * 100.0).collect();
        let hi: Vec<f64> = lo.iter().map(|l| l + rng(seed) * 5.0).collect();
        Rect::new(lo, hi)
    }

    #[test]
    fn empty_tree() {
        let tree: RStarTree<u32> = RStarTree::new(3);
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        assert!(tree.bounding_rect().is_none());
        assert!(tree.validate().is_ok());
        assert_eq!(tree.collect_intersecting(&Rect::point(&[0.0, 0.0, 0.0])).len(), 0);
    }

    #[test]
    fn insert_and_query_small() {
        let mut tree = RStarTree::new(2);
        tree.insert(Rect::point(&[1.0, 1.0]), "a");
        tree.insert(Rect::point(&[5.0, 5.0]), "b");
        tree.insert(Rect::new(vec![0.0, 0.0], vec![2.0, 2.0]), "c");
        assert_eq!(tree.len(), 3);
        let hits = tree.collect_intersecting(&Rect::new(vec![0.5, 0.5], vec![1.5, 1.5]));
        let mut vals: Vec<&str> = hits.iter().map(|(_, v)| **v).collect();
        vals.sort_unstable();
        assert_eq!(vals, vec!["a", "c"]);
    }

    /// The borrowed-corner search visits exactly what the `Rect` search
    /// visits, in the same order, and keeps `Rect::new`'s checks.
    #[test]
    fn search_intersecting_box_matches_rect_search() {
        let mut tree = RStarTree::with_params(2, Params::new(8));
        let mut seed = 7;
        for i in 0..300u32 {
            tree.insert(random_rect(&mut seed, 2), i);
        }
        for _ in 0..20 {
            let q = random_rect(&mut seed, 2);
            let mut by_rect = Vec::new();
            tree.search_intersecting(&q, |_, &v| by_rect.push(v));
            let mut by_box = Vec::new();
            tree.search_intersecting_box(q.lo(), q.hi(), |_, &v| by_box.push(v));
            assert_eq!(by_rect, by_box);
        }
    }

    #[test]
    #[should_panic(expected = "inverted rectangle")]
    fn search_intersecting_box_rejects_inverted_corners() {
        let tree: RStarTree<u32> = RStarTree::new(2);
        tree.search_intersecting_box(&[1.0, 0.0], &[0.0, 1.0], |_, _| {});
    }

    #[test]
    #[should_panic(expected = "query dimensionality mismatch")]
    fn search_intersecting_box_rejects_wrong_dims() {
        let tree: RStarTree<u32> = RStarTree::new(2);
        tree.search_intersecting_box(&[0.0], &[1.0], |_, _| {});
    }

    #[test]
    fn grows_and_validates_with_many_inserts() {
        let mut tree = RStarTree::with_params(2, Params::new(8));
        let mut seed = 42;
        for i in 0..500 {
            tree.insert(random_rect(&mut seed, 2), i);
        }
        assert_eq!(tree.len(), 500);
        assert!(tree.height() > 2);
        tree.validate().expect("valid after inserts");
    }

    #[test]
    fn query_matches_linear_scan() {
        let mut tree = RStarTree::with_params(3, Params::new(10));
        let mut seed = 7;
        let mut items = Vec::new();
        for i in 0..300 {
            let r = random_rect(&mut seed, 3);
            items.push((r.clone(), i));
            tree.insert(r, i);
        }
        for _ in 0..20 {
            let q = random_rect(&mut seed, 3);
            let mut expect: Vec<i32> =
                items.iter().filter(|(r, _)| r.intersects(&q)).map(|&(_, v)| v).collect();
            expect.sort_unstable();
            let mut got: Vec<i32> =
                tree.collect_intersecting(&q).iter().map(|&(_, v)| *v).collect();
            got.sort_unstable();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn within_query_matches_linear_scan() {
        let mut tree = RStarTree::with_params(2, Params::new(8));
        let mut seed = 99;
        let mut items = Vec::new();
        for i in 0..200 {
            let r = random_rect(&mut seed, 2);
            items.push((r.clone(), i));
            tree.insert(r, i);
        }
        for _ in 0..10 {
            let p = [rng(&mut seed) * 100.0, rng(&mut seed) * 100.0];
            let radius = rng(&mut seed) * 20.0;
            let mut expect: Vec<i32> = items
                .iter()
                .filter(|(r, _)| r.min_dist_point(&p) <= radius)
                .map(|&(_, v)| v)
                .collect();
            expect.sort_unstable();
            let mut got: Vec<i32> =
                tree.collect_within(&p, radius).iter().map(|&(_, v)| *v).collect();
            got.sort_unstable();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn remove_then_queries_shrink() {
        let mut tree = RStarTree::with_params(2, Params::new(6));
        let mut seed = 5;
        let mut items = Vec::new();
        for i in 0..200 {
            let r = random_rect(&mut seed, 2);
            items.push((r.clone(), i));
            tree.insert(r, i);
        }
        // Remove every other item.
        for (r, v) in items.iter().step_by(2) {
            assert!(tree.remove(r, v), "item {v} should be removable");
        }
        assert_eq!(tree.len(), 100);
        tree.validate().expect("valid after removals");
        // Removed items are gone; kept items remain.
        for (i, (r, v)) in items.iter().enumerate() {
            let found = tree.collect_intersecting(r).iter().any(|&(_, got)| got == v);
            assert_eq!(found, i % 2 == 1, "item {v}");
        }
    }

    #[test]
    fn remove_everything_empties_tree() {
        let mut tree = RStarTree::with_params(2, Params::new(4));
        let mut seed = 11;
        let mut items = Vec::new();
        for i in 0..80 {
            let r = random_rect(&mut seed, 2);
            items.push((r.clone(), i));
            tree.insert(r, i);
        }
        for (r, v) in &items {
            assert!(tree.remove(r, v));
        }
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        tree.validate().expect("valid when emptied");
    }

    #[test]
    fn remove_missing_returns_false() {
        let mut tree = RStarTree::new(2);
        tree.insert(Rect::point(&[1.0, 1.0]), 1);
        assert!(!tree.remove(&Rect::point(&[2.0, 2.0]), &1));
        assert!(!tree.remove(&Rect::point(&[1.0, 1.0]), &2));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn duplicate_rect_distinct_values() {
        let mut tree = RStarTree::new(2);
        let r = Rect::point(&[3.0, 3.0]);
        tree.insert(r.clone(), 1);
        tree.insert(r.clone(), 2);
        assert!(tree.remove(&r, &1));
        let hits = tree.collect_intersecting(&r);
        assert_eq!(hits.len(), 1);
        assert_eq!(*hits[0].1, 2);
    }

    #[test]
    fn iter_visits_everything_once() {
        let mut tree = RStarTree::with_params(2, Params::new(5));
        let mut seed = 3;
        for i in 0..137 {
            tree.insert(random_rect(&mut seed, 2), i);
        }
        let mut seen: Vec<i32> = tree.iter().map(|(_, &v)| v).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..137).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_insert_remove_stays_valid() {
        let mut tree = RStarTree::with_params(2, Params::new(8));
        let mut seed = 21;
        let mut live: Vec<(Rect, i32)> = Vec::new();
        for round in 0..40 {
            for i in 0..20 {
                let r = random_rect(&mut seed, 2);
                let v = round * 100 + i;
                live.push((r.clone(), v));
                tree.insert(r, v);
            }
            // Remove ~half, oldest first (the Stardust retirement pattern).
            for _ in 0..10 {
                let (r, v) = live.remove(0);
                assert!(tree.remove(&r, &v));
            }
            tree.validate().unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
        assert_eq!(tree.len(), live.len());
    }

    /// Steady-state churn recycles node slots through the free-list
    /// instead of growing the arena without bound.
    #[test]
    fn arena_reuses_released_nodes() {
        let mut tree = RStarTree::with_params(2, Params::new(4));
        let mut seed = 57;
        let mut live: Vec<(Rect, i32)> = Vec::new();
        // Warm up to a steady population.
        for i in 0..200 {
            let r = random_rect(&mut seed, 2);
            live.push((r.clone(), i));
            tree.insert(r, i);
        }
        let warm_slots = tree.nodes.len();
        // Churn many times the warm population through the tree.
        for i in 200..2200 {
            let r = random_rect(&mut seed, 2);
            live.push((r.clone(), i));
            tree.insert(r, i);
            let (old_r, old_v) = live.remove(0);
            assert!(tree.remove(&old_r, &old_v));
        }
        tree.validate().expect("valid after churn");
        assert_eq!(tree.len(), 200);
        // The arena may grow a little past the warm size (population shape
        // shifts), but nothing like the thousands of nodes churned through.
        assert!(
            tree.nodes.len() < warm_slots * 3,
            "arena grew from {warm_slots} to {} slots over churn",
            tree.nodes.len()
        );
    }

    #[test]
    fn high_dimensional_inserts() {
        let mut tree = RStarTree::with_params(16, Params::new(12));
        let mut seed = 77;
        for i in 0..300 {
            tree.insert(random_rect(&mut seed, 16), i);
        }
        tree.validate().expect("valid in 16 dims");
        // Query the full space returns everything.
        let everything = tree.collect_intersecting(&Rect::new(vec![-1e9; 16], vec![1e9; 16])).len();
        assert_eq!(everything, 300);
    }

    #[test]
    fn take_returns_the_value() {
        let mut tree = RStarTree::new(2);
        tree.insert(Rect::point(&[1.0, 2.0]), "payload".to_string());
        assert_eq!(tree.take(&Rect::point(&[9.0, 9.0]), &"payload".to_string()), None);
        assert_eq!(
            tree.take(&Rect::point(&[1.0, 2.0]), &"payload".to_string()),
            Some("payload".to_string())
        );
        assert!(tree.is_empty());
    }

    #[test]
    fn update_in_place_small_move() {
        let mut tree = RStarTree::with_params(2, Params::new(8));
        let mut seed = 42;
        let mut rects = Vec::new();
        for i in 0..120 {
            let r = random_rect(&mut seed, 2);
            rects.push(r.clone());
            tree.insert(r, i);
        }
        // Nudge every item slightly (typical streaming feature drift).
        for (i, r) in rects.iter_mut().enumerate() {
            let lo: Vec<f64> = r.lo().iter().map(|v| v + 0.01).collect();
            let hi: Vec<f64> = r.hi().iter().map(|v| v + 0.01).collect();
            let moved = Rect::new(lo, hi);
            assert!(tree.update(r, &(i as i32), moved.clone()), "item {i}");
            *r = moved;
        }
        assert_eq!(tree.len(), 120);
        tree.validate().expect("valid after in-place updates");
        for (i, r) in rects.iter().enumerate() {
            assert!(
                tree.collect_intersecting(r).iter().any(|&(_, v)| *v == i as i32),
                "item {i} findable at its new position"
            );
        }
    }

    #[test]
    fn update_falls_back_to_reinsert_on_big_move() {
        let mut tree = RStarTree::with_params(2, Params::new(6));
        let mut seed = 3;
        for i in 0..80 {
            tree.insert(random_rect(&mut seed, 2), i);
        }
        let target = Rect::point(&[5.0, 5.0]);
        tree.insert(target.clone(), 999);
        let far = Rect::point(&[1e4, 1e4]);
        assert!(tree.update(&target, &999, far.clone()));
        tree.validate().expect("valid after relocating update");
        assert!(tree.collect_intersecting(&far).iter().any(|&(_, v)| *v == 999));
        assert!(!tree.collect_intersecting(&target).iter().any(|&(_, v)| *v == 999));
        assert_eq!(tree.len(), 81);
    }

    #[test]
    fn update_missing_item_is_false() {
        let mut tree = RStarTree::new(2);
        tree.insert(Rect::point(&[0.0, 0.0]), 1);
        assert!(!tree.update(&Rect::point(&[1.0, 1.0]), &1, Rect::point(&[2.0, 2.0])));
        assert!(!tree.update(&Rect::point(&[0.0, 0.0]), &2, Rect::point(&[2.0, 2.0])));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn params_defaults_follow_paper() {
        let p = Params::new(32);
        assert_eq!(p.min_entries, 12); // 40%
        assert_eq!(p.reinsert_count, 9); // 30%
    }

    #[test]
    fn counters_track_operations() {
        let mut tree = RStarTree::with_params(2, Params::new(4));
        let mut seed = 13;
        let mut items = Vec::new();
        for i in 0..200 {
            let r = random_rect(&mut seed, 2);
            items.push((r.clone(), i));
            tree.insert(r, i);
        }
        let c = tree.counters();
        assert_eq!(c.inserts, 200);
        assert_eq!(c.removes, 0);
        // Capacity 4 with 200 items must have split and reinserted.
        assert!(c.splits > 0, "expected splits, got {c:?}");
        assert!(c.reinserted_entries > 0, "expected reinsertions, got {c:?}");
        assert_eq!(c.node_visits, 0, "no searches yet");

        let before = tree.counters();
        tree.collect_intersecting(&Rect::new(vec![0.0, 0.0], vec![50.0, 50.0]));
        let after = tree.counters();
        assert!(after.node_visits > before.node_visits, "search visits nodes");
        // Searches never mutate structure.
        assert_eq!(after.inserts, before.inserts);
        assert_eq!(after.splits, before.splits);

        for (r, v) in &items {
            assert!(tree.remove(r, v));
        }
        assert_eq!(tree.counters().removes, 200);

        let drained = tree.reset_counters();
        assert_eq!(drained.removes, 200);
        assert_eq!(tree.counters(), TreeCounters::default());
    }

    #[test]
    fn counters_merge_fieldwise() {
        let a = TreeCounters {
            inserts: 1,
            removes: 2,
            splits: 3,
            reinserted_entries: 4,
            node_visits: 5,
        };
        let b = TreeCounters {
            inserts: 10,
            removes: 20,
            splits: 30,
            reinserted_entries: 40,
            node_visits: 50,
        };
        let m = a.merged(b);
        assert_eq!(
            m,
            TreeCounters {
                inserts: 11,
                removes: 22,
                splits: 33,
                reinserted_entries: 44,
                node_visits: 55,
            }
        );
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dims_rejected() {
        let mut tree = RStarTree::new(2);
        tree.insert(Rect::point(&[1.0, 2.0, 3.0]), 0);
    }

    /// The parallel range queries must return the serial result exactly —
    /// same items, same order — at every thread count, including counts
    /// exceeding the number of intersecting subtrees.
    #[test]
    fn par_queries_match_serial() {
        let mut seed = 7u64;
        let mut rng = move || {
            seed = seed.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z >> 11) as f64 / (1u64 << 53) as f64
        };
        for dims in [2usize, 8] {
            let mut tree = RStarTree::new(dims);
            for i in 0..600u64 {
                let lo: Vec<f64> = (0..dims).map(|_| rng() * 100.0).collect();
                let hi: Vec<f64> = lo.iter().map(|l| l + rng() * 3.0).collect();
                tree.insert(Rect::new(lo, hi), i);
            }
            let q = Rect::new(vec![20.0; dims], vec![70.0; dims]);
            let serial = tree.collect_intersecting(&q);
            let point = vec![50.0; dims];
            let serial_within = tree.collect_within(&point, 25.0);
            assert!(!serial.is_empty(), "query should hit something");
            for threads in [1usize, 2, 3, 4, 64] {
                assert_eq!(tree.par_collect_intersecting(&q, threads), serial, "t={threads}");
                assert_eq!(tree.par_collect_within(&point, 25.0, threads), serial_within);
            }
        }
    }
}
