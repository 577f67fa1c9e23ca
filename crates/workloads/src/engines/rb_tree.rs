//! Red-Black Tree microbenchmark: "data structure lookups with pointer
//! chasing behavior" (§V-A).
//!
//! A genuine arena-backed red-black tree is built by inserting the whole
//! key population in shuffled order (so the shape matches an
//! insertion-built production tree, not a perfectly balanced one). Each
//! node carries a simulated address; lookups descend from the root and
//! emit one read per visited node — the worst kind of dependent-load
//! chain for a DRAM cache.

use astriflash_sim::SimRng;

use crate::address_space::{AddressSpace, SimAlloc, PAGE_SIZE};
use crate::engines::touch_record;
use crate::job::{JobBuf, MemoryAccess, WorkloadEngine};
use crate::kind::WorkloadParams;
use crate::popularity::KeyChooser;

const NODE_BYTES: u64 = 64;
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Color {
    Red,
    Black,
}

#[derive(Debug, Clone)]
struct Node {
    key: u64,
    left: u32,
    right: u32,
    parent: u32,
    color: Color,
    addr: u64,
    record_addr: u64,
}

/// An arena-backed red-black tree with simulated node addresses.
#[derive(Debug)]
pub struct RbArena {
    nodes: Vec<Node>,
    root: u32,
    /// Slots of deleted nodes, reused by later inserts.
    free: Vec<u32>,
    len: usize,
}

impl RbArena {
    /// Creates an empty tree.
    pub fn new() -> Self {
        RbArena {
            nodes: Vec::new(),
            root: NIL,
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn color(&self, n: u32) -> Color {
        if n == NIL {
            Color::Black
        } else {
            self.nodes[n as usize].color
        }
    }

    fn rotate_left(&mut self, x: u32) {
        let y = self.nodes[x as usize].right;
        debug_assert_ne!(y, NIL);
        let y_left = self.nodes[y as usize].left;
        self.nodes[x as usize].right = y_left;
        if y_left != NIL {
            self.nodes[y_left as usize].parent = x;
        }
        let x_parent = self.nodes[x as usize].parent;
        self.nodes[y as usize].parent = x_parent;
        if x_parent == NIL {
            self.root = y;
        } else if self.nodes[x_parent as usize].left == x {
            self.nodes[x_parent as usize].left = y;
        } else {
            self.nodes[x_parent as usize].right = y;
        }
        self.nodes[y as usize].left = x;
        self.nodes[x as usize].parent = y;
    }

    fn rotate_right(&mut self, x: u32) {
        let y = self.nodes[x as usize].left;
        debug_assert_ne!(y, NIL);
        let y_right = self.nodes[y as usize].right;
        self.nodes[x as usize].left = y_right;
        if y_right != NIL {
            self.nodes[y_right as usize].parent = x;
        }
        let x_parent = self.nodes[x as usize].parent;
        self.nodes[y as usize].parent = x_parent;
        if x_parent == NIL {
            self.root = y;
        } else if self.nodes[x_parent as usize].right == x {
            self.nodes[x_parent as usize].right = y;
        } else {
            self.nodes[x_parent as usize].left = y;
        }
        self.nodes[y as usize].right = x;
        self.nodes[x as usize].parent = y;
    }

    /// Inserts `key`; duplicate keys are rejected (returns `false`).
    pub fn insert(&mut self, key: u64, addr: u64, record_addr: u64) -> bool {
        // Standard BST descent.
        let mut parent = NIL;
        let mut cur = self.root;
        while cur != NIL {
            parent = cur;
            let ck = self.nodes[cur as usize].key;
            if key == ck {
                return false;
            }
            cur = if key < ck {
                self.nodes[cur as usize].left
            } else {
                self.nodes[cur as usize].right
            };
        }
        let node = Node {
            key,
            left: NIL,
            right: NIL,
            parent,
            color: Color::Red,
            addr,
            record_addr,
        };
        let idx = if let Some(slot) = self.free.pop() {
            self.nodes[slot as usize] = node;
            slot
        } else {
            self.nodes.push(node);
            self.nodes.len() as u32 - 1
        };
        self.len += 1;
        if parent == NIL {
            self.root = idx;
        } else if key < self.nodes[parent as usize].key {
            self.nodes[parent as usize].left = idx;
        } else {
            self.nodes[parent as usize].right = idx;
        }
        self.insert_fixup(idx);
        true
    }

    fn insert_fixup(&mut self, mut z: u32) {
        while self.color(self.nodes[z as usize].parent) == Color::Red {
            let p = self.nodes[z as usize].parent;
            let g = self.nodes[p as usize].parent;
            debug_assert_ne!(g, NIL, "red root parent implies grandparent");
            if p == self.nodes[g as usize].left {
                let uncle = self.nodes[g as usize].right;
                if self.color(uncle) == Color::Red {
                    self.nodes[p as usize].color = Color::Black;
                    self.nodes[uncle as usize].color = Color::Black;
                    self.nodes[g as usize].color = Color::Red;
                    z = g;
                } else {
                    if z == self.nodes[p as usize].right {
                        z = p;
                        self.rotate_left(z);
                    }
                    let p = self.nodes[z as usize].parent;
                    let g = self.nodes[p as usize].parent;
                    self.nodes[p as usize].color = Color::Black;
                    self.nodes[g as usize].color = Color::Red;
                    self.rotate_right(g);
                }
            } else {
                let uncle = self.nodes[g as usize].left;
                if self.color(uncle) == Color::Red {
                    self.nodes[p as usize].color = Color::Black;
                    self.nodes[uncle as usize].color = Color::Black;
                    self.nodes[g as usize].color = Color::Red;
                    z = g;
                } else {
                    if z == self.nodes[p as usize].left {
                        z = p;
                        self.rotate_right(z);
                    }
                    let p = self.nodes[z as usize].parent;
                    let g = self.nodes[p as usize].parent;
                    self.nodes[p as usize].color = Color::Black;
                    self.nodes[g as usize].color = Color::Red;
                    self.rotate_left(g);
                }
            }
        }
        let root = self.root;
        self.nodes[root as usize].color = Color::Black;
    }

    /// Removes `key` from the tree; returns its record address, or
    /// `None` if absent. Classic CLRS deletion with an explicit-parent
    /// adaptation for the arena's `NIL` sentinel.
    pub fn delete(&mut self, key: u64) -> Option<u64> {
        // Find the node.
        let mut z = self.root;
        while z != NIL {
            let k = self.nodes[z as usize].key;
            if key == k {
                break;
            }
            z = if key < k {
                self.nodes[z as usize].left
            } else {
                self.nodes[z as usize].right
            };
        }
        if z == NIL {
            return None;
        }
        let record = self.nodes[z as usize].record_addr;

        // y: the node actually spliced out; x: the child that replaces
        // it (may be NIL, with parent tracked explicitly).
        let mut y = z;
        let mut y_original_color = self.nodes[y as usize].color;
        let x;
        let x_parent;
        if self.nodes[z as usize].left == NIL {
            x = self.nodes[z as usize].right;
            x_parent = self.nodes[z as usize].parent;
            self.transplant(z, x);
        } else if self.nodes[z as usize].right == NIL {
            x = self.nodes[z as usize].left;
            x_parent = self.nodes[z as usize].parent;
            self.transplant(z, x);
        } else {
            // Successor: minimum of z's right subtree.
            y = self.nodes[z as usize].right;
            while self.nodes[y as usize].left != NIL {
                y = self.nodes[y as usize].left;
            }
            y_original_color = self.nodes[y as usize].color;
            x = self.nodes[y as usize].right;
            if self.nodes[y as usize].parent == z {
                x_parent = y;
            } else {
                x_parent = self.nodes[y as usize].parent;
                self.transplant(y, x);
                let zr = self.nodes[z as usize].right;
                self.nodes[y as usize].right = zr;
                self.nodes[zr as usize].parent = y;
            }
            self.transplant(z, y);
            let zl = self.nodes[z as usize].left;
            self.nodes[y as usize].left = zl;
            self.nodes[zl as usize].parent = y;
            self.nodes[y as usize].color = self.nodes[z as usize].color;
        }
        if y_original_color == Color::Black {
            self.delete_fixup(x, x_parent);
        }
        self.free.push(z);
        self.len -= 1;
        Some(record)
    }

    /// Replaces the subtree rooted at `u` with the one rooted at `v`
    /// (`v` may be NIL).
    fn transplant(&mut self, u: u32, v: u32) {
        let p = self.nodes[u as usize].parent;
        if p == NIL {
            self.root = v;
        } else if self.nodes[p as usize].left == u {
            self.nodes[p as usize].left = v;
        } else {
            self.nodes[p as usize].right = v;
        }
        if v != NIL {
            self.nodes[v as usize].parent = p;
        }
    }

    /// Restores the red-black invariants after removing a black node;
    /// `x` is the doubly-black node (possibly NIL) and `parent` its
    /// position's parent.
    fn delete_fixup(&mut self, mut x: u32, mut parent: u32) {
        while x != self.root && self.color(x) == Color::Black {
            if parent == NIL {
                break;
            }
            if x == self.nodes[parent as usize].left {
                let mut w = self.nodes[parent as usize].right;
                if self.color(w) == Color::Red {
                    self.nodes[w as usize].color = Color::Black;
                    self.nodes[parent as usize].color = Color::Red;
                    self.rotate_left(parent);
                    w = self.nodes[parent as usize].right;
                }
                if self.color(self.nodes[w as usize].left) == Color::Black
                    && self.color(self.nodes[w as usize].right) == Color::Black
                {
                    self.nodes[w as usize].color = Color::Red;
                    x = parent;
                    parent = self.nodes[x as usize].parent;
                } else {
                    if self.color(self.nodes[w as usize].right) == Color::Black {
                        let wl = self.nodes[w as usize].left;
                        if wl != NIL {
                            self.nodes[wl as usize].color = Color::Black;
                        }
                        self.nodes[w as usize].color = Color::Red;
                        self.rotate_right(w);
                        w = self.nodes[parent as usize].right;
                    }
                    self.nodes[w as usize].color = self.nodes[parent as usize].color;
                    self.nodes[parent as usize].color = Color::Black;
                    let wr = self.nodes[w as usize].right;
                    if wr != NIL {
                        self.nodes[wr as usize].color = Color::Black;
                    }
                    self.rotate_left(parent);
                    x = self.root;
                    break;
                }
            } else {
                let mut w = self.nodes[parent as usize].left;
                if self.color(w) == Color::Red {
                    self.nodes[w as usize].color = Color::Black;
                    self.nodes[parent as usize].color = Color::Red;
                    self.rotate_right(parent);
                    w = self.nodes[parent as usize].left;
                }
                if self.color(self.nodes[w as usize].left) == Color::Black
                    && self.color(self.nodes[w as usize].right) == Color::Black
                {
                    self.nodes[w as usize].color = Color::Red;
                    x = parent;
                    parent = self.nodes[x as usize].parent;
                } else {
                    if self.color(self.nodes[w as usize].left) == Color::Black {
                        let wr = self.nodes[w as usize].right;
                        if wr != NIL {
                            self.nodes[wr as usize].color = Color::Black;
                        }
                        self.nodes[w as usize].color = Color::Red;
                        self.rotate_left(w);
                        w = self.nodes[parent as usize].left;
                    }
                    self.nodes[w as usize].color = self.nodes[parent as usize].color;
                    self.nodes[parent as usize].color = Color::Black;
                    let wl = self.nodes[w as usize].left;
                    if wl != NIL {
                        self.nodes[wl as usize].color = Color::Black;
                    }
                    self.rotate_right(parent);
                    x = self.root;
                    break;
                }
            }
        }
        if x != NIL {
            self.nodes[x as usize].color = Color::Black;
        }
    }

    /// Descends to `key`, pushing one read per visited node. Returns the
    /// record address if found.
    pub fn lookup_trace(&self, key: u64, out: &mut Vec<MemoryAccess>) -> Option<u64> {
        let mut cur = self.root;
        while cur != NIL {
            let node = &self.nodes[cur as usize];
            out.push(MemoryAccess::read(node.addr));
            if key == node.key {
                return Some(node.record_addr);
            }
            cur = if key < node.key { node.left } else { node.right };
        }
        None
    }

    /// Tree height (longest root-to-leaf path, in nodes).
    pub fn height(&self) -> usize {
        fn depth(arena: &RbArena, n: u32) -> usize {
            if n == NIL {
                0
            } else {
                1 + depth(arena, arena.nodes[n as usize].left)
                    .max(depth(arena, arena.nodes[n as usize].right))
            }
        }
        depth(self, self.root)
    }

    /// Validates the red-black invariants; returns the black height.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn validate(&self) -> usize {
        fn walk(arena: &RbArena, n: u32, lo: Option<u64>, hi: Option<u64>) -> usize {
            if n == NIL {
                return 1; // NIL leaves are black
            }
            let node = &arena.nodes[n as usize];
            if let Some(lo) = lo {
                assert!(node.key > lo, "BST order violated at key {}", node.key);
            }
            if let Some(hi) = hi {
                assert!(node.key < hi, "BST order violated at key {}", node.key);
            }
            if node.color == Color::Red {
                assert_eq!(
                    arena.color(node.left),
                    Color::Black,
                    "red node {} has red left child",
                    node.key
                );
                assert_eq!(
                    arena.color(node.right),
                    Color::Black,
                    "red node {} has red right child",
                    node.key
                );
            }
            let bl = walk(arena, node.left, lo, Some(node.key));
            let br = walk(arena, node.right, Some(node.key), hi);
            assert_eq!(bl, br, "black height mismatch under key {}", node.key);
            bl + usize::from(node.color == Color::Black)
        }
        if self.root == NIL {
            return 1;
        }
        assert_eq!(self.color(self.root), Color::Black, "root must be black");
        walk(self, self.root, None, None)
    }
}

impl Default for RbArena {
    fn default() -> Self {
        Self::new()
    }
}

/// The Red-Black Tree workload engine.
#[derive(Debug)]
pub struct RbTree {
    arena: RbArena,
    chooser: KeyChooser,
    compute_ns: u64,
    lookups_per_job: usize,
    write_fraction: f64,
    /// Fraction of operations that delete + reinsert their key,
    /// exercising rebalancing under load.
    churn_fraction: f64,
    node_base: u64,
    record_base: u64,
    record_bytes: u64,
    n: u64,
}

impl RbTree {
    /// Builds the tree by inserting all keys in shuffled order.
    ///
    /// Nodes and records live in key-indexed regions (node of key `k` at
    /// `node_base + k*64`), the layout a key-partitioned memory pool
    /// produces: in-order-adjacent keys — which share the tail of every
    /// descent path — share pages, giving the index the spatial locality
    /// the paper's page-granularity cache exploits (§II-A).
    pub fn new(params: &WorkloadParams, seed: u64) -> Self {
        let n = params.num_records();
        let space = AddressSpace::new(params.dataset_bytes);
        let mut alloc = SimAlloc::sequential(space);
        let node_base = alloc.alloc(n * NODE_BYTES);
        let record_base = alloc.alloc(n * params.record_bytes);
        let mut rng = SimRng::new(seed);

        let mut keys: Vec<u64> = (0..n).collect();
        rng.shuffle(&mut keys);

        let mut arena = RbArena::new();
        for key in keys {
            let node_addr = node_base + key * NODE_BYTES;
            let record_addr = record_base + key * params.record_bytes;
            let inserted = arena.insert(key, node_addr, record_addr);
            debug_assert!(inserted);
        }

        RbTree {
            arena,
            chooser: KeyChooser::new(
                n,
                params.zipf_theta,
                (PAGE_SIZE / params.record_bytes).max(1),
                params.effective_reuse(0.5), // deep descents are cold-heavy
            ),
            compute_ns: params.compute_ns_per_op,
            lookups_per_job: 6,
            write_fraction: 0.05,
            churn_fraction: 0.02,
            node_base,
            record_base,
            record_bytes: params.record_bytes,
            n,
        }
    }

    /// The underlying tree (exposed for invariant tests).
    pub fn arena(&self) -> &RbArena {
        &self.arena
    }
}

impl WorkloadEngine for RbTree {
    fn fill_job(&mut self, buf: &mut JobBuf, rng: &mut SimRng) {
        buf.clear();
        for _ in 0..self.lookups_per_job {
            let key = self.chooser.next(rng) % self.n;
            let start = buf.mark();
            if rng.gen_bool(self.churn_fraction) {
                // Index churn: delete the key and reinsert it. The tree
                // genuinely rebalances; the trace is the descent (reads)
                // plus stores to the rewritten path tail and the record.
                let record = self
                    .arena
                    .lookup_trace(key, buf.accesses_mut())
                    .expect("all keys resident");
                self.arena.delete(key);
                self.arena.insert(
                    key,
                    self.node_base + key * NODE_BYTES,
                    self.record_base + key * self.record_bytes,
                );
                // Rewritten path tail: the last (up to) three nodes of
                // *this op's* descent — bounded by `start` so the shared
                // slab never bleeds into an earlier op's accesses.
                let descent = &buf.accesses()[start as usize..];
                let m = descent.len().min(3);
                let mut rewritten = [0u64; 3];
                for (dst, a) in rewritten.iter_mut().zip(descent.iter().rev()) {
                    *dst = a.addr;
                }
                for &addr in &rewritten[..m] {
                    buf.push(MemoryAccess::write(addr));
                }
                buf.push(MemoryAccess::write(record));
            } else {
                let write = rng.gen_bool(self.write_fraction);
                let record = self
                    .arena
                    .lookup_trace(key, buf.accesses_mut())
                    .expect("all keys were inserted");
                touch_record(buf.accesses_mut(), record, 2, write);
            }
            buf.finish_op(self.compute_ns, start);
        }
    }

    fn name(&self) -> &'static str {
        "RBT"
    }

    fn threads_per_core_hint(&self) -> usize {
        48
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_tree_maintains_invariants() {
        let mut arena = RbArena::new();
        for key in [50u64, 20, 70, 10, 30, 60, 80, 25, 27, 26] {
            assert!(arena.insert(key, key * 64, key * 1024));
            arena.validate();
        }
        assert_eq!(arena.len(), 10);
        assert!(!arena.insert(50, 0, 0), "duplicate must be rejected");
    }

    #[test]
    fn sequential_insert_stays_balanced() {
        let mut arena = RbArena::new();
        for key in 0..4096u64 {
            arena.insert(key, key * 64, key * 1024);
        }
        arena.validate();
        let h = arena.height();
        // RB trees guarantee height <= 2*log2(n+1) = 24 for n = 4096.
        assert!(h <= 24, "height {h} too large");
    }

    #[test]
    fn delete_leaf_and_internal_nodes() {
        let mut arena = RbArena::new();
        for key in [50u64, 20, 70, 10, 30, 60, 80, 25, 27, 26] {
            arena.insert(key, key * 64, key * 1024);
        }
        // Leaf delete.
        assert_eq!(arena.delete(10), Some(10 * 1024));
        arena.validate();
        // Two-children delete (internal).
        assert_eq!(arena.delete(50), Some(50 * 1024));
        arena.validate();
        assert_eq!(arena.len(), 8);
        // Deleted keys are gone; the rest survive.
        let mut trace = Vec::new();
        assert_eq!(arena.lookup_trace(50, &mut trace), None);
        assert_eq!(arena.lookup_trace(27, &mut trace), Some(27 * 1024));
        // Double delete is a no-op.
        assert_eq!(arena.delete(50), None);
    }

    #[test]
    fn delete_everything_then_reinsert() {
        let mut arena = RbArena::new();
        for key in 0..512u64 {
            arena.insert(key, key * 64, key);
        }
        for key in (0..512u64).rev() {
            assert_eq!(arena.delete(key), Some(key));
            if key % 64 == 0 {
                arena.validate();
            }
        }
        assert!(arena.is_empty());
        // Freed slots are reused.
        for key in 0..512u64 {
            assert!(arena.insert(key, key * 64, key));
        }
        arena.validate();
        assert_eq!(arena.len(), 512);
    }

    #[test]
    fn interleaved_insert_delete_keeps_invariants() {
        let mut arena = RbArena::new();
        let mut x = 9u64;
        let mut live = std::collections::HashSet::new();
        for round in 0..4_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (x >> 33) % 700;
            if live.contains(&key) {
                assert_eq!(arena.delete(key), Some(key));
                live.remove(&key);
            } else {
                assert!(arena.insert(key, key * 64, key));
                live.insert(key);
            }
            if round % 500 == 0 {
                arena.validate();
            }
        }
        arena.validate();
        assert_eq!(arena.len(), live.len());
        let mut trace = Vec::new();
        for &key in &live {
            trace.clear();
            assert_eq!(arena.lookup_trace(key, &mut trace), Some(key));
        }
    }

    #[test]
    fn lookup_trace_finds_all_keys() {
        let mut arena = RbArena::new();
        for key in [5u64, 3, 8, 1, 4, 7, 9] {
            arena.insert(key, 1000 + key, 2000 + key);
        }
        for key in [5u64, 3, 8, 1, 4, 7, 9] {
            let mut trace = Vec::new();
            let rec = arena.lookup_trace(key, &mut trace);
            assert_eq!(rec, Some(2000 + key));
            assert!(!trace.is_empty());
            // Path length bounded by height.
            assert!(trace.len() <= arena.height());
        }
        let mut trace = Vec::new();
        assert_eq!(arena.lookup_trace(42, &mut trace), None);
    }

    #[test]
    fn engine_jobs_are_pointer_chases() {
        let mut e = RbTree::new(&WorkloadParams::tiny_for_tests(), 13);
        e.arena().validate();
        let mut rng = SimRng::new(14);
        let mut job = JobBuf::new();
        e.fill_job(&mut job, &mut rng);
        // Each lookup should touch at least a few nodes (tree of ~28k keys
        // has height ~15+) plus the record.
        let per_op = job.total_accesses() / job.op_count() as usize;
        assert!(per_op >= 8, "only {per_op} accesses per lookup");
    }

    #[test]
    fn tree_height_logarithmic_at_scale() {
        let e = RbTree::new(&WorkloadParams::tiny_for_tests(), 15);
        let n = e.arena().len() as f64;
        let h = e.arena().height() as f64;
        assert!(h <= 2.1 * n.log2(), "height {h} vs n {n}");
    }
}
