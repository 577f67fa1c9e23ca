//! Arena-backed B+-tree index shared by the Masstree and Silo engines.
//!
//! Masstree is a trie of B+-trees; for 8-byte integer keys it degenerates
//! to a single B+-tree layer, which is what we model. Nodes carry
//! simulated addresses; traversals emit one read per visited node block.

use crate::job::MemoryAccess;

/// Maximum keys per node; split at overflow. 14 keys × (8 B key + 8 B
/// pointer) ≈ 224 B, matching Masstree's cacheline-conscious nodes.
pub const MAX_KEYS: usize = 14;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct BNode {
    keys: Vec<u64>,
    /// Children for internal nodes (`keys.len() + 1` entries), empty for
    /// leaves.
    children: Vec<u32>,
    /// Record addresses for leaves (parallel to `keys`), empty for
    /// internal nodes.
    records: Vec<u64>,
    next_leaf: u32,
    addr: u64,
}

impl BNode {
    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// A B+-tree mapping `u64` keys to simulated record addresses.
///
/// # Example
///
/// ```
/// use astriflash_workloads::engines::btree_index::BPlusTree;
/// let mut t = BPlusTree::new(&mut |_| 0x1000);
/// t.insert(5, 500, &mut |i| 0x2000 + i * 256);
/// let mut trace = Vec::new();
/// assert_eq!(t.lookup_trace(5, &mut trace), Some(500));
/// ```
#[derive(Debug)]
pub struct BPlusTree {
    nodes: Vec<BNode>,
    root: u32,
    len: usize,
    /// Slots of removed nodes, reused by later splits.
    free: Vec<u32>,
}

impl BPlusTree {
    /// Creates an empty tree. `alloc` assigns a simulated address to the
    /// root node (called with the node's ordinal).
    pub fn new(alloc: &mut dyn FnMut(u64) -> u64) -> Self {
        let root = BNode {
            keys: Vec::new(),
            children: Vec::new(),
            records: Vec::new(),
            next_leaf: NIL,
            addr: alloc(0),
        };
        BPlusTree {
            nodes: vec![root],
            root: 0,
            len: 0,
            free: Vec::new(),
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height in node levels (1 for a lone leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut cur = self.root;
        while !self.nodes[cur as usize].is_leaf() {
            cur = self.nodes[cur as usize].children[0];
            h += 1;
        }
        h
    }

    fn new_node(&mut self, addr: u64) -> u32 {
        let node = BNode {
            keys: Vec::new(),
            children: Vec::new(),
            records: Vec::new(),
            next_leaf: NIL,
            addr,
        };
        if let Some(slot) = self.free.pop() {
            self.nodes[slot as usize] = node;
            slot
        } else {
            self.nodes.push(node);
            self.nodes.len() as u32 - 1
        }
    }

    /// Minimum keys per non-root node before rebalancing.
    const MIN_KEYS: usize = MAX_KEYS / 2;

    /// Removes `key`, returning its record address if present. Underfull
    /// nodes borrow from a sibling or merge; the root collapses when it
    /// has a single child.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let removed = self.remove_rec(self.root, key)?;
        self.len -= 1;
        // Shrink the root: an internal root with one child drops a
        // level; an empty leaf root just stays (empty tree).
        let r = self.root;
        if !self.nodes[r as usize].is_leaf() && self.nodes[r as usize].keys.is_empty() {
            let only_child = self.nodes[r as usize].children[0];
            self.free.push(r);
            self.root = only_child;
        }
        Some(removed)
    }

    fn remove_rec(&mut self, node: u32, key: u64) -> Option<u64> {
        if self.nodes[node as usize].is_leaf() {
            let pos = self.nodes[node as usize].keys.binary_search(&key).ok()?;
            let n = &mut self.nodes[node as usize];
            n.keys.remove(pos);
            return Some(n.records.remove(pos));
        }
        let slot = self.nodes[node as usize]
            .keys
            .partition_point(|&k| k <= key);
        let child = self.nodes[node as usize].children[slot];
        let removed = self.remove_rec(child, key)?;
        if self.nodes[child as usize].keys.len() < Self::MIN_KEYS {
            self.fix_underflow(node, slot);
        }
        Some(removed)
    }

    /// Repairs the underfull child at `parent.children[slot]` by
    /// borrowing from a sibling or merging with one.
    fn fix_underflow(&mut self, parent: u32, slot: usize) {
        let child = self.nodes[parent as usize].children[slot];
        // Try the left sibling first, then the right.
        if slot > 0 {
            let left = self.nodes[parent as usize].children[slot - 1];
            if self.nodes[left as usize].keys.len() > Self::MIN_KEYS {
                self.borrow_from_left(parent, slot, left, child);
                return;
            }
        }
        if slot + 1 < self.nodes[parent as usize].children.len() {
            let right = self.nodes[parent as usize].children[slot + 1];
            if self.nodes[right as usize].keys.len() > Self::MIN_KEYS {
                self.borrow_from_right(parent, slot, child, right);
                return;
            }
        }
        // Merge with a sibling (prefer left).
        if slot > 0 {
            let left = self.nodes[parent as usize].children[slot - 1];
            self.merge(parent, slot - 1, left, child);
        } else {
            let right = self.nodes[parent as usize].children[slot + 1];
            self.merge(parent, slot, child, right);
        }
    }

    fn borrow_from_left(&mut self, parent: u32, slot: usize, left: u32, child: u32) {
        if self.nodes[child as usize].is_leaf() {
            let k = self.nodes[left as usize].keys.pop().expect("donor has spares");
            let r = self.nodes[left as usize].records.pop().expect("parallel");
            self.nodes[child as usize].keys.insert(0, k);
            self.nodes[child as usize].records.insert(0, r);
            self.nodes[parent as usize].keys[slot - 1] = k;
        } else {
            // Rotate through the parent separator.
            let sep = self.nodes[parent as usize].keys[slot - 1];
            let k = self.nodes[left as usize].keys.pop().expect("donor has spares");
            let c = self.nodes[left as usize].children.pop().expect("parallel");
            self.nodes[child as usize].keys.insert(0, sep);
            self.nodes[child as usize].children.insert(0, c);
            self.nodes[parent as usize].keys[slot - 1] = k;
        }
    }

    fn borrow_from_right(&mut self, parent: u32, slot: usize, child: u32, right: u32) {
        if self.nodes[child as usize].is_leaf() {
            let k = self.nodes[right as usize].keys.remove(0);
            let r = self.nodes[right as usize].records.remove(0);
            self.nodes[child as usize].keys.push(k);
            self.nodes[child as usize].records.push(r);
            self.nodes[parent as usize].keys[slot] = self.nodes[right as usize].keys[0];
        } else {
            let sep = self.nodes[parent as usize].keys[slot];
            let k = self.nodes[right as usize].keys.remove(0);
            let c = self.nodes[right as usize].children.remove(0);
            self.nodes[child as usize].keys.push(sep);
            self.nodes[child as usize].children.push(c);
            self.nodes[parent as usize].keys[slot] = k;
        }
    }

    /// Merges `right` into `left`; `sep_slot` is the parent key between
    /// them.
    fn merge(&mut self, parent: u32, sep_slot: usize, left: u32, right: u32) {
        let sep = self.nodes[parent as usize].keys.remove(sep_slot);
        self.nodes[parent as usize].children.remove(sep_slot + 1);
        if self.nodes[left as usize].is_leaf() {
            let (mut rk, mut rr, rn) = {
                let r = &mut self.nodes[right as usize];
                (
                    std::mem::take(&mut r.keys),
                    std::mem::take(&mut r.records),
                    r.next_leaf,
                )
            };
            let l = &mut self.nodes[left as usize];
            l.keys.append(&mut rk);
            l.records.append(&mut rr);
            l.next_leaf = rn;
        } else {
            let (mut rk, mut rc) = {
                let r = &mut self.nodes[right as usize];
                (std::mem::take(&mut r.keys), std::mem::take(&mut r.children))
            };
            let l = &mut self.nodes[left as usize];
            l.keys.push(sep);
            l.keys.append(&mut rk);
            l.children.append(&mut rc);
        }
        self.free.push(right);
    }

    /// Inserts `key → record`; replaces the record if the key exists
    /// (returns `false` in that case). `alloc` provides addresses for any
    /// newly created nodes.
    pub fn insert(
        &mut self,
        key: u64,
        record: u64,
        alloc: &mut dyn FnMut(u64) -> u64,
    ) -> bool {
        // Descend, remembering the path for splits.
        let mut path = Vec::new();
        let mut cur = self.root;
        while !self.nodes[cur as usize].is_leaf() {
            let node = &self.nodes[cur as usize];
            let slot = node.keys.partition_point(|&k| k <= key);
            path.push((cur, slot));
            cur = node.children[slot];
        }
        let leaf = &mut self.nodes[cur as usize];
        match leaf.keys.binary_search(&key) {
            Ok(pos) => {
                leaf.records[pos] = record;
                return false;
            }
            Err(pos) => {
                leaf.keys.insert(pos, key);
                leaf.records.insert(pos, record);
                self.len += 1;
            }
        }
        // Split upward while overflowing.
        let mut child = cur;
        while self.nodes[child as usize].keys.len() > MAX_KEYS {
            let (sep, right) = self.split(child, alloc);
            if let Some((parent, slot)) = path.pop() {
                let p = &mut self.nodes[parent as usize];
                p.keys.insert(slot, sep);
                p.children.insert(slot + 1, right);
                child = parent;
            } else {
                // Split the root: grow a level.
                let ordinal = self.nodes.len() as u64;
                let new_root = self.new_node(alloc(ordinal));
                let n = &mut self.nodes[new_root as usize];
                n.keys.push(sep);
                n.children.push(child);
                n.children.push(right);
                self.root = new_root;
                break;
            }
        }
        true
    }

    /// Splits `node` in half; returns `(separator_key, right_index)`.
    fn split(&mut self, node: u32, alloc: &mut dyn FnMut(u64) -> u64) -> (u64, u32) {
        let ordinal = self.nodes.len() as u64;
        let right = self.new_node(alloc(ordinal));
        let mid = self.nodes[node as usize].keys.len() / 2;
        if self.nodes[node as usize].is_leaf() {
            let (rk, rr, next);
            {
                let n = &mut self.nodes[node as usize];
                rk = n.keys.split_off(mid);
                rr = n.records.split_off(mid);
                next = n.next_leaf;
                n.next_leaf = right;
            }
            let sep = rk[0];
            let r = &mut self.nodes[right as usize];
            r.keys = rk;
            r.records = rr;
            r.next_leaf = next;
            (sep, right)
        } else {
            let (mut rk, rc);
            {
                let n = &mut self.nodes[node as usize];
                rk = n.keys.split_off(mid);
                rc = n.children.split_off(mid + 1);
            }
            let sep = rk.remove(0);
            let r = &mut self.nodes[right as usize];
            r.keys = rk;
            r.children = rc;
            (sep, right)
        }
    }

    /// Looks up `key`, pushing one read per visited node. Returns the
    /// record address if present.
    pub fn lookup_trace(&self, key: u64, out: &mut Vec<MemoryAccess>) -> Option<u64> {
        let mut cur = self.root;
        loop {
            let node = &self.nodes[cur as usize];
            out.push(MemoryAccess::read(node.addr));
            if node.is_leaf() {
                return node
                    .keys
                    .binary_search(&key)
                    .ok()
                    .map(|pos| node.records[pos]);
            }
            let slot = node.keys.partition_point(|&k| k <= key);
            cur = node.children[slot];
        }
    }

    /// Scans up to `count` records starting at the first key ≥ `start`,
    /// pushing reads for every visited node and appending the record
    /// addresses to a caller-owned (recycled) buffer.
    pub fn scan_trace(
        &self,
        start: u64,
        count: usize,
        out: &mut Vec<MemoryAccess>,
        records: &mut Vec<u64>,
    ) {
        let base = records.len();
        let mut cur = self.root;
        loop {
            let node = &self.nodes[cur as usize];
            out.push(MemoryAccess::read(node.addr));
            if node.is_leaf() {
                break;
            }
            let slot = node.keys.partition_point(|&k| k <= start);
            cur = node.children[slot];
        }
        let mut pos = self.nodes[cur as usize].keys.partition_point(|&k| k < start);
        while records.len() - base < count && cur != NIL {
            let node = &self.nodes[cur as usize];
            while pos < node.keys.len() && records.len() - base < count {
                records.push(node.records[pos]);
                pos += 1;
            }
            if records.len() - base < count {
                cur = node.next_leaf;
                pos = 0;
                if cur != NIL {
                    out.push(MemoryAccess::read(self.nodes[cur as usize].addr));
                }
            }
        }
    }

    /// Validates B+-tree structural invariants; returns the key count
    /// reachable from the leaf chain.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn validate(&self) -> usize {
        // All leaves at the same depth, keys sorted, separators correct.
        fn walk(t: &BPlusTree, n: u32, lo: Option<u64>, hi: Option<u64>, depth: usize) -> usize {
            let node = &t.nodes[n as usize];
            assert!(
                node.keys.windows(2).all(|w| w[0] < w[1]),
                "unsorted keys in node"
            );
            if let (Some(lo), Some(first)) = (lo, node.keys.first()) {
                assert!(*first >= lo, "key below lower bound");
            }
            if let (Some(hi), Some(last)) = (hi, node.keys.last()) {
                assert!(*last < hi, "key above upper bound");
            }
            if node.is_leaf() {
                assert_eq!(node.keys.len(), node.records.len());
                return depth;
            }
            assert_eq!(node.children.len(), node.keys.len() + 1);
            let mut leaf_depth = None;
            for (i, &c) in node.children.iter().enumerate() {
                let clo = if i == 0 { lo } else { Some(node.keys[i - 1]) };
                let chi = if i == node.keys.len() {
                    hi
                } else {
                    Some(node.keys[i])
                };
                let d = walk(t, c, clo, chi, depth + 1);
                if let Some(ld) = leaf_depth {
                    assert_eq!(ld, d, "leaves at different depths");
                } else {
                    leaf_depth = Some(d);
                }
            }
            leaf_depth.unwrap()
        }
        walk(self, self.root, None, None, 0);

        // Leaf chain covers all keys in order.
        let mut cur = self.root;
        while !self.nodes[cur as usize].is_leaf() {
            cur = self.nodes[cur as usize].children[0];
        }
        let mut count = 0;
        let mut last: Option<u64> = None;
        while cur != NIL {
            for &k in &self.nodes[cur as usize].keys {
                if let Some(l) = last {
                    assert!(k > l, "leaf chain out of order");
                }
                last = Some(k);
                count += 1;
            }
            cur = self.nodes[cur as usize].next_leaf;
        }
        assert_eq!(count, self.len, "leaf chain count != len");
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_alloc() -> impl FnMut(u64) -> u64 {
        let mut next = 0x10_0000u64;
        move |_| {
            let a = next;
            next += 256;
            a
        }
    }

    #[test]
    fn insert_and_lookup_roundtrip() {
        let mut alloc = seq_alloc();
        let mut t = BPlusTree::new(&mut alloc);
        for key in 0..500u64 {
            assert!(t.insert(key * 3, key * 100, &mut alloc));
        }
        t.validate();
        assert_eq!(t.len(), 500);
        let mut trace = Vec::new();
        for key in 0..500u64 {
            trace.clear();
            assert_eq!(t.lookup_trace(key * 3, &mut trace), Some(key * 100));
            assert_eq!(trace.len(), t.height());
        }
        trace.clear();
        assert_eq!(t.lookup_trace(1, &mut trace), None);
    }

    #[test]
    fn duplicate_insert_replaces() {
        let mut alloc = seq_alloc();
        let mut t = BPlusTree::new(&mut alloc);
        assert!(t.insert(7, 70, &mut alloc));
        assert!(!t.insert(7, 71, &mut alloc));
        assert_eq!(t.len(), 1);
        let mut trace = Vec::new();
        assert_eq!(t.lookup_trace(7, &mut trace), Some(71));
    }

    #[test]
    fn random_order_inserts_keep_invariants() {
        let mut alloc = seq_alloc();
        let mut t = BPlusTree::new(&mut alloc);
        // Pseudo-random insertion order.
        let mut x = 1u64;
        let mut keys = Vec::new();
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            keys.push(x >> 16);
        }
        keys.sort_unstable();
        keys.dedup();
        let mut shuffled = keys.clone();
        // Deterministic shuffle via stride.
        shuffled.rotate_left(keys.len() / 3);
        for (i, &k) in shuffled.iter().enumerate() {
            t.insert(k, i as u64, &mut alloc);
        }
        assert_eq!(t.validate(), keys.len());
        assert!(t.height() >= 3);
    }

    #[test]
    fn remove_leaf_keys_and_rebalance() {
        let mut alloc = seq_alloc();
        let mut t = BPlusTree::new(&mut alloc);
        for key in 0..500u64 {
            t.insert(key, key + 1, &mut alloc);
        }
        // Remove a swath that forces borrows and merges.
        for key in 100..400u64 {
            assert_eq!(t.remove(key), Some(key + 1), "key {key}");
        }
        assert_eq!(t.validate(), 200);
        let mut trace = Vec::new();
        assert_eq!(t.lookup_trace(99, &mut trace), Some(100));
        assert_eq!(t.lookup_trace(250, &mut trace), None);
        assert_eq!(t.remove(250), None, "double remove is a no-op");
    }

    #[test]
    fn remove_everything_collapses_root() {
        let mut alloc = seq_alloc();
        let mut t = BPlusTree::new(&mut alloc);
        for key in 0..300u64 {
            t.insert(key, key, &mut alloc);
        }
        assert!(t.height() >= 2);
        for key in 0..300u64 {
            assert_eq!(t.remove(key), Some(key));
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1, "root must collapse to a lone leaf");
        t.validate();
        // Tree is fully reusable afterwards.
        for key in 0..300u64 {
            assert!(t.insert(key, key * 2, &mut alloc));
        }
        assert_eq!(t.validate(), 300);
    }

    #[test]
    fn interleaved_insert_remove_keeps_invariants() {
        let mut alloc = seq_alloc();
        let mut t = BPlusTree::new(&mut alloc);
        let mut live = std::collections::HashSet::new();
        let mut x = 3u64;
        for round in 0..6_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (x >> 33) % 900;
            if live.contains(&key) {
                assert_eq!(t.remove(key), Some(key));
                live.remove(&key);
            } else {
                assert!(t.insert(key, key, &mut alloc));
                live.insert(key);
            }
            if round % 750 == 0 {
                assert_eq!(t.validate(), live.len());
            }
        }
        assert_eq!(t.validate(), live.len());
    }

    #[test]
    fn scan_returns_ordered_records() {
        let mut alloc = seq_alloc();
        let mut t = BPlusTree::new(&mut alloc);
        for key in 0..200u64 {
            t.insert(key, 1000 + key, &mut alloc);
        }
        let (mut trace, mut recs) = (Vec::new(), Vec::new());
        t.scan_trace(50, 20, &mut trace, &mut recs);
        assert_eq!(recs.len(), 20);
        assert_eq!(recs[0], 1050);
        assert_eq!(recs[19], 1069);
        // Scan crossing leaves touches more nodes than a point lookup.
        assert!(trace.len() >= t.height());
    }

    #[test]
    fn scan_past_end_truncates() {
        let mut alloc = seq_alloc();
        let mut t = BPlusTree::new(&mut alloc);
        for key in 0..10u64 {
            t.insert(key, key, &mut alloc);
        }
        let (mut trace, mut recs) = (Vec::new(), Vec::new());
        t.scan_trace(8, 10, &mut trace, &mut recs);
        assert_eq!(recs, vec![8, 9]);
    }

    #[test]
    fn empty_tree_behaves() {
        let mut alloc = seq_alloc();
        let t = BPlusTree::new(&mut alloc);
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        let mut trace = Vec::new();
        assert_eq!(t.lookup_trace(1, &mut trace), None);
        assert_eq!(trace.len(), 1);
        t.validate();
    }
}
