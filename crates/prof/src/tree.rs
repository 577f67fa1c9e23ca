//! Per-thread scope trees and the RAII guards that populate them.
//!
//! Each thread owns a flat, parent-indexed tree: a node is identified by
//! `(parent, scope)` and linked through `first_child`/`next_sibling`, so
//! entering a scope is a short linear scan over the parent's children
//! (sibling counts are tiny — the registry has 20 scopes and real nesting
//! uses far fewer per level). The monotonic clock is read exactly twice per
//! scope: once on enter, once on exit. Exclusive time is computed on exit as
//! `elapsed - child_ns`, where the parent frame accumulates its children's
//! inclusive times.
//!
//! The thread-local state is `const`-initialized (no allocation before the
//! first enabled enter), so the counting allocator can consult it from
//! inside `alloc` without recursing through TLS initialization.

use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::time::Instant;

use crate::{Scope, EPOCH, ENABLED, MERGED};

pub(crate) const NONE: u32 = u32::MAX;
/// Scope tag for the synthetic root node.
pub(crate) const ROOT_SCOPE: u8 = u8::MAX;

#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub scope: u8,
    pub parent: u32,
    pub first_child: u32,
    pub next_sibling: u32,
    pub calls: u64,
    pub incl_ns: u64,
    pub excl_ns: u64,
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
}

impl Node {
    fn new(scope: u8, parent: u32) -> Node {
        Node {
            scope,
            parent,
            first_child: NONE,
            next_sibling: NONE,
            calls: 0,
            incl_ns: 0,
            excl_ns: 0,
            alloc_calls: 0,
            alloc_bytes: 0,
        }
    }
}

struct Frame {
    node: u32,
    start: Instant,
    child_ns: u64,
}

struct ThreadProf {
    epoch: u64,
    nodes: Vec<Node>,
    stack: Vec<Frame>,
}

impl ThreadProf {
    const fn empty() -> ThreadProf {
        ThreadProf {
            epoch: 0,
            nodes: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn reset(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.nodes.clear();
        self.nodes.push(Node::new(ROOT_SCOPE, NONE));
        self.stack.clear();
    }

    fn find_or_add_child(&mut self, parent: u32, scope: u8) -> u32 {
        let mut idx = self.nodes[parent as usize].first_child;
        let mut last = NONE;
        while idx != NONE {
            let n = &self.nodes[idx as usize];
            if n.scope == scope {
                return idx;
            }
            last = idx;
            idx = n.next_sibling;
        }
        let new_idx = self.nodes.len() as u32;
        self.nodes.push(Node::new(scope, parent));
        if last == NONE {
            self.nodes[parent as usize].first_child = new_idx;
        } else {
            self.nodes[last as usize].next_sibling = new_idx;
        }
        new_idx
    }

    fn enter(&mut self, scope: Scope) {
        let epoch = EPOCH.load(Ordering::Relaxed);
        if self.epoch != epoch || self.nodes.is_empty() {
            self.reset(epoch);
        }
        let parent = self.stack.last().map_or(0, |f| f.node);
        let node = self.find_or_add_child(parent, scope as u8);
        // Read the clock last so node lookup/allocation above is excluded
        // from the measured span.
        self.stack.push(Frame {
            node,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    fn exit(&mut self) {
        // Read the clock first so the bookkeeping below is excluded.
        let end = Instant::now();
        if self.epoch != EPOCH.load(Ordering::Relaxed) {
            // A new session started while this scope was open; the frame
            // belongs to a dead epoch.
            self.stack.clear();
            return;
        }
        let Some(frame) = self.stack.pop() else { return };
        let elapsed = end.duration_since(frame.start).as_nanos() as u64;
        let node = &mut self.nodes[frame.node as usize];
        node.calls += 1;
        node.incl_ns += elapsed;
        node.excl_ns += elapsed.saturating_sub(frame.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += elapsed;
        }
    }

    fn note_alloc(&mut self, bytes: u64) {
        if self.nodes.is_empty() || self.epoch != EPOCH.load(Ordering::Relaxed) {
            return;
        }
        // Unscoped allocations land on the root node.
        let node = self.stack.last().map_or(0, |f| f.node);
        let n = &mut self.nodes[node as usize];
        n.alloc_calls += 1;
        n.alloc_bytes += bytes;
    }

    fn take_nodes(&mut self) -> (u64, Vec<Node>) {
        self.stack.clear();
        let epoch = self.epoch;
        self.epoch = 0; // next enter resets against the live epoch
        (epoch, std::mem::take(&mut self.nodes))
    }
}

impl Drop for ThreadProf {
    fn drop(&mut self) {
        // A worker thread exiting mid-session contributes its tree here;
        // the epoch check inside the merge discards trees from dead sessions.
        if self.nodes.len() > 1 {
            let nodes = std::mem::take(&mut self.nodes);
            merge_into_global(&nodes, self.epoch);
        }
    }
}

thread_local! {
    static TLS: RefCell<ThreadProf> = const { RefCell::new(ThreadProf::empty()) };
}

/// Enters `scope` if profiling is enabled.
///
/// When disabled this is one relaxed atomic load and a branch — no clock
/// read, no TLS access, no allocation. The returned guard exits the scope
/// on drop.
#[inline]
pub fn scope(scope: Scope) -> ScopeGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return ScopeGuard { live: false };
    }
    ScopeGuard { live: enter(scope) }
}

#[inline(never)]
fn enter(scope: Scope) -> bool {
    TLS.try_with(|cell| {
        if let Ok(mut prof) = cell.try_borrow_mut() {
            prof.enter(scope);
            true
        } else {
            false
        }
    })
    .unwrap_or(false)
}

#[inline(never)]
fn exit() {
    let _ = TLS.try_with(|cell| {
        if let Ok(mut prof) = cell.try_borrow_mut() {
            prof.exit();
        }
    });
}

/// Charges one allocation of `bytes` to the current scope, if any.
///
/// Called from the global allocator: must never allocate and must tolerate
/// re-entrancy (the profiler's own Vec growth happens while the TLS cell is
/// borrowed, so `try_borrow_mut` skips it) and TLS teardown (`try_with`).
#[inline]
pub(crate) fn note_alloc(bytes: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let _ = TLS.try_with(|cell| {
        if let Ok(mut prof) = cell.try_borrow_mut() {
            prof.note_alloc(bytes);
        }
    });
}

/// Merges the calling thread's tree into the global accumulator.
pub(crate) fn flush_current_thread() {
    let (epoch, nodes) = TLS
        .try_with(|cell| {
            cell.try_borrow_mut()
                .map(|mut prof| prof.take_nodes())
                .unwrap_or_default()
        })
        .unwrap_or_default();
    if nodes.len() > 1 {
        merge_into_global(&nodes, epoch);
    }
}

/// Structural merge of one thread's parent-indexed tree into the global one.
///
/// The epoch is re-checked under the accumulator lock so a thread dying
/// after a newer session started cannot pollute that session's data.
pub(crate) fn merge_into_global(src: &[Node], epoch: u64) {
    let mut dst = crate::lock_ignoring_poison(&MERGED);
    if EPOCH.load(Ordering::SeqCst) != epoch {
        return;
    }
    if dst.is_empty() {
        dst.push(Node::new(ROOT_SCOPE, NONE));
    }
    // Map src index -> dst index, walking parents before children (parent
    // index < child index by construction in find_or_add_child).
    let mut map = vec![NONE; src.len()];
    map[0] = 0;
    for (i, node) in src.iter().enumerate().skip(1) {
        let dst_parent = map[node.parent as usize];
        debug_assert_ne!(dst_parent, NONE, "child visited before parent");
        let dst_idx = find_or_add_child_in(&mut dst, dst_parent, node.scope);
        map[i] = dst_idx;
        let d = &mut dst[dst_idx as usize];
        d.calls += node.calls;
        d.incl_ns += node.incl_ns;
        d.excl_ns += node.excl_ns;
        d.alloc_calls += node.alloc_calls;
        d.alloc_bytes += node.alloc_bytes;
    }
    // Root-level (unscoped) allocations.
    dst[0].alloc_calls += src[0].alloc_calls;
    dst[0].alloc_bytes += src[0].alloc_bytes;
}

fn find_or_add_child_in(nodes: &mut Vec<Node>, parent: u32, scope: u8) -> u32 {
    let mut idx = nodes[parent as usize].first_child;
    let mut last = NONE;
    while idx != NONE {
        if nodes[idx as usize].scope == scope {
            return idx;
        }
        last = idx;
        idx = nodes[idx as usize].next_sibling;
    }
    let new_idx = nodes.len() as u32;
    nodes.push(Node::new(scope, parent));
    if last == NONE {
        nodes[parent as usize].first_child = new_idx;
    } else {
        nodes[last as usize].next_sibling = new_idx;
    }
    new_idx
}

/// The RAII guard returned by [`scope`].
///
/// `live` records whether enter actually ran, so enable-state flips between
/// enter and exit can never unbalance the thread's stack.
pub struct ScopeGuard {
    live: bool,
}

impl Drop for ScopeGuard {
    #[inline]
    fn drop(&mut self) {
        if self.live {
            exit();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{begin, scope, Scope};

    #[test]
    fn nesting_attributes_inclusive_and_exclusive_time() {
        let session = begin();
        {
            let _outer = scope(Scope::EventLoop);
            for _ in 0..3 {
                let _inner = scope(Scope::DoAccess);
                std::hint::black_box(42u64);
            }
        }
        let report = session.finish();
        let outer = report.totals(Scope::EventLoop);
        let inner = report.totals(Scope::DoAccess);
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 3);
        assert!(outer.incl_ns >= inner.incl_ns);
        assert_eq!(outer.excl_ns, outer.incl_ns - inner.incl_ns);
    }

    #[test]
    fn same_scope_under_different_parents_gets_distinct_nodes() {
        let session = begin();
        {
            let _a = scope(Scope::EvResume);
            let _w = scope(Scope::PtWalk);
        }
        {
            let _b = scope(Scope::EvPageArrived);
            let _w = scope(Scope::PtWalk);
        }
        let report = session.finish();
        let walk_nodes: Vec<_> = report
            .nodes
            .iter()
            .filter(|n| n.scope == Some(Scope::PtWalk))
            .collect();
        assert_eq!(walk_nodes.len(), 2);
        assert_eq!(report.totals(Scope::PtWalk).calls, 2);
    }

    #[test]
    fn disabled_guards_record_nothing() {
        {
            let _orphan = scope(Scope::FlashGc);
        }
        let session = begin();
        let report = session.finish();
        assert_eq!(report.totals(Scope::FlashGc).calls, 0);
        assert!(report.is_empty());
    }

    #[test]
    fn worker_thread_trees_merge_on_thread_exit() {
        let session = begin();
        {
            let _main = scope(Scope::EventLoop);
        }
        std::thread::spawn(|| {
            let _worker = scope(Scope::EventLoop);
            let _job = scope(Scope::FillJob);
        })
        .join()
        .unwrap();
        let report = session.finish();
        assert_eq!(report.totals(Scope::EventLoop).calls, 2);
        assert_eq!(report.totals(Scope::FillJob).calls, 1);
    }

    #[test]
    fn scope_open_across_session_boundary_is_discarded_not_misattributed() {
        let session = begin();
        let held = scope(Scope::EventLoop);
        drop(session); // no finish: data discarded
        let session2 = begin();
        drop(held); // exits against a dead epoch
        {
            let _fresh = scope(Scope::DoAccess);
        }
        let report = session2.finish();
        assert_eq!(report.totals(Scope::EventLoop).calls, 0);
        assert_eq!(report.totals(Scope::DoAccess).calls, 1);
    }
}
