//! Exact page-granularity LRU, used for the Fig. 1 miss-ratio sweep
//! ("we examine the DRAM miss ratio while varying the DRAM-to-flash
//! capacity ratio", §II-A).
//!
//! [`PageLru`] is one cache of one capacity: a hash map plus an intrusive
//! doubly-linked list over a slot arena, so a sweep over millions of
//! accesses is O(1) per access. [`BandedLru`] gives the exact miss counts
//! of several capacities from one pass over the same stream, using LRU's
//! inclusion property (Mattson et al., 1970).

use astriflash_sim::PageMap;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    page: u64,
    prev: u32,
    next: u32,
}

/// An exact LRU cache over page numbers.
///
/// # Example
///
/// ```
/// use astriflash_mem::PageLru;
/// let mut lru = PageLru::new(2);
/// assert!(!lru.access(1));
/// assert!(!lru.access(2));
/// assert!(lru.access(1));       // hit; 1 becomes MRU
/// assert!(!lru.access(3));      // evicts 2
/// assert!(!lru.access(2));
/// ```
#[derive(Debug)]
pub struct PageLru {
    map: PageMap<u32>,
    slots: Vec<Slot>,
    head: u32, // MRU
    tail: u32, // LRU
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl PageLru {
    /// Creates a cache holding `capacity_pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_pages == 0`.
    pub fn new(capacity_pages: usize) -> Self {
        assert!(capacity_pages > 0);
        PageLru {
            map: PageMap::with_capacity(capacity_pages.min(1 << 22)),
            slots: Vec::with_capacity(capacity_pages.min(1 << 22)),
            head: NIL,
            tail: NIL,
            capacity: capacity_pages,
            hits: 0,
            misses: 0,
        }
    }

    fn unlink(&mut self, idx: u32) {
        let Slot { prev, next, .. } = self.slots[idx as usize];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.slots[idx as usize].prev = NIL;
        self.slots[idx as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Accesses `page`; returns whether it hit. Misses install the page,
    /// evicting the LRU page if at capacity.
    pub fn access(&mut self, page: u64) -> bool {
        if let Some(idx) = self.map.get(page) {
            self.hits += 1;
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return true;
        }
        self.misses += 1;
        let idx = if self.map.len() >= self.capacity {
            // Reuse the LRU slot.
            let idx = self.tail;
            let victim = self.slots[idx as usize].page;
            self.unlink(idx);
            self.map.remove(victim);
            self.slots[idx as usize].page = page;
            idx
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
                page,
                prev: NIL,
                next: NIL,
            });
            idx
        };
        self.map.insert(page, idx);
        self.push_front(idx);
        false
    }

    /// Whether `page` is resident (no LRU update).
    pub fn contains(&self, page: u64) -> bool {
        self.map.contains_key(page)
    }

    /// Resident page count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio over all accesses so far.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Resets the hit/miss counters (e.g. after a warmup phase) without
    /// touching residency.
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

/// Per-capacity state of a [`BandedLru`]: band `j` holds the pages whose
/// LRU stack position lies in `(capacity[j-1], capacity[j]]`.
#[derive(Debug, Clone, Copy)]
struct Band {
    /// Most pages the band holds (`capacity[j] - capacity[j-1]`).
    size: usize,
    /// Pages the band holds.
    len: usize,
    /// The band's least-recently-used page: the boundary to band `j+1`.
    /// Read only while `len > 0`; an empty band gets it on its next page.
    tail: u32,
    /// Hits on pages of this band since the last counter reset.
    hits: u64,
}

#[derive(Debug, Clone, Copy)]
struct BandSlot {
    page: u64,
    prev: u32,
    next: u32,
    band: u32,
}

/// An exact LRU evaluated at several capacities in one pass.
///
/// By LRU inclusion, the cache of capacity `c` holds exactly the top `c`
/// pages of one recency stack, so an access hits at capacity `c` iff the
/// page's stack position is at most `c`. The stack is kept as one
/// intrusive list of at most `max(capacity)` pages, cut into bands at the
/// distinct capacities; each page carries its band tag and each band keeps
/// a pointer to its last page. An access to a page of band `b` hits at
/// every capacity from band `b` up and misses below it; moving the page to
/// the front then demotes one page across each boundary above band `b`.
/// That is O(#capacities) per access and O(max capacity) memory, and every
/// capacity's counts equal those of its own [`PageLru`].
///
/// # Example
///
/// ```
/// use astriflash_mem::BandedLru;
/// let mut lru = BandedLru::new(&[2, 1]);
/// for page in [1, 2, 1, 3, 2] {
///     lru.access(page);
/// }
/// assert_eq!(lru.misses(0), 4); // capacity 2: only the second 1 hits
/// assert_eq!(lru.misses(1), 5); // capacity 1: every access misses
/// ```
#[derive(Debug)]
pub struct BandedLru {
    map: PageMap<u32>,
    slots: Vec<BandSlot>,
    head: u32, // MRU
    /// Bands in ascending capacity order.
    bands: Vec<Band>,
    /// Band index of each capacity, in the order given to [`BandedLru::new`].
    band_of: Vec<usize>,
    max_capacity: usize,
    accesses: u64,
}

impl BandedLru {
    /// Creates a cache evaluated at each of `capacities` (in pages; any
    /// order, duplicates allowed).
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is empty or holds a zero.
    pub fn new(capacities: &[usize]) -> Self {
        assert!(!capacities.is_empty(), "need at least one capacity");
        assert!(
            capacities.iter().all(|&c| c > 0),
            "capacities must be positive"
        );
        let mut distinct = capacities.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let bands = distinct
            .iter()
            .scan(0, |below, &c| {
                let size = c - *below;
                *below = c;
                Some(Band {
                    size,
                    len: 0,
                    tail: NIL,
                    hits: 0,
                })
            })
            .collect();
        let band_of = capacities
            .iter()
            .map(|c| distinct.binary_search(c).expect("capacity is listed"))
            .collect();
        let max_capacity = *distinct.last().expect("non-empty");
        BandedLru {
            map: PageMap::with_capacity(max_capacity.min(1 << 22)),
            slots: Vec::with_capacity(max_capacity.min(1 << 22)),
            head: NIL,
            bands,
            band_of,
            max_capacity,
            accesses: 0,
        }
    }

    /// Unlinks slot `idx`, which belongs to band `b`.
    fn unlink(&mut self, idx: u32, b: usize) {
        let BandSlot { prev, next, .. } = self.slots[idx as usize];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        }
        let band = &mut self.bands[b];
        band.len -= 1;
        if band.tail == idx {
            band.tail = prev;
        }
    }

    /// Links slot `idx` in at the front (band 0), then demotes one page
    /// across each boundary that overflowed.
    fn push_front(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        slot.prev = NIL;
        slot.next = self.head;
        slot.band = 0;
        if self.head != NIL {
            self.slots[self.head as usize].prev = idx;
        }
        self.head = idx;
        let first = &mut self.bands[0];
        first.len += 1;
        if first.len == 1 {
            first.tail = idx;
        }
        let mut b = 0;
        while self.bands[b].len > self.bands[b].size {
            // The overflow stops at the band that lost the accessed page
            // or at the first band with room, never past the last band.
            let moved = self.bands[b].tail;
            self.bands[b].tail = self.slots[moved as usize].prev;
            self.bands[b].len -= 1;
            b += 1;
            self.slots[moved as usize].band = b as u32;
            let next = &mut self.bands[b];
            next.len += 1;
            if next.len == 1 {
                next.tail = moved;
            }
        }
    }

    /// Accesses `page` at every capacity. A page absent from the stack
    /// misses everywhere and, once the largest capacity is full, evicts
    /// the page at its bottom.
    pub fn access(&mut self, page: u64) {
        self.accesses += 1;
        let idx = if let Some(idx) = self.map.get(page) {
            let b = self.slots[idx as usize].band as usize;
            self.bands[b].hits += 1;
            if self.head == idx {
                return;
            }
            self.unlink(idx, b);
            idx
        } else {
            let idx = if self.map.len() >= self.max_capacity {
                // Reuse the slot of the bottom page.
                let last = self.bands.len() - 1;
                let idx = self.bands[last].tail;
                let victim = self.slots[idx as usize].page;
                self.unlink(idx, last);
                self.map.remove(victim);
                self.slots[idx as usize].page = page;
                idx
            } else {
                let idx = self.slots.len() as u32;
                self.slots.push(BandSlot {
                    page,
                    prev: NIL,
                    next: NIL,
                    band: 0,
                });
                idx
            };
            self.map.insert(page, idx);
            idx
        };
        self.push_front(idx);
    }

    /// Accesses since the last counter reset.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Misses at the `i`-th capacity given to [`BandedLru::new`]: every
    /// access that did not hit in that capacity's band or a band above it.
    pub fn misses(&self, i: usize) -> u64 {
        let hits: u64 = self.bands[..=self.band_of[i]].iter().map(|b| b.hits).sum();
        self.accesses - hits
    }

    /// Miss ratio at the `i`-th capacity, computed as [`PageLru::miss_ratio`]
    /// computes it.
    pub fn miss_ratio(&self, i: usize) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses(i) as f64 / self.accesses as f64
        }
    }

    /// Resets the counters (e.g. after a warmup phase) without touching
    /// residency.
    pub fn reset_counters(&mut self) {
        self.accesses = 0;
        for band in &mut self.bands {
            band.hits = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_lru_behavior() {
        let mut c = PageLru::new(3);
        assert!(!c.access(1));
        assert!(!c.access(2));
        assert!(!c.access(3));
        assert!(c.access(1)); // order now 1,3,2 (MRU..LRU)
        assert!(!c.access(4)); // evicts 2
        assert!(!c.contains(2));
        assert!(c.contains(1) && c.contains(3) && c.contains(4));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn single_entry_cache() {
        let mut c = PageLru::new(1);
        assert!(!c.access(5));
        assert!(c.access(5));
        assert!(!c.access(6));
        assert!(!c.contains(5));
    }

    #[test]
    fn counters_and_reset() {
        let mut c = PageLru::new(2);
        c.access(1);
        c.access(1);
        c.access(2);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
        assert!((c.miss_ratio() - 2.0 / 3.0).abs() < 1e-9);
        c.reset_counters();
        assert_eq!(c.hits(), 0);
        assert!(c.contains(1), "reset keeps residency");
    }

    #[test]
    fn matches_naive_lru_reference() {
        // Differential test against an O(n) reference implementation.
        let mut fast = PageLru::new(8);
        let mut naive: Vec<u64> = Vec::new(); // MRU at front
        let mut x = 7u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let page = (x >> 33) % 24;
            let fast_hit = fast.access(page);
            let naive_hit = if let Some(pos) = naive.iter().position(|&p| p == page) {
                naive.remove(pos);
                naive.insert(0, page);
                true
            } else {
                naive.insert(0, page);
                naive.truncate(8);
                false
            };
            assert_eq!(fast_hit, naive_hit, "divergence on page {page}");
        }
    }

    #[test]
    fn banded_counts_nothing_before_the_first_access() {
        let lru = BandedLru::new(&[4]);
        assert_eq!(lru.misses(0), 0);
        assert_eq!(lru.miss_ratio(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn banded_rejects_zero_capacity() {
        BandedLru::new(&[2, 0]);
    }

    #[test]
    fn scan_larger_than_cache_always_misses() {
        let mut c = PageLru::new(4);
        for round in 0..3 {
            for p in 0..8u64 {
                assert!(!c.access(p), "round {round} page {p}");
            }
        }
        assert_eq!(c.hits(), 0);
    }
}
