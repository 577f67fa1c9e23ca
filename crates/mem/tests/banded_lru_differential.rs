//! Differential property test proving the one-pass multi-capacity
//! [`BandedLru`] counts, at every capacity, exactly what an independent
//! [`PageLru`] of that capacity counts over the same page stream. This is
//! the contract that keeps the Fig. 1 series bit-identical to one replay
//! per capacity.

use astriflash_mem::{BandedLru, PageLru};
use astriflash_testkit::prop_check;

#[test]
fn banded_lru_matches_one_page_lru_per_capacity() {
    prop_check!(cases: 128, |g| {
        let distinct_pages = g.u64_in(1..48);
        // Capacities in any order with duplicates: some of 1, some above
        // the number of distinct pages (never filled, so never evicting).
        let mut capacities = g.vec(1..10, |g| match g.u64_in(0..4) {
            0 => 1,
            1 => g.usize_in(distinct_pages as usize + 1..distinct_pages as usize + 8),
            _ => g.usize_in(1..distinct_pages as usize + 2),
        });
        if g.any_bool() {
            let dup = capacities[g.usize_in(0..capacities.len())];
            capacities.push(dup);
        }
        let mut banded = BandedLru::new(&capacities);
        let mut single: Vec<PageLru> = capacities.iter().map(|&c| PageLru::new(c)).collect();

        let len = g.usize_in(0..600);
        let reset_at = g.usize_in(0..len + 1);
        // A hot subset makes hits at small capacities as common as
        // evictions at large ones.
        let hot = g.u64_in(1..distinct_pages + 1);
        for step in 0..len {
            if step == reset_at {
                banded.reset_counters();
                single.iter_mut().for_each(PageLru::reset_counters);
            }
            let page = if g.bool_p(0.6) {
                g.u64_in(0..hot)
            } else {
                g.u64_in(0..distinct_pages)
            };
            banded.access(page);
            for lru in &mut single {
                lru.access(page);
            }
        }

        for (i, lru) in single.iter().enumerate() {
            assert_eq!(
                banded.misses(i),
                lru.misses(),
                "capacity {} (#{i} of {capacities:?}) miss count diverged",
                capacities[i]
            );
            assert_eq!(
                banded.miss_ratio(i).to_bits(),
                lru.miss_ratio().to_bits(),
                "capacity {} miss ratio diverged",
                capacities[i]
            );
            assert_eq!(banded.accesses(), lru.hits() + lru.misses());
        }
    });
}
