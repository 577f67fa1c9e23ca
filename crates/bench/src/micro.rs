//! Kernel microbenches (DESIGN.md §12).
//!
//! Two kinds, behind two sections of `perf_report`:
//!
//! * **pairs** (`microbenches`) — a shipped hot path against the
//!   reference implementation it replaced. Each pair reports
//!   `ratio_vs_baseline` (= baseline median / optimized median), the
//!   machine-independent number `perf_gate` pins.
//! * **throughputs** (`throughputs`) — a shipped path with no retained
//!   reference, timed alone and reported as an absolute rate that
//!   `perf_gate` pins with its throughput margin.

use std::collections::HashMap;

use crate::harness::{calibrate_iters, measure_ns_per_iter, Sample, VarianceConfig};
use astriflash_mem::{RefSramCache, SramCache};
use astriflash_os::{RefTlb, Tlb};
use astriflash_sim::{
    EventQueue, HeapEventQueue, PageMap, ScanEventQueue, SimDuration, SimRng, SimTime,
};
use astriflash_workloads::{JobBuf, WorkloadKind, WorkloadParams, ZipfGenerator};

/// Steady-state churn depth for the event-queue pair.
pub const QUEUE_DEPTH: u64 = 1 << 16;
/// Same-tick burst width for the slot-drain pair.
pub const BURST: u64 = 8;
/// Wall-clock target per measured repetition of a microbench.
pub const REP_TARGET_NS: u64 = 2_000_000;

/// One measured side of a pair: a label and its adaptive-protocol
/// sample.
pub struct Side {
    /// Implementation label (e.g. `timer_wheel`).
    pub label: &'static str,
    /// Measured ns-per-iteration sample.
    pub sample: Sample,
}

/// A baseline-vs-optimized microbench pair.
pub struct Pair {
    /// Pair name as it appears in the report and the gate baseline.
    pub name: &'static str,
    /// The reference implementation's side.
    pub baseline: Side,
    /// The shipped implementation's side.
    pub optimized: Side,
}

impl Pair {
    /// Machine-independent speedup: baseline median over optimized
    /// median. This is the number the gate pins.
    pub fn ratio_vs_baseline(&self) -> f64 {
        let opt = self.optimized.sample.median();
        if opt > 0.0 {
            self.baseline.sample.median() / opt
        } else {
            0.0
        }
    }
}

/// Measures one microbench side: calibrates the per-rep iteration count
/// to the mode's target, then runs the adaptive protocol.
pub fn side<T>(
    cfg: &VarianceConfig,
    target_ns: u64,
    label: &'static str,
    mut op: impl FnMut() -> T,
) -> Side {
    let iters = calibrate_iters(target_ns, &mut op);
    Side {
        label,
        sample: measure_ns_per_iter(cfg, iters, op),
    }
}

/// Wall-clock target per repetition: a tenth of [`REP_TARGET_NS`] in
/// smoke mode.
fn rep_target(smoke: bool) -> u64 {
    if smoke {
        REP_TARGET_NS / 10
    } else {
        REP_TARGET_NS
    }
}

/// Runs every baseline-vs-optimized pair under the mode's protocol.
pub fn run_microbenches(cfg: &VarianceConfig, smoke: bool) -> Vec<Pair> {
    let target = rep_target(smoke);
    let mut pairs = Vec::new();

    // Event queue: pop-one/push-one churn at steady depth, identical
    // delay stream for both implementations. Delays follow the
    // simulator's bimodal mix: ~2 µs compute slices and ~100 µs flash
    // reads, each with jitter.
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
    for i in 0..QUEUE_DEPTH {
        wheel.schedule(SimTime::from_ns(i * 64), i);
        heap.schedule(SimTime::from_ns(i * 64), i);
    }
    let delay_of = |lcg: u64| {
        if lcg & 1 == 0 {
            2_000 + (lcg >> 54)
        } else {
            100_000 + (lcg >> 48)
        }
    };
    let mut lcg = 0x243F_6A88_85A3_08D3u64;
    let wheel_side = side(cfg, target, "timer_wheel", || {
        let (now, _) = wheel.pop().unwrap();
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
        wheel.schedule(now + SimDuration::from_ns(delay_of(lcg)), 0);
    });
    lcg = 0x243F_6A88_85A3_08D3;
    let heap_side = side(cfg, target, "binary_heap", || {
        let (now, _) = heap.pop().unwrap();
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
        heap.schedule(now + SimDuration::from_ns(delay_of(lcg)), 0);
    });
    pairs.push(Pair {
        name: "event_queue_churn",
        baseline: heap_side,
        optimized: wheel_side,
    });

    // Slot drain: same-tick bursts, the case batched dispatch targets.
    // Each op pops a whole burst and reschedules it as one burst at a
    // single future timestamp, so every level-0 slot holds BURST
    // entries: the batched wheel drains it in one pass where the
    // per-pop-scan wheel rescans the slot for its minimum seq on every
    // pop.
    let mut batched: EventQueue<u64> = EventQueue::new();
    let mut scan: ScanEventQueue<u64> = ScanEventQueue::new();
    for i in 0..(QUEUE_DEPTH / BURST) {
        for j in 0..BURST {
            batched.schedule(SimTime::from_ns(i * 4096), j);
            scan.schedule(SimTime::from_ns(i * 4096), j);
        }
    }
    let batched_side = side(cfg, target, "batched_slot_drain", || {
        let (now, _) = batched.pop().unwrap();
        for _ in 1..BURST {
            batched.pop().unwrap();
        }
        let at = now + SimDuration::from_ns(100_000);
        for j in 0..BURST {
            batched.schedule(at, j);
        }
    });
    let scan_side = side(cfg, target, "per_pop_scan", || {
        let (now, _) = scan.pop().unwrap();
        for _ in 1..BURST {
            scan.pop().unwrap();
        }
        let at = now + SimDuration::from_ns(100_000);
        for j in 0..BURST {
            scan.schedule(at, j);
        }
    });
    pairs.push(Pair {
        name: "slot_drain",
        baseline: scan_side,
        optimized: batched_side,
    });

    // Hashing: steady-state churn over 64 Ki resident pages — one hit
    // lookup, one remove, one insert per iteration, the op mix of the
    // FTL map and the in-flight miss maps (hash cost is paid on every
    // op).
    let mut page_map: PageMap<u64> = PageMap::with_capacity(1 << 16);
    let mut sip_map: HashMap<u64, u64> = HashMap::with_capacity(1 << 16);
    for k in 0..(1u64 << 16) {
        page_map.insert(k * 7, k);
        sip_map.insert(k * 7, k);
    }
    let mut base = 0u64;
    let mut key = 1u64;
    let flat_side = side(cfg, target, "flat_page_map", || {
        key = key.wrapping_mul(6364136223846793005).wrapping_add(1);
        let hit = page_map.get((base + (key >> 48)) * 7);
        page_map.remove(base * 7);
        page_map.insert((base + (1 << 16)) * 7, base);
        base += 1;
        hit
    });
    base = 0;
    key = 1;
    let sip_side = side(cfg, target, "siphash_hashmap", || {
        key = key.wrapping_mul(6364136223846793005).wrapping_add(1);
        let hit = sip_map.get(&((base + (key >> 48)) * 7)).copied();
        sip_map.remove(&(base * 7));
        sip_map.insert((base + (1 << 16)) * 7, base);
        base += 1;
        hit
    });
    pairs.push(Pair {
        name: "page_map_churn",
        baseline: sip_side,
        optimized: flat_side,
    });

    // Zipf: table-accelerated vs plain inverse-CDF, same draw stream.
    // A hot domain where the coverage gate retains the table; at figure
    // scale the generator self-disables it and the pair would be ~1.0x
    // by construction.
    let zipf_fast = ZipfGenerator::new(1 << 12, 0.99);
    let zipf_slow = ZipfGenerator::without_table(1 << 12, 0.99);
    assert!(zipf_fast.table_coverage() > 0.0, "table unexpectedly gated");
    let mut rng_f = SimRng::new(11);
    let table_side = side(cfg, target, "cached_cdf_table", || zipf_fast.sample(&mut rng_f));
    let mut rng_s = SimRng::new(11);
    let formula_side = side(cfg, target, "inverse_cdf_formula", || zipf_slow.sample(&mut rng_s));
    pairs.push(Pair {
        name: "zipf_sample",
        baseline: formula_side,
        optimized: table_side,
    });

    // L1 hit loop: the dominant access-path case. A 64 KiB / 4-way L1
    // (the shipped geometry) with a half-resident working set, probed
    // with the same LCG-scrambled stream for both layouts — every access
    // hits, so this times the probe + MRU-promotion path alone.
    let mut l1_flat = SramCache::new(64 << 10, 4);
    let mut l1_ref = RefSramCache::new(64 << 10, 4);
    let resident: u64 = 512; // blocks, < 1024-block capacity
    for b in 0..resident {
        l1_flat.access(b * 64, false);
        l1_ref.access(b * 64, false);
    }
    // The flat side times `probe` — the exact call the simulator's
    // inlined fast path makes per L1 hit; the reference side times the
    // monolithic `access` the old path made.
    let mut lcg_f = 0x9E37_79B9u64;
    let l1_flat_side = side(cfg, target, "flat_soa_order_word", || {
        lcg_f = lcg_f.wrapping_mul(6364136223846793005).wrapping_add(1);
        l1_flat.probe((lcg_f >> 32) % resident * 64, lcg_f & 1 == 0)
    });
    let mut lcg_r = 0x9E37_79B9u64;
    let l1_ref_side = side(cfg, target, "vec_of_vecs_tick_lru", || {
        lcg_r = lcg_r.wrapping_mul(6364136223846793005).wrapping_add(1);
        l1_ref.access((lcg_r >> 32) % resident * 64, lcg_r & 1 == 0)
    });
    pairs.push(Pair {
        name: "l1_hit_loop",
        baseline: l1_ref_side,
        optimized: l1_flat_side,
    });

    // Miss-walk loop: an always-missing store stream over 8x the reach
    // of a small cache, so every access scans a full set, evicts the LRU
    // way, and (for stores) produces dirty writebacks.
    let mut mw_flat = SramCache::new(16 << 10, 8);
    let mut mw_ref = RefSramCache::new(16 << 10, 8);
    let mw_blocks = (16u64 << 10) / 64 * 8;
    let mut mw_next_f = 0u64;
    let mw_flat_side = side(cfg, target, "flat_soa_order_word", || {
        let addr = mw_next_f % mw_blocks * 64;
        mw_next_f += 1;
        mw_flat.access(addr, true)
    });
    let mut mw_next_r = 0u64;
    let mw_ref_side = side(cfg, target, "vec_of_vecs_tick_lru", || {
        let addr = mw_next_r % mw_blocks * 64;
        mw_next_r += 1;
        mw_ref.access(addr, true)
    });
    pairs.push(Pair {
        name: "miss_walk_loop",
        baseline: mw_ref_side,
        optimized: mw_flat_side,
    });

    // TLB probe: the shipped 1536-entry / 6-way geometry under a
    // resident vpn stream — every lookup hits, timing the probe +
    // promotion path the combined fast path executes per access.
    let mut tlb_flat = Tlb::new(1536, 6);
    let mut tlb_ref = RefTlb::new(1536, 6);
    let vpns: u64 = 768; // half-resident
    for v in 0..vpns {
        tlb_flat.access(v);
        tlb_ref.access(v);
    }
    let mut tlcg_f = 0x2545_F491u64;
    let tlb_flat_side = side(cfg, target, "flat_soa_order_word", || {
        tlcg_f = tlcg_f.wrapping_mul(6364136223846793005).wrapping_add(1);
        tlb_flat.probe((tlcg_f >> 32) % vpns)
    });
    let mut tlcg_r = 0x2545_F491u64;
    let tlb_ref_side = side(cfg, target, "vec_of_vecs_tick_lru", || {
        tlcg_r = tlcg_r.wrapping_mul(6364136223846793005).wrapping_add(1);
        tlb_ref.access((tlcg_r >> 32) % vpns)
    });
    pairs.push(Pair {
        name: "tlb_probe",
        baseline: tlb_ref_side,
        optimized: tlb_flat_side,
    });

    // Combined access path: the fused TLB-hit + L1-hit sequence
    // `do_access` executes for the dominant case, against the reference
    // composition it replaced. The resident set is page-strided — one
    // block per page — so it exactly fills the L1 (128 sets x 4 ways)
    // while spreading translations across the TLB's sets, exercising
    // both probes rather than hammering a handful of hot pages.
    let mut cmb_flat_tlb = Tlb::new(1536, 6);
    let mut cmb_flat_l1 = SramCache::new(64 << 10, 4);
    let mut cmb_ref_tlb = RefTlb::new(1536, 6);
    let mut cmb_ref_l1 = RefSramCache::new(64 << 10, 4);
    let cmb_addr = |i: u64| i * 4096 + (i % 64) * 64;
    for i in 0..resident {
        cmb_flat_tlb.access(cmb_addr(i) / 4096);
        cmb_ref_tlb.access(cmb_addr(i) / 4096);
        cmb_flat_l1.access(cmb_addr(i), false);
        cmb_ref_l1.access(cmb_addr(i), false);
    }
    let mut clcg_f = 0x4528_21E6u64;
    let cmb_flat_side = side(cfg, target, "fused_probe_fast_path", || {
        clcg_f = clcg_f.wrapping_mul(6364136223846793005).wrapping_add(1);
        let addr = cmb_addr((clcg_f >> 32) % resident);
        cmb_flat_tlb.probe(addr / 4096) && cmb_flat_l1.probe(addr, clcg_f & 1 == 0)
    });
    let mut clcg_r = 0x4528_21E6u64;
    let cmb_ref_side = side(cfg, target, "tick_lru_tlb_plus_l1", || {
        clcg_r = clcg_r.wrapping_mul(6364136223846793005).wrapping_add(1);
        let addr = cmb_addr((clcg_r >> 32) % resident);
        let _ = cmb_ref_tlb.access(addr / 4096);
        cmb_ref_l1.access(addr, clcg_r & 1 == 0).is_hit()
    });
    pairs.push(Pair {
        name: "access_path_combined",
        baseline: cmb_ref_side,
        optimized: cmb_flat_side,
    });

    // Hit-run batch (DESIGN.md §15): one interpreter step per *run*
    // instead of one per access. Both sides consume the same all-hit
    // 64-access slab — 8 page segments of 8 accesses, distinct blocks
    // within each page, fully resident in TLB and L1 — per iteration.
    // The baseline is the scalar interleave `do_access` executes (TLB
    // probe + L1 probe per access); the optimized side is the batched
    // sequence `do_access_run` executes (one real TLB probe per page
    // segment, `SramCache::probe_run` over the segment, repeat-hit
    // accounting via `Tlb::probe_run`).
    const RUN_PAGES: u64 = 8;
    const RUN_PER_PAGE: u64 = 8;
    let slab: Vec<(u64, u64, bool)> = (0..RUN_PAGES)
        .flat_map(|p| {
            (0..RUN_PER_PAGE).map(move |i| {
                let addr = p * 4096 + i * 64;
                (addr, addr / 4096, (p + i) & 1 == 0)
            })
        })
        .collect();
    let mut run_scalar_tlb = Tlb::new(1536, 6);
    let mut run_scalar_l1 = SramCache::new(64 << 10, 4);
    let mut run_batch_tlb = Tlb::new(1536, 6);
    let mut run_batch_l1 = SramCache::new(64 << 10, 4);
    for &(addr, vpn, _) in &slab {
        run_scalar_tlb.access(vpn);
        run_scalar_l1.access(addr, false);
        run_batch_tlb.access(vpn);
        run_batch_l1.access(addr, false);
    }
    let scalar_slab = slab.clone();
    let run_scalar_side = side(cfg, target, "scalar_per_access", || {
        let mut hits = 0usize;
        for &(addr, vpn, w) in &scalar_slab {
            if run_scalar_tlb.probe(vpn) && run_scalar_l1.probe(addr, w) {
                hits += 1;
            }
        }
        hits
    });
    let run_batch_side = side(cfg, target, "batched_hit_run", || {
        let mut consumed = 0usize;
        while consumed < slab.len() {
            let vpn = slab[consumed].1;
            let mut seg = 1usize;
            while consumed + seg < slab.len() && slab[consumed + seg].1 == vpn {
                seg += 1;
            }
            if !run_batch_tlb.probe(vpn) {
                break;
            }
            let l1n = run_batch_l1.probe_run(
                slab[consumed..consumed + seg].iter().map(|&(a, _, w)| (a, w)),
            );
            if l1n < seg {
                run_batch_tlb.probe_run(std::iter::repeat_n(vpn, l1n));
                consumed += l1n;
                break;
            }
            run_batch_tlb.probe_run(std::iter::repeat_n(vpn, seg - 1));
            consumed += seg;
        }
        consumed
    });
    pairs.push(Pair {
        name: "access_run",
        baseline: run_scalar_side,
        optimized: run_batch_side,
    });

    pairs
}

/// An absolute rate: one shipped path timed alone.
pub struct Throughput {
    /// Entry name as it appears in the report and the gate baseline.
    pub name: &'static str,
    /// Unit of the rate (e.g. `jobs/s`).
    pub unit: &'static str,
    /// Measured ns-per-operation sample.
    pub sample: Sample,
}

impl Throughput {
    /// Operations per second at the median: the number the gate pins.
    pub fn per_sec(&self) -> f64 {
        let ns = self.sample.median();
        if ns > 0.0 {
            1e9 / ns
        } else {
            0.0
        }
    }
}

/// Runs every absolute-rate microbench under the mode's protocol.
pub fn run_throughputs(cfg: &VarianceConfig, smoke: bool) -> Vec<Throughput> {
    let target = rep_target(smoke);

    // Job generation: `fill_job` writing into one recycled buffer — the
    // per-job cost `pick_next` pays on every scheduling decision. TATP
    // is the composer's default workload, at the same scaled-down
    // parameters `SystemConfig::default()` uses.
    let params = WorkloadParams::scaled_down();
    let mut engine = WorkloadKind::Tatp.build(&params, 31);
    let mut rng = SimRng::new(77);
    let mut job = JobBuf::new();
    let job_gen = side(cfg, target, "fill_job", || engine.fill_job(&mut job, &mut rng));

    vec![Throughput {
        name: "job_gen",
        unit: "jobs/s",
        sample: job_gen.sample,
    }]
}
