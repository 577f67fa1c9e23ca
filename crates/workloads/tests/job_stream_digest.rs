//! Pinned job-stream digests (DESIGN.md §14).
//!
//! Every engine's `fill_job` stream is hashed (FNV-1a, 64-bit) over a
//! fixed set of (engine seed, job seed) pairs and compared against a
//! pinned constant. The digest covers each op's `compute_ns`,
//! `access_start` and `access_len`, each access's `addr`, `vpn`,
//! `block` and `is_write`, and — after every stream — one extra
//! `rng.next_u64()`, which pins how many draws the stream consumed.
//! All jobs of one engine are filled into a single reused `JobBuf`, so
//! the digest also covers overwriting a dirty buffer.
//!
//! The constants were pinned while the allocating nested generator that
//! `fill_job` replaced still existed, and its stream hashed to the same
//! values. A changed digest means a changed job stream, and with it
//! changed figures: re-pin only together with the goldens, explaining
//! why.

use astriflash_sim::SimRng;
use astriflash_workloads::engines::Tpcc;
use astriflash_workloads::{JobBuf, WorkloadEngine, WorkloadKind, WorkloadParams};

/// Jobs per stream at tiny params.
const JOBS: usize = 200;
/// (engine seed, job seed) pairs hashed for every `WorkloadKind`.
const SEEDS: [(u64, u64); 3] = [(1, 2), (7, 42), (1234, 99)];
/// Jobs per stream for the TPC-C full mix.
const FULL_MIX_JOBS: usize = 300;
/// (engine seed, job seed) pairs for the TPC-C full mix at 64 MiB.
const FULL_MIX_SEEDS: [(u64, u64); 2] = [(41, 5), (7, 1000)];

/// Pinned digest per kind, in `WorkloadKind::all()` order.
const PINNED: [(WorkloadKind, u64); 7] = [
    (WorkloadKind::ArraySwap, 0xa93e_e1a8_7383_0233),
    (WorkloadKind::HashTable, 0xae75_32df_b626_823e),
    (WorkloadKind::RbTree, 0xb8a2_39fb_bc89_5063),
    (WorkloadKind::Tatp, 0x5bc2_45d7_d981_4722),
    (WorkloadKind::Tpcc, 0x2f5f_0435_0bb4_ce2f),
    (WorkloadKind::Silo, 0x64d2_015e_0255_048e),
    (WorkloadKind::Masstree, 0x5617_20e1_c6dd_ce25),
];
/// Pinned digest of the TPC-C full mix.
const PINNED_TPCC_FULL_MIX: u64 = 0x1bfc_36b2_ad9f_cae7;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn job(&mut self, buf: &JobBuf) {
        self.word(buf.ops().len() as u64);
        for op in buf.ops() {
            self.word(op.compute_ns);
            self.word(op.access_start as u64);
            self.word(op.access_len as u64);
        }
        for a in buf.accesses() {
            self.word(a.addr);
            self.word(a.vpn);
            self.word(a.block as u64);
            self.word(a.is_write as u64);
        }
    }
}

/// Hashes `jobs` jobs from each engine `build(engine_seed)` makes,
/// driven by `SimRng::new(job_seed)`, all through one reused buffer.
fn digest(
    seeds: &[(u64, u64)],
    jobs: usize,
    build: impl Fn(u64) -> Box<dyn WorkloadEngine>,
) -> u64 {
    let mut h = Fnv::new();
    let mut buf = JobBuf::new();
    for &(engine_seed, job_seed) in seeds {
        let mut engine = build(engine_seed);
        let mut rng = SimRng::new(job_seed);
        for _ in 0..jobs {
            engine.fill_job(&mut buf, &mut rng);
            h.job(&buf);
        }
        h.word(rng.next_u64());
    }
    h.0
}

fn full_mix_params() -> WorkloadParams {
    WorkloadParams {
        dataset_bytes: 64 << 20,
        ..WorkloadParams::tiny_for_tests()
    }
}

fn build_full_mix(engine_seed: u64) -> Box<dyn WorkloadEngine> {
    Box::new(Tpcc::new(&full_mix_params(), engine_seed).with_full_mix())
}

#[test]
fn pinned_kinds_cover_every_workload() {
    let pinned: Vec<WorkloadKind> = PINNED.iter().map(|&(k, _)| k).collect();
    assert_eq!(pinned, WorkloadKind::all().to_vec());
}

#[test]
fn fill_job_streams_match_the_pinned_digests() {
    let params = WorkloadParams::tiny_for_tests();
    let mut wrong = Vec::new();
    for (kind, want) in PINNED {
        let got = digest(&SEEDS, JOBS, |s| kind.build(&params, s));
        if got != want {
            wrong.push(format!("{kind}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    let got = digest(&FULL_MIX_SEEDS, FULL_MIX_JOBS, build_full_mix);
    if got != PINNED_TPCC_FULL_MIX {
        wrong.push(format!(
            "TPCC full mix: got {got:#018x}, pinned {PINNED_TPCC_FULL_MIX:#018x}"
        ));
    }
    assert!(wrong.is_empty(), "job streams changed:\n  {}", wrong.join("\n  "));
}
