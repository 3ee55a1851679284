//! Property tests on the machine model: the soundness-critical behaviours
//! the WCET analysis and the kernel rely on.

use proptest::prelude::*;
use rt_hw::cache::{Cache, CacheGeometry, Lookup, Replacement};
use rt_hw::irq::NUM_LINES;
use rt_hw::mem::{AccessKind, MemSystem};
use rt_hw::{HwConfig, InstrClass, IrqController, IrqLine, Machine, PhysMem};

fn addr_stream() -> impl Strategy<Value = Vec<(u32, bool)>> {
    // Addresses spread over a few conflicting 4 KiB pages so sets contend.
    proptest::collection::vec(
        (
            (0u32..4096).prop_map(|o| 0x8000_0000 + (o / 4) * 4),
            any::<bool>(),
        ),
        1..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_is_deterministic(stream in addr_stream()) {
        let mk = || Cache::new(CacheGeometry::L1, Replacement::RoundRobin);
        let (mut a, mut b) = (mk(), mk());
        for (addr, w) in &stream {
            prop_assert_eq!(a.access(*addr, *w), b.access(*addr, *w));
        }
    }

    #[test]
    fn pinned_lines_always_hit(stream in addr_stream(), pin in 0u32..4096) {
        let mut c = Cache::new(CacheGeometry::L1, Replacement::RoundRobin);
        c.lock_ways(1);
        let pinned = 0x9000_0000 + (pin & !31);
        prop_assert!(c.pin(pinned));
        for (addr, w) in &stream {
            c.access(*addr, *w);
            prop_assert!(c.is_pinned(pinned));
        }
        prop_assert_eq!(c.access(pinned, false), Lookup::Hit);
    }

    #[test]
    fn immediate_reaccess_always_hits(stream in addr_stream()) {
        // The "most recently accessed line in any cache set is guaranteed
        // to reside in the cache when next accessed" property §5.1 leans
        // on for the direct-mapped approximation's soundness.
        let mut c = Cache::new(CacheGeometry::L1, Replacement::RoundRobin);
        for (addr, w) in &stream {
            c.access(*addr, *w);
            prop_assert_eq!(c.access(*addr, false), Lookup::Hit, "at {:#x}", addr);
        }
    }

    #[test]
    fn miss_costs_are_bounded(stream in addr_stream(), l2 in any::<bool>()) {
        // Every single access costs at most the analysis's worst-case
        // assumption — the per-access soundness of the §5.1 cost model.
        let mut m = MemSystem::new(l2, Replacement::RoundRobin);
        m.pollute_dirty(0x4000_0000);
        let worst = if l2 { 96 + 26 + 96 } else { 60 + 60 };
        for (addr, w) in &stream {
            let kind = if *w { AccessKind::Write } else { AccessKind::Read };
            let cost = m.access(kind, *addr);
            prop_assert!(cost <= worst, "access cost {} > {}", cost, worst);
        }
    }

    #[test]
    fn phys_mem_read_your_writes(ops in proptest::collection::vec((0u32..0x10000, any::<u32>()), 1..200)) {
        let mut m = PhysMem::kzm();
        let mut shadow = std::collections::HashMap::new();
        for (off, val) in &ops {
            let addr = 0x8000_0000 + off * 4;
            m.write_word(addr, *val);
            shadow.insert(addr, *val);
        }
        for (addr, val) in &shadow {
            prop_assert_eq!(m.read_word(*addr), *val);
        }
    }

    #[test]
    fn machine_time_is_monotone_and_additive(n in 1u32..50) {
        let mut m = Machine::new(HwConfig::default());
        let mut last = m.now();
        for i in 0..n {
            m.exec_straight(0xf000_0000 + 4 * i, 1);
            let now = m.now();
            prop_assert!(now > last);
            last = now;
        }
    }
}

#[test]
fn l2_locked_machine_serves_kernel_lines_at_l2_hit_latency() {
    let cfg = HwConfig {
        l2_enabled: true,
        locked_l2_ways: 2,
        ..HwConfig::default()
    };
    let mut m = Machine::new(cfg);
    assert!(m.pin_l2(0xf000_0000));
    m.pollute(0x4000_0000);
    // An L1I miss on the pinned line costs an L2 hit (26) plus the 1-cycle
    // instruction — never a 96-cycle memory trip, and no writeback because
    // instruction lines are always clean.
    let t0 = m.now();
    m.exec_straight(0xf000_0000, 1);
    let dt = m.now() - t0;
    assert_eq!(dt, 26 + 1, "got {dt}");
}

/// One step of a machine script for the straight-line differential.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `n` ALU instructions from `pc`.
    Straight {
        pc: u32,
        n: u32,
    },
    Load {
        pc: u32,
        addr: u32,
    },
    Store {
        pc: u32,
        addr: u32,
        value: u32,
    },
    Branch {
        pc: u32,
        taken: bool,
    },
    Advance(u64),
    /// Schedule `line` to be raised `delay` cycles from now, so that it
    /// often lands in the middle of the next straight run.
    Irq {
        delay: u64,
        line: u8,
    },
    /// Acknowledge the highest-priority pending line.
    Ack,
}

/// Code addresses: half-word steps across six I-cache-conflicting pages,
/// so runs start mid-line, cross lines, and evict each other.
fn code_addr() -> impl Strategy<Value = u32> {
    (0u32..6, 0u32..64).prop_map(|(page, h)| 0xf000_0000 + page * 4096 + 2 * h)
}

/// Data addresses over five D-cache-conflicting pages.
fn data_addr() -> impl Strategy<Value = u32> {
    (0u32..5, 0u32..32).prop_map(|(page, w)| 0x8000_0000 + page * 4096 + 4 * w)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Listed twice: straight runs are the path under test.
        (code_addr(), 0u32..40).prop_map(|(pc, n)| Op::Straight { pc, n }),
        (code_addr(), 0u32..40).prop_map(|(pc, n)| Op::Straight { pc, n }),
        (code_addr(), data_addr()).prop_map(|(pc, addr)| Op::Load { pc, addr }),
        (code_addr(), data_addr(), any::<u32>()).prop_map(|(pc, addr, value)| Op::Store {
            pc,
            addr,
            value
        }),
        (code_addr(), any::<bool>()).prop_map(|(pc, taken)| Op::Branch { pc, taken }),
        (0u64..300).prop_map(Op::Advance),
        (0u64..400, 0u8..NUM_LINES).prop_map(|(delay, line)| Op::Irq { delay, line }),
        Just(Op::Ack),
    ]
}

/// Machine configuration: L2 on/off, 0-3 locked L1 ways, 0-2 locked L2
/// ways, either replacement policy, tracing on/off, and lines to pin.
fn setup() -> impl Strategy<Value = (HwConfig, bool, Vec<u32>)> {
    (
        (any::<bool>(), 0u32..4, 0u32..3),
        (any::<bool>(), any::<u16>()),
        any::<bool>(),
        proptest::collection::vec(prop_oneof![code_addr(), data_addr()], 0..8),
    )
        .prop_map(
            |((l2, l1_locked, l2_locked), (random, seed), trace, pins)| {
                let cfg = HwConfig {
                    l2_enabled: l2,
                    bpred_enabled: seed % 2 == 0,
                    replacement: if random {
                        Replacement::PseudoRandom { seed }
                    } else {
                        Replacement::RoundRobin
                    },
                    locked_l1_ways: l1_locked,
                    locked_l2_ways: if l2 { l2_locked } else { 0 },
                };
                (cfg, trace, pins)
            },
        )
}

fn build(cfg: HwConfig, trace: bool, pins: &[u32]) -> Machine {
    let mut m = Machine::new(cfg);
    for &a in pins {
        if cfg.locked_l1_ways > 0 {
            m.pin_icache(a);
            m.pin_dcache(a);
        }
        if cfg.locked_l2_ways > 0 {
            m.pin_l2(a);
        }
    }
    if trace {
        m.trace.enable();
    }
    m
}

/// Applies `op` to `m`; `Straight` runs through `straight`. Returns the
/// raise stamp an `Ack` returned.
fn apply(m: &mut Machine, op: Op, straight: fn(&mut Machine, u32, u32)) -> Option<u64> {
    match op {
        Op::Straight { pc, n } => straight(m, pc, n),
        Op::Load { pc, addr } => {
            m.exec_load(pc, addr);
        }
        Op::Store { pc, addr, value } => m.exec_store(pc, addr, value),
        Op::Branch { pc, taken } => m.exec_branch(pc, taken),
        Op::Advance(c) => m.advance(c),
        Op::Irq { delay, line } => {
            let at = m.now() + delay;
            m.irq.schedule(at, IrqLine(line));
        }
        Op::Ack => return m.irq.pending_unmasked().and_then(|l| m.irq.ack(l)),
    }
    None
}

fn one_by_one(m: &mut Machine, pc: u32, n: u32) {
    for i in 0..n {
        m.exec(InstrClass::Alu, pc + 4 * i);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `exec_straight(pc, n)` charges exactly what `n` single `exec(Alu)`
    /// calls do: same cycles, counters, buckets, per-level statistics,
    /// cache contents, pending interrupts with their raise stamps, and
    /// trace events.
    #[test]
    fn exec_straight_matches_single_steps(
        (cfg, trace, pins) in setup(),
        script in proptest::collection::vec(op(), 1..48),
    ) {
        let mut fast = build(cfg, trace, &pins);
        let mut slow = build(cfg, trace, &pins);
        for (i, &op) in script.iter().enumerate() {
            let acked = apply(&mut fast, op, Machine::exec_straight);
            prop_assert_eq!(acked, apply(&mut slow, op, one_by_one), "step {} {:?}", i, op);
            prop_assert_eq!(fast.pmu, slow.pmu, "step {} {:?}", i, op);
            prop_assert_eq!(fast.accounts, slow.accounts, "step {} {:?}", i, op);
            prop_assert_eq!(fast.accounts.total(), fast.pmu.cycles);
            prop_assert_eq!(fast.mem.l1i_stats, slow.mem.l1i_stats, "step {} {:?}", i, op);
            prop_assert_eq!(fast.mem.l1d_stats, slow.mem.l1d_stats, "step {} {:?}", i, op);
            prop_assert_eq!(fast.mem.l2_stats, slow.mem.l2_stats, "step {} {:?}", i, op);
            prop_assert_eq!(
                format!("{:?}", fast.irq),
                format!("{:?}", slow.irq),
                "step {} {:?}",
                i,
                op
            );
            prop_assert_eq!(fast.trace.events().len(), slow.trace.events().len());
        }
        prop_assert_eq!(fast.trace.events(), slow.trace.events());
        // Cache lines, replacement state and predictor tables.
        let (mem, bpred) = (format!("{:?}", fast.mem), format!("{:?}", fast.bpred));
        prop_assert!(mem == format!("{:?}", slow.mem), "caches diverged");
        prop_assert!(bpred == format!("{:?}", slow.bpred), "predictors diverged");
    }

    /// Scheduling raises one at a time and as one batch fires the same
    /// lines at the same stamps, ties on a cycle included.
    #[test]
    fn schedule_matches_schedule_batch(
        events in proptest::collection::vec((0u64..12, 0u8..NUM_LINES), 0..40),
        ticks in proptest::collection::vec((0u64..14, any::<bool>()), 1..16),
    ) {
        let events: Vec<(u64, IrqLine)> =
            events.into_iter().map(|(at, l)| (at * 10, IrqLine(l))).collect();
        let mut single = IrqController::new();
        for &(at, line) in &events {
            single.schedule(at, line);
        }
        let mut batch = IrqController::new();
        batch.schedule_batch(events.iter().copied());
        let mut ticks = ticks;
        ticks.sort_unstable();
        for (t, ack) in ticks {
            let now = t * 10;
            prop_assert_eq!(single.tick(now), batch.tick(now), "tick {}", now);
            prop_assert_eq!(single.scheduled_count(), batch.scheduled_count());
            prop_assert_eq!(single.next_scheduled(), batch.next_scheduled());
            for l in 0..NUM_LINES {
                prop_assert_eq!(single.is_pending(IrqLine(l)), batch.is_pending(IrqLine(l)));
            }
            if ack {
                while let Some(line) = single.pending_unmasked() {
                    prop_assert_eq!(single.ack(line), batch.ack(line), "line {:?}", line);
                }
                prop_assert!(!batch.has_pending());
            }
        }
    }
}
