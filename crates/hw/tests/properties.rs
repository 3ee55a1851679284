//! Property tests on the machine model: the soundness-critical behaviours
//! the WCET analysis and the kernel rely on.

use proptest::prelude::*;
use rt_hw::cache::{Cache, CacheGeometry, Lookup, Replacement};
use rt_hw::irq::NUM_LINES;
use rt_hw::mem::{AccessKind, MemSystem};
use rt_hw::{
    HwConfig, InstrClass, IrqController, IrqLine, LoweredBlock, Machine, Op, OpKind, Operand,
    PhysMem,
};

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
            m.exec(InstrClass::Alu, 0xf000_0000 + 4 * i);
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
    m.exec(InstrClass::Alu, 0xf000_0000);
    let dt = m.now() - t0;
    assert_eq!(dt, 26 + 1, "got {dt}");
}

/// One instruction of a generated block, before lowering to [`Op`]s.
#[derive(Clone, Copy, Debug)]
enum Instr {
    /// `n` ALU instructions.
    Alu(u32),
    Clz,
    Mul,
    /// A load from an operand: `Some(i)` is object operand `i`, `None`
    /// the fixed `addr`.
    Load(Option<u32>, u32),
    /// A store, operands as for `Load`.
    Store(Option<u32>, u32),
    Device(u32),
    Branch(bool),
    /// Moves the next instruction to another code address.
    Jump(u32),
}

/// One step of a machine script for the block differential.
#[derive(Clone, Debug)]
enum Step {
    /// A block, built as the kernel builds its blocks, and its object
    /// operands.
    Block(LoweredBlock, Vec<u32>),
    Advance(u64),
    /// Schedule `line` to be raised `delay` cycles from now, so that it
    /// often lands in the middle of the next block.
    Irq {
        delay: u64,
        line: u8,
    },
    /// Acknowledge the highest-priority pending line.
    Ack,
}

/// Code addresses: word steps across six I-cache-conflicting pages, so
/// blocks start mid-line, cross lines, and evict each other.
fn code_addr() -> impl Strategy<Value = u32> {
    (0u32..6, 0u32..32).prop_map(|(page, w)| 0xf000_0000 + page * 4096 + 4 * w)
}

/// Data addresses over five D-cache-conflicting pages.
fn data_addr() -> impl Strategy<Value = u32> {
    (0u32..5, 0u32..32).prop_map(|(page, w)| 0x8000_0000 + page * 4096 + 4 * w)
}

fn instr() -> impl Strategy<Value = Instr> {
    let operand = || (proptest::option::of(0u32..6), data_addr());
    prop_oneof![
        // Listed twice: ALU runs are most of the kernel's code.
        (1u32..24).prop_map(Instr::Alu),
        (1u32..24).prop_map(Instr::Alu),
        Just(Instr::Clz),
        Just(Instr::Mul),
        operand().prop_map(|(o, a)| Instr::Load(o, a)),
        operand().prop_map(|(o, a)| Instr::Store(o, a)),
        (0u32..30).prop_map(Instr::Device),
        any::<bool>().prop_map(Instr::Branch),
        code_addr().prop_map(Instr::Jump),
    ]
}

/// Lowers `instrs` from `pc` as `kprog` does: ALU runs split at line
/// boundaries, and an op skips its probe only when it shares the previous
/// instruction's line. Where `probe` says so, an op probes anyway, which
/// is also exact.
fn lower(mut pc: u32, instrs: &[Instr], probe: &[bool]) -> Vec<Op> {
    let line = CacheGeometry::L1.line;
    let mut ops = Vec::new();
    let mut last_line = None;
    let mut push = |pc: u32, kind: OpKind| {
        let l = pc & !(line - 1);
        let force = probe[ops.len() % probe.len()];
        ops.push(Op {
            pc,
            fetch: force || last_line != Some(l),
            kind,
        });
        last_line = Some(l);
    };
    let operand = |o: Option<u32>, a| o.map_or(Operand::At(a), Operand::Obj);
    for &i in instrs {
        let kind = match i {
            Instr::Alu(mut n) => {
                while n > 0 {
                    let run = ((line - (pc & (line - 1))) / 4).min(n);
                    push(pc, OpKind::Alu(run));
                    pc += 4 * run;
                    n -= run;
                }
                continue;
            }
            Instr::Jump(to) => {
                pc = to;
                continue;
            }
            Instr::Clz => OpKind::Clz,
            Instr::Mul => OpKind::Mul,
            Instr::Load(o, a) => OpKind::Load(operand(o, a)),
            Instr::Store(o, a) => OpKind::Store(operand(o, a)),
            Instr::Device(stall) => OpKind::Device(stall),
            Instr::Branch(taken) => OpKind::Branch(taken),
        };
        push(pc, kind);
        pc += 4;
    }
    ops
}

fn block() -> impl Strategy<Value = Step> {
    (
        code_addr(),
        proptest::collection::vec(instr(), 1..24),
        proptest::collection::vec(any::<bool>(), 1..8),
        proptest::collection::vec(data_addr(), 6..7),
    )
        .prop_map(|(pc, instrs, probe, objs)| {
            Step::Block(LoweredBlock::new(lower(pc, &instrs, &probe)), objs)
        })
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        // Listed twice: blocks are the path under test.
        block(),
        block(),
        (0u64..300).prop_map(Step::Advance),
        (0u64..400, 0u8..NUM_LINES).prop_map(|(delay, line)| Step::Irq { delay, line }),
        Just(Step::Ack),
    ]
}

/// Machine configuration: L2 on/off, 0-3 locked L1 ways, 0-2 locked L2
/// ways, either replacement policy, the branch predictor on/off, and
/// lines to pin.
fn setup() -> impl Strategy<Value = (HwConfig, Vec<u32>)> {
    (
        (any::<bool>(), 0u32..4, 0u32..3),
        (any::<bool>(), any::<u16>(), any::<bool>()),
        proptest::collection::vec(prop_oneof![code_addr(), data_addr()], 0..8),
    )
        .prop_map(
            |((l2, l1_locked, l2_locked), (random, seed, bpred), pins)| {
                let cfg = HwConfig {
                    l2_enabled: l2,
                    bpred_enabled: bpred,
                    replacement: if random {
                        Replacement::PseudoRandom { seed }
                    } else {
                        Replacement::RoundRobin
                    },
                    locked_l1_ways: l1_locked,
                    locked_l2_ways: if l2 { l2_locked } else { 0 },
                };
                (cfg, pins)
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

/// The one-instruction reference: every instruction of `block` through
/// `exec`, `exec_load`, `exec_store`, `exec_branch`, and `advance` for
/// a device's stall.
fn single_steps(m: &mut Machine, block: &LoweredBlock, objs: &[u32]) {
    let addr = |o| match o {
        Operand::At(a) => a,
        Operand::Obj(i) => objs[i as usize],
    };
    for op in block.ops() {
        match op.kind {
            OpKind::Alu(n) => (0..n).for_each(|k| m.exec(InstrClass::Alu, op.pc + 4 * k)),
            OpKind::Clz => m.exec(InstrClass::Clz, op.pc),
            OpKind::Mul => m.exec(InstrClass::Mul, op.pc),
            OpKind::Load(o) => {
                m.exec_load(op.pc, addr(o));
            }
            OpKind::Store(o) => m.exec_store(op.pc, addr(o), 0),
            OpKind::Device(stall) => {
                m.exec(InstrClass::Alu, op.pc);
                m.advance(u64::from(stall));
            }
            OpKind::Branch(taken) => m.exec_branch(op.pc, taken),
        }
    }
}

/// Applies `step` to `m`, blocks through `run`. Returns the raise stamp
/// an `Ack` returned.
fn apply(
    m: &mut Machine,
    step: &Step,
    run: fn(&mut Machine, &LoweredBlock, &[u32]),
) -> Option<u64> {
    match step {
        Step::Block(block, objs) => run(m, block, objs),
        Step::Advance(c) => m.advance(*c),
        Step::Irq { delay, line } => {
            let at = m.now() + delay;
            m.irq.schedule(at, IrqLine(*line));
        }
        Step::Ack => return m.irq.pending_unmasked().and_then(|l| m.irq.ack(l)),
    }
    None
}

/// Runs `script` on two machines built alike, blocks through
/// `run_block` on one and the one-instruction reference on the other,
/// and checks that they agree after every step and at the end.
fn blocks_match_single_steps(
    cfg: HwConfig,
    trace: bool,
    pins: &[u32],
    script: &[Step],
) -> Result<(), TestCaseError> {
    let mut fast = build(cfg, trace, pins);
    let mut slow = build(cfg, trace, pins);
    for (i, step) in script.iter().enumerate() {
        let acked = apply(&mut fast, step, Machine::run_block);
        let at = format!("step {i} {step:?}");
        prop_assert_eq!(acked, apply(&mut slow, step, single_steps), "{}", at);
        prop_assert_eq!(fast.pmu, slow.pmu, "{}", at);
        prop_assert_eq!(fast.accounts, slow.accounts, "{}", at);
        prop_assert_eq!(fast.accounts.total(), fast.pmu.cycles);
        prop_assert_eq!(fast.mem.l1i_stats, slow.mem.l1i_stats, "{}", at);
        prop_assert_eq!(fast.mem.l1d_stats, slow.mem.l1d_stats, "{}", at);
        prop_assert_eq!(fast.mem.l2_stats, slow.mem.l2_stats, "{}", at);
        let irq = format!("{:?}", fast.irq);
        prop_assert_eq!(irq, format!("{:?}", slow.irq), "{}", at);
        prop_assert_eq!(fast.trace.events().len(), slow.trace.events().len());
    }
    prop_assert_eq!(fast.trace.events(), slow.trace.events());
    // Cache lines, replacement state and predictor tables.
    let (mem, bpred) = (format!("{:?}", fast.mem), format!("{:?}", fast.bpred));
    prop_assert!(mem == format!("{:?}", slow.mem), "caches diverged");
    prop_assert!(bpred == format!("{:?}", slow.bpred), "predictors diverged");
    // And they go on to answer every later access alike.
    for page in 0..6 {
        for w in (0..1024).step_by(9) {
            let (code, data) = (
                0xf000_0000 + page * 4096 + 4 * w,
                0x8000_0000 + page * 4096 + 4 * w,
            );
            for (kind, addr) in [
                (AccessKind::IFetch, code),
                (AccessKind::Read, data),
                (AccessKind::Write, code),
            ] {
                prop_assert_eq!(
                    fast.mem.access_report(kind, addr),
                    slow.mem.access_report(kind, addr),
                    "{:?} {:#x}",
                    kind,
                    addr
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `run_block` charges exactly what the one-instruction entry points
    /// do, instruction by instruction, both with the trace sink off (the
    /// dense charge walk) and on (the op walk): same cycles, counters,
    /// buckets, per-level statistics, cache contents and later probe
    /// outcomes, predictor state, pending interrupts with their raise
    /// stamps, and trace events.
    #[test]
    fn run_block_matches_single_steps(
        (cfg, pins) in setup(),
        script in proptest::collection::vec(step(), 1..32),
    ) {
        for trace in [false, true] {
            blocks_match_single_steps(cfg, trace, &pins, &script)?;
        }
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
