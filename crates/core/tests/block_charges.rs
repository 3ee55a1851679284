//! Every kernel block, as `kprog` lowers it, charges the same through
//! `Machine::run_block` with the trace sink off (the dense charge walk),
//! with it on (the op walk), and through the one-instruction entry points.

use rt_hw::{
    Addr, HwConfig, InstrClass, IrqLine, LoweredBlock, Machine, OpKind, Operand, PhysMem,
    Replacement, TraceEvent,
};
use rt_kernel::kprog::{self, Block, Layout};
use rt_kernel::pinning::{pinned_dcache_lines, pinned_icache_lines};

/// The one-instruction reference: every instruction of `block` through
/// `exec`, `exec_load`, `exec_store`, `exec_branch`, and `advance` for a
/// device's stall.
fn single_steps(m: &mut Machine, block: &LoweredBlock, objs: &[Addr]) {
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

/// Object operands for `b`: word addresses over 24 D-cache-conflicting
/// pages, so objects both hit and evict each other.
fn objs(b: Block) -> Vec<Addr> {
    let k = b.index() as u32;
    (0..kprog::compiled(b).obj_ops)
        .map(|i| 0x8000_0000 + (k * 5 + i) % 24 * 4096 + (k * 3 + i) % 8 * 32 + i % 8 * 4)
        .collect()
}

/// How the machine is prepared before the blocks are charged.
#[derive(Clone, Copy, Debug)]
enum Start {
    Cold,
    /// Every unlocked line dirty and conflicting, predictor flushed.
    Polluted,
    /// Every block already charged once.
    Warmed,
}

/// A machine for `cfg` with the §4 working set pinned when it has locked
/// L1 ways, prepared as `start` says, with interrupts scheduled to be
/// raised in the middle of later blocks.
fn machine(cfg: HwConfig, start: Start) -> Machine {
    let mut m = Machine::new(cfg);
    // The one-instruction loads and stores also move data. RAM from the
    // objects up through the kernel's stack and globals gives them
    // somewhere to; `run_block` charges time and moves no data.
    m.phys = PhysMem::new(0x8000_0000, 0x7020_0000);
    if cfg.locked_l1_ways > 0 {
        for line in pinned_icache_lines(&Layout::new()) {
            m.pin_icache(line);
        }
        for line in pinned_dcache_lines() {
            m.pin_dcache(line);
        }
    }
    match start {
        Start::Cold => {}
        Start::Polluted => m.pollute(0x4000_0000),
        Start::Warmed => {
            for &b in Block::ALL {
                single_steps(&mut m, &kprog::compiled(b).lowered, &objs(b));
            }
        }
    }
    for (k, delay) in [37, 1_001, 4_099, 12_345, 30_011].into_iter().enumerate() {
        let at = m.now() + delay;
        m.irq.schedule(at, IrqLine(k as u8));
    }
    m
}

#[test]
fn every_kernel_block_charges_alike_on_both_paths_and_single_steps() {
    let policies = [
        Replacement::RoundRobin,
        Replacement::PseudoRandom { seed: 0xace1 },
    ];
    for l2_enabled in [false, true] {
        for bpred_enabled in [false, true] {
            for locked_l1_ways in [0, 1] {
                for replacement in policies {
                    let cfg = HwConfig {
                        l2_enabled,
                        bpred_enabled,
                        replacement,
                        locked_l1_ways,
                        locked_l2_ways: 0,
                    };
                    for start in [Start::Cold, Start::Polluted, Start::Warmed] {
                        check(cfg, start);
                    }
                }
            }
        }
    }
}

/// Charges every block twice over, in layout order, on three copies of
/// one machine, and compares them after every block and at the end.
fn check(cfg: HwConfig, start: Start) {
    let reference = machine(cfg, start);
    let mut untraced = reference.clone();
    let mut traced = reference.clone();
    let mut stepped = reference;
    traced.trace.enable();
    stepped.trace.enable();
    for pass in 0..2 {
        for &b in Block::ALL {
            let (code, objs) = (&kprog::compiled(b).lowered, objs(b));
            untraced.run_block(code, &objs);
            traced.run_block(code, &objs);
            single_steps(&mut stepped, code, &objs);
            let at = format!("{cfg:?} {start:?} pass {pass} {b:?}");
            for (path, m) in [("untraced", &untraced), ("traced", &traced)] {
                assert_eq!(m.pmu, stepped.pmu, "{path} {at}");
                assert_eq!(m.accounts, stepped.accounts, "{path} {at}");
                assert_eq!(m.mem.l1i_stats, stepped.mem.l1i_stats, "{path} {at}");
                assert_eq!(m.mem.l1d_stats, stepped.mem.l1d_stats, "{path} {at}");
                assert_eq!(m.mem.l2_stats, stepped.mem.l2_stats, "{path} {at}");
            }
        }
    }
    let at = format!("{cfg:?} {start:?}");
    // The run reached hits and misses, locked hits when ways are
    // locked, and predicted and mispredicted branches when predicting.
    let (l1i, l1d) = (stepped.mem.l1i_stats, stepped.mem.l1d_stats);
    assert!(
        l1i.hits > 0 && l1i.misses > 0 && l1d.hits > 0 && l1d.misses > 0,
        "{at}"
    );
    let locked_hits = stepped
        .trace
        .events()
        .iter()
        .any(|e| matches!(e, TraceEvent::Access { report, .. } if report.locked_hit));
    assert_eq!(locked_hits, cfg.locked_l1_ways > 0, "{at}");
    let (predicts, mispredicts) = (stepped.bpred.predicts, stepped.bpred.mispredicts);
    assert_eq!(predicts > 0 && mispredicts > 0, cfg.bpred_enabled, "{at}");
    for (path, m) in [("untraced", &untraced), ("traced", &traced)] {
        assert!(
            format!("{:?}", m.mem) == format!("{:?}", stepped.mem),
            "{path} caches diverged: {at}"
        );
        assert!(
            format!("{:?}", m.bpred) == format!("{:?}", stepped.bpred),
            "{path} predictors diverged: {at}"
        );
        assert_eq!(
            format!("{:?}", m.irq),
            format!("{:?}", stepped.irq),
            "{path} {at}"
        );
    }
    assert!(
        traced.trace.events() == stepped.trace.events(),
        "trace events differ: {at}"
    );
}
