//! Whole-block execution.
//!
//! A kernel basic block is a fixed instruction sequence at fixed code
//! addresses, so its timing-relevant shape can be lowered once into
//! [`Op`]s: ALU runs that stay within one L1I line, single clz and mul
//! instructions, loads and stores whose address is either fixed (stack,
//! globals) or the block's `i`-th object operand, uncached device
//! accesses and branches. [`LoweredBlock::new`] takes those ops and also
//! builds the block's dense charge form: the sums that do not depend on
//! machine state (base pipeline cycles, instruction, data-access, branch
//! and same-line-hit counts), and, in instruction order, only the steps
//! that do (L1I probes, data accesses and branches).
//!
//! [`Machine::run_block`] charges a whole block in one call and charges
//! exactly what the one-instruction entry points ([`Machine::exec`],
//! [`Machine::exec_load`], [`Machine::exec_store`],
//! [`Machine::exec_branch`] and [`Machine::advance`] for a device's bus
//! stall) would, instruction by instruction. Untraced, it walks the dense
//! form; traced, it walks the ops, since each instruction then needs a
//! stamped event. DESIGN.md §15 gives the argument;
//! `crates/hw/tests/properties.rs` checks it on random blocks.

use crate::cache::CacheGeometry;
use crate::machine::{InstrClass, Machine};
use crate::mem::AccessKind;
use crate::trace::{AccessReport, TraceEvent};
use crate::{Addr, Cycles};

/// Where a load or store finds its data address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// A fixed address, resolved when the block was lowered.
    At(Addr),
    /// The `i`-th address of the object operands passed to
    /// [`Machine::run_block`].
    Obj(u32),
}

/// What an [`Op`] executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `n` ALU instructions at `pc, pc + 4, ...`, all in `pc`'s L1I line.
    Alu(u32),
    /// Count-leading-zeros.
    Clz,
    /// Multiply.
    Mul,
    /// A load.
    Load(Operand),
    /// A store.
    Store(Operand),
    /// An uncached device-register access: an ALU instruction's fetch and
    /// base cycle, then `stall` pipeline cycles of bus latency.
    Device(u32),
    /// A branch with the given outcome.
    Branch(bool),
}

/// One step of a lowered block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Address of the op's first instruction.
    pub pc: Addr,
    /// Whether the first fetch probes the L1I. It may be `false` only
    /// when the block's previous instruction was fetched from the same
    /// L1I line; the first op of a block always probes.
    pub fetch: bool,
    /// What the op executes.
    pub kind: OpKind,
}

impl Op {
    /// Number of machine instructions the op stands for.
    pub fn instructions(&self) -> u32 {
        match self.kind {
            OpKind::Alu(n) => n,
            _ => 1,
        }
    }
}

impl OpKind {
    /// Pipeline cycles the op costs whatever the machine state: its
    /// instructions' base costs and a device's bus stall. A data access's
    /// latency and a branch's cost come on top.
    fn base_cycles(self) -> Cycles {
        match self {
            OpKind::Alu(n) => InstrClass::Alu.base_cost() * Cycles::from(n),
            OpKind::Clz => InstrClass::Clz.base_cost(),
            OpKind::Mul => InstrClass::Mul.base_cost(),
            OpKind::Load(_) => InstrClass::Load.base_cost(),
            OpKind::Store(_) => InstrClass::Store.base_cost(),
            OpKind::Device(stall) => InstrClass::Alu.base_cost() + Cycles::from(stall),
            OpKind::Branch(_) => InstrClass::Branch.base_cost(),
        }
    }
}

/// A step of a block whose cost depends on machine state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Charge {
    /// An L1I probe for the fetch at this address.
    Fetch(Addr),
    /// A data read.
    Load(Operand),
    /// A data write.
    Store(Operand),
    /// A branch at `pc` with the given outcome.
    Branch(Addr, bool),
}

/// A lowered block: its ops, and its dense charge form, both fixed when
/// the block is built.
#[derive(Clone, Debug)]
pub struct LoweredBlock {
    ops: Box<[Op]>,
    /// The probed fetches, data accesses and branches, in instruction
    /// order, a fetch before its instruction's data access or branch.
    charges: Box<[Charge]>,
    /// Base pipeline cycles of every non-branch instruction, device
    /// stalls included.
    pipeline: Cycles,
    instructions: u64,
    data_accesses: u64,
    branches: u64,
    /// Fetches that skip the L1I probe: guaranteed hits.
    line_hits: u64,
}

impl LoweredBlock {
    /// Builds a block from its ops, in execution order.
    ///
    /// # Panics
    ///
    /// Panics if an op stands for no instruction or crosses an L1I line,
    /// or if an op skips its probe (`fetch == false`) when the block's
    /// previous instruction was not fetched from the same line; the first
    /// op must probe.
    pub fn new(ops: Vec<Op>) -> LoweredBlock {
        let geom = CacheGeometry::L1;
        let mut charges = Vec::new();
        let (mut pipeline, mut instructions, mut line_hits) = (0, 0, 0);
        let (mut data_accesses, mut branches) = (0, 0);
        let mut last_line = None;
        for op in &ops {
            let n = op.instructions();
            assert!(n > 0, "{op:?} is empty");
            let line = geom.line_addr(op.pc);
            let end = geom.line_addr(op.pc + 4 * (n - 1));
            assert_eq!(end, line, "{op:?} crosses a line");
            assert!(
                op.fetch || last_line == Some(line),
                "{op:?}: unprobed fetch leaves the line"
            );
            last_line = Some(line);
            if op.fetch {
                charges.push(Charge::Fetch(op.pc));
            }
            pipeline += op.kind.base_cycles();
            instructions += u64::from(n);
            line_hits += u64::from(n) - u64::from(op.fetch);
            match op.kind {
                OpKind::Load(o) => {
                    data_accesses += 1;
                    charges.push(Charge::Load(o));
                }
                OpKind::Store(o) => {
                    data_accesses += 1;
                    charges.push(Charge::Store(o));
                }
                OpKind::Branch(taken) => {
                    branches += 1;
                    charges.push(Charge::Branch(op.pc, taken));
                }
                OpKind::Alu(_) | OpKind::Clz | OpKind::Mul | OpKind::Device(_) => {}
            }
        }
        LoweredBlock {
            ops: ops.into(),
            charges: charges.into(),
            pipeline,
            instructions,
            data_accesses,
            branches,
            line_hits,
        }
    }

    /// The block's ops, in execution order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }
}

/// A block's state-dependent cycles, summed over its charges.
#[derive(Default)]
struct Sums {
    branch: Cycles,
    ifetch_miss: Cycles,
    dmiss: Cycles,
    l2: Cycles,
}

impl Sums {
    fn total(&self) -> Cycles {
        self.branch + self.ifetch_miss + self.dmiss + self.l2
    }
}

impl Machine {
    /// Executes one lowered block. `objs` supplies the address of each
    /// [`Operand::Obj`].
    ///
    /// The result equals running every instruction through the
    /// one-instruction entry points: the same cycles, PMU counters,
    /// bucket accounts, per-level cache statistics and cache state, the
    /// same predictor state, the same pending interrupts with the same
    /// raise stamps, and with tracing on the same events with the same
    /// stamps. With the trace sink off it walks only the block's probed
    /// fetches, data accesses and branches, in order, and adds the
    /// block's precomputed sums; with it on it walks the ops, stamping
    /// each instruction's events. Either way it ticks the interrupt
    /// controller once, at block end.
    ///
    /// # Panics
    ///
    /// Panics if an [`Operand::Obj`] index is out of range for `objs`.
    pub fn run_block(&mut self, block: &LoweredBlock, objs: &[Addr]) {
        if block.instructions == 0 {
            return; // no instruction, so no tick either
        }
        let sums = if self.trace.is_enabled() {
            self.walk_ops_traced(block, objs)
        } else {
            self.walk_charges(block, objs)
        };
        let pipeline = block.pipeline + sums.branch;
        self.mem.l1i_stats.hits += block.line_hits;
        self.accounts.pipeline += pipeline;
        self.accounts.ifetch_miss += sums.ifetch_miss;
        self.accounts.dmiss += sums.dmiss;
        self.accounts.l2 += sums.l2;
        self.pmu.instructions += block.instructions;
        self.pmu.data_accesses += block.data_accesses;
        self.pmu.branches += block.branches;
        self.pmu.cycles += block.pipeline + sums.total();
        self.irq.tick(self.pmu.cycles);
    }

    /// The untraced walk: every probed fetch, data access and branch of
    /// `block`, in order, and nothing else.
    fn walk_charges(&mut self, block: &LoweredBlock, objs: &[Addr]) -> Sums {
        let mut sums = Sums::default();
        for &charge in block.charges.iter() {
            let (kind, addr) = match charge {
                Charge::Fetch(pc) => {
                    let report = self.mem.access_report(AccessKind::IFetch, pc);
                    sums.ifetch_miss += report.miss_cycles;
                    sums.l2 += report.l2_absorbed_cycles;
                    continue;
                }
                Charge::Branch(pc, taken) => {
                    sums.branch += self.bpred.branch_traced(pc, taken).0;
                    continue;
                }
                Charge::Load(o) => (AccessKind::Read, resolve(o, objs)),
                Charge::Store(o) => (AccessKind::Write, resolve(o, objs)),
            };
            let report = self.mem.access_report(kind, addr);
            sums.dmiss += report.miss_cycles;
            sums.l2 += report.l2_absorbed_cycles;
        }
        sums
    }

    /// The traced walk: `block`'s ops, recording each instruction's
    /// events stamped with the cycle it begins at.
    fn walk_ops_traced(&mut self, block: &LoweredBlock, objs: &[Addr]) -> Sums {
        let mut sums = Sums::default();
        // Cycle at which the current instruction begins: its trace stamp.
        let mut now = self.pmu.cycles;
        // Whether the line of the last fetch sits in a locked L1I way.
        let mut line_locked = false;
        for op in block.ops.iter() {
            let fetch_cost = if op.fetch {
                let report = self.mem.access_report(AccessKind::IFetch, op.pc);
                self.trace.push(TraceEvent::Access {
                    at: now,
                    kind: AccessKind::IFetch,
                    addr: op.pc,
                    report,
                });
                line_locked = report.locked_hit;
                sums.ifetch_miss += report.miss_cycles;
                sums.l2 += report.l2_absorbed_cycles;
                report.cost()
            } else {
                self.trace_line_hit(now, op.pc, line_locked);
                0
            };
            // The op's pipeline cycles; a data access adds its own latency.
            let pipeline = match op.kind {
                OpKind::Alu(n) => {
                    // The k-th later fetch starts after the first
                    // instruction and k - 1 one-cycle hits.
                    let base = InstrClass::Alu.base_cost();
                    for k in 1..n {
                        let at = now + fetch_cost + base * Cycles::from(k);
                        self.trace_line_hit(at, op.pc + 4 * k, line_locked);
                    }
                    op.kind.base_cycles()
                }
                OpKind::Load(o) | OpKind::Store(o) => {
                    let kind = match op.kind {
                        OpKind::Load(_) => AccessKind::Read,
                        _ => AccessKind::Write,
                    };
                    let addr = resolve(o, objs);
                    let report = self.mem.access_report(kind, addr);
                    self.trace.push(TraceEvent::Access {
                        at: now,
                        kind,
                        addr,
                        report,
                    });
                    sums.dmiss += report.miss_cycles;
                    sums.l2 += report.l2_absorbed_cycles;
                    now += report.cost();
                    op.kind.base_cycles()
                }
                OpKind::Branch(taken) => {
                    let (cost, outcome) = self.bpred.branch_traced(op.pc, taken);
                    self.trace.push(TraceEvent::Branch {
                        at: now,
                        pc: op.pc,
                        taken,
                        outcome,
                        cost,
                    });
                    sums.branch += cost;
                    cost
                }
                OpKind::Clz | OpKind::Mul | OpKind::Device(_) => op.kind.base_cycles(),
            };
            now += fetch_cost + pipeline;
        }
        debug_assert_eq!(now, self.pmu.cycles + block.pipeline + sums.total());
        sums
    }

    /// Records the `Access` event of a fetch that hit the line the
    /// previous fetch left resident.
    fn trace_line_hit(&mut self, at: Cycles, pc: Addr, locked_hit: bool) {
        self.trace.push(TraceEvent::Access {
            at,
            kind: AccessKind::IFetch,
            addr: pc,
            report: AccessReport {
                l1_hit: true,
                locked_hit,
                ..AccessReport::default()
            },
        });
    }
}

/// The data address `operand` names, given the block's object operands.
fn resolve(operand: Operand, objs: &[Addr]) -> Addr {
    match operand {
        Operand::At(a) => a,
        Operand::Obj(i) => objs[i as usize],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HwConfig;

    fn alu(pc: Addr, n: u32, fetch: bool) -> Op {
        Op {
            pc,
            fetch,
            kind: OpKind::Alu(n),
        }
    }

    #[test]
    fn line_run_pays_one_fill() {
        let mut m = Machine::new(HwConfig::default());
        // 8 ALU instructions in one 32-byte line: 1 I-miss (60) + 8 * 1.
        m.run_block(&LoweredBlock::new(vec![alu(0xf000_0000, 8, true)]), &[]);
        assert_eq!(m.now(), 60 + 8);
        assert_eq!(m.mem.l1i_stats.misses, 1);
        assert_eq!(m.mem.l1i_stats.hits, 7);
    }

    #[test]
    fn unprobed_successor_hits_and_objects_resolve_in_order() {
        let mut m = Machine::new(HwConfig::default());
        m.trace.enable();
        let block = LoweredBlock::new(vec![
            alu(0xf000_0000, 2, true),
            Op {
                pc: 0xf000_0008,
                fetch: false,
                kind: OpKind::Load(Operand::Obj(1)),
            },
            Op {
                pc: 0xf000_000c,
                fetch: false,
                kind: OpKind::Store(Operand::Obj(0)),
            },
            Op {
                pc: 0xf000_0010,
                fetch: false,
                kind: OpKind::Branch(true),
            },
        ]);
        m.run_block(&block, &[0x8000_0040, 0x8000_0000]);
        // I-miss 60 + 2 ALU, load: 1 + D-miss 60, store: 1 + D-miss 60,
        // branch: 5 (predictor off).
        assert_eq!(m.now(), 60 + 2 + 61 + 61 + 5);
        assert_eq!(m.accounts.total(), m.now());
        assert_eq!(
            (m.pmu.instructions, m.pmu.data_accesses, m.pmu.branches),
            (5, 2, 1)
        );
        let reads: Vec<Addr> = m
            .trace
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Access {
                    kind: AccessKind::Read | AccessKind::Write,
                    addr,
                    ..
                } => Some(addr),
                _ => None,
            })
            .collect();
        assert_eq!(reads, [0x8000_0000, 0x8000_0040]);
    }

    #[test]
    fn device_access_stalls_the_pipeline() {
        let mut m = Machine::new(HwConfig::default());
        let op = Op {
            pc: 0xf000_0000,
            fetch: true,
            kind: OpKind::Device(19),
        };
        m.run_block(&LoweredBlock::new(vec![op]), &[]);
        assert_eq!(m.now(), 60 + 20);
        assert_eq!(m.accounts.pipeline, 20);
        assert_eq!((m.pmu.instructions, m.pmu.data_accesses), (1, 0));
    }
}
