//! Whole-block execution.
//!
//! A kernel basic block is a fixed instruction sequence at fixed code
//! addresses, so its timing-relevant shape can be lowered once into
//! [`Op`]s: ALU runs that stay within one L1I line, single clz and mul
//! instructions, loads and stores whose address is either fixed (stack,
//! globals) or the block's `i`-th object operand, uncached device
//! accesses and branches. [`Machine::run_block`] charges a whole op list
//! in one call and charges exactly what the one-instruction entry points
//! ([`Machine::exec`], [`Machine::exec_load`], [`Machine::exec_store`],
//! [`Machine::exec_branch`] and [`Machine::advance`] for a device's bus
//! stall) would, instruction by instruction. DESIGN.md §15 gives the
//! argument; `crates/hw/tests/properties.rs` checks it on random blocks.

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

/// Per-block sums, applied to the machine once at block end.
#[derive(Default)]
struct Sums {
    pipeline: Cycles,
    ifetch_miss: Cycles,
    dmiss: Cycles,
    l2: Cycles,
    instructions: u64,
    data_accesses: u64,
    branches: u64,
    /// Fetches that skipped the L1I probe: guaranteed hits.
    line_hits: u64,
}

impl Machine {
    /// Executes one lowered block. `objs` supplies the address of each
    /// [`Operand::Obj`].
    ///
    /// The result equals running every instruction through the
    /// one-instruction entry points: the same cycles, PMU counters,
    /// bucket accounts, per-level cache statistics and cache state, the
    /// same pending interrupts with the same raise stamps, and with
    /// tracing on the same events with the same stamps. It probes the
    /// L1I once per run of same-line fetches, sums the counters, and
    /// ticks the interrupt controller once, at block end.
    ///
    /// # Panics
    ///
    /// Panics if an [`Operand::Obj`] index is out of range for `objs`.
    pub fn run_block(&mut self, ops: &[Op], objs: &[Addr]) {
        if ops.is_empty() {
            return; // no instruction, so no tick either
        }
        let tracing = self.trace.is_enabled();
        let mut sums = Sums::default();
        // Cycle at which the current instruction begins: its trace stamp.
        let mut now = self.pmu.cycles;
        // Whether the line of the last fetch sits in a locked L1I way.
        let mut line_locked = false;
        #[cfg(debug_assertions)]
        let mut last_line: Option<Addr> = None;
        for op in ops {
            #[cfg(debug_assertions)]
            {
                let line = self.mem.l1i.geometry().line_addr(op.pc);
                // The first op has no previous line, so it must probe.
                debug_assert!(
                    op.fetch || last_line == Some(line),
                    "{op:?}: unprobed fetch leaves the line"
                );
                debug_assert!(op.instructions() > 0, "{op:?} is empty");
                let end = op.pc + 4 * (op.instructions() - 1);
                debug_assert_eq!(
                    self.mem.l1i.geometry().line_addr(end),
                    line,
                    "{op:?} crosses a line"
                );
                last_line = Some(line);
            }
            let fetch_cost = if op.fetch {
                let report = self.mem.access_report(AccessKind::IFetch, op.pc);
                if tracing {
                    self.trace.push(TraceEvent::Access {
                        at: now,
                        kind: AccessKind::IFetch,
                        addr: op.pc,
                        report,
                    });
                }
                line_locked = report.locked_hit;
                sums.ifetch_miss += report.miss_cycles;
                sums.l2 += report.l2_absorbed_cycles;
                report.cost()
            } else {
                sums.line_hits += 1;
                if tracing {
                    self.trace_line_hit(now, op.pc, line_locked);
                }
                0
            };
            sums.instructions += 1;
            // The op's pipeline cycles; a data access adds its own latency.
            let pipeline = match op.kind {
                OpKind::Alu(n) => {
                    let base = InstrClass::Alu.base_cost();
                    let rest = Cycles::from(n - 1);
                    sums.line_hits += rest;
                    sums.instructions += rest;
                    if tracing {
                        // The k-th later fetch starts after the first
                        // instruction and k - 1 one-cycle hits.
                        for k in 1..n {
                            let at = now + fetch_cost + base * Cycles::from(k);
                            self.trace_line_hit(at, op.pc + 4 * k, line_locked);
                        }
                    }
                    base * Cycles::from(n)
                }
                OpKind::Clz => InstrClass::Clz.base_cost(),
                OpKind::Mul => InstrClass::Mul.base_cost(),
                OpKind::Load(operand) | OpKind::Store(operand) => {
                    let (kind, class) = match op.kind {
                        OpKind::Load(_) => (AccessKind::Read, InstrClass::Load),
                        _ => (AccessKind::Write, InstrClass::Store),
                    };
                    let addr = match operand {
                        Operand::At(a) => a,
                        Operand::Obj(i) => objs[i as usize],
                    };
                    let report = self.mem.access_report(kind, addr);
                    if tracing {
                        self.trace.push(TraceEvent::Access {
                            at: now,
                            kind,
                            addr,
                            report,
                        });
                    }
                    sums.dmiss += report.miss_cycles;
                    sums.l2 += report.l2_absorbed_cycles;
                    sums.data_accesses += 1;
                    now += report.cost();
                    class.base_cost()
                }
                OpKind::Device(stall) => InstrClass::Alu.base_cost() + Cycles::from(stall),
                OpKind::Branch(taken) => {
                    let (cost, outcome) = self.bpred.branch_traced(op.pc, taken);
                    if tracing {
                        self.trace.push(TraceEvent::Branch {
                            at: now,
                            pc: op.pc,
                            taken,
                            outcome,
                            cost,
                        });
                    }
                    sums.branches += 1;
                    cost
                }
            };
            sums.pipeline += pipeline;
            now += fetch_cost + pipeline;
        }
        self.mem.l1i_stats.hits += sums.line_hits;
        self.accounts.pipeline += sums.pipeline;
        self.accounts.ifetch_miss += sums.ifetch_miss;
        self.accounts.dmiss += sums.dmiss;
        self.accounts.l2 += sums.l2;
        self.pmu.instructions += sums.instructions;
        self.pmu.data_accesses += sums.data_accesses;
        self.pmu.branches += sums.branches;
        self.pmu.cycles = now;
        self.irq.tick(now);
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
        m.run_block(&[alu(0xf000_0000, 8, true)], &[]);
        assert_eq!(m.now(), 60 + 8);
        assert_eq!(m.mem.l1i_stats.misses, 1);
        assert_eq!(m.mem.l1i_stats.hits, 7);
    }

    #[test]
    fn unprobed_successor_hits_and_objects_resolve_in_order() {
        let mut m = Machine::new(HwConfig::default());
        m.trace.enable();
        let ops = [
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
        ];
        m.run_block(&ops, &[0x8000_0040, 0x8000_0000]);
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
        m.run_block(&[op], &[]);
        assert_eq!(m.now(), 60 + 20);
        assert_eq!(m.accounts.pipeline, 20);
        assert_eq!((m.pmu.instructions, m.pmu.data_accesses), (1, 0));
    }
}
