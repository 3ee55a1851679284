//! The assembled machine: CPU timing + memory hierarchy + interrupts.
//!
//! [`Machine`] is what the kernel in `rt-kernel` runs on. Every modelled
//! instruction is charged here: an instruction fetch through the L1 I-cache,
//! a base pipeline cost per [`InstrClass`], and (for loads/stores) a data
//! access through the L1 D-cache. The cycle counter drives the interrupt
//! controller's firing schedule, so device interrupts become pending at
//! precise points in the simulated execution — which is what makes measured
//! interrupt *response* times meaningful.

use crate::cache::Replacement;
use crate::irq::IrqController;
use crate::mem::{AccessKind, MemSystem};
use crate::phys::PhysMem;
use crate::pmu::Pmu;
use crate::predictor::BranchPredictor;
use crate::smp::{self, CoreCtx, IrqRouting};
use crate::trace::{AccessReport, CycleAccounts, Trace, TraceEvent};
use crate::{Addr, Cycles};

/// Instruction classes with distinct base costs on the modelled ARM1136
/// pipeline (single-issue, in-order; hazards beyond memory and branches are
/// not modelled — the paper's analysis uses a detailed pipeline model, but
/// its *results* are dominated by cache and branch behaviour).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstrClass {
    /// Data-processing instruction (1 cycle).
    Alu,
    /// Multiply (2 cycles).
    Mul,
    /// Count-leading-zeros — §3.2: "executes in a single cycle".
    Clz,
    /// Load (1 cycle + D-cache access).
    Load,
    /// Store (1 cycle + D-cache access).
    Store,
    /// Branch (cost from the branch unit).
    Branch,
}

impl InstrClass {
    /// Base pipeline cost, excluding memory and branch-resolution effects.
    pub fn base_cost(self) -> Cycles {
        match self {
            InstrClass::Alu | InstrClass::Clz => 1,
            InstrClass::Mul => 2,
            InstrClass::Load | InstrClass::Store => 1,
            InstrClass::Branch => 0, // fully accounted by the branch unit
        }
    }
}

/// Machine configuration — the four switches the paper's evaluation sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HwConfig {
    /// Enable the unified 128 KiB L2 (and the 96-cycle memory latency).
    pub l2_enabled: bool,
    /// Enable the branch predictor (otherwise every branch costs 5 cycles).
    pub bpred_enabled: bool,
    /// L1 replacement policy.
    pub replacement: Replacement,
    /// Number of L1 ways reserved for pinned lines (0..=3). Applies to both
    /// L1 caches, as in §4 where 1/4 of the cache is locked.
    pub locked_l1_ways: u32,
    /// Number of L2 ways reserved for pinned lines (0..=7). §4 notes the
    /// whole 36 KiB kernel would fit in the 128 KiB L2; locking even one
    /// 16 KiB way realises the paper's proposed "lock the entire seL4
    /// microkernel into the L2 cache" extension. Requires `l2_enabled`.
    pub locked_l2_ways: u32,
}

impl Default for HwConfig {
    /// The paper's measurement baseline (§5.1): L2 disabled, branch
    /// predictor disabled, round-robin replacement, no locked ways.
    fn default() -> HwConfig {
        HwConfig {
            l2_enabled: false,
            bpred_enabled: false,
            replacement: Replacement::RoundRobin,
            locked_l1_ways: 0,
            locked_l2_ways: 0,
        }
    }
}

/// The machine: timing state, memory contents, interrupts, counters.
///
/// `Clone` *is* the machine's snapshot path: every field is plain owned
/// data (physical memory is a sparse chunk map, so cloning costs only the
/// pages actually written), and a clone is bit-identical to the original
/// — running the two forward under the same inputs produces identical
/// cycle counts, cache states and pending-interrupt sets. Stateful
/// exploration (`rt-explore`) leans on this to fork mid-run machine
/// states instead of re-executing from boot; `clone_forks_bit_identical`
/// below pins the contract.
#[derive(Clone, Debug)]
pub struct Machine {
    cfg: HwConfig,
    /// Memory hierarchy (timing).
    pub mem: MemSystem,
    /// Physical memory (contents).
    pub phys: PhysMem,
    /// Branch unit.
    pub bpred: BranchPredictor,
    /// Interrupt controller (the resident core's CPU interface).
    pub irq: IrqController,
    /// Performance counters.
    pub pmu: Pmu,
    /// Always-on per-bucket cycle attribution; invariant:
    /// `accounts.total() == pmu.cycles`.
    pub accounts: CycleAccounts,
    /// Optional event sink (default off — a no-op).
    pub trace: Trace,
    /// Private state of every non-resident core, in core order (empty
    /// on a one-core machine; see [`crate::smp`]).
    pub(crate) parked: Vec<CoreCtx>,
    /// The resident core, whose private state is in the fields above.
    pub(crate) core: u8,
    /// Interrupt distributor: the core each device line is delivered to.
    pub(crate) routing: IrqRouting,
}

impl Machine {
    /// Overwrites this machine with `src` while reusing every heap buffer
    /// already allocated here (cache line arrays, predictor tables, the
    /// physical-memory chunk map, parked cores' contexts). Semantically
    /// identical to `*self = src.clone()`; the schedule explorer restores thousands of
    /// machine snapshots per second, where the allocation traffic of a
    /// fresh clone dominates the copy itself.
    pub fn copy_from(&mut self, src: &Machine) {
        self.cfg = src.cfg;
        self.mem.copy_from(&src.mem);
        self.phys.copy_from(&src.phys);
        self.bpred.copy_from(&src.bpred);
        self.irq.copy_from(&src.irq);
        self.pmu = src.pmu;
        self.accounts = src.accounts;
        self.trace.copy_from(&src.trace);
        smp::copy_parked(&mut self.parked, &src.parked);
        self.core = src.core;
        self.routing = src.routing;
    }

    /// Builds a machine with KZM-board RAM and the given configuration.
    pub fn new(cfg: HwConfig) -> Machine {
        let mut mem = MemSystem::new(cfg.l2_enabled, cfg.replacement);
        if cfg.locked_l1_ways > 0 {
            mem.l1i.lock_ways(cfg.locked_l1_ways);
            mem.l1d.lock_ways(cfg.locked_l1_ways);
        }
        if cfg.locked_l2_ways > 0 {
            let l2 = mem.l2.as_mut().expect("locked_l2_ways requires l2_enabled");
            l2.lock_ways(cfg.locked_l2_ways);
        }
        Machine {
            cfg,
            mem,
            phys: PhysMem::kzm(),
            bpred: BranchPredictor::new(cfg.bpred_enabled),
            irq: IrqController::new(),
            pmu: Pmu::new(),
            accounts: CycleAccounts::default(),
            trace: Trace::new(),
            parked: Vec::new(),
            core: 0,
            routing: IrqRouting::default(),
        }
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> HwConfig {
        self.cfg
    }

    /// Current cycle count.
    pub fn now(&self) -> Cycles {
        self.pmu.cycles
    }

    fn charge(&mut self, cycles: Cycles) {
        self.pmu.cycles += cycles;
        self.irq.tick(self.pmu.cycles);
    }

    /// Advances time without executing instructions (idle / unmodelled user
    /// computation).
    pub fn advance(&mut self, cycles: Cycles) {
        self.accounts.pipeline += cycles;
        self.charge(cycles);
    }

    /// One access through the hierarchy, attributed to the right bucket and
    /// (when tracing) recorded.
    fn mem_access(&mut self, kind: AccessKind, addr: Addr) -> AccessReport {
        let report = self.mem.access_report(kind, addr);
        match kind {
            AccessKind::IFetch => self.accounts.ifetch_miss += report.miss_cycles,
            AccessKind::Read | AccessKind::Write => self.accounts.dmiss += report.miss_cycles,
        }
        self.accounts.l2 += report.l2_absorbed_cycles;
        if self.trace.is_enabled() {
            self.trace.push(TraceEvent::Access {
                at: self.pmu.cycles,
                kind,
                addr,
                report,
            });
        }
        report
    }

    fn ifetch(&mut self, pc: Addr) -> Cycles {
        self.mem_access(AccessKind::IFetch, pc).cost()
    }

    /// Executes one instruction of `class` at `pc`; loads/stores must use
    /// the dedicated entry points.
    pub fn exec(&mut self, class: InstrClass, pc: Addr) {
        debug_assert!(
            !matches!(
                class,
                InstrClass::Load | InstrClass::Store | InstrClass::Branch
            ),
            "use exec_load/exec_store/exec_branch"
        );
        let c = self.ifetch(pc) + class.base_cost();
        self.accounts.pipeline += class.base_cost();
        self.pmu.instructions += 1;
        self.charge(c);
    }

    /// Executes a load at `pc` from data address `addr`; returns the loaded
    /// word from physical memory.
    pub fn exec_load(&mut self, pc: Addr, addr: Addr) -> u32 {
        let c = self.ifetch(pc)
            + InstrClass::Load.base_cost()
            + self.mem_access(AccessKind::Read, addr).cost();
        self.accounts.pipeline += InstrClass::Load.base_cost();
        self.pmu.instructions += 1;
        self.pmu.data_accesses += 1;
        self.charge(c);
        self.phys.read_word(addr & !3)
    }

    /// Executes a store at `pc` of `value` to data address `addr`.
    pub fn exec_store(&mut self, pc: Addr, addr: Addr, value: u32) {
        let c = self.ifetch(pc)
            + InstrClass::Store.base_cost()
            + self.mem_access(AccessKind::Write, addr).cost();
        self.accounts.pipeline += InstrClass::Store.base_cost();
        self.pmu.instructions += 1;
        self.pmu.data_accesses += 1;
        self.charge(c);
        self.phys.write_word(addr & !3, value);
    }

    /// Executes a branch at `pc` with outcome `taken`.
    pub fn exec_branch(&mut self, pc: Addr, taken: bool) {
        let at = self.pmu.cycles;
        let fetch = self.ifetch(pc);
        let (bcost, outcome) = self.bpred.branch_traced(pc, taken);
        self.accounts.pipeline += bcost;
        if self.trace.is_enabled() {
            self.trace.push(TraceEvent::Branch {
                at,
                pc,
                taken,
                outcome,
                cost: bcost,
            });
        }
        self.pmu.instructions += 1;
        self.pmu.branches += 1;
        self.charge(fetch + bcost);
    }

    /// Records a software-declared phase marker (no cycles charged; a no-op
    /// unless tracing is enabled).
    pub fn trace_phase(&mut self, label: &'static str) {
        if self.trace.is_enabled() {
            self.trace.push(TraceEvent::Phase {
                at: self.pmu.cycles,
                label,
            });
        }
    }

    /// Pins an instruction-cache line (for the kernel's pinned interrupt
    /// path). Returns `false` if the locked region of the set is full.
    pub fn pin_icache(&mut self, addr: Addr) -> bool {
        self.mem.l1i.pin(addr)
    }

    /// Pins a data-cache line. Returns `false` if the locked region of the
    /// set is full.
    pub fn pin_dcache(&mut self, addr: Addr) -> bool {
        self.mem.l1d.pin(addr)
    }

    /// Pins a line into the L2's locked ways (the §4/§8 "lock the entire
    /// kernel into the L2" extension). Returns `false` if the locked
    /// region of the set is full.
    ///
    /// # Panics
    ///
    /// Panics if the machine has no L2.
    pub fn pin_l2(&mut self, addr: Addr) -> bool {
        self.mem
            .l2
            .as_mut()
            .expect("pin_l2 requires l2_enabled")
            .pin(addr)
    }

    /// Worst-case preamble: fills all unlocked cache lines with dirty
    /// conflicting data and flushes the predictor (§5.4).
    pub fn pollute(&mut self, pollution_base: Addr) {
        self.mem.pollute_dirty(pollution_base);
        self.bpred.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{LoweredBlock, Op, OpKind, Operand};

    /// `n` ALU instructions from `pc`, one at a time.
    fn straight(m: &mut Machine, pc: Addr, n: u32) {
        for i in 0..n {
            m.exec(InstrClass::Alu, pc + 4 * i);
        }
    }

    #[test]
    fn straight_line_cost_is_fetch_plus_base() {
        let mut m = Machine::new(HwConfig::default());
        let t0 = m.now();
        // 8 ALU instructions in one 32-byte line: 1 I-miss (60) + 8 * 1.
        straight(&mut m, 0xf000_0000, 8);
        assert_eq!(m.now() - t0, 60 + 8);
        // Re-running the same line is all hits.
        let t1 = m.now();
        straight(&mut m, 0xf000_0000, 8);
        assert_eq!(m.now() - t1, 8);
    }

    #[test]
    fn load_pays_both_caches() {
        let mut m = Machine::new(HwConfig::default());
        let t0 = m.now();
        m.exec_load(0xf000_0000, 0x8000_0000);
        // I-miss 60 + base 1 + D-miss 60.
        assert_eq!(m.now() - t0, 121);
    }

    #[test]
    fn store_updates_phys_contents() {
        let mut m = Machine::new(HwConfig::default());
        m.exec_store(0xf000_0000, 0x8000_0100, 7);
        assert_eq!(m.exec_load(0xf000_0004, 0x8000_0100), 7);
    }

    #[test]
    fn branch_cost_constant_when_disabled() {
        let mut m = Machine::new(HwConfig::default());
        m.exec(InstrClass::Alu, 0xf000_0000); // warm the line
        let t0 = m.now();
        m.exec_branch(0xf000_0004, true);
        assert_eq!(m.now() - t0, 5);
    }

    #[test]
    fn clone_forks_bit_identical() {
        // Warm caches, dirty memory, leave an interrupt in flight — then
        // fork. Running original and clone forward under identical inputs
        // must agree on every observable (the snapshot contract stateful
        // exploration relies on).
        let mut m = Machine::new(HwConfig::default());
        straight(&mut m, 0xf000_0000, 8);
        m.exec_store(0xf000_0020, 0x8000_0100, 41);
        m.irq.schedule(m.now() + 10, crate::IrqLine(3));
        let mut f = m.clone();
        assert_eq!(format!("{m:?}"), format!("{f:?}"), "fork diverged at rest");
        for machine in [&mut m, &mut f] {
            machine.advance(12);
            machine.exec_load(0xf000_0020, 0x8000_0100);
            machine.exec_branch(0xf000_0024, true);
        }
        assert_eq!(m.now(), f.now());
        assert!(m.irq.has_pending() && f.irq.has_pending());
        assert_eq!(
            format!("{m:?}"),
            format!("{f:?}"),
            "fork diverged after identical inputs"
        );
    }

    #[test]
    fn interrupts_fire_as_time_advances() {
        let mut m = Machine::new(HwConfig::default());
        m.irq.schedule(100, crate::IrqLine(4));
        m.advance(50);
        assert!(!m.irq.has_pending());
        m.advance(50);
        assert!(m.irq.has_pending());
    }

    #[test]
    fn locked_ways_configured_from_hwconfig() {
        let cfg = HwConfig {
            locked_l1_ways: 1,
            ..HwConfig::default()
        };
        let mut m = Machine::new(cfg);
        assert!(m.pin_icache(0xf000_0000));
        m.pollute(0x4000_0000);
        let t0 = m.now();
        m.exec(InstrClass::Alu, 0xf000_0000);
        assert_eq!(m.now() - t0, 1, "pinned line must hit even after pollution");
    }

    #[test]
    fn accounts_partition_every_cycle() {
        // Mixed workload on both L2 configurations: the four buckets always
        // sum to the PMU cycle counter, and tracing on/off cannot change it.
        for l2 in [false, true] {
            let mut m = Machine::new(HwConfig {
                l2_enabled: l2,
                ..HwConfig::default()
            });
            m.trace.enable();
            m.pollute(0x4000_0000);
            straight(&mut m, 0xf000_0000, 12);
            m.exec_load(0xf000_0030, 0x8000_0000);
            m.exec_store(0xf000_0034, 0x8000_0040, 1);
            m.exec_branch(0xf000_0038, true);
            m.advance(17);
            let block = LoweredBlock::new(vec![
                Op {
                    pc: 0xf000_003c,
                    fetch: true,
                    kind: OpKind::Load(Operand::At(0x8000_0080)),
                },
                Op {
                    pc: 0xf000_0040,
                    fetch: true,
                    kind: OpKind::Store(Operand::Obj(0)),
                },
            ]);
            m.run_block(&block, &[0x8000_00c0]);
            assert_eq!(m.accounts.total(), m.pmu.cycles, "l2={l2}");
            assert!(m.accounts.ifetch_miss > 0 && m.accounts.dmiss > 0);
            assert_eq!(m.accounts.l2 > 0, l2, "L2 bucket only exists with L2");
            assert!(!m.trace.events().is_empty());
        }
    }

    #[test]
    fn trace_records_accesses_branches_and_phases() {
        use crate::trace::TraceEvent;
        let mut m = Machine::new(HwConfig::default());
        m.trace.enable();
        m.exec(InstrClass::Alu, 0xf000_0000);
        m.exec_branch(0xf000_0004, true);
        m.trace_phase("decode");
        let ev = m.trace.take();
        assert!(matches!(ev[0], TraceEvent::Access { .. }));
        // The branch's line was already fetched: second event is the hit,
        // third the branch resolution, fourth the marker.
        assert!(matches!(
            ev[2],
            TraceEvent::Branch {
                pc: 0xf000_0004,
                cost: 5,
                ..
            }
        ));
        assert!(matches!(
            ev[3],
            TraceEvent::Phase {
                label: "decode",
                ..
            }
        ));
    }

    #[test]
    fn l2_config_changes_memory_latency() {
        let mut off = Machine::new(HwConfig::default());
        let mut on = Machine::new(HwConfig {
            l2_enabled: true,
            ..HwConfig::default()
        });
        let a = off.now();
        off.exec_load(0xf000_0000, 0x8000_0000);
        let b = on.now();
        on.exec_load(0xf000_0000, 0x8000_0000);
        // L2 on: both the I-fetch and the load go to DRAM at 96.
        assert_eq!(off.now() - a, 60 + 1 + 60);
        assert_eq!(on.now() - b, 96 + 1 + 96);
    }
}
