//! SMP core multiplexing: per-core private machine state.
//!
//! The workspace models an N-core machine by *multiplexing* one
//! [`Machine`] across cores: everything private to a core — its L1
//! caches, branch predictor, interrupt-controller CPU interface, PMU,
//! cycle accounts and trace sink — lives in a [`CoreCtx`]. The machine
//! keeps the *resident* core's context in its own fields and parks every
//! other core's context; [`Machine::switch_core`] makes another core
//! resident by exchanging contexts (pointer swaps, no copying). What is
//! *not* swapped is exactly what a real i.MX31-style SMP part physically
//! shares: physical memory and the unified L2. A burst of misses on one
//! core therefore evicts another core's L2-resident lines for real — the
//! cross-core interference that `rt-wcet`'s SMP bound must dominate.
//!
//! Clock model: each core's PMU cycle counter advances only while that
//! core is resident, so per-core clocks are independent and the driver
//! (kernel, load engine, explorer) interleaves cores at event
//! granularity. Cross-core timestamps (IPI raise times, lock-hold
//! overlap) are compared with saturating arithmetic and documented as a
//! model, not a cycle-true global clock.
//!
//! A one-core machine parks no context, and switching to the resident
//! core is a no-op, so single-core behaviour is bit-identical by
//! construction.

use crate::cache::Cache;
use crate::irq::{IrqController, IrqLine, NUM_LINES};
use crate::machine::{HwConfig, Machine};
use crate::mem::{MemLevelStats, MemSystem};
use crate::pmu::Pmu;
use crate::predictor::BranchPredictor;
use crate::trace::{CycleAccounts, Trace};
use crate::Cycles;

/// One core's private machine state, parked in the [`Machine`] while the
/// core is not resident.
#[derive(Clone, Debug)]
pub struct CoreCtx {
    /// Private L1 instruction cache.
    pub l1i: Cache,
    /// Private L1 data cache.
    pub l1d: Cache,
    /// L1-I access statistics.
    pub l1i_stats: MemLevelStats,
    /// L1-D access statistics.
    pub l1d_stats: MemLevelStats,
    /// Private branch predictor.
    pub bpred: BranchPredictor,
    /// Per-core interrupt-controller CPU interface (GIC-style: the
    /// distributor routes each line to exactly one core's interface).
    pub irq: IrqController,
    /// Per-core cycle counter and event counts.
    pub pmu: Pmu,
    /// Per-core cycle attribution (`accounts.total() == pmu.cycles`
    /// holds per core).
    pub accounts: CycleAccounts,
    /// Per-core trace sink.
    pub trace: Trace,
}

impl CoreCtx {
    /// Builds a cold secondary-core context for a machine configured
    /// with `cfg` (same L1 geometry, replacement policy and locked-way
    /// reservation as the boot core).
    pub fn new(cfg: HwConfig) -> CoreCtx {
        // Borrow MemSystem's L1 construction so the geometry can never
        // drift from the boot core's; the scratch L2 is discarded.
        let mut mem = MemSystem::new(false, cfg.replacement);
        if cfg.locked_l1_ways > 0 {
            mem.l1i.lock_ways(cfg.locked_l1_ways);
            mem.l1d.lock_ways(cfg.locked_l1_ways);
        }
        CoreCtx {
            l1i: mem.l1i,
            l1d: mem.l1d,
            l1i_stats: MemLevelStats::default(),
            l1d_stats: MemLevelStats::default(),
            bpred: BranchPredictor::new(cfg.bpred_enabled),
            irq: IrqController::new(),
            pmu: Pmu::new(),
            accounts: CycleAccounts::default(),
            trace: Trace::new(),
        }
    }

    /// Reuses `self`'s buffers to become a copy of `src` (the
    /// restore-path analogue of [`Machine::copy_from`]).
    pub fn copy_from(&mut self, src: &CoreCtx) {
        self.l1i.copy_from(&src.l1i);
        self.l1d.copy_from(&src.l1d);
        self.l1i_stats = src.l1i_stats;
        self.l1d_stats = src.l1d_stats;
        self.bpred.copy_from(&src.bpred);
        self.irq.copy_from(&src.irq);
        self.pmu = src.pmu;
        self.accounts = src.accounts;
        self.trace.copy_from(&src.trace);
    }
}

/// Overwrites `dst` with `src` element-wise through
/// [`CoreCtx::copy_from`], truncating or extending when the core counts
/// differ, so a restore across machine shapes is exact.
pub(crate) fn copy_parked(dst: &mut Vec<CoreCtx>, src: &[CoreCtx]) {
    dst.truncate(src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        d.copy_from(s);
    }
    let n = dst.len();
    dst.extend_from_slice(&src[n..]);
}

/// GIC-style distributor state: which core's CPU interface each
/// interrupt line is delivered to. Lines default to core 0, preserving
/// single-core behaviour for every pre-SMP caller.
#[derive(Clone, Copy, Debug)]
pub struct IrqRouting {
    route: [u8; NUM_LINES as usize],
}

impl Default for IrqRouting {
    fn default() -> IrqRouting {
        IrqRouting {
            route: [0; NUM_LINES as usize],
        }
    }
}

impl IrqRouting {
    /// Routes `line` to `core`'s CPU interface.
    pub fn set(&mut self, line: IrqLine, core: u8) {
        self.route[line.0 as usize] = core;
    }

    /// The core `line` is delivered to.
    pub fn core_of(&self, line: IrqLine) -> u8 {
        self.route[line.0 as usize]
    }
}

impl Machine {
    /// Number of cores (1 until [`Self::set_cores`]).
    pub fn n_cores(&self) -> u8 {
        self.parked.len() as u8 + 1
    }

    /// The resident core: the one whose private state sits in the
    /// machine's own fields and which every instruction is charged to.
    pub fn core(&self) -> u8 {
        self.core
    }

    /// Gives the machine `n` cores. The resident core keeps its state;
    /// every added core boots cold with the boot core's configuration.
    ///
    /// # Panics
    ///
    /// If `n` is 0 or would drop the resident core.
    pub fn set_cores(&mut self, n: u8) {
        assert!(n > self.core, "set_cores({n}) drops the resident core");
        let cfg = self.config();
        self.parked
            .resize_with(usize::from(n) - 1, || CoreCtx::new(cfg));
    }

    /// Makes core `c` resident, parking the current resident core's
    /// private state. O(1) in the context size; a no-op when `c` is
    /// already resident.
    pub fn switch_core(&mut self, c: u8) {
        if c == self.core {
            return;
        }
        assert!(c < self.n_cores(), "core {c} out of range");
        let mut ctx = self.parked.remove(self.slot(c));
        self.swap_core(&mut ctx);
        let prev = std::mem::replace(&mut self.core, c);
        self.parked.insert(self.slot(prev), ctx);
    }

    /// Interrupt-controller interface of core `c`.
    pub fn core_irq(&self, c: u8) -> &IrqController {
        if c == self.core {
            &self.irq
        } else {
            &self.parked[self.slot(c)].irq
        }
    }

    /// Mutable interrupt-controller interface of core `c`.
    pub fn core_irq_mut(&mut self, c: u8) -> &mut IrqController {
        if c == self.core {
            &mut self.irq
        } else {
            let i = self.slot(c);
            &mut self.parked[i].irq
        }
    }

    /// Local cycle counter of core `c`.
    pub fn core_now(&self, c: u8) -> Cycles {
        if c == self.core {
            self.now()
        } else {
            self.parked[self.slot(c)].pmu.cycles
        }
    }

    /// Raises `line` on core `c`'s interface, stamped with core `c`'s own
    /// clock.
    pub fn raise_on(&mut self, c: u8, line: IrqLine) {
        let at = self.core_now(c);
        self.core_irq_mut(c).raise(line, at);
    }

    /// Routes device line `line` to core `core`'s interrupt interface.
    /// Advisory for the *driver* layer (explorer, load engine): drivers
    /// consult [`Self::irq_route`] to pick the core to raise on.
    pub fn route_irq(&mut self, line: IrqLine, core: u8) {
        assert!(core < self.n_cores(), "core {core} out of range");
        self.routing.set(line, core);
    }

    /// The core `line` is routed to (0 unless [`Self::route_irq`] moved
    /// it).
    pub fn irq_route(&self, line: IrqLine) -> u8 {
        self.routing.core_of(line)
    }

    /// Index of non-resident core `c` in `parked`, which holds every
    /// other core in core order.
    fn slot(&self, c: u8) -> usize {
        usize::from(c) - usize::from(c > self.core)
    }

    /// Exchanges the machine's resident per-core private state with the
    /// parked context `ctx`. Physical memory, the shared L2 and its
    /// statistics stay resident — they are physically shared.
    fn swap_core(&mut self, ctx: &mut CoreCtx) {
        std::mem::swap(&mut self.mem.l1i, &mut ctx.l1i);
        std::mem::swap(&mut self.mem.l1d, &mut ctx.l1d);
        std::mem::swap(&mut self.mem.l1i_stats, &mut ctx.l1i_stats);
        std::mem::swap(&mut self.mem.l1d_stats, &mut ctx.l1d_stats);
        std::mem::swap(&mut self.bpred, &mut ctx.bpred);
        std::mem::swap(&mut self.irq, &mut ctx.irq);
        std::mem::swap(&mut self.pmu, &mut ctx.pmu);
        std::mem::swap(&mut self.accounts, &mut ctx.accounts);
        std::mem::swap(&mut self.trace, &mut ctx.trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::InstrClass;

    fn two_core_l2_machine() -> Machine {
        let mut m = Machine::new(HwConfig {
            l2_enabled: true,
            ..HwConfig::default()
        });
        m.set_cores(2);
        m
    }

    #[test]
    fn swap_core_preserves_per_core_clocks_and_shares_l2() {
        let mut m = two_core_l2_machine();

        // Core 0 warms a kernel line into L1 and (via the miss) the L2.
        for i in 0..8 {
            m.exec(InstrClass::Alu, 0xf000_0000 + 4 * i);
        }
        let core0_cycles = m.now();
        assert!(core0_cycles > 0);

        // Switch to core 1: fresh clock, cold private L1 — but the
        // shared L2 already holds core 0's line, so the first fetch is
        // an L2 hit (26), not a DRAM access (96).
        m.switch_core(1);
        assert_eq!(m.now(), 0, "core 1 boots with its own clock");
        assert_eq!(m.core_now(0), core0_cycles, "core 0's clock is parked");
        let t0 = m.now();
        m.exec(InstrClass::Alu, 0xf000_0000);
        assert_eq!(m.now() - t0, 26 + 1, "core 1 must hit the shared L2");

        // Switch back: core 0's clock, L1 and accounts are untouched.
        m.switch_core(0);
        assert_eq!(m.now(), core0_cycles);
        assert_eq!(m.accounts.total(), m.pmu.cycles);
        let t1 = m.now();
        m.exec(InstrClass::Alu, 0xf000_0000);
        assert_eq!(m.now() - t1, 1, "core 0's private L1 line survived");
    }

    #[test]
    fn cross_core_l2_eviction_is_real() {
        let mut m = two_core_l2_machine();

        m.exec(InstrClass::Alu, 0xf000_0000); // core 0: line now in L1+L2
        m.switch_core(1);
        m.pollute(0x4000_0000); // core 1 thrashes the shared L2
        m.switch_core(0);

        // Core 0's private L1 still hits...
        let t0 = m.now();
        m.exec(InstrClass::Alu, 0xf000_0000);
        assert_eq!(m.now() - t0, 1);
        // ...but after its own L1 copy is invalidated, the L2 copy is
        // gone too: full DRAM latency.
        m.mem.l1i.invalidate_unlocked();
        let t1 = m.now();
        m.exec(InstrClass::Alu, 0xf000_0000);
        // DRAM refill (96) plus the dirty L2 victim the thrasher left
        // in the set (96), plus the ALU cycle.
        assert_eq!(
            m.now() - t1,
            96 + 96 + 1,
            "core 1's pollution evicted the L2 line"
        );
    }

    #[test]
    fn switch_core_keeps_each_parked_context_with_its_core() {
        let mut m = Machine::new(HwConfig::default());
        m.set_cores(4);
        // Give every core a distinct clock, visiting them out of order.
        for c in [2u8, 0, 3, 1] {
            m.switch_core(c);
            m.advance(100 * (u64::from(c) + 1));
        }
        for resident in [3u8, 0, 2, 1, 3] {
            m.switch_core(resident);
            assert_eq!(m.core(), resident);
            for c in 0..4u8 {
                assert_eq!(m.core_now(c), 100 * (u64::from(c) + 1), "core {c}");
            }
        }
        // A raise lands on the named core, stamped with its own clock.
        m.raise_on(1, IrqLine(7));
        assert!(m.core_irq(1).is_pending(IrqLine(7)));
        assert!(!m.irq.has_pending(), "resident core 3 untouched");
        m.switch_core(1);
        assert_eq!(m.irq.ack(IrqLine(7)), Some(200));
    }

    #[test]
    fn routing_defaults_to_core0() {
        let mut r = IrqRouting::default();
        assert_eq!(r.core_of(IrqLine(5)), 0);
        r.set(IrqLine(5), 2);
        assert_eq!(r.core_of(IrqLine(5)), 2);
        assert_eq!(r.core_of(IrqLine(6)), 0);
    }
}
