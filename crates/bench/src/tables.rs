//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each function returns a structured result and a `render()` that prints
//! it in the paper's layout, so `repro <id>` output can be placed next to
//! the paper for comparison. Paper values are included in the rendered
//! output (from the EuroSys'12 text) so the shape comparison is immediate.

use rt_hw::{cycles_to_us, Cycles, HwConfig};
use rt_kernel::kernel::{EntryPoint, Kernel, KernelConfig, SchedKind};
use rt_wcet::AnalysisConfig;

use crate::observe::observe_entry_reps;
use crate::sweep::SweepCtx;

fn hw(l2: bool, bpred: bool, locked_ways: u32) -> HwConfig {
    HwConfig {
        l2_enabled: l2,
        bpred_enabled: bpred,
        locked_l1_ways: locked_ways,
        ..HwConfig::default()
    }
}

fn acfg(kernel: KernelConfig, l2: bool, pinning: bool) -> AnalysisConfig {
    AnalysisConfig {
        kernel,
        l2,
        pinning,
        l2_kernel_locked: false,
        manual_constraints: true,
    }
}

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Entry point.
    pub entry: EntryPoint,
    /// Computed WCET without pinning (cycles).
    pub without: Cycles,
    /// Computed WCET with the §4 pinned set (cycles).
    pub with: Cycles,
}

impl Table1Row {
    /// Percentage gain from pinning.
    pub fn gain(&self) -> f64 {
        100.0 * (1.0 - self.with as f64 / self.without as f64)
    }
}

/// Table 1: computed WCET per entry point, with vs without cache pinning
/// (§4), after-kernel, L2 off. The eight analyses are batched across the
/// context's pool and memoized in its cache.
pub fn table1_with(ctx: &SweepCtx) -> Vec<Table1Row> {
    let jobs: Vec<_> = EntryPoint::ALL
        .into_iter()
        .flat_map(|e| {
            [
                (e, acfg(KernelConfig::after(), false, false)),
                (e, acfg(KernelConfig::after(), false, true)),
            ]
        })
        .collect();
    let reports = ctx.analyze_batch(&jobs);
    EntryPoint::ALL
        .into_iter()
        .enumerate()
        .map(|(i, e)| Table1Row {
            entry: e,
            without: reports[2 * i].cycles,
            with: reports[2 * i + 1].cycles,
        })
        .collect()
}

/// Renders Table 1 next to the paper's numbers.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let paper = [
        ("System call", 421.6, 378.0, 10),
        ("Undefined instruction", 70.4, 48.8, 30),
        ("Page fault", 69.0, 50.1, 27),
        ("Interrupt", 36.2, 19.5, 46),
    ];
    let mut s = String::new();
    s.push_str("Table 1: computed WCET with vs without L1 cache pinning (after-kernel, L2 off)\n");
    s.push_str(&format!(
        "{:<22} {:>14} {:>14} {:>7}   {:>24}\n",
        "Event handler", "without (us)", "with (us)", "gain", "paper (w/o, w/, gain)"
    ));
    for (r, p) in rows.iter().zip(paper.iter()) {
        s.push_str(&format!(
            "{:<22} {:>14.1} {:>14.1} {:>6.0}%   {:>10.1} {:>7.1} {:>4}%\n",
            r.entry.name(),
            cycles_to_us(r.without),
            cycles_to_us(r.with),
            r.gain(),
            p.1,
            p.2,
            p.3,
        ));
    }
    s
}

/// One row of Table 2.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Entry point.
    pub entry: EntryPoint,
    /// Computed, before-kernel, L2 off.
    pub before_computed: Cycles,
    /// Computed, after-kernel, L2 off.
    pub after_computed_l2off: Cycles,
    /// Observed, after-kernel, L2 off.
    pub after_observed_l2off: Cycles,
    /// Computed, after-kernel, L2 on.
    pub after_computed_l2on: Cycles,
    /// Observed, after-kernel, L2 on.
    pub after_observed_l2on: Cycles,
}

impl Table2Row {
    /// Computed/observed ratio, L2 off.
    pub fn ratio_l2off(&self) -> f64 {
        self.after_computed_l2off as f64 / self.after_observed_l2off as f64
    }

    /// Computed/observed ratio, L2 on.
    pub fn ratio_l2on(&self) -> f64 {
        self.after_computed_l2on as f64 / self.after_observed_l2on as f64
    }
}

/// Table 2: per entry point, the before/after computed bounds and the
/// after-kernel observed worst cases, with both L2 settings. The twelve
/// analyses go through the batch API (three of them are shared with
/// Table 1 and dedupe when the same context generated both); the four
/// per-entry observation runs fan out over the pool.
pub fn table2_with(ctx: &SweepCtx, reps: u32) -> Vec<Table2Row> {
    let jobs: Vec<_> = EntryPoint::ALL
        .into_iter()
        .flat_map(|e| {
            [
                (e, acfg(KernelConfig::before(), false, false)),
                (e, acfg(KernelConfig::after(), false, false)),
                (e, acfg(KernelConfig::after(), true, false)),
            ]
        })
        .collect();
    let reports = ctx.analyze_batch(&jobs);
    let observed = ctx.pool().parallel_map(EntryPoint::ALL.to_vec(), |e| {
        (
            observe_entry_reps(e, KernelConfig::after(), hw(false, false, 0), reps),
            observe_entry_reps(e, KernelConfig::after(), hw(true, false, 0), reps),
        )
    });
    EntryPoint::ALL
        .into_iter()
        .enumerate()
        .map(|(i, e)| Table2Row {
            entry: e,
            before_computed: reports[3 * i].cycles,
            after_computed_l2off: reports[3 * i + 1].cycles,
            after_observed_l2off: observed[i].0,
            after_computed_l2on: reports[3 * i + 2].cycles,
            after_observed_l2on: observed[i].1,
        })
        .collect()
}

/// Renders Table 2 next to the paper's numbers.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let paper = [
        // (before, computed off, observed off, ratio, computed on, observed on, ratio)
        ("System call", 3851.0, 332.4, 101.9, 3.26, 436.3, 80.5, 5.42),
        (
            "Undefined instruction",
            394.5,
            44.4,
            42.6,
            1.04,
            76.8,
            43.1,
            1.78,
        ),
        ("Page fault", 396.1, 44.9, 42.9, 1.05, 77.5, 41.1, 1.89),
        ("Interrupt", 143.1, 23.2, 17.7, 1.31, 44.8, 14.3, 3.13),
    ];
    let mut s = String::new();
    s.push_str("Table 2: WCET per kernel entry point, before and after the changes (us)\n");
    s.push_str(&format!(
        "{:<22} {:>9} | {:>9} {:>9} {:>6} | {:>9} {:>9} {:>6}\n",
        "Event handler", "before", "comp-off", "obs-off", "ratio", "comp-on", "obs-on", "ratio"
    ));
    for (r, p) in rows.iter().zip(paper.iter()) {
        s.push_str(&format!(
            "{:<22} {:>9.1} | {:>9.1} {:>9.1} {:>6.2} | {:>9.1} {:>9.1} {:>6.2}\n",
            r.entry.name(),
            cycles_to_us(r.before_computed),
            cycles_to_us(r.after_computed_l2off),
            cycles_to_us(r.after_observed_l2off),
            r.ratio_l2off(),
            cycles_to_us(r.after_computed_l2on),
            cycles_to_us(r.after_observed_l2on),
            r.ratio_l2on(),
        ));
        s.push_str(&format!(
            "{:<22} {:>9.1} | {:>9.1} {:>9.1} {:>6.2} | {:>9.1} {:>9.1} {:>6.2}   (paper)\n",
            "", p.1, p.2, p.3, p.4, p.5, p.6, p.7,
        ));
    }
    // The §6 headline: worst-case interrupt latency = syscall + interrupt.
    if let (Some(sys), Some(irq)) = (
        rows.iter().find(|r| r.entry == EntryPoint::Syscall),
        rows.iter().find(|r| r.entry == EntryPoint::Interrupt),
    ) {
        let off = sys.after_computed_l2off + irq.after_computed_l2off;
        let on = sys.after_computed_l2on + irq.after_computed_l2on;
        s.push_str(&format!(
            "\nWorst-case interrupt latency (syscall + interrupt): {} cycles = {:.1} us (L2 off), {:.1} us (L2 on)\n",
            off,
            cycles_to_us(off),
            cycles_to_us(on),
        ));
        s.push_str("paper: 189,117 cycles / 356 us (L2 off), 481 us (L2 on)\n");
    }
    s
}

/// One row of the §4/§8 L2-kernel-locking extension experiment.
#[derive(Clone, Debug)]
pub struct L2LockRow {
    /// Entry point.
    pub entry: EntryPoint,
    /// Computed bound, L2 on, kernel not locked.
    pub computed_unlocked: Cycles,
    /// Observed worst case, L2 on, kernel not locked.
    pub observed_unlocked: Cycles,
    /// Computed bound with the kernel locked into the L2.
    pub computed_locked: Cycles,
    /// Observed worst case with the kernel locked into the L2.
    pub observed_locked: Cycles,
}

/// The paper's proposed extension (§4, §8): lock the entire kernel into
/// the L2 and compare bounds and observations against the plain L2-on
/// configuration.
pub fn l2lock(reps: u32) -> Vec<L2LockRow> {
    l2lock_with(&SweepCtx::default(), reps)
}

/// [`l2lock`] on a shared sweep context (batched analyses, pooled
/// observations).
pub fn l2lock_with(ctx: &SweepCtx, reps: u32) -> Vec<L2LockRow> {
    let mut locked_cfg = acfg(KernelConfig::after(), true, false);
    locked_cfg.l2_kernel_locked = true;
    let jobs: Vec<_> = EntryPoint::ALL
        .into_iter()
        .flat_map(|e| {
            [
                (e, acfg(KernelConfig::after(), true, false)),
                (e, locked_cfg),
            ]
        })
        .collect();
    let reports = ctx.analyze_batch(&jobs);
    let observed = ctx.pool().parallel_map(EntryPoint::ALL.to_vec(), |e| {
        (
            observe_entry_reps(e, KernelConfig::after(), hw(true, false, 0), reps),
            crate::observe::observe_entry_l2locked(e, KernelConfig::after(), reps),
        )
    });
    EntryPoint::ALL
        .into_iter()
        .enumerate()
        .map(|(i, e)| L2LockRow {
            entry: e,
            computed_unlocked: reports[2 * i].cycles,
            observed_unlocked: observed[i].0,
            computed_locked: reports[2 * i + 1].cycles,
            observed_locked: observed[i].1,
        })
        .collect()
}

/// Renders the L2-locking extension table.
pub fn render_l2lock(rows: &[L2LockRow]) -> String {
    let mut s = String::new();
    s.push_str(
        "§4/§8 extension: whole kernel locked into the L2 cache (after-kernel, L2 on, us)
",
    );
    s.push_str(&format!(
        "{:<22} {:>10} {:>10} | {:>10} {:>10} {:>12}
",
        "Event handler", "comp", "obs", "comp-lock", "obs-lock", "bound gain"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<22} {:>10.1} {:>10.1} | {:>10.1} {:>10.1} {:>11.0}%
",
            r.entry.name(),
            cycles_to_us(r.computed_unlocked),
            cycles_to_us(r.observed_unlocked),
            cycles_to_us(r.computed_locked),
            cycles_to_us(r.observed_locked),
            100.0 * (1.0 - r.computed_locked as f64 / r.computed_unlocked as f64),
        ));
    }
    s.push_str(
        "paper (S4): locking the kernel into the L2 'would drastically reduce\n\
         execution time even further' and '[reduce] non-determinism, resulting in\n\
         a tighter upper bound' -- proposed, not measured; this table realises the\n\
         proposal on the model.\n",
    );
    s
}

/// Result of the §2.1 restart-overhead experiment.
#[derive(Clone, Debug)]
pub struct RestartOverhead {
    /// Cycles for the whole operation with no interruption (one entry).
    pub uninterrupted: Cycles,
    /// Cycles for the same operation preempted and restarted at every
    /// preemption point.
    pub with_restarts: Cycles,
    /// Number of restarts (kernel re-entries beyond the first).
    pub restarts: u64,
    /// Cycles spent delivering the injected interrupts (measured
    /// separately and subtracted to isolate the restart cost).
    pub interrupt_cycles: Cycles,
}

impl RestartOverhead {
    /// Restart overhead as a percentage of the uninterrupted operation —
    /// the quantity the Fluke work (§2.1) reports as "at most 8% of the
    /// cost of the operations themselves".
    pub fn percent(&self) -> f64 {
        let extra = self
            .with_restarts
            .saturating_sub(self.interrupt_cycles)
            .saturating_sub(self.uninterrupted);
        100.0 * extra as f64 / self.uninterrupted as f64
    }
}

/// Measures the §2.1 restartable-system-call overhead: a 64 KiB frame
/// retype (64 clear chunks, hence up to 63 preemption points) is run once
/// uninterrupted, then once with an interrupt pending at every preemption
/// point, forcing a full unwind + re-entry + re-decode each chunk.
pub fn restart_overhead() -> RestartOverhead {
    use rt_kernel::syscall::{Syscall, SyscallOutcome};
    use rt_kernel::untyped::RetypeKind;
    let sys = |ut, dest| Syscall::Retype {
        untyped: ut,
        kind: RetypeKind::Frame { size_bits: 16 },
        count: 1,
        dest_cnode: dest,
        dest_offset: 16,
    };
    // Uninterrupted run.
    let (mut k, _t, ut, dest) =
        crate::workloads::retype_kernel(KernelConfig::after(), HwConfig::default(), 20);
    let t0 = k.machine.now();
    let out = k.handle_syscall(sys(ut, dest));
    assert_eq!(out, SyscallOutcome::Completed(Ok(())));
    let uninterrupted = k.machine.now() - t0;

    // Preempt-at-every-chunk run: raise a line before each entry.
    let (mut k, _t, ut, dest) =
        crate::workloads::retype_kernel(KernelConfig::after(), HwConfig::default(), 20);
    k.irq_table.issue(11); // unbound: delivery is just ack + spurious-ish
    let t0 = k.machine.now();
    let mut restarts = 0u64;
    loop {
        let now = k.machine.now();
        k.machine.irq.raise(rt_hw::IrqLine(11), now);
        match k.handle_syscall(sys(ut, dest)) {
            SyscallOutcome::Completed(r) => {
                r.expect("retype completes");
                break;
            }
            SyscallOutcome::Preempted => restarts += 1,
        }
    }
    let with_restarts = k.machine.now() - t0;

    // Cost of the injected interrupt deliveries alone, on the same kernel
    // shape (no binding, so each is lookup + ack).
    let (mut k2, _t, _ut, _dest) =
        crate::workloads::retype_kernel(KernelConfig::after(), HwConfig::default(), 20);
    k2.irq_table.issue(11);
    let t0 = k2.machine.now();
    for _ in 0..restarts {
        let now = k2.machine.now();
        k2.machine.irq.raise(rt_hw::IrqLine(11), now);
        k2.handle_interrupt();
    }
    let interrupt_cycles = k2.machine.now() - t0;

    RestartOverhead {
        uninterrupted,
        with_restarts,
        restarts,
        interrupt_cycles,
    }
}

/// Renders the restart-overhead experiment.
pub fn render_restart_overhead(r: &RestartOverhead) -> String {
    let mut s = String::new();
    s.push_str(
        "S2.1 restartable-system-call overhead (64 KiB frame retype, preempted every chunk)\n",
    );
    s.push_str(&format!(
        "  uninterrupted:        {} cycles ({:.1} us)\n",
        r.uninterrupted,
        cycles_to_us(r.uninterrupted)
    ));
    s.push_str(&format!(
        "  with {} restarts:     {} cycles ({:.1} us)\n",
        r.restarts,
        r.with_restarts,
        cycles_to_us(r.with_restarts)
    ));
    s.push_str(&format!(
        "  interrupt deliveries: {} cycles (subtracted)\n",
        r.interrupt_cycles
    ));
    s.push_str(&format!(
        "  restart overhead:     {:.1}% of the operation\n",
        r.percent()
    ));
    s.push_str(
        "paper (S2.1, citing Fluke): restart overheads 'at most 8% of the cost of the\noperations themselves'\n",
    );
    s
}

/// Priority of the blocked threads in [`micro`]'s scheduler rows: above
/// both chosen priorities, so lazy scheduling's scan meets them.
const STALE_PRIO: u8 = 250;

/// One row of [`micro`]'s scheduler measurement: the cycles of one
/// `Yield` by the only runnable thread, which every design chooses again.
#[derive(Clone, Debug)]
pub struct YieldRow {
    /// Priority of the yielding (and chosen) thread.
    pub prio: u8,
    /// Threads blocked at priority 250, above the chosen thread. Lazy
    /// scheduling left them queued; Benno scheduling dequeued them when
    /// they blocked.
    pub stale: u32,
    /// Cycles under lazy scheduling (Fig. 2).
    pub lazy: Cycles,
    /// Cycles under Benno scheduling (Fig. 3).
    pub benno: Cycles,
    /// Cycles under Benno scheduling with the priority bitmap (§3.2).
    pub bitmap: Cycles,
}

/// The micro-measurements of Figs. 2/3 and 7, the solver work of the
/// instance behind the headline bound, and the §6.1 fastpath and §3.5
/// clear-chunk figures.
#[derive(Clone, Debug)]
pub struct Micro {
    /// `chooseThread` rows: chosen priority 200 and 10, each with 0, 64
    /// and 256 blocked threads.
    pub yields: Vec<YieldRow>,
    /// Cycles of a polluted-cache capability decode, per cspace depth.
    pub decode: Vec<(u32, Cycles)>,
    /// Cold (from-scratch per node) solve of the after-kernel
    /// system-call IPET instance, L2 off.
    pub ilp_cold: rt_ilp::SolveStats,
    /// Warm-started solve of the same instance.
    pub ilp_warm: rt_ilp::SolveStats,
    /// Cycles of a warm fastpath `Call` (§6.1).
    pub fastpath_warm: Cycles,
    /// Cycles of an uninterrupted retype of a 4 KiB and of a 64 KiB frame,
    /// the two smallest ARMv6 frame sizes. Their difference is the clearing
    /// of 60 more 1 KiB chunks (§3.5).
    pub retype_frame: [Cycles; 2],
}

/// Simulated cycles of one `Yield` by the only runnable thread, at `prio`,
/// with `stale` threads blocked above it (§3.1).
fn yield_cycles(sched: SchedKind, prio: u8, stale: u32) -> Cycles {
    use rt_kernel::syscall::Syscall;
    use rt_kernel::tcb::ThreadState;
    let cfg = KernelConfig {
        sched,
        ..KernelConfig::after()
    };
    let mut k = Kernel::new(cfg, HwConfig::default());
    let yielder = k.boot_tcb("yielder", prio);
    k.objs.tcb_mut(yielder).state = ThreadState::Running;
    k.force_current_for_test(yielder);
    for i in 0..stale {
        let t = k.boot_tcb(&format!("stale{i}"), STALE_PRIO);
        if sched == SchedKind::Lazy {
            k.objs.tcb_mut(t).state = ThreadState::Running;
            k.enqueue_on(0, t);
        }
        k.objs.tcb_mut(t).state = ThreadState::BlockedOnReply;
    }
    let t0 = k.machine.now();
    let _ = k.handle_syscall(Syscall::Yield);
    k.machine.now() - t0
}

/// Simulated cycles of a failing `Signal` on an endpoint cap at cspace
/// `depth` (1 or 32) with polluted caches: the decode plus fixed
/// overhead (Fig. 7).
fn decode_cycles(depth: u32) -> Cycles {
    use rt_kernel::cap::{insert_cap, Badge, CapType, Rights, SlotRef};
    use rt_kernel::syscall::Syscall;
    use rt_kernel::tcb::ThreadState;
    let mut k = Kernel::new(KernelConfig::after(), HwConfig::default());
    let ep = k.boot_endpoint();
    let cap = CapType::Endpoint {
        obj: ep,
        badge: Badge::NONE,
        rights: Rights::ALL,
    };
    let root = if depth == 1 {
        let cn = k.boot_cnode(8);
        insert_cap(&mut k.objs, SlotRef::new(cn, 1), cap, None);
        CapType::CNode {
            obj: cn,
            guard_bits: 24,
            guard: 0,
        }
    } else {
        assert_eq!(depth, 32);
        let cs = rt_kernel::kernel::DeepCspace::new(&mut k);
        cs.insert(&mut k, 1, cap);
        cs.root_cap
    };
    let tcb = k.boot_tcb("t", 10);
    k.objs.tcb_mut(tcb).cspace_root = root;
    k.objs.tcb_mut(tcb).state = ThreadState::Running;
    k.force_current_for_test(tcb);
    k.machine.pollute(crate::workloads::POLLUTION_BASE);
    let t0 = k.machine.now();
    let _ = k.handle_syscall(Syscall::Signal { cptr: 1 });
    k.machine.now() - t0
}

/// Simulated cycles of one uninterrupted retype of a `2^size_bits`-byte
/// frame on [`crate::workloads::retype_kernel`] (after-kernel, L2 off).
fn frame_retype_cycles(size_bits: u8) -> Cycles {
    use rt_kernel::syscall::{Syscall, SyscallOutcome};
    use rt_kernel::untyped::RetypeKind;
    let (mut k, _task, ut, dest) =
        crate::workloads::retype_kernel(KernelConfig::after(), HwConfig::default(), 20);
    let t0 = k.machine.now();
    let out = k.handle_syscall(Syscall::Retype {
        untyped: ut,
        kind: RetypeKind::Frame { size_bits },
        count: 1,
        dest_cnode: dest,
        dest_offset: 16,
    });
    assert_eq!(out, SyscallOutcome::Completed(Ok(())));
    k.machine.now() - t0
}

/// Measures the scheduler rows, the decode rows, the solver work and the
/// fastpath and clear-chunk cycles that [`render_micro`] prints. Every
/// figure is simulated cycles or solver counts, never host time, so the
/// output is deterministic.
pub fn micro() -> Micro {
    let mut yields = Vec::new();
    for prio in [200, 10] {
        for stale in [0, 64, 256] {
            yields.push(YieldRow {
                prio,
                stale,
                lazy: yield_cycles(SchedKind::Lazy, prio, stale),
                benno: yield_cycles(SchedKind::Benno, prio, stale),
                bitmap: yield_cycles(SchedKind::BennoBitmap, prio, stale),
            });
        }
    }
    let ilp = rt_wcet::ipet_ilp(EntryPoint::Syscall, &AnalysisConfig::after_l2_off());
    Micro {
        yields,
        decode: [1, 32].map(|d| (d, decode_cycles(d))).to_vec(),
        ilp_cold: ilp
            .model
            .solve_cold()
            .expect("IPET instance solvable")
            .stats,
        ilp_warm: ilp.model.solve().expect("IPET instance solvable").stats,
        fastpath_warm: rt_kernel::testutil::warm_fastpath_call_cycles(),
        retype_frame: [12, 16].map(frame_retype_cycles),
    }
}

/// Renders [`micro`].
pub fn render_micro(m: &Micro) -> String {
    let mut s = String::new();
    s.push_str("Figs. 2/3: cycles of one Yield under each chooseThread design (cold caches)\n");
    s.push_str(&format!(
        "{:>11} {:>14} {:>9} {:>9} {:>9}\n",
        "chosen prio",
        format!("blocked at {STALE_PRIO}"),
        "lazy",
        "Benno",
        "bitmap"
    ));
    for r in &m.yields {
        s.push_str(&format!(
            "{:>11} {:>14} {:>9} {:>9} {:>9}\n",
            r.prio, r.stale, r.lazy, r.benno, r.bitmap
        ));
    }
    s.push_str(
        "paper (S3.1-3.2): lazy scheduling pays for every blocked thread still queued,\n\
         Benno scheduling for every empty priority above the chosen thread, and the\n\
         two-level bitmap (two loads, two CLZ) for neither.\n",
    );
    s.push_str("\nFig. 7: capability decode with polluted caches (failing Signal)\n");
    for (depth, cycles) in &m.decode {
        s.push_str(&format!("  depth {depth:>2}: {cycles} cycles\n"));
    }
    s.push_str("\nIPET ILP solver work, after-kernel system call (L2 off)\n");
    let (c, w) = (&m.ilp_cold, &m.ilp_warm);
    s.push_str(&format!(
        "  cold: {} nodes, {} pivots\n",
        c.nodes,
        c.pivots()
    ));
    s.push_str(&format!(
        "  warm: {} nodes, {} pivots ({} primal + {} dual)\n",
        w.nodes,
        w.pivots(),
        w.primal_pivots,
        w.dual_pivots
    ));
    s.push_str("\nS6.1: warm fastpath Call, 2-word message\n");
    s.push_str(&format!(
        "  {} cycles (paper: around 200-250 cycles on the ARM1136)\n",
        m.fastpath_warm
    ));
    s.push_str("\nS3.5: one 1 KiB clear chunk = (64 KiB frame retype - 4 KiB frame retype) / 60\n");
    let [small, large] = m.retype_frame;
    let chunk = (large - small) as f64 / 60.0;
    s.push_str(&format!(
        "  4 KiB: {small} cycles, 64 KiB: {large} cycles\n"
    ));
    s.push_str(&format!(
        "  one chunk: {chunk:.1} cycles ({:.2} us; paper: ~20 us on the target)\n",
        chunk / (rt_hw::CPU_HZ as f64 / 1e6)
    ));
    s
}

/// One row of the §6.1 open-vs-closed comparison.
#[derive(Clone, Debug)]
pub struct OpenClosedRow {
    /// Entry point.
    pub entry: EntryPoint,
    /// Before-kernel bound under closed-system restrictions.
    pub before_closed: Cycles,
    /// Before-kernel bound for an open system.
    pub before_open: Cycles,
    /// After-kernel bound under closed-system restrictions.
    pub after_closed: Cycles,
    /// After-kernel bound for an open system.
    pub after_open: Cycles,
}

/// §6.1: "previous analyses of seL4 \[made\] a distinction between open and
/// closed systems ... Our work now eliminates the need for this
/// distinction." Computed bounds for both kernels under both assumptions.
pub fn open_closed() -> Vec<OpenClosedRow> {
    open_closed_with(&SweepCtx::default())
}

/// [`open_closed`] on a shared sweep context. These analyses use
/// non-default [`BoundParams`][rt_wcet::kmodel::BoundParams], so they go
/// through [`rt_wcet::AnalysisCache::analyze_with_bounds`] directly, fanned
/// out one entry point per pool task.
pub fn open_closed_with(ctx: &SweepCtx) -> Vec<OpenClosedRow> {
    use rt_wcet::kmodel::BoundParams;
    ctx.pool().parallel_map(EntryPoint::ALL.to_vec(), |e| {
        let bound = |kernel, bounds: &BoundParams| {
            ctx.cache()
                .analyze_with_bounds(e, &acfg(kernel, false, false), bounds)
                .cycles
        };
        OpenClosedRow {
            entry: e,
            before_closed: bound(KernelConfig::before(), &BoundParams::closed()),
            before_open: bound(KernelConfig::before(), &BoundParams::open()),
            after_closed: bound(KernelConfig::after(), &BoundParams::closed()),
            after_open: bound(KernelConfig::after(), &BoundParams::open()),
        }
    })
}

/// Renders the open-vs-closed comparison.
pub fn render_open_closed(rows: &[OpenClosedRow]) -> String {
    let mut s = String::new();
    s.push_str("S6.1 open vs closed systems (computed WCET, L2 off, us)\n");
    s.push_str(&format!(
        "{:<22} {:>12} {:>12} | {:>12} {:>12}\n",
        "Event handler", "before-closed", "before-open", "after-closed", "after-open"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<22} {:>12.1} {:>12.1} | {:>12.1} {:>12.1}\n",
            r.entry.name(),
            cycles_to_us(r.before_closed),
            cycles_to_us(r.before_open),
            cycles_to_us(r.after_closed),
            cycles_to_us(r.after_open),
        ));
    }
    s.push_str(
        "paper: closed systems had to forbid the operations that blow up the\n\
         before-kernel's bounds; after the changes 'the latencies for the open-system\n\
         scenarios are no more than that of the closed system'.\n",
    );
    s
}

/// §3.6: the memory the shadow page tables cost against the frame table
/// (256 MiB physical, 4 KiB frames, one dense 256 MiB address space).
pub fn overhead() -> String {
    use rt_kernel::vspace::overhead::{compute, OverheadParams};
    let o = compute(&OverheadParams::paper_example());
    format!(
        "§3.6 memory-overhead comparison (256 MiB phys, 4 KiB frames, one dense 256 MiB AS)\n\
         \x20 frame table:              {:>8} KiB   (paper: 256 KiB)\n\
         \x20 shadow page tables:       {:>8} KiB   (paper: 256 KiB)\n\
         \x20 shadow page directory:    {:>8} KiB   (paper: 16 KiB per AS)\n",
        o.frame_table / 1024,
        o.shadow_pt / 1024,
        o.shadow_pd / 1024
    )
}

/// The two analyses whose sum bounds interrupt response (§6/§8).
#[derive(Clone, Debug)]
pub struct LatencyBound {
    /// WCET of the system call.
    pub syscall: rt_wcet::WcetReport,
    /// WCET of the interrupt.
    pub interrupt: rt_wcet::WcetReport,
}

/// The after-kernel, L2-off system call and interrupt analyses.
pub fn latency_bound_with(ctx: &SweepCtx) -> LatencyBound {
    let cfg = acfg(KernelConfig::after(), false, false);
    let mut reports = ctx
        .analyze_batch(&[(EntryPoint::Syscall, cfg), (EntryPoint::Interrupt, cfg)])
        .into_iter();
    LatencyBound {
        syscall: reports.next().expect("syscall report"),
        interrupt: reports.next().expect("interrupt report"),
    }
}

/// Renders the bound, the system call's dominant worst-path contributors
/// and each solve's ILP work. The solves' host wall times stay out, so the
/// text is the same on every run.
pub fn render_latency_bound(lb: &LatencyBound) -> String {
    let (sys, irq) = (&lb.syscall, &lb.interrupt);
    let total = sys.cycles + irq.cycles;
    let mut s = format!(
        "§6/§8 worst-case interrupt response bound (after-kernel, L2 off):\n\
         \x20 WCET(system call) = {} cycles ({:.1} us)\n\
         \x20 WCET(interrupt)   = {} cycles ({:.1} us)\n\
         \x20 bound             = {total} cycles ({:.1} us)   [paper: 189,117 cycles]\n\
         \nDominant worst-path contributors (system call):\n",
        sys.cycles,
        sys.us,
        irq.cycles,
        irq.us,
        cycles_to_us(total)
    );
    for (block, ctx, n, c) in sys.worst_path.iter().take(8) {
        s.push_str(&format!(
            "  {block:?}(ctx {ctx}) x{n} @ {c} cycles = {}\n",
            n * c
        ));
    }
    s.push_str("\nILP solver effort (warm-started branch and bound):\n");
    for (name, r) in [("system call", sys), ("interrupt", irq)] {
        let st = r.phases.ilp_stats;
        s.push_str(&format!(
            "  {name:<11}: {} nodes, {} pivots ({} primal + {} dual), \
             warm-start rate {:.0}%, {} presolved\n",
            st.nodes,
            st.pivots(),
            st.primal_pivots,
            st.dual_pivots,
            st.warm_hit_rate() * 100.0,
            st.presolve_eliminated,
        ));
    }
    s
}

/// §6's manual-constraint methodology: the system call's bound from the
/// raw CFG against the bound with the infeasible paths constrained away.
pub fn constraints_demo(ctx: &SweepCtx) -> String {
    let mut cfg = acfg(KernelConfig::after(), false, false);
    cfg.manual_constraints = false;
    let raw = ctx.cache().analyze(EntryPoint::Syscall, &cfg);
    cfg.manual_constraints = true;
    let constrained = ctx.cache().analyze(EntryPoint::Syscall, &cfg);
    format!(
        "§6 manual-constraint methodology (system call, after-kernel, L2 off):\n\
         \x20 raw CFG bound:         {} cycles ({:.1} us)\n\
         \x20 with constraints:      {} cycles ({:.1} us)\n\
         \x20 infeasible-path slack: {:.1}%\n\
         (paper: the first, infeasible solution exceeded 600k cycles; manual\n\
         constraints brought the bound to 232,098 cycles with L2 enabled)\n",
        raw.cycles,
        raw.us,
        constrained.cycles,
        constrained.us,
        100.0 * (raw.cycles as f64 - constrained.cycles as f64) / constrained.cycles as f64
    )
}

/// One bar of Fig. 8: overestimation of the hardware model on a
/// reproducible path.
#[derive(Clone, Debug)]
pub struct Fig8Bar {
    /// Entry point.
    pub entry: EntryPoint,
    /// Percent overestimation, L2 off.
    pub over_l2off: f64,
    /// Percent overestimation, L2 on.
    pub over_l2on: f64,
}

/// Fig. 8: computed-vs-observed for *the same path* — the analysis is
/// forced onto the path the workloads exercise by zeroing every other
/// node (§6.2: "adding extra constraints to the ILP problem to force
/// analysis of the desired path"). One pool task per entry point, each
/// running its two forced-path analyses (layout/CFG/cost model come from
/// the cache) and its two observation runs.
pub fn fig8_with(ctx: &SweepCtx, reps: u32) -> Vec<Fig8Bar> {
    use rt_kernel::kprog::Block;
    let fault_path: Vec<Block> = vec![
        Block::FaultSetup,
        Block::FaultMsgWord,
        Block::ResolveEntry,
        Block::ResolveLevel,
        Block::ResolveFinish,
        Block::SendCheck,
        Block::SendDequeueRecv,
        Block::TransferSetup,
        Block::TransferWord,
        Block::TransferBadge,
        Block::WakeThread,
        Block::DirectSwitch,
        Block::EnqueueThread,
        Block::BitmapSet,
        Block::SchedCommit,
        Block::CtxSwitch,
        Block::KExitCheck,
        Block::ExitRestore,
    ];
    let syscall_path: Vec<Block> = vec![
        Block::SwiEntry,
        Block::DispatchStart,
        Block::DispatchSwitch,
        Block::CaseReply,
        Block::CaseEp,
        Block::ReplyXfer,
        Block::TransferSetup,
        Block::TransferWord,
        Block::TransferBadge,
        Block::ResolveEntry,
        Block::ResolveLevel,
        Block::ResolveFinish,
        Block::CapXferOne,
        Block::WakeThread,
        Block::EnqueueThread,
        Block::BitmapSet,
        Block::RecvCheck,
        Block::RecvDequeueSend,
        Block::SchedCommit,
        Block::KExitCheck,
        Block::ExitRestore,
    ];
    let irq_path: Vec<Block> = vec![
        Block::IrqEntry,
        Block::IrqGet,
        Block::IrqLookup,
        Block::IrqAck,
        Block::IrqSignal,
        Block::WakeThread,
        Block::DirectSwitch,
        Block::EnqueueThread,
        Block::BitmapSet,
        Block::SchedBitmap,
        Block::DequeueThread,
        Block::BitmapClear,
        Block::SchedCommit,
        Block::CtxSwitch,
        Block::KExitCheck,
        Block::ExitRestore,
    ];
    let mut undef_path = fault_path.clone();
    undef_path.push(Block::UndefEntry);
    let mut pf_path = fault_path;
    pf_path.push(Block::PfEntry);

    let paths: [(EntryPoint, Vec<Block>); 4] = [
        (EntryPoint::Syscall, syscall_path),
        (EntryPoint::Undefined, undef_path),
        (EntryPoint::PageFault, pf_path),
        (EntryPoint::Interrupt, irq_path),
    ];
    ctx.pool().parallel_map(paths.to_vec(), |(e, allowed)| {
        let over = |l2: bool| {
            let computed = ctx
                .cache()
                .analyze_forced(e, &acfg(KernelConfig::after(), l2, false), &allowed)
                .cycles;
            let observed = observe_entry_reps(e, KernelConfig::after(), hw(l2, false, 0), reps);
            100.0 * (computed as f64 - observed as f64) / observed as f64
        };
        Fig8Bar {
            entry: e,
            over_l2off: over(false),
            over_l2on: over(true),
        }
    })
}

/// Renders Fig. 8 as a text bar chart.
pub fn render_fig8(bars: &[Fig8Bar]) -> String {
    let paper = [(200.0, 225.0), (4.0, 75.0), (5.0, 90.0), (31.0, 213.0)];
    let mut s = String::new();
    s.push_str("Fig. 8: hardware-model overestimation on reproducible paths (% over observed)\n");
    s.push_str(&format!(
        "{:<22} {:>10} {:>10}   {:>20}\n",
        "Path", "L2 off", "L2 on", "paper (off, on)"
    ));
    for (b, p) in bars.iter().zip(paper.iter()) {
        s.push_str(&format!(
            "{:<22} {:>9.0}% {:>9.0}%   {:>8.0}% {:>8.0}%\n",
            b.entry.name(),
            b.over_l2off,
            b.over_l2on,
            p.0,
            p.1
        ));
    }
    s
}

/// One group of Fig. 9: observed worst-case times under the four hardware
/// configurations, normalised to the baseline.
#[derive(Clone, Debug)]
pub struct Fig9Group {
    /// Entry point.
    pub entry: EntryPoint,
    /// Baseline observed cycles (L2 off, predictor off).
    pub baseline: Cycles,
    /// L2 on / baseline.
    pub l2: f64,
    /// Predictor on / baseline.
    pub bpred: f64,
    /// Both on / baseline.
    pub both: f64,
}

/// Fig. 9: effect of the L2 cache and branch predictor on observed
/// worst-case execution times (pure observation — one pool task per entry
/// point).
pub fn fig9_with(ctx: &SweepCtx, reps: u32) -> Vec<Fig9Group> {
    ctx.pool().parallel_map(EntryPoint::ALL.to_vec(), |e| {
        let base = observe_entry_reps(e, KernelConfig::after(), hw(false, false, 0), reps);
        let norm = |l2: bool, bp: bool| {
            observe_entry_reps(e, KernelConfig::after(), hw(l2, bp, 0), reps) as f64 / base as f64
        };
        Fig9Group {
            entry: e,
            baseline: base,
            l2: norm(true, false),
            bpred: norm(false, true),
            both: norm(true, true),
        }
    })
}

/// Renders Fig. 9.
pub fn render_fig9(groups: &[Fig9Group]) -> String {
    let mut s = String::new();
    s.push_str("Fig. 9: observed worst cases, normalised to baseline (L2 off, predictor off)\n");
    s.push_str(&format!(
        "{:<22} {:>10} {:>8} {:>8} {:>10}\n",
        "Path", "baseline", "+L2", "+bpred", "+L2+bpred"
    ));
    for g in groups {
        s.push_str(&format!(
            "{:<22} {:>10} {:>8.2} {:>8.2} {:>10.2}\n",
            g.entry.name(),
            g.baseline,
            g.l2,
            g.bpred,
            g.both
        ));
    }
    s.push_str("paper: enabling the L2 *increased* some observed worst cases by up to 8%;\n");
    s.push_str("the branch predictor gave only a minor improvement on these cold paths.\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shape each figure must keep, so that re-recording
    /// `tests/goldens/micro.txt` cannot flatten one.
    #[test]
    fn micro_figures_keep_their_shape() {
        let m = micro();
        let at = |prio: u8| m.yields.iter().filter(move |r| r.prio == prio);
        for rows in [at(200).collect::<Vec<_>>(), at(10).collect()] {
            assert_eq!(rows.len(), 3);
            for w in rows.windows(2) {
                assert!(w[0].stale < w[1].stale && w[0].lazy < w[1].lazy, "{w:?}");
            }
        }
        for (high, low) in at(200).zip(at(10)) {
            assert_eq!(high.stale, low.stale);
            assert!(high.benno < low.benno, "{high:?} {low:?}");
        }
        let bitmap = m.yields[0].bitmap;
        assert!(
            m.yields.iter().all(|r| r.bitmap == bitmap),
            "{:?}",
            m.yields
        );
        assert_eq!(m.decode.iter().map(|d| d.0).collect::<Vec<_>>(), [1, 32]);
        assert!(m.decode[0].1 < m.decode[1].1, "{:?}", m.decode);
        assert!(m.ilp_warm.pivots() < m.ilp_cold.pivots());
        assert!(m.retype_frame[0] < m.retype_frame[1], "{m:?}");
    }
}
