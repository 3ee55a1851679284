//! The kernel proper: state, block executor, scheduling, entry/exit and
//! interrupt delivery.
//!
//! System-call handling, IPC, object creation and the VM operations live in
//! [`crate::syscall`] (they are `impl Kernel` blocks there); the IPC
//! fastpath is in [`crate::fastpath`]. This module owns:
//!
//! * the kernel state ([`Kernel`]) and its configuration
//!   ([`KernelConfig`]) selecting the paper's *before*/*after* designs;
//! * the **block executor** ([`Kernel::blk`]) that charges every modelled
//!   instruction of a [`crate::kprog::Block`] to the `rt_hw` machine;
//! * **preemption points** ([`Kernel::preemption_point`]) — the §2.1
//!   mechanism: check for a pending interrupt; if one is pending, save
//!   restart state and unwind;
//! * the **scheduler glue** implementing lazy, Benno and Benno+bitmap
//!   `chooseThread` with per-step cost charging (§3.1–3.2);
//! * the **interrupt path** — entry, AVIC read, table lookup, notification
//!   signal, wake, schedule, exit — the path whose worst case the paper
//!   reduces and pins (§4);
//! * kernel **exit**, including the final pending-interrupt check.

use std::collections::HashMap;
use std::sync::Arc;

use rt_hw::{Addr, Cycles, HwConfig, IrqLine, Machine};

use crate::cap::{CapType, SlotRef};
use crate::cnode::CNode;
use crate::decision::DecisionSource;
use crate::ep::Endpoint;
use crate::irqk::IrqTable;
use crate::kprog::{self, Block, Layout};
use crate::ntfn::{self, Notification};
use crate::obj::{BootAlloc, ObjId, ObjKind, ObjStore};
use crate::preempt::{PreemptResult, Preempted};
use crate::smp::{self, Core, LockHold, SmpCounters, IPI_RESCHED_LINE, IPI_SHOOTDOWN_LINE};
use crate::tcb::{Tcb, ThreadState, TCB_SIZE_BITS};
use crate::vspace::asid::AsidTable;

/// Scheduler design (§3.1–3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchedKind {
    /// Lazy scheduling (Fig. 2) — the original design.
    Lazy,
    /// Benno scheduling (Fig. 3) — run queue holds only runnable threads.
    Benno,
    /// Benno scheduling plus the two-level priority bitmap (§3.2).
    BennoBitmap,
}

/// Virtual-memory design (§3.6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VmKind {
    /// ASID lookup table (Fig. 4) — the original design.
    Asid,
    /// Shadow page tables (Fig. 5) — the revised design.
    ShadowPt,
}

/// Which kernel the experiments run: the paper's *before* or *after*
/// configuration, or any mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KernelConfig {
    /// Scheduler design.
    pub sched: SchedKind,
    /// VM design.
    pub vm: VmKind,
    /// Whether preemption points are compiled in (§3.3–3.5).
    pub preemption_points: bool,
    /// Whether the IPC fastpath is enabled (§6.1).
    pub fastpath: bool,
}

impl KernelConfig {
    /// The paper's *before* kernel: lazy scheduling, ASIDs, no preemption
    /// points (Table 2, first column).
    pub fn before() -> KernelConfig {
        KernelConfig {
            sched: SchedKind::Lazy,
            vm: VmKind::Asid,
            preemption_points: false,
            fastpath: true,
        }
    }

    /// The paper's *after* kernel: Benno + bitmap scheduling, shadow page
    /// tables, preemption points (Table 2, "after changes").
    pub fn after() -> KernelConfig {
        KernelConfig {
            sched: SchedKind::BennoBitmap,
            vm: VmKind::ShadowPt,
            preemption_points: true,
            fastpath: true,
        }
    }
}

/// Interrupt line reserved for the timer tick: an unbound line 0 ends the
/// current timeslice rather than signalling a notification.
pub const TIMER_LINE: u8 = 0;

/// The four kernel entry points the analysis bounds (§5.2: "these paths
/// begin at one of the kernel's exception vectors").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EntryPoint {
    /// System call (SWI).
    Syscall,
    /// Undefined instruction.
    Undefined,
    /// Page fault (prefetch/data abort).
    PageFault,
    /// Hardware interrupt.
    Interrupt,
}

impl EntryPoint {
    /// All entry points, in the paper's table order.
    pub const ALL: [EntryPoint; 4] = [
        EntryPoint::Syscall,
        EntryPoint::Undefined,
        EntryPoint::PageFault,
        EntryPoint::Interrupt,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            EntryPoint::Syscall => "System call",
            EntryPoint::Undefined => "Undefined instruction",
            EntryPoint::PageFault => "Page fault",
            EntryPoint::Interrupt => "Interrupt",
        }
    }
}

/// Pending scheduling decision (seL4's `ksSchedulerAction`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedAction {
    /// Keep running the current thread.
    #[default]
    ResumeCurrent,
    /// Direct-switch to a thread woken by IPC (§3.1 Benno scheduling:
    /// "we switch directly to it and do not place it into the run queue").
    SwitchTo(ObjId),
    /// Run the full `chooseThread`.
    ChooseNew,
}

/// Counters the experiments read out.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Kernel entries by type.
    pub syscall_entries: u64,
    /// Fault entries.
    pub fault_entries: u64,
    /// Interrupt entries.
    pub interrupt_entries: u64,
    /// Preemption points taken (operation actually unwound).
    pub preemptions: u64,
    /// System calls restarted after preemption (§2.1).
    pub restarts: u64,
    /// IPC fastpath successes (§6.1).
    pub fastpath_hits: u64,
    /// Blocked threads the lazy scheduler dequeued (§3.1's pathological
    /// work).
    pub lazy_dequeues: u64,
}

/// Per-block profile entry: how often a block ran and what it cost in
/// total (the observed "hottest path" material of an attribution report).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockStat {
    /// Executions of the block.
    pub count: u64,
    /// Total cycles charged across those executions.
    pub cycles: Cycles,
}

/// One delivered interrupt, for response-time accounting.
#[derive(Clone, Copy, Debug)]
pub struct IrqResponse {
    /// Interrupt line.
    pub line: IrqLine,
    /// Cycle the device raised the line.
    pub raised: Cycles,
    /// Cycle the kernel acknowledged it (end of the kernel's interrupt
    /// path — the latency the paper's analysis bounds).
    pub kernel_ack: Cycles,
    /// Cycle the bound handler thread actually started running, if it did.
    pub delivered: Option<Cycles>,
}

/// The microkernel.
pub struct Kernel {
    /// Design configuration (before/after).
    pub config: KernelConfig,
    /// The machine this kernel runs on.
    pub machine: Machine,
    /// All kernel objects.
    pub objs: ObjStore,
    /// Global ASID table (legacy VM design; unused under shadow PTs).
    pub asid_table: AsidTable,
    /// IRQ dispatch table.
    pub irq_table: IrqTable,
    /// Code layout of the kernel "binary". Immutable after boot, so
    /// snapshots share it via the [`Arc`] instead of copying it.
    pub layout: Arc<Layout>,
    /// Statistics.
    pub stats: KernelStats,
    /// Interrupt response log.
    pub irq_log: Vec<IrqResponse>,
    /// When `Some`, every executed block is appended (CFG-correspondence
    /// tests and path studies).
    pub trace: Option<Vec<Block>>,
    /// When `Some`, per-block execution counts and cycles are accumulated
    /// (the hottest-path side of an attribution report).
    pub profile: Option<HashMap<Block, BlockStat>>,
    /// Machine-wide SMP counters ([`crate::smp`]).
    pub smp: SmpCounters,
    /// One record per core, indexed by core id; the active core is the
    /// machine's resident core ([`Self::cur_core`]).
    cores: Vec<Core>,
    idle: ObjId,
    alloc: BootAlloc,
    /// Objects whose teardown is on the (Rust) call stack right now; a
    /// capability inside a CNode can reference an ancestor being destroyed
    /// (even the CNode itself), and this set breaks the recursion exactly
    /// as seL4's zombie caps do.
    pub(crate) destroying: Vec<ObjId>,
    /// Threads woken by an IRQ and not yet scheduled: tcb -> log index.
    pending_delivery: HashMap<ObjId, usize>,
    /// Installed schedule-decision source ([`crate::decision`]); `None`
    /// (the production state) means no poll-time injection at all.
    decisions: Option<Box<dyn DecisionSource>>,
}

/// A complete, decision-source-free copy of a kernel's state, machine
/// included — the fork point stateful exploration resumes from.
///
/// Every field of [`Kernel`] is plain clonable data *except* the boxed
/// [`DecisionSource`], so the snapshot is exactly "the kernel minus its
/// instrumentation hook": [`Kernel::snapshot`] requires the source to be
/// detached, and [`KernelSnapshot::restore`] always produces a kernel
/// with `decisions == None` (the production state the decision
/// differential pins as bit-identical to an uninstrumented run). That
/// makes the snapshot `Send + Sync` by construction, so frontier branches
/// can carry `Arc<KernelSnapshot>` forks across worker threads even
/// though an instrumented `Kernel` itself never crosses one.
#[derive(Clone, Debug)]
pub struct KernelSnapshot {
    config: KernelConfig,
    machine: Machine,
    objs: ObjStore,
    asid_table: AsidTable,
    irq_table: IrqTable,
    layout: Arc<Layout>,
    stats: KernelStats,
    irq_log: Vec<IrqResponse>,
    trace: Option<Vec<Block>>,
    profile: Option<HashMap<Block, BlockStat>>,
    smp: SmpCounters,
    cores: Vec<Core>,
    idle: ObjId,
    alloc: BootAlloc,
    destroying: Vec<ObjId>,
    pending_delivery: HashMap<ObjId, usize>,
}

impl KernelSnapshot {
    /// Reconstructs a live kernel bit-identical to the one
    /// [`Kernel::snapshot`] captured, with no decision source installed.
    /// The snapshot is unconsumed — one capture can seed any number of
    /// forks.
    pub fn restore(&self) -> Kernel {
        Kernel {
            config: self.config,
            machine: self.machine.clone(),
            objs: self.objs.clone(),
            asid_table: self.asid_table.clone(),
            irq_table: self.irq_table.clone(),
            layout: self.layout.clone(),
            stats: self.stats,
            irq_log: self.irq_log.clone(),
            trace: self.trace.clone(),
            profile: self.profile.clone(),
            smp: self.smp,
            cores: self.cores.clone(),
            idle: self.idle,
            alloc: self.alloc.clone(),
            destroying: self.destroying.clone(),
            pending_delivery: self.pending_delivery.clone(),
            decisions: None,
        }
    }

    /// Restores the snapshot *into* an existing kernel, reusing its heap
    /// buffers (cache line arrays, object slots, core records, log
    /// vectors, and every parked core's hardware context) instead of
    /// allocating fresh ones. The result is bit-identical to
    /// [`KernelSnapshot::restore`] — every field is overwritten, and the
    /// decision source of the target (if any) is dropped so the restored
    /// kernel again has `decisions == None`. This is the explorer's
    /// per-branch fast path: each worker keeps one scratch kernel and
    /// restores thousands of forks into it per wave, turning fork cost
    /// into a handful of `memcpy`s.
    pub fn restore_into(&self, k: &mut Kernel) {
        k.config = self.config;
        k.machine.copy_from(&self.machine);
        k.objs.copy_from(&self.objs);
        k.asid_table = self.asid_table.clone();
        k.irq_table = self.irq_table.clone();
        k.layout = self.layout.clone();
        k.stats = self.stats;
        k.irq_log.clone_from(&self.irq_log);
        k.trace.clone_from(&self.trace);
        k.profile.clone_from(&self.profile);
        k.smp = self.smp;
        k.cores.clone_from(&self.cores);
        k.idle = self.idle;
        k.alloc = self.alloc.clone();
        k.destroying.clone_from(&self.destroying);
        k.pending_delivery.clone_from(&self.pending_delivery);
        k.decisions = None;
    }
}

// The whole point of the snapshot type: it must stay shareable across
// worker threads no matter what fields are added later.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<KernelSnapshot>();
};

impl Kernel {
    /// Boots a kernel on a fresh machine. The idle thread is created; all
    /// other objects are made by the caller (standing in for the root
    /// task) via the `boot_*` constructors or at runtime via retype.
    pub fn new(config: KernelConfig, hw: HwConfig) -> Kernel {
        let machine = Machine::new(hw);
        let mut objs = ObjStore::new();
        // Objects live in RAM above the kernel image's load region.
        let mut alloc = BootAlloc::new(0x8010_0000, 0x0400_0000);
        let idle_base = alloc.alloc(TCB_SIZE_BITS);
        let idle = objs.insert(idle_base, TCB_SIZE_BITS, ObjKind::Tcb(Tcb::new("idle", 0)));
        objs.tcb_mut(idle).state = ThreadState::Idle;
        Kernel {
            config,
            machine,
            objs,
            asid_table: AsidTable::new(),
            irq_table: IrqTable::new(),
            layout: Arc::new(Layout::new()),
            stats: KernelStats::default(),
            irq_log: Vec::new(),
            trace: None,
            profile: None,
            smp: SmpCounters::default(),
            cores: vec![Core::new(idle)],
            idle,
            alloc,
            destroying: Vec::new(),
            pending_delivery: HashMap::new(),
            decisions: None,
        }
    }

    /// Installs a schedule-decision source, consulted at every
    /// preemption-point poll (see [`crate::decision`]).
    pub fn set_decision_source(&mut self, src: Box<dyn DecisionSource>) {
        self.decisions = Some(src);
    }

    /// Removes the installed decision source, returning the kernel to the
    /// uninstrumented production path.
    pub fn clear_decision_source(&mut self) -> Option<Box<dyn DecisionSource>> {
        self.decisions.take()
    }

    /// Captures the kernel's complete state — machine included — as a
    /// [`KernelSnapshot`]. Restoring the snapshot yields a kernel
    /// bit-identical to this one (the decision-differential contract:
    /// `decisions == None` is the uninstrumented production state, and a
    /// snapshot always restores to it).
    ///
    /// # Panics
    ///
    /// If a decision source is installed. Sources are arbitrary boxed
    /// state (closures over run controllers) and cannot be cloned;
    /// callers must [`Self::clear_decision_source`] first and re-install
    /// on whichever kernel — this one, or a restored fork — runs next.
    pub fn snapshot(&self) -> KernelSnapshot {
        assert!(
            self.decisions.is_none(),
            "detach the decision source before snapshotting"
        );
        KernelSnapshot {
            config: self.config,
            machine: self.machine.clone(),
            objs: self.objs.clone(),
            asid_table: self.asid_table.clone(),
            irq_table: self.irq_table.clone(),
            layout: self.layout.clone(),
            stats: self.stats,
            irq_log: self.irq_log.clone(),
            trace: self.trace.clone(),
            profile: self.profile.clone(),
            smp: self.smp,
            cores: self.cores.clone(),
            idle: self.idle,
            alloc: self.alloc.clone(),
            destroying: self.destroying.clone(),
            pending_delivery: self.pending_delivery.clone(),
        }
    }

    /// The currently running thread.
    pub fn current(&self) -> ObjId {
        self.local().cur
    }

    /// The idle thread.
    pub fn idle_thread(&self) -> ObjId {
        self.idle
    }

    /// Returns `true` when the idle thread is running.
    pub fn is_idle(&self) -> bool {
        self.current() == self.idle
    }

    /// Starts recording executed blocks.
    pub fn start_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Stops recording and returns the trace.
    pub fn take_trace(&mut self) -> Vec<Block> {
        self.trace.take().unwrap_or_default()
    }

    /// Starts accumulating a per-block execution profile.
    pub fn start_profile(&mut self) {
        self.profile = Some(HashMap::new());
    }

    /// Stops profiling and returns counts + cycles per executed block.
    pub fn take_profile(&mut self) -> HashMap<Block, BlockStat> {
        self.profile.take().unwrap_or_default()
    }

    // --- Boot-time object construction (root-task stand-in; no timing) ---

    /// Creates a thread at boot.
    pub fn boot_tcb(&mut self, name: &str, prio: u8) -> ObjId {
        let base = self.alloc.alloc(TCB_SIZE_BITS);
        self.objs
            .insert(base, TCB_SIZE_BITS, ObjKind::Tcb(Tcb::new(name, prio)))
    }

    /// Creates an endpoint at boot.
    pub fn boot_endpoint(&mut self) -> ObjId {
        let base = self.alloc.alloc(Endpoint::SIZE_BITS);
        self.objs.insert(
            base,
            Endpoint::SIZE_BITS,
            ObjKind::Endpoint(Endpoint::new()),
        )
    }

    /// Creates a notification at boot.
    pub fn boot_ntfn(&mut self) -> ObjId {
        let base = self.alloc.alloc(Notification::SIZE_BITS);
        self.objs.insert(
            base,
            Notification::SIZE_BITS,
            ObjKind::Notification(Notification::new()),
        )
    }

    /// Creates a CNode at boot.
    pub fn boot_cnode(&mut self, radix_bits: u8) -> ObjId {
        let sb = CNode::size_bits(radix_bits);
        let base = self.alloc.alloc(sb);
        self.objs
            .insert(base, sb, ObjKind::CNode(CNode::new(radix_bits)))
    }

    /// Creates an untyped object of `1 << size_bits` bytes at boot.
    pub fn boot_untyped(&mut self, size_bits: u8) -> ObjId {
        let base = self.alloc.alloc(size_bits);
        self.objs.insert(
            base,
            size_bits,
            ObjKind::Untyped(crate::untyped::Untyped::new()),
        )
    }

    /// Access to the boot allocator (for builders that need raw placement,
    /// e.g. the Fig. 7 deep capability space).
    pub fn boot_alloc(&mut self) -> &mut BootAlloc {
        &mut self.alloc
    }

    /// Programs a whole batch of future device interrupts in one call.
    ///
    /// This is the bulk event-injection hook used by load generators
    /// (rt-load) that pre-compute open-loop arrival schedules with tens of
    /// thousands of raises: it forwards to
    /// [`rt_hw::IrqController::schedule_batch`], which appends every event
    /// and sorts the firing schedule once, instead of the O(n²) re-sort that
    /// per-event [`rt_hw::IrqController::schedule`] calls would cost.
    /// Scheduled lines fire automatically as kernel execution is charged to
    /// the machine (see [`rt_hw::Machine::charge`]).
    pub fn inject_irq_schedule(&mut self, events: impl IntoIterator<Item = (Cycles, IrqLine)>) {
        self.machine.irq.schedule_batch(events);
    }

    /// Makes `tcb` runnable and enqueues it (boot-time resume; charges
    /// nothing). The highest-priority runnable thread becomes current, as
    /// it would after a real scheduling pass.
    pub fn boot_resume(&mut self, tcb: ObjId) {
        let st = &mut self.objs.tcb_mut(tcb).state;
        assert!(
            matches!(st, ThreadState::Inactive),
            "boot_resume on a live thread"
        );
        *st = ThreadState::Running;
        let aff = self.objs.tcb(tcb).affinity;
        self.enqueue_on(aff, tcb);
        if aff == self.cur_core() {
            self.schedule_no_charge();
        } else {
            // Boot-time start on a remote core: kick the core
            // (uncharged, like the rest of boot).
            self.send_resched_ipi(aff);
        }
    }

    /// Boot-time scheduling without timing charges, used to pick the first
    /// thread before measurement begins.
    fn schedule_no_charge(&mut self) {
        let (cur, here) = (self.current(), self.cur_core());
        let cur_runnable = cur != self.idle && self.objs.tcb(cur).state.is_runnable();
        let cur_prio = if cur_runnable {
            Some(self.objs.tcb(cur).prio)
        } else {
            None
        };
        let Some(best) = self.local().queues.choose_bitmap() else {
            return;
        };
        let best_prio = self.objs.tcb(best).prio;
        if cur_prio.is_some_and(|p| p >= best_prio) {
            return; // current keeps the CPU
        }
        if cur_runnable && !self.objs.tcb(cur).in_runqueue {
            self.enqueue_on(here, cur);
        }
        self.dequeue_on(here, best);
        self.set_current(best);
    }

    // --- The block executor ------------------------------------------------

    /// Executes (charges) one kernel basic block: its ops, lowered once
    /// by [`kprog::compiled`] with their dense charge form, in one
    /// [`Machine::run_block`] call. `objs`
    /// supplies the data address for each object-class memory operand, in
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the operand count does not match the block's spec — a
    /// drift between the kernel logic and the kernel "binary" model.
    pub fn blk(&mut self, b: Block, objs: &[Addr]) {
        if let Some(t) = &mut self.trace {
            t.push(b);
        }
        let profile_t0 = self.profile.is_some().then(|| self.machine.now());
        let code = kprog::compiled(b);
        assert_eq!(
            objs.len() as u32,
            code.obj_ops,
            "{b:?}: expected {} object operands, got {}",
            code.obj_ops,
            objs.len()
        );
        self.machine.run_block(&code.lowered, objs);
        if let Some(t0) = profile_t0 {
            let dt = self.machine.now() - t0;
            let p = self.profile.as_mut().expect("profiling was on at entry");
            let e = p.entry(b).or_default();
            e.count += 1;
            e.cycles += dt;
        }
    }

    /// Shorthand for blocks with no object operands.
    pub fn blk0(&mut self, b: Block) {
        self.blk(b, &[]);
    }

    /// Address of a TCB field (timing operand helper).
    pub fn tcb_addr(&self, tcb: ObjId, off: u32) -> Addr {
        self.objs.get(tcb).base + off
    }

    /// Address of an object's base (timing operand helper).
    pub fn obj_addr(&self, obj: ObjId, off: u32) -> Addr {
        self.objs.get(obj).base + off
    }

    // --- Preemption points --------------------------------------------------

    /// A preemption point (§2.1): in the *after* kernel, check for a
    /// pending interrupt; if one is pending, mark the current thread for
    /// restart and unwind. The *before* kernel compiles to nothing.
    pub fn preemption_point(&mut self) -> PreemptResult {
        if !self.config.preemption_points {
            return Ok(());
        }
        let core = self.cur_core();
        if let Some(src) = self.decisions.as_mut() {
            // An injected arrival models a device asserting the line in
            // the instant before this poll samples the pending mask. The
            // consultation itself charges no cycles and, when the source
            // declines, mutates nothing — the production path stays
            // bit-identical.
            if let Some(line) = src.preemption_poll(core, &self.machine.irq) {
                self.machine.raise_on(core, line);
            }
        }
        self.machine.trace_phase("preempt-check");
        self.blk0(Block::PreemptCheck);
        if self.machine.irq.has_pending() {
            self.machine.trace_phase("preempt-fire");
            let cur = self.current();
            let st = self.tcb_addr(cur, crate::tcb::OFF_STATE);
            let ctx = self.tcb_addr(cur, crate::tcb::OFF_CONTEXT);
            self.blk(Block::PreemptSave, &[st, ctx]);
            self.objs.tcb_mut(cur).state = ThreadState::Restart;
            self.stats.preemptions += 1;
            return Err(Preempted);
        }
        Ok(())
    }

    // --- Waking and scheduling ----------------------------------------------

    /// Makes `t` runnable after an IPC delivered to it. `cur_yields` says
    /// whether the current thread is about to stop running (blocked), in
    /// which case an equal-priority wake switches directly.
    pub(crate) fn wake_thread(&mut self, t: ObjId, cur_yields: bool) {
        let st = self.tcb_addr(t, crate::tcb::OFF_STATE);
        let pr = self.tcb_addr(t, crate::tcb::OFF_PRIO);
        self.blk(Block::WakeThread, &[st, pr]);
        self.objs.tcb_mut(t).state = ThreadState::Running;
        let aff = self.objs.tcb(t).affinity;
        if aff != self.cur_core() {
            // Cross-core wake (DESIGN.md §14): never direct-switch to a
            // thread homed on another core — enqueue it there and kick
            // the core with a reschedule IPI. Lazy scheduling may find
            // the thread still queued (on its affinity core, by the
            // migration invariant); then only the kick is needed.
            if !self.objs.tcb(t).in_runqueue {
                self.charge_enqueue(t);
                self.enqueue_remote(t);
            } else {
                self.machine.advance(kprog::DEVICE_ACCESS_CYCLES);
                self.send_resched_ipi(aff);
            }
            return;
        }
        let t_prio = self.objs.tcb(t).prio;
        let cur_prio = self.objs.tcb(self.current()).prio;
        let eligible = if cur_yields {
            t_prio >= cur_prio
        } else {
            t_prio > cur_prio
        };
        match self.config.sched {
            SchedKind::Lazy => {
                // Lazy scheduling: a thread that blocked while queued is
                // still queued; one that has never run must be entered.
                if !self.objs.tcb(t).in_runqueue {
                    self.charge_enqueue(t);
                    self.enqueue_on(aff, t);
                }
                if eligible {
                    self.blk0(Block::DirectSwitch);
                    self.set_sched_action(SchedAction::SwitchTo(t));
                }
            }
            SchedKind::Benno | SchedKind::BennoBitmap => {
                if eligible {
                    // §3.1: switch directly, do not enqueue the woken
                    // thread.
                    self.blk0(Block::DirectSwitch);
                    self.set_sched_action(SchedAction::SwitchTo(t));
                } else {
                    self.charge_enqueue(t);
                    self.enqueue_on(aff, t);
                    if self.config.sched == SchedKind::BennoBitmap {
                        self.blk0(Block::BitmapSet);
                    }
                }
            }
        }
    }

    /// Makes a thread runnable outside IPC wake (cancelled IPC, resume):
    /// always enqueued, never direct-switched.
    pub(crate) fn make_runnable_enqueue(&mut self, t: ObjId) {
        let st = self.tcb_addr(t, crate::tcb::OFF_STATE);
        let pr = self.tcb_addr(t, crate::tcb::OFF_PRIO);
        self.blk(Block::WakeThread, &[st, pr]);
        if !self.objs.tcb(t).in_runqueue {
            self.charge_enqueue(t);
            self.enqueue_routed(t);
        }
        if self.sched_action() == SchedAction::ResumeCurrent
            && !self.objs.tcb(self.current()).state.is_runnable()
        {
            self.set_sched_action(SchedAction::ChooseNew);
        }
    }

    fn charge_enqueue(&mut self, t: ObjId) {
        let a = self.tcb_addr(t, crate::tcb::OFF_SCHED_PREV);
        let b = self.tcb_addr(t, crate::tcb::OFF_SCHED_NEXT);
        let st = self.tcb_addr(t, crate::tcb::OFF_STATE);
        let pr = self.tcb_addr(t, crate::tcb::OFF_PRIO);
        let tail = self.tcb_addr(t, 0x24);
        self.blk(Block::EnqueueThread, &[pr, a, b, st, tail]);
    }

    fn charge_dequeue(&mut self, t: ObjId) {
        let a = self.tcb_addr(t, crate::tcb::OFF_SCHED_PREV);
        let b = self.tcb_addr(t, crate::tcb::OFF_SCHED_NEXT);
        let st = self.tcb_addr(t, crate::tcb::OFF_STATE);
        let pr = self.tcb_addr(t, crate::tcb::OFF_PRIO);
        let c = self.tcb_addr(t, 0x24);
        let d = self.tcb_addr(t, 0x28);
        self.blk(Block::DequeueThread, &[pr, a, b, st, c, d]);
    }

    /// Suspends thread `t` (as a root-task stand-in would via TcbSuspend):
    /// dequeues it if queued, marks it inactive and reschedules. Used by
    /// [`crate::system::step_current`] to park a thread that stops or
    /// has no next action.
    pub fn suspend_thread(&mut self, t: ObjId) {
        if self.objs.tcb(t).in_runqueue {
            self.dequeue_on(self.cur_core(), t);
        }
        self.objs.tcb_mut(t).state = ThreadState::Inactive;
        self.force_choose_new();
        self.schedule();
    }

    /// Resolves the pending scheduling decision — runs on every kernel
    /// exit.
    pub(crate) fn schedule(&mut self) {
        let action = std::mem::take(&mut self.local_mut().sched_action);
        match action {
            SchedAction::ResumeCurrent => {
                let state = &self.objs.tcb(self.current()).state;
                if state.is_runnable() || *state == ThreadState::Idle {
                    return;
                }
                // Current blocked with no explicit decision: choose.
                self.choose_and_commit();
            }
            SchedAction::SwitchTo(t) => {
                // The displaced thread is entered into the run queue if it
                // is still runnable and not queued — §3.1: "the run queue's
                // consistency can be re-established at preemption time".
                self.requeue_current();
                // Benno: the woken thread was never enqueued. Lazy: it may
                // still be queued — leave it there (Fig. 2 tolerates this).
                if self.config.sched != SchedKind::Lazy && self.objs.tcb(t).in_runqueue {
                    self.dequeue_chosen(t);
                }
                self.commit(t);
            }
            SchedAction::ChooseNew => self.choose_and_commit(),
        }
    }

    /// The three `chooseThread` implementations with per-step charging.
    fn choose_and_commit(&mut self) {
        // A preempted-but-runnable current thread must be queued before we
        // choose (it may well be the winner — unless affinity routes it
        // to another core, in which case it migrates now).
        self.requeue_current();
        let chosen = match self.config.sched {
            SchedKind::Lazy => self.choose_lazy_charged(),
            SchedKind::Benno => self.choose_benno_charged(),
            SchedKind::BennoBitmap => self.choose_bitmap_charged(),
        };
        match chosen {
            Some(t) => {
                // Benno-family: the chosen thread leaves the queue; lazy
                // leaves it at the head (Fig. 2).
                if self.config.sched != SchedKind::Lazy {
                    self.dequeue_chosen(t);
                }
                self.commit(t);
            }
            None => {
                self.blk0(Block::SchedIdle);
                self.commit(self.idle);
            }
        }
    }

    /// Charged dequeue of the thread the scheduler picked from the local
    /// queues, clearing its bitmap bit if its priority empties.
    fn dequeue_chosen(&mut self, t: ObjId) {
        self.charge_dequeue(t);
        self.dequeue_on(self.cur_core(), t);
        if self.config.sched == SchedKind::BennoBitmap
            && self.local().queues.head(self.objs.tcb(t).prio).is_none()
        {
            self.blk0(Block::BitmapClear);
        }
    }

    /// Fig. 2 with cost charging: scan priorities, dequeue blocked threads
    /// found at queue heads.
    fn choose_lazy_charged(&mut self) -> Option<ObjId> {
        for prio in (0..crate::NUM_PRIOS as usize).rev() {
            self.blk0(Block::SchedPrioScan);
            while let Some(head) = self.local().queues.head(prio as u8) {
                let st = self.tcb_addr(head, crate::tcb::OFF_STATE);
                self.blk(Block::SchedLazyIter, &[st]);
                if self.objs.tcb(head).state.is_runnable() {
                    return Some(head);
                }
                let a = self.tcb_addr(head, crate::tcb::OFF_SCHED_PREV);
                let b = self.tcb_addr(head, crate::tcb::OFF_SCHED_NEXT);
                let c = self.tcb_addr(head, 0x24);
                let d = self.tcb_addr(head, 0x28);
                self.blk(
                    Block::SchedLazyDequeue,
                    &[st, a, b, c, d, self.tcb_addr(head, crate::tcb::OFF_PRIO)],
                );
                self.dequeue_on(self.cur_core(), head);
                self.stats.lazy_dequeues += 1;
            }
        }
        None
    }

    /// Fig. 3 with cost charging: scan priorities for a non-empty queue.
    fn choose_benno_charged(&mut self) -> Option<ObjId> {
        for prio in (0..crate::NUM_PRIOS as usize).rev() {
            self.blk0(Block::SchedPrioScan);
            if let Some(h) = self.local().queues.head(prio as u8) {
                debug_assert!(
                    self.objs.tcb(h).state.is_runnable(),
                    "Benno invariant: queued thread must be runnable"
                );
                return Some(h);
            }
        }
        None
    }

    /// §3.2 with cost charging: two loads and two CLZ.
    fn choose_bitmap_charged(&mut self) -> Option<ObjId> {
        self.blk0(Block::SchedBitmap);
        self.local().queues.choose_bitmap()
    }

    /// Installs `t` as the current thread, charging the commit and (if the
    /// thread changes) the context switch.
    fn commit(&mut self, t: ObjId) {
        let st = self.tcb_addr(t, crate::tcb::OFF_STATE);
        self.blk(Block::SchedCommit, &[st]);
        if t != self.current() {
            let ctx: [Addr; 8] =
                std::array::from_fn(|i| self.tcb_addr(t, crate::tcb::OFF_CONTEXT + 4 * i as u32));
            self.blk(Block::CtxSwitch, &ctx);
            self.local_mut().cur = t;
        }
        // A scheduled Restart-state thread is about to re-execute its
        // trapped system call; accounting only (`system::restart_current`
        // drives the re-execution).
        if self.objs.tcb(t).state == ThreadState::Restart {
            self.stats.restarts += 1;
        }
        // IRQ delivery latency: the woken handler thread is now running.
        if let Some(ix) = self.pending_delivery.remove(&t) {
            let now = self.machine.now();
            self.irq_log[ix].delivered = Some(now);
        }
    }

    // --- Interrupt path -----------------------------------------------------

    /// The kernel's interrupt handler body (no entry/exit): AVIC read,
    /// table lookup, notification signal, wake, ack. Called from the IRQ
    /// vector, from preemption points, and from the exit check.
    pub(crate) fn interrupt_core(&mut self) {
        self.blk0(Block::IrqGet);
        let Some(line) = self.machine.irq.pending_unmasked() else {
            self.blk0(Block::IrqSpurious);
            return;
        };
        self.blk0(Block::IrqLookup);
        let binding = self.irq_table.lookup(line.0);
        let raised = self.machine.irq.ack(line).unwrap_or(0);
        let kernel_ack = self.machine.now();
        let log_ix = self.irq_log.len();
        self.irq_log.push(IrqResponse {
            line,
            raised,
            kernel_ack,
            delivered: None,
        });
        self.blk0(Block::IrqAck);
        if self.smp_active() && (line.0 == IPI_RESCHED_LINE || line.0 == IPI_SHOOTDOWN_LINE) {
            self.handle_ipi(line);
            return;
        }
        if let Some(b) = binding {
            // seL4's IRQ protocol: the line stays masked until the driver
            // acknowledges with IrqAck, preventing interrupt storms from
            // re-entering before the handler has run.
            self.machine.irq.mask(line);
            let w = self.obj_addr(b.ntfn, 0);
            let wt = self.obj_addr(b.ntfn, 4);
            self.blk(Block::IrqSignal, &[w, wt, w, wt]);
            match ntfn::signal(&mut self.objs, b.ntfn, b.badge) {
                ntfn::SignalOutcome::Wake { tcb, word } => {
                    self.objs.tcb_mut(tcb).msg_info.label = word;
                    self.pending_delivery.insert(tcb, log_ix);
                    self.wake_thread(tcb, false);
                    // An interrupt wake always reconsiders scheduling so a
                    // higher-priority driver preempts the current thread.
                    if self.sched_action() == SchedAction::ResumeCurrent {
                        self.set_sched_action(SchedAction::ChooseNew);
                    }
                }
                ntfn::SignalOutcome::Accumulated => {}
            }
        } else if line.0 == TIMER_LINE {
            // Timer tick: the current thread's timeslice ends. It is
            // re-entered into the run queue (at the tail of its priority)
            // by the scheduler — the §3.1 "re-established at preemption
            // time" path — and `chooseThread` runs, giving round-robin
            // among equal priorities.
            if self.sched_action() == SchedAction::ResumeCurrent {
                self.set_sched_action(SchedAction::ChooseNew);
            }
        }
    }

    /// Full interrupt entry: the path Table 1 and Table 2 bound. Called by
    /// the System harness when an IRQ arrives while userspace runs.
    pub fn handle_interrupt(&mut self) {
        self.lock_enter();
        self.stats.interrupt_entries += 1;
        self.blk0(Block::IrqEntry);
        self.interrupt_core();
        self.exit_kernel();
        self.lock_exit();
    }

    // --- Kernel exit ----------------------------------------------------

    /// Schedule, final interrupt check, restore, return to user (§2.1:
    /// interrupts are "handled when encountering a preemption point or
    /// upon returning to the user").
    pub(crate) fn exit_kernel(&mut self) {
        self.schedule();
        self.blk0(Block::KExitCheck);
        // Service anything that became pending while we were in the
        // kernel; each service can wake threads, so re-schedule. Bounded
        // by the number of interrupt lines.
        let mut guard = 0;
        while self.machine.irq.has_pending() && guard < 64 {
            self.interrupt_core();
            self.schedule();
            self.blk0(Block::KExitCheck);
            guard += 1;
        }
        let cur = self.current();
        let ctx: [Addr; 6] =
            std::array::from_fn(|i| self.tcb_addr(cur, crate::tcb::OFF_CONTEXT + 4 * i as u32));
        self.blk(Block::ExitRestore, &ctx);
    }

    // --- Fault entries ----------------------------------------------------

    /// Page-fault entry: builds a fault message and sends it to the
    /// faulting thread's fault handler (decoded in *its* cspace — one
    /// 32-level decode in the worst case, §6.1).
    pub fn handle_page_fault(&mut self, fault_addr: Addr) {
        self.lock_enter();
        self.stats.fault_entries += 1;
        self.blk0(Block::PfEntry);
        self.fault_common(fault_addr, 16);
        self.exit_kernel();
        self.lock_exit();
    }

    /// Undefined-instruction entry.
    pub fn handle_undefined(&mut self) {
        self.lock_enter();
        self.stats.fault_entries += 1;
        self.blk0(Block::UndefEntry);
        self.fault_common(0, 14);
        self.exit_kernel();
        self.lock_exit();
    }

    /// Common fault handling: decode handler cap, build message, send.
    fn fault_common(&mut self, info: u32, msg_words: u32) {
        let cur = self.current();
        let a = self.tcb_addr(cur, crate::tcb::OFF_CONTEXT);
        let b = self.tcb_addr(cur, crate::tcb::OFF_MSGINFO);
        self.blk(Block::FaultSetup, &[a, b]);
        for i in 0..msg_words {
            let m = crate::tcb::Tcb::msg_addr(&self.objs, cur, i);
            self.blk(Block::FaultMsgWord, &[m]);
        }
        let _ = info;
        let handler_cptr = self.objs.tcb(cur).fault_handler;
        let root = self.objs.tcb(cur).cspace_root.clone();
        match self.resolve_charged(&root, handler_cptr, crate::CSPACE_DEPTH_BITS) {
            Ok(slot) => {
                let cap = crate::cap::read_slot(&self.objs, slot).cap.clone();
                if let CapType::Endpoint { obj, badge, rights } = cap {
                    if rights.write {
                        // The faulting thread performs, in effect, a Call on
                        // its handler endpoint.
                        self.objs.tcb_mut(cur).msg_info.length = msg_words;
                        let _ = self.ipc_send(cur, obj, badge, false, true, true);
                    }
                } else {
                    // No valid handler: suspend the thread.
                    self.objs.tcb_mut(cur).state = ThreadState::Inactive;
                    self.set_sched_action(SchedAction::ChooseNew);
                }
            }
            Err(_) => {
                self.objs.tcb_mut(cur).state = ThreadState::Inactive;
                self.set_sched_action(SchedAction::ChooseNew);
            }
        }
    }

    // --- Capability decode with charging ------------------------------------

    /// Resolves a capability address, charging one [`Block::ResolveLevel`]
    /// per level — the Fig. 7 cost structure.
    pub(crate) fn resolve_charged(
        &mut self,
        root: &CapType,
        cptr: u32,
        depth: u32,
    ) -> Result<SlotRef, crate::cnode::DecodeError> {
        let r1 = match root {
            CapType::CNode { obj, .. } if self.objs.is_live(*obj) => self.obj_addr(*obj, 0),
            _ => kprog::KERNEL_GLOBALS_BASE,
        };
        self.machine.trace_phase("decode");
        self.blk(Block::ResolveEntry, &[r1, r1 + 4]);
        // Walk the levels, collecting the per-level charge addresses first
        // (the store is borrowed immutably during the walk).
        let mut level_addrs: Vec<[Addr; 3]> = Vec::new();
        let result = crate::cnode::resolve_slot(&self.objs, root, cptr, depth, |step| {
            let node_base = self.objs.get(step.node).base;
            let slot_addr = step.slot.addr(&self.objs);
            level_addrs.push([node_base, slot_addr, slot_addr + 8]);
        });
        for a in &level_addrs {
            self.blk(Block::ResolveLevel, &[a[0], a[1], a[2]]);
        }
        self.blk0(Block::ResolveFinish);
        result
    }

    /// Reads the cap at an already-resolved slot (no further charging; the
    /// final ResolveLevel already touched the slot words).
    pub(crate) fn cap_at(&self, slot: SlotRef) -> CapType {
        crate::cap::read_slot(&self.objs, slot).cap.clone()
    }

    /// Overrides the pending scheduling decision (used by syscall paths
    /// that must force a full `chooseThread`).
    pub(crate) fn set_sched_action(&mut self, a: SchedAction) {
        self.local_mut().sched_action = a;
    }

    /// The pending scheduling decision (tests).
    pub fn sched_action(&self) -> SchedAction {
        self.local().sched_action
    }

    /// Installs `t` as the current thread with no pending decision.
    fn set_current(&mut self, t: ObjId) {
        let core = self.local_mut();
        core.cur = t;
        core.sched_action = SchedAction::ResumeCurrent;
    }

    /// Fastpath commit: installs `t` as current without running the
    /// scheduler (the fastpath blocks already charged the switch).
    pub(crate) fn install_current_fast(&mut self, t: ObjId) {
        self.set_current(t);
        if let Some(ix) = self.pending_delivery.remove(&t) {
            let now = self.machine.now();
            self.irq_log[ix].delivered = Some(now);
        }
    }

    /// Test/bench helper: forcibly set the current thread with no charges.
    pub fn force_current_for_test(&mut self, t: ObjId) {
        self.set_current(t);
    }

    // --- SMP (DESIGN.md §14) -----------------------------------------------

    /// Turns this kernel into an `n`-core SMP kernel. Core 0 inherits
    /// the boot state (everything built so far keeps running there);
    /// cores `1..n` boot cold, idling on the shared idle thread with
    /// empty run queues. `enable_smp(1)` changes nothing: a one-core
    /// kernel is the one-record case, and every SMP charge is gated on
    /// `n_cores > 1`, mirroring seL4 compiling the lock and IPIs out of
    /// uniprocessor builds.
    ///
    /// # Panics
    ///
    /// If the kernel already has more than one core, or `n` is outside
    /// `1..=8`.
    pub fn enable_smp(&mut self, n: u8) {
        assert!((1..=8).contains(&n), "supported core counts: 1..=8");
        assert_eq!(self.n_cores(), 1, "enable_smp called twice");
        self.machine.set_cores(n);
        self.cores.resize(usize::from(n), Core::new(self.idle));
    }

    /// Unmasks `line` on the interrupt-controller interface of the core
    /// it is routed to. Device lines are distributor resources delivered
    /// to exactly one core, but a driver may acknowledge from any core
    /// (cross-core wakes migrate drivers): the unmask must reach the
    /// routed core's controller, not the acker's.
    pub(crate) fn unmask_routed(&mut self, line: IrqLine) {
        let rc = self.machine.irq_route(line);
        self.machine.core_irq_mut(rc).unmask(line);
    }

    /// Number of cores.
    pub fn n_cores(&self) -> u8 {
        self.cores.len() as u8
    }

    /// The active core: the machine's resident core.
    pub fn cur_core(&self) -> u8 {
        self.machine.core()
    }

    /// Whether the SMP charges are live (`n_cores > 1`).
    pub fn smp_active(&self) -> bool {
        self.n_cores() > 1
    }

    /// Kernel state of core `c`.
    pub fn core(&self, c: u8) -> &Core {
        &self.cores[usize::from(c)]
    }

    /// Mutable kernel state of core `c` (test/bug-seeding hook).
    pub fn core_mut(&mut self, c: u8) -> &mut Core {
        &mut self.cores[usize::from(c)]
    }

    /// The active core's record.
    pub(crate) fn local(&self) -> &Core {
        &self.cores[usize::from(self.machine.core())]
    }

    /// The active core's record, mutably.
    pub(crate) fn local_mut(&mut self) -> &mut Core {
        &mut self.cores[usize::from(self.machine.core())]
    }

    /// Links `t` into core `c`'s run queue. Uncharged: callers charge
    /// the enqueue themselves, or are set-up code like the `boot_*`
    /// helpers.
    pub fn enqueue_on(&mut self, c: u8, t: ObjId) {
        self.cores[usize::from(c)].queues.enqueue(&mut self.objs, t);
    }

    /// Unlinks `t` from core `c`'s run queue (uncharged, as
    /// [`Self::enqueue_on`]).
    pub fn dequeue_on(&mut self, c: u8, t: ObjId) {
        self.cores[usize::from(c)].queues.dequeue(&mut self.objs, t);
    }

    /// Changes `t`'s affinity (uncharged management operation, like the
    /// `boot_*` helpers). A *queued* thread migrates between run queues
    /// immediately and the destination core is kicked with a reschedule
    /// IPI; a running thread keeps its core until next displaced, at
    /// which point the routed enqueue migrates it.
    pub fn set_affinity(&mut self, t: ObjId, core: u8) {
        assert!(core < self.n_cores(), "core {core} out of range");
        let old = self.objs.tcb(t).affinity;
        if old == core {
            return;
        }
        let queued = self.objs.tcb(t).in_runqueue;
        if queued {
            self.dequeue_on(old, t);
        }
        self.objs.tcb_mut(t).affinity = core;
        if queued {
            self.enqueue_on(core, t);
            if core != self.cur_core() {
                self.send_resched_ipi(core);
            }
        }
    }

    /// Raises the reschedule IPI on `target`'s interrupt interface,
    /// stamped with the target's local clock. Dropped silently when the
    /// seeded lost-IPI bug is armed.
    fn send_resched_ipi(&mut self, target: u8) {
        if !self.smp_active() {
            return;
        }
        self.cores[usize::from(target)].resched_sent += 1;
        if self.smp.drop_resched_ipis {
            return;
        }
        debug_assert_ne!(target, self.cur_core(), "IPI to self");
        self.machine.raise_on(target, IrqLine(IPI_RESCHED_LINE));
    }

    /// Enqueues `t` on its (remote) affinity core and kicks that core:
    /// the charged cross-core wake path. Charges the bitmap write and
    /// the distributor register write on the *current* core.
    fn enqueue_remote(&mut self, t: ObjId) {
        let aff = self.objs.tcb(t).affinity;
        self.enqueue_on(aff, t);
        if self.config.sched == SchedKind::BennoBitmap {
            self.blk0(Block::BitmapSet);
        }
        // Distributor write raising the IPI: one uncached device access.
        self.machine.advance(kprog::DEVICE_ACCESS_CYCLES);
        self.send_resched_ipi(aff);
    }

    /// Enqueues `t` (already charged by `charge_enqueue`) on its
    /// affinity core: locally with the bitmap write, or remotely with a
    /// kick.
    fn enqueue_routed(&mut self, t: ObjId) {
        let here = self.cur_core();
        if self.objs.tcb(t).affinity != here {
            self.enqueue_remote(t);
        } else {
            self.enqueue_on(here, t);
            if self.config.sched == SchedKind::BennoBitmap {
                self.blk0(Block::BitmapSet);
            }
        }
    }

    /// Requeues a displaced-but-runnable current thread, routing by
    /// affinity.
    fn requeue_current(&mut self) {
        let cur = self.current();
        let cur_runnable = self.objs.tcb(cur).state.is_runnable();
        if cur_runnable && !self.objs.tcb(cur).in_runqueue && cur != self.idle {
            self.charge_enqueue(cur);
            self.enqueue_routed(cur);
        }
    }

    /// Services an IPI line on the active core: decode phase marker,
    /// the kind-specific work, then the (auto-)EOI marker. The shared
    /// interrupt path has already acked the line — that ack *is* the
    /// EOI; IPI lines are never masked (no driver protocol).
    fn handle_ipi(&mut self, line: IrqLine) {
        self.machine.trace_phase("ipi-decode");
        if line.0 == IPI_SHOOTDOWN_LINE {
            // Remote TLB invalidate: same block as the local flush.
            self.blk0(Block::TlbFlush);
            self.local_mut().shootdown_pending = false;
            self.smp.shootdowns_completed += 1;
        } else if self.sched_action() == SchedAction::ResumeCurrent {
            // Reschedule kick: force a full chooseThread on this core.
            self.set_sched_action(SchedAction::ChooseNew);
        }
        self.machine.trace_phase("ipi-eoi");
        self.smp.ipi_eois += 1;
    }

    /// Broadcasts a TLB shootdown to every other core (called from the
    /// local TLB-flush path). Asynchronous completion: each target
    /// invalidates its TLB when it services the IPI; the initiator does
    /// not spin (stale remote translations are benign in this model —
    /// the window closes at the target's next kernel entry, and the
    /// §2.1 latency story is what the model is for).
    pub(crate) fn tlb_shootdown_broadcast(&mut self) {
        let here = self.cur_core();
        for c in (0..self.n_cores()).filter(|&c| c != here) {
            self.machine.trace_phase("shootdown-send");
            self.machine.advance(kprog::DEVICE_ACCESS_CYCLES);
            self.cores[usize::from(c)].shootdown_pending = true;
            self.smp.shootdowns_initiated += 1;
            self.machine.raise_on(c, IrqLine(IPI_SHOOTDOWN_LINE));
        }
    }

    /// Acquires the big kernel lock on kernel entry: charges the
    /// modeled wait for overlap with other cores' recorded holds and
    /// records this hold's start. Compiled out (`return`) below 2
    /// cores.
    pub(crate) fn lock_enter(&mut self) {
        if !self.smp_active() {
            return;
        }
        let wait = smp::lock_wait_for_entry(&self.cores, self.cur_core(), self.machine.now());
        if wait > 0 {
            self.machine.trace_phase("lock-wait");
            self.machine.advance(wait);
            self.local_mut().lock_wait += wait;
        }
        let start = self.machine.now();
        self.local_mut().entered_at = Some(start);
    }

    /// Releases the big kernel lock on kernel exit, recording the hold
    /// interval.
    pub(crate) fn lock_exit(&mut self) {
        if !self.smp_active() {
            return;
        }
        let end = self.machine.now();
        let core = self.local_mut();
        if let Some(start) = core.entered_at.take() {
            core.last_hold = Some(LockHold { start, end });
        }
    }
}

/// A 32-level binary capability-space trie (Fig. 7), built at boot like
/// the `Kernel::boot_*` objects: every inserted capability address
/// decodes through one radix-1 CNode per address bit, so every decode of
/// these cptrs costs the worst case §6.1 describes.
pub struct DeepCspace {
    /// Root CNode object of the trie.
    pub root_obj: ObjId,
    /// The root capability threads use as their cspace root.
    pub root_cap: CapType,
}

impl DeepCspace {
    /// Builds an empty trie root.
    pub fn new(k: &mut Kernel) -> DeepCspace {
        let root_obj = k.boot_cnode(1);
        DeepCspace {
            root_obj,
            root_cap: CapType::CNode {
                obj: root_obj,
                guard_bits: 0,
                guard: 0,
            },
        }
    }

    /// Walks (building as needed) the 32-level chain for `cptr` and
    /// returns the final slot, which the caller may fill or leave empty.
    pub fn reserve(&self, k: &mut Kernel, cptr: u32) -> SlotRef {
        let mut node = self.root_obj;
        for level in 0..31 {
            let slot = SlotRef::new(node, (cptr >> (31 - level)) & 1);
            node = match &crate::cap::read_slot(&k.objs, slot).cap {
                CapType::CNode { obj, .. } => *obj,
                CapType::Null => {
                    let child = k.boot_cnode(1);
                    let cap = CapType::CNode {
                        obj: child,
                        guard_bits: 0,
                        guard: 0,
                    };
                    crate::cap::insert_cap(&mut k.objs, slot, cap, None);
                    child
                }
                other => panic!("trie slot holds {other:?}"),
            };
        }
        SlotRef::new(node, cptr & 1)
    }

    /// Inserts `cap` at the 32-level address `cptr`.
    pub fn insert(&self, k: &mut Kernel, cptr: u32, cap: CapType) -> SlotRef {
        let slot = self.reserve(k, cptr);
        crate::cap::insert_cap(&mut k.objs, slot, cap, None);
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::RunToCompletion;
    use crate::invariants;
    use crate::testutil::boot_two_threads_one_ep;

    fn observables(k: &Kernel) -> String {
        format!(
            "{:?} {:?} {:?} {:?} {:?}",
            k.machine,
            k.stats,
            k.irq_log,
            k.current(),
            k.sched_action()
        )
    }

    /// Snapshot/restore round-trips to a bit-identical kernel: identical
    /// at rest, and identical after running both forward under the same
    /// inputs (interrupt arrival included).
    #[test]
    fn snapshot_restore_round_trips() {
        let (mut k, _client, _server, _ep) = boot_two_threads_one_ep();
        k.machine.advance(100);
        k.machine
            .irq
            .schedule(k.machine.now() + 50, rt_hw::IrqLine(3));
        let snap = k.snapshot();
        let mut f = snap.restore();
        assert_eq!(observables(&k), observables(&f), "restore diverged at rest");
        for kernel in [&mut k, &mut f] {
            kernel.machine.advance(60);
            kernel.handle_interrupt();
        }
        assert_eq!(
            observables(&k),
            observables(&f),
            "restore diverged after identical inputs"
        );
        assert!(invariants::check_all(&f).is_empty());
        // One capture seeds any number of forks.
        let g = snap.restore();
        assert!(invariants::check_all(&g).is_empty());
    }

    /// `restore_into` — the buffer-reusing fast path — is bit-identical
    /// to `restore()`, whatever state the target kernel is in: every
    /// field is overwritten, including dropping an installed decision
    /// source back to the uninstrumented `None`.
    #[test]
    fn restore_into_matches_restore() {
        let (mut k, _client, _server, _ep) = boot_two_threads_one_ep();
        k.machine.advance(100);
        k.machine
            .irq
            .schedule(k.machine.now() + 50, rt_hw::IrqLine(3));
        let snap = k.snapshot();
        let fresh = snap.restore();
        // A deliberately divergent target: run it forward, take the
        // interrupt, and install a source.
        let mut target = boot_two_threads_one_ep().0;
        target.machine.advance(500);
        target.handle_interrupt();
        target.set_decision_source(Box::new(RunToCompletion));
        snap.restore_into(&mut target);
        assert!(target.decisions.is_none(), "source survived restore_into");
        assert_eq!(
            observables(&fresh),
            observables(&target),
            "restore_into diverged from restore at rest"
        );
        assert_eq!(format!("{:?}", fresh.objs), format!("{:?}", target.objs));
        let mut fresh = fresh;
        for kernel in [&mut fresh, &mut target] {
            kernel.machine.advance(60);
            kernel.handle_interrupt();
        }
        assert_eq!(
            observables(&fresh),
            observables(&target),
            "restore_into diverged after identical inputs"
        );
    }

    #[test]
    fn deep_cspace_decodes_in_32_levels() {
        let mut k = Kernel::new(KernelConfig::after(), HwConfig::default());
        let cs = DeepCspace::new(&mut k);
        let ep = k.boot_endpoint();
        cs.insert(
            &mut k,
            0xDEAD_BEEF,
            CapType::Endpoint {
                obj: ep,
                badge: crate::cap::Badge::NONE,
                rights: crate::cap::Rights::ALL,
            },
        );
        let mut levels = 0;
        let slot =
            crate::cnode::resolve_slot(&k.objs, &cs.root_cap, 0xDEAD_BEEF, 32, |_| levels += 1)
                .expect("resolves");
        assert_eq!(levels, 32);
        assert!(matches!(
            crate::cap::read_slot(&k.objs, slot).cap,
            CapType::Endpoint { .. }
        ));
    }

    /// Snapshotting an instrumented kernel is a caller bug: the boxed
    /// source cannot be cloned, and silently dropping it would break the
    /// `None` == uninstrumented bit-identity contract.
    #[test]
    #[should_panic(expected = "detach the decision source")]
    fn snapshot_with_source_installed_panics() {
        let (mut k, _, _, _) = boot_two_threads_one_ep();
        k.set_decision_source(Box::new(RunToCompletion));
        let _ = k.snapshot();
    }
}
