//! SMP kernel state: per-core scheduler slots, IPIs, the big kernel
//! lock, and TLB shootdown (DESIGN.md §14).
//!
//! The kernel multiplexes one [`crate::kernel::Kernel`] across N cores
//! the same way `rt_hw` multiplexes the machine: the *active* core's
//! scheduler state lives in the kernel's existing fields (`queues`,
//! `cur`, `sched_action`) and every parked core's state lives in a
//! [`CoreSlot`]. [`crate::kernel::Kernel::switch_core`] exchanges them
//! in O(1). A kernel with `smp == None` — or with `n_cores == 1` — is
//! bit-identical to the pre-SMP kernel: every SMP charge and every SMP
//! state transition below is gated on `n_cores > 1`, mirroring seL4's
//! SMP build compiling the lock and IPIs out of uniprocessor kernels.
//!
//! Components:
//!
//! * **Per-core Benno queues** — each core owns a full
//!   [`RunQueues`] (heads, tails, priority bitmap). Wakes route by the
//!   target thread's affinity; cross-core wakes enqueue remotely and
//!   kick the target with a reschedule IPI.
//! * **IPIs** — two dedicated interrupt lines
//!   ([`IPI_RESCHED_LINE`], [`IPI_SHOOTDOWN_LINE`]) raised directly on
//!   the target core's interrupt-controller interface, stamped with the
//!   *target's* clock. They are auto-EOI: the service path acks the
//!   line (the EOI) and never masks it, unlike the
//!   mask-until-driver-ack device protocol.
//! * **Big kernel lock** — every kernel entry acquires the lock,
//!   every exit releases it. Hold intervals are recorded
//!   ([`LockHold`]), and an entry overlapping another core's most
//!   recent hold charges the overlap as lock-wait: a first-class
//!   latency component, reported per core and bounded by
//!   `(K-1) * hold_cap` per entry. Per-core clocks are independent, so
//!   the overlap is computed with saturating arithmetic and capped at
//!   both the hold's true length and [`BigLock::hold_cap`] (the modeled
//!   "holder releases at its next preemption point" horizon).
//! * **TLB shootdown** — the local TLB-flush path broadcasts a
//!   shootdown IPI to every other core; each target invalidates its
//!   TLB (charging the same `TlbFlush` block locally) and marks the
//!   shootdown complete.

use rt_hw::smp::{CoreCtx, IrqRouting};
use rt_hw::Cycles;

use crate::kernel::SchedAction;
use crate::obj::ObjId;
use crate::sched::RunQueues;

/// IPI line for cross-core reschedule kicks.
pub const IPI_RESCHED_LINE: u8 = 30;
/// IPI line for TLB-shootdown requests.
pub const IPI_SHOOTDOWN_LINE: u8 = 29;

/// Default [`BigLock::hold_cap`]: the modeled upper bound on how long a
/// contended hold delays a waiter before the holder reaches a
/// preemption point or exits. Sized above every per-entry WCET the
/// workspace computes so the cap itself never truncates a real hold's
/// overlap in the scenarios the tests drive.
pub const DEFAULT_LOCK_HOLD_CAP: Cycles = 50_000;

/// Capacity of the rolling hold-interval log.
const HOLD_LOG_CAP: usize = 64;

/// One parked core's scheduler state (the active core's lives in the
/// kernel's own fields; its slot holds the previously swapped-out
/// placeholder and is never read while the core is active).
#[derive(Debug)]
pub struct CoreSlot {
    /// Parked hardware state (L1s, predictor, IRQ interface, PMU,
    /// accounts, trace).
    pub ctx: CoreCtx,
    /// Parked per-core run queues + priority bitmap.
    pub queues: RunQueues,
    /// Parked current thread.
    pub cur: ObjId,
    /// Parked pending scheduling decision.
    pub sched_action: SchedAction,
}

/// One recorded big-lock hold interval, in the holder's own clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockHold {
    /// Core that held the lock.
    pub core: u8,
    /// Cycle the hold began (kernel entry, after any lock-wait).
    pub start: Cycles,
    /// Cycle the hold ended (kernel exit).
    pub end: Cycles,
}

/// The big kernel lock's bookkeeping: recorded hold intervals and
/// per-core accumulated lock-wait.
#[derive(Debug)]
pub struct BigLock {
    /// Each core's most recent completed hold (the overlap source for
    /// other cores' entries).
    pub last_hold: Vec<Option<LockHold>>,
    /// Rolling log of completed holds (capacity `HOLD_LOG_CAP`).
    pub hold_log: Vec<LockHold>,
    /// Per-core lock-wait cycles charged so far — the first-class
    /// latency bucket SMP reports surface.
    pub wait_cycles: Vec<Cycles>,
    /// Model cap on the overlap charged per other core per entry; see
    /// the module docs and [`DEFAULT_LOCK_HOLD_CAP`].
    pub hold_cap: Cycles,
    /// Per-core start cycle of the hold currently in progress.
    entered_at: Vec<Option<Cycles>>,
    /// Next rolling-log slot to overwrite once the log is full.
    hold_log_next: usize,
}

impl BigLock {
    fn new(n: usize) -> BigLock {
        BigLock {
            last_hold: vec![None; n],
            hold_log: Vec::new(),
            wait_cycles: vec![0; n],
            hold_cap: DEFAULT_LOCK_HOLD_CAP,
            entered_at: vec![None; n],
            hold_log_next: 0,
        }
    }

    /// Chargeable lock-wait for an entry on `core` at local cycle
    /// `now`: the overlap with every other core's most recent hold,
    /// each capped at the hold's length and at `hold_cap`. Bounded by
    /// `(n_cores - 1) * hold_cap` by construction.
    pub fn wait_for_entry(&self, core: u8, now: Cycles) -> Cycles {
        let mut wait = 0;
        for (o, h) in self.last_hold.iter().enumerate() {
            if o == core as usize {
                continue;
            }
            if let Some(h) = h {
                wait += h
                    .end
                    .saturating_sub(now)
                    .min(h.end - h.start)
                    .min(self.hold_cap);
            }
        }
        wait
    }

    /// Marks the hold on `core` as started at `now`.
    pub(crate) fn enter(&mut self, core: u8, now: Cycles) {
        self.entered_at[core as usize] = Some(now);
    }

    /// Completes the hold on `core` at `now`, recording the interval.
    pub(crate) fn exit(&mut self, core: u8, now: Cycles) {
        let Some(start) = self.entered_at[core as usize].take() else {
            return;
        };
        let hold = LockHold {
            core,
            start,
            end: now,
        };
        self.last_hold[core as usize] = Some(hold);
        if self.hold_log.len() < HOLD_LOG_CAP {
            self.hold_log.push(hold);
        } else {
            self.hold_log[self.hold_log_next] = hold;
            self.hold_log_next = (self.hold_log_next + 1) % HOLD_LOG_CAP;
        }
    }
}

/// TLB-shootdown progress tracking.
#[derive(Clone, Debug)]
pub struct Shootdown {
    /// Shootdown IPIs sent (one per remote core per flush).
    pub initiated: u64,
    /// Shootdown IPIs serviced (remote TLB invalidated + EOI).
    pub completed: u64,
    /// Per-core flag: a shootdown IPI is in flight to this core.
    pub pending: Vec<bool>,
}

/// The kernel's SMP extension. `None` on the kernel — or `n_cores == 1`
/// here — reproduces pre-SMP behaviour bit-for-bit.
#[derive(Debug)]
pub struct SmpState {
    /// Number of cores.
    pub n_cores: u8,
    /// The core whose state is resident in the kernel's active fields.
    pub cur_core: u8,
    /// Per-core slots; `slots[cur_core]` holds the swapped-out
    /// placeholder and is never read while that core is active.
    pub slots: Vec<CoreSlot>,
    /// Distributor routing: which core each device line is delivered to.
    pub routing: IrqRouting,
    /// Big kernel lock bookkeeping.
    pub lock: BigLock,
    /// TLB-shootdown progress.
    pub shootdown: Shootdown,
    /// Per-core count of reschedule IPIs sent *to* that core.
    pub resched_sent: Vec<u64>,
    /// IPIs serviced to completion (EOI'd), both kinds.
    pub ipi_eois: u64,
    /// Seeded-bug hook: when set, reschedule IPIs are dropped instead
    /// of raised (the lost-wakeup bug the explorer must catch).
    pub drop_resched_ipis: bool,
}

impl SmpState {
    /// Builds SMP state for `n` cores; every parked slot idles on
    /// `idle` with empty queues, and the placeholder contexts are cold
    /// copies of the boot configuration `mk_ctx` produces.
    pub(crate) fn new(n: u8, idle: ObjId, mk_ctx: impl Fn() -> CoreCtx) -> SmpState {
        SmpState {
            n_cores: n,
            cur_core: 0,
            slots: (0..n)
                .map(|_| CoreSlot {
                    ctx: mk_ctx(),
                    queues: RunQueues::new(),
                    cur: idle,
                    sched_action: SchedAction::ResumeCurrent,
                })
                .collect(),
            routing: IrqRouting::default(),
            lock: BigLock::new(n as usize),
            shootdown: Shootdown {
                initiated: 0,
                completed: 0,
                pending: vec![false; n as usize],
            },
            resched_sent: vec![0; n as usize],
            ipi_eois: 0,
            drop_resched_ipis: false,
        }
    }
}

// Hand-written `Clone`s: `clone_from` is the snapshot-restore path
// (`KernelSnapshot::restore_into` reaches it through `Option<Box<_>>`), so
// it overwrites in place — parked L1 line arrays, run queues and logs keep
// their buffers — where a derived `clone_from` would reallocate them all.
// Each `clone_from` destructures its source, so a field added later is a
// compile error here until it is copied.

impl Clone for CoreSlot {
    fn clone(&self) -> CoreSlot {
        CoreSlot {
            ctx: self.ctx.clone(),
            queues: self.queues.clone(),
            cur: self.cur,
            sched_action: self.sched_action,
        }
    }

    fn clone_from(&mut self, src: &CoreSlot) {
        let CoreSlot {
            ctx,
            queues,
            cur,
            sched_action,
        } = src;
        self.ctx.copy_from(ctx);
        self.queues.copy_from(queues);
        self.cur = *cur;
        self.sched_action = *sched_action;
    }
}

impl Clone for BigLock {
    fn clone(&self) -> BigLock {
        BigLock {
            last_hold: self.last_hold.clone(),
            hold_log: self.hold_log.clone(),
            wait_cycles: self.wait_cycles.clone(),
            hold_cap: self.hold_cap,
            entered_at: self.entered_at.clone(),
            hold_log_next: self.hold_log_next,
        }
    }

    fn clone_from(&mut self, src: &BigLock) {
        let BigLock {
            last_hold,
            hold_log,
            wait_cycles,
            hold_cap,
            entered_at,
            hold_log_next,
        } = src;
        self.last_hold.clone_from(last_hold);
        self.hold_log.clone_from(hold_log);
        self.wait_cycles.clone_from(wait_cycles);
        self.hold_cap = *hold_cap;
        self.entered_at.clone_from(entered_at);
        self.hold_log_next = *hold_log_next;
    }
}

impl Clone for SmpState {
    fn clone(&self) -> SmpState {
        SmpState {
            n_cores: self.n_cores,
            cur_core: self.cur_core,
            slots: self.slots.clone(),
            routing: self.routing.clone(),
            lock: self.lock.clone(),
            shootdown: self.shootdown.clone(),
            resched_sent: self.resched_sent.clone(),
            ipi_eois: self.ipi_eois,
            drop_resched_ipis: self.drop_resched_ipis,
        }
    }

    /// `Vec::clone_from` reuses the common prefix of `slots` element-wise
    /// through [`CoreSlot`]'s `clone_from` and truncates or extends the
    /// rest, so restoring a 2-core snapshot into a 4-core scratch kernel
    /// (or back) is exact.
    fn clone_from(&mut self, src: &SmpState) {
        let SmpState {
            n_cores,
            cur_core,
            slots,
            routing,
            lock,
            shootdown:
                Shootdown {
                    initiated,
                    completed,
                    pending,
                },
            resched_sent,
            ipi_eois,
            drop_resched_ipis,
        } = src;
        self.n_cores = *n_cores;
        self.cur_core = *cur_core;
        self.slots.clone_from(slots);
        self.routing.clone_from(routing);
        self.lock.clone_from(lock);
        self.shootdown.initiated = *initiated;
        self.shootdown.completed = *completed;
        self.shootdown.pending.clone_from(pending);
        self.resched_sent.clone_from(resched_sent);
        self.ipi_eois = *ipi_eois;
        self.drop_resched_ipis = *drop_resched_ipis;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_wait_is_capped_per_core() {
        let mut l = BigLock::new(4);
        // Core 1 held [100, 100_000_000): far longer than the cap.
        l.enter(1, 100);
        l.exit(1, 100_000_000);
        // Core 2 held [0, 300).
        l.enter(2, 0);
        l.exit(2, 300);
        // An entry on core 0 at cycle 200 overlaps both: core 1's hold
        // is capped at hold_cap, core 2 contributes its true remaining
        // overlap.
        let w = l.wait_for_entry(0, 200);
        assert_eq!(w, DEFAULT_LOCK_HOLD_CAP + 100);
        // The same entry after both holds ended charges nothing.
        assert_eq!(l.wait_for_entry(0, 200_000_000), 0);
        // The holder itself never waits on its own hold: core 1 sees
        // only core 2's remaining overlap (300 - 200 = 100).
        assert_eq!(l.wait_for_entry(1, 200), 100);
    }

    #[test]
    fn hold_log_rolls_over() {
        let mut l = BigLock::new(2);
        for i in 0..200u64 {
            l.enter(0, i * 10);
            l.exit(0, i * 10 + 5);
        }
        assert_eq!(l.hold_log.len(), 64);
        // The newest hold is present somewhere in the rolling window.
        assert!(l.hold_log.iter().any(|h| h.start == 1990));
    }
}
