//! SMP kernel state: per-core scheduler records, IPIs, the big kernel
//! lock, and TLB shootdown (DESIGN.md §14).
//!
//! The kernel keeps one [`Core`] record per core, indexed by core id. The
//! *active* core is whichever core `rt_hw` has resident in the machine
//! ([`rt_hw::Machine::switch_core`]), so switching cores swaps hardware
//! contexts only — the kernel's records stay in place. A one-core kernel
//! is the one-record case of the same code: every SMP *charge* below
//! (lock wait, IPI sends) is gated on `n_cores > 1`, mirroring seL4's
//! SMP build compiling the lock and IPIs out of uniprocessor kernels, so
//! it is bit-identical to the pre-SMP kernel.
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
//!   every exit releases it. Each core records its most recent hold
//!   ([`LockHold`]), and an entry overlapping another core's most
//!   recent hold charges the overlap as lock-wait: a first-class
//!   latency component, reported per core and bounded by
//!   `(K-1) * LOCK_HOLD_CAP` per entry. Per-core clocks are
//!   independent, so the overlap is computed with saturating arithmetic
//!   and capped at both the hold's true length and [`LOCK_HOLD_CAP`]
//!   (the modeled "holder releases at its next preemption point"
//!   horizon).
//! * **TLB shootdown** — the local TLB-flush path broadcasts a
//!   shootdown IPI to every other core; each target invalidates its
//!   TLB (charging the same `TlbFlush` block locally) and marks the
//!   shootdown complete.

use rt_hw::Cycles;

use crate::kernel::SchedAction;
use crate::obj::ObjId;
use crate::sched::RunQueues;

/// IPI line for cross-core reschedule kicks.
pub const IPI_RESCHED_LINE: u8 = 30;
/// IPI line for TLB-shootdown requests.
pub const IPI_SHOOTDOWN_LINE: u8 = 29;

/// The modeled upper bound on how long a contended hold delays a waiter
/// before the holder reaches a preemption point or exits. Sized above
/// every per-entry WCET the workspace computes so the cap itself never
/// truncates a real hold's overlap in the scenarios the tests drive.
pub const LOCK_HOLD_CAP: Cycles = 50_000;

/// One completed big-lock hold interval, in the holder's own clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockHold {
    /// Cycle the hold began (kernel entry, after any lock-wait).
    pub start: Cycles,
    /// Cycle the hold ended (kernel exit).
    pub end: Cycles,
}

/// One core's kernel state: its scheduler, its big-lock bookkeeping and
/// its IPI bookkeeping.
#[derive(Clone, Debug)]
pub struct Core {
    /// Run queues + priority bitmap.
    pub queues: RunQueues,
    /// Current thread.
    pub cur: ObjId,
    /// Pending scheduling decision (seL4's `ksSchedulerAction`).
    pub sched_action: SchedAction,
    /// Most recent completed big-lock hold (the overlap source for
    /// other cores' entries).
    pub last_hold: Option<LockHold>,
    /// Start cycle of the hold in progress.
    pub entered_at: Option<Cycles>,
    /// Lock-wait cycles charged so far — the first-class latency bucket
    /// SMP reports surface.
    pub lock_wait: Cycles,
    /// Reschedule IPIs sent *to* this core.
    pub resched_sent: u64,
    /// A shootdown IPI is in flight to this core.
    pub shootdown_pending: bool,
}

impl Core {
    /// A core idling on `idle` with empty run queues.
    pub(crate) fn new(idle: ObjId) -> Core {
        Core {
            queues: RunQueues::new(),
            cur: idle,
            sched_action: SchedAction::ResumeCurrent,
            last_hold: None,
            entered_at: None,
            lock_wait: 0,
            resched_sent: 0,
            shootdown_pending: false,
        }
    }
}

/// Machine-wide SMP counters (all zero on one core).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SmpCounters {
    /// Shootdown IPIs sent (one per remote core per flush).
    pub shootdowns_initiated: u64,
    /// Shootdown IPIs serviced (remote TLB invalidated + EOI).
    pub shootdowns_completed: u64,
    /// IPIs serviced to completion (EOI'd), both kinds.
    pub ipi_eois: u64,
    /// Seeded-bug hook: when set, reschedule IPIs are dropped instead
    /// of raised (the lost-wakeup bug the explorer must catch).
    pub drop_resched_ipis: bool,
}

/// Chargeable lock-wait for an entry on `core` at local cycle `now`: the
/// overlap with every other core's most recent hold, each capped at the
/// hold's length and at [`LOCK_HOLD_CAP`]. Bounded by
/// `(cores.len() - 1) * LOCK_HOLD_CAP` by construction.
pub fn lock_wait_for_entry(cores: &[Core], core: u8, now: Cycles) -> Cycles {
    cores
        .iter()
        .enumerate()
        .filter(|&(o, _)| o != usize::from(core))
        .filter_map(|(_, c)| c.last_hold)
        .map(|h| {
            h.end
                .saturating_sub(now)
                .min(h.end - h.start)
                .min(LOCK_HOLD_CAP)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_wait_is_capped_per_core() {
        let mut cores = vec![Core::new(ObjId(0)); 4];
        // Core 1 held [100, 100_000_000): far longer than the cap.
        cores[1].last_hold = Some(LockHold {
            start: 100,
            end: 100_000_000,
        });
        // Core 2 held [0, 300).
        cores[2].last_hold = Some(LockHold { start: 0, end: 300 });
        // An entry on core 0 at cycle 200 overlaps both: core 1's hold
        // is capped at LOCK_HOLD_CAP, core 2 contributes its true
        // remaining overlap.
        assert_eq!(lock_wait_for_entry(&cores, 0, 200), LOCK_HOLD_CAP + 100);
        // The same entry after both holds ended charges nothing.
        assert_eq!(lock_wait_for_entry(&cores, 0, 200_000_000), 0);
        // The holder itself never waits on its own hold: core 1 sees
        // only core 2's remaining overlap (300 - 200 = 100).
        assert_eq!(lock_wait_for_entry(&cores, 1, 200), 100);
    }
}
