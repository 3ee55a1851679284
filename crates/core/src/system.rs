//! The user-level system harness, and the one definition of a user-mode
//! step.
//!
//! Experiments need whole systems: threads running "programs" that compute,
//! trap into the kernel, fault, and get interrupted by devices. A
//! [`ThreadScript`] is a small user program — a sequence of [`Action`]s —
//! and [`System`] is the top-level simulation loop: it runs the current
//! thread's next action, lets the kernel handle traps, delivers device
//! interrupts at their programmed cycles, and **re-executes trapped system
//! calls of `Restart`-state threads** — the restartable-system-call
//! mechanism of §2.1 made visible ("simply re-executing the original
//! system call will continue the operation").
//!
//! Three public pieces make up a user-mode step, and every loop that runs
//! the kernel steps threads through them: [`System::run`], the rt-load
//! shard loop and the rt-explore event loop. Each loop keeps only where
//! the next action comes from, what it measures and how it re-queues a
//! split `Compute`.
//!
//! * [`restart_current`]: §2.1 — re-execute the current thread's trapped
//!   system call, or clear a restart that has none and report that;
//! * [`step_current`]: run the current thread's next [`Action`], or park
//!   it when it has none;
//! * [`fast_forward`]: idle to the next programmed interrupt before a
//!   horizon and take it.

use std::collections::{HashMap, VecDeque};

use rt_hw::{Addr, Cycles};

use crate::kernel::Kernel;
use crate::obj::ObjId;
use crate::syscall::{Syscall, SyscallOutcome};
use crate::tcb::ThreadState;

/// Where [`Action::Pollute`]'s dirty lines pretend to come from: a user
/// region clear of the kernel image, so every line it leaves is a user
/// line the kernel must evict.
pub const POLLUTION_BASE: Addr = 0x4000_0000;

/// One step of a user program.
#[derive(Clone, Debug)]
pub enum Action {
    /// Spin for the given number of cycles in userspace.
    Compute(Cycles),
    /// Trap into the kernel with a system call.
    Syscall(Syscall),
    /// Touch an unmapped address (drives the page-fault entry point).
    PageFault(Addr),
    /// Execute an undefined instruction (drives that entry point).
    UndefInstr,
    /// Fill the caches with dirty lines (worst-case preamble, §5.4).
    Pollute,
    /// Suspend this thread.
    Stop,
}

/// A user program: a finite prefix and an optional repeating body.
#[derive(Clone, Debug, Default)]
pub struct ThreadScript {
    queue: VecDeque<Action>,
    repeat: Vec<Action>,
    repeat_ix: usize,
}

impl ThreadScript {
    /// Runs `actions` once, then stops.
    pub fn once(actions: Vec<Action>) -> ThreadScript {
        ThreadScript {
            queue: actions.into(),
            repeat: Vec::new(),
            repeat_ix: 0,
        }
    }

    /// Runs `actions` forever (an event-loop thread).
    pub fn forever(actions: Vec<Action>) -> ThreadScript {
        ThreadScript {
            queue: VecDeque::new(),
            repeat: actions,
            repeat_ix: 0,
        }
    }

    fn next(&mut self) -> Option<Action> {
        if let Some(a) = self.queue.pop_front() {
            return Some(a);
        }
        if self.repeat.is_empty() {
            return None;
        }
        let a = self.repeat[self.repeat_ix].clone();
        self.repeat_ix = (self.repeat_ix + 1) % self.repeat.len();
        Some(a)
    }
}

/// Why [`System::run`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Reached the cycle horizon.
    Horizon,
    /// Every thread finished or blocked forever and no interrupts remain.
    Quiescent,
    /// Step budget exhausted (runaway guard).
    StepLimit,
}

/// The whole simulated system: kernel + user programs.
pub struct System {
    /// The kernel (and through it, the machine).
    pub kernel: Kernel,
    scripts: HashMap<ObjId, ThreadScript>,
    /// Runaway guard on the number of harness steps.
    pub max_steps: u64,
}

impl System {
    /// Wraps a booted kernel.
    pub fn new(kernel: Kernel) -> System {
        System {
            kernel,
            scripts: HashMap::new(),
            max_steps: 10_000_000,
        }
    }

    /// Installs `script` as `tcb`'s user program.
    pub fn set_script(&mut self, tcb: ObjId, script: ThreadScript) {
        self.scripts.insert(tcb, script);
    }

    /// Programs periodic timer ticks (line [`crate::kernel::TIMER_LINE`])
    /// every `period` cycles up to `horizon`, giving round-robin
    /// timeslicing among equal priorities.
    pub fn enable_timer(&mut self, period: rt_hw::Cycles, horizon: rt_hw::Cycles) {
        assert!(period > 0, "timer period must be positive");
        let mut t = self.kernel.machine.now() + period;
        while t < horizon {
            self.kernel
                .machine
                .irq
                .schedule(t, rt_hw::IrqLine(crate::kernel::TIMER_LINE));
            t += period;
        }
    }

    /// Runs until `horizon` cycles (or quiescence). Returns why it stopped.
    pub fn run(&mut self, horizon: Cycles) -> StopReason {
        let mut steps = 0u64;
        loop {
            steps += 1;
            if steps > self.max_steps {
                return StopReason::StepLimit;
            }
            let k = &mut self.kernel;
            if k.machine.now() >= horizon {
                return StopReason::Horizon;
            }
            // Pending interrupt while "in userspace": take the IRQ entry.
            if k.machine.irq.has_pending() {
                k.handle_interrupt();
            } else if k.is_idle() {
                if !fast_forward(k, horizon) {
                    return StopReason::Quiescent;
                }
            } else if !matches!(restart_current(k), Restart::Reexecuted(_)) {
                let cur = k.current();
                let next = self.scripts.get_mut(&cur).and_then(ThreadScript::next);
                if let Stepped::Split(rest) = step_current(k, next) {
                    // The remainder goes back to the script it came from.
                    if let Some(s) = self.scripts.get_mut(&cur) {
                        s.queue.push_front(Action::Compute(rest));
                    }
                }
            }
        }
    }
}

/// One kernel visit made by a system call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Visit {
    /// Cycles from the trap to the return to user mode.
    pub cycles: Cycles,
    /// How the call left the kernel.
    pub outcome: SyscallOutcome,
}

fn visit(k: &mut Kernel, sys: Syscall) -> Visit {
    let t0 = k.machine.now();
    let outcome = k.handle_syscall(sys);
    Visit {
        cycles: k.machine.now() - t0,
        outcome,
    }
}

/// What [`restart_current`] found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Restart {
    /// The current thread is not in the `Restart` state.
    NotPending,
    /// Its trapped system call ran again.
    Reexecuted(Visit),
    /// It had no trapped system call and is `Running` again: a thread
    /// whose blocked IPC was cancelled (a `Send` that blocked completed
    /// there, so it keeps no call to re-execute).
    Cleared,
}

/// §2.1 for the current thread: a `Restart`-state thread re-executes
/// its trapped system call, and one without a trapped call is set
/// `Running` again. The caller decides what a [`Restart::Cleared`]
/// thread does next.
pub fn restart_current(k: &mut Kernel) -> Restart {
    let cur = k.current();
    let t = k.objs.tcb(cur);
    if t.state != ThreadState::Restart {
        return Restart::NotPending;
    }
    match t.current_syscall.clone() {
        Some(sys) => Restart::Reexecuted(visit(k, sys)),
        None => {
            k.objs.tcb_mut(cur).state = ThreadState::Running;
            Restart::Cleared
        }
    }
}

/// What [`step_current`] did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stepped {
    /// A system call visited the kernel.
    Syscall(Visit),
    /// A `Compute` reached the next programmed interrupt, which was
    /// taken there; this many of its cycles are left, for the caller to
    /// run next time the thread is current.
    Split(Cycles),
    /// Anything else: the action ran to its end, or the thread had none
    /// and was parked.
    Done,
}

/// Runs `next`, the current thread's next action, in user mode; a thread
/// with no next action is parked (suspended). A `Compute` is split at
/// the next programmed interrupt, so the entry happens at its cycle.
pub fn step_current(k: &mut Kernel, next: Option<Action>) -> Stepped {
    let Some(action) = next else {
        k.suspend_thread(k.current());
        return Stepped::Done;
    };
    match action {
        Action::Compute(c) => {
            let now = k.machine.now();
            match k.machine.irq.next_scheduled() {
                Some(at) if at > now && at - now < c => {
                    let first = at - now;
                    k.machine.advance(first);
                    k.handle_interrupt();
                    return Stepped::Split(c - first);
                }
                _ => k.machine.advance(c),
            }
        }
        Action::Syscall(sys) => return Stepped::Syscall(visit(k, sys)),
        Action::PageFault(addr) => k.handle_page_fault(addr),
        Action::UndefInstr => k.handle_undefined(),
        Action::Pollute => k.machine.pollute(POLLUTION_BASE),
        Action::Stop => k.suspend_thread(k.current()),
    }
    Stepped::Done
}

/// Idles the current core to the next programmed interrupt before
/// `horizon` and takes it; `Cycles::MAX` sets no horizon. Returns
/// `false`, and does nothing, when none is programmed before `horizon`.
pub fn fast_forward(k: &mut Kernel, horizon: Cycles) -> bool {
    match k.machine.irq.next_scheduled() {
        Some(at) if at < horizon => {
            let now = k.machine.now();
            k.machine.advance(at.saturating_sub(now).max(1));
            k.handle_interrupt();
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{boot_two_threads_one_ep, ep_object};
    use rt_hw::IrqLine;

    #[test]
    fn ping_pong_round_trips() {
        let (mut k, client, server, ep) = boot_two_threads_one_ep();
        k.objs.tcb_mut(server).state = ThreadState::Inactive;
        k.boot_resume(server);
        let mut sys = System::new(k);
        sys.set_script(
            server,
            ThreadScript::once(vec![
                Action::Syscall(Syscall::Recv { cptr: ep }),
                Action::Syscall(Syscall::ReplyRecv {
                    cptr: ep,
                    len: 1,
                    caps: vec![],
                }),
                Action::Stop,
            ]),
        );
        sys.set_script(
            client,
            ThreadScript::once(vec![
                Action::Syscall(Syscall::Call {
                    cptr: ep,
                    len: 1,
                    caps: vec![],
                }),
                Action::Syscall(Syscall::Call {
                    cptr: ep,
                    len: 1,
                    caps: vec![],
                }),
                Action::Stop,
            ]),
        );
        let reason = sys.run(10_000_000);
        assert_ne!(reason, StopReason::StepLimit);
        // The second Call never gets a reply (server stopped), so the
        // client ends blocked or stopped; what matters is progress: at
        // least one full round trip happened.
        assert!(sys.kernel.stats.syscall_entries >= 3);
        crate::invariants::assert_all(&sys.kernel);
    }

    #[test]
    fn timer_round_robins_equal_priorities() {
        // Two compute-bound threads at the same priority; with timeslicing
        // both make progress, interleaved.
        let (mut k, a, b, _) = boot_two_threads_one_ep();
        k.objs.tcb_mut(b).prio = 10; // same priority as `a`
        k.objs.tcb_mut(b).state = ThreadState::Inactive;
        k.boot_resume(b);
        let mut sys = System::new(k);
        // Each thread computes in 10k-cycle slices, 40 of them.
        for t in [a, b] {
            sys.set_script(
                t,
                ThreadScript::once(
                    (0..40)
                        .map(|_| Action::Compute(10_000))
                        .chain(std::iter::once(Action::Stop))
                        .collect(),
                ),
            );
        }
        sys.enable_timer(50_000, 2_000_000);
        let reason = sys.run(2_000_000);
        assert_ne!(reason, StopReason::StepLimit);
        // Both threads finished (reached Stop -> Inactive): without
        // timeslicing, `a` would hog the CPU until done, but both should
        // at least have completed within the horizon; the interleaving is
        // visible through the timer entries.
        assert!(
            sys.kernel.stats.interrupt_entries >= 5,
            "timer ticks delivered: {}",
            sys.kernel.stats.interrupt_entries
        );
        assert_eq!(
            sys.kernel.objs.tcb(a).state,
            ThreadState::Inactive,
            "thread a finished"
        );
        assert_eq!(
            sys.kernel.objs.tcb(b).state,
            ThreadState::Inactive,
            "thread b finished"
        );
        crate::invariants::assert_all(&sys.kernel);
    }

    #[test]
    fn interrupt_wakes_driver_thread() {
        let (mut k, client, server, ep) = boot_two_threads_one_ep();
        let _ = ep_object(&k, client, ep);
        // Make the server a driver: bind IRQ 3 to a notification it waits
        // on, at high priority.
        let ntfn = k.boot_ntfn();
        k.objs.tcb_mut(server).prio = 200;
        k.irq_table.issue(3);
        k.irq_table.bind(3, ntfn, crate::cap::Badge(1));
        k.objs.tcb_mut(server).state = ThreadState::Inactive;
        k.boot_resume(server);
        // Insert a notification cap the server can Wait on.
        let cnode = match k.objs.tcb(server).cspace_root {
            crate::cap::CapType::CNode { obj, .. } => obj,
            _ => unreachable!(),
        };
        crate::cap::insert_cap(
            &mut k.objs,
            crate::cap::SlotRef::new(cnode, 2),
            crate::cap::CapType::Notification {
                obj: ntfn,
                badge: crate::cap::Badge(1),
                rights: crate::cap::Rights::ALL,
            },
            None,
        );
        k.machine.irq.schedule(50_000, IrqLine(3));
        let mut sys = System::new(k);
        sys.set_script(
            server,
            ThreadScript::once(vec![
                Action::Syscall(Syscall::Wait { cptr: 2 }),
                Action::Stop,
            ]),
        );
        sys.set_script(
            client,
            ThreadScript::once(vec![Action::Compute(200_000), Action::Stop]),
        );
        sys.run(1_000_000);
        let log = &sys.kernel.irq_log;
        assert_eq!(log.len(), 1, "one interrupt delivered: {log:?}");
        let r = &log[0];
        assert!(r.kernel_ack >= r.raised);
        let delivered = r.delivered.expect("driver thread ran");
        assert!(delivered >= r.kernel_ack);
        // Response time is bounded: in an idle-ish system it is just the
        // entry + delivery path, well under 100k cycles.
        assert!(
            delivered - r.raised < 100_000,
            "response took {} cycles",
            delivered - r.raised
        );
        crate::invariants::assert_all(&sys.kernel);
    }
}
