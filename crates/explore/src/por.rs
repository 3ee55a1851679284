//! Partial-order reduction: independence, footprints and sleep sets.
//!
//! Exhaustive interleaving enumeration wastes most of its budget on
//! *commuting* schedules: two arrivals on unrelated lines, or an arrival
//! on a free line against a pure-compute thread step, reach the same
//! canonical state in either order. The reduction machinery here prunes
//! those redundant orders while provably preserving the set of reachable
//! canonical states (sleep sets).
//!
//! # The independence relation
//!
//! Every top-level event is summarised by a `Footprint`: the set of
//! *variables* it reads and writes, drawn from a small token universe —
//! one token per kernel object, one per interrupt line (folding in the
//! controller's pending/mask bits and the harness's remaining injection
//! budget, all of which only that line's events touch), and one `Sched`
//! token for the scheduler (run queues, priority bitmap, and the current
//! thread). Events whose effect cannot be bounded statically — system
//! calls, page faults, restarted (mid-operation) steps — are *universal*:
//! they conflict with everything.
//!
//! Two events are **independent** iff neither is universal and neither's
//! write set intersects the other's read or write set. This implies the
//! two classic requirements: executing one cannot enable, disable or
//! alter the effect of the other (enabledness of a thread step is a read
//! of `Sched`; enabledness of an arrival is a read of its line token),
//! and the two executions commute to the same canonical state.
//!
//! Concretely, the relation certifies exactly the commutations the
//! scenarios are full of:
//!
//! * arrivals on two distinct lines where at most one is bound to a
//!   notification (an unbound arrival touches only its line token);
//! * an unbound arrival against a `Compute`/`Pollute` thread step;
//!
//! while arrivals on bound lines stay dependent with every thread step
//! (waking the driver preempts the current thread: a `Sched` write), and
//! anything inside a system call stays dependent with everything — an
//! injection at a preemption-point poll is folded into its enclosing
//! step, which is universal by construction.
//!
//! # Sleep sets
//!
//! When the engine branches alternative `b` at a decision point where a
//! lower-ordered alternative `a` independent of `b` exists, the child
//! branch inherits `a` in its *sleep set*: the `a`-then-`b` subtree will
//! be covered by the sibling `a` branch (`b` commutes past `a`), so the
//! child never branches `a` again until some executed event *dependent*
//! on `a` invalidates that argument — at which point `a` is dropped from
//! the set. Sleep-set reduction skips only redundant *transitions*; the
//! reachable canonical-state set is untouched, which is exactly what the
//! reduced-vs-unreduced differential tests pin (`por_differential.rs`:
//! every single-core and SMP scenario at depth 8, and randomized ones).
//!
//! Interaction with duplicate-state pruning needs one refinement
//! (Godefroid's): a state first expanded with sleep set `S` only covered
//! the transitions outside `S`, so a later visit with sleep set `T` may
//! be pruned only if `S ⊆ T`; otherwise the state is re-expanded and the
//! stored set shrinks to `S ∩ T`. `state::Visited` implements that rule.

use rt_hw::IrqLine;
use rt_kernel::kernel::Kernel;
use rt_kernel::obj::{ObjId, ObjKind};
use rt_kernel::system::Action;
use rt_kernel::tcb::ThreadState;

/// How much partial-order reduction the engine applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PorMode {
    /// No reduction: every alternative branches. The unreduced reference
    /// the differential tests hold `Sleep` to.
    #[default]
    Off,
    /// Sleep sets — preserves the reachable canonical-state set exactly
    /// (transition-level reduction).
    Sleep,
}

impl PorMode {
    /// Whether any reduction is active.
    pub fn on(self) -> bool {
        self != PorMode::Off
    }
}

/// Compact event identity: which transition an alternative denotes,
/// stable across the states where it stays enabled. `Run` is tied to the
/// thread (a `Sched` write changes which thread a "step" means, and any
/// such write drops dependent sleepers anyway) and, on SMP instances, to
/// the core it steps on.
pub(crate) type Desc = u32;

const DESC_RUN: u32 = 0x4000_0000;
const DESC_RAISE: u32 = 0x8000_0000;

/// Identity of a thread-step event on `core`. Core 0 encodes exactly as
/// the pre-SMP identity, so single-core traces and sleep signatures are
/// bit-identical.
pub(crate) fn desc_run(core: u8, t: ObjId) -> Desc {
    DESC_RUN | (core as u32) << 24 | t.0
}

/// Identity of an interrupt-arrival event.
pub(crate) fn desc_raise(line: IrqLine) -> Desc {
    DESC_RAISE | line.0 as u32
}

/// Footprint variable tokens. The scheduler token is per core (each core
/// owns its run queues, bitmap and current thread); `tok_sched(0)` is
/// the pre-SMP `Sched` token, so single-core footprints are unchanged.
const TOK_SCHED: u32 = 1;

fn tok_sched(core: u8) -> u32 {
    TOK_SCHED + core as u32
}

fn tok_line(line: IrqLine) -> u32 {
    0x0100_0000 | line.0 as u32
}

fn tok_obj(o: ObjId) -> u32 {
    0x0200_0000 | o.0
}

/// Read/write variable summary of one top-level event.
#[derive(Clone, Debug, Default)]
pub(crate) struct Footprint {
    /// Conflicts with everything (effect not statically bounded).
    pub universal: bool,
    /// Tokens read (enabledness and data inputs).
    pub reads: Vec<u32>,
    /// Tokens written.
    pub writes: Vec<u32>,
}

impl Footprint {
    fn universal() -> Footprint {
        Footprint {
            universal: true,
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }
}

fn intersects(a: &[u32], b: &[u32]) -> bool {
    // Footprints are tiny (≤ ~6 tokens); quadratic scan beats hashing.
    a.iter().any(|x| b.contains(x))
}

/// The independence relation: neither universal, neither's writes touch
/// the other's reads or writes.
pub(crate) fn independent(a: &Footprint, b: &Footprint) -> bool {
    if a.universal || b.universal {
        return false;
    }
    !intersects(&a.writes, &b.reads)
        && !intersects(&a.writes, &b.writes)
        && !intersects(&b.writes, &a.reads)
        && !intersects(&b.writes, &a.writes)
}

/// Footprint of stepping `core`'s current thread once, derived from what
/// the step will actually do (the scripts and cursors are harness state
/// the engine owns, so the next action is statically known).
pub(crate) fn run_footprint(
    kernel: &Kernel,
    core: u8,
    scripts: &[(ObjId, Vec<Action>)],
    cursors: &[usize],
) -> Footprint {
    let cur = kernel.core(core).cur;
    if kernel.objs.tcb(cur).state == ThreadState::Restart {
        // Mid-operation resume: continues an arbitrary kernel operation.
        return Footprint::universal();
    }
    let action = scripts
        .iter()
        .position(|(id, _)| *id == cur)
        .and_then(|si| scripts[si].1.get(cursors[si]));
    match action {
        // Pure userspace compute: advances time and this thread's script
        // cursor (folded into the thread token), reads the scheduler to
        // be running at all.
        Some(Action::Compute(_)) | Some(Action::Pollute) => Footprint {
            universal: false,
            reads: vec![tok_sched(core)],
            writes: vec![tok_obj(cur)],
        },
        // Script exhaustion and explicit stops park the thread: a
        // scheduler write.
        Some(Action::Stop) | None => Footprint {
            universal: false,
            reads: vec![tok_sched(core)],
            writes: vec![tok_obj(cur), tok_sched(core)],
        },
        // Kernel entries (syscall / fault / undefined instruction) can
        // touch arbitrary objects, unmask lines, and host injections at
        // their preemption polls.
        Some(_) => Footprint::universal(),
    }
}

/// Footprint of a top-level arrival on `line`. Unbound lines touch only
/// their own token (the kernel acks and drops them); bound lines signal
/// the notification, wake its waiters and preempt — a scheduler write on
/// the core the line is routed to, plus (SMP) on every woken waiter's
/// affinity core: a cross-core wake enqueues remotely and sends a
/// reschedule IPI there.
pub(crate) fn raise_footprint(kernel: &Kernel, line: IrqLine) -> Footprint {
    let route = kernel.machine.irq_route(line);
    match kernel.irq_table.lookup(line.0) {
        None => Footprint {
            universal: false,
            reads: Vec::new(),
            writes: vec![tok_line(line)],
        },
        Some(binding) => {
            let mut writes = vec![tok_line(line), tok_obj(binding.ntfn), tok_sched(route)];
            for (id, o) in kernel.objs.iter() {
                if let ObjKind::Tcb(t) = &o.kind {
                    if t.state == (ThreadState::BlockedOnNotification { ntfn: binding.ntfn }) {
                        writes.push(tok_obj(id));
                        if t.affinity != route {
                            writes.push(tok_sched(t.affinity));
                        }
                    }
                }
            }
            Footprint {
                universal: false,
                reads: vec![tok_sched(route)],
                writes,
            }
        }
    }
}

/// One sleeping event: its identity plus the footprint it had when it
/// went to sleep (valid for as long as it sleeps — any event that could
/// change the footprint is dependent and evicts it first).
#[derive(Clone, Debug)]
pub(crate) struct SleepEntry {
    pub desc: Desc,
    pub fp: Footprint,
}

/// Drops every sleeper dependent on the event just executed.
pub(crate) fn filter_sleep(sleep: &mut Vec<SleepEntry>, executed: &Footprint) {
    sleep.retain(|e| independent(&e.fp, executed));
}

/// Canonical signature of a sleep set (sorted descs) — the value stored
/// with each visited state for the `S ⊆ T` pruning rule.
pub(crate) fn sleep_sig(sleep: &[SleepEntry]) -> Vec<u32> {
    let mut sig: Vec<u32> = sleep.iter().map(|e| e.desc).collect();
    sig.sort_unstable();
    sig.dedup();
    sig
}

/// `stored ⊆ current`, both sorted.
pub(crate) fn sig_subset(stored: &[u32], current: &[u32]) -> bool {
    let mut it = current.iter();
    'outer: for s in stored {
        for c in it.by_ref() {
            match c.cmp(s) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Sorted intersection of two signatures.
pub(crate) fn sig_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    a.iter().filter(|x| b.contains(x)).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(reads: &[u32], writes: &[u32]) -> Footprint {
        Footprint {
            universal: false,
            reads: reads.to_vec(),
            writes: writes.to_vec(),
        }
    }

    #[test]
    fn disjoint_footprints_are_independent() {
        let a = fp(&[], &[tok_line(IrqLine(7))]);
        let b = fp(&[TOK_SCHED], &[tok_obj(ObjId(3))]);
        assert!(independent(&a, &b));
        assert!(independent(&b, &a));
    }

    #[test]
    fn sched_write_conflicts_with_sched_read() {
        let step = fp(&[TOK_SCHED], &[tok_obj(ObjId(1))]);
        let bound = fp(&[TOK_SCHED], &[tok_line(IrqLine(3)), TOK_SCHED]);
        assert!(!independent(&step, &bound));
    }

    #[test]
    fn universal_conflicts_with_everything() {
        let u = Footprint::universal();
        let free = fp(&[], &[tok_line(IrqLine(7))]);
        assert!(!independent(&u, &free));
        assert!(!independent(&free, &u));
        assert!(!independent(&u, &u));
    }

    #[test]
    fn sleep_filtering_drops_dependents_only() {
        let mut sleep = vec![
            SleepEntry {
                desc: desc_raise(IrqLine(7)),
                fp: fp(&[], &[tok_line(IrqLine(7))]),
            },
            SleepEntry {
                desc: desc_run(0, ObjId(2)),
                fp: fp(&[TOK_SCHED], &[tok_obj(ObjId(2))]),
            },
        ];
        // An independent compute step evicts nobody.
        filter_sleep(&mut sleep, &fp(&[TOK_SCHED], &[tok_obj(ObjId(9))]));
        assert_eq!(sleep.len(), 2);
        // A scheduler write evicts the step but not the free arrival.
        filter_sleep(&mut sleep, &fp(&[], &[TOK_SCHED]));
        assert_eq!(sleep.len(), 1);
        assert_eq!(sleep[0].desc, desc_raise(IrqLine(7)));
    }

    #[test]
    fn sig_subset_and_intersect() {
        assert!(sig_subset(&[], &[]));
        assert!(sig_subset(&[2], &[1, 2, 3]));
        assert!(!sig_subset(&[4], &[1, 2, 3]));
        assert!(!sig_subset(&[1, 4], &[1, 2, 3]));
        assert_eq!(sig_intersect(&[1, 2, 4], &[2, 3, 4]), vec![2, 4]);
    }
}
