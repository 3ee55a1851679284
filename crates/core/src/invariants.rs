//! Executable kernel invariants (§2.2).
//!
//! seL4's proof maintains "hundreds of invariants and lemmas ... across all
//! seL4 operations"; every added preemption point obliges the verifier to
//! show the invariants still hold at the intermediate states. We cannot
//! machine-check a proof here, but we can make the invariants *executable*
//! and check them at every preemption point and kernel exit in tests —
//! a preemption point that leaves the kernel inconsistent fails the suite.
//!
//! Implemented checks, with their §2.2 categories:
//!
//! * **well-formed data structures** — run queues and endpoint queues are
//!   proper doubly-linked lists (no cycles, agreeing back-pointers);
//! * **object alignment** — "all objects in seL4 are aligned to their
//!   size, and do not overlap in memory with any other objects";
//! * **algorithmic invariants** — the Benno invariant ("all threads on the
//!   scheduler's run queue must be in the runnable state", §3.1), the
//!   bitmap agreement ("the scheduler's bitmap precisely reflects the
//!   state of the run queues", §3.2), and the weaker lazy-scheduling
//!   invariant ("all runnable threads are either on the run queue or
//!   currently executing");
//! * **book-keeping invariants** — CDT parent/child agreement, endpoint
//!   queue membership matching thread states, shadow back-pointers naming
//!   real frame caps that agree with the page tables (§3.6).

use crate::cap::{CapSlot, CapType, SlotRef, SpaceRef};
use crate::kernel::{Kernel, SchedKind, VmKind};
use crate::obj::{ObjId, ObjKind};
use crate::tcb::{Tcb, ThreadState};
use crate::vspace::{PdEntry, PtEntry};

/// A violated invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant (short name).
    pub invariant: &'static str,
    /// Details.
    pub detail: String,
}

/// Runs every applicable invariant; returns all violations (empty = OK).
pub fn check_all(k: &Kernel) -> Vec<Violation> {
    let mut v = Vec::new();
    check_alignment_and_overlap(k, &mut v);
    check_run_queues(k, &mut v);
    check_scheduler_invariant(k, &mut v);
    check_bitmap(k, &mut v);
    check_ep_queues(k, &mut v);
    check_cdt(k, &mut v);
    if k.config.vm == VmKind::ShadowPt {
        check_shadow_backpointers(k, &mut v);
    }
    check_smp(k, &mut v);
    v
}

/// Panics with a readable report if any invariant is violated (the test
/// suites' entry point).
#[track_caller]
pub fn assert_all(k: &Kernel) {
    let v = check_all(k);
    assert!(
        v.is_empty(),
        "kernel invariant violations:\n{}",
        v.iter()
            .map(|x| format!("  [{}] {}", x.invariant, x.detail))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Kind-checked lookup: the payload of `id` if it is live, `None` for a
/// dead or out-of-range id. A corrupted kernel can hold dangling or
/// recycled ids anywhere; the checker reports them instead of tripping
/// the panicking typed accessors.
fn live_kind(k: &Kernel, id: ObjId) -> Option<&ObjKind> {
    k.objs.is_live(id).then(|| &k.objs.get(id).kind)
}

fn live_tcb(k: &Kernel, id: ObjId) -> Option<&Tcb> {
    match live_kind(k, id)? {
        ObjKind::Tcb(t) => Some(t),
        _ => None,
    }
}

/// A waiter list from `head` through the TCBs' `ep_next` links, ending
/// early at a link that is not a live TCB (the queue walks report it).
fn waiters(k: &Kernel, head: Option<ObjId>) -> impl Iterator<Item = ObjId> + '_ {
    let mut cur = head;
    std::iter::from_fn(move || {
        let id = cur?;
        cur = live_tcb(k, id)?.ep_next;
        Some(id)
    })
}

fn check_alignment_and_overlap(k: &Kernel, out: &mut Vec<Violation>) {
    // Untyped objects legitimately *contain* the objects retyped from
    // them (that is what retype means); they are excluded from the
    // pairwise-disjointness check, which then covers all concrete objects.
    let mut spans: Vec<(u32, u32, ObjId)> = Vec::new();
    for (id, o) in k.objs.iter() {
        if o.base % o.size() != 0 {
            out.push(Violation {
                invariant: "object-alignment",
                detail: format!("{id:?} at {:#x} not aligned to {:#x}", o.base, o.size()),
            });
        }
        if !matches!(o.kind, ObjKind::Untyped(_)) {
            spans.push((o.base, o.end(), id));
        }
    }
    spans.sort_unstable();
    for w in spans.windows(2) {
        if w[0].1 > w[1].0 {
            out.push(Violation {
                invariant: "object-overlap",
                detail: format!("{:?} overlaps {:?}", w[0].2, w[1].2),
            });
        }
    }
    // Retyped objects must lie fully inside their untyped parent.
    for (id, o) in k.objs.iter() {
        if let ObjKind::Untyped(u) = &o.kind {
            for &c in &u.children {
                if !k.objs.is_live(c) {
                    continue;
                }
                let co = k.objs.get(c);
                if co.base < o.base || co.end() > o.end() {
                    out.push(Violation {
                        invariant: "untyped-contains-children",
                        detail: format!("{c:?} escapes its untyped parent {id:?}"),
                    });
                }
            }
        }
    }
}

fn check_run_queues(k: &Kernel, out: &mut Vec<Violation>) {
    // SMP: every core's run queues must be well-formed, and a queued
    // thread must be queued on its affinity core (single-core: one loop
    // iteration, affinity always 0 — identical to the historical check).
    // `seen` is indexed by object id, grown on demand so dangling ids fit.
    let mut seen: Vec<bool> = Vec::new();
    for core in 0..k.n_cores() {
        for (prio, head) in k.core(core).queues.nonempty() {
            let mut cur = Some(head);
            let mut prev: Option<ObjId> = None;
            let mut steps = 0;
            while let Some(t) = cur {
                let i = t.0 as usize;
                if i >= seen.len() {
                    seen.resize(i + 1, false);
                }
                if std::mem::replace(&mut seen[i], true) {
                    out.push(Violation {
                        invariant: "runqueue-well-formed",
                        detail: format!("{t:?} linked twice"),
                    });
                    return;
                }
                let Some(tcb) = live_tcb(k, t) else {
                    out.push(Violation {
                        invariant: "runqueue-well-formed",
                        detail: format!(
                            "core {core} prio {prio} links {t:?}, which is not a live Tcb"
                        ),
                    });
                    break;
                };
                if tcb.sched_prev != prev {
                    out.push(Violation {
                        invariant: "runqueue-well-formed",
                        detail: format!("{:?} back-pointer disagrees", tcb.name),
                    });
                }
                if !tcb.in_runqueue {
                    out.push(Violation {
                        invariant: "runqueue-well-formed",
                        detail: format!("{:?} linked but !in_runqueue", tcb.name),
                    });
                }
                if tcb.prio != prio {
                    out.push(Violation {
                        invariant: "runqueue-well-formed",
                        detail: format!(
                            "{:?} at prio {} queued under {}",
                            tcb.name, tcb.prio, prio
                        ),
                    });
                }
                if tcb.affinity != core {
                    out.push(Violation {
                        invariant: "queued-on-affinity-core",
                        detail: format!(
                            "{:?} with affinity {} queued on core {}",
                            tcb.name, tcb.affinity, core
                        ),
                    });
                }
                prev = cur;
                cur = tcb.sched_next;
                steps += 1;
                if steps > crate::MAX_THREADS {
                    out.push(Violation {
                        invariant: "runqueue-well-formed",
                        detail: format!("cycle in run queue at prio {prio}"),
                    });
                    return;
                }
            }
        }
    }
    // No thread claims membership without being linked.
    for (id, o) in k.objs.iter() {
        if let ObjKind::Tcb(t) = &o.kind {
            if t.in_runqueue && !seen.get(id.0 as usize).is_some_and(|&s| s) {
                out.push(Violation {
                    invariant: "runqueue-well-formed",
                    detail: format!("{:?} claims in_runqueue but is not linked", t.name),
                });
            }
        }
    }
}

/// §3.1: under Benno scheduling every queued thread is runnable; under any
/// scheduler every runnable thread is queued or current (or idle).
fn check_scheduler_invariant(k: &Kernel, out: &mut Vec<Violation>) {
    let benno = matches!(k.config.sched, SchedKind::Benno | SchedKind::BennoBitmap);
    for (id, o) in k.objs.iter() {
        if let ObjKind::Tcb(t) = &o.kind {
            if benno && t.in_runqueue && !t.state.is_runnable() {
                out.push(Violation {
                    invariant: "benno-queued-implies-runnable",
                    detail: format!("{:?} queued in state {:?}", t.name, t.state),
                });
            }
            if t.state.is_runnable()
                && !t.in_runqueue
                && !(0..k.n_cores()).any(|c| k.core(c).cur == id)
            {
                out.push(Violation {
                    invariant: "runnable-queued-or-current",
                    detail: format!("{:?} runnable but neither queued nor current", t.name),
                });
            }
        }
    }
}

/// §3.2: "the scheduler's bitmap precisely reflects the state of the run
/// queues" (only required, and only maintained, in bitmap mode).
fn check_bitmap(k: &Kernel, out: &mut Vec<Violation>) {
    if k.config.sched != SchedKind::BennoBitmap {
        return;
    }
    for core in 0..k.n_cores() {
        let queues = &k.core(core).queues;
        let queued = queues.heads_mask();
        let set = queues.bitmap.buckets;
        // Visit only the priorities where the two disagree, ascending.
        let diff = queued.iter().zip(&set).map(|(q, s)| q ^ s);
        for prio in crate::set_bits(diff) {
            let (b, i) = (prio as usize / 32, prio % 32);
            let queued = queued[b] >> i & 1 != 0;
            let bit = set[b] >> i & 1 != 0;
            out.push(Violation {
                invariant: "bitmap-reflects-queues",
                detail: format!("core {core} prio {prio}: queued={queued} bit={bit}"),
            });
        }
    }
}

fn check_ep_queues(k: &Kernel, out: &mut Vec<Violation>) {
    for (ep_id, o) in k.objs.iter() {
        let ObjKind::Endpoint(e) = &o.kind else {
            continue;
        };
        let mut cur = e.head;
        let mut prev: Option<ObjId> = None;
        let mut last = None;
        let mut steps = 0;
        while let Some(t) = cur {
            let Some(tcb) = live_tcb(k, t) else {
                out.push(Violation {
                    invariant: "epqueue-well-formed",
                    detail: format!("{ep_id:?} queue links {t:?}, which is not a live Tcb"),
                });
                break;
            };
            if tcb.ep_prev != prev {
                out.push(Violation {
                    invariant: "epqueue-well-formed",
                    detail: format!("{:?} ep back-pointer disagrees", tcb.name),
                });
            }
            if !tcb.state.blocked_on_ep(ep_id) {
                out.push(Violation {
                    invariant: "epqueue-members-blocked",
                    detail: format!(
                        "{:?} queued on {ep_id:?} in state {:?}",
                        tcb.name, tcb.state
                    ),
                });
            }
            last = cur;
            prev = cur;
            cur = tcb.ep_next;
            steps += 1;
            if steps > crate::MAX_THREADS {
                out.push(Violation {
                    invariant: "epqueue-well-formed",
                    detail: format!("cycle in queue of {ep_id:?}"),
                });
                return;
            }
        }
        if e.tail != last {
            out.push(Violation {
                invariant: "epqueue-well-formed",
                detail: format!("{ep_id:?} tail pointer disagrees"),
            });
        }
        if e.head.is_some() && e.state == crate::ep::EpState::Idle {
            out.push(Violation {
                invariant: "epqueue-well-formed",
                detail: format!("{ep_id:?} has waiters but state Idle"),
            });
        }
    }
    // Notification waiter queues: well-formed and in agreement with the
    // waiters' states.
    for (ntfn_id, o) in k.objs.iter() {
        let ObjKind::Notification(n) = &o.kind else {
            continue;
        };
        let mut cur = n.head;
        let mut prev: Option<ObjId> = None;
        let mut last = None;
        let mut steps = 0;
        while let Some(t) = cur {
            let Some(tcb) = live_tcb(k, t) else {
                out.push(Violation {
                    invariant: "ntfnqueue-well-formed",
                    detail: format!("{ntfn_id:?} queue links {t:?}, which is not a live Tcb"),
                });
                break;
            };
            if tcb.ep_prev != prev {
                out.push(Violation {
                    invariant: "ntfnqueue-well-formed",
                    detail: format!("{:?} back-pointer disagrees", tcb.name),
                });
            }
            if !matches!(tcb.state, ThreadState::BlockedOnNotification { ntfn } if ntfn == ntfn_id)
            {
                out.push(Violation {
                    invariant: "ntfnqueue-members-blocked",
                    detail: format!(
                        "{:?} queued on {ntfn_id:?} in state {:?}",
                        tcb.name, tcb.state
                    ),
                });
            }
            last = cur;
            prev = cur;
            cur = tcb.ep_next;
            steps += 1;
            if steps > crate::MAX_THREADS {
                out.push(Violation {
                    invariant: "ntfnqueue-well-formed",
                    detail: format!("cycle in queue of {ntfn_id:?}"),
                });
                return;
            }
        }
        if n.tail != last {
            out.push(Violation {
                invariant: "ntfnqueue-well-formed",
                detail: format!("{ntfn_id:?} tail pointer disagrees"),
            });
        }
        if n.head.is_some() && n.word != 0 {
            out.push(Violation {
                invariant: "ntfn-word-or-waiters",
                detail: format!("{ntfn_id:?} has both pending bits and waiters"),
            });
        }
    }
    // Conversely, every blocked thread is linked into the queue it claims.
    for (id, o) in k.objs.iter() {
        if let ObjKind::Tcb(t) = &o.kind {
            let (obj, kind, head) = match t.state {
                ThreadState::BlockedOnSend { ep, .. } | ThreadState::BlockedOnRecv { ep } => {
                    let head = match live_kind(k, ep) {
                        Some(ObjKind::Endpoint(e)) => Some(e.head),
                        _ => None,
                    };
                    (ep, "Endpoint", head)
                }
                ThreadState::BlockedOnNotification { ntfn } => {
                    let head = match live_kind(k, ntfn) {
                        Some(ObjKind::Notification(n)) => Some(n.head),
                        _ => None,
                    };
                    (ntfn, "Notification", head)
                }
                _ => continue,
            };
            let detail = match head {
                None => format!(
                    "{:?} blocked on {obj:?}, which is not a live {kind}",
                    t.name
                ),
                Some(head) if !waiters(k, head).any(|x| x == id) => {
                    format!("{:?} blocked on {obj:?} but not in its queue", t.name)
                }
                Some(_) => continue,
            };
            out.push(Violation {
                invariant: "blocked-implies-queued",
                detail,
            });
        }
    }
}

fn check_cdt(k: &Kernel, out: &mut Vec<Violation>) {
    // parent(child) and children(parent) must agree. Objects iterate in
    // id order and slots in index order, so `all_slots` is sorted by
    // `SlotRef` and a slot's entry is found by binary search.
    let mut all_slots: Vec<(SlotRef, &CapSlot)> = Vec::new();
    for (id, o) in k.objs.iter() {
        if let ObjKind::CNode(cn) = &o.kind {
            for (i, s) in cn.slots_in_use() {
                if !s.cap.is_null() || !s.children.is_empty() {
                    all_slots.push((SlotRef::new(id, i), s));
                }
            }
        }
    }
    let entry = |slot: &SlotRef| {
        all_slots
            .binary_search_by(|(s, _)| s.cmp(slot))
            .ok()
            .map(|j| all_slots[j].1)
    };
    for (slot, s) in &all_slots {
        for c in &s.children {
            match entry(c).map(|cs| &cs.parent) {
                Some(Some(p)) if p == slot => {}
                other => out.push(Violation {
                    invariant: "cdt-links-agree",
                    detail: format!("{slot:?} lists child {c:?}, whose parent is {other:?}"),
                }),
            }
        }
    }
    for (slot, s) in &all_slots {
        if let Some(p) = &s.parent {
            if !entry(p).is_some_and(|ps| ps.children.contains(slot)) {
                out.push(Violation {
                    invariant: "cdt-links-agree",
                    detail: format!("{slot:?} claims parent {p:?}, which does not list it"),
                });
            }
        }
    }
    // No cap references a dead object.
    for (slot, s) in &all_slots {
        if let Some(obj) = s.cap.object() {
            if !k.objs.is_live(obj) {
                out.push(Violation {
                    invariant: "caps-reference-live-objects",
                    detail: format!("{slot:?} references dead {obj:?}"),
                });
            }
        }
    }
}

/// §3.6 (shadow design): every mapped PTE has a shadow back-pointer naming
/// a live frame cap whose mapping agrees, and every mapped frame cap's
/// target PTE points back at its frame — no dangling in either direction.
fn check_shadow_backpointers(k: &Kernel, out: &mut Vec<Violation>) {
    for (pt_id, o) in k.objs.iter() {
        let ObjKind::PageTable(pt) = &o.kind else {
            continue;
        };
        for (i, e) in pt.entries.iter().enumerate() {
            match e {
                PtEntry::Invalid => {
                    if pt.shadow[i].is_some() {
                        out.push(Violation {
                            invariant: "shadow-agrees",
                            detail: format!("{pt_id:?}[{i}] invalid but shadow set"),
                        });
                    }
                }
                PtEntry::Page { frame } => {
                    let Some(slot) = pt.shadow[i] else {
                        out.push(Violation {
                            invariant: "shadow-agrees",
                            detail: format!("{pt_id:?}[{i}] mapped but no shadow back-pointer"),
                        });
                        continue;
                    };
                    // A recycled id names some other object: the CNode
                    // the back-pointer was written for is dead.
                    let named = match live_kind(k, slot.cnode) {
                        Some(ObjKind::CNode(cn)) if slot.index < cn.num_slots() => {
                            cn.slot(slot.index)
                        }
                        _ => {
                            out.push(Violation {
                                invariant: "shadow-agrees",
                                detail: format!("{pt_id:?}[{i}] shadow names a dead CNode"),
                            });
                            continue;
                        }
                    };
                    match &named.cap {
                        CapType::Frame {
                            obj,
                            mapping: Some(m),
                            ..
                        } if obj == frame => {
                            if crate::vspace::pt_index(m.vaddr) != i as u32 {
                                out.push(Violation {
                                    invariant: "shadow-agrees",
                                    detail: format!(
                                        "{pt_id:?}[{i}] cap mapping vaddr {:#x} disagrees",
                                        m.vaddr
                                    ),
                                });
                            }
                        }
                        other => out.push(Violation {
                            invariant: "shadow-agrees",
                            detail: format!("{pt_id:?}[{i}] shadow names {other:?}"),
                        }),
                    }
                }
            }
        }
    }
    // Frame caps that claim a direct-PD mapping must be reachable from the
    // page tables (no dangling Pd references — the property the shadow
    // design buys with eager updates).
    for (id, o) in k.objs.iter() {
        if let ObjKind::CNode(cn) = &o.kind {
            for (i, s) in cn.slots_in_use() {
                if let CapType::Frame {
                    obj,
                    mapping: Some(m),
                    ..
                } = &s.cap
                {
                    if let SpaceRef::Pd(pd) = m.space {
                        // A recycled id is as dead a PD as a freed one.
                        let Some(ObjKind::PageDirectory(pd_obj)) = live_kind(k, pd) else {
                            out.push(Violation {
                                invariant: "no-dangling-space-refs",
                                detail: format!(
                                    "frame cap at {:?}[{i}] maps into dead PD {pd:?}",
                                    id
                                ),
                            });
                            continue;
                        };
                        let pdi = crate::vspace::pd_index(m.vaddr);
                        let ok = match pd_obj.entries[pdi as usize] {
                            PdEntry::Section { frame } => frame == *obj,
                            PdEntry::Table { pt } => matches!(
                                live_kind(k, pt),
                                Some(ObjKind::PageTable(t)) if matches!(
                                    t.entries[crate::vspace::pt_index(m.vaddr) as usize],
                                    PtEntry::Page { frame } if frame == *obj
                                )
                            ),
                            _ => false,
                        };
                        if !ok {
                            out.push(Violation {
                                invariant: "no-dangling-space-refs",
                                detail: format!(
                                    "frame cap at {id:?}[{i}] mapping not present in tables"
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
}

/// SMP progress + bookkeeping invariants (DESIGN.md §14). The key one is
/// the lost-wakeup catcher: a core sitting in the idle thread with
/// runnable work queued must have a reschedule IPI pending — every path
/// that queues work on a remote core sends one, and servicing it forces
/// `ChooseNew`. A dropped IPI (the seeded `LostIpi` bug) leaves the core
/// idle with work queued and nothing pending: exactly this violation.
/// These are cross-core properties, checked only with `n_cores > 1`.
fn check_smp(k: &Kernel, out: &mut Vec<Violation>) {
    if !k.smp_active() {
        return;
    }
    for c in 0..k.n_cores() {
        let core = k.core(c);
        let has_work = core.queues.heads_mask() != [0; 8];
        let idle = core.cur == k.idle_thread();
        let resched_pending = k
            .machine
            .core_irq(c)
            .is_pending(rt_hw::IrqLine(crate::smp::IPI_RESCHED_LINE));
        let will_choose = core.sched_action != crate::kernel::SchedAction::ResumeCurrent;
        if has_work && idle && !resched_pending && !will_choose {
            out.push(Violation {
                invariant: "smp-idle-core-kicked",
                detail: format!(
                    "core {c} idles with runnable work queued and no \
                     reschedule IPI pending (lost wakeup)"
                ),
            });
        }
    }
    let smp = &k.smp;
    if smp.shootdowns_completed > smp.shootdowns_initiated {
        out.push(Violation {
            invariant: "shootdown-counts-agree",
            detail: format!(
                "completed {} > initiated {}",
                smp.shootdowns_completed, smp.shootdowns_initiated
            ),
        });
    }
    for c in 0..k.n_cores() {
        if c == k.cur_core() {
            continue; // the active core may be mid-service
        }
        if k.core(c).shootdown_pending
            && !k
                .machine
                .core_irq(c)
                .is_pending(rt_hw::IrqLine(crate::smp::IPI_SHOOTDOWN_LINE))
        {
            out.push(Violation {
                invariant: "shootdown-ipi-pending",
                detail: format!("core {c} marked pending but no shootdown IPI on its line"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::boot_two_threads_one_ep;

    #[test]
    fn fresh_boot_satisfies_all_invariants() {
        let (k, _, _, _) = boot_two_threads_one_ep();
        assert_all(&k);
    }

    #[test]
    fn broken_bitmap_detected() {
        let (mut k, _, server, _) = boot_two_threads_one_ep();
        // Enqueue the server but corrupt the bitmap.
        k.objs.tcb_mut(server).state = ThreadState::Running;
        k.enqueue_on(0, server);
        let prio = k.objs.tcb(server).prio;
        k.core_mut(0).queues.bitmap.clear(prio);
        let v = check_all(&k);
        assert!(v.iter().any(|x| x.invariant == "bitmap-reflects-queues"));
    }

    #[test]
    fn benno_invariant_detects_blocked_queued_thread() {
        let (mut k, _, server, _) = boot_two_threads_one_ep();
        k.objs.tcb_mut(server).state = ThreadState::Running;
        k.enqueue_on(0, server);
        // Now the thread blocks while still queued — legal under lazy
        // scheduling, a violation under Benno.
        k.objs.tcb_mut(server).state = ThreadState::BlockedOnReply;
        let v = check_all(&k);
        assert!(
            v.iter()
                .any(|x| x.invariant == "benno-queued-implies-runnable"),
            "got {v:?}"
        );
    }

    #[test]
    fn dangling_cap_detected() {
        let (mut k, _c, _s, _) = boot_two_threads_one_ep();
        // Destroy the endpoint object behind cptr 1 without deleting the cap.
        let ep = crate::testutil::ep_object(&k, k.current(), 1);
        k.objs.remove(ep);
        let v = check_all(&k);
        assert!(v
            .iter()
            .any(|x| x.invariant == "caps-reference-live-objects"));
    }
}
