//! Corruption catalogue for the executable §2.2 invariants: one
//! deliberately corrupted kernel per invariant name (and per distinct
//! report of the multi-case invariants), each pinned to the *exact*
//! `check_all` output — names, details and order. A rewrite of the
//! checker that changes what is reported, how it is worded, or the order
//! it is reported in fails here.
//!
//! The second half covers corruptions a checker must *report* rather
//! than panic on: dangling and recycled object ids in queues, thread
//! states and mappings. Inside the explorer a panicking oracle aborts the
//! whole search instead of yielding a minimized counterexample.

use rt_hw::{HwConfig, IrqLine};
use rt_kernel::cap::{CapSlot, CapType, SlotRef, SpaceRef};
use rt_kernel::ep::{ep_append, EpState};
use rt_kernel::invariants::{check_all, Violation};
use rt_kernel::kernel::{Kernel, KernelConfig, SchedKind, VmKind};
use rt_kernel::ntfn::ntfn_append;
use rt_kernel::obj::{ObjId, ObjKind};
use rt_kernel::syscall::{Syscall, SyscallOutcome};
use rt_kernel::tcb::ThreadState;
use rt_kernel::testutil::{boot_two_threads_one_ep, ep_object};
use rt_kernel::untyped::RetypeKind;
use rt_kernel::vspace::{PdEntry, PtEntry};

fn v(invariant: &'static str, detail: impl Into<String>) -> Violation {
    Violation {
        invariant,
        detail: detail.into(),
    }
}

#[track_caller]
fn expect(k: &Kernel, want: Vec<Violation>) {
    assert_eq!(check_all(k), want);
}

/// The shared fixture: idle `ObjId(0)`, a radix-8 root CNode, a running
/// `client` (prio 10, current), an inactive `server` (prio 11) and an
/// endpoint whose cap sits in slot 1.
struct Fx {
    k: Kernel,
    cnode: ObjId,
    client: ObjId,
    server: ObjId,
    ep: ObjId,
}

fn fixture() -> Fx {
    let (k, client, server, _) = boot_two_threads_one_ep();
    let ep = ep_object(&k, client, 1);
    let CapType::CNode { obj: cnode, .. } = k.objs.tcb(client).cspace_root else {
        unreachable!("fixture root is a CNode cap")
    };
    Fx {
        k,
        cnode,
        client,
        server,
        ep,
    }
}

/// Makes `t` runnable and links it into the active core's run queue.
fn enqueue(k: &mut Kernel, t: ObjId) {
    k.objs.tcb_mut(t).state = ThreadState::Running;
    k.enqueue_on(k.cur_core(), t);
}

/// Blocks `t` on `ep`'s receive queue the way the IPC path does.
fn block_recv(k: &mut Kernel, ep: ObjId, t: ObjId) {
    k.objs.tcb_mut(t).state = ThreadState::BlockedOnRecv { ep };
    ep_append(&mut k.objs, ep, t, EpState::Receiving);
}

/// Blocks `t` on notification `n`'s waiter queue.
fn block_ntfn(k: &mut Kernel, n: ObjId, t: ObjId) {
    k.objs.tcb_mut(t).state = ThreadState::BlockedOnNotification { ntfn: n };
    ntfn_append(&mut k.objs, n, t);
}

#[test]
fn fixtures_are_clean() {
    expect(&fixture().k, vec![]);
    expect(&vm_fixture().k, vec![]);
    expect(&smp_fixture().0, vec![]);
}

// --- object layout -------------------------------------------------------

#[test]
fn object_alignment() {
    let mut k = fixture().k;
    let e = k
        .objs
        .insert(0x9000_0000, 4, ObjKind::Endpoint(Default::default()));
    k.objs.get_mut(e).base = 0x9000_0008;
    expect(
        &k,
        vec![v(
            "object-alignment",
            format!("{e:?} at 0x90000008 not aligned to 0x10"),
        )],
    );
}

#[test]
fn object_overlap() {
    let mut k = fixture().k;
    let a = k
        .objs
        .insert(0x9000_0000, 4, ObjKind::Endpoint(Default::default()));
    let b = k
        .objs
        .insert(0x9000_0010, 4, ObjKind::Endpoint(Default::default()));
    k.objs.get_mut(b).base = 0x9000_0000;
    expect(
        &k,
        vec![v("object-overlap", format!("{a:?} overlaps {b:?}"))],
    );
}

#[test]
fn untyped_contains_children() {
    let Fx { mut k, client, .. } = fixture();
    let ut = k.boot_untyped(12);
    let ObjKind::Untyped(u) = &mut k.objs.get_mut(ut).kind else {
        unreachable!()
    };
    u.children.push(client);
    expect(
        &k,
        vec![v(
            "untyped-contains-children",
            format!("{client:?} escapes its untyped parent {ut:?}"),
        )],
    );
}

// --- run queues and the scheduler invariants ------------------------------

#[test]
fn runqueue_linked_twice() {
    let Fx { mut k, server, .. } = fixture();
    let extra = k.boot_tcb("extra", 11);
    enqueue(&mut k, server);
    enqueue(&mut k, extra);
    // server -> extra -> server: the walk meets server a second time.
    k.objs.tcb_mut(extra).sched_next = Some(server);
    expect(
        &k,
        vec![v(
            "runqueue-well-formed",
            format!("{server:?} linked twice"),
        )],
    );
}

#[test]
fn runqueue_back_pointer() {
    let Fx {
        mut k,
        client,
        server,
        ..
    } = fixture();
    enqueue(&mut k, server);
    k.objs.tcb_mut(server).sched_prev = Some(client);
    expect(
        &k,
        vec![v(
            "runqueue-well-formed",
            "\"server\" back-pointer disagrees",
        )],
    );
}

#[test]
fn runqueue_linked_but_not_flagged() {
    let Fx { mut k, server, .. } = fixture();
    enqueue(&mut k, server);
    k.objs.tcb_mut(server).in_runqueue = false;
    expect(
        &k,
        vec![
            v("runqueue-well-formed", "\"server\" linked but !in_runqueue"),
            v(
                "runnable-queued-or-current",
                "\"server\" runnable but neither queued nor current",
            ),
        ],
    );
}

#[test]
fn runqueue_wrong_priority() {
    let Fx { mut k, server, .. } = fixture();
    enqueue(&mut k, server);
    k.objs.tcb_mut(server).prio = 12;
    expect(
        &k,
        vec![v(
            "runqueue-well-formed",
            "\"server\" at prio 12 queued under 11",
        )],
    );
}

#[test]
fn runqueue_longer_than_max_threads() {
    // Every revisit is reported as "linked twice" first, so the step
    // bound only trips on more distinct queued threads than the kernel
    // supports.
    let mut k = fixture().k;
    for i in 0..=rt_kernel::MAX_THREADS {
        let t = k.boot_tcb(&format!("t{i}"), 200);
        enqueue(&mut k, t);
    }
    expect(
        &k,
        vec![v("runqueue-well-formed", "cycle in run queue at prio 200")],
    );
}

#[test]
fn runqueue_claimed_but_not_linked() {
    let Fx { mut k, server, .. } = fixture();
    let t = k.objs.tcb_mut(server);
    t.state = ThreadState::Running;
    t.in_runqueue = true;
    expect(
        &k,
        vec![v(
            "runqueue-well-formed",
            "\"server\" claims in_runqueue but is not linked",
        )],
    );
}

#[test]
fn queued_on_affinity_core() {
    let Fx { mut k, server, .. } = fixture();
    enqueue(&mut k, server);
    k.objs.tcb_mut(server).affinity = 1;
    expect(
        &k,
        vec![v(
            "queued-on-affinity-core",
            "\"server\" with affinity 1 queued on core 0",
        )],
    );
}

#[test]
fn benno_queued_implies_runnable() {
    let Fx { mut k, server, .. } = fixture();
    enqueue(&mut k, server);
    k.objs.tcb_mut(server).state = ThreadState::BlockedOnReply;
    expect(
        &k,
        vec![v(
            "benno-queued-implies-runnable",
            "\"server\" queued in state BlockedOnReply",
        )],
    );
}

#[test]
fn lazy_scheduler_tolerates_blocked_queued_thread() {
    let (mut k, _, server, _) = rt_kernel::testutil::boot_two_threads_one_ep_cfg(
        KernelConfig::before(),
        HwConfig::default(),
    );
    enqueue(&mut k, server);
    k.objs.tcb_mut(server).state = ThreadState::BlockedOnReply;
    expect(&k, vec![]);
}

#[test]
fn runnable_queued_or_current() {
    let Fx { mut k, server, .. } = fixture();
    k.objs.tcb_mut(server).state = ThreadState::Restart;
    expect(
        &k,
        vec![v(
            "runnable-queued-or-current",
            "\"server\" runnable but neither queued nor current",
        )],
    );
}

#[test]
fn bitmap_reflects_queues() {
    let Fx { mut k, server, .. } = fixture();
    enqueue(&mut k, server);
    let bitmap = &mut k.core_mut(0).queues.bitmap;
    bitmap.clear(11);
    bitmap.set(7);
    expect(
        &k,
        vec![
            v(
                "bitmap-reflects-queues",
                "core 0 prio 7: queued=false bit=true",
            ),
            v(
                "bitmap-reflects-queues",
                "core 0 prio 11: queued=true bit=false",
            ),
        ],
    );
}

// --- endpoint and notification queues ------------------------------------

#[test]
fn epqueue_back_pointer() {
    let Fx {
        mut k,
        client,
        server,
        ep,
        ..
    } = fixture();
    block_recv(&mut k, ep, server);
    k.objs.tcb_mut(server).ep_prev = Some(client);
    expect(
        &k,
        vec![v(
            "epqueue-well-formed",
            "\"server\" ep back-pointer disagrees",
        )],
    );
}

#[test]
fn epqueue_cycle() {
    let Fx {
        mut k, server, ep, ..
    } = fixture();
    let other = k.boot_tcb("other", 11);
    block_recv(&mut k, ep, server);
    block_recv(&mut k, ep, other);
    // server <-> other in a ring.
    k.objs.tcb_mut(other).ep_next = Some(server);
    k.objs.tcb_mut(server).ep_prev = Some(other);
    expect(
        &k,
        vec![
            v(
                "epqueue-well-formed",
                "\"server\" ep back-pointer disagrees",
            ),
            v("epqueue-well-formed", format!("cycle in queue of {ep:?}")),
        ],
    );
}

#[test]
fn epqueue_tail() {
    let Fx {
        mut k, server, ep, ..
    } = fixture();
    block_recv(&mut k, ep, server);
    k.objs.ep_mut(ep).tail = None;
    expect(
        &k,
        vec![v(
            "epqueue-well-formed",
            format!("{ep:?} tail pointer disagrees"),
        )],
    );
}

#[test]
fn epqueue_idle_with_waiters() {
    let Fx {
        mut k, server, ep, ..
    } = fixture();
    block_recv(&mut k, ep, server);
    k.objs.ep_mut(ep).state = EpState::Idle;
    expect(
        &k,
        vec![v(
            "epqueue-well-formed",
            format!("{ep:?} has waiters but state Idle"),
        )],
    );
}

#[test]
fn epqueue_members_blocked() {
    let Fx {
        mut k, server, ep, ..
    } = fixture();
    block_recv(&mut k, ep, server);
    k.objs.tcb_mut(server).state = ThreadState::BlockedOnReply;
    expect(
        &k,
        vec![v(
            "epqueue-members-blocked",
            format!("\"server\" queued on {ep:?} in state BlockedOnReply"),
        )],
    );
}

#[test]
fn ntfnqueue_back_pointer() {
    let Fx {
        mut k,
        client,
        server,
        ..
    } = fixture();
    let n = k.boot_ntfn();
    block_ntfn(&mut k, n, server);
    k.objs.tcb_mut(server).ep_prev = Some(client);
    expect(
        &k,
        vec![v(
            "ntfnqueue-well-formed",
            "\"server\" back-pointer disagrees",
        )],
    );
}

#[test]
fn ntfnqueue_cycle() {
    let Fx { mut k, server, .. } = fixture();
    let n = k.boot_ntfn();
    let other = k.boot_tcb("other", 11);
    block_ntfn(&mut k, n, server);
    block_ntfn(&mut k, n, other);
    k.objs.tcb_mut(other).ep_next = Some(server);
    k.objs.tcb_mut(server).ep_prev = Some(other);
    expect(
        &k,
        vec![
            v("ntfnqueue-well-formed", "\"server\" back-pointer disagrees"),
            v("ntfnqueue-well-formed", format!("cycle in queue of {n:?}")),
        ],
    );
}

#[test]
fn ntfnqueue_tail() {
    let Fx { mut k, server, .. } = fixture();
    let n = k.boot_ntfn();
    block_ntfn(&mut k, n, server);
    k.objs.ntfn_mut(n).tail = None;
    expect(
        &k,
        vec![v(
            "ntfnqueue-well-formed",
            format!("{n:?} tail pointer disagrees"),
        )],
    );
}

#[test]
fn ntfnqueue_members_blocked() {
    let Fx { mut k, server, .. } = fixture();
    let n = k.boot_ntfn();
    block_ntfn(&mut k, n, server);
    k.objs.tcb_mut(server).state = ThreadState::BlockedOnReply;
    expect(
        &k,
        vec![v(
            "ntfnqueue-members-blocked",
            format!("\"server\" queued on {n:?} in state BlockedOnReply"),
        )],
    );
}

#[test]
fn ntfn_word_or_waiters() {
    let Fx { mut k, server, .. } = fixture();
    let n = k.boot_ntfn();
    block_ntfn(&mut k, n, server);
    k.objs.ntfn_mut(n).word = 0b100;
    expect(
        &k,
        vec![v(
            "ntfn-word-or-waiters",
            format!("{n:?} has both pending bits and waiters"),
        )],
    );
}

#[test]
fn blocked_implies_queued_endpoint() {
    let Fx {
        mut k, server, ep, ..
    } = fixture();
    k.objs.tcb_mut(server).state = ThreadState::BlockedOnRecv { ep };
    expect(
        &k,
        vec![v(
            "blocked-implies-queued",
            format!("\"server\" blocked on {ep:?} but not in its queue"),
        )],
    );
}

#[test]
fn blocked_implies_queued_notification() {
    let Fx { mut k, server, .. } = fixture();
    let n = k.boot_ntfn();
    k.objs.tcb_mut(server).state = ThreadState::BlockedOnNotification { ntfn: n };
    expect(
        &k,
        vec![v(
            "blocked-implies-queued",
            format!("\"server\" blocked on {n:?} but not in its queue"),
        )],
    );
}

// --- capability derivation tree -------------------------------------------

fn slot_mut(k: &mut Kernel, s: SlotRef) -> &mut CapSlot {
    k.objs.cnode_mut(s.cnode).slot_mut(s.index)
}

#[test]
fn cdt_child_not_present() {
    let Fx { mut k, cnode, .. } = fixture();
    let (parent, child) = (SlotRef::new(cnode, 1), SlotRef::new(cnode, 5));
    slot_mut(&mut k, parent).children.push(child);
    expect(
        &k,
        vec![v(
            "cdt-links-agree",
            format!("{parent:?} lists child {child:?}, whose parent is None"),
        )],
    );
}

#[test]
fn cdt_child_names_another_parent() {
    let Fx { mut k, cnode, .. } = fixture();
    let (a, b, c) = (
        SlotRef::new(cnode, 1),
        SlotRef::new(cnode, 2),
        SlotRef::new(cnode, 3),
    );
    let cap = rt_kernel::cap::read_slot(&k.objs, a).cap.clone();
    rt_kernel::cap::insert_cap(&mut k.objs, b, cap.clone(), None);
    rt_kernel::cap::insert_cap(&mut k.objs, c, cap, Some(b));
    // a also lists c, whose parent is b; c's own claim stays consistent.
    slot_mut(&mut k, a).children.push(c);
    expect(
        &k,
        vec![v(
            "cdt-links-agree",
            format!("{a:?} lists child {c:?}, whose parent is Some(Some({b:?}))"),
        )],
    );
}

#[test]
fn cdt_parent_does_not_list_child() {
    let Fx { mut k, cnode, .. } = fixture();
    let (parent, child) = (SlotRef::new(cnode, 1), SlotRef::new(cnode, 2));
    let cap = rt_kernel::cap::read_slot(&k.objs, parent).cap.clone();
    rt_kernel::cap::insert_cap(&mut k.objs, child, cap, Some(parent));
    slot_mut(&mut k, parent).children.clear();
    expect(
        &k,
        vec![v(
            "cdt-links-agree",
            format!("{child:?} claims parent {parent:?}, which does not list it"),
        )],
    );
}

#[test]
fn cdt_orphaned_child_list_on_empty_slot() {
    // A null slot that still lists children is in the checked set: both
    // directions fire, in slot order.
    let Fx { mut k, cnode, .. } = fixture();
    let (a, b) = (SlotRef::new(cnode, 7), SlotRef::new(cnode, 8));
    slot_mut(&mut k, a).children.push(b);
    let cap = rt_kernel::cap::read_slot(&k.objs, SlotRef::new(cnode, 1))
        .cap
        .clone();
    rt_kernel::cap::insert_cap(&mut k.objs, b, cap, None);
    slot_mut(&mut k, b).parent = Some(SlotRef::new(cnode, 1));
    expect(
        &k,
        vec![
            v(
                "cdt-links-agree",
                format!(
                    "{a:?} lists child {b:?}, whose parent is Some(Some({:?}))",
                    SlotRef::new(cnode, 1)
                ),
            ),
            v(
                "cdt-links-agree",
                format!(
                    "{b:?} claims parent {:?}, which does not list it",
                    SlotRef::new(cnode, 1)
                ),
            ),
        ],
    );
}

#[test]
fn caps_reference_live_objects() {
    let Fx {
        mut k, cnode, ep, ..
    } = fixture();
    k.objs.remove(ep);
    expect(
        &k,
        vec![v(
            "caps-reference-live-objects",
            format!("{:?} references dead {ep:?}", SlotRef::new(cnode, 1)),
        )],
    );
}

// --- shadow page tables (§3.6) ---------------------------------------------

const VADDR: u32 = 0x0040_3000;

/// A shadow-design kernel with one frame mapped at `VADDR` through a page
/// table: PD cap in slot 16, PT cap in slot 17, frame cap in slot 18.
struct VmFx {
    k: Kernel,
    cnode: ObjId,
    pd: ObjId,
    pt: ObjId,
}

fn run_ok(k: &mut Kernel, sys: Syscall) {
    loop {
        match k.handle_syscall(sys.clone()) {
            SyscallOutcome::Preempted => continue,
            out => {
                assert_eq!(out, SyscallOutcome::Completed(Ok(())), "{sys:?}");
                return;
            }
        }
    }
}

fn vm_fixture() -> VmFx {
    let cfg = KernelConfig {
        sched: SchedKind::BennoBitmap,
        vm: VmKind::ShadowPt,
        preemption_points: true,
        fastpath: true,
    };
    let (mut k, task, ut, dest) = rt_bench::workloads::retype_kernel(cfg, HwConfig::default(), 22);
    for (kind, slot) in [
        (RetypeKind::PageDirectory, 16),
        (RetypeKind::PageTable, 17),
        (RetypeKind::Frame { size_bits: 12 }, 18),
    ] {
        run_ok(
            &mut k,
            Syscall::Retype {
                untyped: ut,
                kind,
                count: 1,
                dest_cnode: dest,
                dest_offset: slot,
            },
        );
    }
    run_ok(
        &mut k,
        Syscall::MapPageTable {
            pt: 17,
            pd: 16,
            vaddr: VADDR,
        },
    );
    run_ok(
        &mut k,
        Syscall::MapFrame {
            frame: 18,
            pd: 16,
            vaddr: VADDR,
        },
    );
    let CapType::CNode { obj: cnode, .. } = k.objs.tcb(task).cspace_root else {
        unreachable!()
    };
    let obj_at = |k: &Kernel, i| {
        rt_kernel::cap::read_slot(&k.objs, SlotRef::new(cnode, i))
            .cap
            .object()
            .expect("object cap")
    };
    let (pd, pt) = (obj_at(&k, 16), obj_at(&k, 17));
    VmFx { k, cnode, pd, pt }
}

fn pte() -> usize {
    rt_kernel::vspace::pt_index(VADDR) as usize
}

/// The frame cap's mapping, for in-place corruption.
fn frame_mapping(f: &mut VmFx) -> &mut rt_kernel::cap::Mapping {
    let CapType::Frame {
        mapping: Some(m), ..
    } = &mut slot_mut(&mut f.k, SlotRef::new(f.cnode, 18)).cap
    else {
        panic!("slot 18 holds a mapped frame cap")
    };
    m
}

#[test]
fn shadow_set_on_invalid_entry() {
    let mut f = vm_fixture();
    let slot = SlotRef::new(f.cnode, 18);
    f.k.objs.pt_mut(f.pt).shadow[pte() + 1] = Some(slot);
    expect(
        &f.k,
        vec![v(
            "shadow-agrees",
            format!("{:?}[{}] invalid but shadow set", f.pt, pte() + 1),
        )],
    );
}

#[test]
fn shadow_missing_on_mapped_entry() {
    let mut f = vm_fixture();
    f.k.objs.pt_mut(f.pt).shadow[pte()] = None;
    expect(
        &f.k,
        vec![v(
            "shadow-agrees",
            format!("{:?}[{}] mapped but no shadow back-pointer", f.pt, pte()),
        )],
    );
}

#[test]
fn shadow_names_dead_cnode() {
    let mut f = vm_fixture();
    f.k.objs.pt_mut(f.pt).shadow[pte()] = Some(SlotRef::new(ObjId(9_999), 0));
    expect(
        &f.k,
        vec![v(
            "shadow-agrees",
            format!("{:?}[{}] shadow names a dead CNode", f.pt, pte()),
        )],
    );
}

#[test]
fn shadow_cap_vaddr_disagrees() {
    let mut f = vm_fixture();
    frame_mapping(&mut f).vaddr = VADDR + 0x1000;
    expect(
        &f.k,
        vec![
            v(
                "shadow-agrees",
                format!(
                    "{:?}[{}] cap mapping vaddr {:#x} disagrees",
                    f.pt,
                    pte(),
                    VADDR + 0x1000
                ),
            ),
            v(
                "no-dangling-space-refs",
                format!(
                    "frame cap at {:?}[18] mapping not present in tables",
                    f.cnode
                ),
            ),
        ],
    );
}

#[test]
fn shadow_names_wrong_cap() {
    let mut f = vm_fixture();
    let pt_slot = SlotRef::new(f.cnode, 17);
    f.k.objs.pt_mut(f.pt).shadow[pte()] = Some(pt_slot);
    let cap = rt_kernel::cap::read_slot(&f.k.objs, pt_slot).cap.clone();
    expect(
        &f.k,
        vec![v(
            "shadow-agrees",
            format!("{:?}[{}] shadow names {cap:?}", f.pt, pte()),
        )],
    );
}

#[test]
fn frame_cap_maps_into_dead_pd() {
    let mut f = vm_fixture();
    let dead = ObjId(9_999);
    frame_mapping(&mut f).space = SpaceRef::Pd(dead);
    expect(
        &f.k,
        vec![v(
            "no-dangling-space-refs",
            format!("frame cap at {:?}[18] maps into dead PD {dead:?}", f.cnode),
        )],
    );
}

#[test]
fn frame_cap_mapping_not_in_tables() {
    let mut f = vm_fixture();
    let pt = f.k.objs.pt_mut(f.pt);
    pt.entries[pte()] = PtEntry::Invalid;
    pt.shadow[pte()] = None;
    expect(
        &f.k,
        vec![v(
            "no-dangling-space-refs",
            format!(
                "frame cap at {:?}[18] mapping not present in tables",
                f.cnode
            ),
        )],
    );
    // The section form: a PD entry naming some other frame.
    let mut g = vm_fixture();
    let pdi = rt_kernel::vspace::pd_index(VADDR) as usize;
    g.k.objs.pd_mut(g.pd).entries[pdi] = PdEntry::Section { frame: g.pt };
    expect(
        &g.k,
        vec![v(
            "no-dangling-space-refs",
            format!(
                "frame cap at {:?}[18] mapping not present in tables",
                g.cnode
            ),
        )],
    );
}

// --- SMP (DESIGN.md §14) ----------------------------------------------------

/// The fixture on two cores; the server is pinned to core 1.
fn smp_fixture() -> (Kernel, ObjId) {
    let Fx { mut k, server, .. } = fixture();
    k.enable_smp(2);
    k.objs.tcb_mut(server).affinity = 1;
    (k, server)
}

#[test]
fn smp_idle_core_kicked() {
    let (mut k, server) = smp_fixture();
    // Queue work on idle core 1 without the reschedule IPI.
    k.machine.switch_core(1);
    enqueue(&mut k, server);
    k.machine.switch_core(0);
    expect(
        &k,
        vec![v(
            "smp-idle-core-kicked",
            "core 1 idles with runnable work queued and no reschedule IPI \
             pending (lost wakeup)",
        )],
    );
}

#[test]
fn shootdown_counts_agree() {
    let (mut k, _) = smp_fixture();
    k.smp.shootdowns_completed = 1;
    expect(
        &k,
        vec![v("shootdown-counts-agree", "completed 1 > initiated 0")],
    );
}

#[test]
fn shootdown_ipi_pending() {
    let (mut k, _) = smp_fixture();
    k.smp.shootdowns_initiated = 1;
    k.core_mut(1).shootdown_pending = true;
    expect(
        &k,
        vec![v(
            "shootdown-ipi-pending",
            "core 1 marked pending but no shootdown IPI on its line",
        )],
    );
    // Raising the line on core 1's interface satisfies the check.
    k.machine.switch_core(1);
    let now = k.machine.now();
    k.machine
        .irq
        .raise(IrqLine(rt_kernel::smp::IPI_SHOOTDOWN_LINE), now);
    k.machine.switch_core(0);
    expect(&k, vec![]);
}

// --- dangling and recycled ids: reported, never a panic -------------------

/// Frees `t`'s object and hands its id straight back out as an endpoint
/// placed clear of every other object.
fn recycle_as_endpoint(k: &mut Kernel, t: ObjId) {
    k.objs.remove(t);
    let e = k
        .objs
        .insert(0x9000_0000, 4, ObjKind::Endpoint(Default::default()));
    assert_eq!(e, t, "the store recycles the freed id first");
}

#[test]
fn runqueue_links_freed_tcb() {
    let Fx { mut k, server, .. } = fixture();
    enqueue(&mut k, server);
    k.objs.remove(server);
    expect(
        &k,
        vec![v(
            "runqueue-well-formed",
            format!("core 0 prio 11 links {server:?}, which is not a live Tcb"),
        )],
    );
}

#[test]
fn runqueue_links_recycled_id() {
    let Fx { mut k, server, .. } = fixture();
    let extra = k.boot_tcb("extra", 11);
    enqueue(&mut k, server);
    enqueue(&mut k, extra);
    recycle_as_endpoint(&mut k, extra);
    // The walk stops at the broken link; the threads before it are still
    // checked, and the rest of the checker still runs.
    k.objs.tcb_mut(server).prio = 12;
    expect(
        &k,
        vec![
            v(
                "runqueue-well-formed",
                "\"server\" at prio 12 queued under 11",
            ),
            v(
                "runqueue-well-formed",
                format!("core 0 prio 11 links {extra:?}, which is not a live Tcb"),
            ),
        ],
    );
}

#[test]
fn epqueue_links_freed_tcb() {
    let Fx {
        mut k, server, ep, ..
    } = fixture();
    block_recv(&mut k, ep, server);
    k.objs.remove(server);
    expect(
        &k,
        vec![
            v(
                "epqueue-well-formed",
                format!("{ep:?} queue links {server:?}, which is not a live Tcb"),
            ),
            v(
                "epqueue-well-formed",
                format!("{ep:?} tail pointer disagrees"),
            ),
        ],
    );
}

#[test]
fn ntfnqueue_links_recycled_id() {
    let Fx { mut k, server, .. } = fixture();
    let n = k.boot_ntfn();
    block_ntfn(&mut k, n, server);
    recycle_as_endpoint(&mut k, server);
    expect(
        &k,
        vec![
            v(
                "ntfnqueue-well-formed",
                format!("{n:?} queue links {server:?}, which is not a live Tcb"),
            ),
            v(
                "ntfnqueue-well-formed",
                format!("{n:?} tail pointer disagrees"),
            ),
        ],
    );
}

#[test]
fn thread_blocked_on_deleted_endpoint() {
    let Fx {
        mut k,
        cnode,
        server,
        ep,
        ..
    } = fixture();
    block_recv(&mut k, ep, server);
    k.objs.remove(ep);
    expect(
        &k,
        vec![
            v(
                "blocked-implies-queued",
                format!("\"server\" blocked on {ep:?}, which is not a live Endpoint"),
            ),
            v(
                "caps-reference-live-objects",
                format!("{:?} references dead {ep:?}", SlotRef::new(cnode, 1)),
            ),
        ],
    );
}

#[test]
fn thread_blocked_on_recycled_notification() {
    let Fx { mut k, server, .. } = fixture();
    let n = k.boot_ntfn();
    k.objs.tcb_mut(server).state = ThreadState::BlockedOnNotification { ntfn: n };
    recycle_as_endpoint(&mut k, n);
    expect(
        &k,
        vec![v(
            "blocked-implies-queued",
            format!("\"server\" blocked on {n:?}, which is not a live Notification"),
        )],
    );
}

#[test]
fn frame_cap_maps_into_recycled_pd() {
    let mut f = vm_fixture();
    // A live object of the wrong kind is no page directory either.
    let pt = f.pt;
    frame_mapping(&mut f).space = SpaceRef::Pd(pt);
    expect(
        &f.k,
        vec![v(
            "no-dangling-space-refs",
            format!("frame cap at {:?}[18] maps into dead PD {pt:?}", f.cnode),
        )],
    );
}

#[test]
fn pd_entry_names_recycled_page_table() {
    let mut f = vm_fixture();
    let pdi = rt_kernel::vspace::pd_index(VADDR) as usize;
    // The directory now names the PD itself as its second-level table.
    let pd = f.pd;
    f.k.objs.pd_mut(pd).entries[pdi] = PdEntry::Table { pt: pd };
    expect(
        &f.k,
        vec![v(
            "no-dangling-space-refs",
            format!(
                "frame cap at {:?}[18] mapping not present in tables",
                f.cnode
            ),
        )],
    );
}

#[test]
fn shadow_names_recycled_cnode() {
    let mut f = vm_fixture();
    let pt = f.pt;
    f.k.objs.pt_mut(pt).shadow[pte()] = Some(SlotRef::new(pt, 0));
    expect(
        &f.k,
        vec![v(
            "shadow-agrees",
            format!("{pt:?}[{}] shadow names a dead CNode", pte()),
        )],
    );
}
