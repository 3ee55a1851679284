//! SMP kernel semantics (DESIGN.md §14), unit-tested on a 2-core
//! machine: affinity migration routes threads between per-core Benno
//! queues and kicks the destination; reschedule IPIs are serviced as
//! decode → work → auto-EOI with the phase markers in the hardware
//! trace; TLB shootdowns complete asynchronously with agreeing
//! counters; and the per-core run-queue/bitmap invariants hold through
//! it all — including the `smp-idle-core-kicked` detector that fires
//! when the kick is lost.

use rt_hw::{HwConfig, IrqLine, TraceEvent};
use rt_kernel::cap::{insert_cap, CapType, SlotRef};
use rt_kernel::invariants;
use rt_kernel::kernel::{Kernel, KernelConfig, SchedAction};
use rt_kernel::obj::ObjId;
use rt_kernel::smp::{IPI_RESCHED_LINE, IPI_SHOOTDOWN_LINE};
use rt_kernel::syscall::{Syscall, SyscallOutcome};
use rt_kernel::tcb::ThreadState;
use rt_kernel::untyped::RetypeKind;

const ROOT_CPTR: u32 = 5;
const UT_CPTR: u32 = 4;
const PD_CPTR: u32 = 10;
const PT_CPTR: u32 = 11;
const FRAME_CPTR: u32 = 12;

/// Boots a 2-core kernel: a prio-100 manager running on core 0 (holding
/// root-CNode and untyped caps) plus two resumed prio-20/30 workers
/// queued on core 0.
fn boot() -> (Kernel, ObjId, [ObjId; 2]) {
    let mut k = Kernel::new(KernelConfig::after(), HwConfig::default());
    k.enable_smp(2);
    let cnode = k.boot_cnode(8);
    let root = CapType::CNode {
        obj: cnode,
        guard_bits: 24,
        guard: 0,
    };
    let ut = k.boot_untyped(17);
    insert_cap(
        &mut k.objs,
        SlotRef::new(cnode, UT_CPTR),
        CapType::Untyped(ut),
        None,
    );
    insert_cap(
        &mut k.objs,
        SlotRef::new(cnode, ROOT_CPTR),
        root.clone(),
        None,
    );
    let manager = k.boot_tcb("manager", 100);
    let w0 = k.boot_tcb("w0", 20);
    let w1 = k.boot_tcb("w1", 30);
    for t in [manager, w0, w1] {
        k.objs.tcb_mut(t).cspace_root = root.clone();
    }
    // Manager first: it out-prioritises both workers, so the resumes
    // below leave them queued rather than scheduling them.
    k.objs.tcb_mut(manager).state = ThreadState::Running;
    k.force_current_for_test(manager);
    k.boot_resume(w0);
    k.boot_resume(w1);
    (k, manager, [w0, w1])
}

fn ok(k: &mut Kernel, sys: Syscall) {
    assert_eq!(k.handle_syscall(sys), SyscallOutcome::Completed(Ok(())));
}

/// Collects the phase labels out of the machine trace, in order.
fn phases(k: &Kernel) -> Vec<&'static str> {
    k.machine
        .trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Phase { label, .. } => Some(*label),
            _ => None,
        })
        .collect()
}

#[test]
fn set_affinity_migrates_queued_thread_and_kicks_target() {
    let (mut k, _m, [w0, _w1]) = boot();
    assert!(k.objs.tcb(w0).in_runqueue);
    assert!(k.core(0).queues.bitmap.is_set(20), "w0 queued on core 0");
    k.set_affinity(w0, 1);
    assert_eq!(k.objs.tcb(w0).affinity, 1);
    assert!(
        !k.core(0).queues.bitmap.is_set(20),
        "core 0 bitmap bit cleared"
    );
    assert!(k.core(1).queues.bitmap.is_set(20), "core 1 bitmap bit set");
    assert_eq!(k.core(1).queues.head(20), Some(w0));
    assert_eq!(k.core(1).resched_sent, 1, "destination was kicked");
    assert!(
        k.machine.core_irq(1).is_pending(IrqLine(IPI_RESCHED_LINE)),
        "reschedule IPI pending on core 1"
    );
    assert!(
        invariants::check_all(&k).is_empty(),
        "{:?}",
        invariants::check_all(&k)
    );
    // Migrating back dequeues from the remote slot and re-kicks nobody
    // (core 0 is the caller's own core).
    k.set_affinity(w0, 0);
    assert!(k.core(0).queues.bitmap.is_set(20));
    assert!(!k.core(1).queues.bitmap.is_set(20));
    assert_eq!(k.core(0).resched_sent, 0, "no self-IPI");
    assert!(invariants::check_all(&k).is_empty());
}

#[test]
fn set_affinity_on_running_or_blocked_thread_only_sets_field() {
    let (mut k, manager, [w0, _w1]) = boot();
    // Running current thread: field changes, nothing queued, no kick.
    k.set_affinity(manager, 1);
    assert_eq!(k.objs.tcb(manager).affinity, 1);
    assert!(!k.objs.tcb(manager).in_runqueue);
    assert_eq!(k.core(1).resched_sent, 0);
    k.set_affinity(manager, 0);
    // Non-queued (suspended/blocked) thread: same — the routed enqueue
    // happens at wake time.
    k.objs.tcb_mut(w0).state = ThreadState::Inactive;
    k.dequeue_on(0, w0);
    k.set_affinity(w0, 1);
    assert_eq!(k.objs.tcb(w0).affinity, 1);
    assert!(!k.core(1).queues.bitmap.is_set(20));
    assert_eq!(k.core(1).resched_sent, 0);
    assert!(invariants::check_all(&k).is_empty());
}

#[test]
fn resched_ipi_services_as_decode_then_eoi_and_forces_choose_new() {
    let (mut k, _m, [w0, _w1]) = boot();
    k.set_affinity(w0, 1);
    // Service the kick from core 1's side.
    k.machine.switch_core(1);
    assert_eq!(k.core(1).sched_action, SchedAction::ResumeCurrent);
    assert!(k.machine.irq.has_pending());
    k.machine.trace.enable();
    k.handle_interrupt();
    let ph = phases(&k);
    let decode = ph
        .iter()
        .position(|l| *l == "ipi-decode")
        .expect("decode phase");
    let eoi = ph.iter().position(|l| *l == "ipi-eoi").expect("eoi phase");
    assert!(decode < eoi, "decode must precede EOI: {ph:?}");
    assert_eq!(k.smp.ipi_eois, 1, "auto-EOI counted");
    assert!(
        !k.machine.irq.is_pending(IrqLine(IPI_RESCHED_LINE)),
        "IPI acked"
    );
    assert!(
        !k.machine.irq.is_masked(IrqLine(IPI_RESCHED_LINE)),
        "IPI lines are never masked (the ack is the EOI)"
    );
    // The kick forced a full chooseThread: the migrated worker runs.
    assert_eq!(k.core(1).cur, w0);
    assert!(invariants::check_all(&k).is_empty());
}

#[test]
fn lost_resched_ipi_is_caught_by_idle_core_invariant() {
    let (mut k, _m, [w0, _w1]) = boot();
    k.smp.drop_resched_ipis = true;
    k.set_affinity(w0, 1);
    assert_eq!(k.core(1).resched_sent, 1, "send was attempted");
    assert!(
        !k.machine.core_irq(1).is_pending(IrqLine(IPI_RESCHED_LINE)),
        "but the IPI was dropped"
    );
    let v = invariants::check_all(&k);
    assert!(
        v.iter().any(|v| v.invariant == "smp-idle-core-kicked"),
        "lost kick undetected: {v:?}"
    );
}

#[test]
fn tlb_shootdown_broadcasts_and_completes_asynchronously() {
    let (mut k, _m, _ws) = boot();
    // Build a mapping, then unmap it: the local TLB flush must
    // broadcast a shootdown IPI to core 1.
    const VADDR: u32 = 0x1000_0000;
    for sys in [
        Syscall::Retype {
            untyped: UT_CPTR,
            kind: RetypeKind::PageDirectory,
            count: 1,
            dest_cnode: ROOT_CPTR,
            dest_offset: PD_CPTR,
        },
        Syscall::Retype {
            untyped: UT_CPTR,
            kind: RetypeKind::PageTable,
            count: 1,
            dest_cnode: ROOT_CPTR,
            dest_offset: PT_CPTR,
        },
        Syscall::Retype {
            untyped: UT_CPTR,
            kind: RetypeKind::Frame { size_bits: 12 },
            count: 1,
            dest_cnode: ROOT_CPTR,
            dest_offset: FRAME_CPTR,
        },
        Syscall::MapPageTable {
            pt: PT_CPTR,
            pd: PD_CPTR,
            vaddr: VADDR,
        },
        Syscall::MapFrame {
            frame: FRAME_CPTR,
            pd: PD_CPTR,
            vaddr: VADDR,
        },
    ] {
        ok(&mut k, sys);
    }
    k.machine.trace.enable();
    ok(&mut k, Syscall::UnmapFrame { frame: FRAME_CPTR });
    assert!(phases(&k).contains(&"shootdown-send"), "{:?}", phases(&k));
    assert_eq!(k.smp.shootdowns_initiated, 1);
    assert_eq!(k.smp.shootdowns_completed, 0);
    assert!(k.core(1).shootdown_pending);
    assert!(k
        .machine
        .core_irq(1)
        .is_pending(IrqLine(IPI_SHOOTDOWN_LINE)));
    assert!(
        invariants::check_all(&k).is_empty(),
        "{:?}",
        invariants::check_all(&k)
    );
    // The target invalidates when it services the IPI; no initiator spin.
    k.machine.switch_core(1);
    k.handle_interrupt();
    assert_eq!(k.smp.shootdowns_completed, 1, "remote invalidate counted");
    assert!(!k.core(1).shootdown_pending);
    assert_eq!(k.smp.ipi_eois, 1);
    assert!(invariants::check_all(&k).is_empty());
}

#[test]
fn per_core_bitmaps_stay_consistent_through_migration_churn() {
    let (mut k, _m, [w0, w1]) = boot();
    for round in 0..4u8 {
        let (a, b) = (round % 2, (round + 1) % 2);
        k.set_affinity(w0, a);
        k.set_affinity(w1, b);
        for c in 0..2u8 {
            // Queue contents and the bitmap must agree on every core,
            // every round (the §3.2 invariant, per core).
            let v = invariants::check_all(&k);
            assert!(v.is_empty(), "round {round} core {c}: {v:?}");
        }
        // Drain the kicks so the next round starts quiescent.
        for c in 0..2u8 {
            if k.machine.core_irq(c).has_pending() {
                k.machine.switch_core(c);
                while k.machine.irq.has_pending() {
                    k.handle_interrupt();
                }
            }
        }
        k.machine.switch_core(0);
    }
    // After the final drain each worker lives on its affinity core —
    // either scheduled there or still queued there with the bitmap bit.
    for (w, prio) in [(w0, 20u8), (w1, 30)] {
        let aff = k.objs.tcb(w).affinity;
        assert!(
            k.core(aff).cur == w || k.core(aff).queues.bitmap.is_set(prio),
            "worker not on its affinity core {aff}"
        );
    }
}
