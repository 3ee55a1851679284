//! Integration tests for the TCB management invocations: priority changes
//! (with bitmap maintenance, §3.2), configuration, suspend/resume, and
//! their interaction with scheduling.

use rt_hw::HwConfig;
use rt_kernel::cap::{insert_cap, CapType, SlotRef};
use rt_kernel::invariants;
use rt_kernel::kernel::{Kernel, KernelConfig};
use rt_kernel::syscall::{Syscall, SyscallOutcome};
use rt_kernel::tcb::ThreadState;

/// Boots a kernel where a manager thread (prio 100) holds TCB caps to two
/// worker threads at cptrs 10/11.
fn boot() -> (Kernel, rt_kernel::obj::ObjId, [rt_kernel::obj::ObjId; 2]) {
    let mut k = Kernel::new(KernelConfig::after(), HwConfig::default());
    let cnode = k.boot_cnode(8);
    let root = CapType::CNode {
        obj: cnode,
        guard_bits: 24,
        guard: 0,
    };
    let manager = k.boot_tcb("manager", 100);
    let w0 = k.boot_tcb("w0", 20);
    let w1 = k.boot_tcb("w1", 30);
    for (i, w) in [w0, w1].into_iter().enumerate() {
        insert_cap(
            &mut k.objs,
            SlotRef::new(cnode, 10 + i as u32),
            CapType::Tcb(w),
            None,
        );
        k.objs.tcb_mut(w).cspace_root = root.clone();
    }
    insert_cap(&mut k.objs, SlotRef::new(cnode, 5), root.clone(), None);
    k.objs.tcb_mut(manager).cspace_root = root;
    k.objs.tcb_mut(manager).state = ThreadState::Running;
    k.force_current_for_test(manager);
    (k, manager, [w0, w1])
}

fn ok(k: &mut Kernel, sys: Syscall) {
    assert_eq!(k.handle_syscall(sys), SyscallOutcome::Completed(Ok(())));
}

#[test]
fn set_priority_requeues_and_maintains_bitmap() {
    let (mut k, _m, [w0, w1]) = boot();
    ok(&mut k, Syscall::TcbResume { tcb: 10 });
    ok(&mut k, Syscall::TcbResume { tcb: 11 });
    assert!(k.objs.tcb(w0).in_runqueue && k.objs.tcb(w1).in_runqueue);
    assert!(k.core(0).queues.bitmap.is_set(20) && k.core(0).queues.bitmap.is_set(30));
    // Move w0 from prio 20 to 50.
    ok(&mut k, Syscall::TcbSetPriority { tcb: 10, prio: 50 });
    assert_eq!(k.objs.tcb(w0).prio, 50);
    assert!(
        !k.core(0).queues.bitmap.is_set(20),
        "old priority bit cleared"
    );
    assert!(k.core(0).queues.bitmap.is_set(50), "new priority bit set");
    assert_eq!(k.core(0).queues.head(50), Some(w0));
    invariants::assert_all(&k);
}

#[test]
fn raising_above_current_preempts() {
    let (mut k, manager, [w0, _w1]) = boot();
    ok(&mut k, Syscall::TcbResume { tcb: 10 });
    assert_eq!(k.current(), manager, "manager (prio 100) keeps the CPU");
    // Promote w0 above the manager: it must take over.
    ok(&mut k, Syscall::TcbSetPriority { tcb: 10, prio: 200 });
    assert_eq!(k.current(), w0, "promoted thread preempts");
    // The displaced manager is runnable and queued (§3.1).
    assert!(k.objs.tcb(manager).in_runqueue);
    invariants::assert_all(&k);
}

#[test]
fn configure_installs_cspace_and_fault_handler() {
    let (mut k, _m, [w0, _w1]) = boot();
    ok(
        &mut k,
        Syscall::TcbConfigure {
            tcb: 10,
            cspace_root: 5,
            fault_handler: 0x77,
        },
    );
    assert_eq!(k.objs.tcb(w0).fault_handler, 0x77);
    assert!(matches!(k.objs.tcb(w0).cspace_root, CapType::CNode { .. }));
    invariants::assert_all(&k);
}

#[test]
fn configure_rejects_non_cnode_root() {
    let (mut k, _m, _) = boot();
    let out = k.handle_syscall(Syscall::TcbConfigure {
        tcb: 10,
        cspace_root: 11, // a TCB cap, not a CNode
        fault_handler: 0,
    });
    assert_eq!(
        out,
        SyscallOutcome::Completed(Err(rt_kernel::syscall::SysError::InvalidCap))
    );
}

#[test]
fn suspend_resume_round_trip() {
    let (mut k, _m, [w0, _w1]) = boot();
    ok(&mut k, Syscall::TcbResume { tcb: 10 });
    assert!(k.objs.tcb(w0).state.is_runnable());
    ok(&mut k, Syscall::TcbSuspend { tcb: 10 });
    assert_eq!(k.objs.tcb(w0).state, ThreadState::Inactive);
    assert!(!k.objs.tcb(w0).in_runqueue);
    ok(&mut k, Syscall::TcbResume { tcb: 10 });
    assert!(k.objs.tcb(w0).state.is_runnable());
    invariants::assert_all(&k);
}

#[test]
fn lowering_current_yields_to_queued_thread() {
    let (mut k, manager, [w0, _w1]) = boot();
    // Manager holds its own TCB cap too.
    let cnode = match k.objs.tcb(manager).cspace_root {
        CapType::CNode { obj, .. } => obj,
        _ => unreachable!(),
    };
    insert_cap(
        &mut k.objs,
        SlotRef::new(cnode, 12),
        CapType::Tcb(manager),
        None,
    );
    ok(&mut k, Syscall::TcbResume { tcb: 10 });
    // Manager demotes itself below w0 (prio 20).
    ok(&mut k, Syscall::TcbSetPriority { tcb: 12, prio: 5 });
    assert_eq!(k.current(), w0, "queued thread takes over");
    invariants::assert_all(&k);
}
