//! Boot-scenario builders shared by unit tests, integration tests,
//! examples and benches.
//!
//! These construct small running systems the way a root task would, so
//! every experiment starts from the same well-formed state.

use rt_hw::{Cycles, HwConfig};

use crate::cap::{insert_cap, Badge, CapType, Rights, SlotRef};
use crate::ep::{self, EpState};
use crate::kernel::{Kernel, KernelConfig};
use crate::obj::ObjId;
use crate::syscall::Syscall;
use crate::tcb::ThreadState;

/// Builds a kernel with a client (prio 10) and a server (prio 11) sharing
/// a 256-slot root CNode that holds an endpoint cap at cptr 1.
///
/// Returns `(kernel, client, server, ep_cptr)`. The client is resumed and
/// current; the server is left `Inactive` for the test to position.
pub fn boot_two_threads_one_ep() -> (Kernel, ObjId, ObjId, u32) {
    boot_two_threads_one_ep_cfg(KernelConfig::after(), HwConfig::default())
}

/// As [`boot_two_threads_one_ep`] with explicit configurations.
pub fn boot_two_threads_one_ep_cfg(cfg: KernelConfig, hw: HwConfig) -> (Kernel, ObjId, ObjId, u32) {
    let mut k = Kernel::new(cfg, hw);
    let cnode = k.boot_cnode(8);
    let root = CapType::CNode {
        obj: cnode,
        guard_bits: 24,
        guard: 0,
    };
    let client = k.boot_tcb("client", 10);
    let server = k.boot_tcb("server", 11);
    let ep = k.boot_endpoint();
    insert_cap(
        &mut k.objs,
        SlotRef::new(cnode, 1),
        CapType::Endpoint {
            obj: ep,
            badge: Badge::NONE,
            rights: Rights::ALL,
        },
        None,
    );
    k.objs.tcb_mut(client).cspace_root = root.clone();
    k.objs.tcb_mut(server).cspace_root = root;
    k.boot_resume(client);
    (k, client, server, 1)
}

/// The endpoint object behind a cptr in `tcb`'s cspace (test convenience).
pub fn ep_object(k: &Kernel, tcb: ObjId, cptr: u32) -> ObjId {
    let root = k.objs.tcb(tcb).cspace_root.clone();
    let slot = crate::cnode::resolve_slot(&k.objs, &root, cptr, 32, |_| {}).expect("decode");
    match crate::cap::read_slot(&k.objs, slot).cap {
        CapType::Endpoint { obj, .. } => obj,
        ref c => panic!("cptr {cptr} is not an endpoint: {c:?}"),
    }
}

/// Parks `server` receiving on `epobj`, as a server waiting for its next
/// request is, so that a `Call` to it can take the fastpath.
pub fn park_server_receiving(k: &mut Kernel, server: ObjId, epobj: ObjId) {
    k.objs.tcb_mut(server).state = ThreadState::BlockedOnRecv { ep: epobj };
    k.objs.tcb_mut(server).caller = None;
    ep::ep_append(&mut k.objs, epobj, server, EpState::Receiving);
}

/// Cycles of a warm fastpath `Call` with a 2-word message (§6.1: "around
/// 200-250 cycles on the ARM1136"). On [`boot_two_threads_one_ep`], a
/// first `Call` warms the caches; the IPC state is then reset and a second
/// `Call` is timed.
///
/// # Panics
///
/// Panics if either `Call` falls back to the slowpath.
pub fn warm_fastpath_call_cycles() -> Cycles {
    let (mut k, client, server, ep_cptr) = boot_two_threads_one_ep();
    let epobj = ep_object(&k, client, ep_cptr);
    let sys = Syscall::Call {
        cptr: ep_cptr,
        len: 2,
        caps: vec![],
    };
    park_server_receiving(&mut k, server, epobj);
    assert!(
        k.try_fastpath(&sys).is_some(),
        "warm-up Call left the fastpath"
    );
    k.objs.tcb_mut(client).state = ThreadState::Running;
    park_server_receiving(&mut k, server, epobj);
    k.force_current_for_test(client);
    let before = k.machine.now();
    assert!(
        k.try_fastpath(&sys).is_some(),
        "timed Call left the fastpath"
    );
    k.machine.now() - before
}
