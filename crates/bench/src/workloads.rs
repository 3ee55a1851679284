//! Worst-case workload construction (§5.4, §6.1).
//!
//! The paper's observed numbers come from test programs that "exercise the
//! longest paths we could find ourselves (guided by the results of the
//! analysis)": adversarial capability spaces (Fig. 7), the atomic
//! send-receive with a full-length message and capability grants (§6.1),
//! and a dirty-cache preamble. These builders construct exactly those
//! scenarios on the simulated machine.

use rt_hw::{Cycles, HwConfig};
use rt_kernel::cap::{insert_cap, Badge, CapType, Rights, SlotRef};
use rt_kernel::ep::{ep_append, EpState};
use rt_kernel::kernel::{DeepCspace, EntryPoint, Kernel, KernelConfig};
use rt_kernel::obj::ObjId;
use rt_kernel::syscall::Syscall;
use rt_kernel::tcb::{MsgInfo, ThreadState};
use rt_kernel::{MAX_MSG_WORDS, MAX_XFER_CAPS};

pub use rt_kernel::system::POLLUTION_BASE;

/// Capability addresses used by the worst-case system call.
pub mod cptrs {
    /// The endpoint the server receives on.
    pub const EP: u32 = 0x0000_0001;
    /// Granted caps (three, §6.1).
    pub const GRANT: [u32; 3] = [0x8000_0003, 0x4000_0005, 0x2000_0009];
    /// Receive-slot root for each thread's transfers.
    pub const RECV_ROOT: u32 = 0x1000_0011;
    /// Receive-slot node addresses (distinct per thread so repeated runs
    /// do not collide).
    pub const RECV_NODE_A: u32 = 0x0800_0021;
    /// Second receive-slot node.
    pub const RECV_NODE_B: u32 = 0x0400_0041;
    /// Fault-handler endpoint.
    pub const FAULT_HANDLER: u32 = 0x0200_0081;
    /// Notification for IRQ delivery / signal paths.
    pub const NTFN: u32 = 0x0100_0101;
}

/// The §6.1 worst-case system call, armable for repeated measurement: a
/// server performing the atomic send-receive with a full-length message
/// and three granted caps, decoding through 32-level capability spaces;
/// a caller awaiting the reply; a second client queued with another
/// full-length, cap-granting message.
pub struct WorstSyscall {
    /// The kernel under test.
    pub kernel: Kernel,
    server: ObjId,
    caller: ObjId,
    client: ObjId,
    ep: ObjId,
    recv_dest_a: SlotRef,
    recv_dest_b: SlotRef,
}

impl WorstSyscall {
    /// Builds the scenario on a fresh kernel.
    pub fn new(cfg: KernelConfig, hw: HwConfig) -> WorstSyscall {
        let mut k = Kernel::new(cfg, hw);
        let cs = DeepCspace::new(&mut k);
        let server = k.boot_tcb("server", 100);
        let caller = k.boot_tcb("caller", 100);
        let client = k.boot_tcb("client", 90);
        let ep = k.boot_endpoint();
        cs.insert(
            &mut k,
            cptrs::EP,
            CapType::Endpoint {
                obj: ep,
                badge: Badge(7),
                rights: Rights::ALL,
            },
        );
        // Granted caps: endpoint caps with badges.
        for (i, c) in cptrs::GRANT.iter().enumerate() {
            let target = k.boot_endpoint();
            cs.insert(
                &mut k,
                *c,
                CapType::Endpoint {
                    obj: target,
                    badge: Badge(100 + i as u32),
                    rights: Rights::ALL,
                },
            );
        }
        // Receive-slot plumbing: RECV_ROOT resolves to a CNode cap over
        // the trie root; the node cptrs resolve (in that space) to empty
        // destination slots.
        let root_cap = cs.root_cap.clone();
        cs.insert(&mut k, cptrs::RECV_ROOT, root_cap.clone());
        let recv_dest_a = cs.reserve(&mut k, cptrs::RECV_NODE_A);
        let recv_dest_b = cs.reserve(&mut k, cptrs::RECV_NODE_B);
        for t in [server, caller, client] {
            k.objs.tcb_mut(t).cspace_root = root_cap.clone();
        }
        k.objs.tcb_mut(server).recv_slot_spec = Some((cptrs::RECV_ROOT, cptrs::RECV_NODE_A));
        k.objs.tcb_mut(caller).recv_slot_spec = Some((cptrs::RECV_ROOT, cptrs::RECV_NODE_B));
        k.objs.tcb_mut(server).state = ThreadState::Running;
        k.force_current_for_test(server);
        let mut w = WorstSyscall {
            kernel: k,
            server,
            caller,
            client,
            ep,
            recv_dest_a,
            recv_dest_b,
        };
        w.arm();
        w
    }

    /// (Re-)establishes the pre-syscall state: caller blocked on reply,
    /// client queued with a full message, destination slots empty, server
    /// current with a full reply staged.
    pub fn arm(&mut self) {
        let k = &mut self.kernel;
        // Empty the receive-destination slots from a previous run.
        for slot in [self.recv_dest_a, self.recv_dest_b] {
            if !rt_kernel::cap::read_slot(&k.objs, slot).cap.is_null() {
                rt_kernel::cap::delete_cap(&mut k.objs, slot);
            }
        }
        // Caller awaits the reply.
        {
            if k.objs.tcb(self.caller).in_runqueue {
                k.dequeue_on(0, self.caller);
            }
            let t = k.objs.tcb_mut(self.caller);
            t.state = ThreadState::BlockedOnReply;
            t.msg = Vec::new();
        }
        k.objs.tcb_mut(self.server).caller = Some(self.caller);
        // Client queued on the endpoint with a full-length, cap-granting
        // send.
        {
            if k.objs.tcb(self.client).in_runqueue {
                k.dequeue_on(0, self.client);
            }
            let t = k.objs.tcb_mut(self.client);
            t.ep_next = None;
            t.ep_prev = None;
            t.queued_on = None;
            t.msg = (0..MAX_MSG_WORDS).map(|i| i * 3 + 1).collect();
            t.msg_info = MsgInfo {
                length: MAX_MSG_WORDS,
                extra_caps: MAX_XFER_CAPS,
                label: 0,
            };
            t.xfer_caps = cptrs::GRANT.to_vec();
        }
        {
            let e = k.objs.ep_mut(self.ep);
            e.head = None;
            e.tail = None;
            e.state = EpState::Idle;
        }
        ep_append(&mut k.objs, self.ep, self.client, EpState::Sending);
        k.objs.tcb_mut(self.client).state = ThreadState::BlockedOnSend {
            ep: self.ep,
            badge: Badge(7),
            can_grant: true,
            is_call: false,
        };
        // Server runs next with a full reply staged.
        {
            let t = k.objs.tcb_mut(self.server);
            t.state = ThreadState::Running;
            t.msg = (0..MAX_MSG_WORDS).map(|i| i * 5 + 2).collect();
            t.caller = Some(self.caller);
        }
        if k.objs.tcb(self.server).in_runqueue {
            k.dequeue_on(0, self.server);
        }
        k.force_current_for_test(self.server);
    }

    /// The system call under measurement.
    pub fn syscall(&self) -> Syscall {
        Syscall::ReplyRecv {
            cptr: cptrs::EP,
            len: MAX_MSG_WORDS,
            caps: cptrs::GRANT.to_vec(),
        }
    }

    /// One polluted worst-case run; returns the syscall's cycle count.
    pub fn fire_polluted(&mut self) -> u64 {
        self.kernel.machine.pollute(POLLUTION_BASE);
        let sys = self.syscall();
        let t0 = self.kernel.machine.now();
        let _ = self.kernel.handle_syscall(sys);
        let dt = self.kernel.machine.now() - t0;
        self.arm();
        dt
    }
}

/// Worst-case interrupt delivery: a high-priority driver waiting on a
/// bound notification, a line raised just before entry, polluted caches.
pub struct WorstInterrupt {
    /// The kernel under test.
    pub kernel: Kernel,
    driver: ObjId,
    low: ObjId,
    ntfn: ObjId,
    line: u8,
}

impl WorstInterrupt {
    /// Builds the scenario.
    pub fn new(cfg: KernelConfig, hw: HwConfig) -> WorstInterrupt {
        let mut k = Kernel::new(cfg, hw);
        let cnode = k.boot_cnode(8);
        let root = CapType::CNode {
            obj: cnode,
            guard_bits: 24,
            guard: 0,
        };
        let low = k.boot_tcb("background", 10);
        let driver = k.boot_tcb("driver", 200);
        let ntfn = k.boot_ntfn();
        for t in [low, driver] {
            k.objs.tcb_mut(t).cspace_root = root.clone();
        }
        k.irq_table.issue(4);
        k.irq_table.bind(4, ntfn, Badge(1));
        // Driver parked on the notification; background thread current.
        rt_kernel::ntfn::ntfn_append(&mut k.objs, ntfn, driver);
        k.objs.tcb_mut(driver).state = ThreadState::BlockedOnNotification { ntfn };
        k.objs.tcb_mut(low).state = ThreadState::Running;
        k.force_current_for_test(low);
        WorstInterrupt {
            kernel: k,
            driver,
            low,
            ntfn,
            line: 4,
        }
    }

    /// One polluted worst-case delivery; returns entry-to-exit cycles.
    pub fn fire_polluted(&mut self) -> u64 {
        let k = &mut self.kernel;
        k.machine.pollute(POLLUTION_BASE);
        let now = k.machine.now();
        k.machine.irq.raise(rt_hw::IrqLine(self.line), now);
        let t0 = k.machine.now();
        k.handle_interrupt();
        let dt = k.machine.now() - t0;
        // Re-park the driver for the next run.
        let driver = self.driver;
        if k.objs.tcb(driver).in_runqueue {
            k.dequeue_on(0, driver);
        }
        k.objs.tcb_mut(driver).state = ThreadState::BlockedOnNotification { ntfn: self.ntfn };
        k.objs.tcb_mut(driver).msg_info = MsgInfo::EMPTY;
        if k.objs.ntfn(self.ntfn).head.is_none() {
            rt_kernel::ntfn::ntfn_append(&mut k.objs, self.ntfn, driver);
        }
        k.objs.ntfn_mut(self.ntfn).word = 0;
        // The driver never runs in this harness, so acknowledge on its
        // behalf to unmask the line for the next repetition.
        k.machine.irq.unmask(rt_hw::IrqLine(self.line));
        let cur = k.current();
        if cur == driver || k.is_idle() {
            // Switch back to the background "current".
            let low = self.low;
            if k.objs.tcb(low).in_runqueue {
                k.dequeue_on(0, low);
            }
            k.objs.tcb_mut(low).state = ThreadState::Running;
            k.force_current_for_test(low);
        }
        dt
    }
}

/// Worst-case fault entry: the faulting thread's handler endpoint cap sits
/// 32 levels deep, with a handler waiting to receive the fault message.
pub struct WorstFault {
    /// The kernel under test.
    pub kernel: Kernel,
    faulter: ObjId,
    handler: ObjId,
    handler_ep: ObjId,
}

impl WorstFault {
    /// Builds the scenario.
    pub fn new(cfg: KernelConfig, hw: HwConfig) -> WorstFault {
        let mut k = Kernel::new(cfg, hw);
        let cs = DeepCspace::new(&mut k);
        let faulter = k.boot_tcb("faulter", 50);
        let handler = k.boot_tcb("handler", 150);
        let handler_ep = k.boot_endpoint();
        cs.insert(
            &mut k,
            cptrs::FAULT_HANDLER,
            CapType::Endpoint {
                obj: handler_ep,
                badge: Badge::NONE,
                rights: Rights::ALL,
            },
        );
        let root = cs.root_cap.clone();
        for t in [faulter, handler] {
            k.objs.tcb_mut(t).cspace_root = root.clone();
        }
        k.objs.tcb_mut(faulter).fault_handler = cptrs::FAULT_HANDLER;
        k.objs.tcb_mut(faulter).state = ThreadState::Running;
        k.force_current_for_test(faulter);
        let mut w = WorstFault {
            kernel: k,
            faulter,
            handler,
            handler_ep,
        };
        w.arm();
        w
    }

    fn arm(&mut self) {
        let k = &mut self.kernel;
        // Handler parked receiving on its endpoint.
        {
            if k.objs.tcb(self.handler).in_runqueue {
                k.dequeue_on(0, self.handler);
            }
            let t = k.objs.tcb_mut(self.handler);
            t.ep_next = None;
            t.ep_prev = None;
            t.queued_on = None;
        }
        {
            let e = k.objs.ep_mut(self.handler_ep);
            e.head = None;
            e.tail = None;
            e.state = EpState::Idle;
        }
        ep_append(
            &mut k.objs,
            self.handler_ep,
            self.handler,
            EpState::Receiving,
        );
        k.objs.tcb_mut(self.handler).state = ThreadState::BlockedOnRecv {
            ep: self.handler_ep,
        };
        // Faulter current and runnable.
        {
            if k.objs.tcb(self.faulter).in_runqueue {
                k.dequeue_on(0, self.faulter);
            }
            let t = k.objs.tcb_mut(self.faulter);
            t.state = ThreadState::Running;
            t.caller = None;
        }
        k.force_current_for_test(self.faulter);
    }

    /// One polluted page-fault entry; returns its cycle count.
    pub fn fire_page_fault_polluted(&mut self) -> u64 {
        self.kernel.machine.pollute(POLLUTION_BASE);
        let t0 = self.kernel.machine.now();
        self.kernel.handle_page_fault(0x0040_2000);
        let dt = self.kernel.machine.now() - t0;
        self.arm();
        dt
    }

    /// One polluted undefined-instruction entry; returns its cycle count.
    pub fn fire_undefined_polluted(&mut self) -> u64 {
        self.kernel.machine.pollute(POLLUTION_BASE);
        let t0 = self.kernel.machine.now();
        self.kernel.handle_undefined();
        let dt = self.kernel.machine.now() - t0;
        self.arm();
        dt
    }
}

/// The worst-case workload of one entry point: the one place that maps an
/// [`EntryPoint`] to its workload and fire method.
pub enum WorstCase {
    /// [`WorstSyscall`].
    Syscall(WorstSyscall),
    /// [`WorstInterrupt`].
    Interrupt(WorstInterrupt),
    /// [`WorstFault`], firing page faults.
    PageFault(WorstFault),
    /// [`WorstFault`], firing undefined instructions.
    Undefined(WorstFault),
}

impl WorstCase {
    /// Builds `entry`'s workload on a fresh `cfg` kernel with `hw`.
    pub fn new(entry: EntryPoint, cfg: KernelConfig, hw: HwConfig) -> WorstCase {
        match entry {
            EntryPoint::Syscall => WorstCase::Syscall(WorstSyscall::new(cfg, hw)),
            EntryPoint::Interrupt => WorstCase::Interrupt(WorstInterrupt::new(cfg, hw)),
            EntryPoint::PageFault => WorstCase::PageFault(WorstFault::new(cfg, hw)),
            EntryPoint::Undefined => WorstCase::Undefined(WorstFault::new(cfg, hw)),
        }
    }

    /// The kernel under test.
    pub fn kernel(&mut self) -> &mut Kernel {
        match self {
            WorstCase::Syscall(w) => &mut w.kernel,
            WorstCase::Interrupt(w) => &mut w.kernel,
            WorstCase::PageFault(w) | WorstCase::Undefined(w) => &mut w.kernel,
        }
    }

    /// One polluted worst-case run; returns its cycle count.
    pub fn fire(&mut self) -> Cycles {
        match self {
            WorstCase::Syscall(w) => w.fire_polluted(),
            WorstCase::Interrupt(w) => w.fire_polluted(),
            WorstCase::PageFault(w) => w.fire_page_fault_polluted(),
            WorstCase::Undefined(w) => w.fire_undefined_polluted(),
        }
    }
}

/// A server endpoint with `n` queued badge-carrying senders — the §3.4
/// badged-abort workload. Returns `(kernel, revoker, badged cap cptr)`
/// where invoking `Revoke` on the cptr aborts the matching senders.
pub fn badged_queue_kernel(
    cfg: KernelConfig,
    hw: HwConfig,
    n: u32,
    badge_every: u32,
) -> (Kernel, ObjId, u32) {
    let mut k = Kernel::new(cfg, hw);
    let cnode = k.boot_cnode(12);
    let root = CapType::CNode {
        obj: cnode,
        guard_bits: 20,
        guard: 0,
    };
    let server = k.boot_tcb("server", 200);
    k.objs.tcb_mut(server).cspace_root = root.clone();
    let ep = k.boot_endpoint();
    // The original (unbadged) cap, and a badged derivation to revoke.
    let orig = SlotRef::new(cnode, 1);
    insert_cap(
        &mut k.objs,
        orig,
        CapType::Endpoint {
            obj: ep,
            badge: Badge::NONE,
            rights: Rights::ALL,
        },
        None,
    );
    let badged = SlotRef::new(cnode, 2);
    insert_cap(
        &mut k.objs,
        badged,
        CapType::Endpoint {
            obj: ep,
            badge: Badge(42),
            rights: Rights::ALL,
        },
        Some(orig),
    );
    // Queue n clients, every `badge_every`-th carrying the target badge.
    for i in 0..n {
        let c = k.boot_tcb(&format!("client{i}"), 10);
        k.objs.tcb_mut(c).cspace_root = root.clone();
        let badge = if badge_every != 0 && i % badge_every == 0 {
            Badge(42)
        } else {
            Badge(7)
        };
        ep_append(&mut k.objs, ep, c, EpState::Sending);
        k.objs.tcb_mut(c).state = ThreadState::BlockedOnSend {
            ep,
            badge,
            can_grant: false,
            is_call: false,
        };
    }
    k.objs.tcb_mut(server).state = ThreadState::Running;
    k.force_current_for_test(server);
    (k, server, 2)
}

/// A kernel with an untyped region ready for the §3.5 retype workload.
/// Returns `(kernel, caller, untyped cptr, dest cnode cptr)`.
pub fn retype_kernel(
    cfg: KernelConfig,
    hw: HwConfig,
    untyped_bits: u8,
) -> (Kernel, ObjId, u32, u32) {
    let mut k = Kernel::new(cfg, hw);
    let cnode = k.boot_cnode(8);
    let root = CapType::CNode {
        obj: cnode,
        guard_bits: 24,
        guard: 0,
    };
    let task = k.boot_tcb("allocator", 100);
    k.objs.tcb_mut(task).cspace_root = root.clone();
    let ut = k.boot_untyped(untyped_bits);
    insert_cap(
        &mut k.objs,
        SlotRef::new(cnode, 1),
        CapType::Untyped(ut),
        None,
    );
    insert_cap(&mut k.objs, SlotRef::new(cnode, 2), root.clone(), None);
    k.objs.tcb_mut(task).state = ThreadState::Running;
    k.force_current_for_test(task);
    (k, task, 1, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_kernel::syscall::SyscallOutcome;

    #[test]
    fn worst_syscall_completes_and_rearms() {
        let mut w = WorstSyscall::new(KernelConfig::after(), HwConfig::default());
        let a = w.fire_polluted();
        let b = w.fire_polluted();
        assert!(a > 10_000, "worst syscall suspiciously fast: {a}");
        // Re-armed runs are reproducible to within cache noise.
        let ratio = a as f64 / b as f64;
        assert!((0.5..2.0).contains(&ratio), "{a} vs {b}");
        rt_kernel::invariants::assert_all(&w.kernel);
    }

    #[test]
    fn worst_syscall_uses_the_slowpath() {
        let mut w = WorstSyscall::new(KernelConfig::after(), HwConfig::default());
        let before = w.kernel.stats.fastpath_hits;
        let _ = w.fire_polluted();
        assert_eq!(
            w.kernel.stats.fastpath_hits, before,
            "full-length cap-granting ReplyRecv must not fastpath"
        );
    }

    #[test]
    fn worst_interrupt_wakes_driver() {
        let mut w = WorstInterrupt::new(KernelConfig::after(), HwConfig::default());
        let dt = w.fire_polluted();
        assert!(dt > 500, "interrupt path suspiciously fast: {dt}");
        assert_eq!(w.kernel.irq_log.len(), 1);
        assert!(w.kernel.irq_log[0].delivered.is_some());
        rt_kernel::invariants::assert_all(&w.kernel);
    }

    #[test]
    fn worst_fault_reaches_handler() {
        let mut w = WorstFault::new(KernelConfig::after(), HwConfig::default());
        let dt = w.fire_page_fault_polluted();
        assert!(dt > 5_000, "deep-cspace fault path too fast: {dt}");
        rt_kernel::invariants::assert_all(&w.kernel);
    }

    #[test]
    fn badged_abort_workload_revokes() {
        let (mut k, _server, cptr) =
            badged_queue_kernel(KernelConfig::before(), HwConfig::default(), 64, 4);
        let out = k.handle_syscall(Syscall::Revoke { cptr });
        assert_eq!(out, SyscallOutcome::Completed(Ok(())));
        rt_kernel::invariants::assert_all(&k);
    }
}
