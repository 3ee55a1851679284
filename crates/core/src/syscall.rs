//! System calls: dispatch, IPC, object creation/deletion, VM operations.
//!
//! Every operation here follows the paper's discipline:
//!
//! * the whole call runs with interrupts disabled; pending interrupts are
//!   only noticed at [`crate::kernel::Kernel::preemption_point`]s and at
//!   kernel exit (§2.1);
//! * a preempted operation unwinds with [`Preempted`], having already
//!   stored its progress *in the objects* (endpoint abort 4-tuple §3.4,
//!   untyped clear watermark §3.5, page-table lowest-mapped index §3.6) —
//!   the trapped thread re-executes the same system call to resume;
//! * deletion is *incrementally consistent* (§2.1): there is always a
//!   constant-time step that partially deconstructs the composite object
//!   and leaves the system coherent.

use std::sync::Arc;

use rt_hw::Addr;

use crate::cap::{self, Badge, CapType, Mapping, Rights, SlotRef, SpaceRef};
use crate::cnode::DecodeError;
use crate::ep::{self, EpState};
use crate::kernel::{Kernel, SchedAction, SchedKind, VmKind};
use crate::kprog::Block;
use crate::ntfn;
use crate::obj::{ObjId, ObjKind};
use crate::preempt::Preempted;
use crate::tcb::{
    MsgInfo, Tcb, ThreadState, OFF_BADGE, OFF_EP_NEXT, OFF_EP_PREV, OFF_MSGINFO, OFF_STATE,
};
use crate::untyped::{PendingRetype, RetypeKind};
use crate::vspace::{self, PdEntry, PtEntry};
use crate::{CLEAR_CHUNK_BYTES, CSPACE_DEPTH_BITS, MAX_MSG_WORDS, MAX_XFER_CAPS};

/// User-visible system calls and invocations.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Syscall {
    /// Send on an endpoint cap; blocks if no receiver and `block`.
    Send {
        /// Capability address of the endpoint.
        cptr: u32,
        /// Message length in words.
        len: u32,
        /// Capability addresses to transfer (grant).
        caps: Vec<u32>,
        /// Whether to block when no receiver waits.
        block: bool,
    },
    /// Send and wait for a reply (server RPC).
    Call {
        /// Capability address of the endpoint.
        cptr: u32,
        /// Message length in words.
        len: u32,
        /// Capability addresses to transfer.
        caps: Vec<u32>,
    },
    /// Block until a message arrives on the endpoint.
    Recv {
        /// Capability address of the endpoint.
        cptr: u32,
    },
    /// Reply to the caller of the last received Call.
    Reply {
        /// Reply message length in words.
        len: u32,
        /// Capability addresses to transfer with the reply.
        caps: Vec<u32>,
    },
    /// The atomic send-receive (§6.1) — reply to the caller, then wait for
    /// the next request; "the worst case [system call] detected".
    ReplyRecv {
        /// Capability address of the endpoint to receive on.
        cptr: u32,
        /// Reply message length in words.
        len: u32,
        /// Capability addresses to transfer with the reply.
        caps: Vec<u32>,
    },
    /// Signal a notification.
    Signal {
        /// Capability address of the notification.
        cptr: u32,
    },
    /// Wait on a notification.
    Wait {
        /// Capability address of the notification.
        cptr: u32,
    },
    /// Give up the CPU to the next thread of equal priority.
    Yield,
    /// Retype untyped memory into objects (§3.5).
    Retype {
        /// Capability address of the untyped object.
        untyped: u32,
        /// What to create.
        kind: RetypeKind,
        /// How many objects.
        count: u32,
        /// Capability address of the destination CNode.
        dest_cnode: u32,
        /// First destination slot index.
        dest_offset: u32,
    },
    /// Delete the capability at `cptr` (destroying the object if final).
    Delete {
        /// Capability address to delete.
        cptr: u32,
    },
    /// Revoke all capabilities derived from `cptr`; revoking a badged
    /// endpoint cap also aborts in-flight sends with that badge (§3.4).
    Revoke {
        /// Capability address to revoke.
        cptr: u32,
    },
    /// Copy a capability with reduced rights and a new badge.
    Mint {
        /// Source capability address.
        src: u32,
        /// Destination (must resolve to an empty slot).
        dest: u32,
        /// Badge for endpoint/notification caps.
        badge: Badge,
        /// Rights mask.
        rights: Rights,
    },
    /// Map a frame into an address space (§3.6).
    MapFrame {
        /// Frame capability address.
        frame: u32,
        /// Page-directory capability address.
        pd: u32,
        /// Virtual address.
        vaddr: Addr,
    },
    /// Unmap a frame.
    UnmapFrame {
        /// Frame capability address.
        frame: u32,
    },
    /// Install a page table into a directory.
    MapPageTable {
        /// Page-table capability address.
        pt: u32,
        /// Page-directory capability address.
        pd: u32,
        /// Virtual address the table will cover.
        vaddr: Addr,
    },
    /// Assign an ASID to a page directory (legacy VM design only).
    AssignAsid {
        /// ASID-pool capability address.
        pool: u32,
        /// Page-directory capability address.
        pd: u32,
    },
    /// Bind an IRQ handler cap to a notification.
    IrqSetNtfn {
        /// IRQ-handler capability address.
        handler: u32,
        /// Notification capability address.
        ntfn: u32,
    },
    /// Acknowledge an interrupt, unmasking its line for re-delivery (the
    /// seL4 driver protocol: Wait, service the device, Ack, Wait...).
    IrqAck {
        /// IRQ-handler capability address.
        handler: u32,
    },
    /// Resume (start) a thread.
    TcbResume {
        /// TCB capability address.
        tcb: u32,
    },
    /// Suspend a thread.
    TcbSuspend {
        /// TCB capability address.
        tcb: u32,
    },
    /// Change a thread's fixed priority (re-queueing it and maintaining
    /// the §3.2 bitmap if it is on a run queue).
    TcbSetPriority {
        /// TCB capability address.
        tcb: u32,
        /// New priority.
        prio: u8,
    },
    /// Install a thread's capability-space root and fault handler.
    TcbConfigure {
        /// TCB capability address.
        tcb: u32,
        /// Capability address (in the caller's cspace) of the new root
        /// CNode cap.
        cspace_root: u32,
        /// Fault-handler capability address, decoded in the *configured
        /// thread's* cspace when it faults.
        fault_handler: u32,
    },
}

/// Why a system call failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SysError {
    /// Capability address did not decode.
    Decode(DecodeError),
    /// The decoded cap has the wrong type for the operation.
    InvalidCap,
    /// Insufficient rights.
    Rights,
    /// The endpoint is being deleted (§3.3 forward-progress rule).
    Deactivated,
    /// Non-blocking operation would have blocked.
    WouldBlock,
    /// Untyped has insufficient free memory.
    OutOfMemory,
    /// Destination slot is occupied.
    DestOccupied,
    /// Mapping already exists / vaddr occupied.
    AlreadyMapped,
    /// Nothing mapped where expected.
    NotMapped,
    /// Operation not available under the configured VM design.
    WrongVmDesign,
    /// Object still in use (e.g. deleting a non-empty CNode).
    InUse,
}

/// Result of a system call that ran to completion.
pub type SyscallResult = Result<(), SysError>;

/// Result of attempting a system call: it either completed (possibly with
/// an error) or hit a preemption point and will be restarted (§2.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyscallOutcome {
    /// The operation ran to completion.
    Completed(SyscallResult),
    /// A preemption point fired; the thread is in `Restart` state and will
    /// re-execute the same call.
    Preempted,
}

impl Kernel {
    /// Full system-call entry: trap, (possibly) fastpath, dispatch,
    /// perform, schedule, exit.
    pub fn handle_syscall(&mut self, sys: Syscall) -> SyscallOutcome {
        self.lock_enter();
        let out = self.handle_syscall_locked(sys);
        self.lock_exit();
        out
    }

    /// The system-call body, run under the big kernel lock.
    fn handle_syscall_locked(&mut self, sys: Syscall) -> SyscallOutcome {
        self.stats.syscall_entries += 1;
        self.blk0(Block::SwiEntry);
        let cur = self.current();
        {
            let t = self.objs.tcb_mut(cur);
            t.current_syscall = Some(sys.clone());
            if t.state == ThreadState::Restart {
                t.state = ThreadState::Running;
            }
        }
        if self.config.fastpath {
            if let Some(res) = self.try_fastpath(&sys) {
                self.machine.trace_phase("fastpath");
                self.stats.fastpath_hits += 1;
                self.objs.tcb_mut(cur).current_syscall = None;
                self.exit_kernel();
                return SyscallOutcome::Completed(res);
            }
        }
        let m0 = Tcb::msg_addr(&self.objs, cur, 0);
        let m1 = Tcb::msg_addr(&self.objs, cur, 1);
        self.blk(Block::DispatchStart, &[m0, m1]);
        match self.perform(&sys) {
            Ok(result) => {
                self.objs.tcb_mut(cur).current_syscall = None;
                self.exit_kernel();
                SyscallOutcome::Completed(result)
            }
            Err(Preempted) => {
                // The operation unwound; its progress lives in the objects.
                // Handle the interrupt that fired, then leave the kernel;
                // the thread is in Restart state and keeps its syscall.
                self.interrupt_core();
                self.exit_kernel();
                SyscallOutcome::Preempted
            }
        }
    }

    /// Dispatch on the system call (the Fig. 6 cap-type switch).
    fn perform(&mut self, sys: &Syscall) -> Result<SyscallResult, Preempted> {
        let cur = self.current();
        let m2 = Tcb::msg_addr(&self.objs, cur, 2);
        self.blk(Block::DispatchSwitch, &[m2]);
        match sys {
            Syscall::Send {
                cptr,
                len,
                caps,
                block,
            } => {
                self.blk0(Block::CaseEp);
                Ok(self.sys_send(*cptr, *len, caps, *block, false))
            }
            Syscall::Call { cptr, len, caps } => {
                self.blk0(Block::CaseEp);
                Ok(self.sys_send(*cptr, *len, caps, true, true))
            }
            Syscall::Recv { cptr } => {
                self.blk0(Block::CaseEp);
                Ok(self.sys_recv(*cptr))
            }
            Syscall::Reply { len, caps } => {
                self.blk0(Block::CaseReply);
                Ok(self.sys_reply(*len, caps))
            }
            Syscall::ReplyRecv { cptr, len, caps } => {
                self.blk0(Block::CaseReply);
                let r = self.sys_reply(*len, caps);
                if r.is_err() {
                    return Ok(r);
                }
                self.blk0(Block::CaseEp);
                Ok(self.sys_recv(*cptr))
            }
            Syscall::Signal { cptr } => {
                self.blk0(Block::CaseNtfn);
                Ok(self.sys_signal(*cptr))
            }
            Syscall::Wait { cptr } => {
                self.blk0(Block::CaseNtfn);
                Ok(self.sys_wait(*cptr))
            }
            Syscall::Yield => {
                self.blk0(Block::CaseTcb);
                self.sys_yield();
                Ok(Ok(()))
            }
            Syscall::Retype {
                untyped,
                kind,
                count,
                dest_cnode,
                dest_offset,
            } => {
                self.blk0(Block::CaseUntyped);
                self.sys_retype(*untyped, *kind, *count, *dest_cnode, *dest_offset)
            }
            Syscall::Delete { cptr } => {
                self.blk0(Block::CaseCNode);
                self.sys_delete(*cptr)
            }
            Syscall::Revoke { cptr } => {
                self.blk0(Block::CaseCNode);
                self.sys_revoke(*cptr)
            }
            Syscall::Mint {
                src,
                dest,
                badge,
                rights,
            } => {
                self.blk0(Block::CaseCNode);
                Ok(self.sys_mint(*src, *dest, *badge, *rights))
            }
            Syscall::MapFrame { frame, pd, vaddr } => {
                self.blk0(Block::CaseVspace);
                Ok(self.sys_map_frame(*frame, *pd, *vaddr))
            }
            Syscall::UnmapFrame { frame } => {
                self.blk0(Block::CaseVspace);
                Ok(self.sys_unmap_frame(*frame))
            }
            Syscall::MapPageTable { pt, pd, vaddr } => {
                self.blk0(Block::CaseVspace);
                Ok(self.sys_map_pt(*pt, *pd, *vaddr))
            }
            Syscall::AssignAsid { pool, pd } => {
                self.blk0(Block::CaseVspace);
                Ok(self.sys_assign_asid(*pool, *pd))
            }
            Syscall::IrqSetNtfn { handler, ntfn } => {
                self.blk0(Block::CaseIrq);
                Ok(self.sys_irq_set_ntfn(*handler, *ntfn))
            }
            Syscall::IrqAck { handler } => {
                self.blk0(Block::CaseIrq);
                Ok(self.sys_irq_ack(*handler))
            }
            Syscall::TcbResume { tcb } => {
                self.blk0(Block::CaseTcb);
                Ok(self.sys_tcb_resume(*tcb))
            }
            Syscall::TcbSuspend { tcb } => {
                self.blk0(Block::CaseTcb);
                Ok(self.sys_tcb_suspend(*tcb))
            }
            Syscall::TcbSetPriority { tcb, prio } => {
                self.blk0(Block::CaseTcb);
                Ok(self.sys_tcb_set_priority(*tcb, *prio))
            }
            Syscall::TcbConfigure {
                tcb,
                cspace_root,
                fault_handler,
            } => {
                self.blk0(Block::CaseTcb);
                Ok(self.sys_tcb_configure(*tcb, *cspace_root, *fault_handler))
            }
        }
    }

    /// Resolves `cptr` in the current thread's cspace.
    fn resolve_cur(&mut self, cptr: u32) -> Result<SlotRef, SysError> {
        let root = self.objs.tcb(self.current()).cspace_root.clone();
        self.resolve_charged(&root, cptr, CSPACE_DEPTH_BITS)
            .map_err(SysError::Decode)
    }

    // --- IPC ---------------------------------------------------------------

    fn sys_send(
        &mut self,
        cptr: u32,
        len: u32,
        caps: &[u32],
        block: bool,
        is_call: bool,
    ) -> SyscallResult {
        let cur = self.current();
        let slot = self.resolve_cur(cptr)?;
        let (epobj, badge, rights) = match self.cap_at(slot) {
            CapType::Endpoint { obj, badge, rights } => (obj, badge, rights),
            _ => return Err(SysError::InvalidCap),
        };
        if !rights.write {
            return Err(SysError::Rights);
        }
        {
            let t = self.objs.tcb_mut(cur);
            t.msg_info = MsgInfo {
                length: len.min(MAX_MSG_WORDS),
                extra_caps: caps.len().min(MAX_XFER_CAPS as usize) as u32,
                label: 0,
            };
            t.xfer_caps = caps.to_vec();
        }
        self.ipc_send(cur, epobj, badge, rights.grant, block, is_call)
    }

    /// Core send: deliver to a waiting receiver, or enqueue and block.
    pub(crate) fn ipc_send(
        &mut self,
        sender: ObjId,
        epobj: ObjId,
        badge: Badge,
        can_grant: bool,
        block: bool,
        is_call: bool,
    ) -> SyscallResult {
        let e0 = self.obj_addr(epobj, 0);
        self.blk(Block::SendCheck, &[e0, e0 + 4]);
        if !self.objs.ep(epobj).active {
            return Err(SysError::Deactivated);
        }
        let has_receiver = self.objs.ep(epobj).state == EpState::Receiving;
        if has_receiver {
            let recv = self
                .objs
                .ep(epobj)
                .head
                .expect("Receiving implies a waiter");
            let r_st = self.tcb_addr(recv, OFF_STATE);
            let r_nx = self.tcb_addr(recv, OFF_EP_NEXT);
            self.blk(Block::SendDequeueRecv, &[e0, r_st, r_nx, r_st, r_nx, e0]);
            ep::ep_unlink(&mut self.objs, epobj, recv);
            self.do_transfer(sender, recv, badge, can_grant);
            if is_call {
                self.objs.tcb_mut(sender).state = ThreadState::BlockedOnReply;
                self.objs.tcb_mut(recv).caller = Some(sender);
            }
            self.wake_thread(recv, is_call);
            Ok(())
        } else {
            if !block {
                return Err(SysError::WouldBlock);
            }
            let s_fields = self.tcb_addr(sender, OFF_STATE);
            let e_tail = e0 + 4;
            let old_tail = self.objs.ep(epobj).tail;
            let prev_nx = old_tail
                .map(|t| self.tcb_addr(t, OFF_EP_NEXT))
                .unwrap_or(e0 + 8);
            self.blk(
                Block::SendEnqueue,
                &[
                    e_tail,
                    s_fields,
                    s_fields + 4,
                    s_fields + 8,
                    e_tail,
                    prev_nx,
                ],
            );
            ep::ep_append(&mut self.objs, epobj, sender, EpState::Sending);
            self.objs.tcb_mut(sender).state = ThreadState::BlockedOnSend {
                ep: epobj,
                badge,
                can_grant,
                is_call,
            };
            self.objs.tcb_mut(sender).wait_since = self.machine.now();
            // Current thread blocked with no decision: the scheduler picks.
            Ok(())
        }
    }

    fn sys_recv(&mut self, cptr: u32) -> SyscallResult {
        let cur = self.current();
        let slot = self.resolve_cur(cptr)?;
        let (epobj, _badge, rights) = match self.cap_at(slot) {
            CapType::Endpoint { obj, badge, rights } => (obj, badge, rights),
            _ => return Err(SysError::InvalidCap),
        };
        if !rights.read {
            return Err(SysError::Rights);
        }
        self.ipc_recv(cur, epobj)
    }

    /// Core receive: take a queued sender's message, or enqueue and block.
    pub(crate) fn ipc_recv(&mut self, recv: ObjId, epobj: ObjId) -> SyscallResult {
        let e0 = self.obj_addr(epobj, 0);
        self.blk(Block::RecvCheck, &[e0, e0 + 4]);
        if !self.objs.ep(epobj).active {
            return Err(SysError::Deactivated);
        }
        let has_sender = self.objs.ep(epobj).state == EpState::Sending;
        if has_sender {
            let sender = self.objs.ep(epobj).head.expect("Sending implies a waiter");
            let s_st = self.tcb_addr(sender, OFF_STATE);
            let s_nx = self.tcb_addr(sender, OFF_EP_NEXT);
            self.blk(Block::RecvDequeueSend, &[e0, s_st, s_nx, s_st, s_nx, e0]);
            ep::ep_unlink(&mut self.objs, epobj, sender);
            let (badge, can_grant, is_call) = match self.objs.tcb(sender).state {
                ThreadState::BlockedOnSend {
                    badge,
                    can_grant,
                    is_call,
                    ..
                } => (badge, can_grant, is_call),
                ref s => panic!("sender queued with state {s:?}"),
            };
            self.do_transfer(sender, recv, badge, can_grant);
            if is_call {
                self.objs.tcb_mut(sender).state = ThreadState::BlockedOnReply;
                self.objs.tcb_mut(recv).caller = Some(sender);
            } else {
                // Receiver keeps running; the sender is merely unblocked.
                self.wake_thread(sender, false);
            }
            Ok(())
        } else {
            let r_fields = self.tcb_addr(recv, OFF_STATE);
            let e_tail = e0 + 4;
            let old_tail = self.objs.ep(epobj).tail;
            let prev_nx = old_tail
                .map(|t| self.tcb_addr(t, OFF_EP_NEXT))
                .unwrap_or(e0 + 8);
            self.blk(
                Block::RecvEnqueue,
                &[
                    e_tail,
                    r_fields,
                    r_fields + 4,
                    r_fields + 8,
                    e_tail,
                    prev_nx,
                ],
            );
            ep::ep_append(&mut self.objs, epobj, recv, EpState::Receiving);
            self.objs.tcb_mut(recv).state = ThreadState::BlockedOnRecv { ep: epobj };
            self.objs.tcb_mut(recv).wait_since = self.machine.now();
            Ok(())
        }
    }

    fn sys_reply(&mut self, len: u32, caps: &[u32]) -> SyscallResult {
        let cur = self.current();
        let Some(caller) = self.objs.tcb_mut(cur).caller.take() else {
            return Ok(()); // reply to nobody is a no-op, as in seL4
        };
        {
            let t = self.objs.tcb_mut(cur);
            t.msg_info = MsgInfo {
                length: len.min(MAX_MSG_WORDS),
                extra_caps: caps.len().min(MAX_XFER_CAPS as usize) as u32,
                label: 0,
            };
            t.xfer_caps = caps.to_vec();
        }
        let c_caller = self.tcb_addr(cur, 0x2c);
        let st_caller = self.tcb_addr(caller, OFF_STATE);
        let f = self.tcb_addr(caller, OFF_EP_NEXT);
        self.blk(Block::ReplyXfer, &[c_caller, st_caller, f, f + 4, f + 8]);
        self.do_transfer(cur, caller, Badge::NONE, true);
        self.wake_thread(caller, false);
        Ok(())
    }

    /// Message + capability transfer (§6.1's "full-length message transfer,
    /// and granting access rights to objects over IPC").
    fn do_transfer(&mut self, from: ObjId, to: ObjId, badge: Badge, can_grant: bool) {
        let info = self.objs.tcb(from).msg_info;
        let fa = self.tcb_addr(from, OFF_MSGINFO);
        let ta = self.tcb_addr(to, OFF_MSGINFO);
        self.blk(Block::TransferSetup, &[fa, ta]);
        let len = info.length.min(MAX_MSG_WORDS);
        for i in 0..len {
            let src = Tcb::msg_addr(&self.objs, from, i);
            let dst = Tcb::msg_addr(&self.objs, to, i);
            self.blk(Block::TransferWord, &[src, dst]);
            let w = self
                .objs
                .tcb(from)
                .msg
                .get(i as usize)
                .copied()
                .unwrap_or(0);
            let m = &mut self.objs.tcb_mut(to).msg;
            if m.len() <= i as usize {
                m.resize(i as usize + 1, 0);
            }
            m[i as usize] = w;
        }
        let tb = self.tcb_addr(to, OFF_BADGE);
        self.blk(Block::TransferBadge, &[tb, tb + 4]);
        {
            let t = self.objs.tcb_mut(to);
            t.recv_badge = badge;
            t.msg_info = info;
        }
        // Capability transfer.
        let caps: Vec<u32> = self.objs.tcb(from).xfer_caps.clone();
        self.objs.tcb_mut(from).xfer_caps.clear();
        if !can_grant || caps.is_empty() {
            return;
        }
        let from_root = self.objs.tcb(from).cspace_root.clone();
        let mut src_slots = Vec::new();
        for cptr in caps.iter().take(MAX_XFER_CAPS as usize) {
            // One decode per transferred cap, in the sender's cspace.
            if let Ok(s) = self.resolve_charged(&from_root, *cptr, CSPACE_DEPTH_BITS) {
                src_slots.push(s);
            }
        }
        // Receive-slot lookup: two decodes in the receiver's cspace.
        let Some((croot_cptr, node_cptr)) = self.objs.tcb(to).recv_slot_spec else {
            return; // receiver accepts no caps; badges only
        };
        let to_root = self.objs.tcb(to).cspace_root.clone();
        let Ok(croot_slot) = self.resolve_charged(&to_root, croot_cptr, CSPACE_DEPTH_BITS) else {
            return;
        };
        let croot_cap = self.cap_at(croot_slot);
        let Ok(dest_slot) = self.resolve_charged(&croot_cap, node_cptr, CSPACE_DEPTH_BITS) else {
            return;
        };
        let mut dest_used = false;
        for s in src_slots {
            let sa = s.addr(&self.objs);
            let da = dest_slot.addr(&self.objs);
            self.blk(Block::CapXferOne, &[sa, sa + 4, da, da + 4, da + 8]);
            if !dest_used {
                let capv = self.cap_at(s);
                if !capv.is_null() && cap::read_slot(&self.objs, dest_slot).cap.is_null() {
                    cap::insert_cap(&mut self.objs, dest_slot, capv, Some(s));
                    dest_used = true;
                }
            }
            // Further caps are unwrapped to badges only, as in seL4 when
            // the receive slot is exhausted.
        }
    }

    // --- Notifications -------------------------------------------------------

    fn sys_signal(&mut self, cptr: u32) -> SyscallResult {
        let slot = self.resolve_cur(cptr)?;
        let (obj, badge, rights) = match self.cap_at(slot) {
            CapType::Notification { obj, badge, rights } => (obj, badge, rights),
            _ => return Err(SysError::InvalidCap),
        };
        if !rights.write {
            return Err(SysError::Rights);
        }
        let n0 = self.obj_addr(obj, 0);
        self.blk(Block::NtfnSignalOp, &[n0, n0 + 4, n0, n0 + 4]);
        match ntfn::signal(&mut self.objs, obj, badge) {
            ntfn::SignalOutcome::Wake { tcb, word } => {
                self.objs.tcb_mut(tcb).msg_info.label = word;
                self.wake_thread(tcb, false);
            }
            ntfn::SignalOutcome::Accumulated => {}
        }
        Ok(())
    }

    fn sys_wait(&mut self, cptr: u32) -> SyscallResult {
        let cur = self.current();
        let slot = self.resolve_cur(cptr)?;
        let (obj, _badge, rights) = match self.cap_at(slot) {
            CapType::Notification { obj, badge, rights } => (obj, badge, rights),
            _ => return Err(SysError::InvalidCap),
        };
        if !rights.read {
            return Err(SysError::Rights);
        }
        let n0 = self.obj_addr(obj, 0);
        self.blk(Block::NtfnWaitOp, &[n0, n0 + 4, n0, n0 + 4]);
        match ntfn::wait(&mut self.objs, obj, cur) {
            Some(word) => {
                self.objs.tcb_mut(cur).msg_info.label = word;
            }
            None => {
                self.objs.tcb_mut(cur).state = ThreadState::BlockedOnNotification { ntfn: obj };
                self.objs.tcb_mut(cur).wait_since = self.machine.now();
            }
        }
        Ok(())
    }

    fn sys_yield(&mut self) {
        let cur = self.current();
        // Move to the tail of the priority's queue and choose anew.
        let here = self.cur_core();
        if self.objs.tcb(cur).in_runqueue {
            self.dequeue_on(here, cur);
        }
        self.enqueue_on(here, cur);
        if self.config.sched == SchedKind::BennoBitmap {
            self.blk0(Block::BitmapSet);
        }
        self.set_reschedule();
    }

    pub(crate) fn set_reschedule(&mut self) {
        self.force_choose_new();
    }

    // --- Retype (§3.5) -------------------------------------------------------

    fn sys_retype(
        &mut self,
        untyped: u32,
        kind: RetypeKind,
        count: u32,
        dest_cnode: u32,
        dest_offset: u32,
    ) -> Result<SyscallResult, Preempted> {
        let ut_slot = match self.resolve_cur(untyped) {
            Ok(s) => s,
            Err(e) => return Ok(Err(e)),
        };
        let ut_obj = match self.cap_at(ut_slot) {
            CapType::Untyped(o) => o,
            _ => return Ok(Err(SysError::InvalidCap)),
        };
        let dest_slot_root = match self.resolve_cur(dest_cnode) {
            Ok(s) => s,
            Err(e) => return Ok(Err(e)),
        };
        let dest_node = match self.cap_at(dest_slot_root) {
            CapType::CNode { obj, .. } => obj,
            _ => return Ok(Err(SysError::InvalidCap)),
        };
        let u0 = self.obj_addr(ut_obj, 0);
        self.blk(Block::RetypeCheck, &[u0, u0 + 4]);

        let shadow = self.config.vm == VmKind::ShadowPt;
        let size_bits = kind.size_bits(shadow);
        // Page directories are created one per invocation: each carries an
        // unpreemptible 1 KiB kernel-mapping copy (§3.5's tolerated ~20 µs
        // segment), so batching them would grow the bound.
        let max = if matches!(kind, RetypeKind::PageDirectory) {
            1
        } else {
            crate::untyped::MAX_RETYPE_COUNT
        };
        let count = count.max(1).min(max);
        // Destination slots must be empty.
        for i in 0..count {
            let idx = dest_offset + i;
            if idx >= self.objs.cnode(dest_node).num_slots() {
                return Ok(Err(SysError::DestOccupied));
            }
            if !self.objs.cnode(dest_node).slot(idx).cap.is_null() {
                return Ok(Err(SysError::DestOccupied));
            }
        }
        // Plan (or recover the in-flight plan after a preemption).
        let (ut_base, ut_size) = {
            let o = self.objs.get(ut_obj);
            (o.base, o.size())
        };
        let pending = self.objs.untyped(ut_obj).pending;
        let plan = match pending {
            // A restarted call must be the *same* request (seL4 re-decodes
            // and re-validates on every restart); a different kind/count
            // while a retype is in flight is rejected rather than silently
            // continuing the old plan.
            Some(p) => {
                if p.kind != kind || p.count != count {
                    return Ok(Err(SysError::InUse));
                }
                p
            }
            None => {
                let Some((start, len_total)) = self
                    .objs
                    .untyped(ut_obj)
                    .plan(ut_base, ut_size, size_bits, count)
                else {
                    return Ok(Err(SysError::OutOfMemory));
                };
                let p = PendingRetype {
                    kind,
                    count,
                    region_start: start,
                    region_len: len_total,
                };
                let u = self.objs.untyped_mut(ut_obj);
                u.pending = Some(p);
                u.clear_progress = 0;
                p
            }
        };

        // Phase 1 (§3.5): clear *all* object contents before any other
        // kernel state changes, preempting at 1 KiB multiples, progress
        // stored in the untyped object.
        let mut off = self.objs.untyped(ut_obj).clear_progress;
        while off < plan.region_len {
            let chunk = CLEAR_CHUNK_BYTES.min(plan.region_len - off);
            let mut line = 0;
            while line < chunk {
                let base = plan.region_start + off + line;
                let addrs: [Addr; 8] = std::array::from_fn(|w| base + 4 * w as u32);
                self.blk(Block::ClearLine, &addrs);
                line += 32;
            }
            self.machine.phys.zero_range(plan.region_start + off, chunk);
            off += chunk;
            self.objs.untyped_mut(ut_obj).clear_progress = off;
            if off < plan.region_len {
                self.preemption_point()?;
            }
        }

        // Phase 2: the short atomic pass — create objects and caps.
        let obj_size = 1u32 << size_bits;
        for i in 0..plan.count {
            let base = plan.region_start + i * obj_size;
            let okind = self.make_object_kind(plan.kind, shadow);
            let id = self.objs.insert(base, size_bits, okind);
            // Page directories additionally receive the kernel global
            // mappings: a 1 KiB copy, unpreemptible (§3.5, ~20 µs).
            if matches!(plan.kind, RetypeKind::PageDirectory) {
                for l in 0..(vspace::KERNEL_MAPPING_BYTES / 32) {
                    let dst = base + vspace::KERNEL_PDE_START * 4 + l * 32;
                    let addrs: [Addr; 8] = std::array::from_fn(|w| dst + 4 * w as u32);
                    self.blk(Block::PdCopyLine, &addrs);
                }
                self.objs.pd_mut(id).install_kernel_mappings();
            }
            let dslot = SlotRef::new(dest_node, dest_offset + i);
            let da = dslot.addr(&self.objs);
            self.blk(
                Block::RetypeCreateObj,
                &[da, da + 4, da + 8, base, base + 4],
            );
            let capv = self.cap_for_new_object(plan.kind, id);
            cap::insert_cap(&mut self.objs, dslot, capv, Some(ut_slot));
            self.objs.untyped_mut(ut_obj).children.push(id);
        }
        self.blk(Block::RetypeFinish, &[u0 + 8, u0 + 12]);
        {
            let u = self.objs.untyped_mut(ut_obj);
            u.watermark = (plan.region_start + plan.region_len) - ut_base;
            u.pending = None;
            u.clear_progress = 0;
        }
        Ok(Ok(()))
    }

    fn make_object_kind(&self, kind: RetypeKind, shadow: bool) -> ObjKind {
        match kind {
            RetypeKind::Tcb => ObjKind::Tcb(Tcb::new("retyped", 0)),
            RetypeKind::Endpoint => ObjKind::Endpoint(crate::ep::Endpoint::new()),
            RetypeKind::Notification => ObjKind::Notification(crate::ntfn::Notification::new()),
            RetypeKind::CNode { radix_bits } => {
                ObjKind::CNode(crate::cnode::CNode::new(radix_bits))
            }
            RetypeKind::Frame { size_bits } => ObjKind::Frame(vspace::Frame::new(size_bits)),
            RetypeKind::PageTable => ObjKind::PageTable(vspace::PageTable::new(shadow)),
            RetypeKind::PageDirectory => ObjKind::PageDirectory(vspace::PageDirectory::new(shadow)),
            RetypeKind::AsidPool => ObjKind::AsidPool(vspace::AsidPool::new()),
        }
    }

    fn cap_for_new_object(&self, kind: RetypeKind, id: ObjId) -> CapType {
        match kind {
            RetypeKind::Tcb => CapType::Tcb(id),
            RetypeKind::Endpoint => CapType::Endpoint {
                obj: id,
                badge: Badge::NONE,
                rights: Rights::ALL,
            },
            RetypeKind::Notification => CapType::Notification {
                obj: id,
                badge: Badge::NONE,
                rights: Rights::ALL,
            },
            RetypeKind::CNode { .. } => CapType::CNode {
                obj: id,
                guard_bits: 0,
                guard: 0,
            },
            RetypeKind::Frame { .. } => CapType::Frame {
                obj: id,
                mapping: None,
                rights: Rights::ALL,
            },
            RetypeKind::PageTable => CapType::PageTable {
                obj: id,
                mapped: None,
            },
            RetypeKind::PageDirectory => CapType::PageDirectory {
                obj: id,
                asid: None,
            },
            RetypeKind::AsidPool => CapType::AsidPool(id),
        }
    }

    // --- Delete / revoke ------------------------------------------------

    fn sys_delete(&mut self, cptr: u32) -> Result<SyscallResult, Preempted> {
        let slot = match self.resolve_cur(cptr) {
            Ok(s) => s,
            Err(e) => return Ok(Err(e)),
        };
        self.delete_slot(slot)
    }

    /// Deletes the cap at `slot`; if it is the final cap, destroys the
    /// object first (which may preempt — the slot stays intact so the
    /// restarted call finds the teardown where it left off).
    pub(crate) fn delete_slot(&mut self, slot: SlotRef) -> Result<SyscallResult, Preempted> {
        let sa = slot.addr(&self.objs);
        self.blk(Block::CNodeDelete, &[sa, sa + 4, sa, sa + 4]);
        let capv = self.cap_at(slot);
        if capv.is_null() {
            return Ok(Err(SysError::InvalidCap));
        }
        if cap::is_final(&self.objs, slot) {
            self.destroy_object(&capv)?;
        }
        cap::delete_cap(&mut self.objs, slot);
        Ok(Ok(()))
    }

    fn sys_revoke(&mut self, cptr: u32) -> Result<SyscallResult, Preempted> {
        let slot = match self.resolve_cur(cptr) {
            Ok(s) => s,
            Err(e) => return Ok(Err(e)),
        };
        // Delete descendants one at a time; grandchildren are reparented
        // to `slot` by delete, so the loop sees them next (incremental
        // consistency: every intermediate state is coherent).
        loop {
            let children = cap::children_of(&self.objs, slot);
            let Some(&child) = children.first() else {
                break;
            };
            let ca = child.addr(&self.objs);
            self.blk(Block::RevokeIter, &[ca, ca + 4, ca, ca + 4]);
            // Per-cap failures (e.g. an already-empty slot) do not stop a
            // revocation sweep; preemption does.
            let _completed: SyscallResult = self.delete_slot(child)?;
            self.preemption_point()?;
        }
        // §3.4: revoking a *badged* endpoint cap additionally aborts all
        // in-flight sends carrying that badge.
        if let CapType::Endpoint { obj, badge, .. } = self.cap_at(slot) {
            if badge != Badge::NONE {
                self.badged_abort(obj, badge)?;
            }
        }
        Ok(Ok(()))
    }

    /// The §3.4 badged abort with its four-field resume state stored in
    /// the endpoint.
    pub(crate) fn badged_abort(&mut self, epobj: ObjId, badge: Badge) -> Result<(), Preempted> {
        let cur = self.current();
        let e0 = self.obj_addr(epobj, 0);
        // A previously preempted abort that someone else completed for us?
        if self.objs.ep(epobj).completed_for == Some(cur) {
            self.objs.ep_mut(epobj).completed_for = None;
            self.blk(Block::AbortFinish, &[e0 + 16, e0 + 20]);
            return Ok(());
        }
        if self.objs.ep(epobj).abort.is_none() {
            let (head, tail) = {
                let e = self.objs.ep(epobj);
                (e.head, e.tail)
            };
            let Some(tail) = tail else {
                return Ok(()); // empty queue: nothing to abort
            };
            if self.objs.ep(epobj).state != EpState::Sending {
                return Ok(()); // receivers carry no badges
            }
            self.blk(
                Block::AbortSetup,
                &[e0, e0 + 4, e0 + 16, e0 + 20, e0 + 24, e0 + 28],
            );
            self.objs.ep_mut(epobj).abort = Some(crate::ep::AbortState {
                badge,
                cursor: head,
                end: tail,
                initiator: cur,
            });
        }
        loop {
            let st = self
                .objs
                .ep(epobj)
                .abort
                .expect("abort state present in loop");
            let Some(cursor) = st.cursor else {
                break;
            };
            // Each examined element is a §3.4 resume step (the four-field
            // AbortState in the endpoint is the resume state).
            self.machine.trace_phase("abort-step");
            let c0 = self.tcb_addr(cursor, OFF_STATE);
            self.blk(Block::AbortIter, &[c0, c0 + OFF_BADGE, c0 + OFF_EP_NEXT]);
            let next = self.objs.tcb(cursor).ep_next;
            let at_end = cursor == st.end;
            let matches = ep::queued_badge(&self.objs, cursor) == Some(st.badge);
            if matches {
                let p = self.tcb_addr(cursor, OFF_EP_PREV);
                let n = self.tcb_addr(cursor, OFF_EP_NEXT);
                self.blk(Block::AbortRemove, &[p, n, c0, c0 + 4]);
                ep::ep_unlink(&mut self.objs, epobj, cursor);
                self.objs.tcb_mut(cursor).state = ThreadState::Restart;
                self.make_runnable_enqueue(cursor);
            }
            {
                let e = self.objs.ep_mut(epobj);
                let a = e.abort.as_mut().expect("abort state");
                a.cursor = if at_end { None } else { next };
            }
            if at_end {
                break;
            }
            // §3.4: preemption point after each examined element.
            self.preemption_point()?;
        }
        self.blk(Block::AbortFinish, &[e0 + 16, e0 + 20]);
        let st = self.objs.ep_mut(epobj).abort.take().expect("abort state");
        if st.initiator != cur {
            // Indicate to the original thread that its operation is done.
            self.objs.ep_mut(epobj).completed_for = Some(st.initiator);
        }
        Ok(())
    }

    /// Tears down an object whose final capability is being deleted.
    fn destroy_object(&mut self, capv: &CapType) -> Result<(), Preempted> {
        match *capv {
            CapType::Endpoint { obj, .. } => self.destroy_endpoint(obj),
            CapType::Notification { obj, .. } => {
                // Drop any IRQ bindings and release the waiters, one
                // preemptible step each (as for endpoint deletion, §3.3).
                self.irq_table.unbind_ntfn(obj);
                while let Some(w) = ntfn::ntfn_pop(&mut self.objs, obj) {
                    let w0 = self.tcb_addr(w, OFF_STATE);
                    let n0 = self.obj_addr(obj, 0);
                    self.blk(Block::EpDelIter, &[n0, w0 + OFF_EP_NEXT, w0, w0 + 4, n0]);
                    self.objs.tcb_mut(w).state = ThreadState::Restart;
                    self.make_runnable_enqueue(w);
                    if !self.objs.ntfn(obj).is_idle() {
                        self.preemption_point()?;
                    }
                }
                self.objs.remove(obj);
                Ok(())
            }
            CapType::Tcb(obj) => {
                self.destroy_tcb(obj);
                Ok(())
            }
            CapType::CNode { obj, .. } => {
                // Destroying a CNode deletes every contained capability
                // first (recursively destroying objects whose final cap
                // lives inside), one slot per preemption segment — the
                // incremental-consistency pattern again: each deleted slot
                // leaves a coherent, strictly smaller system. A cap that
                // references an object already being torn down (including
                // the CNode itself) is simply removed, breaking cycles the
                // way seL4's zombie caps do.
                if self.destroying.contains(&obj) {
                    return Ok(());
                }
                self.destroying.push(obj);
                let res = self.destroy_cnode_contents(obj);
                self.destroying.retain(|&x| x != obj);
                res?;
                self.objs.remove(obj);
                Ok(())
            }
            CapType::Frame { obj, mapping, .. } => {
                if let Some(m) = mapping {
                    self.unmap_frame_at(obj, m);
                }
                self.objs.remove(obj);
                Ok(())
            }
            CapType::PageTable { obj, .. } => self.destroy_pt(obj),
            CapType::PageDirectory { obj, asid } => self.destroy_pd(obj, asid),
            CapType::AsidPool(obj) => {
                self.destroy_asid_pool(obj);
                Ok(())
            }
            CapType::Untyped(_) => Ok(()), // region returns to the parent
            _ => Ok(()),
        }
    }

    /// §3.3: preemptible endpoint deletion — deactivate, then dequeue one
    /// thread per step.
    fn destroy_endpoint(&mut self, epobj: ObjId) -> Result<(), Preempted> {
        let e0 = self.obj_addr(epobj, 0);
        if self.objs.ep(epobj).active {
            self.blk(Block::EpDelSetup, &[e0, e0 + 12]);
            self.objs.ep_mut(epobj).active = false;
        }
        while let Some(t) = self.objs.ep(epobj).head {
            // Each dequeue step is where a preempted deletion resumes from:
            // the endpoint's queue head *is* the §3.3 resume state.
            self.machine.trace_phase("ep-del-step");
            let t0 = self.tcb_addr(t, OFF_STATE);
            self.blk(Block::EpDelIter, &[e0, t0 + OFF_EP_NEXT, t0, t0 + 4, e0]);
            ep::ep_unlink(&mut self.objs, epobj, t);
            self.objs.tcb_mut(t).state = ThreadState::Restart;
            self.make_runnable_enqueue(t);
            if self.objs.ep(epobj).head.is_some() {
                // "There is an obvious preemption point in this operation:
                // after each thread is dequeued" (§3.3).
                self.preemption_point()?;
            }
        }
        self.blk(Block::EpDelFinish, &[e0]);
        self.objs.remove(epobj);
        Ok(())
    }

    /// Deletes every occupied slot of `obj`, preemptible per slot. Each
    /// step is charged a slot examination (the same cost shape as the
    /// badged-abort cursor walk) before the delete itself.
    fn destroy_cnode_contents(&mut self, obj: ObjId) -> Result<(), Preempted> {
        while let Some(i) = self.objs.cnode(obj).first_occupied() {
            let slot = SlotRef::new(obj, i);
            let sa = slot.addr(&self.objs);
            self.blk(Block::RevokeIter, &[sa, sa + 4, sa, sa + 4]);
            let _ = self.delete_slot(slot)?;
            if self.objs.cnode(obj).first_occupied().is_some() {
                self.preemption_point()?;
            }
        }
        Ok(())
    }

    fn destroy_tcb(&mut self, tcb: ObjId) {
        if self.objs.tcb(tcb).in_runqueue {
            self.dequeue_on(self.cur_core(), tcb);
        }
        // Unhook from any endpoint queue.
        let st = self.objs.tcb(tcb).state.clone();
        match st {
            ThreadState::BlockedOnSend { ep, .. } | ThreadState::BlockedOnRecv { ep } => {
                ep::ep_unlink(&mut self.objs, ep, tcb);
            }
            ThreadState::BlockedOnNotification { ntfn } => {
                ntfn::ntfn_unlink(&mut self.objs, ntfn, tcb);
            }
            _ => {}
        }
        if self.current() == tcb {
            self.force_choose_new();
        }
        self.objs.remove(tcb);
    }

    fn destroy_pt(&mut self, pt: ObjId) -> Result<(), Preempted> {
        if self.config.vm == VmKind::ShadowPt {
            // Preemptible per-entry teardown from the lowest mapped index.
            loop {
                let (i, shadow_slot) = {
                    let p = self.objs.pt(pt);
                    let start = p.lowest_mapped.min(vspace::PT_ENTRIES);
                    let Some(i) = (start..vspace::PT_ENTRIES)
                        .find(|&i| !matches!(p.entries[i as usize], PtEntry::Invalid))
                    else {
                        break;
                    };
                    (i, p.shadow[i as usize])
                };
                let pt_base = self.objs.get(pt).base;
                let ea = pt_base + 4 * i;
                let sa = pt_base + 1024 + 4 * i;
                let ca = shadow_slot.map(|s| s.addr(&self.objs)).unwrap_or(sa);
                self.blk(Block::VsDelIter, &[ea, sa, ea, ca]);
                {
                    let p = self.objs.pt_mut(pt);
                    p.entries[i as usize] = PtEntry::Invalid;
                    p.shadow[i as usize] = None;
                    p.lowest_mapped = i + 1;
                }
                // Eagerly purge the frame cap's mapping via the shadow
                // back-pointer (Fig. 5).
                if let Some(s) = shadow_slot {
                    self.clear_frame_cap_mapping(s);
                }
                self.preemption_point()?;
            }
        }
        // Unhook from the owning directory.
        if let Some((pd, idx)) = self.objs.pt(pt).mapped_in {
            if self.objs.is_live(pd) {
                self.objs.pd_mut(pd).entries[idx as usize] = PdEntry::Invalid;
                if self.config.vm == VmKind::ShadowPt {
                    self.objs.pd_mut(pd).shadow[idx as usize] = None;
                }
            }
        }
        let pt_base = self.objs.get(pt).base;
        self.blk(Block::VsDelFinish, &[pt_base]);
        self.tlb_flush();
        self.objs.remove(pt);
        Ok(())
    }

    fn destroy_pd(&mut self, pd: ObjId, asid: Option<u32>) -> Result<(), Preempted> {
        match self.config.vm {
            VmKind::Asid => {
                // Lazy deletion (§3.6): remove the ASID table entry and
                // flush the TLB; stale frame caps are harmless.
                if let Some(a) = asid {
                    if let Some(pool) = self.asid_table.pool_of(a) {
                        let pa = self.obj_addr(pool, (a % 1024) * 4);
                        self.blk(Block::AsidResolve, &[pa]);
                        self.objs.asid_pool_mut(pool).entries[(a % 1024) as usize] = None;
                    }
                }
                self.tlb_flush();
                self.objs.remove(pd);
                Ok(())
            }
            VmKind::ShadowPt => {
                // Eager, preemptible teardown of every user entry. The
                // per-entry order is restart-safe (incremental
                // consistency): nested page-table mappings are purged
                // *before* the directory entry is invalidated, so a
                // preempted teardown resumes exactly where it stopped and
                // no frame cap is ever left dangling (§3.6).
                loop {
                    let (i, entry, shadow_slot) = {
                        let p = self.objs.pd(pd);
                        let start = p.lowest_mapped.min(vspace::KERNEL_PDE_START);
                        let Some(i) = (start..vspace::KERNEL_PDE_START)
                            .find(|&i| !matches!(p.entries[i as usize], PdEntry::Invalid))
                        else {
                            break;
                        };
                        (i, p.entries[i as usize], p.shadow[i as usize])
                    };
                    // Purge what the entry reaches.
                    match entry {
                        PdEntry::Table { pt } if self.objs.is_live(pt) => {
                            self.purge_pt_entries(pt)?;
                            self.objs.pt_mut(pt).mapped_in = None;
                        }
                        PdEntry::Section { .. } => {
                            if let Some(s) = shadow_slot {
                                self.clear_frame_cap_mapping(s);
                            }
                        }
                        _ => {}
                    }
                    let pd_base = self.objs.get(pd).base;
                    let ea = pd_base + 4 * i;
                    let sa = pd_base + 16 * 1024 + 4 * i;
                    let ca = shadow_slot.map(|s| s.addr(&self.objs)).unwrap_or(sa);
                    self.blk(Block::VsDelIter, &[ea, sa, ea, ca]);
                    {
                        let p = self.objs.pd_mut(pd);
                        p.entries[i as usize] = PdEntry::Invalid;
                        p.shadow[i as usize] = None;
                        p.lowest_mapped = i + 1;
                    }
                    self.preemption_point()?;
                }
                let pd_base = self.objs.get(pd).base;
                self.blk(Block::VsDelFinish, &[pd_base]);
                self.tlb_flush();
                self.objs.remove(pd);
                Ok(())
            }
        }
    }

    /// §3.6 (legacy): deleting an ASID pool iterates over up to 1024
    /// address spaces — unpreemptible, the design's Achilles heel.
    fn destroy_asid_pool(&mut self, pool: ObjId) {
        let base = self.objs.get(pool).base;
        for i in 0..vspace::ASID_POOL_ENTRIES {
            let ea = base + 4 * i;
            self.blk(Block::AsidPoolDelIter, &[ea, ea, ea]);
            self.objs.asid_pool_mut(pool).entries[i as usize] = None;
        }
        self.tlb_flush();
        // Remove from the top-level table.
        for p in Arc::make_mut(&mut self.asid_table.pools).iter_mut() {
            if *p == Some(pool) {
                *p = None;
            }
        }
        self.objs.remove(pool);
    }

    /// Clears every mapped entry of `pt`, purging the frame caps through
    /// the shadow back-pointers, one preemptible step per entry (§3.6).
    fn purge_pt_entries(&mut self, pt: ObjId) -> Result<(), Preempted> {
        loop {
            let (i, shadow_slot) = {
                let p = self.objs.pt(pt);
                let start = p.lowest_mapped.min(vspace::PT_ENTRIES);
                let Some(i) = (start..vspace::PT_ENTRIES)
                    .find(|&i| !matches!(p.entries[i as usize], PtEntry::Invalid))
                else {
                    return Ok(());
                };
                (i, p.shadow[i as usize])
            };
            let pt_base = self.objs.get(pt).base;
            let ea = pt_base + 4 * i;
            let sa = pt_base + 1024 + 4 * i;
            let ca = shadow_slot.map(|s| s.addr(&self.objs)).unwrap_or(sa);
            self.blk(Block::VsDelIter, &[ea, sa, ea, ca]);
            {
                let p = self.objs.pt_mut(pt);
                p.entries[i as usize] = PtEntry::Invalid;
                p.shadow[i as usize] = None;
                p.lowest_mapped = i + 1;
            }
            if let Some(s) = shadow_slot {
                self.clear_frame_cap_mapping(s);
            }
            self.preemption_point()?;
        }
    }

    fn clear_frame_cap_mapping(&mut self, slot: SlotRef) {
        if !self.objs.is_live(slot.cnode) {
            return;
        }
        let s = self.objs.cnode_mut(slot.cnode).slot_mut(slot.index);
        if let CapType::Frame { mapping, .. } = &mut s.cap {
            *mapping = None;
        }
    }

    fn sys_mint(&mut self, src: u32, dest: u32, badge: Badge, rights: Rights) -> SyscallResult {
        let src_slot = self.resolve_cur(src)?;
        let dest_slot = self.resolve_cur(dest)?;
        let sa = src_slot.addr(&self.objs);
        let da = dest_slot.addr(&self.objs);
        self.blk(Block::CNodeCopy, &[sa, sa + 4, da, da + 4, da + 8]);
        if !cap::read_slot(&self.objs, dest_slot).cap.is_null() {
            return Err(SysError::DestOccupied);
        }
        let minted = match self.cap_at(src_slot) {
            CapType::Endpoint {
                obj,
                badge: b0,
                rights: r0,
            } => CapType::Endpoint {
                obj,
                badge: if badge == Badge::NONE { b0 } else { badge },
                rights: r0.masked(rights),
            },
            CapType::Notification {
                obj,
                badge: b0,
                rights: r0,
            } => CapType::Notification {
                obj,
                badge: if badge == Badge::NONE { b0 } else { badge },
                rights: r0.masked(rights),
            },
            CapType::Null => return Err(SysError::InvalidCap),
            other => other,
        };
        cap::insert_cap(&mut self.objs, dest_slot, minted, Some(src_slot));
        Ok(())
    }

    // --- VM operations (§3.6) -------------------------------------------

    fn sys_map_frame(&mut self, frame: u32, pd: u32, vaddr: Addr) -> SyscallResult {
        let f_slot = self.resolve_cur(frame)?;
        let pd_slot = self.resolve_cur(pd)?;
        let (f_obj, f_mapping) = match self.cap_at(f_slot) {
            CapType::Frame { obj, mapping, .. } => (obj, mapping),
            _ => return Err(SysError::InvalidCap),
        };
        let (pd_obj, pd_asid) = match self.cap_at(pd_slot) {
            CapType::PageDirectory { obj, asid } => (obj, asid),
            _ => return Err(SysError::InvalidCap),
        };
        if f_mapping.is_some() {
            return Err(SysError::AlreadyMapped);
        }
        let fa = f_slot.addr(&self.objs);
        let pd_base = self.objs.get(pd_obj).base;
        let pdi = vspace::pd_index(vaddr);
        if pdi >= vspace::KERNEL_PDE_START {
            return Err(SysError::AlreadyMapped); // kernel region
        }
        self.blk(Block::MapFrameCheck, &[fa, fa + 4, pd_base + 4 * pdi]);
        let space = match self.config.vm {
            VmKind::Asid => {
                let Some(asid) = pd_asid else {
                    return Err(SysError::NotMapped); // PD has no ASID yet
                };
                let pa = self
                    .asid_table
                    .pool_of(asid)
                    .map(|p| self.obj_addr(p, (asid % 1024) * 4))
                    .unwrap_or(pd_base);
                self.blk(Block::AsidResolve, &[pa]);
                if self.asid_table.resolve(&self.objs, asid) != Some(pd_obj) {
                    return Err(SysError::NotMapped);
                }
                SpaceRef::Asid(asid)
            }
            VmKind::ShadowPt => SpaceRef::Pd(pd_obj),
        };
        let f_size = self.objs.frame(f_obj).size_bits;
        let shadow = self.config.vm == VmKind::ShadowPt;
        match f_size {
            20 => {
                // 1 MiB section directly in the PD.
                if !matches!(self.objs.pd(pd_obj).entries[pdi as usize], PdEntry::Invalid) {
                    return Err(SysError::AlreadyMapped);
                }
                let ea = pd_base + 4 * pdi;
                let sa = pd_base + 16 * 1024 + 4 * pdi;
                self.blk(Block::MapFrameCommit, &[ea, sa, fa]);
                let p = self.objs.pd_mut(pd_obj);
                p.entries[pdi as usize] = PdEntry::Section { frame: f_obj };
                p.note_mapped(pdi);
                if shadow {
                    p.shadow[pdi as usize] = Some(f_slot);
                }
            }
            12 => {
                // 4 KiB page via a page table.
                let PdEntry::Table { pt } = self.objs.pd(pd_obj).entries[pdi as usize] else {
                    return Err(SysError::NotMapped); // no PT installed
                };
                let pti = vspace::pt_index(vaddr);
                if !matches!(self.objs.pt(pt).entries[pti as usize], PtEntry::Invalid) {
                    return Err(SysError::AlreadyMapped);
                }
                let pt_base = self.objs.get(pt).base;
                let ea = pt_base + 4 * pti;
                let sa = pt_base + 1024 + 4 * pti;
                self.blk(Block::MapFrameCommit, &[ea, sa, fa]);
                let p = self.objs.pt_mut(pt);
                p.entries[pti as usize] = PtEntry::Page { frame: f_obj };
                p.note_mapped(pti);
                if shadow {
                    p.shadow[pti as usize] = Some(f_slot);
                }
            }
            _ => return Err(SysError::InvalidCap), // other sizes: not yet modelled
        }
        // Record the mapping in the frame cap (§3.6: the cap stores the
        // address space and virtual address).
        let s = self.objs.cnode_mut(f_slot.cnode).slot_mut(f_slot.index);
        if let CapType::Frame { mapping, .. } = &mut s.cap {
            *mapping = Some(Mapping { space, vaddr });
        }
        Ok(())
    }

    fn sys_unmap_frame(&mut self, frame: u32) -> SyscallResult {
        let f_slot = self.resolve_cur(frame)?;
        let (f_obj, f_mapping) = match self.cap_at(f_slot) {
            CapType::Frame { obj, mapping, .. } => (obj, mapping),
            _ => return Err(SysError::InvalidCap),
        };
        let Some(m) = f_mapping else {
            return Err(SysError::NotMapped);
        };
        self.unmap_frame_at(f_obj, m);
        let s = self.objs.cnode_mut(f_slot.cnode).slot_mut(f_slot.index);
        if let CapType::Frame { mapping, .. } = &mut s.cap {
            *mapping = None;
        }
        Ok(())
    }

    /// Clears the page-table state behind a frame mapping. Under the
    /// legacy design a stale ASID simply fails the agreement check — the
    /// "harmless dangling reference" property of §3.6.
    fn unmap_frame_at(&mut self, f_obj: ObjId, m: Mapping) {
        let pd_obj = match m.space {
            SpaceRef::Asid(a) => {
                let pa = self
                    .asid_table
                    .pool_of(a)
                    .map(|p| self.obj_addr(p, (a % 1024) * 4))
                    .unwrap_or(crate::kprog::KERNEL_GLOBALS_BASE);
                self.blk(Block::AsidResolve, &[pa]);
                match self.asid_table.resolve(&self.objs, a) {
                    Some(pd) => pd,
                    None => return, // stale ASID: nothing to do
                }
            }
            SpaceRef::Pd(pd) => pd,
        };
        if !self.objs.is_live(pd_obj) {
            return;
        }
        let shadow = self.config.vm == VmKind::ShadowPt;
        let pdi = vspace::pd_index(m.vaddr);
        let pd_base = self.objs.get(pd_obj).base;
        match self.objs.pd(pd_obj).entries[pdi as usize] {
            PdEntry::Section { frame } if frame == f_obj => {
                let ea = pd_base + 4 * pdi;
                let sa = pd_base + 16 * 1024 + 4 * pdi;
                self.blk(Block::UnmapFrame, &[ea, ea + 4, ea, sa, ea]);
                let p = self.objs.pd_mut(pd_obj);
                p.entries[pdi as usize] = PdEntry::Invalid;
                if shadow {
                    p.shadow[pdi as usize] = None;
                }
            }
            PdEntry::Table { pt } => {
                let pti = vspace::pt_index(m.vaddr);
                let pt_base = self.objs.get(pt).base;
                if matches!(
                    self.objs.pt(pt).entries[pti as usize],
                    PtEntry::Page { frame } if frame == f_obj
                ) {
                    let ea = pt_base + 4 * pti;
                    let sa = pt_base + 1024 + 4 * pti;
                    self.blk(Block::UnmapFrame, &[ea, ea + 4, ea, sa, ea]);
                    let p = self.objs.pt_mut(pt);
                    p.entries[pti as usize] = PtEntry::Invalid;
                    if shadow {
                        p.shadow[pti as usize] = None;
                    }
                }
            }
            _ => {} // mapping disagrees: stale, harmless
        }
        self.tlb_flush();
    }

    fn sys_map_pt(&mut self, pt: u32, pd: u32, vaddr: Addr) -> SyscallResult {
        let pt_slot = self.resolve_cur(pt)?;
        let pd_slot = self.resolve_cur(pd)?;
        let pt_obj = match self.cap_at(pt_slot) {
            CapType::PageTable { obj, mapped } => {
                if mapped.is_some() {
                    return Err(SysError::AlreadyMapped);
                }
                obj
            }
            _ => return Err(SysError::InvalidCap),
        };
        let pd_obj = match self.cap_at(pd_slot) {
            CapType::PageDirectory { obj, .. } => obj,
            _ => return Err(SysError::InvalidCap),
        };
        let pdi = vspace::pd_index(vaddr);
        if pdi >= vspace::KERNEL_PDE_START {
            return Err(SysError::AlreadyMapped);
        }
        if !matches!(self.objs.pd(pd_obj).entries[pdi as usize], PdEntry::Invalid) {
            return Err(SysError::AlreadyMapped);
        }
        let pd_base = self.objs.get(pd_obj).base;
        let ea = pd_base + 4 * pdi;
        let sa = pd_base + 16 * 1024 + 4 * pdi;
        let pta = pt_slot.addr(&self.objs);
        self.blk(Block::MapFrameCheck, &[pta, pta + 4, ea]);
        self.blk(Block::MapFrameCommit, &[ea, sa, pta]);
        {
            let p = self.objs.pd_mut(pd_obj);
            p.entries[pdi as usize] = PdEntry::Table { pt: pt_obj };
            p.note_mapped(pdi);
            if self.config.vm == VmKind::ShadowPt {
                p.shadow[pdi as usize] = Some(pt_slot);
            }
        }
        self.objs.pt_mut(pt_obj).mapped_in = Some((pd_obj, pdi));
        let s = self.objs.cnode_mut(pt_slot.cnode).slot_mut(pt_slot.index);
        if let CapType::PageTable { mapped, .. } = &mut s.cap {
            *mapped = Some(Mapping {
                space: SpaceRef::Pd(pd_obj),
                vaddr,
            });
        }
        Ok(())
    }

    /// §3.6 (legacy): assigning an ASID scans the pool for a free slot —
    /// up to 1024 unpreemptible iterations.
    fn sys_assign_asid(&mut self, pool: u32, pd: u32) -> SyscallResult {
        if self.config.vm != VmKind::Asid {
            return Err(SysError::WrongVmDesign);
        }
        let pool_slot = self.resolve_cur(pool)?;
        let pd_slot = self.resolve_cur(pd)?;
        let pool_obj = match self.cap_at(pool_slot) {
            CapType::AsidPool(o) => o,
            _ => return Err(SysError::InvalidCap),
        };
        let pd_obj = match self.cap_at(pd_slot) {
            CapType::PageDirectory { obj, asid } => {
                if asid.is_some() {
                    return Err(SysError::AlreadyMapped);
                }
                obj
            }
            _ => return Err(SysError::InvalidCap),
        };
        // The unpreemptible scan.
        let base = self.objs.get(pool_obj).base;
        let mut found = None;
        for i in 0..vspace::ASID_POOL_ENTRIES {
            self.blk(Block::AsidAllocIter, &[base + 4 * i]);
            if self.objs.asid_pool(pool_obj).entries[i as usize].is_none() {
                found = Some(i);
                break;
            }
        }
        let Some(slot_idx) = found else {
            return Err(SysError::OutOfMemory);
        };
        // Pool position in the top-level table determines the ASID base.
        let top = self
            .asid_table
            .pools
            .iter()
            .position(|p| *p == Some(pool_obj))
            .ok_or(SysError::InvalidCap)? as u32;
        let asid = top * vspace::ASID_POOL_ENTRIES + slot_idx;
        self.objs.asid_pool_mut(pool_obj).entries[slot_idx as usize] = Some(pd_obj);
        let s = self.objs.cnode_mut(pd_slot.cnode).slot_mut(pd_slot.index);
        if let CapType::PageDirectory { asid: a, .. } = &mut s.cap {
            *a = Some(asid);
        }
        Ok(())
    }

    fn tlb_flush(&mut self) {
        self.blk0(Block::TlbFlush);
        // SMP: remote cores may cache translations from this address
        // space — broadcast a shootdown IPI (no-op below 2 cores).
        self.tlb_shootdown_broadcast();
    }

    // --- IRQ / TCB management ------------------------------------------------

    fn sys_irq_set_ntfn(&mut self, handler: u32, ntfn: u32) -> SyscallResult {
        let h_slot = self.resolve_cur(handler)?;
        let n_slot = self.resolve_cur(ntfn)?;
        let line = match self.cap_at(h_slot) {
            CapType::IrqHandler(l) => l,
            _ => return Err(SysError::InvalidCap),
        };
        let (n_obj, badge) = match self.cap_at(n_slot) {
            CapType::Notification { obj, badge, .. } => (obj, badge),
            _ => return Err(SysError::InvalidCap),
        };
        self.irq_table.bind(line, n_obj, badge);
        self.unmask_routed(rt_hw::IrqLine(line));
        Ok(())
    }

    fn sys_tcb_set_priority(&mut self, tcb: u32, prio: u8) -> SyscallResult {
        let slot = self.resolve_cur(tcb)?;
        let t = match self.cap_at(slot) {
            CapType::Tcb(t) => t,
            _ => return Err(SysError::InvalidCap),
        };
        let ta = self.tcb_addr(t, OFF_STATE);
        self.blk(Block::TcbInvoke, &[ta, ta + 4, ta, ta + 4, ta + 8, ta + 12]);
        // A queued thread moves between priority queues; the bitmap must
        // keep reflecting the queues (§3.2).
        let was_queued = self.objs.tcb(t).in_runqueue;
        if was_queued {
            self.dequeue_on(self.cur_core(), t);
            if self.config.sched == SchedKind::BennoBitmap {
                self.blk0(Block::BitmapClear);
            }
        }
        self.objs.tcb_mut(t).prio = prio;
        if was_queued {
            self.enqueue_on(self.cur_core(), t);
            if self.config.sched == SchedKind::BennoBitmap {
                self.blk0(Block::BitmapSet);
            }
        }
        // Priority changes can invalidate the current choice either way:
        // raising someone above the current thread, or lowering the
        // current thread below a queued one.
        let cur = self.current();
        let affects_cur = t == cur || prio > self.objs.tcb(cur).prio;
        if affects_cur {
            self.force_choose_new();
        }
        Ok(())
    }

    fn sys_tcb_configure(
        &mut self,
        tcb: u32,
        cspace_root: u32,
        fault_handler: u32,
    ) -> SyscallResult {
        let slot = self.resolve_cur(tcb)?;
        let t = match self.cap_at(slot) {
            CapType::Tcb(t) => t,
            _ => return Err(SysError::InvalidCap),
        };
        let root_slot = self.resolve_cur(cspace_root)?;
        let root_cap = self.cap_at(root_slot);
        if !matches!(root_cap, CapType::CNode { .. }) {
            return Err(SysError::InvalidCap);
        }
        let ta = self.tcb_addr(t, OFF_STATE);
        self.blk(Block::TcbInvoke, &[ta, ta + 4, ta, ta + 4, ta + 8, ta + 12]);
        let tt = self.objs.tcb_mut(t);
        tt.cspace_root = root_cap;
        tt.fault_handler = fault_handler;
        Ok(())
    }

    fn sys_irq_ack(&mut self, handler: u32) -> SyscallResult {
        let slot = self.resolve_cur(handler)?;
        let line = match self.cap_at(slot) {
            CapType::IrqHandler(l) => l,
            _ => return Err(SysError::InvalidCap),
        };
        self.unmask_routed(rt_hw::IrqLine(line));
        Ok(())
    }

    fn sys_tcb_resume(&mut self, tcb: u32) -> SyscallResult {
        let slot = self.resolve_cur(tcb)?;
        let t = match self.cap_at(slot) {
            CapType::Tcb(t) => t,
            _ => return Err(SysError::InvalidCap),
        };
        let ta = self.tcb_addr(t, OFF_STATE);
        self.blk(Block::TcbInvoke, &[ta, ta + 4, ta, ta + 4, ta + 8, ta + 12]);
        if !self.objs.tcb(t).state.is_runnable() {
            self.objs.tcb_mut(t).state = ThreadState::Restart;
            self.make_runnable_enqueue(t);
        }
        Ok(())
    }

    fn sys_tcb_suspend(&mut self, tcb: u32) -> SyscallResult {
        let slot = self.resolve_cur(tcb)?;
        let t = match self.cap_at(slot) {
            CapType::Tcb(t) => t,
            _ => return Err(SysError::InvalidCap),
        };
        let ta = self.tcb_addr(t, OFF_STATE);
        self.blk(Block::TcbInvoke, &[ta, ta + 4, ta, ta + 4, ta + 8, ta + 12]);
        if self.objs.tcb(t).in_runqueue {
            self.dequeue_on(self.cur_core(), t);
        }
        self.objs.tcb_mut(t).state = ThreadState::Inactive;
        if self.current() == t {
            self.force_choose_new();
        }
        Ok(())
    }
}

// A small extension trait hook for kernel internals used above.
impl Kernel {
    pub(crate) fn force_choose_new(&mut self) {
        self.set_sched_action(SchedAction::ChooseNew);
    }
}
