//! The IPC fastpath (§6.1).
//!
//! "seL4 already provides fastpaths to improve the performance of common
//! IPC operations by an order of magnitude — fastpaths are highly-optimised
//! code paths designed to execute a specific operation as quickly as
//! possible. The fastpath performance is not affected by our preemption
//! points. In fact, the IPC fastpath is one of the fastest operations the
//! kernel performs (around 200-250 cycles on the ARM1136) and hence there
//! would be no benefit to making it preemptible."
//!
//! Eligibility mirrors seL4's: a `Call` with a short message (≤ 4 words),
//! no capability transfer, a single-level capability decode, a receiver
//! already waiting, and no priority inversion; symmetrically for
//! `ReplyRecv`. Anything else falls back to the slowpath.

use crate::cap::CapType;
use crate::ep::{self, EpState};
use crate::kernel::Kernel;
use crate::kprog::Block;
use crate::obj::ObjId;
use crate::syscall::{Syscall, SyscallResult};
use crate::tcb::{MsgInfo, Tcb, ThreadState, OFF_CONTEXT, OFF_MSG, OFF_STATE};
use crate::CSPACE_DEPTH_BITS;

/// Longest message the fastpath will transfer (register-only, as on ARM).
pub const FASTPATH_MSG_WORDS: u32 = 4;

impl Kernel {
    /// Attempts the fastpath; `None` means "take the slowpath".
    pub(crate) fn try_fastpath(&mut self, sys: &Syscall) -> Option<SyscallResult> {
        match sys {
            Syscall::Call { cptr, len, caps } if caps.is_empty() && *len <= FASTPATH_MSG_WORDS => {
                self.fastpath_call(*cptr, *len)
            }
            Syscall::ReplyRecv { cptr, len, caps }
                if caps.is_empty() && *len <= FASTPATH_MSG_WORDS =>
            {
                self.fastpath_reply_recv(*cptr, *len)
            }
            _ => None,
        }
    }

    /// Checks (without charging) that `cptr` decodes in a single level and
    /// names an endpoint. The real fastpath bakes this into its guard
    /// sequence; a deep cspace bails to the slowpath.
    fn peek_single_level_ep(
        &self,
        cptr: u32,
    ) -> Option<(ObjId, crate::cap::Badge, crate::cap::Rights)> {
        let root = self.objs.tcb(self.current()).cspace_root.clone();
        let mut levels = 0;
        let slot = crate::cnode::resolve_slot(&self.objs, &root, cptr, CSPACE_DEPTH_BITS, |_| {
            levels += 1;
        })
        .ok()?;
        if levels != 1 {
            return None;
        }
        match crate::cap::read_slot(&self.objs, slot).cap {
            CapType::Endpoint { obj, badge, rights } => Some((obj, badge, rights)),
            _ => None,
        }
    }

    fn fastpath_call(&mut self, cptr: u32, len: u32) -> Option<SyscallResult> {
        let cur = self.current();
        let (epobj, badge, rights) = self.peek_single_level_ep(cptr)?;
        if !rights.write {
            return None;
        }
        // A receiver must already be waiting, at a priority that lets it
        // run immediately (the direct-switch condition).
        let e = self.objs.ep(epobj);
        if !e.active || e.state != EpState::Receiving {
            return None;
        }
        let recv = e.head.expect("Receiving implies a waiter");
        if self.objs.tcb(recv).prio < self.objs.tcb(cur).prio {
            return None;
        }
        // Eligible: charge the three fastpath blocks and do the transfer.
        let e0 = self.obj_addr(epobj, 0);
        let c0 = self.tcb_addr(cur, OFF_STATE);
        let r0 = self.tcb_addr(recv, OFF_STATE);
        self.blk(Block::FastpathCheck, &[e0, e0 + 4, c0, c0 + 4, r0, r0 + 4]);
        let xfer: Vec<_> = (0..FASTPATH_MSG_WORDS)
            .map(|i| Tcb::msg_addr(&self.objs, cur, i))
            .chain((0..FASTPATH_MSG_WORDS).map(|i| Tcb::msg_addr(&self.objs, recv, i)))
            .collect();
        self.blk(Block::FastpathXfer, &xfer);
        ep::ep_unlink(&mut self.objs, epobj, recv);
        // Copy the register message.
        for i in 0..len as usize {
            let w = self.objs.tcb(cur).msg.get(i).copied().unwrap_or(0);
            let m = &mut self.objs.tcb_mut(recv).msg;
            if m.len() <= i {
                m.resize(i + 1, 0);
            }
            m[i] = w;
        }
        {
            let info = MsgInfo {
                length: len,
                extra_caps: 0,
                label: 0,
            };
            let t = self.objs.tcb_mut(recv);
            t.msg_info = info;
            t.recv_badge = badge;
            t.state = ThreadState::Running;
            t.caller = Some(cur);
        }
        self.objs.tcb_mut(cur).state = ThreadState::BlockedOnReply;
        let commit: Vec<_> = (0..4)
            .map(|i| self.tcb_addr(cur, OFF_CONTEXT + 4 * i))
            .chain((0..4).map(|i| self.tcb_addr(recv, OFF_CONTEXT + 4 * i)))
            .collect();
        self.blk(Block::FastpathCommit, &commit);
        // Direct switch without touching the run queue (§3.1 / §6.1).
        self.install_current_fast(recv);
        Some(Ok(()))
    }

    fn fastpath_reply_recv(&mut self, cptr: u32, len: u32) -> Option<SyscallResult> {
        let cur = self.current();
        let caller = self.objs.tcb(cur).caller?;
        if self.objs.tcb(caller).state != ThreadState::BlockedOnReply {
            return None;
        }
        let (epobj, _badge, rights) = self.peek_single_level_ep(cptr)?;
        if !rights.read {
            return None;
        }
        // The endpoint must have no queued senders (otherwise the receive
        // phase has real work to do) and the caller must be able to run.
        let e = self.objs.ep(epobj);
        if !e.active || e.state == EpState::Sending {
            return None;
        }
        // The replying server blocks, so the caller runs next iff nothing
        // runnable outranks it (seL4's fastpath checks the ready-queue
        // bitmap the same way).
        let queues = &self.local().queues;
        let highest_queued = queues.bitmap.highest().unwrap_or(0);
        if !queues.is_empty() && self.objs.tcb(caller).prio < highest_queued {
            return None;
        }
        let e0 = self.obj_addr(epobj, 0);
        let c0 = self.tcb_addr(cur, OFF_STATE);
        let r0 = self.tcb_addr(caller, OFF_STATE);
        self.blk(Block::FastpathCheck, &[e0, e0 + 4, c0, c0 + 4, r0, r0 + 4]);
        let xfer: Vec<_> = (0..FASTPATH_MSG_WORDS)
            .map(|i| Tcb::msg_addr(&self.objs, cur, i))
            .chain((0..FASTPATH_MSG_WORDS).map(|i| Tcb::msg_addr(&self.objs, caller, i)))
            .collect();
        self.blk(Block::FastpathXfer, &xfer);
        for i in 0..len as usize {
            let w = self.objs.tcb(cur).msg.get(i).copied().unwrap_or(0);
            let m = &mut self.objs.tcb_mut(caller).msg;
            if m.len() <= i {
                m.resize(i + 1, 0);
            }
            m[i] = w;
        }
        {
            let t = self.objs.tcb_mut(caller);
            t.msg_info = MsgInfo {
                length: len,
                extra_caps: 0,
                label: 0,
            };
            t.state = ThreadState::Running;
        }
        self.objs.tcb_mut(cur).caller = None;
        // Server blocks on the endpoint waiting for the next request.
        ep::ep_append(&mut self.objs, epobj, cur, EpState::Receiving);
        self.objs.tcb_mut(cur).state = ThreadState::BlockedOnRecv { ep: epobj };
        let base = self.obj_addr(epobj, 0);
        let commit: Vec<_> = (0..4)
            .map(|i| self.tcb_addr(cur, OFF_MSG + 4 * i))
            .chain((0..3).map(|i| self.tcb_addr(caller, OFF_CONTEXT + 4 * i)))
            .chain(std::iter::once(base + 8))
            .collect();
        self.blk(Block::FastpathCommit, &commit);
        self.install_current_fast(caller);
        Some(Ok(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{
        boot_two_threads_one_ep, ep_object, park_server_receiving, warm_fastpath_call_cycles,
    };

    #[test]
    fn fastpath_requires_waiting_receiver() {
        let (mut k, _client, _server, ep_cptr) = boot_two_threads_one_ep();
        let sys = Syscall::Call {
            cptr: ep_cptr,
            len: 2,
            caps: vec![],
        };
        assert!(k.try_fastpath(&sys).is_none());
    }

    #[test]
    fn long_message_disqualifies_fastpath() {
        let (mut k, _c, _s, ep_cptr) = boot_two_threads_one_ep();
        let sys = Syscall::Call {
            cptr: ep_cptr,
            len: 50,
            caps: vec![],
        };
        assert!(k.try_fastpath(&sys).is_none());
    }

    #[test]
    fn cap_transfer_disqualifies_fastpath() {
        let (mut k, _c, _s, ep_cptr) = boot_two_threads_one_ep();
        let sys = Syscall::Call {
            cptr: ep_cptr,
            len: 1,
            caps: vec![1],
        };
        assert!(k.try_fastpath(&sys).is_none());
    }

    #[test]
    fn fastpath_call_switches_and_transfers() {
        let (mut k, client, server, ep_cptr) = boot_two_threads_one_ep();
        let epobj = ep_object(&k, client, ep_cptr);
        park_server_receiving(&mut k, server, epobj);
        k.objs.tcb_mut(client).msg = vec![7, 9];
        let sys = Syscall::Call {
            cptr: ep_cptr,
            len: 2,
            caps: vec![],
        };
        assert_eq!(k.try_fastpath(&sys), Some(Ok(())));
        assert_eq!(k.current(), server, "direct switch to the receiver");
        assert_eq!(k.objs.tcb(server).msg[..2], [7, 9]);
        assert_eq!(k.objs.tcb(server).caller, Some(client));
        assert_eq!(k.objs.tcb(client).state, ThreadState::BlockedOnReply);
        assert!(
            !k.objs.tcb(server).in_runqueue,
            "§3.1: the woken thread is never enqueued on the fastpath"
        );
    }

    #[test]
    fn fastpath_call_is_a_few_hundred_cycles_warm() {
        let warm = warm_fastpath_call_cycles();
        // §6.1: "around 200-250 cycles on the ARM1136"; allow a generous
        // band for model differences.
        assert!(
            (100..600).contains(&warm),
            "warm fastpath took {warm} cycles"
        );
    }

    #[test]
    fn fastpath_reply_recv_round_trip() {
        let (mut k, client, server, ep_cptr) = boot_two_threads_one_ep();
        let epobj = ep_object(&k, client, ep_cptr);
        park_server_receiving(&mut k, server, epobj);
        // Client calls; server gets it via fastpath.
        let call = Syscall::Call {
            cptr: ep_cptr,
            len: 1,
            caps: vec![],
        };
        assert_eq!(k.try_fastpath(&call), Some(Ok(())));
        assert_eq!(k.current(), server);
        // Server replies-and-receives via fastpath.
        k.objs.tcb_mut(server).msg = vec![42];
        let rr = Syscall::ReplyRecv {
            cptr: ep_cptr,
            len: 1,
            caps: vec![],
        };
        assert_eq!(k.try_fastpath(&rr), Some(Ok(())));
        assert_eq!(k.current(), client, "caller resumes");
        assert_eq!(k.objs.tcb(client).msg[0], 42);
        assert_eq!(
            k.objs.tcb(server).state,
            ThreadState::BlockedOnRecv { ep: epobj },
            "server parked for the next request"
        );
    }

    #[test]
    fn lower_priority_receiver_disqualifies() {
        let (mut k, client, server, ep_cptr) = boot_two_threads_one_ep();
        let epobj = ep_object(&k, client, ep_cptr);
        k.objs.tcb_mut(server).prio = 1; // below the client's 10
        park_server_receiving(&mut k, server, epobj);
        let sys = Syscall::Call {
            cptr: ep_cptr,
            len: 1,
            caps: vec![],
        };
        assert!(k.try_fastpath(&sys).is_none());
    }
}
