//! Run queues and the three scheduler designs of §3.1–3.2.
//!
//! * [`SchedKind::Lazy`] — the original lazy scheduler (Fig. 2): blocked
//!   threads are left in the run queue; `choose_thread` dequeues them as it
//!   scans, which is unbounded work (§3.1: "pathological cases where the
//!   scheduler must dequeue a large number of blocked threads").
//! * [`SchedKind::Benno`] — Benno scheduling (Fig. 3): the queue holds only
//!   runnable threads; a thread unblocked by IPC that can run immediately
//!   is switched to directly and never enqueued; the displaced thread is
//!   enqueued at preemption time. `choose_thread` is a scan over 256
//!   priorities.
//! * [`SchedKind::BennoBitmap`] — Benno plus the two-level priority bitmap
//!   (§3.2): 256 priorities in 8 buckets of 32; two loads and two CLZ
//!   instructions find the highest runnable priority, removing the scan
//!   loop "altogether".
//!
//! Run queues are intrusive doubly-linked lists through the TCBs
//! ([`crate::tcb::Tcb::sched_next`]/`sched_prev`), so every operation here
//! is O(1) except the scans the paper is about.

use crate::obj::{ObjId, ObjStore};
use crate::NUM_PRIOS;

pub use crate::kernel::SchedKind;

/// The two-level priority bitmap of §3.2: 8 top-level bits, each covering a
/// bucket of 32 priorities.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrioBitmap {
    /// Top level: bit `b` set iff bucket `b` has any runnable priority.
    pub top: u8,
    /// One 32-bit word per bucket; bit `p` of word `b` covers priority
    /// `b * 32 + p`.
    pub buckets: [u32; 8],
}

impl PrioBitmap {
    /// Marks `prio` as having at least one queued thread.
    pub fn set(&mut self, prio: u8) {
        let b = (prio / 32) as usize;
        self.buckets[b] |= 1 << (prio % 32);
        self.top |= 1 << b;
    }

    /// Clears `prio` (call when its queue becomes empty).
    pub fn clear(&mut self, prio: u8) {
        let b = (prio / 32) as usize;
        self.buckets[b] &= !(1 << (prio % 32));
        if self.buckets[b] == 0 {
            self.top &= !(1 << b);
        }
    }

    /// Highest priority with a set bit, using two CLZ steps (§3.2: "using
    /// two loads and two CLZ instructions, we can find the highest runnable
    /// priority very efficiently").
    pub fn highest(&self) -> Option<u8> {
        if self.top == 0 {
            return None;
        }
        let bucket = 7 - self.top.leading_zeros() as u8; // 8-bit CLZ
        let word = self.buckets[bucket as usize];
        debug_assert!(word != 0, "top bit set but bucket empty");
        let bit = 31 - word.leading_zeros() as u8;
        Some(bucket * 32 + bit)
    }

    /// Returns `true` if `prio`'s bit is set.
    pub fn is_set(&self, prio: u8) -> bool {
        self.buckets[(prio / 32) as usize] & (1 << (prio % 32)) != 0
    }
}

/// 256 FIFO run queues plus the bitmap.
#[derive(Clone, Debug)]
pub struct RunQueues {
    heads: [Option<ObjId>; NUM_PRIOS as usize],
    tails: [Option<ObjId>; NUM_PRIOS as usize],
    /// One bit per non-empty queue; see [`RunQueues::heads_mask`].
    nonempty: [u32; 8],
    /// Priority bitmap (§3.2); maintained on every queue mutation.
    pub bitmap: PrioBitmap,
    len: u32,
}

impl Default for RunQueues {
    fn default() -> RunQueues {
        RunQueues::new()
    }
}

impl RunQueues {
    /// Creates empty queues.
    pub fn new() -> RunQueues {
        RunQueues {
            heads: [None; NUM_PRIOS as usize],
            tails: [None; NUM_PRIOS as usize],
            nonempty: [0; 8],
            bitmap: PrioBitmap::default(),
            len: 0,
        }
    }

    /// Total queued threads.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Returns `true` if no thread is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Head of the queue for `prio`.
    pub fn head(&self, prio: u8) -> Option<ObjId> {
        self.heads[prio as usize]
    }

    /// One bit per non-empty queue, bucketed like [`PrioBitmap::buckets`]:
    /// the host-side twin of the §3.2 bitmap, which the invariant checker
    /// compares with the modelled [`RunQueues::bitmap`]. `enqueue` sets a
    /// priority's bit when its queue goes from empty to non-empty and
    /// `dequeue` clears it when the queue empties. They are the only
    /// writers of the heads, so the mask holds by construction and no
    /// caller rescans the 256 heads.
    pub fn heads_mask(&self) -> [u32; 8] {
        self.nonempty
    }

    /// `(prio, head)` of every non-empty queue, in ascending priority.
    pub fn nonempty(&self) -> impl Iterator<Item = (u8, ObjId)> + '_ {
        crate::set_bits(self.nonempty).filter_map(|p| Some((p as u8, self.heads[p as usize]?)))
    }

    /// Appends `tcb` to the tail of its priority's queue.
    ///
    /// # Panics
    ///
    /// Panics if the thread is already queued (the §3.1 Benno invariant
    /// machinery never double-enqueues; doing so is a kernel bug).
    pub fn enqueue(&mut self, store: &mut ObjStore, tcb: ObjId) {
        let prio = {
            let t = store.tcb(tcb);
            assert!(!t.in_runqueue, "double enqueue of {:?}", t.name);
            t.prio
        };
        let p = prio as usize;
        let old_tail = self.tails[p];
        {
            let t = store.tcb_mut(tcb);
            t.sched_prev = old_tail;
            t.sched_next = None;
            t.in_runqueue = true;
        }
        match old_tail {
            Some(prev) => store.tcb_mut(prev).sched_next = Some(tcb),
            None => {
                self.heads[p] = Some(tcb);
                self.nonempty[p / 32] |= 1 << (p % 32);
            }
        }
        self.tails[p] = Some(tcb);
        self.bitmap.set(prio);
        self.len += 1;
    }

    /// Unlinks `tcb` from its queue.
    ///
    /// # Panics
    ///
    /// Panics if the thread is not queued.
    pub fn dequeue(&mut self, store: &mut ObjStore, tcb: ObjId) {
        let (prio, prev, next) = {
            let t = store.tcb(tcb);
            assert!(t.in_runqueue, "dequeue of unqueued {:?}", t.name);
            (t.prio, t.sched_prev, t.sched_next)
        };
        let p = prio as usize;
        match prev {
            Some(pr) => store.tcb_mut(pr).sched_next = next,
            None => self.heads[p] = next,
        }
        match next {
            Some(nx) => store.tcb_mut(nx).sched_prev = prev,
            None => self.tails[p] = prev,
        }
        {
            let t = store.tcb_mut(tcb);
            t.sched_prev = None;
            t.sched_next = None;
            t.in_runqueue = false;
        }
        if self.heads[p].is_none() {
            self.nonempty[p / 32] &= !(1 << (p % 32));
            self.bitmap.clear(prio);
        }
        self.len -= 1;
    }

    /// Fig. 2 — lazy scheduling's `chooseThread`: scan priorities from
    /// highest; dequeue non-runnable threads encountered on the way; return
    /// the first runnable thread (leaving it queued, as in the paper's
    /// pseudo-code). Also returns the number of blocked threads dequeued
    /// (the unbounded work this design suffers from) and the number of
    /// priority levels scanned.
    pub fn choose_lazy(&mut self, store: &mut ObjStore) -> LazyChoice {
        let mut dequeued = 0;
        let mut scanned = 0;
        for prio in (0..NUM_PRIOS as usize).rev() {
            scanned += 1;
            while let Some(head) = self.heads[prio] {
                if store.tcb(head).state.is_runnable() {
                    return LazyChoice {
                        thread: Some(head),
                        dequeued_blocked: dequeued,
                        prios_scanned: scanned,
                    };
                }
                self.dequeue(store, head);
                dequeued += 1;
            }
        }
        LazyChoice {
            thread: None,
            dequeued_blocked: dequeued,
            prios_scanned: scanned,
        }
    }

    /// Fig. 3 — Benno scheduling's `chooseThread`: the queue contains only
    /// runnable threads, so simply return the head of the highest non-empty
    /// priority. Returns the thread and the number of priorities scanned
    /// (the loop the bitmap of §3.2 later removes).
    pub fn choose_benno(&self) -> (Option<ObjId>, u32) {
        let mut scanned = 0;
        for prio in (0..NUM_PRIOS as usize).rev() {
            scanned += 1;
            if let Some(h) = self.heads[prio] {
                return (Some(h), scanned);
            }
        }
        (None, scanned)
    }

    /// §3.2 — bitmap `chooseThread`: two loads and two CLZ instructions; no
    /// loop at all.
    pub fn choose_bitmap(&self) -> Option<ObjId> {
        let prio = self.bitmap.highest()?;
        let head = self.heads[prio as usize];
        debug_assert!(head.is_some(), "bitmap bit set for empty queue");
        head
    }

    /// All queued threads at `prio`, head first (tests / invariants).
    pub fn iter_prio<'a>(
        &'a self,
        store: &'a ObjStore,
        prio: u8,
    ) -> impl Iterator<Item = ObjId> + 'a {
        let mut cur = self.heads[prio as usize];
        std::iter::from_fn(move || {
            let id = cur?;
            cur = store.tcb(id).sched_next;
            Some(id)
        })
    }
}

/// Result of a lazy-scheduler scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LazyChoice {
    /// Chosen thread (`None` → idle).
    pub thread: Option<ObjId>,
    /// Blocked threads dequeued during the scan — the §3.1 pathological
    /// cost.
    pub dequeued_blocked: u32,
    /// Priority levels scanned.
    pub prios_scanned: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obj::ObjKind;
    use crate::tcb::{Tcb, ThreadState, TCB_SIZE_BITS};

    fn mk_thread(s: &mut ObjStore, i: u32, prio: u8, state: ThreadState) -> ObjId {
        let id = s.insert(
            0x8000_0000 + i * 512,
            TCB_SIZE_BITS,
            ObjKind::Tcb(Tcb::new(&format!("t{i}"), prio)),
        );
        s.tcb_mut(id).state = state;
        id
    }

    #[test]
    fn bitmap_set_clear_highest() {
        let mut b = PrioBitmap::default();
        assert_eq!(b.highest(), None);
        b.set(3);
        b.set(200);
        b.set(67);
        assert_eq!(b.highest(), Some(200));
        b.clear(200);
        assert_eq!(b.highest(), Some(67));
        b.clear(67);
        assert_eq!(b.highest(), Some(3));
        b.clear(3);
        assert_eq!(b.highest(), None);
    }

    #[test]
    fn bitmap_boundaries() {
        let mut b = PrioBitmap::default();
        for p in [0u8, 31, 32, 63, 224, 255] {
            b.set(p);
            assert!(b.is_set(p));
        }
        assert_eq!(b.highest(), Some(255));
        b.clear(255);
        assert_eq!(b.highest(), Some(224));
    }

    #[test]
    fn fifo_order_within_priority() {
        let mut s = ObjStore::new();
        let mut q = RunQueues::new();
        let a = mk_thread(&mut s, 0, 5, ThreadState::Running);
        let b = mk_thread(&mut s, 1, 5, ThreadState::Running);
        let c = mk_thread(&mut s, 2, 5, ThreadState::Running);
        q.enqueue(&mut s, a);
        q.enqueue(&mut s, b);
        q.enqueue(&mut s, c);
        let order: Vec<ObjId> = q.iter_prio(&s, 5).collect();
        assert_eq!(order, vec![a, b, c]);
        q.dequeue(&mut s, b); // middle removal
        let order: Vec<ObjId> = q.iter_prio(&s, 5).collect();
        assert_eq!(order, vec![a, c]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn benno_choose_picks_highest() {
        let mut s = ObjStore::new();
        let mut q = RunQueues::new();
        let lo = mk_thread(&mut s, 0, 10, ThreadState::Running);
        let hi = mk_thread(&mut s, 1, 200, ThreadState::Running);
        q.enqueue(&mut s, lo);
        q.enqueue(&mut s, hi);
        let (got, scanned) = q.choose_benno();
        assert_eq!(got, Some(hi));
        assert_eq!(scanned, 256 - 200);
        assert_eq!(q.choose_bitmap(), Some(hi));
    }

    #[test]
    fn bitmap_choose_agrees_with_scan() {
        let mut s = ObjStore::new();
        let mut q = RunQueues::new();
        for (i, p) in [3u8, 77, 41, 255, 0].iter().enumerate() {
            let t = mk_thread(&mut s, i as u32, *p, ThreadState::Running);
            q.enqueue(&mut s, t);
        }
        assert_eq!(q.choose_bitmap(), q.choose_benno().0);
    }

    #[test]
    fn lazy_choose_dequeues_blocked() {
        let mut s = ObjStore::new();
        let mut q = RunQueues::new();
        // Three blocked threads ahead of a runnable one, all at prio 9.
        let blocked: Vec<ObjId> = (0..3)
            .map(|i| mk_thread(&mut s, i, 9, ThreadState::BlockedOnRecv { ep: ObjId(999) }))
            .collect();
        let runnable = mk_thread(&mut s, 3, 9, ThreadState::Running);
        // Lazy scheduling leaves blocked threads queued; emulate that by
        // enqueueing them while blocked (lazy mode's enqueue happened while
        // they were runnable).
        for b in &blocked {
            s.tcb_mut(*b).state = ThreadState::Running;
            q.enqueue(&mut s, *b);
            s.tcb_mut(*b).state = ThreadState::BlockedOnRecv { ep: ObjId(999) };
        }
        q.enqueue(&mut s, runnable);
        let choice = q.choose_lazy(&mut s);
        assert_eq!(choice.thread, Some(runnable));
        assert_eq!(choice.dequeued_blocked, 3);
        // The blocked threads are gone; chosen thread remains queued (Fig. 2
        // returns without dequeuing it).
        assert_eq!(q.len(), 1);
        assert!(s.tcb(runnable).in_runqueue);
        for b in &blocked {
            assert!(!s.tcb(*b).in_runqueue);
        }
    }

    #[test]
    fn lazy_choose_idle_when_all_blocked() {
        let mut s = ObjStore::new();
        let mut q = RunQueues::new();
        let b = mk_thread(&mut s, 0, 9, ThreadState::Running);
        q.enqueue(&mut s, b);
        s.tcb_mut(b).state = ThreadState::BlockedOnReply;
        let choice = q.choose_lazy(&mut s);
        assert_eq!(choice.thread, None);
        assert_eq!(choice.dequeued_blocked, 1);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "double enqueue")]
    fn double_enqueue_panics() {
        let mut s = ObjStore::new();
        let mut q = RunQueues::new();
        let t = mk_thread(&mut s, 0, 1, ThreadState::Running);
        q.enqueue(&mut s, t);
        q.enqueue(&mut s, t);
    }

    #[test]
    fn bitmap_tracks_queue_emptiness() {
        let mut s = ObjStore::new();
        let mut q = RunQueues::new();
        let a = mk_thread(&mut s, 0, 40, ThreadState::Running);
        let b = mk_thread(&mut s, 1, 40, ThreadState::Running);
        q.enqueue(&mut s, a);
        q.enqueue(&mut s, b);
        q.dequeue(&mut s, a);
        assert!(q.bitmap.is_set(40), "still one thread at prio 40");
        q.dequeue(&mut s, b);
        assert!(!q.bitmap.is_set(40));
    }
}
