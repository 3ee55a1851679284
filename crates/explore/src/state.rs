//! Canonical state snapshots for duplicate-state pruning, the visited
//! set the exploration workers read, and the claim table they write.
//!
//! Exhaustive exploration revisits the same kernel state along many
//! interleavings (two independent arrivals commute more often than not).
//! The engine prunes a run when the *canonical* state at an event
//! boundary was already expanded. Canonical means: everything that
//! determines future behaviour — object contents, scheduler queues,
//! interrupt-controller pending/mask bits, script positions, remaining
//! injection budgets — and nothing that doesn't, in particular absolute
//! time. Two states differing only in `machine.now()` (or in cache
//! contents, statistics, or response logs) behave identically modulo
//! timing, and the latency oracle checks timing along every *un*pruned
//! path before the duplicate is cut off.
//!
//! The hash runs at every state a search checks (~13,000 per explore-smp
//! pass, over 10⁶ in the scale gate's search), so it allocates and
//! formats nothing: scalar fields feed a fast multiply-rotate hasher
//! directly, and structured fields stream their derived
//! [`std::hash::Hash`] bytes into the same hasher. Sparse structures
//! stream only what they hold: a CNode its occupied slots, a page
//! directory or table its scalars and then the indices holding an entry
//! or a shadow slot. The run queues' non-empty priorities come from the
//! mask the queues keep, not from a scan of their 256 heads.

use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::Mutex;

use rt_hw::IrqLine;
use rt_kernel::kernel::Kernel;
use rt_kernel::obj::ObjKind;

use crate::por::{sig_intersect, sig_subset};

/// FxHash-style multiply-rotate hasher: quality is ample for pruning
/// (collisions cost a missed prune or, with vanishing probability, a
/// false prune — the differential suite would catch a systematic one)
/// and it is an order of magnitude cheaper than `DefaultHasher`'s
/// SipHash on the short field streams hashed here.
#[derive(Default)]
struct FastHasher {
    hash: u64,
}

const FAST_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FAST_SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche so low-entropy inputs spread across all bits
        // (the claim table's shards key on the low bits).
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }
}

/// Streams a value's derived [`std::hash::Hash`] into the fast hasher —
/// raw field bytes, no `Debug` formatting machinery (which profiling
/// showed as the single hottest function of a 10^7-state search).
macro_rules! stream_hash {
    ($h:expr, $v:expr) => {
        std::hash::Hash::hash(&$v, $h)
    };
}

#[inline]
fn opt_id(h: &mut FastHasher, v: Option<rt_kernel::obj::ObjId>) {
    h.add(match v {
        Some(o) => 0x1_0000_0000 | o.0 as u64,
        None => u64::MAX,
    });
}

/// Hashes the canonical (time-free) state of `kernel` plus the harness
/// state that co-determines the future: per-thread script cursors and
/// remaining interrupt budgets.
///
/// The hash is stable within a process — sufficient for pruning and for
/// cross-worker determinism (all workers of one exploration live in one
/// process).
pub fn canonical_hash(kernel: &Kernel, cursors: &[usize], budgets: &[(IrqLine, u32)]) -> u64 {
    let mut h = FastHasher::default();
    for (id, o) in kernel.objs.iter() {
        h.add(id.0 as u64);
        h.add(o.base as u64);
        h.add(o.size_bits as u64);
        match &o.kind {
            // TCBs carry one time-dependent field (`wait_since`, response
            // accounting only); hash the behaviour-relevant fields.
            ObjKind::Tcb(t) => {
                h.add(0);
                h.add(t.prio as u64);
                stream_hash!(&mut h, t.state);
                stream_hash!(&mut h, t.cspace_root);
                stream_hash!(&mut h, t.vspace);
                h.add(t.fault_handler as u64);
                for &w in &t.msg {
                    h.add(w as u64);
                }
                stream_hash!(&mut h, t.msg_info);
                for &w in &t.xfer_caps {
                    h.add(w as u64);
                }
                stream_hash!(&mut h, t.recv_slot_spec);
                h.add(t.recv_badge.0 as u64);
                opt_id(&mut h, t.sched_next);
                opt_id(&mut h, t.sched_prev);
                h.add(t.in_runqueue as u64);
                opt_id(&mut h, t.ep_next);
                opt_id(&mut h, t.ep_prev);
                opt_id(&mut h, t.queued_on);
                opt_id(&mut h, t.caller);
                stream_hash!(&mut h, t.current_syscall);
            }
            ObjKind::Endpoint(e) => {
                h.add(1);
                h.add(e.state as u64);
                opt_id(&mut h, e.head);
                opt_id(&mut h, e.tail);
                h.add(e.active as u64);
                match &e.abort {
                    None => h.add(u64::MAX),
                    Some(a) => {
                        h.add(a.badge.0 as u64);
                        opt_id(&mut h, a.cursor);
                        h.add(a.end.0 as u64);
                        h.add(a.initiator.0 as u64);
                    }
                }
                opt_id(&mut h, e.completed_for);
            }
            ObjKind::Notification(n) => {
                h.add(2);
                h.add(n.word as u64);
                opt_id(&mut h, n.head);
                opt_id(&mut h, n.tail);
            }
            ObjKind::CNode(c) => {
                // Only occupied slots stream their (index, payload); the
                // in-use list holds no never-touched (null) ones.
                h.add(3);
                h.add(c.radix_bits() as u64);
                for (i, s) in c.slots_in_use() {
                    if !s.cap.is_null() {
                        h.add(i as u64);
                        stream_hash!(&mut h, s);
                    }
                }
            }
            ObjKind::Untyped(u) => {
                h.add(4);
                h.add(u.watermark as u64);
                h.add(u.clear_progress as u64);
                stream_hash!(&mut h, u.pending);
                for c in &u.children {
                    h.add(c.0 as u64);
                }
            }
            ObjKind::Frame(f) => {
                h.add(5);
                h.add(f.size_bits as u64);
            }
            // Paging structures stream their scalars, then only the
            // indices holding an entry or a shadow slot (a directory's
            // 4,096 entries and shadow slots are mostly empty), then an
            // end marker no index equals, so two tables stream equal
            // words exactly when their contents are equal.
            ObjKind::PageTable(pt) => {
                h.add(6);
                h.add(pt.lowest_mapped as u64);
                stream_hash!(&mut h, pt.mapped_in);
                h.add(pt.shadow.len() as u64);
                for (i, e, s) in pt.mapped_entries() {
                    h.add(i as u64);
                    stream_hash!(&mut h, e);
                    stream_hash!(&mut h, s);
                }
                h.add(u64::MAX);
            }
            ObjKind::PageDirectory(pd) => {
                h.add(7);
                h.add(pd.lowest_mapped as u64);
                h.add(pd.kernel_mapped as u64);
                h.add(pd.shadow.len() as u64);
                for (i, e, s) in pd.mapped_entries() {
                    h.add(i as u64);
                    stream_hash!(&mut h, e);
                    stream_hash!(&mut h, s);
                }
                h.add(u64::MAX);
            }
            ObjKind::AsidPool(p) => {
                h.add(8);
                stream_hash!(&mut h, p);
            }
        }
    }
    // Queue membership and FIFO order live in the per-TCB links hashed
    // above; per-priority heads pin which list each chain belongs to.
    let queues = &kernel.core(kernel.cur_core()).queues;
    for (prio, head) in queues.nonempty() {
        h.add(prio as u64);
        h.add(head.0 as u64);
    }
    h.add(queues.len() as u64);
    stream_hash!(&mut h, kernel.irq_table);
    h.add(kernel.current().0 as u64);
    for l in 0..rt_hw::irq::NUM_LINES {
        let line = IrqLine(l);
        h.add(
            (kernel.machine.irq.is_pending(line) as u64) << 1
                | kernel.machine.irq.is_masked(line) as u64
                | (l as u64) << 8,
        );
    }
    // SMP extension: every core's scheduler and interrupt state, in core
    // order, so the hash is canonical regardless of which core happens to
    // be resident (the resident core's state is also hashed above).
    // Appended only for `n_cores > 1`, so single-core hashes are
    // bit-identical to the pre-SMP ones. Lock hold intervals are
    // deliberately excluded: they are clock values, and lock wait
    // affects timing only — which the latency oracle checks along every
    // unpruned path.
    if kernel.n_cores() > 1 {
        h.add(kernel.cur_core() as u64);
        for c in 0..kernel.n_cores() {
            let core = kernel.core(c);
            h.add(core.cur.0 as u64);
            h.add(match core.sched_action {
                rt_kernel::kernel::SchedAction::ResumeCurrent => u64::MAX - 1,
                rt_kernel::kernel::SchedAction::ChooseNew => u64::MAX - 2,
                rt_kernel::kernel::SchedAction::SwitchTo(t) => 0x2_0000_0000 | t.0 as u64,
            });
            for (prio, head) in core.queues.nonempty() {
                h.add(prio as u64);
                h.add(head.0 as u64);
            }
            h.add(core.queues.len() as u64);
            let irq = kernel.machine.core_irq(c);
            for l in 0..rt_hw::irq::NUM_LINES {
                let line = IrqLine(l);
                h.add(
                    (irq.is_pending(line) as u64) << 1
                        | irq.is_masked(line) as u64
                        | (l as u64) << 8,
                );
            }
            h.add(core.shootdown_pending as u64);
            h.add(core.resched_sent);
        }
        let smp = &kernel.smp;
        h.add(smp.shootdowns_initiated);
        h.add(smp.shootdowns_completed);
        h.add(smp.ipi_eois);
        h.add(smp.drop_resched_ipis as u64);
        for (_, o) in kernel.objs.iter() {
            if let ObjKind::Tcb(t) = &o.kind {
                h.add(t.affinity as u64);
            }
        }
    }
    for &c in cursors {
        h.add(c as u64);
    }
    for &(line, left) in budgets {
        h.add((line.0 as u64) << 32 | left as u64);
    }
    h.finish()
}

/// Sleep-set signature stored with a visited state: the sorted event
/// descs that were asleep when the state was expanded (empty when POR is
/// off). See [`crate::por`] for the `S ⊆ T` pruning rule.
pub(crate) type SleepSig = Vec<u32>;

/// The visited set: every expanded canonical state, with the sleep-set
/// signature it was expanded with.
///
/// Nothing writes it while a wave runs: workers read it through `&`, and
/// the coordinating thread merges the wave's discoveries through `&mut`
/// after the wave, in deterministic frontier order. Merging is
/// commutative anyway (signatures merge by intersection), so the stored
/// contents — and therefore every prune decision of the next wave — are
/// identical at any worker count.
#[derive(Default)]
pub(crate) struct Visited {
    states: HashMap<u64, SleepSig>,
}

impl Visited {
    /// Whether a run reaching `hash` with `sleep` asleep may be pruned:
    /// the state was already expanded with a sleep set no larger than
    /// this one (so every transition this run could still take was
    /// explored from the stored expansion).
    pub(crate) fn would_prune(&self, hash: u64, sleep: &[u32]) -> bool {
        self.states
            .get(&hash)
            .is_some_and(|stored| sig_subset(stored, sleep))
    }

    /// Records an expansion of `hash` with `sleep` asleep. Re-expansions
    /// shrink the stored signature to the intersection, so the stored
    /// value is independent of merge order.
    pub(crate) fn merge(&mut self, hash: u64, sleep: &[u32]) {
        match self.states.get_mut(&hash) {
            Some(stored) => {
                if !sig_subset(stored, sleep) {
                    *stored = sig_intersect(stored, sleep);
                }
            }
            None => {
                self.states.insert(hash, sleep.to_vec());
            }
        }
    }

    /// Number of distinct canonical states recorded.
    pub(crate) fn len(&self) -> usize {
        self.states.len()
    }

    /// All recorded canonical hashes, sorted (differential tests compare
    /// reduced and unreduced reachable-state sets).
    pub(crate) fn hashes(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.states.keys().copied().collect();
        all.sort_unstable();
        all
    }
}

/// Lock stripes of [`Claims`].
const CLAIM_SHARDS: usize = 64;

/// One run's claim on a state: its index in the wave's frontier order,
/// its depth there and the sleep-set signature it reached the state with.
struct Claim {
    index: usize,
    depth: usize,
    sig: SleepSig,
}

/// The wave-local claim table: which runs of the current wave have
/// reached each canonical state so far.
///
/// It is the one table workers write while a wave runs, at every boundary
/// a run hashes and does not prune (about 10^5 claims per second on the
/// widened ep-delete search at two workers), so it is lock-striped:
/// [`CLAIM_SHARDS`] mutexes, chosen by the hash's low bits. Its contents
/// depend on timing; only the decision to stop a run early is taken from
/// it. A run that stops where a lower-indexed run already claimed the
/// state (at no greater depth, with a sleep set no larger) would be cut
/// there or earlier by the wave's merge anyway, which does not read this
/// table (see `engine::explore_with_states`).
pub(crate) struct Claims {
    shards: Vec<Mutex<HashMap<u64, Vec<Claim>>>>,
}

impl Claims {
    pub(crate) fn new() -> Claims {
        Claims {
            shards: (0..CLAIM_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    /// Whether the run at frontier `index`, reaching `hash` at `depth`
    /// with `sig` asleep, should stop: a lower-indexed run claimed the
    /// state at a depth no greater and with a signature that is a subset
    /// of `sig`. When it should not, the run's own claim is recorded.
    pub(crate) fn yield_or_claim(
        &self,
        hash: u64,
        index: usize,
        depth: usize,
        sig: &[u32],
    ) -> bool {
        let mut shard = self.shards[hash as usize % CLAIM_SHARDS]
            .lock()
            .expect("a worker panicked holding a claim shard");
        let claims = shard.entry(hash).or_default();
        if claims
            .iter()
            .any(|c| c.index < index && c.depth <= depth && sig_subset(&c.sig, sig))
        {
            return true;
        }
        claims.push(Claim {
            index,
            depth,
            sig: sig.to_vec(),
        });
        false
    }

    /// Forgets every claim, keeping the shards' capacity for the next
    /// wave.
    pub(crate) fn clear(&mut self) {
        for s in &mut self.shards {
            s.get_mut()
                .expect("a worker panicked holding a claim shard")
                .clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_hw::HwConfig;
    use rt_kernel::kernel::KernelConfig;
    use rt_kernel::tcb::ThreadState;

    fn boot() -> Kernel {
        let mut k = Kernel::new(KernelConfig::after(), HwConfig::default());
        let t = k.boot_tcb("t", 10);
        k.objs.tcb_mut(t).state = ThreadState::Running;
        k.force_current_for_test(t);
        k
    }

    #[test]
    fn hash_ignores_time_but_sees_state() {
        let mut a = boot();
        let mut b = boot();
        let h0 = canonical_hash(&a, &[0], &[]);
        assert_eq!(h0, canonical_hash(&b, &[0], &[]));

        // Advancing time alone must not change the canonical state.
        a.machine.advance(12345);
        assert_eq!(h0, canonical_hash(&a, &[0], &[]));

        // A script-cursor move, a budget spend, or a thread-state change
        // each must.
        assert_ne!(h0, canonical_hash(&a, &[1], &[]));
        assert_ne!(
            canonical_hash(&a, &[0], &[(IrqLine(7), 2)]),
            canonical_hash(&a, &[0], &[(IrqLine(7), 1)])
        );
        let t = b.current();
        b.objs.tcb_mut(t).state = ThreadState::Restart;
        assert_ne!(h0, canonical_hash(&b, &[0], &[]));
    }

    #[test]
    fn shared_visited_prunes_by_sleep_subset() {
        let mut v = Visited::default();
        assert!(!v.would_prune(42, &[]));
        v.merge(42, &[1, 3]);
        // Stored {1,3}: prunable only when the stored set is a subset of
        // the revisit's sleep set.
        assert!(v.would_prune(42, &[1, 2, 3]));
        assert!(!v.would_prune(42, &[1]));
        assert!(!v.would_prune(42, &[]));
        // Re-expansion with {1} shrinks the stored signature to {1}.
        v.merge(42, &[1]);
        assert!(v.would_prune(42, &[1]));
        assert!(!v.would_prune(42, &[3]));
        // Merge order is irrelevant: intersection is commutative.
        let mut w = Visited::default();
        w.merge(42, &[1]);
        w.merge(42, &[1, 3]);
        assert!(w.would_prune(42, &[1]));
        assert!(!w.would_prune(42, &[3]));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn claims_yield_to_lower_index_only() {
        let c = Claims::new();
        assert!(!c.yield_or_claim(7, 5, 3, &[]));
        // A higher index yields; a lower one claims beside it.
        assert!(c.yield_or_claim(7, 6, 3, &[]));
        assert!(!c.yield_or_claim(7, 2, 3, &[]));
        assert!(c.yield_or_claim(7, 5, 3, &[]));
        // Other states are unclaimed.
        assert!(!c.yield_or_claim(8, 9, 3, &[]));
    }

    #[test]
    fn claims_never_yield_to_the_same_index() {
        let c = Claims::new();
        assert!(!c.yield_or_claim(7, 4, 1, &[]));
        assert!(!c.yield_or_claim(7, 4, 5, &[]));
        assert!(!c.yield_or_claim(7, 4, 5, &[1, 2]));
    }

    #[test]
    fn claims_guard_depth_and_signature() {
        let mut c = Claims::new();
        assert!(!c.yield_or_claim(7, 0, 4, &[2]));
        // Shallower than the claim: its extra depth may reach more.
        assert!(!c.yield_or_claim(7, 3, 3, &[2]));
        // Neither claim's sleep set is a subset of this run's.
        assert!(!c.yield_or_claim(7, 5, 6, &[1]));
        // No shallower, with a superset signature: yields.
        assert!(c.yield_or_claim(7, 6, 4, &[1, 2]));
        c.clear();
        assert!(!c.yield_or_claim(7, 6, 4, &[1, 2]));
    }
}
