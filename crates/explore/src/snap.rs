//! Run snapshots: resuming a branch from its divergence point in O(1)
//! instead of replaying its choice prefix from boot.
//!
//! The stateless engine's cost per branch grows linearly with depth — a
//! depth-36 run re-executes up to 35 already-decided events before doing
//! one new thing — so total work is quadratic in depth. A `SnapPoint`
//! breaks that: it freezes *everything* a run needs to continue — the
//! kernel (via [`KernelSnapshot`], decision source detached), the script
//! cursors, the injection budgets, the decision log, and every report
//! counter accumulated so far — at a top-level event boundary. A child
//! branch carries an `Arc<SnapPoint>` fork and restores it instead of
//! rebuilding, replaying only the (usually empty) choice gap between the
//! capture boundary and its divergence decision.
//!
//! Correctness is by construction, not policy: a restored kernel is
//! bit-identical to the replayed one ([`KernelSnapshot::restore`] is the
//! contract `rt_kernel` pins), and the pre-seeded counters equal what a
//! replay would have re-accumulated, so *any* mixture of snapshot-forked
//! and rebuilt-replayed branches produces the same [`RunRecord`]s and
//! therefore byte-identical reports. That makes the memory policy — the
//! capture cadence (`snapshot_every`) and the wave-boundary resident
//! budget (`snapshot_budget`) — freely tunable: a branch whose snapshot
//! was never captured simply inherits its parent's `Arc` (lengthening the
//! replay gap) or falls back to replay-from-boot, with no effect on any
//! reported byte. The `snapshot_differential` suite pins this.
//!
//! Accounting is intrusive: every live `SnapPoint` holds its exploration's
//! `SnapAccount` and decrements it on drop, so the engine can read the
//! resident population at wave boundaries — where frontier composition is
//! already worker-count-independent — and pause capture deterministically
//! when over budget.
//!
//! [`KernelSnapshot`]: rt_kernel::kernel::KernelSnapshot
//! [`KernelSnapshot::restore`]: rt_kernel::kernel::KernelSnapshot::restore
//! [`RunRecord`]: crate::engine::RunRecord

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rt_hw::{Cycles, IrqLine};
use rt_kernel::kernel::KernelSnapshot;
use rt_kernel::obj::ObjId;
use rt_kernel::system::Action;

use crate::choice::Decision;

/// Per-exploration census of live snapshots. Captures increment, drops
/// decrement; the engine samples `live` between waves to enforce the
/// resident budget and track the peak.
#[derive(Debug, Default)]
pub(crate) struct SnapAccount {
    live: AtomicUsize,
}

impl SnapAccount {
    /// Snapshots currently alive (frontier + in-flight records).
    pub(crate) fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    pub(crate) fn incr(&self) {
        self.live.fetch_add(1, Ordering::Relaxed);
    }
}

/// A frozen mid-run resume point, captured at a top-level event boundary
/// (never inside a kernel operation — the kernel is quiescent and its
/// decision source detachable only between events).
///
/// Everything below the `taken_len` line is the run's *future-facing*
/// state; the counter block mirrors what [`RunRecord`] and `RunCtl` had
/// accumulated by the boundary, so a resumed run's record is
/// indistinguishable from a full replay's.
///
/// [`RunRecord`]: crate::engine::RunRecord
pub(crate) struct SnapPoint {
    /// The kernel, machine included, decision source detached.
    pub kernel: KernelSnapshot,
    /// Scenario scripts (immutable per run; shared, not re-cloned).
    pub scripts: Arc<Vec<(ObjId, Vec<Action>)>>,
    /// Per-script action cursors.
    pub cursors: Vec<usize>,
    /// Remaining injection budget per line.
    pub budgets: Vec<(IrqLine, u32)>,
    /// Decision log up to the boundary.
    pub log: Vec<Decision>,
    /// Choices consumed up to the boundary — a resumed run replays its
    /// prefix only from here.
    pub taken_len: usize,
    /// `RunCtl::polls` at the boundary.
    pub polls: u32,
    /// `RunCtl::injected` at the boundary.
    pub injected: u32,
    /// Oracle-checked states by the boundary.
    pub states: usize,
    /// Top-level events executed by the boundary.
    pub events: usize,
    /// Latency-oracle responses checked by the boundary.
    pub responses: usize,
    /// Worst response latency observed by the boundary.
    pub max_latency: Cycles,
    /// `irq_log` entries already consumed by the latency oracle.
    pub checked_responses: usize,
    /// The exploration's census this point reports to on drop.
    pub account: Arc<SnapAccount>,
}

impl SnapPoint {
    /// Registers a freshly captured point with its exploration's census.
    pub(crate) fn register(self) -> Arc<SnapPoint> {
        self.account.incr();
        Arc::new(self)
    }
}

impl Drop for SnapPoint {
    fn drop(&mut self) {
        self.account.live.fetch_sub(1, Ordering::Relaxed);
    }
}

impl fmt::Debug for SnapPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapPoint")
            .field("taken_len", &self.taken_len)
            .field("events", &self.events)
            .field("states", &self.states)
            .finish_non_exhaustive()
    }
}

/// Snapshot-engine counters surfaced in [`ExploreReport`]: how often the
/// fork path actually fired and what it saved. Deterministic for any
/// worker count (counted in the single-threaded frontier merge), but
/// *not* part of the rendered report line — forked and rebuilt searches
/// must render byte-identically.
///
/// [`ExploreReport`]: crate::engine::ExploreReport
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapStats {
    /// Snapshots captured across all runs, up to each run's cut point:
    /// captures past it are discarded with the rest of the run, and
    /// whether a run got that far depends on timing.
    pub captured: u64,
    /// Branches resumed from a snapshot instead of boot.
    pub forks: u64,
    /// Top-level events the forks did not re-execute (the replay work the
    /// stateless engine would have done).
    pub replays_avoided: u64,
    /// Most snapshots resident at any wave boundary.
    pub peak_resident: usize,
    /// Waves that ran with capture paused by the resident budget.
    pub capture_paused_waves: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_counts_registrations_and_drops() {
        let account = Arc::new(SnapAccount::default());
        let mk = || {
            SnapPoint {
                kernel: rt_kernel::kernel::Kernel::new(
                    rt_kernel::kernel::KernelConfig::after(),
                    rt_hw::HwConfig::default(),
                )
                .snapshot(),
                scripts: Arc::new(Vec::new()),
                cursors: Vec::new(),
                budgets: Vec::new(),
                log: Vec::new(),
                taken_len: 0,
                polls: 0,
                injected: 0,
                states: 0,
                events: 0,
                responses: 0,
                max_latency: 0,
                checked_responses: 0,
                account: account.clone(),
            }
            .register()
        };
        let a = mk();
        let b = mk();
        let c = a.clone(); // Arc fork: no new snapshot
        assert_eq!(account.live(), 2);
        drop(a);
        drop(c);
        assert_eq!(account.live(), 1);
        drop(b);
        assert_eq!(account.live(), 0);
    }
}
