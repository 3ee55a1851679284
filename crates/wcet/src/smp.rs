//! Cross-core interference extension of the WCET analysis (DESIGN.md
//! §14).
//!
//! The single-core analysis ([`crate::analyze`]) bounds one core running
//! alone. With K cores sharing the L2 and the big kernel lock, two new
//! latency sources appear, and each gets a closed-form, per-bucket term:
//!
//! * **Shared-L2 / memory interference.** The base cost model is
//!   all-miss pessimistic: every non-locked instruction or data line is
//!   charged the full memory access (plus dirty-victim writeback), so a
//!   concurrent core *evicting* an L2 line can never make an access
//!   cost more than the base model already assumed, and hardware-locked
//!   ways (`l2_kernel_locked`) cannot be evicted by other cores at all
//!   — the eviction term is subsumed. What remains is *port
//!   contention*: each memory-hierarchy transaction can stall behind at
//!   most one in-flight transaction per other core, each bounded by the
//!   victim's own service time. Per bucket, the added delay is thus at
//!   most `(K-1) ×` the bucket's base cycles, flowing into the same
//!   bucket so attribution stays partitioned
//!   (`breakdown.total() == cycles` still holds).
//! * **Big-lock wait.** One kernel entry waits at most
//!   `(K-1) × LOCK_HOLD_CAP` for other cores' holds
//!   ([`rt_kernel::smp::lock_wait_for_entry`] is capped per core by
//!   construction). The wait is spinning, charged to the pipeline
//!   bucket — exactly where the simulator files it.
//!
//! `K = 1` degenerates to the base analysis *verbatim* (same report,
//! bit-identical bound) — pinned by the differential tests.

use rt_hw::{cycles_to_us, Cycles};
use rt_kernel::kernel::EntryPoint;
use rt_kernel::smp::LOCK_HOLD_CAP;

use crate::analysis::{analyze, AnalysisConfig, WcetReport};
use crate::cache::AnalysisCache;

/// Parameters of an SMP analysis: how many cores contend, and the
/// modeled big-lock hold cap (must match the kernel's
/// [`rt_kernel::smp::LOCK_HOLD_CAP`] for the soundness argument to
/// connect).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SmpParams {
    /// Number of cores sharing the L2 and the big lock.
    pub cores: u8,
    /// Per-other-core cap on charged lock-hold overlap.
    pub lock_hold_cap: Cycles,
}

impl SmpParams {
    /// Parameters for `cores` cores with the kernel's hold cap.
    pub fn new(cores: u8) -> SmpParams {
        SmpParams {
            cores,
            lock_hold_cap: LOCK_HOLD_CAP,
        }
    }
}

/// Interference-aware WCET: the base single-core bound plus the
/// per-bucket cross-core terms described in the module docs. With
/// `smp.cores <= 1` this *is* [`analyze`] — same report, to the cycle.
pub fn analyze_smp(entry: EntryPoint, cfg: &AnalysisConfig, smp: &SmpParams) -> WcetReport {
    let base = analyze(entry, cfg);
    inflate(base, smp)
}

/// Applies the SMP interference terms to an already-computed single-core
/// report (the [`AnalysisCache`]-friendly path: the base report memo is
/// shared with every single-core consumer).
pub fn inflate(base: WcetReport, smp: &SmpParams) -> WcetReport {
    if smp.cores <= 1 {
        return base;
    }
    let k1 = (smp.cores - 1) as Cycles;
    let mut r = base;
    // Port contention: each memory bucket stretches by (K-1)× itself.
    r.breakdown.ifetch_miss += k1 * r.breakdown.ifetch_miss;
    r.breakdown.dmiss += k1 * r.breakdown.dmiss;
    r.breakdown.l2 += k1 * r.breakdown.l2;
    // Big-lock wait: spinning, a pipeline cost.
    r.breakdown.pipeline += k1 * smp.lock_hold_cap;
    r.cycles = r.breakdown.total();
    r.us = cycles_to_us(r.cycles);
    r
}

/// The additive margin a per-line single-core IRQ-response bound needs
/// to stay sound on a K-core machine:
///
/// ```text
/// margin = (K-1) × lock_hold_cap  +  2 × WCET(Interrupt)
/// ```
///
/// The first term covers the big-lock wait charged at the kernel entry
/// that services the line (bounded per entry by construction). The
/// second covers IPI services that may drain ahead of the line in the
/// same exit loop: at most one reschedule and one shootdown IPI can be
/// pending ahead (a pending line cannot double-pend), and each IPI
/// service is strictly cheaper than a full interrupt service. Cross-core
/// L2 evictions need no term: the base bound is all-miss pessimistic
/// (module docs). Zero when `cores <= 1`.
pub fn smp_latency_margin(interrupt_wcet: Cycles, smp: &SmpParams) -> Cycles {
    if smp.cores <= 1 {
        return 0;
    }
    (smp.cores - 1) as Cycles * smp.lock_hold_cap + 2 * interrupt_wcet
}

/// SMP variant of [`AnalysisCache::irq_line_bounds`]: the single-core
/// per-line bounds plus [`smp_latency_margin`]. With `cores <= 1` the
/// returned bounds are bit-identical to the single-core ones.
pub fn smp_irq_line_bounds(
    cache: &AnalysisCache,
    cfg: &AnalysisConfig,
    lines: &[u8],
    smp: &SmpParams,
) -> Vec<(u8, Cycles)> {
    let base = cache.irq_line_bounds(cfg, lines);
    if smp.cores <= 1 {
        return base;
    }
    let irq = cache.analyze(EntryPoint::Interrupt, cfg).cycles;
    let margin = smp_latency_margin(irq, smp);
    base.into_iter().map(|(l, b)| (l, b + margin)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_core_is_the_base_analysis_to_the_cycle() {
        let cfg = AnalysisConfig::after_l2_off();
        let base = analyze(EntryPoint::Interrupt, &cfg);
        let smp = analyze_smp(EntryPoint::Interrupt, &cfg, &SmpParams::new(1));
        assert_eq!(smp.cycles, base.cycles);
        assert_eq!(smp.breakdown, base.breakdown);
        assert_eq!(smp_latency_margin(base.cycles, &SmpParams::new(1)), 0);
    }

    #[test]
    fn interference_terms_grow_with_cores_and_stay_partitioned() {
        let cfg = AnalysisConfig::after_l2_off();
        let base = analyze(EntryPoint::Interrupt, &cfg);
        let two = analyze_smp(EntryPoint::Interrupt, &cfg, &SmpParams::new(2));
        let four = analyze_smp(EntryPoint::Interrupt, &cfg, &SmpParams::new(4));
        assert!(base.cycles < two.cycles && two.cycles < four.cycles);
        // Attribution stays partitioned.
        assert_eq!(two.breakdown.total(), two.cycles);
        assert_eq!(four.breakdown.total(), four.cycles);
        // The lock term is exactly (K-1) × LOCK_HOLD_CAP of pipeline
        // cycles on top of the stretched memory buckets.
        assert_eq!(
            two.breakdown.pipeline,
            base.breakdown.pipeline + LOCK_HOLD_CAP
        );
    }
}
