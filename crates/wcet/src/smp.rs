//! Cross-core terms of the WCET analysis (DESIGN.md §14).
//!
//! The single-core analysis ([`crate::analyze`]) bounds one core running
//! alone. With K cores sharing the L2 and the big kernel lock, an
//! interrupt response can wait for two more things, and
//! [`smp_latency_margin`] adds one closed-form term for each:
//!
//! * **Big-lock wait.** The entry that services the line waits at most
//!   `(K-1) × LOCK_HOLD_CAP` for other cores' holds
//!   ([`rt_kernel::smp::lock_wait_for_entry`] caps each other core's
//!   charged overlap at that constant).
//! * **IPI services ahead of the line.** At most one reschedule and one
//!   shootdown IPI can drain ahead of it in the same exit loop, each
//!   cheaper than a full interrupt service.
//!
//! There is no shared-L2 term. The base cost model is all-miss
//! pessimistic: every non-locked instruction or data line is charged the
//! full memory access (plus a dirty-victim writeback), so another core
//! evicting an L2 line cannot make an access cost more than the base
//! model assumed, and another core cannot evict hardware-locked ways
//! (`l2_kernel_locked`) at all. Port contention, one core's memory
//! transaction stalling behind another's, would need a term, but rt-hw
//! does not model it: an access costs the same whatever the other cores
//! do, so no simulated run could observe such a stall.
//!
//! With `K = 1` the margin is zero, so every bound is the single-core
//! one to the cycle.

use rt_hw::Cycles;
use rt_kernel::kernel::EntryPoint;
use rt_kernel::smp::LOCK_HOLD_CAP;

use crate::analysis::AnalysisConfig;
use crate::cache::AnalysisCache;

/// Parameters of an SMP analysis: how many cores share the L2 and the
/// big lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SmpParams {
    /// Number of cores sharing the L2 and the big lock.
    pub cores: u8,
}

impl SmpParams {
    /// Parameters for `cores` cores.
    pub fn new(cores: u8) -> SmpParams {
        SmpParams { cores }
    }
}

/// The additive margin a per-line single-core IRQ-response bound needs
/// to stay sound on a K-core machine:
///
/// ```text
/// margin = (K-1) × LOCK_HOLD_CAP  +  2 × WCET(Interrupt)
/// ```
///
/// The first term covers the big-lock wait charged at the kernel entry
/// that services the line (bounded per entry by construction). The
/// second covers IPI services that may drain ahead of the line in the
/// same exit loop: at most one reschedule and one shootdown IPI can be
/// pending ahead (a pending line cannot double-pend), and each IPI
/// service is strictly cheaper than a full interrupt service. The L2
/// needs no term (module docs). Zero when `cores <= 1`.
pub fn smp_latency_margin(interrupt_wcet: Cycles, smp: &SmpParams) -> Cycles {
    if smp.cores <= 1 {
        return 0;
    }
    (smp.cores - 1) as Cycles * LOCK_HOLD_CAP + 2 * interrupt_wcet
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
    use crate::analysis::analyze;

    #[test]
    fn one_core_is_the_base_analysis_to_the_cycle() {
        // One core adds no margin, so every SMP bound is the single-core
        // bound; 2 and 4 cores are covered by smp_load_soundness.rs.
        let irq = analyze(EntryPoint::Interrupt, &AnalysisConfig::after_l2_off()).cycles;
        assert_eq!(smp_latency_margin(irq, &SmpParams::new(1)), 0);
    }
}
