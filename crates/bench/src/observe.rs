//! Observed worst-case measurement (§5.4, §6.2).
//!
//! "We measured the execution time of these paths using the cycle counters
//! available on the ARM1136's performance monitoring unit ... The observed
//! execution times were obtained by taking the maximum of 100,000
//! executions of each path." Our paths are deterministic given the
//! (polluted) starting cache state, so far fewer repetitions suffice; the
//! repetition count is still configurable for parity.

use rt_hw::{Cycles, HwConfig};
use rt_kernel::kernel::{EntryPoint, KernelConfig};

use crate::workloads::WorstCase;

/// Observed worst case for `entry` on a machine with `hw`, running the
/// `cfg` kernel: maximum over `reps` polluted runs.
pub fn observe_entry_reps(entry: EntryPoint, cfg: KernelConfig, hw: HwConfig, reps: u32) -> Cycles {
    max_fired(&mut WorstCase::new(entry, cfg, hw), reps)
}

/// Observed worst case with the whole kernel locked into the L2 (§4/§8
/// extension): builds the workload on an L2-locking machine and applies
/// [`rt_kernel::pinning::apply_l2_kernel_lock`] before measuring.
pub fn observe_entry_l2locked(entry: EntryPoint, cfg: KernelConfig, reps: u32) -> Cycles {
    let hw = HwConfig {
        l2_enabled: true,
        locked_l2_ways: 2,
        ..HwConfig::default()
    };
    let mut w = WorstCase::new(entry, cfg, hw);
    let r = rt_kernel::pinning::apply_l2_kernel_lock(w.kernel());
    assert_eq!(r.rejected, 0);
    max_fired(&mut w, reps)
}

/// The largest of `reps` polluted runs of `w` (0 when `reps` is 0).
fn max_fired(w: &mut WorstCase, reps: u32) -> Cycles {
    (0..reps).map(|_| w.fire()).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_maximum_is_reached_by_the_first_rep_and_stable() {
        // The workloads are deterministic given the polluted start state,
        // and the pollution preamble runs before *every* rep, so there is
        // no warm-up drift: one rep already observes the maximum, and more
        // reps cannot change it (they re-observe the same path).
        let hw = HwConfig::default();
        let cfg = KernelConfig::after();
        for entry in EntryPoint::ALL {
            let one = observe_entry_reps(entry, cfg, hw, 1);
            let four = observe_entry_reps(entry, cfg, hw, 4);
            let eight = observe_entry_reps(entry, cfg, hw, 8);
            assert_eq!(one, four, "{entry:?}: rep 1 vs max of 4");
            assert_eq!(four, eight, "{entry:?}: max of 4 vs max of 8");
        }
    }

    #[test]
    fn breakdown_totals_equal_the_sum_of_buckets() {
        // The attribution layer's aggregation invariants: the observed
        // total equals the sum over the four buckets, and equals what the
        // plain (untraced) observation measures.
        use rt_hw::Bucket;
        let hw = HwConfig::default();
        let cfg = KernelConfig::after();
        for entry in EntryPoint::ALL {
            let att = crate::attribution::observe_attribution(entry, cfg, hw, 2);
            let bucket_sum: Cycles = Bucket::ALL.iter().map(|&b| att.breakdown.get(b)).sum();
            assert_eq!(att.cycles, bucket_sum, "{entry:?}");
            assert_eq!(
                att.cycles,
                observe_entry_reps(entry, cfg, hw, 2),
                "{entry:?}: tracing must not perturb the measurement"
            );
        }
    }

    #[test]
    fn observed_orders_match_the_paper() {
        // Table 2 (observed, L2 off): syscall >> undefined ~ page fault >
        // interrupt.
        let hw = HwConfig::default();
        let cfg = KernelConfig::after();
        let sys = observe_entry_reps(EntryPoint::Syscall, cfg, hw, 4);
        let und = observe_entry_reps(EntryPoint::Undefined, cfg, hw, 4);
        let pf = observe_entry_reps(EntryPoint::PageFault, cfg, hw, 4);
        let irq = observe_entry_reps(EntryPoint::Interrupt, cfg, hw, 4);
        assert!(sys > und, "syscall {sys} vs undefined {und}");
        assert!(sys > pf, "syscall {sys} vs page fault {pf}");
        assert!(und > irq, "undefined {und} vs interrupt {irq}");
        assert!(pf > irq, "page fault {pf} vs interrupt {irq}");
    }
}
