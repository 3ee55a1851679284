//! Injectable schedule-decision sources.
//!
//! The kernel's preemption behaviour is driven entirely by *when interrupt
//! lines are asserted relative to preemption-point polls*. In production
//! (and in all the benchmarks) that timing comes from the simulated
//! devices' schedules. For systematic exploration of interleavings,
//! however, a test harness wants to decide — at every single poll —
//! whether a device asserts a line *right now*, and which one.
//!
//! [`DecisionSource`] is that hook: installed on a [`Kernel`], it is
//! consulted at the top of every preemption-point poll and may assert one
//! line. Declining (`None`) leaves the machine state untouched — the
//! source reads the controller but charges no cycles and mutates nothing
//! — so a run with [`RunToCompletion`] installed is bit-identical (trace,
//! PMU counters, tables) to an uninstrumented run. The differential test
//! `tests/tests/decision_differential.rs` pins that claim.
//!
//! The exploration engine that drives this hook lives in `crates/explore`
//! (`rt-explore`); it is a consumer of this trait, not part of the
//! kernel.
//!
//! [`Kernel`]: crate::kernel::Kernel

use rt_hw::{IrqController, IrqLine};

/// A source of interrupt-arrival decisions, consulted at every
/// preemption-point poll.
///
/// Implementations may inspect the interrupt controller (to see which
/// lines are already pending or masked) and return a line to assert at
/// the current cycle, or `None` to let the poll proceed with whatever the
/// hardware already has pending. Returning an already-pending line is
/// harmless (the controller ignores re-raises) but wastes a branch, so
/// sources should consult [`IrqController::is_pending`] first.
///
/// There is deliberately no `Send` supertrait: an instrumented [`Kernel`]
/// lives and dies on one worker thread (the exploration engine builds or
/// restores kernels *inside* pool workers and shares single-threaded
/// `Rc<RefCell<..>>` state with its source). What crosses threads instead
/// is [`KernelSnapshot`] — plain data, `Send + Sync` — which by
/// construction carries no decision source at all.
///
/// [`Kernel`]: crate::kernel::Kernel
/// [`KernelSnapshot`]: crate::kernel::KernelSnapshot
pub trait DecisionSource {
    /// Called once per preemption-point poll on `core`, before the
    /// kernel samples that core's pending mask (`irq`). Return
    /// `Some(line)` to assert `line` on `core` now. The core lets a
    /// source restrict an injection to the core its line is routed to;
    /// on a one-core kernel it is always 0.
    fn preemption_poll(&mut self, core: u8, irq: &IrqController) -> Option<IrqLine>;
}

/// The production decision source: never injects anything, so every
/// kernel operation runs to completion unless a *scheduled* device
/// interrupt arrives. Installing it is equivalent to installing nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunToCompletion;

impl DecisionSource for RunToCompletion {
    fn preemption_poll(&mut self, _core: u8, _irq: &IrqController) -> Option<IrqLine> {
        None
    }
}
