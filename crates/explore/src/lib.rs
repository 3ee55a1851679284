//! # rt-explore — adversarial interrupt-schedule exploration
//!
//! The paper's argument rests on two claims the benchmarks only sample:
//! every preemption point leaves kernel objects *incrementally
//! consistent* (§3.3–§3.6), and the WCET bound dominates the interrupt
//! response of **every** arrival, not just the offsets the workloads
//! happen to hit. This crate checks both systematically, in the spirit of
//! the eChronos Owicki-Gries verification and of stateless model
//! checking: it drives the kernel simulator from explicit *decision
//! points* — which enabled event fires next, and whether a device asserts
//! a line at each preemption-point poll — and exhaustively enumerates the
//! resulting interleavings for small-scope scenarios.
//!
//! The moving parts:
//!
//! * [`choice`] — compact choice traces (`Vec<Choice>`), the scripted
//!   decision controller, and a splitmix generator;
//! * [`scenario`] — small-scope instances, one per preemptible operation
//!   of §3.3–§3.6 plus an IRQ-latency scenario;
//! * [`oracle`] — incremental-consistency checks over in-object resume
//!   state, run beside `rt_kernel::invariants` and a latency oracle
//!   (observed response ≤ the rt-wcet bound) at every explored state;
//! * [`state`] — canonical (time-free) state hashing, the visited set
//!   the exploration workers read during a wave, and the wave's claim
//!   table;
//! * [`por`] — the independence relation, event footprints, and
//!   sleep-set partial-order reduction;
//! * [`snap`] — mid-run resume points (kernel snapshot + run counters)
//!   that let a branch fork a live state in O(1) instead of replaying
//!   its prefix from boot, with intrusive residency accounting;
//! * [`engine`] — bounded-depth search as deterministic frontier waves
//!   fanned across an `rt_pool::Pool`, replay, and counterexample
//!   minimization.
//!
//! The kernel side of the hook is `rt_kernel::decision::DecisionSource`;
//! with no source installed (or the run-to-completion source) the kernel
//! is bit-identical to an uninstrumented one, so the paper's tables are
//! unaffected — `tests/tests/decision_differential.rs` pins that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod choice;
pub mod engine;
pub mod oracle;
pub mod por;
pub mod scenario;
pub mod snap;
pub mod state;

pub use choice::{Choice, Decision, Site, SplitMix};
pub use engine::{
    execute, explore, explore_scenario, explore_with_states, minimize, render_line, replay,
    scenario_line_bounds, wcet_latency_bound, BoundMemo, Counterexample, ExploreConfig,
    ExploreReport, RunRecord, SeededBug,
};
pub use por::PorMode;
pub use scenario::{randomized, Instance, RandomParams, Scenario};
pub use snap::SnapStats;
