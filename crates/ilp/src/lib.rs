//! # rt-ilp — exact integer linear programming
//!
//! A small, self-contained, *exact* ILP maximiser used by the WCET analysis
//! (`rt-wcet`) to solve IPET problems, standing in for the "off-the-shelf ILP
//! solver" of the paper (Blackham et al., EuroSys 2012, §5.2).
//!
//! The solver is deliberately simple but correct:
//!
//! * all arithmetic is performed over arbitrary-precision-free rationals
//!   ([`Rat`], `i128` numerator/denominator with aggressive normalisation),
//!   so there is no floating-point tolerance tuning and no unsoundness from
//!   rounding — a WCET bound produced here is exact for the given model;
//! * the LP relaxation is solved with a two-phase primal simplex over a
//!   tableau whose constraint rows store only their nonzero entries, using
//!   largest-coefficient (Dantzig) pivoting, falling back to Bland's rule
//!   after a run of degenerate pivots so termination stays guaranteed;
//! * integrality is enforced by best-bound-first branch and bound with
//!   incumbent pruning, where each child node *warm-starts* from its
//!   parent's optimal basis: the branching cut is appended as one tableau
//!   row and feasibility is restored by a short dual-simplex iteration
//!   instead of a from-scratch two-phase solve (stalls fall back to a cold
//!   solve, so exactness never depends on the warm path).
//!
//! IPET problems are small (hundreds of variables, mostly network-matrix
//! flow constraints which are naturally integral), so this is fast in
//! practice; the handful of "conflict" constraints that introduce genuine
//! branching are handled by the branch-and-bound layer. Solves report
//! their work counters in [`SolveStats`] (nodes, primal/dual pivots,
//! warm-start hit rate, wall time); [`Model::solve_cold`] keeps the
//! no-warm-start baseline available for differential tests and benchmarks.
//!
//! ## Example
//!
//! ```
//! use rt_ilp::{Model, Sense, LinExpr};
//!
//! let mut m = Model::maximize();
//! let x = m.int_var("x", 0, Some(10));
//! let y = m.int_var("y", 0, Some(10));
//! m.set_objective(LinExpr::new() + (3, x) + (2, y));
//! m.add_le(LinExpr::new() + (1, x) + (1, y), 7);
//! m.add_le(LinExpr::new() + (2, x) + (1, y), 10);
//! let sol = m.solve().expect("feasible");
//! assert_eq!(sol.objective_i64(), 3 * 3 + 2 * 4);
//! # let _ = Sense::Maximize;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod model;
mod presolve;
mod rational;
mod simplex;

pub use model::{
    LinExpr, Model, PresolvedModel, Sense, Solution, SolveError, SolveStats, Status, VarId,
};
pub use rational::Rat;
