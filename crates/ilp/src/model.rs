//! User-facing model builder.
//!
//! A [`Model`] collects variables (continuous or integer, with lower/upper
//! bounds), linear constraints and a linear objective, then solves with the
//! branch-and-bound driver in [`crate::branch`].

use std::fmt;
use std::ops::Add;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::branch;
use crate::presolve;
use crate::rational::Rat;
use crate::simplex::{self, ColdOutcome, PivotRule, Rel, Row};

/// Optimisation direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sense {
    /// Maximise the objective (the only direction IPET needs; minimisation
    /// is provided for completeness by negating).
    Maximize,
    /// Minimise the objective.
    Minimize,
}

/// Handle to a model variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

/// A sparse linear expression `sum_i c_i * x_i`.
#[derive(Clone, Debug, Default)]
pub struct LinExpr {
    pub(crate) terms: Vec<(VarId, Rat)>,
}

impl LinExpr {
    /// The empty expression (zero).
    pub fn new() -> LinExpr {
        LinExpr::default()
    }

    /// Adds `coeff * var` to the expression (builder style).
    pub fn plus<C: Into<Rat>>(mut self, coeff: C, var: VarId) -> LinExpr {
        self.terms.push((var, coeff.into()));
        self
    }

    /// Single-term expression `1 * var`.
    pub fn var(v: VarId) -> LinExpr {
        LinExpr::new().plus(1i64, v)
    }

    /// Sums coefficients of duplicate variables and drops zeros, in
    /// variable order.
    fn normalised(&self) -> Vec<(usize, Rat)> {
        let mut terms: Vec<(usize, Rat)> = self.terms.iter().map(|&(VarId(i), c)| (i, c)).collect();
        terms.sort_by_key(|&(i, _)| i);
        let mut v: Vec<(usize, Rat)> = Vec::with_capacity(terms.len());
        for (i, c) in terms {
            match v.last_mut() {
                Some((last, sum)) if *last == i => *sum += c,
                _ => v.push((i, c)),
            }
        }
        v.retain(|(_, c)| !c.is_zero());
        v
    }
}

impl<C: Into<Rat>> Add<(C, VarId)> for LinExpr {
    type Output = LinExpr;
    fn add(self, (c, v): (C, VarId)) -> LinExpr {
        self.plus(c, v)
    }
}

struct VarInfo {
    integer: bool,
    lb: Rat,
    ub: Option<Rat>,
}

/// Error returned when a model has no usable optimum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// No assignment satisfies the constraints.
    Infeasible,
    /// The objective is unbounded in the optimisation direction.
    Unbounded,
    /// Branch-and-bound node budget was exhausted before proving optimality.
    NodeLimit,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "model is infeasible"),
            SolveError::Unbounded => write!(f, "model is unbounded"),
            SolveError::NodeLimit => write!(f, "branch-and-bound node limit exhausted"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Work counters from one branch-and-bound solve.
///
/// Exact-arithmetic simplex pivots dominate solve time, so pivot counts are
/// the machine-independent cost metric; `wall` is host time for the whole
/// solve (branching, pruning and bookkeeping included).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Branch-and-bound nodes processed (including the root and nodes
    /// pruned or found infeasible).
    pub nodes: u64,
    /// Primal simplex pivots (phase 1 + phase 2 of cold solves).
    pub primal_pivots: u64,
    /// Dual simplex pivots (warm-started node re-solves).
    pub dual_pivots: u64,
    /// Nodes re-solved from the parent basis (including cuts proven
    /// infeasible by the dual iteration).
    pub warm_hits: u64,
    /// Nodes solved cold: the root, nodes whose parent snapshot was dropped
    /// to bound memory, and stalled warm starts.
    pub warm_misses: u64,
    /// Variables (and equality rows) removed by the substitution presolve
    /// before the root LP was built. Always 0 on the cold reference path.
    pub presolve_eliminated: u64,
    /// Host wall-clock time of the whole solve.
    pub wall: Duration,
}

impl SolveStats {
    /// Total simplex pivots, primal and dual.
    pub fn pivots(&self) -> u64 {
        self.primal_pivots + self.dual_pivots
    }

    /// Fraction of LP solves served from a parent basis (0 when nothing
    /// was solved).
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.warm_hits + self.warm_misses;
        if total == 0 {
            0.0
        } else {
            self.warm_hits as f64 / total as f64
        }
    }

    /// Accumulates another solve's counters into `self` (summing `wall`).
    pub fn absorb(&mut self, other: &SolveStats) {
        self.nodes += other.nodes;
        self.primal_pivots += other.primal_pivots;
        self.dual_pivots += other.dual_pivots;
        self.warm_hits += other.warm_hits;
        self.warm_misses += other.warm_misses;
        self.presolve_eliminated += other.presolve_eliminated;
        self.wall += other.wall;
    }
}

/// Solver status of a returned [`Solution`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Proved optimal.
    Optimal,
}

/// An optimal solution.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Solver status.
    pub status: Status,
    /// Objective value (exact).
    pub objective: Rat,
    /// Work counters of the solve that produced this solution.
    pub stats: SolveStats,
    values: Vec<Rat>,
}

impl Solution {
    /// Value of `var` in the optimal assignment.
    pub fn value(&self, var: VarId) -> Rat {
        self.values[var.0]
    }

    /// Value of `var` as an `i64`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not integral (only possible for continuous
    /// variables).
    pub fn value_i64(&self, var: VarId) -> i64 {
        self.values[var.0].to_i64()
    }

    /// Objective value as `i64`.
    ///
    /// # Panics
    ///
    /// Panics if the objective is not integral.
    pub fn objective_i64(&self) -> i64 {
        self.objective.to_i64()
    }
}

/// An ILP/MILP model under construction.
pub struct Model {
    sense: Sense,
    vars: Vec<VarInfo>,
    rows: Vec<Row>,
    objective: LinExpr,
}

impl Model {
    /// Creates an empty maximisation model.
    pub fn maximize() -> Model {
        Model::new(Sense::Maximize)
    }

    /// Creates an empty model with the given optimisation direction.
    pub fn new(sense: Sense) -> Model {
        Model {
            sense,
            vars: Vec::new(),
            rows: Vec::new(),
            objective: LinExpr::new(),
        }
    }

    /// Adds an integer variable with bounds `lb..=ub` (`ub = None` means
    /// unbounded above).
    pub fn int_var(&mut self, name: &str, lb: i64, ub: Option<i64>) -> VarId {
        self.push_var(name, true, Rat::from(lb), ub.map(Rat::from))
    }

    /// Adds a continuous variable with bounds `lb..=ub`.
    pub fn cont_var(&mut self, name: &str, lb: i64, ub: Option<i64>) -> VarId {
        self.push_var(name, false, Rat::from(lb), ub.map(Rat::from))
    }

    fn push_var(&mut self, name: &str, integer: bool, lb: Rat, ub: Option<Rat>) -> VarId {
        assert!(
            !lb.is_negative(),
            "rt-ilp: negative lower bounds are not supported (IPET counts are nonnegative)"
        );
        if let Some(u) = ub {
            assert!(u >= lb, "rt-ilp: variable {name} has ub < lb");
        }
        let id = VarId(self.vars.len());
        self.vars.push(VarInfo { integer, lb, ub });
        id
    }

    /// Number of variables in the model.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints in the model (excluding variable bounds).
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Sets the objective expression.
    pub fn set_objective(&mut self, expr: LinExpr) {
        self.objective = expr;
    }

    /// Adds the constraint `expr <= rhs`.
    pub fn add_le<R: Into<Rat>>(&mut self, expr: LinExpr, rhs: R) {
        self.add_row(expr, Rel::Le, rhs.into());
    }

    /// Adds the constraint `expr >= rhs`.
    pub fn add_ge<R: Into<Rat>>(&mut self, expr: LinExpr, rhs: R) {
        self.add_row(expr, Rel::Ge, rhs.into());
    }

    /// Adds the constraint `expr == rhs`.
    pub fn add_eq<R: Into<Rat>>(&mut self, expr: LinExpr, rhs: R) {
        self.add_row(expr, Rel::Eq, rhs.into());
    }

    fn add_row(&mut self, expr: LinExpr, rel: Rel, rhs: Rat) {
        self.rows.push(Row {
            coeffs: expr.normalised(),
            rel,
            rhs,
        });
    }

    /// Solves the model to proven optimality.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Infeasible`], [`SolveError::Unbounded`], or
    /// [`SolveError::NodeLimit`] if the node budget runs out first.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.presolved()?.solve()
    }

    /// Runs row assembly and the equality-substitution presolve once,
    /// returning a reusable [`PresolvedModel`].
    ///
    /// [`Model::solve`] is exactly `presolved()?.solve()`; callers that
    /// solve the same instance repeatedly (the memoized analysis sweep in
    /// `rt-wcet`) cache the `PresolvedModel` so the reduction — which on
    /// IPET systems eliminates most rows — is paid once per distinct
    /// instance instead of once per solve. The presolved form is immutable
    /// and `Sync`, so concurrent solves can share one copy.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Infeasible`] when presolve already detects a
    /// trivially false row.
    pub fn presolved(&self) -> Result<PresolvedModel, SolveError> {
        let a = self.assemble();
        match presolve::reduce(self.vars.len(), &a.objective, &a.rows, &a.integers) {
            presolve::Outcome::Infeasible => Err(SolveError::Infeasible),
            presolve::Outcome::Reduced(p) => Ok(PresolvedModel {
                negate: a.negate,
                reduced: p,
                seed: OnceLock::new(),
            }),
        }
    }

    /// Solves with the seed solver's strategy: every branch-and-bound node
    /// LP rebuilt and solved from scratch with Bland's rule (no warm
    /// starts, no Dantzig pricing).
    ///
    /// This is the reference baseline the differential tests and `repro
    /// micro` compare [`Model::solve`] against; production callers should
    /// use [`Model::solve`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::solve`].
    pub fn solve_cold(&self) -> Result<Solution, SolveError> {
        let a = self.assemble();
        let start = Instant::now();
        let mut out = branch::solve_cold(
            self.vars.len(),
            &a.objective,
            &a.rows,
            &a.integers,
            branch::NODE_LIMIT,
        )?;
        out.stats.wall = start.elapsed();
        Ok(finish(out, a.negate))
    }

    /// Assembles the raw solver input: user rows plus variable-bound rows,
    /// the (sign-adjusted) objective, and the integer variable set.
    fn assemble(&self) -> Assembled {
        let mut rows = self.rows.clone();
        for (i, v) in self.vars.iter().enumerate() {
            if !v.lb.is_zero() {
                rows.push(Row {
                    coeffs: vec![(i, Rat::ONE)],
                    rel: Rel::Ge,
                    rhs: v.lb,
                });
            }
            if let Some(ub) = v.ub {
                rows.push(Row {
                    coeffs: vec![(i, Rat::ONE)],
                    rel: Rel::Le,
                    rhs: ub,
                });
            }
        }
        let mut objective: Vec<(usize, Rat)> = self.objective.normalised();
        let negate = self.sense == Sense::Minimize;
        if negate {
            for t in &mut objective {
                t.1 = -t.1;
            }
        }
        let integers: Vec<usize> = self
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.integer)
            .map(|(i, _)| i)
            .collect();
        Assembled {
            rows,
            objective,
            negate,
            integers,
        }
    }
}

/// Solver-ready form of a [`Model`]: rows (incl. bound rows), objective in
/// maximisation sense, and the integrality set.
struct Assembled {
    rows: Vec<Row>,
    objective: Vec<(usize, Rat)>,
    negate: bool,
    integers: Vec<usize>,
}

/// Wraps a raw solver result into a [`Solution`], undoing the
/// minimisation-by-negation if needed.
fn finish(out: branch::IlpOut, negate: bool) -> Solution {
    Solution {
        status: Status::Optimal,
        objective: if negate {
            -out.objective
        } else {
            out.objective
        },
        stats: out.stats,
        values: out.values,
    }
}

/// A model that has been assembled and presolved once, ready to be solved
/// any number of times (see [`Model::presolved`]).
///
/// Holds only immutable reduced data, so it is `Send + Sync` and can be
/// shared across worker threads; every [`PresolvedModel::solve`] runs the
/// same deterministic branch and bound and returns bit-identical results.
///
/// The basis seed is the one lazily-initialised member: concurrent
/// [`PresolvedModel::warm_up`] / [`PresolvedModel::resolve_with_objective`]
/// racers block on the seed's `OnceLock` — exactly one thread pays the
/// cold LP solve, every thread observes the same tableau, and each
/// re-solve then works on its own *clone* of it, so re-solves never
/// contend with (or perturb) each other. This is the sharing contract the
/// fleet sweep's worker pool leans on; `tests/tests/cache_stress.rs`
/// pins it.
pub struct PresolvedModel {
    negate: bool,
    reduced: presolve::Presolved,
    /// Optimal tableau of the reduced LP relaxation under the model's
    /// *default* objective (the one set when [`Model::presolved`] ran),
    /// built lazily on the first objective re-solve. Shared by every
    /// [`PresolvedModel::resolve_with_objective`] call: the constraint rows
    /// never change, so this basis is primal-feasible for any objective.
    seed: OnceLock<Result<Seed, SolveError>>,
}

/// The shared basis seed: an optimal tableau plus the pivots spent
/// building it (reported via [`PresolvedModel::warm_up`] so callers can
/// account the one-off cost separately from per-re-solve work).
struct Seed {
    tableau: simplex::Tableau,
    pivots: u64,
    /// The seed optimum's (reduced-space) point, when it is integral —
    /// feasibility is objective-independent, so this point primes every
    /// re-solve's branch and bound with a valid incumbent.
    int_point: Option<Vec<Rat>>,
}

impl PresolvedModel {
    /// Solves the presolved system to proven optimality.
    ///
    /// Identical result to [`Model::solve`] on the originating model; the
    /// reported [`SolveStats::wall`] covers this solve only (the presolve
    /// cost was paid in [`Model::presolved`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::solve`].
    pub fn solve(&self) -> Result<Solution, SolveError> {
        let start = Instant::now();
        let mut out = branch::solve_reduced(&self.reduced, branch::NODE_LIMIT)?;
        out.stats.wall = start.elapsed();
        Ok(finish(out, self.negate))
    }

    /// Builds (or fetches) the shared basis seed.
    fn seed(&self) -> Result<&Seed, SolveError> {
        self.seed
            .get_or_init(|| {
                let mut pivots = 0u64;
                match simplex::solve_cold(
                    self.reduced.n_vars,
                    &self.reduced.objective,
                    &self.reduced.rows,
                    &mut pivots,
                    PivotRule::Dantzig,
                ) {
                    ColdOutcome::Optimal(t) => {
                        let values = t.extract(self.reduced.n_vars);
                        let int_point = self
                            .reduced
                            .integers
                            .iter()
                            .all(|&i| values[i].is_integer())
                            .then_some(values);
                        Ok(Seed {
                            tableau: t,
                            pivots,
                            int_point,
                        })
                    }
                    ColdOutcome::Infeasible => Err(SolveError::Infeasible),
                    ColdOutcome::Unbounded => Err(SolveError::Unbounded),
                }
            })
            .as_ref()
            .map_err(|&e| e)
    }

    /// Forces the shared basis seed to be built now, returning the pivots
    /// it cost. Idempotent: later calls (and re-solves) reuse the seed.
    ///
    /// Callers that share one `PresolvedModel` across worker threads call
    /// this once at construction so every subsequent
    /// [`PresolvedModel::resolve_with_objective`] reports re-solve work
    /// only, independent of scheduling order.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] or [`SolveError::Unbounded`] if the LP
    /// relaxation under the default objective has no optimum.
    pub fn warm_up(&self) -> Result<u64, SolveError> {
        self.seed().map(|s| s.pivots)
    }

    /// Solves the same constraint system under a replacement objective,
    /// warm-starting from the shared basis seed.
    ///
    /// Only the objective changes, so the seed's optimal basis stays
    /// primal-feasible: the root LP is re-optimised with a short Dantzig
    /// primal-simplex run (often zero pivots when the new objective is
    /// close to the seed's) instead of a cold two-phase Bland solve, and
    /// branch and bound proceeds from that root exactly as in
    /// [`PresolvedModel::solve`]. When the seed optimum is integral, its
    /// point — feasible under *any* objective, since feasibility is
    /// objective-independent — additionally primes the branch and bound
    /// as an initial incumbent, pruning every subtree that cannot beat
    /// the seed point's value under the new objective. For the model's
    /// default objective this replays the seed solve and returns the
    /// same optimum as [`Model::solve`] bit for bit.
    ///
    /// The reported stats count the re-solve only — root re-optimisation
    /// plus branch-and-bound work; the seed's pivots are reported once by
    /// [`PresolvedModel::warm_up`]. The root counts as a warm hit.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::solve`], for the replacement objective.
    pub fn resolve_with_objective(&self, objective: &LinExpr) -> Result<Solution, SolveError> {
        let start = Instant::now();
        let mut obj = objective.normalised();
        if self.negate {
            for t in &mut obj {
                t.1 = -t.1;
            }
        }
        let (reduced_obj, obj_const) = self.reduced.reduce_objective(&obj);
        let seed = self.seed()?;
        let mut out = branch::solve_seeded(
            &self.reduced,
            &reduced_obj,
            obj_const,
            branch::NODE_LIMIT,
            &seed.tableau,
            seed.int_point.as_deref(),
        )?;
        out.stats.wall = start.elapsed();
        Ok(finish(out, self.negate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_knapsack() {
        // max 10a + 6b + 4c  s.t.  a+b+c <= 2, integer 0/1
        let mut m = Model::maximize();
        let a = m.int_var("a", 0, Some(1));
        let b = m.int_var("b", 0, Some(1));
        let c = m.int_var("c", 0, Some(1));
        m.set_objective(LinExpr::new() + (10, a) + (6, b) + (4, c));
        m.add_le(LinExpr::new() + (1, a) + (1, b) + (1, c), 2);
        let s = m.solve().expect("feasible");
        assert_eq!(s.objective_i64(), 16);
        assert_eq!(s.value_i64(a), 1);
        assert_eq!(s.value_i64(b), 1);
        assert_eq!(s.value_i64(c), 0);
    }

    #[test]
    fn integrality_matters() {
        // LP relaxation of: max x s.t. 2x <= 5 gives 5/2; ILP gives 2.
        let mut m = Model::maximize();
        let x = m.int_var("x", 0, None);
        m.set_objective(LinExpr::var(x));
        m.add_le(LinExpr::new() + (2, x), 5);
        let s = m.solve().expect("feasible");
        assert_eq!(s.objective_i64(), 2);
    }

    #[test]
    fn minimize_direction() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.int_var("x", 0, Some(100));
        m.set_objective(LinExpr::var(x));
        m.add_ge(LinExpr::new() + (3, x), 10);
        let s = m.solve().expect("feasible");
        assert_eq!(s.objective_i64(), 4); // ceil(10/3)
    }

    #[test]
    fn infeasible_reported() {
        let mut m = Model::maximize();
        let x = m.int_var("x", 0, Some(1));
        m.set_objective(LinExpr::var(x));
        m.add_ge(LinExpr::var(x), 2);
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_reported() {
        let mut m = Model::maximize();
        let x = m.int_var("x", 0, None);
        m.set_objective(LinExpr::var(x));
        assert_eq!(m.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn lower_bounds_respected() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.int_var("x", 3, Some(10));
        m.set_objective(LinExpr::var(x));
        let s = m.solve().expect("feasible");
        assert_eq!(s.objective_i64(), 3);
    }

    #[test]
    fn duplicate_terms_summed() {
        // max (x + x) s.t. 2x <= 6 -> x = 3, obj 6
        let mut m = Model::maximize();
        let x = m.int_var("x", 0, None);
        m.set_objective(LinExpr::new() + (1, x) + (1, x));
        m.add_le(LinExpr::new() + (2, x), 6);
        let s = m.solve().expect("feasible");
        assert_eq!(s.objective_i64(), 6);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max x + y, x integer <= 5/2 constraint, y continuous <= 1/2.
        let mut m = Model::maximize();
        let x = m.int_var("x", 0, None);
        let y = m.cont_var("y", 0, None);
        m.set_objective(LinExpr::new() + (1, x) + (1, y));
        m.add_le(LinExpr::new() + (2, x), 5);
        m.add_le(LinExpr::new() + (2, y), 1);
        let s = m.solve().expect("feasible");
        assert_eq!(s.value(x), Rat::int(2));
        assert_eq!(s.value(y), Rat::new(1, 2));
        assert_eq!(s.objective, Rat::new(5, 2));
    }
}
