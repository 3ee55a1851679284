//! Best-bound-first branch and bound with warm-started LP re-solves.
//!
//! The root LP relaxation is solved cold once. Each branch node then
//! *reuses* its parent's optimal tableau: the branching cut is appended as
//! one extra row ([`Tableau::add_cut`]) and primal feasibility is restored
//! with a handful of dual-simplex pivots, instead of rebuilding the
//! constraint system and running two-phase simplex from scratch. When a
//! warm start stalls (dual degeneracy) or the parent snapshot was dropped
//! to bound memory, the node falls back to a cold solve of the base rows
//! plus its branching path — correctness never depends on the warm path.
//!
//! Nodes are explored best-bound-first (largest LP relaxation bound first),
//! so a strong incumbent is found early and prunes aggressively: any node
//! whose bound is `<=` the incumbent objective cannot improve it (with a
//! floor strengthening when objective and variables are all integral).
//! Ties prefer deeper nodes and then the most recently pushed child (the
//! "up" branch — IPET maximisation tends to push counts to their upper
//! bounds), so on bound ties the search dives like the old DFS did.
//!
//! The branching path is stored persistently: an arena of cuts, each
//! holding a parent link plus the one bound added at that node. Pushing a
//! child is O(1) instead of cloning the whole cut list.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

use crate::model::{SolveError, SolveStats};
use crate::presolve;
use crate::rational::Rat;
use crate::simplex::{self, ColdOutcome, CutRel, Opt, PivotRule, Rel, Reopt, Row, Tableau};

/// Result of a successful branch-and-bound run.
#[derive(Debug)]
pub struct IlpOut {
    pub objective: Rat,
    pub values: Vec<Rat>,
    pub stats: SolveStats,
}

/// One node of the branching-path arena: the bound added at this node plus
/// a link to the cut inherited from the parent.
struct Cut {
    parent: Option<usize>,
    var: usize,
    rel: CutRel,
    bound: Rat,
}

struct Node {
    /// LP bound inherited from the parent (a valid upper bound for this
    /// node's subtree).
    bound: Rat,
    depth: u32,
    /// Monotone push counter; on bound/depth ties the larger (more recent)
    /// sequence number pops first.
    seq: u64,
    /// Arena index of this node's newest cut.
    cut: usize,
    /// Parent's optimal tableau, shared with the sibling. `None` when the
    /// snapshot budget was exhausted at push time (cold solve on pop).
    warm: Option<Rc<Tableau>>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Node) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Node) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Node) -> Ordering {
        self.bound
            .cmp(&other.bound)
            .then(self.depth.cmp(&other.depth))
            .then(self.seq.cmp(&other.seq))
    }
}

/// Maximum number of counted tableau snapshots on the frontier.
///
/// Both children of a branched node share their parent's optimal tableau
/// and count one snapshot each, so a solve holds at most this many live
/// snapshot tableaux. A node pushed while the count is at the cap carries
/// none and cold-solves when popped (a warm miss). No fleet or golden
/// instance reaches the cap: the widest frontier of the 2,688-config
/// fleet holds 31 counted snapshots, so every node but the root warm-starts
/// unless its dual re-optimisation stalls. The cap only bounds memory. A
/// snapshot costs its nonzeros plus the dense objective and right-hand
/// side: over the sweep and the fleet, the largest branching snapshot
/// takes 0.60 MB and the largest seed tableau (238 rows × 470 columns)
/// 0.62 MB, spare row capacity included, so 64 snapshots of that size
/// would take at most about 40 MB per solve.
const WARM_SNAPSHOT_CAP: usize = 64;

/// Branch-and-bound node budget of every [`crate::Model`] solve; past it
/// the solve fails with [`SolveError::NodeLimit`]. The costliest analysis
/// `ilp_work.txt` pins takes 61 nodes.
pub(crate) const NODE_LIMIT: usize = 200_000;

/// Reference driver replicating the seed solver: every node is solved cold
/// from the base rows plus its branching path, with Bland's rule
/// throughout (no warm starts, no Dantzig pricing, no presolve). Kept as
/// the baseline for differential tests and `repro micro`'s cold solve; not
/// used by production callers.
pub fn solve_cold(
    n_vars: usize,
    objective: &[(usize, Rat)],
    rows: &[Row],
    integers: &[usize],
    node_limit: usize,
) -> Result<IlpOut, SolveError> {
    run_core(
        n_vars, objective, rows, integers, node_limit, false, 0, None, None,
    )
}

/// Runs warm branch and bound on an already-presolved system and maps the
/// solution back to original variables. Split out of [`solve`] so a cached
/// [`crate::PresolvedModel`] can re-solve without repeating the reduction.
pub(crate) fn solve_reduced(
    p: &presolve::Presolved,
    node_limit: usize,
) -> Result<IlpOut, SolveError> {
    let mut out = run_core(
        p.n_vars,
        &p.objective,
        &p.rows,
        &p.integers,
        node_limit,
        true,
        p.eliminated,
        None,
        None,
    )?;
    out.objective += p.obj_const;
    out.values = p.expand(&out.values);
    Ok(out)
}

/// Warm branch and bound on a presolved system under a *replacement*
/// objective (already reduced; see [`presolve::Presolved::reduce_objective`]),
/// with the root LP warm-started from `seed` — an optimal tableau of the
/// same constraint system under some other objective. Only the objective
/// row differs, so the seed basis is primal-feasible as-is: the root is
/// re-optimised with a short Dantzig primal run instead of a cold
/// two-phase solve. `obj_const` is the constant the objective reduction
/// absorbed; values are expanded back to original variables.
///
/// `incumbent` may carry an integral point (reduced space) known feasible
/// for the rows — e.g. the seed solve's optimum. It is evaluated under the
/// replacement objective and primes the branch and bound as an initial
/// lower bound: subtrees that cannot strictly beat it prune immediately,
/// which collapses the tree whenever the seed point stays optimal (or
/// near-optimal) under the new objective. Sound because feasibility never
/// depends on the objective; a pruned subtree has LP bound `<=` the
/// incumbent value and so contains no strictly better point.
pub(crate) fn solve_seeded(
    p: &presolve::Presolved,
    objective: &[(usize, Rat)],
    obj_const: Rat,
    node_limit: usize,
    seed: &Tableau,
    incumbent: Option<&[Rat]>,
) -> Result<IlpOut, SolveError> {
    let prime = incumbent.map(|point| {
        let value = objective
            .iter()
            .fold(Rat::ZERO, |acc, &(j, c)| acc + c * point[j]);
        (value, point.to_vec())
    });
    let mut out = run_core(
        p.n_vars,
        objective,
        &p.rows,
        &p.integers,
        node_limit,
        true,
        p.eliminated,
        Some(seed),
        prime,
    )?;
    out.objective += obj_const;
    out.values = p.expand(&out.values);
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn run_core(
    n_vars: usize,
    objective: &[(usize, Rat)],
    rows: &[Row],
    integers: &[usize],
    node_limit: usize,
    warm: bool,
    presolve_eliminated: u64,
    seed: Option<&Tableau>,
    prime: Option<(Rat, Vec<Rat>)>,
) -> Result<IlpOut, SolveError> {
    // All-integral objective coefficients let us floor fractional LP bounds.
    let integral_obj = objective.iter().all(|(_, c)| c.is_integer()) && integers.len() == n_vars;

    let mut ctx = Ctx {
        n_vars,
        integers,
        integral_obj,
        warm,
        arena: Vec::new(),
        heap: BinaryHeap::new(),
        incumbent: prime,
        stats: SolveStats {
            presolve_eliminated,
            ..SolveStats::default()
        },
        seq: 0,
        live_snapshots: 0,
    };

    let rule = if warm {
        PivotRule::Dantzig
    } else {
        PivotRule::Bland
    };

    // Root: warm-started from the seed tableau when one is supplied (its
    // basis is primal-feasible for any objective — the rows are identical),
    // otherwise a cold two-phase solve.
    ctx.stats.nodes += 1;
    let root = match seed {
        Some(s) => {
            ctx.stats.warm_hits += 1;
            let mut t = s.clone();
            t.load_objective(objective);
            match t.optimize(&mut ctx.stats.primal_pivots, rule) {
                Opt::Optimal => t,
                Opt::Unbounded => return Err(SolveError::Unbounded),
            }
        }
        None => {
            ctx.stats.warm_misses += 1;
            match simplex::solve_cold(n_vars, objective, rows, &mut ctx.stats.primal_pivots, rule) {
                ColdOutcome::Optimal(t) => t,
                ColdOutcome::Infeasible => return Err(SolveError::Infeasible),
                ColdOutcome::Unbounded => return Err(SolveError::Unbounded),
            }
        }
    };
    ctx.offer(root, None, 0);

    while let Some(node) = ctx.heap.pop() {
        ctx.stats.nodes += 1;
        if ctx.stats.nodes > node_limit as u64 {
            return Err(SolveError::NodeLimit);
        }
        let warm_snapshot = node.warm;
        if warm_snapshot.is_some() {
            ctx.live_snapshots -= 1;
        }
        // Best-bound order makes this prune final for equal bounds, but the
        // incumbent may have improved since this node was pushed.
        if ctx.prunable(node.bound) {
            continue;
        }
        let Cut {
            var, rel, bound, ..
        } = ctx.arena[node.cut];

        // Warm path: take (or clone) the parent snapshot, append the cut,
        // restore feasibility with dual simplex.
        let mut solved: Option<Tableau> = None;
        if let Some(rc) = warm_snapshot {
            let mut t = Rc::try_unwrap(rc).unwrap_or_else(|rc| (*rc).clone());
            t.add_cut(var, rel, bound);
            match t.dual_reoptimize(&mut ctx.stats.dual_pivots) {
                Reopt::Optimal => {
                    ctx.stats.warm_hits += 1;
                    solved = Some(t);
                }
                Reopt::Infeasible => {
                    ctx.stats.warm_hits += 1;
                    continue;
                }
                Reopt::Stalled => {} // fall through to the cold path
            }
        }
        let t = match solved {
            Some(t) => t,
            None => {
                ctx.stats.warm_misses += 1;
                let mut all = rows.to_vec();
                all.extend(ctx.path_rows(node.cut));
                match simplex::solve_cold(
                    n_vars,
                    objective,
                    &all,
                    &mut ctx.stats.primal_pivots,
                    rule,
                ) {
                    ColdOutcome::Optimal(t) => t,
                    ColdOutcome::Infeasible => continue,
                    // Cuts only restrict the root region, which was bounded.
                    ColdOutcome::Unbounded => unreachable!("child of a bounded root is bounded"),
                }
            }
        };
        ctx.offer(t, Some(node.cut), node.depth);
    }

    let stats = ctx.stats;
    match ctx.incumbent {
        Some((objective, values)) => Ok(IlpOut {
            objective,
            values,
            stats,
        }),
        None => Err(SolveError::Infeasible),
    }
}

struct Ctx<'a> {
    n_vars: usize,
    integers: &'a [usize],
    integral_obj: bool,
    warm: bool,
    arena: Vec<Cut>,
    heap: BinaryHeap<Node>,
    incumbent: Option<(Rat, Vec<Rat>)>,
    stats: SolveStats,
    seq: u64,
    live_snapshots: usize,
}

impl Ctx<'_> {
    /// Tightest valid bound implied by an LP bound (floor strengthening).
    fn effective(&self, bound: Rat) -> Rat {
        if self.integral_obj {
            Rat::int(bound.floor())
        } else {
            bound
        }
    }

    fn prunable(&self, bound: Rat) -> bool {
        self.incumbent
            .as_ref()
            .is_some_and(|(obj, _)| self.effective(bound) <= *obj)
    }

    /// Reconstructs the branching path's rows by walking parent links
    /// (cold-solve fallback only).
    fn path_rows(&self, mut cut: usize) -> Vec<Row> {
        let mut v = Vec::new();
        loop {
            let c = &self.arena[cut];
            v.push(Row {
                coeffs: vec![(c.var, Rat::ONE)],
                rel: match c.rel {
                    CutRel::Le => Rel::Le,
                    CutRel::Ge => Rel::Ge,
                },
                rhs: c.bound,
            });
            match c.parent {
                Some(p) => cut = p,
                None => return v,
            }
        }
    }

    /// Handles a node solved to LP optimality: record an incumbent, prune,
    /// or branch (pushing both children onto the heap).
    fn offer(&mut self, t: Tableau, path: Option<usize>, depth: u32) {
        let bound = t.objective_value();
        if self.prunable(bound) {
            return;
        }
        let values = t.extract(self.n_vars);
        let frac = self
            .integers
            .iter()
            .copied()
            .find(|&i| !values[i].is_integer());
        let Some(i) = frac else {
            // Integral: candidate incumbent.
            if self.incumbent.as_ref().is_none_or(|(obj, _)| bound > *obj) {
                self.incumbent = Some((bound, values));
            }
            return;
        };
        let v = values[i];
        let warm = if self.warm && self.live_snapshots + 2 <= WARM_SNAPSHOT_CAP {
            Some(Rc::new(t))
        } else {
            None
        };
        if warm.is_some() {
            self.live_snapshots += 2;
        }
        let down = self.arena.len();
        self.arena.push(Cut {
            parent: path,
            var: i,
            rel: CutRel::Le,
            bound: Rat::int(v.floor()),
        });
        let up = self.arena.len();
        self.arena.push(Cut {
            parent: path,
            var: i,
            rel: CutRel::Ge,
            bound: Rat::int(v.ceil()),
        });
        // Up pushed second: its larger `seq` wins bound/depth ties.
        self.seq += 1;
        self.heap.push(Node {
            bound,
            depth: depth + 1,
            seq: self.seq,
            cut: down,
            warm: warm.clone(),
        });
        self.seq += 1;
        self.heap.push(Node {
            bound,
            depth: depth + 1,
            seq: self.seq,
            cut: up,
            warm,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128) -> Rat {
        Rat::int(n)
    }

    /// The production warm path as one call: presolve, then the reduced
    /// branch and bound (what `Model::solve` does via `PresolvedModel`).
    fn solve(
        n_vars: usize,
        objective: &[(usize, Rat)],
        rows: &[Row],
        integers: &[usize],
        node_limit: usize,
    ) -> Result<IlpOut, SolveError> {
        match presolve::reduce(n_vars, objective, rows, integers) {
            presolve::Outcome::Infeasible => Err(SolveError::Infeasible),
            presolve::Outcome::Reduced(p) => solve_reduced(&p, node_limit),
        }
    }

    #[test]
    fn branching_needed() {
        // max x + y s.t. 2x + 2y <= 5 (LP: 5/2, ILP: 2)
        let rows = vec![Row {
            coeffs: vec![(0, r(2)), (1, r(2))],
            rel: Rel::Le,
            rhs: r(5),
        }];
        let out = solve(2, &[(0, r(1)), (1, r(1))], &rows, &[0, 1], 1000).expect("feasible");
        assert_eq!(out.objective, r(2));
        assert!(out.stats.nodes >= 1);
    }

    #[test]
    fn node_limit_enforced() {
        // A problem requiring at least one branch, with a node budget of 1.
        let rows = vec![Row {
            coeffs: vec![(0, r(2))],
            rel: Rel::Le,
            rhs: r(5),
        }];
        let err = solve(1, &[(0, r(1))], &rows, &[0], 1).unwrap_err();
        assert_eq!(err, SolveError::NodeLimit);
    }

    #[test]
    fn warm_and_cold_agree() {
        // max 7x + 2y s.t. 3x + y <= 10, x + 2y <= 9, integers.
        let rows = vec![
            Row {
                coeffs: vec![(0, r(3)), (1, r(1))],
                rel: Rel::Le,
                rhs: r(10),
            },
            Row {
                coeffs: vec![(0, r(1)), (1, r(2))],
                rel: Rel::Le,
                rhs: r(9),
            },
        ];
        let obj = [(0, r(7)), (1, r(2))];
        let w = solve(2, &obj, &rows, &[0, 1], 1000).expect("feasible");
        let c = solve_cold(2, &obj, &rows, &[0, 1], 1000).expect("feasible");
        assert_eq!(w.objective, c.objective);
        assert!(w.stats.warm_hits > 0, "warm path never exercised");
        assert_eq!(c.stats.warm_hits, 0, "cold driver must not warm-start");
    }

    /// A knapsack whose best-first frontier holds more than 16 counted
    /// snapshots at once: every node still warm-starts, and the optimum
    /// is the cold driver's and a brute-force enumeration's.
    #[test]
    fn wide_frontier_stays_warm() {
        let dot = |coeffs: &[(usize, Rat)], x: &[i128]| {
            coeffs
                .iter()
                .fold(Rat::ZERO, |acc, &(j, c)| acc + c * r(x[j]))
        };
        let quarters = [7, 8, 8, 6, 7];
        let obj: Vec<(usize, Rat)> = (0..5).map(|j| (j, r(quarters[j]) / r(4))).collect();
        let ub = [3, 5, 3, 3, 6];
        let mut rows: Vec<Row> = [([8, 1, 1, 2, 9], 18), ([7, 5, 5, 5, 6], 38)]
            .iter()
            .map(|&(a, rhs)| Row {
                coeffs: (0..5).map(|j| (j, r(a[j]))).collect(),
                rel: Rel::Le,
                rhs: r(rhs),
            })
            .collect();
        rows.extend((0..5).map(|j| Row {
            coeffs: vec![(j, Rat::ONE)],
            rel: Rel::Le,
            rhs: r(ub[j]),
        }));
        let ints = [0, 1, 2, 3, 4];
        let w = solve(5, &obj, &rows, &ints, 1000).expect("feasible");
        assert_eq!(w.stats.warm_misses, 1, "only the unseeded root is cold");
        let c = solve_cold(5, &obj, &rows, &ints, 100_000).expect("feasible");
        assert_eq!(w.objective, c.objective);

        // Every integer point of the box, checked against both rows.
        let mut best: Option<Rat> = None;
        let mut x = [0i128; 5];
        'points: loop {
            if rows[..2].iter().all(|row| dot(&row.coeffs, &x) <= row.rhs) {
                let v = dot(&obj, &x);
                if best.is_none_or(|b| v > b) {
                    best = Some(v);
                }
            }
            for j in 0..5 {
                if x[j] < ub[j] {
                    x[j] += 1;
                    continue 'points;
                }
                x[j] = 0;
            }
            break;
        }
        assert_eq!(Some(w.objective), best);
    }

    #[test]
    fn stats_accounting_consistent() {
        let rows = vec![Row {
            coeffs: vec![(0, r(2)), (1, r(2))],
            rel: Rel::Le,
            rhs: r(5),
        }];
        let out = solve(2, &[(0, r(1)), (1, r(1))], &rows, &[0, 1], 1000).expect("feasible");
        // Every node is either warm-hit, warm-missed (cold-solved), or
        // pruned/infeasible before any solve; solves never exceed nodes.
        assert!(out.stats.warm_hits + out.stats.warm_misses <= out.stats.nodes);
        assert!(out.stats.warm_misses >= 1, "root is always a cold solve");
    }
}
