//! Sparse-row simplex over exact rationals: two-phase primal solves plus
//! incremental re-solves for branch and bound.
//!
//! The solver accepts problems of the form
//!
//! ```text
//! maximize  c . x
//! s.t.      a_i . x  (<= | >= | =)  b_i     for each row i
//!           x >= 0
//! ```
//!
//! Two ways in:
//!
//! * [`solve_cold`] builds a tableau from scratch and runs phase 1 (if any
//!   `>=`/`=` rows need artificials) and phase 2 — the classical two-phase
//!   primal simplex. This is the root solve of every branch-and-bound run
//!   and the fallback for warm starts that stall.
//! * An optimal [`Tableau`] can be *reused*: [`Tableau::add_cut`] appends
//!   one variable-bound row (a branching cut) priced out against the
//!   current basis, and [`Tableau::dual_reoptimize`] restores primal
//!   feasibility with dual-simplex pivots. Because the parent's optimal
//!   basis stays dual-feasible when rows are added, a child node typically
//!   needs a handful of pivots instead of a full cold solve.
//!
//! Pivoting uses the largest-coefficient (Dantzig) rule on the common
//! path; after a run of consecutive degenerate pivots it falls back to
//! Bland's smallest-index rule, which provably cannot cycle, until the
//! objective strictly improves again. This keeps the termination guarantee
//! of the original Bland-only implementation while pivoting far less.
//!
//! IPET tableaus are over 99% zeros, so each constraint row stores only its
//! nonzero entries, sorted by column. Storage, copies (a re-solve clones
//! the seed tableau; branch and bound clones snapshots) and row operations
//! then cost the nonzeros, not `m x total` cells. The representation never
//! changes a pivot choice: [`Rat`] values are canonical, so a dropped zero
//! is exactly the value a dense tableau would hold, and every rule
//! below reads the same values in the same column order.

use crate::rational::Rat;

/// Relational operator of a constraint row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rel {
    /// `a . x <= b`
    Le,
    /// `a . x >= b`
    Ge,
    /// `a . x == b`
    Eq,
}

/// One constraint row: sparse coefficients over the structural variables.
#[derive(Clone, Debug)]
pub struct Row {
    /// `(variable index, coefficient)` pairs; indices are unique.
    pub coeffs: Vec<(usize, Rat)>,
    /// Relational operator.
    pub rel: Rel,
    /// Right-hand side.
    pub rhs: Rat,
}

/// Direction of a branching cut on a single variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CutRel {
    /// `x_i <= bound` (the "down" branch).
    Le,
    /// `x_i >= bound` (the "up" branch).
    Ge,
}

/// Outcome of an LP solve (convenience wrapper used by the unit tests;
/// production callers go through [`solve_cold`] to keep the tableau).
#[cfg(test)]
#[derive(Clone, Debug)]
pub enum LpResult {
    /// Optimal solution found: objective value and one optimal assignment of
    /// the structural variables.
    Optimal { objective: Rat, values: Vec<Rat> },
    /// The constraint system has no feasible point.
    Infeasible,
    /// The objective is unbounded above on the feasible region.
    Unbounded,
}

/// Outcome of a cold (from-scratch) solve, keeping the tableau for reuse.
pub enum ColdOutcome {
    /// Optimal; the tableau is positioned at the optimum.
    Optimal(Tableau),
    /// No feasible point.
    Infeasible,
    /// Unbounded above.
    Unbounded,
}

/// Entering-column selection rule for the primal simplex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PivotRule {
    /// Largest-coefficient selection, with an automatic switch to Bland's
    /// rule after a run of degenerate pivots (the production rule).
    Dantzig,
    /// Bland's smallest-index rule throughout — the seed solver's
    /// behaviour, kept as the measurable baseline for the cold path.
    Bland,
}

/// Outcome of a dual-simplex reoptimization after [`Tableau::add_cut`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reopt {
    /// Optimal again; the tableau is positioned at the new optimum.
    Optimal,
    /// The cut made the problem infeasible (prune the node).
    Infeasible,
    /// Iteration cap hit (extreme degeneracy); caller should solve cold.
    Stalled,
}

/// Maximises `objective . x` subject to `rows` and `x >= 0`.
///
/// `n_vars` is the number of structural variables; every coefficient index in
/// `rows` and `objective` must be `< n_vars`.
#[cfg(test)]
pub fn maximize(n_vars: usize, objective: &[(usize, Rat)], rows: &[Row]) -> LpResult {
    let mut pivots = 0u64;
    match solve_cold(n_vars, objective, rows, &mut pivots, PivotRule::Dantzig) {
        ColdOutcome::Optimal(t) => {
            t.assert_well_formed(true);
            LpResult::Optimal {
                objective: t.objective_value(),
                values: t.extract(n_vars),
            }
        }
        ColdOutcome::Infeasible => LpResult::Infeasible,
        ColdOutcome::Unbounded => LpResult::Unbounded,
    }
}

/// Two-phase primal solve from scratch, counting pivots into `pivots`.
pub fn solve_cold(
    n_vars: usize,
    objective: &[(usize, Rat)],
    rows: &[Row],
    pivots: &mut u64,
    rule: PivotRule,
) -> ColdOutcome {
    let mut t = Tableau::build(n_vars, rows);
    if t.needs_phase1() {
        match t.phase1(pivots, rule) {
            Phase1::Feasible => {}
            Phase1::Infeasible => return ColdOutcome::Infeasible,
        }
    }
    t.load_objective(objective);
    match t.optimize(pivots, rule) {
        Opt::Optimal => ColdOutcome::Optimal(t),
        Opt::Unbounded => ColdOutcome::Unbounded,
    }
}

enum Phase1 {
    Feasible,
    Infeasible,
}

/// What a primal step along one column would do at a feasible basis (see
/// [`Tableau::column_steps`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Step {
    /// No positive entry: nothing blocks the step (an unbounded ray).
    Unblocked,
    /// Blocked, by rows with positive rhs only: a strictly positive step.
    Positive,
    /// Blocked by a zero-rhs row: a degenerate (zero) step.
    Degenerate,
}

/// One sparse tableau row: `(column, value)` entries with strictly
/// increasing columns and no zero values.
type SparseRow = Vec<(usize, Rat)>;

/// The value at column `col` of a sparse row (zero when not stored).
fn entry(row: &[(usize, Rat)], col: usize) -> Rat {
    match row.binary_search_by_key(&col, |&(j, _)| j) {
        Ok(k) => row[k].1,
        Err(_) => Rat::ZERO,
    }
}

/// `out := coeffs + scale * terms` over sparse rows sorted by index, with
/// exact zeros dropped. `out` is cleared first, so one buffer can serve a
/// run of merges.
pub(crate) fn add_scaled(
    out: &mut SparseRow,
    coeffs: &[(usize, Rat)],
    scale: Rat,
    terms: &[(usize, Rat)],
) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < coeffs.len() || j < terms.len() {
        let take_left = j == terms.len() || (i < coeffs.len() && coeffs[i].0 < terms[j].0);
        let (idx, c) = if take_left {
            let t = coeffs[i];
            i += 1;
            t
        } else if i == coeffs.len() || terms[j].0 < coeffs[i].0 {
            let (idx, t) = terms[j];
            j += 1;
            (idx, scale * t)
        } else {
            let c = coeffs[i].1 + scale * terms[j].1;
            let idx = coeffs[i].0;
            i += 1;
            j += 1;
            (idx, c)
        };
        if !c.is_zero() {
            out.push((idx, c));
        }
    }
}

pub(crate) enum Opt {
    Optimal,
    Unbounded,
}

/// Simplex tableau with sparse constraint rows.
///
/// Layout: `m` constraint rows over `total` columns — structural variables,
/// then slack/surplus, then artificial (`art_start..art_end`), then the
/// slacks of rows appended by [`Tableau::add_cut`] — one `rhs` column, and
/// an objective row `z` (stored as reduced costs; a column with negative
/// entry improves the maximisation). `basis[i]` is the column basic in row
/// `i`. Artificial columns are never eligible to (re-)enter the basis.
/// Constraint rows store their nonzeros only; `rhs` and `obj` stay dense.
#[derive(Clone)]
pub struct Tableau {
    m: usize,
    total: usize,
    /// Row `i`'s nonzero entries; its right-hand side is `rhs[i]`.
    a: Vec<SparseRow>,
    rhs: Vec<Rat>,
    obj: Vec<Rat>,
    obj_rhs: Rat,
    basis: Vec<usize>,
    /// Artificial columns occupy `art_start..art_end`; columns appended by
    /// `add_cut` land at `>= art_end` and are ordinary slacks.
    art_start: usize,
    art_end: usize,
}

impl Tableau {
    /// Row normalisation for the initial basis: the effective relation and
    /// the sign the row is scaled by. The rhs must come out nonnegative so
    /// a slack can start basic where possible. `>=` rows with a *zero* rhs
    /// are negated into `<=` rows — their surplus then serves as the
    /// (degenerate) initial basic variable, saving an artificial that
    /// phase 1 would otherwise have to drive out again.
    fn normalise(rel: Rel, rhs: Rat) -> (Rel, Rat) {
        let flip = rhs.is_negative() || (rel == Rel::Ge && rhs.is_zero());
        if !flip {
            return (rel, Rat::ONE);
        }
        let eff = match rel {
            Rel::Le => Rel::Ge,
            Rel::Ge => Rel::Le,
            Rel::Eq => Rel::Eq,
        };
        (eff, -Rat::ONE)
    }

    fn build(n_vars: usize, rows: &[Row]) -> Tableau {
        let m = rows.len();
        // Count auxiliary columns.
        let mut n_slack = 0;
        let mut n_art = 0;
        for r in rows {
            match Tableau::normalise(r.rel, r.rhs) {
                (Rel::Le, _) => n_slack += 1,
                (Rel::Ge, _) => {
                    n_slack += 1;
                    n_art += 1;
                }
                (Rel::Eq, _) => n_art += 1,
            }
        }
        let total = n_vars + n_slack + n_art;
        let art_start = n_vars + n_slack;
        let mut a = Vec::with_capacity(m);
        let mut rhs = vec![Rat::ZERO; m];
        let mut basis = vec![0usize; m];
        let mut next_slack = n_vars;
        let mut next_art = art_start;

        for (i, r) in rows.iter().enumerate() {
            let (eff_rel, sign) = Tableau::normalise(r.rel, r.rhs);
            // Coefficients in column order, then the slack, then the
            // artificial: every structural column precedes every slack,
            // every slack every artificial, so the row comes out sorted.
            let mut row: SparseRow = r
                .coeffs
                .iter()
                .filter(|(_, c)| !c.is_zero())
                .map(|&(j, c)| (j, c * sign))
                .collect();
            row.sort_unstable_by_key(|&(j, _)| j);
            debug_assert!(
                row.windows(2).all(|w| w[0].0 < w[1].0)
                    && row.last().is_none_or(|&(j, _)| j < n_vars),
                "rt-ilp: coefficient indices must be unique and in range"
            );
            rhs[i] = r.rhs * sign;
            match eff_rel {
                Rel::Le => {
                    row.push((next_slack, Rat::ONE));
                    basis[i] = next_slack;
                    next_slack += 1;
                }
                Rel::Ge => {
                    row.push((next_slack, -Rat::ONE));
                    next_slack += 1;
                    row.push((next_art, Rat::ONE));
                    basis[i] = next_art;
                    next_art += 1;
                }
                Rel::Eq => {
                    row.push((next_art, Rat::ONE));
                    basis[i] = next_art;
                    next_art += 1;
                }
            }
            a.push(row);
        }
        Tableau {
            m,
            total,
            a,
            rhs,
            obj: vec![Rat::ZERO; total],
            obj_rhs: Rat::ZERO,
            basis,
            art_start,
            art_end: total,
        }
    }

    fn needs_phase1(&self) -> bool {
        self.art_start < self.art_end
    }

    /// Columns allowed to enter the basis: everything except artificials.
    fn eligible_cols(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.art_start).chain(self.art_end..self.total)
    }

    /// Phase 1: minimise the sum of artificial variables.
    fn phase1(&mut self, pivots: &mut u64, rule: PivotRule) -> Phase1 {
        // Maximise -(sum of artificials): obj row = sum of artificial rows
        // projected out of the basis.
        self.obj = vec![Rat::ZERO; self.total];
        self.obj_rhs = Rat::ZERO;
        for j in self.art_start..self.art_end {
            self.obj[j] = Rat::ONE;
        }
        // Price out basic artificials.
        for i in 0..self.m {
            if self.is_artificial(self.basis[i]) {
                for &(j, v) in &self.a[i] {
                    self.obj[j] -= v;
                }
                self.obj_rhs -= self.rhs[i];
            }
        }
        match self.optimize(pivots, rule) {
            Opt::Optimal => {}
            Opt::Unbounded => unreachable!("phase-1 objective is bounded above by zero"),
        }
        // Optimal phase-1 value is -obj_rhs... we track obj_rhs as the
        // negated accumulated objective; feasible iff the artificial sum is 0.
        if !self.obj_rhs.is_zero() {
            return Phase1::Infeasible;
        }
        // Drive any artificial variables remaining in the basis out (they
        // must have value zero). If a row is all-zero over non-artificial
        // columns it is redundant and can keep its zero artificial. No cut
        // columns exist yet, so every non-artificial column precedes the
        // artificials: the row's first entry is its first candidate.
        let mut column = Vec::new();
        for i in 0..self.m {
            if self.is_artificial(self.basis[i]) {
                if let Some(&(j, _)) = self.a[i].first().filter(|&&(j, _)| j < self.art_start) {
                    self.gather_column(j, &mut column);
                    self.pivot(i, j, &column);
                    *pivots += 1;
                }
            }
        }
        Phase1::Feasible
    }

    fn is_artificial(&self, col: usize) -> bool {
        (self.art_start..self.art_end).contains(&col)
    }

    /// Installs the phase-2 objective (maximise `c . x`), pricing out basic
    /// columns.
    pub(crate) fn load_objective(&mut self, objective: &[(usize, Rat)]) {
        self.obj = vec![Rat::ZERO; self.total];
        self.obj_rhs = Rat::ZERO;
        for &(j, c) in objective {
            self.obj[j] -= c; // reduced-cost convention: negative => improving
        }
        for i in 0..self.m {
            let coeff = self.obj[self.basis[i]];
            if !coeff.is_zero() {
                for &(j, v) in &self.a[i] {
                    self.obj[j] -= coeff * v;
                }
                self.obj_rhs -= coeff * self.rhs[i];
            }
        }
    }

    /// Gathers column `col`'s nonzero entries into `out` as `(row, value)`
    /// in row order, so one pivot's ratio test and row updates read them
    /// without searching every row again.
    fn gather_column(&self, col: usize, out: &mut Vec<(usize, Rat)>) {
        out.clear();
        for (i, row) in self.a.iter().enumerate() {
            let v = entry(row, col);
            if !v.is_zero() {
                out.push((i, v));
            }
        }
    }

    /// Ratio test over an entering column gathered by
    /// [`Tableau::gather_column`]: the blocking row with the minimum
    /// `rhs/a` over positive entries, ties broken on the smallest basis
    /// index (which is what Bland's anti-cycling argument needs). `None`
    /// means no blocking row — the column is an unbounded ray.
    fn ratio_row(&self, column: &[(usize, Rat)]) -> Option<(usize, Rat)> {
        let mut leave: Option<(usize, Rat)> = None;
        for &(i, aij) in column {
            if aij.is_positive() {
                let ratio = self.rhs[i] / aij;
                let better = match &leave {
                    None => true,
                    Some((li, lr)) => {
                        ratio < *lr || (ratio == *lr && self.basis[i] < self.basis[*li])
                    }
                };
                if better {
                    leave = Some((i, ratio));
                }
            }
        }
        leave
    }

    /// Classifies every column's primal step in one pass over the rows.
    ///
    /// Only meaningful at a primal-feasible basis (every rhs `>= 0`): there
    /// a column's minimum ratio is zero exactly when it has a positive
    /// entry in a zero-rhs row, and it has no blocking row exactly when it
    /// has no positive entry at all — so this answers, for every column at
    /// once, what a [`Tableau::ratio_row`] call per column would.
    fn column_steps(&self) -> Vec<Step> {
        let mut steps = vec![Step::Unblocked; self.total];
        for (row, rhs) in self.a.iter().zip(&self.rhs) {
            for &(j, v) in row {
                if v.is_positive() {
                    if rhs.is_zero() {
                        steps[j] = Step::Degenerate;
                    } else if steps[j] == Step::Unblocked {
                        steps[j] = Step::Positive;
                    }
                }
            }
        }
        steps
    }

    /// Runs primal simplex iterations until optimal or unbounded.
    ///
    /// Entering column under [`PivotRule::Dantzig`]: most negative reduced
    /// cost. If that column's step would be degenerate (zero ratio), the
    /// other improving columns are scanned for one that makes *strict*
    /// progress — on highly degenerate bases (IPET flow systems, where
    /// most equality rows have zero right-hand sides) this avoids long
    /// stalls of bookkeeping pivots that largest-coefficient pricing alone
    /// walks straight into. The scan prices every candidate from one pass
    /// over the rows ([`Tableau::column_steps`]) and runs the ratio test
    /// for the chosen column only. After `2m + 16` consecutive degenerate
    /// pivots the rule switches to Bland (smallest index) until progress
    /// resumes — termination stays guaranteed because Bland episodes
    /// cannot cycle and strict objective increases are finite.
    ///
    /// The entering column is gathered once per pivot, and the ratio test
    /// and the pivot's row updates both read that list.
    pub(crate) fn optimize(&mut self, pivots: &mut u64, rule: PivotRule) -> Opt {
        debug_assert!(
            self.rhs.iter().all(|r| !r.is_negative()),
            "rt-ilp: primal simplex entered at an infeasible basis"
        );
        let threshold = match rule {
            PivotRule::Dantzig => 2 * self.m + 16,
            PivotRule::Bland => 0,
        };
        let mut degenerate = 0usize;
        let mut column = Vec::new();
        loop {
            let (enter, leave) = if degenerate < threshold {
                let mut best: Option<(usize, Rat)> = None;
                for j in self.eligible_cols() {
                    let c = self.obj[j];
                    if c.is_negative() && best.is_none_or(|(_, bc)| c < bc) {
                        best = Some((j, c));
                    }
                }
                let Some((j0, _)) = best else {
                    return Opt::Optimal;
                };
                self.gather_column(j0, &mut column);
                match self.ratio_row(&column) {
                    None => return Opt::Unbounded,
                    Some((row, ratio)) if !ratio.is_zero() => (j0, (row, ratio)),
                    Some(blocked) => {
                        // Degenerate under the standard pick: prefer the
                        // best-priced improving column with a strictly
                        // positive step, if any exists.
                        let steps = self.column_steps();
                        let mut alt: Option<(usize, Rat)> = None;
                        for j in self.eligible_cols() {
                            let c = self.obj[j];
                            if j == j0 || !c.is_negative() {
                                continue;
                            }
                            if alt.is_some_and(|(_, ac)| ac <= c) {
                                continue; // not better priced than current alt
                            }
                            match steps[j] {
                                Step::Unblocked => return Opt::Unbounded,
                                Step::Positive => alt = Some((j, c)),
                                Step::Degenerate => {}
                            }
                        }
                        match alt {
                            Some((j, _)) => {
                                self.gather_column(j, &mut column);
                                let leave = self.ratio_row(&column);
                                (j, leave.expect("a positive step has a blocking row"))
                            }
                            None => (j0, blocked),
                        }
                    }
                }
            } else {
                let Some(j) = self.eligible_cols().find(|&j| self.obj[j].is_negative()) else {
                    return Opt::Optimal;
                };
                self.gather_column(j, &mut column);
                match self.ratio_row(&column) {
                    None => return Opt::Unbounded,
                    Some(leave) => (j, leave),
                }
            };
            let (row, ratio) = leave;
            self.pivot(row, enter, &column);
            *pivots += 1;
            if ratio.is_zero() {
                degenerate += 1;
            } else {
                degenerate = 0;
            }
        }
    }

    /// Appends the branching cut `x_var (<=|>=) bound` as a new row with its
    /// own slack column, priced out against the current basis. The tableau
    /// stays dual-feasible (the new slack enters the basis with objective
    /// coefficient zero); call [`Tableau::dual_reoptimize`] to restore
    /// primal feasibility.
    pub fn add_cut(&mut self, var: usize, rel: CutRel, bound: Rat) {
        debug_assert!(var < self.art_start, "cut on non-structural column");
        let slack_col = self.total;
        self.obj.push(Rat::ZERO);
        self.total += 1;

        // Express the cut in `<=` form: Le is x + s = b, Ge is -x + s = -b.
        let (coeff, mut rhs) = match rel {
            CutRel::Le => (Rat::ONE, bound),
            CutRel::Ge => (-Rat::ONE, -bound),
        };
        let mut row = vec![(var, coeff), (slack_col, Rat::ONE)];
        // Price out: the only potentially-basic column in the new row is
        // `var` itself; a basic column has a unit column elsewhere, so one
        // row subtraction leaves every basic column at zero.
        if let Some(r) = (0..self.m).find(|&i| self.basis[i] == var) {
            let cut = std::mem::take(&mut row);
            add_scaled(&mut row, &cut, -coeff, &self.a[r]);
            rhs -= coeff * self.rhs[r];
        }
        self.a.push(row);
        self.rhs.push(rhs);
        self.basis.push(slack_col);
        self.m += 1;
    }

    /// Dual-simplex pivots until primal feasibility returns (`Optimal`),
    /// the region proves empty (`Infeasible`), or an iteration cap is hit
    /// (`Stalled` — the caller falls back to a cold solve; the cap is the
    /// anti-cycling guard for the dual iteration).
    pub fn dual_reoptimize(&mut self, pivots: &mut u64) -> Reopt {
        let cap = 4 * self.m + 64;
        let mut column = Vec::new();
        for _ in 0..cap {
            // Leaving row: most negative rhs (row index breaks ties).
            let mut leave: Option<(usize, Rat)> = None;
            for i in 0..self.m {
                let r = self.rhs[i];
                if r.is_negative() && leave.is_none_or(|(_, lr)| r < lr) {
                    leave = Some((i, r));
                }
            }
            let Some((row, _)) = leave else {
                return Reopt::Optimal;
            };
            // Entering column: dual ratio test — minimise
            // obj[j] / -a[row][j] over eligible columns with a[row][j] < 0
            // (smallest column index breaks ties: entries come in column
            // order). Reduced costs are nonnegative at a dual-feasible
            // point, so the minimum keeps them nonnegative after the pivot.
            let mut enter: Option<(usize, Rat)> = None;
            for &(j, arj) in &self.a[row] {
                if arj.is_negative() && !self.is_artificial(j) {
                    let ratio = self.obj[j] / -arj;
                    let better = match &enter {
                        None => true,
                        Some((ej, er)) => ratio < *er || (ratio == *er && j < *ej),
                    };
                    if better {
                        enter = Some((j, ratio));
                    }
                }
            }
            let Some((col, _)) = enter else {
                // The violated row has no negative entry: its equation has
                // no feasible completion — the cut emptied the region.
                return Reopt::Infeasible;
            };
            self.gather_column(col, &mut column);
            self.pivot(row, col, &column);
            *pivots += 1;
        }
        Reopt::Stalled
    }

    /// Pivots `col` into the basis at `row`. `column` is `col`'s nonzero
    /// entries as [`Tableau::gather_column`] gathered them: exactly the
    /// rows the elimination touches.
    fn pivot(&mut self, row: usize, col: usize, column: &[(usize, Rat)]) {
        // Taken out of the tableau while the other rows are updated from
        // it, and put back at the end.
        let mut pivot_row = std::mem::take(&mut self.a[row]);
        let p = entry(&pivot_row, col);
        debug_assert!(!p.is_zero(), "rt-ilp: pivot on zero element");
        let inv = p.recip();
        for (_, v) in &mut pivot_row {
            *v = *v * inv;
        }
        self.rhs[row] = self.rhs[row] * inv;
        let pivot_rhs = self.rhs[row];
        // Each merge is built in `scratch` and swapped in, so the buffer
        // then holds the replaced row's allocation for the next merge.
        let mut scratch = Vec::new();
        for &(i, f) in column {
            if i != row {
                add_scaled(&mut scratch, &self.a[i], -f, &pivot_row);
                std::mem::swap(&mut self.a[i], &mut scratch);
                self.rhs[i] -= f * pivot_rhs;
            }
        }
        let f = self.obj[col];
        if !f.is_zero() {
            for &(j, v) in &pivot_row {
                self.obj[j] -= f * v;
            }
            self.obj_rhs -= f * pivot_rhs;
        }
        self.a[row] = pivot_row;
        self.basis[row] = col;
    }

    /// Objective value at the current (optimal) basic solution.
    pub fn objective_value(&self) -> Rat {
        // Invariant maintained by all row operations: for every feasible x,
        // obj . x = obj_rhs - z. At a basic solution the basic columns of
        // `obj` are zero and nonbasic variables are zero, so z = obj_rhs.
        self.obj_rhs
    }

    /// Values of the first `n_vars` (structural) variables.
    pub fn extract(&self, n_vars: usize) -> Vec<Rat> {
        let mut x = vec![Rat::ZERO; n_vars];
        for i in 0..self.m {
            let b = self.basis[i];
            if b < n_vars {
                x[b] = self.rhs[i];
            }
        }
        x
    }
}

#[cfg(test)]
impl Tableau {
    /// Panics unless the tableau is well formed: every row's columns
    /// strictly increase, below `total`, with no stored zero; every basic
    /// column is a unit column with zero reduced cost; and, when `optimal`
    /// (an `optimize` or `dual_reoptimize` that returned optimal), every
    /// rhs is nonnegative.
    fn assert_well_formed(&self, optimal: bool) {
        assert_eq!(self.a.len(), self.m);
        assert_eq!(self.rhs.len(), self.m);
        assert_eq!(self.basis.len(), self.m);
        assert_eq!(self.obj.len(), self.total);
        for (i, row) in self.a.iter().enumerate() {
            assert!(
                row.windows(2).all(|w| w[0].0 < w[1].0),
                "row {i}: columns not strictly increasing"
            );
            for &(j, v) in row {
                assert!(j < self.total, "row {i}: column {j} >= {}", self.total);
                assert!(!v.is_zero(), "row {i}: stored zero at column {j}");
            }
        }
        for (i, &b) in self.basis.iter().enumerate() {
            for (k, row) in self.a.iter().enumerate() {
                let unit = if k == i { Rat::ONE } else { Rat::ZERO };
                assert_eq!(entry(row, b), unit, "basic column {b} at row {k}");
            }
            assert!(
                self.obj[b].is_zero(),
                "basic column {b}: nonzero reduced cost"
            );
        }
        if optimal {
            assert!(
                self.rhs.iter().all(|r| !r.is_negative()),
                "optimal basis with a negative rhs"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(n: i128) -> Rat {
        Rat::int(n)
    }

    fn row(coeffs: &[(usize, i128)], rel: Rel, rhs: i128) -> Row {
        Row {
            coeffs: coeffs.iter().map(|&(j, c)| (j, r(c))).collect(),
            rel,
            rhs: r(rhs),
        }
    }

    #[test]
    fn textbook_maximum() {
        // max 3x + 2y  s.t.  x + y <= 7, 2x + y <= 10
        let rows = vec![
            row(&[(0, 1), (1, 1)], Rel::Le, 7),
            row(&[(0, 2), (1, 1)], Rel::Le, 10),
        ];
        match maximize(2, &[(0, r(3)), (1, r(2))], &rows) {
            LpResult::Optimal { objective, values } => {
                assert_eq!(objective, r(17));
                assert_eq!(values, vec![r(3), r(4)]);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn equality_and_ge() {
        // max x + y  s.t.  x + y = 4, x >= 1, y >= 2  -> 4
        let rows = vec![
            row(&[(0, 1), (1, 1)], Rel::Eq, 4),
            row(&[(0, 1)], Rel::Ge, 1),
            row(&[(1, 1)], Rel::Ge, 2),
        ];
        match maximize(2, &[(0, r(1)), (1, r(1))], &rows) {
            LpResult::Optimal { objective, .. } => assert_eq!(objective, r(4)),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn infeasible() {
        let rows = vec![row(&[(0, 1)], Rel::Le, 1), row(&[(0, 1)], Rel::Ge, 2)];
        assert!(matches!(
            maximize(1, &[(0, r(1))], &rows),
            LpResult::Infeasible
        ));
    }

    #[test]
    fn unbounded() {
        let rows = vec![row(&[(0, 1)], Rel::Ge, 1)];
        assert!(matches!(
            maximize(1, &[(0, r(1))], &rows),
            LpResult::Unbounded
        ));
    }

    #[test]
    fn negative_rhs_normalised() {
        // x - y <= -2 with x,y >= 0: equivalent to y >= x + 2.
        // max x s.t. x - y <= -2, y <= 5  => x = 3.
        let rows = vec![
            row(&[(0, 1), (1, -1)], Rel::Le, -2),
            row(&[(1, 1)], Rel::Le, 5),
        ];
        match maximize(2, &[(0, r(1))], &rows) {
            LpResult::Optimal { objective, .. } => assert_eq!(objective, r(3)),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn fractional_optimum() {
        // max y s.t. 2y <= 5 => y = 5/2
        let rows = vec![row(&[(0, 2)], Rel::Le, 5)];
        match maximize(1, &[(0, r(1))], &rows) {
            LpResult::Optimal { objective, values } => {
                assert_eq!(objective, Rat::new(5, 2));
                assert_eq!(values[0], Rat::new(5, 2));
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_no_cycle() {
        // A classic degenerate instance; the Bland fallback must terminate.
        let rows = vec![
            row(&[(0, 1), (1, 1), (2, 1)], Rel::Le, 0),
            row(&[(0, 1), (1, -1)], Rel::Le, 0),
            row(&[(0, -1), (1, 1)], Rel::Le, 0),
        ];
        match maximize(3, &[(0, r(1)), (1, r(1)), (2, r(1))], &rows) {
            LpResult::Optimal { objective, .. } => assert_eq!(objective, r(0)),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn redundant_equalities() {
        // x + y = 2 stated twice; still feasible and solvable.
        let rows = vec![
            row(&[(0, 1), (1, 1)], Rel::Eq, 2),
            row(&[(0, 1), (1, 1)], Rel::Eq, 2),
        ];
        match maximize(2, &[(0, r(1))], &rows) {
            LpResult::Optimal { objective, .. } => assert_eq!(objective, r(2)),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_alternative_pivots_its_own_column() {
        // max x + y  s.t.  x - y <= 0, x + y <= 4. Dantzig prices x first
        // (a tie keeps the earlier column), but row 0 blocks x at a zero
        // step. y steps strictly (row 1, ratio 4), so the alternative
        // branch pivots y, gathered afresh, and is optimal after one pivot;
        // Bland's rule takes x's degenerate pivot first and ends at another
        // vertex of the same optimal face.
        let rows = vec![
            row(&[(0, 1), (1, -1)], Rel::Le, 0),
            row(&[(0, 1), (1, 1)], Rel::Le, 4),
        ];
        let objective = [(0, r(1)), (1, r(1))];
        let solve = |rule| {
            let mut pivots = 0;
            let ColdOutcome::Optimal(t) = solve_cold(2, &objective, &rows, &mut pivots, rule)
            else {
                panic!("{rule:?}: expected optimal");
            };
            t.assert_well_formed(true);
            (t.objective_value(), t.extract(2), pivots)
        };
        let (dantzig, bland) = (solve(PivotRule::Dantzig), solve(PivotRule::Bland));
        assert_eq!(dantzig.0, bland.0);
        assert_eq!(dantzig, (r(4), vec![r(0), r(4)], 1));
        assert_eq!(bland, (r(4), vec![r(2), r(2)], 2));
    }

    // --- warm-start machinery -------------------------------------------

    /// Cold-solves, then applies `cuts` one at a time via the warm path and
    /// checks the objective against a cold solve of the full system.
    fn check_warm_matches_cold(
        n_vars: usize,
        objective: &[(usize, Rat)],
        rows: &[Row],
        cuts: &[(usize, CutRel, i128)],
    ) {
        let mut pivots = 0u64;
        let ColdOutcome::Optimal(mut warm) =
            solve_cold(n_vars, objective, rows, &mut pivots, PivotRule::Dantzig)
        else {
            panic!("base problem must be solvable");
        };
        warm.assert_well_formed(true);
        let mut all_rows = rows.to_vec();
        for &(var, rel, bound) in cuts {
            warm.add_cut(var, rel, Rat::int(bound));
            warm.assert_well_formed(false);
            all_rows.push(Row {
                coeffs: vec![(var, Rat::ONE)],
                rel: match rel {
                    CutRel::Le => Rel::Le,
                    CutRel::Ge => Rel::Ge,
                },
                rhs: Rat::int(bound),
            });
            let reopt = warm.dual_reoptimize(&mut pivots);
            warm.assert_well_formed(reopt == Reopt::Optimal);
            match maximize(n_vars, objective, &all_rows) {
                LpResult::Optimal { objective: o, .. } => {
                    assert_eq!(reopt, Reopt::Optimal, "cuts {cuts:?}");
                    assert_eq!(warm.objective_value(), o, "cuts {cuts:?}");
                }
                LpResult::Infeasible => {
                    assert_eq!(reopt, Reopt::Infeasible, "cuts {cuts:?}");
                    return;
                }
                LpResult::Unbounded => unreachable!("cuts only restrict"),
            }
        }
    }

    #[test]
    fn warm_cut_le_matches_cold() {
        let rows = vec![
            row(&[(0, 1), (1, 1)], Rel::Le, 7),
            row(&[(0, 2), (1, 1)], Rel::Le, 10),
        ];
        check_warm_matches_cold(
            2,
            &[(0, r(3)), (1, r(2))],
            &rows,
            &[(0, CutRel::Le, 2), (1, CutRel::Le, 3)],
        );
    }

    #[test]
    fn warm_cut_ge_matches_cold() {
        let rows = vec![
            row(&[(0, 1), (1, 1)], Rel::Le, 7),
            row(&[(0, 2), (1, 1)], Rel::Le, 10),
        ];
        check_warm_matches_cold(
            2,
            &[(0, r(3)), (1, r(2))],
            &rows,
            &[(0, CutRel::Ge, 2), (1, CutRel::Ge, 4)],
        );
    }

    #[test]
    fn warm_cut_to_infeasible() {
        // x <= 3 base; forcing x >= 5 kills it.
        let rows = vec![row(&[(0, 1)], Rel::Le, 3)];
        check_warm_matches_cold(1, &[(0, r(1))], &rows, &[(0, CutRel::Ge, 5)]);
    }

    #[test]
    fn warm_cut_on_nonbasic_variable() {
        // Optimum at y = 0 (nonbasic); cutting y >= 1 must re-solve right.
        let rows = vec![row(&[(0, 1), (1, 2)], Rel::Le, 6)];
        check_warm_matches_cold(
            2,
            &[(0, r(3)), (1, r(1))],
            &rows,
            &[(1, CutRel::Ge, 1), (1, CutRel::Le, 2)],
        );
    }

    #[test]
    fn warm_chain_of_cuts_with_equalities() {
        // Phase-1-requiring base (equality + ge), then stacked cuts.
        let rows = vec![
            row(&[(0, 1), (1, 1), (2, 1)], Rel::Eq, 10),
            row(&[(0, 1)], Rel::Ge, 1),
            row(&[(1, 2), (2, 1)], Rel::Le, 12),
        ];
        check_warm_matches_cold(
            3,
            &[(0, r(2)), (1, r(5)), (2, r(3))],
            &rows,
            &[(1, CutRel::Le, 3), (2, CutRel::Ge, 2), (0, CutRel::Le, 4)],
        );
    }

    // --- sparse rows -----------------------------------------------------

    fn sparse(dense: &[Rat]) -> SparseRow {
        dense
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_zero())
            .map(|(j, &v)| (j, v))
            .collect()
    }

    /// A random small LP with a box on every variable (so it is bounded),
    /// mixed-relation rows and a random sequence of branching cuts.
    type LpCase = (
        usize,
        Vec<i64>,
        Vec<(Vec<i64>, u8, i64)>,
        Vec<(usize, bool, i64)>,
    );

    fn lp_case() -> impl Strategy<Value = LpCase> {
        (1usize..=4, 1usize..=4).prop_flat_map(|(n, m)| {
            (
                Just(n),
                proptest::collection::vec(-4i64..=5, n),
                proptest::collection::vec(
                    (proptest::collection::vec(-3i64..=3, n), 0u8..3, -4i64..=12),
                    m,
                ),
                proptest::collection::vec((0..n, any::<bool>(), 0i64..=6), 0..=5),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The merge equals dense `coeffs + scale * terms`, column by
        /// column, and stores no zero — including the entries it cancels
        /// exactly.
        #[test]
        fn add_scaled_matches_dense(
            terms in proptest::collection::vec(-2i64..=2, 10),
            noise in proptest::collection::vec(-2i64..=2, 10),
            cancel in proptest::collection::vec(any::<bool>(), 10),
            scale in (prop_oneof![-3i64..=-1, 1i64..=3], 1i64..=3),
        ) {
            let scale = Rat::new(scale.0.into(), scale.1.into());
            let terms: Vec<Rat> = terms.into_iter().map(Rat::from).collect();
            // Where `cancel` is set, coeffs holds exactly -scale * terms:
            // the merge must cancel that entry to an absent zero.
            let coeffs: Vec<Rat> = (0..10)
                .map(|j| if cancel[j] { -(scale * terms[j]) } else { Rat::from(noise[j]) })
                .collect();
            // A stale buffer: the merge must clear it.
            let mut merged = vec![(7, r(9))];
            add_scaled(&mut merged, &sparse(&coeffs), scale, &sparse(&terms));
            let expect: Vec<Rat> = (0..10).map(|j| coeffs[j] + scale * terms[j]).collect();
            prop_assert_eq!(merged, sparse(&expect));
        }

        /// Random LPs under random cut sequences: warm re-solves agree with
        /// cold solves of the accumulated system, and the tableau stays
        /// well formed after every step.
        #[test]
        fn random_cut_sequences_stay_well_formed(case in lp_case()) {
            let (n, obj, rows, cuts) = case;
            let objective: Vec<(usize, Rat)> =
                obj.iter().enumerate().map(|(j, &c)| (j, Rat::from(c))).collect();
            let mut base: Vec<Row> = rows
                .iter()
                .map(|(a, rel, b)| Row {
                    coeffs: a.iter().enumerate().map(|(j, &c)| (j, Rat::from(c))).collect(),
                    rel: [Rel::Le, Rel::Ge, Rel::Eq][*rel as usize],
                    rhs: Rat::from(*b),
                })
                .collect();
            base.extend((0..n).map(|j| row(&[(j, 1)], Rel::Le, 8)));
            let cuts: Vec<(usize, CutRel, i128)> = cuts
                .iter()
                .map(|&(v, up, b)| (v, if up { CutRel::Ge } else { CutRel::Le }, b.into()))
                .collect();
            if matches!(maximize(n, &objective, &base), LpResult::Optimal { .. }) {
                check_warm_matches_cold(n, &objective, &base, &cuts);
            }
        }
    }
}
