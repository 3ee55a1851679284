//! Equality-substitution presolve for the warm-started solver.
//!
//! IPET systems are dominated by flow-conservation equalities with zero
//! right-hand sides (`x_v - sum y_in = 0`, `sum y_in - sum y_out = 0`).
//! Fed to two-phase simplex directly, every one of those rows gets an
//! artificial basic variable that phase 1 must pivot out again — on the
//! kernel instances that is one (degenerate) pivot per equality row, which
//! dwarfs the pivots doing actual optimisation. This pass eliminates
//! equality rows *before* the tableau is built: a row `a . x = b` with a
//! `±1` pivot coefficient defines one variable as an affine combination of
//! the others, which is substituted into every remaining row and the
//! objective. Each elimination removes one row and one column, and — the
//! real win — one artificial variable that phase 1 would otherwise have to
//! chase.
//!
//! Pivot choice is Markowitz-style: minimise `(row_nnz - 1) * (occurrences
//! - 1)`, the fill-in bound, with a hard cap so pathological instances stop
//! eliminating instead of densifying. Integrality is preserved by
//! construction: an integer variable is only eliminated when its defining
//! row has `±1` pivot, integer coefficients, an integer right-hand side and
//!   only integer variables — the eliminated value is then an integer
//!   combination of variables that branch-and-bound keeps integral.
//!
//! The eliminated variable's implicit `x >= 0` bound is re-added as an
//! inequality over the surviving variables unless it is vacuous (constant
//! and all coefficients nonnegative); explicit bound rows were part of the
//! input and are substituted like any other row.

use std::collections::BTreeSet;

use crate::rational::Rat;
use crate::simplex::{self, Rel, Row};

/// Fill-in cap for pivot selection: candidates whose Markowitz score
/// `(row_nnz - 1) * (occurrences - 1)` exceeds this are not eliminated.
const FILL_CAP: usize = 1024;

/// One eliminated variable: `var = constant + sum terms`.
///
/// `terms` reference *original* variable indices; records are appended in
/// elimination order, so back-substitution walks them in reverse (a record
/// may reference variables eliminated later).
struct Elim {
    var: usize,
    constant: Rat,
    terms: Vec<(usize, Rat)>,
}

/// A reduced problem plus the recipe to map its solutions back.
pub(crate) struct Presolved {
    /// Number of surviving variables.
    pub n_vars: usize,
    /// Objective over surviving variables (reduced indices).
    pub objective: Vec<(usize, Rat)>,
    /// Constant absorbed into the objective by substitutions.
    pub obj_const: Rat,
    /// Rows over surviving variables (reduced indices).
    pub rows: Vec<Row>,
    /// Integer variables of the reduced problem (reduced indices).
    pub integers: Vec<usize>,
    /// Variables eliminated (for the stats counter).
    pub eliminated: u64,
    elims: Vec<Elim>,
    /// `keep[r]` is the original index of reduced variable `r`.
    keep: Vec<usize>,
}

pub(crate) enum Outcome {
    Reduced(Presolved),
    /// A substitution produced a trivially false row.
    Infeasible,
}

impl Presolved {
    /// Back-substitutes a reduced solution into the original variable
    /// space.
    pub fn expand(&self, reduced: &[Rat]) -> Vec<Rat> {
        let n = self.keep.len() + self.elims.len();
        let mut full = vec![Rat::ZERO; n];
        for (r, &orig) in self.keep.iter().enumerate() {
            full[orig] = reduced[r];
        }
        for e in self.elims.iter().rev() {
            let mut v = e.constant;
            for &(j, c) in &e.terms {
                v += c * full[j];
            }
            full[e.var] = v;
        }
        full
    }

    /// Maps an objective over *original* variables into the reduced space,
    /// replaying the recorded substitutions in elimination order. Returns
    /// the reduced objective (reduced indices, sorted) and the absorbed
    /// constant.
    ///
    /// This is the one objective path: [`reduce`] gets `self.objective`
    /// and `self.obj_const` from it too, and a re-solve under another
    /// objective gets the reduction `reduce` would have produced without
    /// re-running the row elimination (substitution never influences
    /// pivot choice). One dense accumulator over the original variables
    /// takes each elimination's `+= cv·c` updates in order, so every
    /// coefficient receives the same exact updates a sparse merge per
    /// elimination would make; zeros are dropped once, at the end.
    pub fn reduce_objective(&self, objective: &[(usize, Rat)]) -> (Vec<(usize, Rat)>, Rat) {
        let mut dense = vec![Rat::ZERO; self.keep.len() + self.elims.len()];
        for &(j, c) in objective {
            dense[j] += c;
        }
        let mut obj_const = Rat::ZERO;
        for e in &self.elims {
            let cv = std::mem::replace(&mut dense[e.var], Rat::ZERO);
            if cv.is_zero() {
                continue;
            }
            for &(j, c) in &e.terms {
                dense[j] += cv * c;
            }
            obj_const += cv * e.constant;
        }
        let obj = self
            .keep
            .iter()
            .enumerate()
            .filter(|&(_, &orig)| !dense[orig].is_zero())
            .map(|(r, &orig)| (r, dense[orig]))
            .collect();
        (obj, obj_const)
    }
}

/// `coeffs := coeffs + scale * terms`, both sorted by index; zero results
/// are dropped.
fn add_scaled(coeffs: &[(usize, Rat)], scale: Rat, terms: &[(usize, Rat)]) -> Vec<(usize, Rat)> {
    let mut out = Vec::with_capacity(coeffs.len() + terms.len());
    simplex::add_scaled(&mut out, coeffs, scale, terms);
    out
}

/// Whether `coeffs` (sorted by index) holds variable `j`.
fn holds(coeffs: &[(usize, Rat)], j: usize) -> bool {
    coeffs.binary_search_by_key(&j, |&(k, _)| k).is_ok()
}

/// Replaces `var` in live row `ri` by `constant + terms`, keeping the
/// column index current: `ri` joins the column of each term variable the
/// merge adds and leaves the column of each one it cancels. Pushes those
/// variables, whose counts changed, onto `touched`. `var`'s own column is
/// the caller's to clear.
fn substitute_row(
    row: &mut Row,
    ri: usize,
    var: usize,
    constant: Rat,
    terms: &[(usize, Rat)],
    cols: &mut [Vec<usize>],
    touched: &mut Vec<usize>,
) {
    let pos = row
        .coeffs
        .binary_search_by_key(&var, |&(j, _)| j)
        .expect("the column index lists only rows holding the variable");
    let cv = row.coeffs[pos].1;
    row.coeffs.remove(pos);
    let merged = add_scaled(&row.coeffs, cv, terms);
    for &(j, _) in terms {
        let col = &mut cols[j];
        match (holds(&row.coeffs, j), holds(&merged, j)) {
            (false, true) => {
                let at = col
                    .binary_search(&ri)
                    .expect_err("row not yet in the column");
                col.insert(at, ri);
            }
            (true, false) => {
                let at = col.binary_search(&ri).expect("row in the column");
                col.remove(at);
            }
            _ => continue,
        }
        touched.push(j);
    }
    row.coeffs = merged;
    row.rhs -= cv * constant;
}

/// Each variable's column: the live rows holding it, in increasing order,
/// built from scratch.
fn columns(rows: &[Option<Row>], n_vars: usize) -> Vec<Vec<usize>> {
    let mut cols = vec![Vec::new(); n_vars];
    for (ri, r) in rows.iter().enumerate() {
        for &(j, _) in r.iter().flat_map(|r| &r.coeffs) {
            cols[j].push(ri);
        }
    }
    cols
}

/// Whether `row` may define an integer variable: integer coefficients, an
/// integer right-hand side and only integer variables.
fn integral_row(row: &Row, is_int: &[bool]) -> bool {
    row.rhs.is_integer() && row.coeffs.iter().all(|&(j, c)| c.is_integer() && is_int[j])
}

/// A row's best Markowitz candidate `(score, var)`: the lowest score
/// `(row_nnz - 1) * (occurrences - 1)` within [`FILL_CAP`], the first
/// such variable in index order on ties. `integral` is the row's
/// [`integral_row`] flag; each variable's occurrence count is the length
/// of its column.
fn candidate(
    row: &Row,
    integral: bool,
    is_int: &[bool],
    cols: &[Vec<usize>],
) -> Option<(usize, usize)> {
    if row.rel != Rel::Eq || row.coeffs.is_empty() {
        return None;
    }
    let mut best: Option<(usize, usize)> = None;
    for &(j, c) in &row.coeffs {
        let unit = c.abs() == Rat::ONE;
        // An integer variable may only be defined as an integer
        // combination of integer variables; a continuous one only by a
        // unit pivot (non-unit pivots are allowed mathematically but
        // inflate denominators, and IPET systems always offer unit ones).
        if !unit || (is_int[j] && !integral) {
            continue;
        }
        let score = (row.coeffs.len() - 1) * (cols[j].len() - 1);
        if score <= FILL_CAP && best.is_none_or(|(s, _)| score < s) {
            best = Some((score, j));
        }
    }
    best
}

/// Each live row's cached integrality flag and best candidate, and the
/// rows holding a candidate ordered by `(score, row)`: the first of them
/// is the pivot a scan of every row in index order would pick.
struct Candidates {
    integral: Vec<bool>,
    best: Vec<Option<(usize, usize)>>,
    order: BTreeSet<(usize, usize)>,
}

impl Candidates {
    /// The next elimination `(row, var)`, if any row offers one.
    fn pick(&self) -> Option<(usize, usize)> {
        self.order
            .first()
            .map(|&(_, ri)| (ri, self.best[ri].expect("an ordered row has a candidate").1))
    }

    /// Recomputes row `ri`'s integrality flag after its entries changed
    /// (or it was appended); [`Candidates::rescore`] must follow.
    fn reflag(&mut self, ri: usize, row: &Row, is_int: &[bool]) {
        if ri == self.integral.len() {
            self.integral.push(false);
            self.best.push(None);
        }
        self.integral[ri] = integral_row(row, is_int);
    }

    /// Recomputes row `ri`'s candidate; a taken row (`None`) has none.
    fn rescore(&mut self, ri: usize, row: Option<&Row>, is_int: &[bool], cols: &[Vec<usize>]) {
        if let Some((score, _)) = self.best[ri].take() {
            self.order.remove(&(score, ri));
        }
        self.best[ri] = row.and_then(|r| candidate(r, self.integral[ri], is_int, cols));
        if let Some((score, _)) = self.best[ri] {
            self.order.insert((score, ri));
        }
    }
}

/// An empty-lhs row is either vacuous or a proof of infeasibility.
fn empty_row_feasible(rel: Rel, rhs: Rat) -> bool {
    match rel {
        Rel::Le => !rhs.is_negative(),
        Rel::Ge => !rhs.is_positive(),
        Rel::Eq => rhs.is_zero(),
    }
}

/// Eliminates equality rows from `rows` by substitution.
///
/// The reduced problem is equivalent: it is feasible iff the original is,
/// optima coincide after adding `obj_const`, and [`Presolved::expand`]
/// turns any reduced feasible point into an original feasible point with
/// the same objective value.
///
/// Each elimination visits only the rows it touches. The column index
/// (each variable's live rows) names the rows holding the eliminated
/// variable, and the cached candidates are recomputed only for rows whose
/// entries changed or that hold a variable whose count changed; every
/// other row's score is unchanged, so the pick is the full scan's.
pub(crate) fn reduce(
    n_vars: usize,
    objective: &[(usize, Rat)],
    rows: &[Row],
    integers: &[usize],
) -> Outcome {
    let mut is_int = vec![false; n_vars];
    for &i in integers {
        is_int[i] = true;
    }

    let mut rows: Vec<Option<Row>> = rows
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.coeffs.sort_by_key(|&(j, _)| j);
            Some(r)
        })
        .collect();
    let mut eliminated = vec![false; n_vars];
    let mut elims: Vec<Elim> = Vec::new();
    // Built once here, then kept current as rows are taken, substituted
    // and appended; a column's length is its variable's occurrence count.
    let mut cols = columns(&rows, n_vars);
    let mut cands = Candidates {
        integral: Vec::with_capacity(rows.len()),
        best: Vec::with_capacity(rows.len()),
        order: BTreeSet::new(),
    };
    for (ri, r) in rows.iter().enumerate() {
        let r = r.as_ref().expect("every input row is live");
        cands.reflag(ri, r, &is_int);
        cands.rescore(ri, Some(r), &is_int, &cols);
    }
    // Rows whose entries changed, and variables whose counts changed, in
    // one elimination; `stale` lists the rows to rescore, each once, as
    // `marked` records.
    let mut changed: Vec<usize> = Vec::new();
    let mut touched: Vec<usize> = Vec::new();
    let mut stale: Vec<usize> = Vec::new();
    let mut marked: Vec<bool> = Vec::new();

    loop {
        let pick = cands.pick();
        #[cfg(test)]
        {
            assert_eq!(cols, columns(&rows, n_vars), "column index drifted");
            assert_eq!(pick, rescan(&rows, &is_int, &cols), "cached pick drifted");
        }
        let Some((ri, var)) = pick else { break };

        // Build `var = constant + terms` from the pivot row.
        let row = rows[ri].take().expect("candidate row is live");
        cands.rescore(ri, None, &is_int, &cols);
        for &(j, _) in &row.coeffs {
            let at = cols[j]
                .binary_search(&ri)
                .expect("pivot row in its columns");
            cols[j].remove(at);
            touched.push(j);
        }
        let a = row
            .coeffs
            .iter()
            .find(|&&(j, _)| j == var)
            .expect("pivot var is in the row")
            .1;
        let constant = row.rhs / a;
        let terms: Vec<(usize, Rat)> = row
            .coeffs
            .iter()
            .filter(|&&(j, _)| j != var)
            .map(|&(j, c)| (j, -(c / a)))
            .collect();

        for i in std::mem::take(&mut cols[var]) {
            let r = rows[i].as_mut().expect("columns list live rows");
            substitute_row(r, i, var, constant, &terms, &mut cols, &mut touched);
            changed.push(i);
        }

        // Re-impose the eliminated variable's implicit `>= 0` bound unless
        // it holds for every nonnegative assignment of the survivors.
        let vacuous = !constant.is_negative() && terms.iter().all(|&(_, c)| !c.is_negative());
        if !vacuous {
            if terms.is_empty() {
                if constant.is_negative() {
                    return Outcome::Infeasible;
                }
            } else {
                let guard = rows.len();
                for &(j, _) in &terms {
                    cols[j].push(guard);
                    touched.push(j);
                }
                rows.push(Some(Row {
                    coeffs: terms.clone(),
                    rel: Rel::Ge,
                    rhs: -constant,
                }));
                changed.push(guard);
            }
        }

        // Rescore the changed rows and every row holding a variable whose
        // count changed; no other row's score can have moved.
        marked.resize(rows.len(), false);
        for i in changed.drain(..) {
            cands.reflag(i, rows[i].as_ref().expect("changed rows are live"), &is_int);
            marked[i] = true;
            stale.push(i);
        }
        for j in touched.drain(..) {
            for &i in &cols[j] {
                if !std::mem::replace(&mut marked[i], true) {
                    stale.push(i);
                }
            }
        }
        for i in stale.drain(..) {
            marked[i] = false;
            cands.rescore(i, rows[i].as_ref(), &is_int, &cols);
        }

        eliminated[var] = true;
        elims.push(Elim {
            var,
            constant,
            terms,
        });
    }

    // Drop emptied rows (checking they are not proofs of infeasibility)
    // and compress the surviving variable indices.
    let mut kept_rows = Vec::with_capacity(rows.len());
    for r in rows.into_iter().flatten() {
        if r.coeffs.is_empty() {
            if !empty_row_feasible(r.rel, r.rhs) {
                return Outcome::Infeasible;
            }
        } else {
            kept_rows.push(r);
        }
    }

    let keep: Vec<usize> = (0..n_vars).filter(|&i| !eliminated[i]).collect();
    let mut reduced_idx = vec![usize::MAX; n_vars];
    for (r, &orig) in keep.iter().enumerate() {
        reduced_idx[orig] = r;
    }
    for r in &mut kept_rows {
        for t in &mut r.coeffs {
            t.0 = reduced_idx[t.0];
        }
    }
    let reduced_integers: Vec<usize> = keep
        .iter()
        .enumerate()
        .filter(|&(_, &orig)| is_int[orig])
        .map(|(r, _)| r)
        .collect();

    let mut p = Presolved {
        n_vars: keep.len(),
        objective: Vec::new(),
        obj_const: Rat::ZERO,
        rows: kept_rows,
        integers: reduced_integers,
        eliminated: elims.len() as u64,
        elims,
        keep,
    };
    (p.objective, p.obj_const) = p.reduce_objective(objective);
    Outcome::Reduced(p)
}

/// The pivot scan [`Candidates`] replaces, kept as its reference: every
/// live row's entries scored afresh, in row order, the first lowest score
/// winning. Returns the `(row, var)` to eliminate.
#[cfg(test)]
fn rescan(rows: &[Option<Row>], is_int: &[bool], cols: &[Vec<usize>]) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize, usize)> = None; // (score, row, var)
    for (ri, r) in rows.iter().enumerate() {
        let Some(r) = r else { continue };
        if r.rel != Rel::Eq || r.coeffs.is_empty() {
            continue;
        }
        let row_integral = r.rhs.is_integer() && r.coeffs.iter().all(|&(_, c)| c.is_integer());
        let all_int_vars = r.coeffs.iter().all(|&(j, _)| is_int[j]);
        for &(j, c) in &r.coeffs {
            let unit = c.abs() == Rat::ONE;
            if is_int[j] && !(unit && row_integral && all_int_vars) {
                continue;
            }
            if !is_int[j] && !unit {
                continue;
            }
            let score = (r.coeffs.len() - 1) * (cols[j].len() - 1);
            if score > FILL_CAP {
                continue;
            }
            if best.is_none_or(|(s, _, _)| score < s) {
                best = Some((score, ri, j));
            }
        }
    }
    best.map(|(_, ri, var)| (ri, var))
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

    fn reduced(o: Outcome) -> Presolved {
        match o {
            Outcome::Reduced(p) => p,
            Outcome::Infeasible => panic!("expected a reduced problem"),
        }
    }

    #[test]
    fn eliminates_flow_equality() {
        // x0 = x1 + x2 (flow conservation): Markowitz picks the variable
        // occurring only in this row (x1, score 0, over x0 which also sits
        // in the bound row), leaving x1 = x0 - x2 plus its nonneg guard.
        let rows = vec![
            row(&[(0, 1), (1, -1), (2, -1)], Rel::Eq, 0),
            row(&[(0, 1)], Rel::Le, 7),
        ];
        let p = reduced(reduce(3, &[(0, r(1)), (1, r(1))], &rows, &[0, 1, 2]));
        assert_eq!(p.n_vars, 2);
        assert_eq!(p.eliminated, 1);
        assert_eq!(p.keep, vec![0, 2]);
        // Surviving rows: the untouched bound row and the re-added
        // x1 >= 0 guard (x0 - x2 >= 0) — the guard is needed because the
        // definition has a negative coefficient.
        assert_eq!(p.rows.len(), 2);
        // Objective x0 + x1 became 2*x0 - x2, absorbing x1's definition.
        assert_eq!(p.objective, vec![(0, r(2)), (1, r(-1))]);
        // Back-substitution restores x1 = x0 - x2.
        let full = p.expand(&[r(7), r(3)]);
        assert_eq!(full, vec![r(7), r(4), r(3)]);
    }

    #[test]
    fn pinned_variable_becomes_constant() {
        // x0 = 1 pins the entry count; it vanishes from the reduced
        // problem and the objective absorbs the constant.
        let rows = vec![
            row(&[(0, 1)], Rel::Eq, 1),
            row(&[(0, 2), (1, 1)], Rel::Le, 10),
        ];
        let p = reduced(reduce(2, &[(0, r(5)), (1, r(1))], &rows, &[0, 1]));
        assert_eq!(p.n_vars, 1);
        assert_eq!(p.obj_const, r(5));
        assert_eq!(p.rows.len(), 1);
        assert_eq!(p.rows[0].rhs, r(8)); // 10 - 2*1
        assert_eq!(p.expand(&[r(8)]), vec![r(1), r(8)]);
    }

    #[test]
    fn nonneg_bound_readded_when_not_vacuous() {
        // x0 = 3 - x1: x0 >= 0 forces x1 <= 3, which must survive.
        let rows = vec![row(&[(0, 1), (1, 1)], Rel::Eq, 3)];
        let p = reduced(reduce(2, &[(1, r(1))], &rows, &[0, 1]));
        assert_eq!(p.n_vars, 1);
        assert_eq!(p.rows.len(), 1);
        assert_eq!(p.rows[0].rel, Rel::Ge);
        assert_eq!(p.rows[0].rhs, r(-3)); // -x1 >= -3
    }

    #[test]
    fn contradictory_equalities_detected() {
        // x0 = 2 and x0 = 3.
        let rows = vec![row(&[(0, 1)], Rel::Eq, 2), row(&[(0, 1)], Rel::Eq, 3)];
        assert!(matches!(
            reduce(1, &[(0, r(1))], &rows, &[0]),
            Outcome::Infeasible
        ));
    }

    #[test]
    fn negative_pin_is_infeasible() {
        // x0 = -1 contradicts x0 >= 0.
        let rows = vec![row(&[(0, 1)], Rel::Eq, -1)];
        assert!(matches!(
            reduce(1, &[(0, r(1))], &rows, &[0]),
            Outcome::Infeasible
        ));
    }

    #[test]
    fn integer_var_not_eliminated_by_fractional_row() {
        // 2*x0 + x1 = 3 offers no ±1 pivot on x0; x1 has one, so x1 goes.
        let rows = vec![row(&[(0, 2), (1, 1)], Rel::Eq, 3)];
        let p = reduced(reduce(2, &[(0, r(1)), (1, r(1))], &rows, &[0, 1]));
        assert_eq!(p.n_vars, 1);
        assert_eq!(p.keep, vec![0]);
        // x1 = 3 - 2*x0 picks up a nonneg row 2*x0 <= 3.
        assert_eq!(p.rows.len(), 1);
        let full = p.expand(&[r(1)]);
        assert_eq!(full, vec![r(1), r(1)]);
    }

    #[test]
    fn reduce_objective_replays_reduce_exactly() {
        // Chained substitutions (x0 depends on x1, eliminated later):
        // replaying the elim log gives `reduce`'s own objective, and maps
        // a *different* objective correctly. x1 = x2 + 1 and
        // x0 = x1 + 1 = x2 + 2, so 3*x0 + x2 reduces to 4*x2 + 6 over the
        // single surviving variable.
        let rows = vec![
            row(&[(0, 1), (1, -1)], Rel::Eq, 1),
            row(&[(1, 1), (2, -1)], Rel::Eq, 1),
            row(&[(2, 1)], Rel::Le, 9),
        ];
        let obj = [(0, r(3)), (2, r(1))];
        let p = reduced(reduce(3, &obj, &rows, &[0, 1, 2]));
        assert_eq!(p.objective, vec![(0, r(4))]);
        assert_eq!(p.obj_const, r(6));
        let (replayed, constant) = p.reduce_objective(&obj);
        assert_eq!(replayed, p.objective);
        assert_eq!(constant, p.obj_const);
        // x0 + x1 reduces to 2*x2 + 3.
        let (other, other_const) = p.reduce_objective(&[(0, r(1)), (1, r(1))]);
        assert_eq!(other, vec![(0, r(2))]);
        assert_eq!(other_const, r(3));
        // x0 - x1 is the constant 1: x2's coefficient cancels and is
        // dropped.
        let (cancelled, one) = p.reduce_objective(&[(0, r(1)), (1, r(-1))]);
        assert_eq!(cancelled, vec![]);
        assert_eq!(one, r(1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random mixed systems, equality-heavy so eliminations chain,
        /// substitute into several rows, cancel entries, tie on scores
        /// and append guard rows: `reduce` asserts after every
        /// elimination that its column index (whose lengths are the
        /// occurrence counts) equals a rebuild from the live rows and that
        /// its cached pick equals a full rescan's.
        #[test]
        fn maintained_counts_match_a_recount(
            rows in proptest::collection::vec(
                (
                    proptest::collection::vec((0usize..8, -2i64..=2), 1..=4),
                    0u8..4,
                    -3i64..=6,
                ),
                1..=8,
            ),
            integers in proptest::collection::vec(any::<bool>(), 8),
        ) {
            let rows: Vec<Row> = rows
                .into_iter()
                .map(|(terms, rel, rhs)| {
                    let mut coeffs: Vec<(usize, Rat)> = Vec::new();
                    for (j, c) in terms {
                        if c != 0 && coeffs.iter().all(|&(k, _)| k != j) {
                            coeffs.push((j, Rat::from(c)));
                        }
                    }
                    // Two draws in four are equalities.
                    let rel = [Rel::Eq, Rel::Eq, Rel::Le, Rel::Ge][rel as usize];
                    Row { coeffs, rel, rhs: Rat::from(rhs) }
                })
                .collect();
            let integers: Vec<usize> = (0..8).filter(|&j| integers[j]).collect();
            if let Outcome::Reduced(p) = reduce(8, &[(0, r(1)), (3, r(2))], &rows, &integers) {
                prop_assert_eq!(p.n_vars as u64 + p.eliminated, 8);
            }
        }
    }

    #[test]
    fn chained_eliminations_back_substitute_in_order() {
        // x0 = x1 + 1, x1 = x2 + 1: both eliminated, x2 survives.
        let rows = vec![
            row(&[(0, 1), (1, -1)], Rel::Eq, 1),
            row(&[(1, 1), (2, -1)], Rel::Eq, 1),
        ];
        let p = reduced(reduce(3, &[(2, r(1))], &rows, &[0, 1, 2]));
        assert_eq!(p.n_vars, 1);
        assert_eq!(p.eliminated, 2);
        let full = p.expand(&[r(4)]);
        assert_eq!(full, vec![r(6), r(5), r(4)]);
    }
}
