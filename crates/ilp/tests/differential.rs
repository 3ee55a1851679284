//! Differential tests for the warm-started solver: on random small integer
//! programs — including `>=` and `=` rows, which exercise phase 1 and the
//! dual-simplex cut machinery hardest — the warm-started production path
//! ([`Model::solve`]), the cold reference path ([`Model::solve_cold`]) and
//! exhaustive enumeration must agree bit-for-bit on the objective.

use proptest::prelude::*;
use rt_ilp::{LinExpr, Model, Rat, SolveError};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum R {
    Le,
    Ge,
    Eq,
}

/// A small random ILP with mixed-relation rows: `n` integer variables in
/// `0..=ub`, rows `a . x (<=|>=|=) b` with coefficients in `-3..=3`.
#[derive(Debug, Clone)]
struct Instance {
    ub: i64,
    obj: Vec<i64>,
    rows: Vec<(Vec<i64>, R, i64)>,
}

fn rel() -> impl Strategy<Value = R> {
    (0u8..3).prop_map(|r| match r {
        0 => R::Le,
        1 => R::Ge,
        _ => R::Eq,
    })
}

fn instance() -> impl Strategy<Value = Instance> {
    (1usize..=3, 1usize..=3, 1i64..=4).prop_flat_map(|(n, m, ub)| {
        (
            proptest::collection::vec(-5i64..=5, n),
            proptest::collection::vec(
                (proptest::collection::vec(-3i64..=3, n), rel(), -4i64..=12),
                m,
            ),
        )
            .prop_map(move |(obj, rows)| Instance { ub, obj, rows })
    })
}

/// Exhaustive enumeration over the `0..=ub` box.
fn brute_force(inst: &Instance) -> Option<i64> {
    let n = inst.obj.len();
    let mut best: Option<i64> = None;
    let mut x = vec![0i64; n];
    loop {
        let feasible = inst.rows.iter().all(|(a, r, b)| {
            let lhs: i64 = a.iter().zip(&x).map(|(c, v)| c * v).sum();
            match r {
                R::Le => lhs <= *b,
                R::Ge => lhs >= *b,
                R::Eq => lhs == *b,
            }
        });
        if feasible {
            let obj: i64 = inst.obj.iter().zip(&x).map(|(c, v)| c * v).sum();
            best = Some(best.map_or(obj, |b: i64| b.max(obj)));
        }
        let mut i = 0;
        loop {
            if i == n {
                return best;
            }
            x[i] += 1;
            if x[i] <= inst.ub {
                break;
            }
            x[i] = 0;
            i += 1;
        }
    }
}

fn build(inst: &Instance) -> (Model, Vec<rt_ilp::VarId>) {
    let mut m = Model::maximize();
    let vars: Vec<_> = (0..inst.obj.len())
        .map(|i| m.int_var(&format!("x{i}"), 0, Some(inst.ub)))
        .collect();
    let mut obj = LinExpr::new();
    for (i, &c) in inst.obj.iter().enumerate() {
        obj = obj + (c, vars[i]);
    }
    m.set_objective(obj);
    for (a, r, b) in &inst.rows {
        let mut e = LinExpr::new();
        for (i, &c) in a.iter().enumerate() {
            e = e + (c, vars[i]);
        }
        match r {
            R::Le => m.add_le(e, *b),
            R::Ge => m.add_ge(e, *b),
            R::Eq => m.add_eq(e, *b),
        }
    }
    (m, vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Warm, cold and brute force: all three agree (objective bit-for-bit,
    /// and the warm solver's assignment is feasible and achieves it).
    #[test]
    fn warm_cold_and_brute_force_agree(inst in instance()) {
        let (m, vars) = build(&inst);
        let expected = brute_force(&inst);
        let warm = m.solve();
        let cold = m.solve_cold();
        match (&warm, &cold) {
            (Ok(w), Ok(c)) => prop_assert_eq!(w.objective, c.objective),
            (Err(we), Err(ce)) => prop_assert_eq!(we, ce),
            _ => {
                return Err(TestCaseError::fail(format!(
                    "warm/cold disagree: warm {warm:?}, cold {cold:?}"
                )));
            }
        }
        match (warm, expected) {
            (Ok(sol), Some(best)) => {
                prop_assert_eq!(sol.objective, Rat::int(best as i128));
                for (a, r, b) in &inst.rows {
                    let lhs: i64 = vars
                        .iter()
                        .zip(a)
                        .map(|(&v, c)| c * sol.value_i64(v))
                        .sum();
                    match r {
                        R::Le => prop_assert!(lhs <= *b),
                        R::Ge => prop_assert!(lhs >= *b),
                        R::Eq => prop_assert_eq!(lhs, *b),
                    }
                }
            }
            (Err(SolveError::Infeasible), None) => {}
            (got, want) => {
                return Err(TestCaseError::fail(format!(
                    "solver disagrees with brute force: got {got:?}, want {want:?}"
                )));
            }
        }
    }
}

/// Brute force over the `0..=ub` box for a replacement objective: the best
/// objective value, plus the argmax itself iff exactly one feasible point
/// attains it (per-variable assertions are only meaningful then — solvers
/// may legitimately return different optima when they are tied).
fn brute_force_argmax(inst: &Instance, obj: &[i64]) -> (Option<i64>, Option<Vec<i64>>) {
    let n = obj.len();
    let mut best: Option<(i64, Vec<i64>, bool)> = None; // (value, point, unique)
    let mut x = vec![0i64; n];
    loop {
        let feasible = inst.rows.iter().all(|(a, r, b)| {
            let lhs: i64 = a.iter().zip(&x).map(|(c, v)| c * v).sum();
            match r {
                R::Le => lhs <= *b,
                R::Ge => lhs >= *b,
                R::Eq => lhs == *b,
            }
        });
        if feasible {
            let v: i64 = obj.iter().zip(&x).map(|(c, xi)| c * xi).sum();
            best = Some(match best {
                None => (v, x.clone(), true),
                Some((bv, bx, uniq)) => {
                    if v > bv {
                        (v, x.clone(), true)
                    } else if v == bv {
                        (bv, bx, false)
                    } else {
                        (bv, bx, uniq)
                    }
                }
            });
        }
        let mut i = 0;
        loop {
            if i == n {
                let (value, point, unique) = match best {
                    Some(b) => b,
                    None => return (None, None),
                };
                return (Some(value), unique.then_some(point));
            }
            x[i] += 1;
            if x[i] <= inst.ub {
                break;
            }
            x[i] = 0;
            i += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The incremental re-solve path: presolve once under the instance's
    /// own objective, then `resolve_with_objective` for random replacement
    /// objectives must match a fresh cold-built `solve()` of the perturbed
    /// model on the objective value (bit for bit), and on every variable
    /// whenever brute force shows the integer optimum is unique. A re-solve
    /// with the *original* objective must replay `solve()` exactly,
    /// assignment included.
    #[test]
    fn resolve_with_objective_matches_fresh_solve(
        inst in instance(),
        perturbs in proptest::collection::vec(proptest::collection::vec(-5i64..=5, 3), 1..=3),
    ) {
        let (m, vars) = build(&inst);
        let n = inst.obj.len();
        let p = match m.presolved() {
            Ok(p) => p,
            Err(SolveError::Infeasible) => {
                // Feasibility is objective-independent: every perturbed
                // model must be infeasible too.
                for pert in &perturbs {
                    let obj2: Vec<i64> = pert.iter().copied().take(n).collect();
                    let inst2 = Instance { ub: inst.ub, obj: obj2, rows: inst.rows.clone() };
                    let (m2, _) = build(&inst2);
                    prop_assert_eq!(m2.solve().unwrap_err(), SolveError::Infeasible);
                }
                return Ok(());
            }
            Err(e) => return Err(TestCaseError::fail(format!("presolve failed: {e:?}"))),
        };

        // Exact replay of the default objective.
        let mut e0 = LinExpr::new();
        for (i, &c) in inst.obj.iter().enumerate() {
            e0 = e0 + (c, vars[i]);
        }
        match (p.resolve_with_objective(&e0), m.solve()) {
            (Ok(w), Ok(s)) => {
                prop_assert_eq!(w.objective, s.objective);
                for &v in &vars {
                    prop_assert_eq!(w.value(v), s.value(v));
                }
            }
            (Err(we), Err(se)) => prop_assert_eq!(we, se),
            (w, s) => {
                return Err(TestCaseError::fail(format!(
                    "replay disagrees with solve: warm {w:?}, fresh {s:?}"
                )));
            }
        }

        for pert in &perturbs {
            let obj2: Vec<i64> = pert.iter().copied().take(n).collect();
            let mut e = LinExpr::new();
            for (i, &c) in obj2.iter().enumerate() {
                e = e + (c, vars[i]);
            }
            let warm = p.resolve_with_objective(&e);
            let inst2 = Instance { ub: inst.ub, obj: obj2.clone(), rows: inst.rows.clone() };
            let (m2, vars2) = build(&inst2);
            let fresh = m2.solve();
            match (warm, fresh) {
                (Ok(w), Ok(f)) => {
                    prop_assert_eq!(w.objective, f.objective);
                    let (best, unique) = brute_force_argmax(&inst2, &obj2);
                    prop_assert_eq!(Some(w.objective), best.map(|b| Rat::int(b as i128)));
                    if let Some(ux) = unique {
                        for (i, (&v, &v2)) in vars.iter().zip(&vars2).enumerate() {
                            prop_assert_eq!(w.value_i64(v), ux[i]);
                            prop_assert_eq!(f.value_i64(v2), ux[i]);
                        }
                    }
                }
                (Err(we), Err(fe)) => prop_assert_eq!(we, fe),
                (w, f) => {
                    return Err(TestCaseError::fail(format!(
                        "re-solve disagrees with fresh solve: warm {w:?}, fresh {f:?}"
                    )));
                }
            }
        }
    }
}

/// A handcrafted instance whose branching repeatedly cuts basic variables:
/// its nodes warm-start from their parents' tableaux and must reach the
/// cold reference's optimum in fewer pivots. (Its frontier stays far
/// below the snapshot cap, so no node cold-solves; `branch.rs`'s
/// `wide_frontier_stays_warm` holds a wider frontier warm.)
#[test]
fn deep_branching_exercises_warm_and_cold_paths() {
    let mut m = Model::maximize();
    let n = 8;
    let vars: Vec<_> = (0..n)
        .map(|i| m.int_var(&format!("x{i}"), 0, Some(7)))
        .collect();
    let mut obj = LinExpr::new();
    for (i, &v) in vars.iter().enumerate() {
        obj = obj + (2 * i as i64 + 3, v);
    }
    m.set_objective(obj);
    // Odd-coefficient knapsack rows force fractional LP optima everywhere.
    for k in 0..n {
        let mut e = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            e = e + (if (i + k) % 3 == 0 { 3 } else { 2 }, v);
        }
        m.add_le(e, 19 + k as i64);
    }
    let warm = m.solve().expect("feasible");
    let cold = m.solve_cold().expect("feasible");
    assert_eq!(warm.objective, cold.objective);
    assert!(
        warm.stats.warm_hits > 0,
        "expected warm starts, stats {:?}",
        warm.stats
    );
    assert!(
        warm.stats.pivots() < cold.stats.pivots(),
        "warm {} pivots, cold {} pivots",
        warm.stats.pivots(),
        cold.stats.pivots()
    );
}
