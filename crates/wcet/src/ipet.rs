//! Implicit path enumeration (IPET, §5.2).
//!
//! "As Chronos is based on the implicit path enumeration technique, the
//! output ... is an integer linear programming problem: a set of integer
//! linear equations that represent constraints, and an objective function
//! to be maximised." Execution counts of nodes and edges become ILP
//! variables, flow conservation and loop bounds become constraints, the
//! three manual constraint forms of §5.2 are added on top, and the exact
//! solver in `rt-ilp` maximises total cost.

use rt_ilp::{LinExpr, Model, Solution, SolveError, SolveStats, VarId};

use crate::cfg::{Cfg, NodeId, UserConstraint};

/// Solved IPET instance.
#[derive(Clone, Debug)]
pub struct IpetSolution {
    /// The worst-case cost (objective value).
    pub wcet: u64,
    /// Execution count per node in the worst path.
    pub counts: Vec<u64>,
    /// Traversal count per edge in the worst path.
    pub edge_counts: Vec<u64>,
    /// ILP size, for reporting (§6.3 discusses analysis cost).
    pub num_vars: usize,
    /// ILP constraint count.
    pub num_constraints: usize,
    /// Solver work counters (nodes, pivots, warm-start rate, wall time).
    pub stats: SolveStats,
}

impl IpetSolution {
    /// Reconstructs a concrete execution trace from the flow solution —
    /// §6: "We converted the solution to a concrete execution trace" (it
    /// was reading such traces that exposed the infeasible paths the
    /// manual constraints then removed). An Euler walk over the edge
    /// counts: flow conservation plus the relative loop bounds guarantee
    /// the counted edges form one entry-to-exit path.
    pub fn trace(&self, cfg: &Cfg) -> Vec<NodeId> {
        let mut remaining = self.edge_counts.clone();
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); cfg.nodes.len()];
        for (i, (a, _)) in cfg.edges.iter().enumerate() {
            out[a.0].push(i);
        }
        // Hierholzer: walk greedily, splicing in detours.
        let mut path = vec![cfg.entry];
        let mut pos = 0usize;
        while pos < path.len() {
            let mut cur = path[pos];
            let mut detour = Vec::new();
            while let Some(&e) = out[cur.0].iter().find(|&&e| remaining[e] > 0) {
                remaining[e] -= 1;
                cur = cfg.edges[e].1;
                detour.push(cur);
            }
            if detour.is_empty() {
                pos += 1;
            } else {
                let insert_at = pos + 1;
                path.splice(insert_at..insert_at, detour);
            }
        }
        path
    }
}

/// An IPET ILP ready to solve: the assembled model plus the variable maps
/// needed to interpret a solution.
///
/// Exposed (rather than building and solving in one shot) so benchmarks and
/// differential tests can run [`rt_ilp::Model::solve`] and
/// [`rt_ilp::Model::solve_cold`] against the *same* real instance.
pub struct IpetIlp {
    /// The assembled maximisation model.
    pub model: Model,
    x: Vec<VarId>,
    y: Vec<VarId>,
}

impl IpetIlp {
    /// Builds the IPET objective `sum cost_i * x_i + sum edge_cost_j * y_j`
    /// for *this* instance's variables from a replacement cost vector.
    ///
    /// The constraint system of an entry point's IPET ILP depends only on
    /// the CFG (flow conservation, loop bounds, SCC circulation, manual
    /// constraints) — configuration variants change nothing but these
    /// coefficients. Pairing one [`build_structure`] skeleton with
    /// per-config objectives via
    /// [`rt_ilp::PresolvedModel::resolve_with_objective`] is the sweep's
    /// incremental re-solve path.
    pub fn objective_for(&self, costs: &[u64], edge_costs: &[u64]) -> LinExpr {
        assert_eq!(costs.len(), self.x.len());
        assert_eq!(edge_costs.len(), self.y.len());
        let mut obj = LinExpr::new();
        for (i, &c) in costs.iter().enumerate() {
            obj = obj + (c as i64, self.x[i]);
        }
        for (i, &c) in edge_costs.iter().enumerate() {
            if c > 0 {
                obj = obj + (c as i64, self.y[i]);
            }
        }
        obj
    }

    /// Converts a solver [`Solution`] of [`IpetIlp::model`] back into node
    /// and edge counts.
    pub fn interpret(&self, sol: &Solution) -> IpetSolution {
        IpetSolution {
            wcet: sol.objective_i64() as u64,
            counts: self.x.iter().map(|&v| sol.value_i64(v) as u64).collect(),
            edge_counts: self.y.iter().map(|&v| sol.value_i64(v) as u64).collect(),
            num_vars: self.model.num_vars(),
            num_constraints: self.model.num_constraints(),
            stats: sol.stats,
        }
    }
}

/// Builds and solves the IPET ILP for `cfg` with the given per-node and
/// per-edge costs (edge costs carry loop-entry cold misses).
///
/// # Errors
///
/// Returns the solver error if the instance is infeasible/unbounded (a bug
/// in the graph construction) or exceeds the node budget.
pub fn solve(
    cfg: &Cfg,
    costs: &[u64],
    edge_costs: &[u64],
    with_user_constraints: bool,
) -> Result<IpetSolution, SolveError> {
    let ilp = build_model(cfg, costs, edge_costs, with_user_constraints);
    let sol = ilp.model.solve()?;
    Ok(ilp.interpret(&sol))
}

/// Assembles the IPET ILP for `cfg` without solving it: the structural
/// skeleton from [`build_structure`] with the cost objective installed.
pub fn build_model(
    cfg: &Cfg,
    costs: &[u64],
    edge_costs: &[u64],
    with_user_constraints: bool,
) -> IpetIlp {
    let mut ilp = build_structure(cfg, with_user_constraints);
    let obj = ilp.objective_for(costs, edge_costs);
    ilp.model.set_objective(obj);
    ilp
}

/// Assembles the *structural* half of the IPET ILP — variables and every
/// constraint, no objective. Costs enter only through the objective
/// ([`IpetIlp::objective_for`]), so one structure serves every cost
/// configuration of its entry point.
///
/// **Declared bounds.** A node's count is bounded by its `max_count`
/// only when the node is on no cycle and its `max_count` is 0; no edge
/// or sink count is bounded at all. [`Model`] turns each declared bound
/// into a tableau row, and in the LP relaxation the rows below already
/// imply every bound left out, so the feasible region, and with it every
/// optimum, is the one the fully bounded model has:
///
/// * The entry row injects one unit of flow and the sink row absorbs
///   exactly one, so a feasible flow is one unit of entry-to-exit path
///   flow plus circulations, and a circulation stays inside one strongly
///   connected component (SCC). Nodes the entry does not reach carry no
///   flow: taking SCCs in topological order, nothing enters one whose
///   predecessors carry none, so its in-flow rows (acyclic) or SCC rows
///   (cyclic) hold its counts at 0.
/// * A node on no cycle carries path flow only, and each path passes it
///   at most once: `x_v ≤ 1 ≤ max_count(v)` whenever `max_count(v) ≥ 1`.
///   A `max_count` of 0 is the one bound nothing else implies.
/// * A node on a cycle lies in a cyclic SCC, whose row reads `x_n ≤
///   max_count(n)·(flow entering the SCC) [+ max_count(n) if the entry
///   is inside]`. Flow between SCCs is path flow, which enters an SCC at
///   most once, so at most one unit enters any SCC. None enters the SCC
///   holding the entry, since an edge into it starts at a node the entry
///   does not reach. Either way `x_n ≤ max_count(n)`.
/// * An edge `a → b`: `y_e ≤ x_a` by `a`'s out-flow row and `y_e ≤ x_b`
///   by `b`'s in-flow row.
/// * A sink: the sinks sum to 1 and are nonnegative.
///
/// The region is the same, not the path: on a graph with several optimal
/// integer points the solver may land on another one of equal value.
pub fn build_structure(cfg: &Cfg, with_user_constraints: bool) -> IpetIlp {
    let mut m = Model::maximize();

    // Each node's SCC, and which SCCs hold a cycle.
    let components = sccs(cfg);
    let mut component_of = vec![0usize; cfg.nodes.len()];
    for (c, members) in components.iter().enumerate() {
        for &n in members {
            component_of[n] = c;
        }
    }
    let mut cyclic: Vec<bool> = components.iter().map(|c| c.len() > 1).collect();
    for (a, b) in &cfg.edges {
        if a == b {
            cyclic[component_of[a.0]] = true;
        }
    }

    // Node count variables, bounded only where nothing else bounds them.
    let x: Vec<VarId> = cfg
        .nodes
        .iter()
        .zip(&component_of)
        .map(|(n, &c)| {
            let ub = (n.max_count == 0 && !cyclic[c]).then_some(0);
            m.int_var("x", 0, ub)
        })
        .collect();
    // Edge count variables.
    let y: Vec<VarId> = cfg.edges.iter().map(|_| m.int_var("y", 0, None)).collect();
    // Sink variables for exits (the path leaves the graph exactly once).
    let mut sink: Vec<Option<VarId>> = vec![None; cfg.nodes.len()];
    for e in &cfg.exits {
        sink[e.0] = Some(m.int_var("sink", 0, None));
    }

    // Flow conservation.
    let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); cfg.nodes.len()];
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); cfg.nodes.len()];
    for (i, (a, b)) in cfg.edges.iter().enumerate() {
        out_edges[a.0].push(i);
        in_edges[b.0].push(i);
    }
    for i in 0..cfg.nodes.len() {
        // Inflow, +1 virtual source edge for the entry: x_entry = 1 +
        // inflow; the entry of a kernel path runs once.
        let mut expr = LinExpr::new() + (1, x[i]);
        for &e in &in_edges[i] {
            expr = expr + (-1, y[e]);
        }
        m.add_eq(expr, i64::from(cfg.entry.0 == i));
        // Outflow (+ sink for exits).
        let mut expr = LinExpr::new() + (1, x[i]);
        for &e in &out_edges[i] {
            expr = expr + (-1, y[e]);
        }
        if let Some(s) = sink[i] {
            expr = expr + (-1, s);
        }
        m.add_eq(expr, 0);
    }
    // Exactly one sink.
    let mut total_sink = LinExpr::new();
    for &s in sink.iter().flatten() {
        total_sink = total_sink + (1, s);
    }
    m.add_eq(total_sink, 1);

    // Relative loop bounds: flow conservation alone admits free-floating
    // circulations around cycles; tie every loop node's count to the flow
    // actually *entering* the loop from outside (the classical IPET loop
    // constraint, §5.2).
    let mut latest_loop = vec![usize::MAX; cfg.nodes.len()];
    for (id, l) in cfg.loops.iter().enumerate() {
        for n in &l.nodes {
            latest_loop[n.0] = id;
        }
        // A node is in this loop iff this loop is the latest to mark it.
        let inside = |n: NodeId| latest_loop[n.0] == id;
        let entering: Vec<usize> = cfg
            .edges
            .iter()
            .enumerate()
            .filter(|(_, &(a, b))| !inside(a) && inside(b))
            .map(|(i, _)| i)
            .collect();
        for &n in &l.nodes {
            let mut expr = LinExpr::new() + (1, x[n.0]);
            for &e in &entering {
                expr = expr + (-(cfg.nodes[n.0].max_count as i64), y[e]);
            }
            m.add_le(expr, 0);
        }
    }

    // SCC-level circulation control: registered loops can share cycles
    // (one loop's entry edges come from another), letting flow feed
    // itself. For every strongly-connected component, every member's
    // count is additionally tied to the flow entering the *component*
    // from outside, which no mutual feeding can fake.
    let mut entering: Vec<Vec<usize>> = vec![Vec::new(); components.len()];
    for (i, (a, b)) in cfg.edges.iter().enumerate() {
        if component_of[a.0] != component_of[b.0] {
            entering[component_of[b.0]].push(i);
        }
    }
    for (c, scc) in components.iter().enumerate() {
        // Only components that actually contain a cycle need the rule.
        if !cyclic[c] {
            continue;
        }
        let entry_inside = component_of[cfg.entry.0] == c;
        for &n in scc {
            let mut expr = LinExpr::new() + (1, x[n]);
            for &e in &entering[c] {
                expr = expr + (-(cfg.nodes[n].max_count as i64), y[e]);
            }
            // The graph entry contributes one virtual entering unit.
            let rhs = if entry_inside {
                cfg.nodes[n].max_count as i64
            } else {
                0
            };
            m.add_le(expr, rhs);
        }
    }

    // Manual constraints (§5.2).
    if with_user_constraints {
        for c in &cfg.constraints {
            match *c {
                UserConstraint::Conflicts(a, b) => {
                    // Both bounded; when both bounds are 1 a linear sum
                    // suffices, otherwise scale through a binary selector.
                    let (ba, bb) = (cfg.nodes[a.0].max_count, cfg.nodes[b.0].max_count);
                    if ba <= 1 && bb <= 1 {
                        m.add_le(LinExpr::new() + (1, x[a.0]) + (1, x[b.0]), 1);
                    } else {
                        let z = m.int_var("z", 0, Some(1));
                        m.add_le(LinExpr::new() + (1, x[a.0]) + (-(ba as i64), z), 0);
                        m.add_le(LinExpr::new() + (1, x[b.0]) + (bb as i64, z), bb as i64);
                    }
                }
                UserConstraint::Consistent(a, b) => {
                    m.add_eq(LinExpr::new() + (1, x[a.0]) + (-1, x[b.0]), 0);
                }
                UserConstraint::ExecutesAtMost(a, n) => {
                    m.add_le(LinExpr::var(x[a.0]), n as i64);
                }
            }
        }
    }

    IpetIlp { model: m, x, y }
}

/// Iterative Tarjan SCC over the CFG; returns each component's node
/// indices.
fn sccs(cfg: &Cfg) -> Vec<Vec<usize>> {
    let n = cfg.nodes.len();
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (a, b) in &cfg.edges {
        out_edges[a.0].push(b.0);
    }
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut result = Vec::new();
    // Explicit DFS stack: (node, next-child-cursor).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut cursor)) = dfs.last_mut() {
            if *cursor == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = out_edges[v].get(*cursor) {
                *cursor += 1;
                if index[w] == usize::MAX {
                    dfs.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                dfs.pop();
                if let Some(&(parent, _)) = dfs.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    result.push(comp);
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{cost_model_from_flags, node_costs};
    use crate::cfg::CfgBuilder;
    use crate::kmodel::{self, BoundParams};
    use proptest::prelude::*;
    use rt_kernel::kernel::{EntryPoint, KernelConfig, SchedKind, VmKind};
    use rt_kernel::kprog::{Block, Layout};

    /// The formulation before implied bounds were dropped, kept as the
    /// reference [`build_structure`] is held to: every node bound `x_v ≤
    /// max_count(v)` and edge bound `y_e ≤ min(max_count(a),
    /// max_count(b))` re-added as a row.
    fn with_explicit_bounds(cfg: &Cfg, with_user_constraints: bool) -> IpetIlp {
        let mut ilp = build_structure(cfg, with_user_constraints);
        for (n, &x) in cfg.nodes.iter().zip(&ilp.x) {
            ilp.model.add_le(LinExpr::var(x), n.max_count as i64);
        }
        for (&(a, b), &y) in cfg.edges.iter().zip(&ilp.y) {
            let ub = cfg.nodes[a.0].max_count.min(cfg.nodes[b.0].max_count);
            ilp.model.add_le(LinExpr::var(y), ub as i64);
        }
        ilp
    }

    /// entry(c=10) -> loop(c=7, bound 5) -> exitA(c=3) | exitB(c=100)
    fn diamond() -> (Cfg, Vec<u64>) {
        let mut b = CfgBuilder::new();
        let e = b.node(Block::SwiEntry, 0);
        let l = b.self_loop(e, Block::ResolveLevel, 0, 5, None);
        let xa = b.chain(l, Block::ExitRestore, 0);
        let xb = b.chain(l, Block::PreemptSave, 0);
        b.exit(xa);
        b.exit(xb);
        let g = b.build(e);
        let mut costs = vec![0; g.nodes.len()];
        costs[e.0] = 10;
        costs[l.0] = 7;
        costs[xa.0] = 3;
        costs[xb.0] = 100;
        (g, costs)
    }

    #[test]
    fn maximises_over_paths_and_loops() {
        let (g, costs) = diamond();
        let sol = solve(&g, &costs, &vec![0; g.edges.len()], true).expect("solvable");
        // 10 + 5*7 + 100 (the expensive exit).
        assert_eq!(sol.wcet, 10 + 35 + 100);
        assert_eq!(sol.counts[1], 5, "loop taken to its bound");
    }

    #[test]
    fn conflict_constraint_excludes_combination() {
        let mut b = CfgBuilder::new();
        let e = b.node(Block::SwiEntry, 0);
        let a = b.chain(e, Block::CaseEp, 0);
        let c = b.chain(a, Block::CaseUntyped, 0);
        let x = b.chain(c, Block::ExitRestore, 0);
        // Also a direct skip around each.
        b.edge(e, c);
        b.edge(a, x);
        b.exit(x);
        b.constraint(UserConstraint::Conflicts(a, c));
        let g = b.build(e);
        let costs = vec![1, 50, 60, 1];
        let raw = solve(&g, &costs, &vec![0; g.edges.len()], false).expect("raw");
        assert_eq!(raw.wcet, 1 + 50 + 60 + 1, "raw takes both");
        let constrained = solve(&g, &costs, &vec![0; g.edges.len()], true).expect("constrained");
        assert_eq!(constrained.wcet, 1 + 60 + 1, "conflict removes the pair");
    }

    #[test]
    fn consistent_constraint_ties_counts() {
        let mut b = CfgBuilder::new();
        let e = b.node(Block::SwiEntry, 0);
        let l1 = b.self_loop(e, Block::TransferWord, 0, 10, None);
        let l2 = b.self_loop(l1, Block::FaultMsgWord, 0, 10, None);
        let x = b.chain(l2, Block::ExitRestore, 0);
        b.exit(x);
        b.constraint(UserConstraint::Consistent(l1, l2));
        b.constraint(UserConstraint::ExecutesAtMost(l1, 4));
        let g = b.build(e);
        let costs = vec![0, 5, 3, 0];
        let sol = solve(&g, &costs, &vec![0; g.edges.len()], true).expect("solvable");
        // Both loops capped at 4 by the pair of constraints.
        assert_eq!(sol.wcet, 4 * 5 + 4 * 3);
        let raw = solve(&g, &costs, &vec![0; g.edges.len()], false).expect("raw");
        assert_eq!(raw.wcet, 10 * 5 + 10 * 3);
    }

    #[test]
    fn trace_reconstruction_matches_counts() {
        let (g, costs) = diamond();
        let sol = solve(&g, &costs, &vec![0; g.edges.len()], true).expect("solvable");
        let trace = sol.trace(&g);
        // The trace visits each node exactly its counted number of times.
        for (i, &c) in sol.counts.iter().enumerate() {
            let seen = trace.iter().filter(|n| n.0 == i).count() as u64;
            assert_eq!(seen, c, "node {i}");
        }
        // And is a connected path (consecutive nodes joined by edges).
        for w in trace.windows(2) {
            assert!(
                g.edges.contains(&(w[0], w[1])),
                "missing edge {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
        assert_eq!(trace[0], g.entry);
        assert!(g.exits.contains(trace.last().expect("nonempty")));
    }

    #[test]
    fn entry_runs_exactly_once() {
        let (g, costs) = diamond();
        let sol = solve(&g, &costs, &vec![0; g.edges.len()], true).expect("solvable");
        assert_eq!(sol.counts[0], 1);
    }

    #[test]
    fn zero_bound_node_on_no_cycle_keeps_its_bound() {
        // entry -> dead(c=100, bound 0) -> exit | entry -> live(c=5) -> exit:
        // only the dead node's own bound keeps it off the worst path.
        let mut b = CfgBuilder::new();
        let e = b.node(Block::SwiEntry, 0);
        let dead = b.node_bounded(Block::CaseEp, 0, 0);
        b.edge(e, dead);
        let live = b.chain(e, Block::CaseUntyped, 0);
        let x = b.chain(live, Block::ExitRestore, 0);
        b.edge(dead, x);
        b.exit(x);
        let g = b.build(e);
        let costs = [1, 100, 5, 1];
        let sol = solve(&g, &costs, &vec![0; g.edges.len()], false).expect("solvable");
        assert_eq!(sol.wcet, 1 + 5 + 1, "the worst path takes the live node");
        assert_eq!(sol.counts[dead.0], 0);
    }

    /// A random graph for the implied-bound proptest.
    #[derive(Debug)]
    struct GraphCase {
        /// `(max_count, cost)` per node.
        nodes: Vec<(u64, u64)>,
        /// `(from, to, cost)`, each pair at most once.
        edges: Vec<(usize, usize, u64)>,
        entry: usize,
        /// The last node and one or two more.
        exits: Vec<usize>,
        /// Registered loops, as member lists; the entry is left out of
        /// each, as no kernel loop holds its entry vector.
        loops: Vec<Vec<usize>>,
        /// `(form, a, b, n)`: form 0 conflicts, 1 consistent, 2 executes
        /// at most `n` times.
        constraints: Vec<(u8, usize, usize, u64)>,
    }

    impl GraphCase {
        fn build(&self) -> (Cfg, Vec<u64>, Vec<u64>) {
            let mut b = CfgBuilder::new();
            let ids: Vec<NodeId> = self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, &(bound, _))| b.node_bounded(Block::ALL[i], 0, bound))
                .collect();
            for &(from, to, _) in &self.edges {
                b.edge(ids[from], ids[to]);
            }
            for &e in &self.exits {
                b.exit(ids[e]);
            }
            for members in &self.loops {
                let nodes: Vec<NodeId> = members
                    .iter()
                    .filter(|&&n| n != self.entry)
                    .map(|&n| ids[n])
                    .collect();
                if !nodes.is_empty() {
                    b.register_loop(nodes, ids[self.entry], 0, None);
                }
            }
            for &(form, a, c, n) in &self.constraints {
                b.constraint(match form {
                    0 => UserConstraint::Conflicts(ids[a], ids[c]),
                    1 => UserConstraint::Consistent(ids[a], ids[c]),
                    _ => UserConstraint::ExecutesAtMost(ids[a], n),
                });
            }
            let costs = self.nodes.iter().map(|&(_, c)| c).collect();
            let edge_costs = self.edges.iter().map(|&(_, _, c)| c).collect();
            (b.build(ids[self.entry]), costs, edge_costs)
        }
    }

    /// Graphs of 2–7 nodes with bounds 0–5. A forward spine to the last
    /// node, an exit, keeps many graphs feasible when drawn; random pairs
    /// add forward and back edges, self-loops and multi-node cycles, the
    /// entry may sit inside a cycle, and cycles behind it are
    /// unreachable. Registered loops are random member sets, so their
    /// rows need not match any cycle.
    fn graph_case() -> impl Strategy<Value = GraphCase> {
        (2usize..=7).prop_flat_map(|n| {
            let edges = (
                any::<bool>(),
                proptest::collection::vec(0u64..=10, n - 1),
                proptest::collection::vec((0..n, 0..n, 0u64..=10), 0..=10),
            )
                .prop_map(|(spine, spine_costs, extra)| {
                    let spine = spine_costs
                        .into_iter()
                        .enumerate()
                        .filter(|_| spine)
                        .map(|(i, c)| (i, i + 1, c));
                    let mut edges: Vec<(usize, usize, u64)> = Vec::new();
                    for (a, b, c) in spine.chain(extra) {
                        if !edges.iter().any(|&(x, y, _)| (x, y) == (a, b)) {
                            edges.push((a, b, c));
                        }
                    }
                    edges
                });
            (
                proptest::collection::vec((0u64..=5, 0u64..=20), n),
                edges,
                (0..n, proptest::collection::vec(0..n, 1..=2)),
                proptest::collection::vec(proptest::collection::vec(0..n, 1..=3), 0..=2),
                proptest::collection::vec((0u8..3, 0..n, 0..n, 0u64..=3), 0..=2),
            )
                .prop_map(move |(nodes, edges, (entry, exits), loops, constraints)| {
                    GraphCase {
                        nodes,
                        edges,
                        entry,
                        exits: [n - 1].into_iter().chain(exits).collect(),
                        loops,
                        constraints,
                    }
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Dropping the implied bounds keeps every graph's feasibility and
        /// optimum value. Counts may differ where several integer points
        /// tie for the optimum, so they are not compared.
        #[test]
        fn implied_bounds_keep_feasibility_and_optimum(case in graph_case()) {
            let (g, costs, edge_costs) = case.build();
            let optimum = |mut ilp: IpetIlp| {
                ilp.model.set_objective(ilp.objective_for(&costs, &edge_costs));
                ilp.model.solve().map(|s| s.objective)
            };
            prop_assert_eq!(
                optimum(build_structure(&g, true)),
                optimum(with_explicit_bounds(&g, true)),
                "{:?}",
                case
            );
        }
    }

    /// Every IPET structure of the 2,688-config fleet, as
    /// `rt_bench::sweep::fleet_jobs` draws them: entry × scheduler × VM ×
    /// preemption points × fastpath × loop bounds (open, closed, and an
    /// eight-times finer clear chunk for the lazy scheduler), with manual
    /// constraints off and on; 448 structures over 224 graphs.
    fn fleet_structures() -> Vec<(EntryPoint, KernelConfig, BoundParams, bool)> {
        let mut out = Vec::new();
        for sched in [SchedKind::Lazy, SchedKind::Benno, SchedKind::BennoBitmap] {
            for vm in [VmKind::Asid, VmKind::ShadowPt] {
                for preemption_points in [false, true] {
                    for fastpath in [false, true] {
                        let kernel = KernelConfig {
                            sched,
                            vm,
                            preemption_points,
                            fastpath,
                        };
                        let mut bounds = vec![BoundParams::open(), BoundParams::closed()];
                        if sched == SchedKind::Lazy {
                            let mut chunked = BoundParams::open();
                            chunked.before_clear_lines /= 8;
                            bounds.push(chunked);
                        }
                        for bounds in bounds {
                            for entry in EntryPoint::ALL {
                                for manual in [false, true] {
                                    out.push((entry, kernel, bounds, manual));
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Solves one fleet structure in both formulations the way the
    /// analysis does, and asserts equal answers: the plain solve under the
    /// canonical costs, then the structure seeded under the canonical
    /// costs and re-solved under the canonical and the L2-on,
    /// kernel-locked costs. Each solve must agree on the bound, every node
    /// and edge count and the branch-and-bound node count.
    fn assert_formulations_agree(
        layout: &Layout,
        (entry, kernel, bounds, manual): (EntryPoint, KernelConfig, BoundParams, bool),
    ) {
        let graph = kmodel::build_cfg_with(entry, kernel, &bounds);
        let canonical = node_costs(
            &graph,
            layout,
            &cost_model_from_flags(layout, false, false, false),
        );
        let locked = node_costs(
            &graph,
            layout,
            &cost_model_from_flags(layout, true, false, true),
        );
        let answers = |mut ilp: IpetIlp| {
            ilp.model
                .set_objective(ilp.objective_for(&canonical.node, &canonical.edge));
            let plain = ilp.model.solve().expect("IPET ILP must solve");
            let presolved = ilp.model.presolved().expect("IPET ILP must presolve");
            presolved
                .warm_up()
                .expect("IPET root LP must have an optimum");
            let mut out = vec![ilp.interpret(&plain)];
            for costs in [&canonical, &locked] {
                let objective = ilp.objective_for(&costs.node, &costs.edge);
                let sol = presolved
                    .resolve_with_objective(&objective)
                    .expect("IPET ILP must re-solve");
                out.push(ilp.interpret(&sol));
            }
            out.into_iter()
                .map(|s| (s.wcet, s.counts, s.edge_counts, s.stats.nodes))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            answers(build_structure(&graph, manual)),
            answers(with_explicit_bounds(&graph, manual)),
            "{entry:?} {kernel:?} {bounds:?} manual={manual}"
        );
    }

    #[test]
    fn fleet_sample_matches_the_explicit_bound_formulation() {
        // Every 11th structure: 41 of the 448, with every entry point,
        // kernel, bound variant and constraint setting among them.
        let layout = Layout::new();
        for job in fleet_structures().into_iter().step_by(11) {
            assert_formulations_agree(&layout, job);
        }
    }

    #[test]
    #[ignore = "every fleet structure; run in release by ci.sh"]
    fn every_fleet_structure_matches_the_explicit_bound_formulation() {
        let layout = Layout::new();
        let structures = fleet_structures();
        assert_eq!(structures.len(), 448);
        for job in structures {
            assert_formulations_agree(&layout, job);
        }
    }
}
