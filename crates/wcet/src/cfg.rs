//! Control-flow graphs over kernel blocks, with virtual inlining.
//!
//! A node is a `(Block, context)` pair: the same kernel block appearing at
//! two call sites becomes two nodes, so the ILP can count (and the cache
//! model can cost) them separately — the "virtual inlining" of §5.2.
//!
//! Our graphs are built per kernel entry point, so every loop is entered
//! at most once per analysed path; loop bounds are therefore expressed as
//! absolute per-entry execution bounds (`max_count`). All other nodes
//! execute at most once.

use std::collections::HashMap;

use rt_kernel::kprog::Block;

/// Node handle within one [`Cfg`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// One CFG node: a kernel block in a specific inlining context.
#[derive(Clone, Debug)]
pub struct Node {
    /// The kernel block.
    pub block: Block,
    /// Virtual-inlining context (0 = outermost).
    pub ctx: u16,
    /// Maximum executions per kernel entry (1 for straight-line code, the
    /// loop bound for loop members).
    pub max_count: u64,
}

/// A natural loop the builder created (used by the cache persistence
/// analysis and by the loop-bound engine).
#[derive(Clone, Debug)]
pub struct LoopInfo {
    /// Nodes forming the loop body.
    pub nodes: Vec<NodeId>,
    /// The node immediately before the loop (charged the first-miss cost
    /// of persistent lines).
    pub preheader: NodeId,
    /// Declared iteration bound.
    pub bound: u64,
    /// Loop-counter semantics for the §5.3 bound computation, if the loop
    /// is a counter loop.
    pub semantics: Option<crate::loopbound::LoopSemantics>,
}

/// The paper's three manual ILP constraint forms (§5.2).
#[derive(Clone, Debug)]
pub enum UserConstraint {
    /// "a conflicts with b in f": the two nodes never both execute in one
    /// kernel entry.
    Conflicts(NodeId, NodeId),
    /// "a is consistent with b in f": both execute the same number of
    /// times.
    Consistent(NodeId, NodeId),
    /// "a executes n times": at most `n` executions in total.
    ExecutesAtMost(NodeId, u64),
}

/// A per-entry-point control-flow graph.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Nodes (index = `NodeId`).
    pub nodes: Vec<Node>,
    /// Directed edges.
    pub edges: Vec<(NodeId, NodeId)>,
    /// Entry node (the exception vector block).
    pub entry: NodeId,
    /// Exit nodes (§5.2: return-to-user, or the start of the interrupt
    /// handler — i.e. taken preemption points).
    pub exits: Vec<NodeId>,
    /// Loops, for persistence analysis and bound computation.
    pub loops: Vec<LoopInfo>,
    /// Manual infeasible-path constraints shipped with the graph.
    pub constraints: Vec<UserConstraint>,
}

impl Cfg {
    /// Successors of `n`.
    pub fn succs(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.edges
            .iter()
            .filter(move |(a, _)| *a == n)
            .map(|(_, b)| *b)
    }

    /// Predecessors of `n`.
    pub fn preds(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.edges
            .iter()
            .filter(move |(_, b)| *b == n)
            .map(|(a, _)| *a)
    }

    /// Checks that `trace` (a block sequence recorded by the kernel's
    /// executor) is a path of this graph: consecutive blocks must be
    /// connected by an edge (any contexts). Used by the
    /// CFG-correspondence tests — the analysed program must
    /// overapproximate the executed one.
    pub fn admits_trace(&self, trace: &[Block]) -> Result<(), String> {
        if trace.is_empty() {
            return Ok(());
        }
        // Map block -> node ids.
        let mut by_block: HashMap<Block, Vec<NodeId>> = HashMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            by_block.entry(n.block).or_default().push(NodeId(i));
        }
        // NFA simulation: the set of nodes the trace could currently be at.
        let Some(start) = by_block.get(&trace[0]) else {
            return Err(format!("trace starts at {:?}, not in graph", trace[0]));
        };
        let mut current: Vec<NodeId> = start.clone();
        for (i, b) in trace.iter().enumerate().skip(1) {
            let mut next = Vec::new();
            for &c in &current {
                for s in self.succs(c) {
                    if self.nodes[s.0].block == *b && !next.contains(&s) {
                        next.push(s);
                    }
                }
            }
            if next.is_empty() {
                return Err(format!(
                    "no edge admits step {}: {:?} -> {:?}",
                    i,
                    trace[i - 1],
                    b
                ));
            }
            current = next;
        }
        Ok(())
    }
}

/// Incremental CFG construction with chain/branch/loop combinators.
#[derive(Debug, Default)]
pub struct CfgBuilder {
    nodes: Vec<Node>,
    edges: Vec<(NodeId, NodeId)>,
    exits: Vec<NodeId>,
    loops: Vec<LoopInfo>,
    constraints: Vec<UserConstraint>,
    next_ctx: u16,
}

impl CfgBuilder {
    /// Creates an empty builder.
    pub fn new() -> CfgBuilder {
        CfgBuilder::default()
    }

    /// Allocates a fresh inlining context id.
    pub fn fresh_ctx(&mut self) -> u16 {
        self.next_ctx += 1;
        self.next_ctx
    }

    /// Adds a node executing at most once.
    pub fn node(&mut self, block: Block, ctx: u16) -> NodeId {
        self.node_bounded(block, ctx, 1)
    }

    /// Adds a node with an explicit execution bound.
    pub fn node_bounded(&mut self, block: Block, ctx: u16, max_count: u64) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            block,
            ctx,
            max_count,
        });
        id
    }

    /// Adds an edge.
    pub fn edge(&mut self, from: NodeId, to: NodeId) {
        if !self.edges.contains(&(from, to)) {
            self.edges.push((from, to));
        }
    }

    /// Adds `block` after `prev` and returns the new node.
    pub fn chain(&mut self, prev: NodeId, block: Block, ctx: u16) -> NodeId {
        let n = self.node(block, ctx);
        self.edge(prev, n);
        n
    }

    /// Adds a sequence of blocks after `prev`, returning the last node.
    pub fn seq(&mut self, mut prev: NodeId, blocks: &[Block], ctx: u16) -> NodeId {
        for &b in blocks {
            prev = self.chain(prev, b, ctx);
        }
        prev
    }

    /// Adds a single-node self-loop after `prev`: the node may run up to
    /// `bound` times, then control continues. Returns `(loop node, node
    /// after the loop is a caller concern — the loop node itself is
    /// returned)`.
    pub fn self_loop(
        &mut self,
        prev: NodeId,
        block: Block,
        ctx: u16,
        bound: u64,
        semantics: Option<crate::loopbound::LoopSemantics>,
    ) -> NodeId {
        let n = self.node_bounded(block, ctx, bound);
        self.edge(prev, n);
        self.edge(n, n);
        self.loops.push(LoopInfo {
            nodes: vec![n],
            preheader: prev,
            bound,
            semantics,
        });
        n
    }

    /// Marks an exit node.
    pub fn exit(&mut self, n: NodeId) {
        if !self.exits.contains(&n) {
            self.exits.push(n);
        }
    }

    /// Records a manual constraint.
    pub fn constraint(&mut self, c: UserConstraint) {
        self.constraints.push(c);
    }

    /// Mutable access to the registered loops (bound adjustments).
    pub fn loops_mut(&mut self) -> &mut Vec<LoopInfo> {
        &mut self.loops
    }

    /// Registers a loop the combinators did not create (hand-wired
    /// multi-node loops).
    pub fn register_loop(
        &mut self,
        nodes: Vec<NodeId>,
        preheader: NodeId,
        bound: u64,
        semantics: Option<crate::loopbound::LoopSemantics>,
    ) {
        self.loops.push(LoopInfo {
            nodes,
            preheader,
            bound,
            semantics,
        });
    }

    /// Finalises the graph with `entry` as its entry node.
    pub fn build(self, entry: NodeId) -> Cfg {
        assert!(!self.exits.is_empty(), "CFG has no exits");
        Cfg {
            nodes: self.nodes,
            edges: self.edges,
            entry,
            exits: self.exits,
            loops: self.loops,
            constraints: self.constraints,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_kernel::kprog::Block;

    fn tiny() -> Cfg {
        // SwiEntry -> DispatchStart -> (loop ResolveLevel x3) -> ExitRestore
        let mut b = CfgBuilder::new();
        let e = b.node(Block::SwiEntry, 0);
        let d = b.chain(e, Block::DispatchStart, 0);
        let l = b.self_loop(d, Block::ResolveLevel, 0, 3, None);
        let x = b.chain(l, Block::ExitRestore, 0);
        b.exit(x);
        b.build(e)
    }

    #[test]
    fn succs_preds() {
        let g = tiny();
        let d = NodeId(1);
        let l = NodeId(2);
        assert!(g.succs(d).any(|n| n == l));
        assert!(g.succs(l).any(|n| n == l), "self loop");
        assert!(g.preds(l).any(|n| n == d));
    }

    #[test]
    fn admits_valid_trace() {
        let g = tiny();
        let trace = vec![
            Block::SwiEntry,
            Block::DispatchStart,
            Block::ResolveLevel,
            Block::ResolveLevel,
            Block::ExitRestore,
        ];
        g.admits_trace(&trace).expect("valid trace");
    }

    #[test]
    fn rejects_invalid_step() {
        let g = tiny();
        let trace = vec![Block::SwiEntry, Block::ExitRestore];
        assert!(g.admits_trace(&trace).is_err());
    }

    #[test]
    fn contexts_make_distinct_nodes() {
        let mut b = CfgBuilder::new();
        let e = b.node(Block::SwiEntry, 0);
        let c1 = b.fresh_ctx();
        let c2 = b.fresh_ctx();
        let r1 = b.chain(e, Block::ResolveEntry, c1);
        let r2 = b.chain(r1, Block::ResolveEntry, c2);
        b.exit(r2);
        let g = b.build(e);
        assert_eq!(g.nodes.len(), 3);
        assert_ne!(g.nodes[1].ctx, g.nodes[2].ctx);
    }

    #[test]
    #[should_panic(expected = "no exits")]
    fn exitless_graph_panics() {
        let mut b = CfgBuilder::new();
        let e = b.node(Block::SwiEntry, 0);
        let _ = b.build(e);
    }
}
