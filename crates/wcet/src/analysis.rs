//! Top-level analysis driver.
//!
//! [`analyze`] takes an entry point and an [`AnalysisConfig`] (which
//! kernel, which cache configuration, pinning on or off, manual
//! constraints applied or not) and produces a [`WcetReport`]: the computed
//! bound plus the worst path's per-node execution counts — the material
//! from which the benches regenerate Table 1, Table 2 and Fig. 8.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use rt_hw::{cycles_to_us, Addr, CycleAccounts, Cycles};
use rt_kernel::kernel::{EntryPoint, KernelConfig};
use rt_kernel::kprog::{Block, Layout};
use rt_kernel::pinning;

use crate::cfg::{Cfg, NodeId, UserConstraint};
use crate::cost::{i_lines_of, loop_lines_persistent, CostModel};
use crate::ipet;
use crate::kmodel;

/// Configuration of one analysis run.
///
/// `Eq`/`Hash` make the configuration usable as a memoization key: two
/// equal configurations produce bit-identical [`WcetReport`]s (the whole
/// pipeline is deterministic), which is what lets [`crate::AnalysisCache`]
/// dedupe repeated sweep entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AnalysisConfig {
    /// Which kernel (before/after designs).
    pub kernel: KernelConfig,
    /// L2 cache enabled (§5.1: also raises memory latency to 96 cycles).
    pub l2: bool,
    /// Cache pinning applied (§4).
    pub pinning: bool,
    /// The §4/§8 extension: the whole kernel locked into the L2 (implies
    /// the L2 being on).
    pub l2_kernel_locked: bool,
    /// Apply the manual infeasible-path constraints (§5.2/§6); disabling
    /// them shows the raw-CFG overestimate the paper starts from.
    pub manual_constraints: bool,
}

impl AnalysisConfig {
    /// The paper's headline configuration: after-kernel, L2 off, no
    /// pinning, constraints applied.
    pub fn after_l2_off() -> AnalysisConfig {
        AnalysisConfig {
            kernel: KernelConfig::after(),
            l2: false,
            pinning: false,
            l2_kernel_locked: false,
            manual_constraints: true,
        }
    }
}

/// Result of one analysis run.
#[derive(Clone, Debug)]
pub struct WcetReport {
    /// The computed worst-case bound in cycles.
    pub cycles: Cycles,
    /// The bound in microseconds at 532 MHz.
    pub us: f64,
    /// The bound split into attribution buckets ([`rt_hw::Bucket`]) over
    /// the ILP's chosen worst path — same vocabulary as the machine's
    /// observed [`CycleAccounts`], so observed-vs-computed comparisons work
    /// bucket by bucket. Invariant: `breakdown.total() == cycles`.
    pub breakdown: CycleAccounts,
    /// Worst-path node counts: `(block, ctx, count, unit cost)` for every
    /// node executed on the worst path, heaviest contribution first.
    pub worst_path: Vec<(Block, u16, u64, u64)>,
    /// The concrete worst-case execution trace (§6: "we converted the
    /// solution to a concrete execution trace"), as the block sequence
    /// from entry vector to path end.
    pub trace: Vec<(Block, u16)>,
    /// ILP variable count (§6.3 reports analysis effort).
    pub ilp_vars: usize,
    /// ILP constraint count.
    pub ilp_constraints: usize,
    /// Host-time breakdown of the analysis phases — the §6.3 accounting
    /// ("over half the execution time of Chronos was spent in the address
    /// and cache analysis phases"; ours is ILP-dominated instead).
    pub phases: PhaseTimes,
}

/// Host-time spent per analysis phase, plus the ILP solver's own work
/// counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Control-flow-graph construction (incl. virtual inlining).
    pub build: std::time::Duration,
    /// Cache analysis and per-node costing.
    pub costs: std::time::Duration,
    /// IPET ILP solving.
    pub ilp: std::time::Duration,
    /// Solver work counters (branch-and-bound nodes, simplex pivots,
    /// warm-start hit rate) for the ILP phase.
    pub ilp_stats: rt_ilp::SolveStats,
}

impl WcetReport {
    /// Total contribution of `block` (all contexts) to the bound.
    pub fn contribution(&self, block: Block) -> u64 {
        self.worst_path
            .iter()
            .filter(|(b, _, _, _)| *b == block)
            .map(|(_, _, n, c)| n * c)
            .sum()
    }
}

/// Per-node and per-edge costs of a graph.
#[derive(Clone, Debug)]
pub struct Costs {
    /// Cost of each node execution.
    pub node: Vec<u64>,
    /// Cost of each edge traversal (loop-persistence cold misses land on
    /// the edges *entering* a loop, so they are paid once per loop entry
    /// no matter how often the preheader itself runs).
    pub edge: Vec<u64>,
    /// Per-node cost split into attribution buckets; `node[i]` is always
    /// `node_split[i].total()`.
    pub node_split: Vec<CycleAccounts>,
    /// Per-edge cost split (entirely ifetch-miss: the only edge costs are
    /// loop-persistence cold fills).
    pub edge_split: Vec<CycleAccounts>,
}

/// Computes costs for `cfg` under `model`, applying loop persistence:
/// conflict-free loop lines hit inside the loop and their cold misses are
/// charged on the loop's entry edges.
pub fn node_costs(cfg: &Cfg, layout: &Layout, model: &CostModel) -> Costs {
    node_costs_via(cfg, layout, model, |block, persistent| {
        model.block_cost_split(layout, block, &persistent.lines)
    })
}

/// The instruction lines guaranteed resident while a node runs: the
/// union of the lines of every persistent loop holding it. `lines` is the
/// set the block costing probes; `sorted` holds the same lines sorted,
/// the canonical form [`crate::AnalysisCache`] keys block costs on.
pub(crate) struct Persistent {
    pub(crate) lines: HashSet<Addr>,
    pub(crate) sorted: Arc<[Addr]>,
}

impl Persistent {
    fn union<'a>(sets: impl Iterator<Item = &'a HashSet<Addr>>) -> Persistent {
        let lines: HashSet<Addr> = sets.flatten().copied().collect();
        let mut sorted: Vec<Addr> = lines.iter().copied().collect();
        sorted.sort_unstable();
        Persistent {
            lines,
            sorted: sorted.into(),
        }
    }
}

/// [`node_costs`] with the per-node block costing routed through
/// `block_split`. [`node_costs`] passes [`CostModel::block_cost_split`]
/// straight through; [`crate::AnalysisCache`] passes a memoizing wrapper
/// keyed on `(block, persistent lines, model)` — virtual inlining repeats
/// the same block across many contexts and graphs, so the wrapper prices
/// each distinct combination once per sweep. Everything *around* the
/// block costs (persistence detection, entry-edge charges) is shared here
/// so the two paths cannot drift.
///
/// Each distinct set of persistent loops builds its line set once, and
/// the nodes it holds share it; nodes in no persistent loop share the
/// empty set.
pub(crate) fn node_costs_via(
    cfg: &Cfg,
    layout: &Layout,
    model: &CostModel,
    mut block_split: impl FnMut(Block, &Persistent) -> CycleAccounts,
) -> Costs {
    // Each node's persistent loops, as indices into `loop_lines`.
    let mut held_by: Vec<Vec<usize>> = vec![Vec::new(); cfg.nodes.len()];
    let mut loop_lines: Vec<HashSet<Addr>> = Vec::new();
    let mut edge_split: Vec<CycleAccounts> = vec![CycleAccounts::default(); cfg.edges.len()];
    for l in &cfg.loops {
        let blocks: Vec<Block> = l.nodes.iter().map(|&n| cfg.nodes[n.0].block).collect();
        let lines = i_lines_of(layout, &blocks);
        if loop_lines_persistent(&lines) {
            let id = loop_lines.len();
            for &n in &l.nodes {
                held_by[n.0].push(id);
            }
            // A node is in this loop iff this loop is its latest.
            let inside = |n: NodeId| held_by[n.0].last() == Some(&id);
            let entry_cost = model.persistence_entry_cost_split(&lines);
            for (i, &(a, b)) in cfg.edges.iter().enumerate() {
                if !inside(a) && inside(b) {
                    edge_split[i] = edge_split[i].add(entry_cost);
                }
            }
            loop_lines.push(lines);
        }
    }
    let mut shared: BTreeMap<&[usize], Persistent> = BTreeMap::new();
    let node_split: Vec<CycleAccounts> = cfg
        .nodes
        .iter()
        .zip(&held_by)
        .map(|(n, held)| {
            let persistent = shared
                .entry(held)
                .or_insert_with(|| Persistent::union(held.iter().map(|&i| &loop_lines[i])));
            block_split(n.block, persistent)
        })
        .collect();
    Costs {
        node: node_split.iter().map(|c| c.total()).collect(),
        edge: edge_split.iter().map(|c| c.total()).collect(),
        node_split,
        edge_split,
    }
}

/// Folds a solved IPET solution's node and edge counts over the split
/// costs: the computed bound, bucket by bucket.
fn path_breakdown(costs: &Costs, sol: &ipet::IpetSolution) -> CycleAccounts {
    let mut b = CycleAccounts::default();
    for (i, &n) in sol.counts.iter().enumerate() {
        b = b.add(costs.node_split[i].scaled(n));
    }
    for (i, &n) in sol.edge_counts.iter().enumerate() {
        b = b.add(costs.edge_split[i].scaled(n));
    }
    debug_assert_eq!(b.total(), sol.wcet, "bucket split must sum to the bound");
    b
}

/// Builds the [`CostModel`] an [`AnalysisConfig`] describes (resolving the
/// pinned line sets against `layout` when pinning is on).
pub(crate) fn cost_model(layout: &Layout, cfg: &AnalysisConfig) -> CostModel {
    cost_model_from_flags(
        layout,
        cfg.l2 || cfg.l2_kernel_locked,
        cfg.pinning,
        cfg.l2_kernel_locked,
    )
}

/// [`cost_model`] from the *effective* flags: `l2` must already fold in
/// `l2_kernel_locked` (locking implies the L2 being on). This is the
/// normalized form [`crate::AnalysisCache`] keys cost models by, so
/// configurations that differ only in flags the model ignores share one
/// construction.
pub(crate) fn cost_model_from_flags(
    layout: &Layout,
    l2: bool,
    pinning: bool,
    l2_kernel_locked: bool,
) -> CostModel {
    CostModel {
        l2,
        l2_kernel_locked,
        pinned_i: if pinning {
            pinning::pinned_icache_lines(layout).into_iter().collect()
        } else {
            HashSet::new()
        },
        pinned_d: if pinning {
            pinning::pinned_dcache_lines().into_iter().collect()
        } else {
            HashSet::new()
        },
    }
}

/// Folds a solved IPET instance into the user-facing [`WcetReport`]:
/// trace reconstruction, worst-path contribution ranking, and the
/// per-bucket breakdown. Shared by every analysis entry path (plain,
/// forced, cached) so all of them report identically.
pub(crate) fn report_from_solution(
    graph: &Cfg,
    costs: &Costs,
    sol: &ipet::IpetSolution,
    phases: PhaseTimes,
) -> WcetReport {
    let trace: Vec<(Block, u16)> = sol
        .trace(graph)
        .into_iter()
        .map(|n| (graph.nodes[n.0].block, graph.nodes[n.0].ctx))
        .collect();
    let mut worst_path: Vec<(Block, u16, u64, u64)> = sol
        .counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| (graph.nodes[i].block, graph.nodes[i].ctx, c, costs.node[i]))
        .collect();
    worst_path.sort_by_key(|&(_, _, n, c)| std::cmp::Reverse(n * c));
    WcetReport {
        cycles: sol.wcet,
        us: cycles_to_us(sol.wcet),
        breakdown: path_breakdown(costs, sol),
        worst_path,
        trace,
        ilp_vars: sol.num_vars,
        ilp_constraints: sol.num_constraints,
        phases,
    }
}

/// Runs the full analysis for one entry point.
///
/// # Panics
///
/// Panics if the IPET ILP fails to solve — the graphs are constructed to
/// be feasible and bounded, so failure is a construction bug.
pub fn analyze(entry: EntryPoint, cfg: &AnalysisConfig) -> WcetReport {
    analyze_with_bounds(entry, cfg, &kmodel::BoundParams::default())
}

/// As [`analyze`] with explicit loop-bound parameters — how the §6.1
/// open-vs-closed-system comparison is produced.
pub fn analyze_with_bounds(
    entry: EntryPoint,
    cfg: &AnalysisConfig,
    bounds: &kmodel::BoundParams,
) -> WcetReport {
    let layout = Layout::new();
    let t0 = std::time::Instant::now();
    let graph = kmodel::build_cfg_with(entry, cfg.kernel, bounds);
    let t_build = t0.elapsed();
    let model = cost_model(&layout, cfg);
    let t0 = std::time::Instant::now();
    let costs = node_costs(&graph, &layout, &model);
    let t_costs = t0.elapsed();
    let t0 = std::time::Instant::now();
    let sol = ipet::solve(&graph, &costs.node, &costs.edge, cfg.manual_constraints)
        .expect("IPET ILP must be solvable");
    let t_ilp = t0.elapsed();
    let phases = PhaseTimes {
        build: t_build,
        costs: t_costs,
        ilp: t_ilp,
        ilp_stats: sol.stats,
    };
    report_from_solution(&graph, &costs, &sol, phases)
}

/// Analyzes every `(entry, config)` pair of a sweep, in parallel, with all
/// immutable artifacts (layout, CFGs, cost models, presolved ILP
/// skeletons) and fully duplicated jobs shared through one
/// [`crate::AnalysisCache`].
///
/// The worker count honours `RT_JOBS` (see [`rt_pool::Pool::from_env`]).
/// Results are returned in input order and are bit-identical to calling
/// [`analyze`] sequentially on each pair, for any worker count — the
/// determinism the golden-file tests enforce.
pub fn analyze_batch(jobs: &[(EntryPoint, AnalysisConfig)]) -> Vec<WcetReport> {
    analyze_batch_with(
        jobs,
        &rt_pool::Pool::from_env(),
        &crate::AnalysisCache::new(),
    )
}

/// As [`analyze_batch`] with an explicit pool and cache, so several sweeps
/// (e.g. Table 1 and Table 2, which share their after-kernel/L2-off
/// analyses) can dedupe against the same memo.
pub fn analyze_batch_with(
    jobs: &[(EntryPoint, AnalysisConfig)],
    pool: &rt_pool::Pool,
    cache: &crate::AnalysisCache,
) -> Vec<WcetReport> {
    let with_bounds: Vec<(EntryPoint, AnalysisConfig, kmodel::BoundParams)> = jobs
        .iter()
        .map(|&(entry, cfg)| (entry, cfg, kmodel::BoundParams::default()))
        .collect();
    analyze_batch_bounds_with(&with_bounds, pool, cache)
}

/// As [`analyze_batch_with`] with explicit per-job loop-bound parameters —
/// the full job triple the fleet sweep generates. Results are in input
/// order and bit-identical to serial [`analyze_with_bounds`] calls.
pub fn analyze_batch_bounds_with(
    jobs: &[(EntryPoint, AnalysisConfig, kmodel::BoundParams)],
    pool: &rt_pool::Pool,
    cache: &crate::AnalysisCache,
) -> Vec<WcetReport> {
    // Dispatch each *distinct* job once: a duplicate dispatched as its own
    // task would just park its worker on the builder's OnceLock, idling a
    // thread that could be solving a different instance. The job triple is
    // exactly the report memo's key, so duplicates are guaranteed hits
    // afterward.
    let mut first = std::collections::HashMap::new();
    let mut unique = Vec::new();
    let index: Vec<usize> = jobs
        .iter()
        .map(|job| {
            *first.entry(*job).or_insert_with(|| {
                unique.push(*job);
                unique.len() - 1
            })
        })
        .collect();
    // Order same-structure jobs adjacently (same entry, kernel, bounds and
    // constraint set share one presolved ILP skeleton and basis seed), so
    // a worker picking up consecutive jobs re-solves a structure that is
    // already built and warm instead of interleaving cold structure
    // builds. Groups keep first-appearance order; results are remapped to
    // input order below, so this only changes scheduling, never output.
    // The pool deals *contiguous blocks* of this order to its workers, so
    // distinct workers start on distinct structures rather than convoying
    // on the first group's builder OnceLock.
    let mut group_of = std::collections::HashMap::new();
    let rank: Vec<usize> = unique
        .iter()
        .map(|(entry, cfg, bounds)| {
            let next = group_of.len();
            *group_of
                .entry((*entry, cfg.kernel, cfg.manual_constraints, *bounds))
                .or_insert(next)
        })
        .collect();
    let mut order: Vec<usize> = (0..unique.len()).collect();
    order.sort_by_key(|&i| rank[i]);
    let mut pos = vec![0usize; unique.len()];
    for (p, &i) in order.iter().enumerate() {
        pos[i] = p;
    }
    let ordered: Vec<(EntryPoint, AnalysisConfig, kmodel::BoundParams)> =
        order.iter().map(|&i| unique[i]).collect();
    // Tell the pool where the structure groups begin so its initial
    // block boundaries snap to group starts: an even split that lands
    // mid-group starts two workers on the *same* presolved skeleton,
    // convoying on its builder (the measured two-worker fleet
    // regression). Stealing still rebalances across groups afterwards.
    let group_starts: Vec<usize> = order
        .iter()
        .enumerate()
        .filter(|&(p, &i)| p == 0 || rank[order[p - 1]] != rank[i])
        .map(|(p, _)| p)
        .collect();
    let distinct: Vec<Arc<WcetReport>> =
        pool.parallel_map_aligned(ordered, &group_starts, |(entry, cfg, bounds)| {
            cache.analyze_with_bounds(entry, &cfg, &bounds)
        });
    index
        .into_iter()
        .map(|i| (*distinct[pos[i]]).clone())
        .collect()
}

/// Builds the IPET ILP instance for one entry point without solving it.
///
/// `repro micro` uses this to compare [`rt_ilp::Model::solve`]
/// (warm-started) against [`rt_ilp::Model::solve_cold`] on the real
/// instance; the differential tests use it to check both agree.
pub fn ipet_ilp(entry: EntryPoint, cfg: &AnalysisConfig) -> ipet::IpetIlp {
    ipet_ilp_with(entry, cfg, &kmodel::BoundParams::default())
}

/// As [`ipet_ilp`] with explicit loop-bound parameters.
pub fn ipet_ilp_with(
    entry: EntryPoint,
    cfg: &AnalysisConfig,
    bounds: &kmodel::BoundParams,
) -> ipet::IpetIlp {
    let layout = Layout::new();
    let graph = kmodel::build_cfg_with(entry, cfg.kernel, bounds);
    let model = cost_model(&layout, cfg);
    let costs = node_costs(&graph, &layout, &model);
    ipet::build_model(&graph, &costs.node, &costs.edge, cfg.manual_constraints)
}

/// Forces the analysis onto a specific path by adding `ExecutesAtMost(n,
/// 0)` for every node whose block is not in `allowed` — how Fig. 8
/// computes the model's prediction *for the path actually measured*
/// ("adding extra constraints to the ILP problem to force analysis of the
/// desired path", §6.2).
pub fn analyze_forced(entry: EntryPoint, cfg: &AnalysisConfig, allowed: &[Block]) -> WcetReport {
    let layout = Layout::new();
    let graph = kmodel::build_cfg(entry, cfg.kernel);
    let model = cost_model(&layout, cfg);
    analyze_forced_parts(graph, &layout, &model, allowed)
}

/// The forced-path analysis over pre-built parts: takes ownership of a
/// (possibly cache-cloned) graph, appends the path-forcing constraints,
/// and solves. The per-node costs do not depend on user constraints, so a
/// cached [`Costs`] would also be valid — but the forced graphs are all
/// distinct, so [`crate::AnalysisCache::analyze_forced`] shares layout,
/// CFG and cost model and recomputes only the solve.
pub(crate) fn analyze_forced_parts(
    mut graph: Cfg,
    layout: &Layout,
    model: &CostModel,
    allowed: &[Block],
) -> WcetReport {
    let allowed: HashSet<Block> = allowed.iter().copied().collect();
    for (i, n) in graph.nodes.iter().enumerate() {
        if !allowed.contains(&n.block) {
            graph
                .constraints
                .push(UserConstraint::ExecutesAtMost(crate::cfg::NodeId(i), 0));
        }
    }
    let costs = node_costs(&graph, layout, model);
    let sol =
        ipet::solve(&graph, &costs.node, &costs.edge, true).expect("forced IPET must be solvable");
    let phases = PhaseTimes {
        ilp_stats: sol.stats,
        ..PhaseTimes::default()
    };
    report_from_solution(&graph, &costs, &sol, phases)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(kernel: KernelConfig, l2: bool, pinning: bool) -> AnalysisConfig {
        AnalysisConfig {
            kernel,
            l2,
            pinning,
            l2_kernel_locked: false,
            manual_constraints: true,
        }
    }

    #[test]
    fn interrupt_path_analyzes_quickly_and_sanely() {
        let r = analyze(
            EntryPoint::Interrupt,
            &cfg(KernelConfig::after(), false, false),
        );
        // Order of magnitude: thousands to tens of thousands of cycles
        // (the paper's Table 2 interrupt figure is 12.3k).
        assert!(r.cycles > 1_000, "{}", r.cycles);
        assert!(r.cycles < 60_000, "{}", r.cycles);
    }

    #[test]
    fn after_changes_improve_every_entry_point() {
        for e in EntryPoint::ALL {
            let before = analyze(e, &cfg(KernelConfig::before(), false, false));
            let after = analyze(e, &cfg(KernelConfig::after(), false, false));
            assert!(
                after.cycles < before.cycles,
                "{e:?}: after {} !< before {}",
                after.cycles,
                before.cycles
            );
        }
    }

    #[test]
    fn syscall_improvement_is_an_order_of_magnitude() {
        // Table 2: 3851 us -> 332.4 us is a factor of 11.6.
        let before = analyze(
            EntryPoint::Syscall,
            &cfg(KernelConfig::before(), false, false),
        );
        let after = analyze(
            EntryPoint::Syscall,
            &cfg(KernelConfig::after(), false, false),
        );
        let factor = before.cycles as f64 / after.cycles as f64;
        assert!(
            (5.0..40.0).contains(&factor),
            "improvement factor {factor:.1} (before {}, after {})",
            before.cycles,
            after.cycles
        );
    }

    #[test]
    fn pinning_helps_interrupt_most() {
        // Table 1: pinning gains 46% on the interrupt path, 10% on the
        // system-call path.
        let gain = |e| {
            let unpinned = analyze(e, &cfg(KernelConfig::after(), false, false));
            let pinned = analyze(e, &cfg(KernelConfig::after(), false, true));
            assert!(pinned.cycles < unpinned.cycles, "{e:?}");
            1.0 - pinned.cycles as f64 / unpinned.cycles as f64
        };
        let g_irq = gain(EntryPoint::Interrupt);
        let g_sys = gain(EntryPoint::Syscall);
        assert!(
            g_irq > g_sys,
            "interrupt gain {g_irq:.2} should exceed syscall gain {g_sys:.2}"
        );
    }

    #[test]
    fn l2_on_raises_the_computed_bound() {
        // Table 2: 332.4 us (L2 off) vs 436.3 us (L2 on) — the model's
        // pessimism grows with the L2.
        let off = analyze(
            EntryPoint::Syscall,
            &cfg(KernelConfig::after(), false, false),
        );
        let on = analyze(
            EntryPoint::Syscall,
            &cfg(KernelConfig::after(), true, false),
        );
        assert!(on.cycles > off.cycles);
    }

    #[test]
    fn decode_dominates_the_after_syscall_bound() {
        // §6.1: "the largest contributing factor to the run-time of this
        // case was address decoding for caps".
        let r = analyze(
            EntryPoint::Syscall,
            &cfg(KernelConfig::after(), false, false),
        );
        let decode = r.contribution(Block::ResolveLevel);
        assert!(
            decode * 2 > r.cycles,
            "decode contributes {} of {}",
            decode,
            r.cycles
        );
    }

    #[test]
    fn worst_trace_is_a_concrete_entry_to_exit_path() {
        let r = analyze(
            EntryPoint::Syscall,
            &cfg(KernelConfig::after(), false, false),
        );
        assert_eq!(r.trace.first().map(|t| t.0), Some(Block::SwiEntry));
        let last = r.trace.last().expect("nonempty").0;
        assert!(
            matches!(last, Block::ExitRestore | Block::PreemptSave),
            "trace ends at {last:?}"
        );
        // The trace's per-block totals match the counted worst path.
        for (b, ctx, n, _) in &r.worst_path {
            let seen = r
                .trace
                .iter()
                .filter(|(tb, tc)| tb == b && tc == ctx)
                .count() as u64;
            assert_eq!(seen, *n, "{b:?} ctx {ctx}");
        }
        // §6.1's anatomy: 11 decodes x 32 levels on the worst trace.
        let levels = r
            .trace
            .iter()
            .filter(|(b, _)| *b == Block::ResolveLevel)
            .count();
        assert_eq!(levels, 352);
    }

    #[test]
    fn breakdown_sums_to_the_bound() {
        for e in EntryPoint::ALL {
            for l2 in [false, true] {
                let r = analyze(e, &cfg(KernelConfig::after(), l2, false));
                assert_eq!(r.breakdown.total(), r.cycles, "{e:?} l2={l2}");
                // The L2-writeback bucket appears exactly when an L2 exists.
                assert_eq!(r.breakdown.l2 > 0, l2, "{e:?} l2={l2}");
                assert!(r.breakdown.ifetch_miss > 0 && r.breakdown.dmiss > 0);
            }
        }
    }

    #[test]
    fn forced_path_is_cheaper_than_free_maximum() {
        let free = analyze(
            EntryPoint::Interrupt,
            &cfg(KernelConfig::after(), false, false),
        );
        let forced = analyze_forced(
            EntryPoint::Interrupt,
            &cfg(KernelConfig::after(), false, false),
            &[
                Block::IrqEntry,
                Block::IrqGet,
                Block::IrqSpurious,
                Block::SchedCommit,
                Block::CtxSwitch,
                Block::KExitCheck,
                Block::ExitRestore,
                Block::SchedBitmap,
                Block::SchedIdle,
                Block::DequeueThread,
                Block::BitmapClear,
            ],
        );
        assert!(forced.cycles <= free.cycles);
        assert!(forced.cycles > 0);
    }
}
