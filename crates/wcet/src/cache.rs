//! Shared memoization of the analysis pipeline's immutable artifacts.
//!
//! The paper's evaluation is a sweep: every entry point × {before/after
//! kernel, L2 on/off, pinning on/off, constraints on/off} is one
//! [`analyze`][crate::analyze] call, and the sweep re-derives the same
//! immutable inputs over and over — the code [`Layout`] never changes at
//! all, a CFG depends only on `(entry, kernel, bounds)`, a [`CostModel`]
//! only on the cache configuration, and many sweep entries are *fully*
//! identical (Table 1's after/L2-off column reappears in Table 2, the
//! latency bound, the attribution tables…). [`AnalysisCache`] memoizes
//! each stage behind per-key [`OnceLock`]s so concurrent analyses share
//! one construction:
//!
//! | artifact | key |
//! |---|---|
//! | [`Layout`] | (global — the layout is a constant of the kernel image) |
//! | [`Cfg`] | entry point, [`KernelConfig`], [`BoundParams`] |
//! | cost shape id | CFG key (interned graph topology) |
//! | [`CostModel`] | *effective* l2, *relevant* pinning, l2_kernel_locked |
//! | block cost split | block × persistent lines × cost-model key |
//! | [`Costs`] | cost *shape* id × cost-model key |
//! | IPET ILP structure + basis seed | CFG key × manual_constraints |
//! | [`WcetReport`] | CFG key × cost-model key × manual_constraints |
//!
//! The keys are *normalised* projections of `(KernelConfig, l2, pinning,
//! l2_kernel_locked)`: each stage keys on exactly the inputs it reads, so
//! e.g. the after-kernel system-call CFG is built once and shared by the
//! L2-off, L2-on, pinned and kernel-locked analyses. Cost-model keys go
//! further and drop flag differences that provably cannot change a cost:
//! `l2` stores the *effective* flag (`l2 || l2_kernel_locked`, because
//! locking implies the L2 being on), and `pinning` is cleared for graphs
//! whose blocks never touch a pinned line ([`block_touches_pinned`]).
//!
//! **Structure/cost split.** The constraint matrix of an entry point's
//! IPET ILP depends only on the CFG and `manual_constraints` — cache
//! configuration enters through objective coefficients alone. The
//! structure memo therefore builds one model per `(CFG, manual)` key:
//! assembled, presolved, and LP-solved once under the *canonical*
//! (L2-off, unpinned, unlocked) cost objective to capture an optimal
//! basis ([`rt_ilp::PresolvedModel::warm_up`]). Every configuration
//! variant re-solves that shared skeleton with its own objective via
//! [`rt_ilp::PresolvedModel::resolve_with_objective`] — a short warm
//! primal run from the seed basis instead of a cold two-phase solve.
//!
//! **Shape/cost split.** The same move again for the cost vectors: what
//! [`node_costs`][crate::analysis::node_costs] reads is the graph's
//! *topology* — the per-node block sequence, the edge list, the loop
//! memberships — never the loop-bound values or constraint sets that
//! distinguish e.g. open- from closed-system variants of one CFG. Each
//! distinct topology is interned once into a *cost shape id*, and the
//! costs memo keys on `(shape, model)`: every bound variant of an entry
//! point (and any two entry points whose graphs happen to coincide, like
//! the two fault vectors) shares one cost vector per cache configuration.
//! Underneath, the per-block splits are memoized again on `(block,
//! persistent lines, model)` — virtual inlining repeats a block across
//! many contexts, entry points and kernels, so each distinct combination
//! is priced exactly once per sweep.
//!
//! **Concurrency.** Sweeps fan these lookups out across worker threads.
//! Each memo is one [`RwLock`]-guarded map from key to cell, taken only
//! long enough to fetch the cell: hits take the *read* lock, so concurrent
//! hits never exclude each other, and only the first request of a new key
//! takes the write lock to insert its cell. Construction happens outside
//! the lock, behind the cell's [`OnceLock`], so a build may look up other
//! memos (a cost vector prices its blocks, a structure seeds from the
//! canonical costs) and never holds up a lookup of another key. The
//! fleet sweep makes about 14 memo lookups per analysis, far too few for
//! one lock per memo to contend.
//!
//! **Determinism.** Every cached value is immutable once built and every
//! builder is a pure function of its key: the basis seed is pinned to the
//! canonical objective (never to whichever configuration happened to
//! arrive first), so re-solve results and work counters are independent
//! of thread scheduling. Reports obtained through the cache — in any
//! order, from any number of workers — are bit-identical to serial
//! [`analyze`][crate::analyze] calls. `tests/tests/batch_differential.rs`
//! checks exactly this, and the golden-file tests pin the rendered tables
//! byte-for-byte.
//!
//! ```
//! use rt_kernel::kernel::EntryPoint;
//! use rt_wcet::{analyze, AnalysisCache, AnalysisConfig};
//!
//! let cache = AnalysisCache::new();
//! let cfg = AnalysisConfig::after_l2_off();
//! let first = cache.analyze(EntryPoint::Interrupt, &cfg);
//! let again = cache.analyze(EntryPoint::Interrupt, &cfg); // memo hit
//! assert_eq!(first.cycles, again.cycles);
//! assert_eq!(first.cycles, analyze(EntryPoint::Interrupt, &cfg).cycles);
//! let stats = cache.stats();
//! assert_eq!(stats.reports.lookups, 2);
//! assert_eq!(stats.reports.builds, 1);
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use rt_hw::{Addr, CycleAccounts, Cycles};
use rt_kernel::kernel::{EntryPoint, KernelConfig};
use rt_kernel::kprog::Layout;
use rt_kernel::pinning;

use crate::analysis::{
    analyze_forced_parts, cost_model_from_flags, node_costs_via, report_from_solution,
    AnalysisConfig, Costs, PhaseTimes, WcetReport,
};
use crate::cfg::Cfg;
use crate::cost::{block_touches_pinned, CostModel};
use crate::ipet;
use crate::kmodel::{self, BoundParams};
use rt_kernel::kprog::Block;
use std::collections::HashSet;

/// What a [`CostModel`] actually depends on, in *normalised* form: the
/// effective L2 flag (`l2 || l2_kernel_locked`), whether pinning is on
/// *and can matter for the graph in question*, and the lock flag. Pinned
/// sets derive from the (global) layout.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct CostModelKey {
    l2: bool,
    pinning: bool,
    l2_kernel_locked: bool,
}

impl CostModelKey {
    /// The canonical configuration costs are seeded from: L2 off,
    /// unpinned, unlocked — the paper's headline setup.
    const CANONICAL: CostModelKey = CostModelKey {
        l2: false,
        pinning: false,
        l2_kernel_locked: false,
    };

    /// Normalises a configuration's cost-relevant flags.
    /// `pinning_relevant` is the per-graph verdict of
    /// [`block_touches_pinned`][crate::cost::block_touches_pinned].
    fn normalized(cfg: &AnalysisConfig, pinning_relevant: bool) -> CostModelKey {
        CostModelKey {
            l2: cfg.l2 || cfg.l2_kernel_locked,
            pinning: cfg.pinning && pinning_relevant,
            l2_kernel_locked: cfg.l2_kernel_locked,
        }
    }
}

/// What a CFG depends on: entry point, kernel design, loop bounds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct CfgKey {
    entry: EntryPoint,
    kernel: KernelConfig,
    bounds: BoundParams,
}

/// Everything [`node_costs_via`] reads of a graph: the per-node block
/// sequence, the edge list, and each loop's node membership. Loop-bound
/// values, manual constraints and inlining context ids are deliberately
/// absent — they cannot change a cost vector — so CFGs that differ only
/// in those (the open/closed bound variants of one entry point, or two
/// entry points with coincident graphs) intern to the same shape.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct CostShape {
    nodes: Vec<Block>,
    edges: Vec<(u32, u32)>,
    /// Sorted member lists of each loop, list-of-loops itself sorted:
    /// persistence and entry-edge charging are order-independent, but a
    /// loop registered twice must stay twice (its entry charge doubles).
    loops: Vec<Vec<u32>>,
}

impl CostShape {
    fn of(graph: &Cfg) -> CostShape {
        let mut loops: Vec<Vec<u32>> = graph
            .loops
            .iter()
            .map(|l| {
                let mut m: Vec<u32> = l.nodes.iter().map(|n| n.0 as u32).collect();
                m.sort_unstable();
                m
            })
            .collect();
        loops.sort();
        CostShape {
            nodes: graph.nodes.iter().map(|n| n.block).collect(),
            edges: graph
                .edges
                .iter()
                .map(|(a, b)| (a.0 as u32, b.0 as u32))
                .collect(),
            loops,
        }
    }
}

/// What the per-node costs depend on: the graph's interned cost shape and
/// the cost model — *not* the full CFG key, whose bound values the cost
/// computation never reads.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct CostKey {
    shape: usize,
    model: CostModelKey,
}

/// What one block's cost split depends on: the block, the lines
/// guaranteed resident while it runs, and the cost model.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct BlockCostKey {
    block: Block,
    model: CostModelKey,
    /// Sorted persistent-line set (the canonical form of the set the
    /// costing probes), shared by every node of the same persistent loops.
    persistent: Arc<[Addr]>,
}

/// What a complete report depends on: the exact CFG (bounds and
/// constraints included — they shape the ILP), the normalised cost
/// model, and whether manual constraints apply.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct IlpKey {
    cfg: CfgKey,
    model: CostModelKey,
    manual_constraints: bool,
}

/// What the IPET ILP *structure* depends on: the CFG and the manual
/// constraint set — never the cost configuration, which only supplies
/// objective coefficients.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct StructKey {
    cfg: CfgKey,
    manual_constraints: bool,
}

/// One entry point's shared IPET skeleton: the assembled model (variable
/// maps included), its presolved form, and — captured inside the
/// presolved model by [`rt_ilp::PresolvedModel::warm_up`] — the optimal
/// basis of the LP relaxation under the canonical cost objective.
struct PreparedStructure {
    ilp: ipet::IpetIlp,
    presolved: rt_ilp::PresolvedModel,
}

/// Multiply-rotate (FxHash-style) hasher for the memo maps, after the
/// explorer's state hasher: the keys are internal, so they need no
/// flooding resistance, and it is far cheaper than `DefaultHasher`'s
/// SipHash on keys hashed once per CFG node of every analysis.
#[derive(Default)]
struct FastHasher {
    hash: u64,
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let word = u64::from_le_bytes(word) ^ ((chunk.len() as u64) << 56);
            self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche, so the table's low-bit bucket index sees every
        // input bit.
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }
}

/// A map keyed through [`FastHasher`].
type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// One memoized artifact class: a keyed map of [`OnceLock`] cells, so
/// concurrent requests for the same key block on one builder instead of
/// racing, while different keys build in parallel. The map's lock is held
/// only to fetch or insert a cell, never across a build.
struct Memo<K, V> {
    cells: RwLock<FastMap<K, Arc<OnceLock<Arc<V>>>>>,
    lookups: AtomicU64,
    builds: AtomicU64,
}

impl<K: Eq + Hash, V> Memo<K, V> {
    fn new() -> Memo<K, V> {
        Memo {
            cells: RwLock::new(FastMap::default()),
            lookups: AtomicU64::new(0),
            builds: AtomicU64::new(0),
        }
    }

    fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let hit = self
            .cells
            .read()
            .expect("memo read lock")
            .get(&key)
            .cloned();
        let cell = hit.unwrap_or_else(|| {
            let mut cells = self.cells.write().expect("memo write lock");
            Arc::clone(cells.entry(key).or_default())
        });
        Arc::clone(cell.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(build())
        }))
    }

    fn stats(&self) -> MemoStats {
        MemoStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
        }
    }
}

/// Lookup/build counters of one artifact class.
///
/// `builds` equals the number of *distinct keys* ever requested, so for a
/// fixed job list `lookups` and `builds` are deterministic regardless of
/// worker count or scheduling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Requests served (hits + builds).
    pub lookups: u64,
    /// Requests that had to construct the artifact (distinct keys).
    pub builds: u64,
}

impl MemoStats {
    /// Fraction of lookups served from the memo (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            (self.lookups - self.builds) as f64 / self.lookups as f64
        }
    }
}

/// Work counters of the incremental ILP re-solve path.
///
/// Deterministic for a fixed job list: seeds are built once per distinct
/// structure (under the canonical objective, independent of arrival
/// order) and each distinct report performs exactly one re-solve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResolveStats {
    /// Objective re-solves performed (one per report built).
    pub resolves: u64,
    /// Total simplex pivots across all re-solves — root re-optimisation
    /// from the seed basis plus branch-and-bound work.
    pub warm_pivots: u64,
    /// One-off pivots spent building the shared basis seeds (one cold LP
    /// solve per structure, under the canonical objective).
    pub seed_pivots: u64,
}

impl ResolveStats {
    /// Average pivots per objective re-solve (0 when none ran).
    pub fn warm_pivots_per_resolve(&self) -> f64 {
        if self.resolves == 0 {
            0.0
        } else {
            self.warm_pivots as f64 / self.resolves as f64
        }
    }
}

/// Counter snapshot across all artifact classes (see
/// [`AnalysisCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Control-flow graphs (virtually inlined, per entry × kernel × bounds).
    pub cfgs: MemoStats,
    /// Cost models (per normalised cache configuration).
    pub cost_models: MemoStats,
    /// Per-node/per-edge cost vectors (per cost shape × model — bound
    /// variants of one topology share these).
    pub costs: MemoStats,
    /// Per-block cost splits (per block × persistent lines × model —
    /// shared across contexts, entry points and kernels).
    pub block_costs: MemoStats,
    /// Assembled + presolved IPET structures with their basis seeds
    /// (per CFG × manual_constraints — shared by all cost configurations).
    pub ilp_structures: MemoStats,
    /// Complete analysis reports (whole-`analyze` dedup).
    pub reports: MemoStats,
    /// Incremental re-solve work counters.
    pub resolve: ResolveStats,
}

/// Memoizes the analysis pipeline's immutable artifacts across a sweep;
/// see the [module docs](self) for keying and the determinism argument.
///
/// The cache is `Sync`: one instance is shared by all workers of an
/// [`analyze_batch`][crate::analyze_batch] fan-out, and may be kept alive
/// across several sweeps (the `repro` binary holds one for its whole run,
/// which is what dedupes the analyses Table 1 and Table 2 share).
pub struct AnalysisCache {
    layout: OnceLock<Arc<Layout>>,
    /// The full pinned line sets, resolved once (needed even by unpinned
    /// analyses to decide whether pinning is *relevant* to a graph).
    pinned_lines: OnceLock<(HashSet<Addr>, HashSet<Addr>)>,
    cfgs: Memo<CfgKey, Cfg>,
    /// Per-CFG verdict: does any node touch a pinned line? `false` lets
    /// pinned configurations share the unpinned cost vectors.
    pin_relevant: Memo<CfgKey, bool>,
    /// Per-CFG interned cost-shape id (index into `shape_intern`).
    shape_ids: Memo<CfgKey, usize>,
    /// The shape interning table: identical topologies map to one id.
    shape_intern: Mutex<HashMap<CostShape, usize>>,
    cost_models: Memo<CostModelKey, CostModel>,
    costs: Memo<CostKey, Costs>,
    block_costs: Memo<BlockCostKey, CycleAccounts>,
    ilp_structures: Memo<StructKey, PreparedStructure>,
    reports: Memo<IlpKey, WcetReport>,
    resolves: AtomicU64,
    resolve_pivots: AtomicU64,
    seed_pivots: AtomicU64,
}

impl AnalysisCache {
    /// An empty cache.
    pub fn new() -> AnalysisCache {
        AnalysisCache {
            layout: OnceLock::new(),
            pinned_lines: OnceLock::new(),
            cfgs: Memo::new(),
            pin_relevant: Memo::new(),
            shape_ids: Memo::new(),
            shape_intern: Mutex::new(HashMap::new()),
            cost_models: Memo::new(),
            costs: Memo::new(),
            block_costs: Memo::new(),
            ilp_structures: Memo::new(),
            reports: Memo::new(),
            resolves: AtomicU64::new(0),
            resolve_pivots: AtomicU64::new(0),
            seed_pivots: AtomicU64::new(0),
        }
    }

    /// The (kernel-image constant) code layout.
    pub fn layout(&self) -> Arc<Layout> {
        Arc::clone(self.layout.get_or_init(|| Arc::new(Layout::new())))
    }

    fn cfg(&self, key: CfgKey) -> Arc<Cfg> {
        self.cfgs.get_or_build(key, || {
            kmodel::build_cfg_with(key.entry, key.kernel, &key.bounds)
        })
    }

    /// The interned cost-shape id of `graph` (memoized per CFG key so the
    /// topology is extracted and interned once per distinct CFG, not per
    /// lookup). Ids are dense indices; *which* id a shape gets depends on
    /// arrival order and is never exposed — only key equality matters.
    fn shape_id(&self, key: CfgKey, graph: &Cfg) -> usize {
        *self.shape_ids.get_or_build(key, || {
            let shape = CostShape::of(graph);
            let mut intern = self.shape_intern.lock().expect("shape intern lock");
            let next = intern.len();
            *intern.entry(shape).or_insert(next)
        })
    }

    fn pinned_lines(&self) -> &(HashSet<Addr>, HashSet<Addr>) {
        self.pinned_lines.get_or_init(|| {
            let layout = self.layout();
            (
                pinning::pinned_icache_lines(&layout).into_iter().collect(),
                pinning::pinned_dcache_lines().into_iter().collect(),
            )
        })
    }

    /// Whether pinning can change any cost of `graph` (see
    /// [`block_touches_pinned`]). Conservative in the safe direction: a
    /// `true` merely forgoes key merging.
    fn pinning_relevant(&self, key: CfgKey, graph: &Cfg) -> bool {
        *self.pin_relevant.get_or_build(key, || {
            let layout = self.layout();
            let (pinned_i, pinned_d) = self.pinned_lines();
            graph
                .nodes
                .iter()
                .any(|n| block_touches_pinned(&layout, n.block, pinned_i, pinned_d))
        })
    }

    fn cost_model(&self, key: CostModelKey) -> Arc<CostModel> {
        self.cost_models.get_or_build(key, || {
            cost_model_from_flags(&self.layout(), key.l2, key.pinning, key.l2_kernel_locked)
        })
    }

    fn costs(&self, key: CostKey, graph: &Cfg, model: &CostModel) -> Arc<Costs> {
        self.costs.get_or_build(key, || {
            let layout = self.layout();
            node_costs_via(graph, &layout, model, |block, persistent| {
                *self.block_costs.get_or_build(
                    BlockCostKey {
                        block,
                        model: key.model,
                        persistent: Arc::clone(&persistent.sorted),
                    },
                    || model.block_cost_split(&layout, block, &persistent.lines),
                )
            })
        })
    }

    /// The shared IPET skeleton of one `(CFG, manual)` class: built,
    /// presolved and basis-seeded once under the canonical cost objective.
    fn structure(&self, key: StructKey, graph: &Cfg, shape: usize) -> Arc<PreparedStructure> {
        self.ilp_structures.get_or_build(key, || {
            let canon_model = self.cost_model(CostModelKey::CANONICAL);
            let canon = self.costs(
                CostKey {
                    shape,
                    model: CostModelKey::CANONICAL,
                },
                graph,
                &canon_model,
            );
            let ilp = ipet::build_model(graph, &canon.node, &canon.edge, key.manual_constraints);
            let presolved = ilp
                .model
                .presolved()
                .expect("IPET ILP must presolve (feasible by construction)");
            let seed_pivots = presolved
                .warm_up()
                .expect("IPET root LP must have an optimum (bounded by construction)");
            self.seed_pivots.fetch_add(seed_pivots, Ordering::Relaxed);
            PreparedStructure { ilp, presolved }
        })
    }

    /// As [`analyze`][crate::analyze], memoized: identical report bits,
    /// shared construction.
    ///
    /// # Panics
    ///
    /// Panics if the IPET ILP fails to solve (a graph-construction bug),
    /// exactly as the uncached path does.
    pub fn analyze(&self, entry: EntryPoint, cfg: &AnalysisConfig) -> Arc<WcetReport> {
        self.analyze_with_bounds(entry, cfg, &BoundParams::default())
    }

    /// As [`analyze_with_bounds`][crate::analysis::analyze_with_bounds],
    /// memoized, with the solve routed through the incremental re-solve
    /// path: the entry's shared structure skeleton plus this
    /// configuration's cost objective.
    pub fn analyze_with_bounds(
        &self,
        entry: EntryPoint,
        cfg: &AnalysisConfig,
        bounds: &BoundParams,
    ) -> Arc<WcetReport> {
        let cfg_key = CfgKey {
            entry,
            kernel: cfg.kernel,
            bounds: *bounds,
        };
        let t0 = std::time::Instant::now();
        let graph = self.cfg(cfg_key);
        let t_build = t0.elapsed();
        let pin_relevant = cfg.pinning && self.pinning_relevant(cfg_key, &graph);
        let model_key = CostModelKey::normalized(cfg, pin_relevant);
        let key = IlpKey {
            cfg: cfg_key,
            model: model_key,
            manual_constraints: cfg.manual_constraints,
        };
        self.reports.get_or_build(key, move || {
            let model = self.cost_model(model_key);
            let shape = self.shape_id(cfg_key, &graph);
            let t0 = std::time::Instant::now();
            let costs = self.costs(
                CostKey {
                    shape,
                    model: model_key,
                },
                &graph,
                &model,
            );
            let t_costs = t0.elapsed();
            // The ILP phase includes a structure build (model assembly,
            // presolve, seed LP) when this report is the one that pays it,
            // as the uncached path counts model build and solve alike.
            let t0 = std::time::Instant::now();
            let structure = self.structure(
                StructKey {
                    cfg: cfg_key,
                    manual_constraints: cfg.manual_constraints,
                },
                &graph,
                shape,
            );
            let objective = structure.ilp.objective_for(&costs.node, &costs.edge);
            let sol = structure
                .presolved
                .resolve_with_objective(&objective)
                .expect("IPET ILP must be solvable");
            self.resolves.fetch_add(1, Ordering::Relaxed);
            self.resolve_pivots
                .fetch_add(sol.stats.pivots(), Ordering::Relaxed);
            let sol = structure.ilp.interpret(&sol);
            let t_ilp = t0.elapsed();
            let phases = PhaseTimes {
                build: t_build,
                costs: t_costs,
                ilp: t_ilp,
                ilp_stats: sol.stats,
            };
            report_from_solution(&graph, &costs, &sol, phases)
        })
    }

    /// As [`analyze_forced`][crate::analysis::analyze_forced], sharing the
    /// cached layout, CFG and cost model. The forced solve itself is not
    /// memoized — every forced path's constraint set is distinct — so only
    /// the graph clone and the solve are paid per call.
    pub fn analyze_forced(
        &self,
        entry: EntryPoint,
        cfg: &AnalysisConfig,
        allowed: &[Block],
    ) -> WcetReport {
        let cfg_key = CfgKey {
            entry,
            kernel: cfg.kernel,
            bounds: BoundParams::default(),
        };
        let graph = self.cfg(cfg_key);
        let pin_relevant = cfg.pinning && self.pinning_relevant(cfg_key, &graph);
        let model = self.cost_model(CostModelKey::normalized(cfg, pin_relevant));
        analyze_forced_parts((*graph).clone(), &self.layout(), &model, allowed)
    }

    /// Worst-case cycles of any single kernel entry under `cfg`: the
    /// maximum of [`analyze`][AnalysisCache::analyze] over every
    /// [`EntryPoint`]. This is the longest a pending interrupt can wait for
    /// the kernel to reach its next preemption point or exit, whatever the
    /// kernel happened to be doing when the device raised the line.
    pub fn max_entry_wcet(&self, cfg: &AnalysisConfig) -> Cycles {
        EntryPoint::ALL
            .iter()
            .map(|&e| self.analyze(e, cfg).cycles)
            .max()
            .expect("EntryPoint::ALL is non-empty")
    }

    /// Static interrupt-response bounds for a set of active interrupt
    /// lines, as `(line, bound_cycles)` sorted by line number.
    ///
    /// The paper's §6/§8 bound covers a *single* interrupt source:
    /// response ≤ WCET(entry) + WCET(interrupt). With several active lines
    /// the kernel's exit path services pending lines highest-priority-first
    /// (lowest line number wins, one bounded interrupt path per service),
    /// so line `ℓ` can additionally wait for every active line that
    /// outranks it. Its rank-aware bound is
    ///
    /// ```text
    /// bound(ℓ) = max-entry WCET + rank(ℓ) × WCET(interrupt)
    /// ```
    ///
    /// where `rank(ℓ)` is ℓ's 1-based position among `lines` sorted by
    /// line number. The bound assumes each line is raised at most once per
    /// service window — arrival processes must keep per-line gaps above the
    /// largest bound (rt-load's budget clamp enforces this; see
    /// docs/WORKLOADS.md), and the empirical soundness oracle verifies the
    /// result sample-by-sample.
    pub fn irq_line_bounds(&self, cfg: &AnalysisConfig, lines: &[u8]) -> Vec<(u8, Cycles)> {
        let entry = self.max_entry_wcet(cfg);
        let irq = self.analyze(EntryPoint::Interrupt, cfg).cycles;
        let mut sorted: Vec<u8> = lines.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted
            .iter()
            .enumerate()
            .map(|(i, &line)| (line, entry + (i as Cycles + 1) * irq))
            .collect()
    }

    /// Snapshot of all lookup/build counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            cfgs: self.cfgs.stats(),
            cost_models: self.cost_models.stats(),
            costs: self.costs.stats(),
            block_costs: self.block_costs.stats(),
            ilp_structures: self.ilp_structures.stats(),
            reports: self.reports.stats(),
            resolve: ResolveStats {
                resolves: self.resolves.load(Ordering::Relaxed),
                warm_pivots: self.resolve_pivots.load(Ordering::Relaxed),
                seed_pivots: self.seed_pivots.load(Ordering::Relaxed),
            },
        }
    }
}

impl Default for AnalysisCache {
    fn default() -> AnalysisCache {
        AnalysisCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;

    fn acfg(l2: bool, pinning: bool) -> AnalysisConfig {
        AnalysisConfig {
            kernel: KernelConfig::after(),
            l2,
            pinning,
            l2_kernel_locked: false,
            manual_constraints: true,
        }
    }

    #[test]
    fn cached_report_matches_uncached_exactly() {
        let cache = AnalysisCache::new();
        for entry in [EntryPoint::Interrupt, EntryPoint::PageFault] {
            for l2 in [false, true] {
                let cached = cache.analyze(entry, &acfg(l2, false));
                let plain = analyze(entry, &acfg(l2, false));
                assert_eq!(cached.cycles, plain.cycles);
                assert_eq!(cached.breakdown, plain.breakdown);
                assert_eq!(cached.worst_path, plain.worst_path);
                assert_eq!(cached.trace, plain.trace);
                assert_eq!(cached.ilp_vars, plain.ilp_vars);
                assert_eq!(cached.ilp_constraints, plain.ilp_constraints);
            }
        }
    }

    #[test]
    fn resolve_path_matches_uncached_on_every_config_variant() {
        // Every cost configuration of one entry re-solves the same shared
        // structure — each must still equal the uncached cold-built run.
        let cache = AnalysisCache::new();
        for l2 in [false, true] {
            for pinning in [false, true] {
                for locked in [false, true] {
                    for manual in [false, true] {
                        let cfg = AnalysisConfig {
                            kernel: KernelConfig::after(),
                            l2,
                            pinning,
                            l2_kernel_locked: locked,
                            manual_constraints: manual,
                        };
                        let cached = cache.analyze(EntryPoint::Interrupt, &cfg);
                        let plain = analyze(EntryPoint::Interrupt, &cfg);
                        assert_eq!(cached.cycles, plain.cycles, "{cfg:?}");
                        assert_eq!(cached.breakdown, plain.breakdown, "{cfg:?}");
                        assert_eq!(cached.worst_path, plain.worst_path, "{cfg:?}");
                        assert_eq!(cached.trace, plain.trace, "{cfg:?}");
                    }
                }
            }
        }
        let s = cache.stats();
        assert_eq!(
            s.ilp_structures.builds, 2,
            "one structure per manual_constraints value: {s:?}"
        );
        assert_eq!(
            s.resolve.resolves, s.reports.builds,
            "every built report is one re-solve"
        );
    }

    #[test]
    fn artifacts_are_shared_across_config_variants() {
        let cache = AnalysisCache::new();
        // Same entry + kernel + bounds, different cache configs: the CFG
        // and the ILP structure must be built once and shared.
        for l2 in [false, true] {
            for pinning in [false, true] {
                cache.analyze(EntryPoint::Interrupt, &acfg(l2, pinning));
            }
        }
        let s = cache.stats();
        assert_eq!(s.cfgs.builds, 1, "one CFG for four configs: {s:?}");
        assert_eq!(s.reports.builds, 4, "four distinct configs");
        assert_eq!(s.ilp_structures.builds, 1, "one shared structure: {s:?}");
        assert_eq!(s.resolve.resolves, 4, "one re-solve per report");
    }

    #[test]
    fn bound_variants_share_cost_vectors_via_shape() {
        // Open- and closed-system bounds change loop-bound values and
        // constraint sets but not the graph topology, so the cost vectors
        // must come from one shape-keyed build; the reports (whose ILPs
        // see the bounds) must still be distinct.
        let cache = AnalysisCache::new();
        let cfg = acfg(false, false);
        let open = cache.analyze_with_bounds(EntryPoint::Interrupt, &cfg, &BoundParams::open());
        let closed = cache.analyze_with_bounds(EntryPoint::Interrupt, &cfg, &BoundParams::closed());
        let s = cache.stats();
        assert_eq!(s.cfgs.builds, 2, "two CFGs (distinct bounds): {s:?}");
        assert_eq!(
            s.costs.builds, 1,
            "one shared cost vector across bound variants: {s:?}"
        );
        assert_eq!(s.reports.builds, 2, "distinct reports per bounds");
        // Both must equal their uncached counterparts.
        use crate::analysis::analyze_with_bounds;
        let open_plain = analyze_with_bounds(EntryPoint::Interrupt, &cfg, &BoundParams::open());
        let closed_plain = analyze_with_bounds(EntryPoint::Interrupt, &cfg, &BoundParams::closed());
        assert_eq!(open.cycles, open_plain.cycles);
        assert_eq!(closed.cycles, closed_plain.cycles);
        assert_eq!(open.breakdown, open_plain.breakdown);
        assert_eq!(closed.breakdown, closed_plain.breakdown);
    }

    #[test]
    fn block_costs_are_shared_across_entry_points() {
        // Virtual inlining repeats blocks across contexts and entry
        // points: the per-block memo must price each distinct (block,
        // persistent, model) once, making it the highest-hit memo.
        let cache = AnalysisCache::new();
        for entry in EntryPoint::ALL {
            cache.analyze(entry, &acfg(false, false));
        }
        let s = cache.stats();
        assert!(
            s.block_costs.lookups > 2 * s.block_costs.builds,
            "block splits must be heavily shared: {s:?}"
        );
    }

    #[test]
    fn locked_key_normalisation_merges_l2_flag() {
        // With the kernel L2-locked, the raw `l2` flag is immaterial
        // (locking implies the L2 on): both spellings must share one cost
        // model, one cost vector and one report.
        let cache = AnalysisCache::new();
        let with = |l2: bool| AnalysisConfig {
            kernel: KernelConfig::after(),
            l2,
            pinning: false,
            l2_kernel_locked: true,
            manual_constraints: true,
        };
        let a = cache.analyze(EntryPoint::Undefined, &with(false));
        let b = cache.analyze(EntryPoint::Undefined, &with(true));
        assert!(Arc::ptr_eq(&a, &b), "normalised keys must share the report");
        let s = cache.stats();
        assert_eq!(s.reports.builds, 1);
        assert_eq!(s.resolve.resolves, 1);
    }

    #[test]
    fn duplicate_jobs_are_served_from_the_report_memo() {
        let cache = AnalysisCache::new();
        let a = cache.analyze(EntryPoint::Undefined, &acfg(false, false));
        let b = cache.analyze(EntryPoint::Undefined, &acfg(false, false));
        assert!(Arc::ptr_eq(&a, &b), "second call must be a memo hit");
        let s = cache.stats();
        assert_eq!(s.reports.lookups, 2);
        assert_eq!(s.reports.builds, 1);
        assert!((s.reports.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn forced_analysis_shares_parts_and_matches_uncached() {
        use crate::analysis::analyze_forced;
        let cache = AnalysisCache::new();
        let allowed = [
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
        ];
        let cfg = acfg(false, false);
        let via_cache = cache.analyze_forced(EntryPoint::Interrupt, &cfg, &allowed);
        let plain = analyze_forced(EntryPoint::Interrupt, &cfg, &allowed);
        assert_eq!(via_cache.cycles, plain.cycles);
        assert_eq!(via_cache.worst_path, plain.worst_path);
        assert_eq!(cache.stats().cfgs.builds, 1);
    }
}
