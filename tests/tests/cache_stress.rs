//! Concurrency stress tests for the analysis cache's memos (one locked
//! map of build-once cells per artifact class) and the shared ILP basis
//! seed, which the parallel sweep leans on. Each test hammers one sharing
//! mechanism from many threads and asserts the build-exactly-once
//! contract: every requester of a key observes the *same* `Arc` (pointer
//! equality, not just value equality) and the build counters show one
//! construction per distinct key, no matter how the threads interleave.

use std::sync::Arc;

use rt_kernel::kernel::{EntryPoint, KernelConfig};
use rt_wcet::kmodel::BoundParams;
use rt_wcet::{AnalysisCache, AnalysisConfig, WcetReport};

fn acfg(l2: bool, pinning: bool, manual: bool) -> AnalysisConfig {
    AnalysisConfig {
        kernel: KernelConfig::after(),
        l2,
        pinning,
        l2_kernel_locked: false,
        manual_constraints: manual,
    }
}

/// N threads all requesting the *same* key must block on one builder and
/// come back with one shared report.
#[test]
fn same_key_from_many_threads_builds_once_and_shares_the_arc() {
    const THREADS: usize = 8;
    let cache = AnalysisCache::new();
    let reports: Vec<Arc<WcetReport>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| s.spawn(|| cache.analyze(EntryPoint::Interrupt, &acfg(false, false, true))))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &reports[1..] {
        assert!(
            Arc::ptr_eq(&reports[0], r),
            "all threads must see the same Arc"
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.reports.builds, 1, "{stats:?}");
    assert_eq!(stats.reports.lookups, THREADS as u64);
    assert_eq!(stats.cfgs.builds, 1, "{stats:?}");
    assert_eq!(stats.ilp_structures.builds, 1, "{stats:?}");
    assert_eq!(stats.resolve.resolves, 1, "one re-solve for one report");
}

/// N threads hammering an *overlapping* key set (each key requested by
/// several threads, several distinct keys in flight at once) must build
/// each distinct artifact exactly once, and repeat requesters must get
/// pointer-identical values.
#[test]
fn overlapping_keys_build_exactly_once_each() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 3;
    // 12 distinct jobs over one kernel: 2 bounds × 3 cache configs × 2
    // constraint sets — overlapping heavily in CFGs (2), structures (4),
    // cost models (3) and cost shapes (1: the open/closed interrupt
    // graphs differ only in bound values).
    let jobs: Vec<(AnalysisConfig, BoundParams)> = [BoundParams::open(), BoundParams::closed()]
        .into_iter()
        .flat_map(|b| {
            [(false, false), (true, false), (false, true)]
                .into_iter()
                .flat_map(move |(l2, pin)| [true, false].map(|manual| (acfg(l2, pin, manual), b)))
        })
        .collect();
    assert_eq!(jobs.len(), 12);

    let cache = AnalysisCache::new();
    let per_thread: Vec<Vec<Arc<WcetReport>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let jobs = &jobs;
                let cache = &cache;
                s.spawn(move || {
                    let mut got = Vec::new();
                    for round in 0..ROUNDS {
                        // Stagger starting offsets so distinct keys are in
                        // flight concurrently on every round.
                        for k in 0..jobs.len() {
                            let (cfg, bounds) = &jobs[(t + round + k) % jobs.len()];
                            got.push((
                                (t + round + k) % jobs.len(),
                                cache.analyze_with_bounds(EntryPoint::Interrupt, cfg, bounds),
                            ));
                        }
                    }
                    got.sort_by_key(|(i, _)| *i);
                    got.into_iter().map(|(_, r)| r).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every thread saw every key ROUNDS times; all sightings of one key
    // must be the same Arc.
    let reference = &per_thread[0];
    for got in &per_thread {
        assert_eq!(got.len(), ROUNDS * jobs.len());
        for (i, r) in got.iter().enumerate() {
            assert!(
                Arc::ptr_eq(&reference[(i / ROUNDS) * ROUNDS], r),
                "every sighting of a key must be the one shared Arc"
            );
        }
    }

    let stats = cache.stats();
    let total = (THREADS * ROUNDS * jobs.len()) as u64;
    assert_eq!(stats.reports.lookups, total, "{stats:?}");
    assert_eq!(
        stats.reports.builds, 12,
        "one build per distinct job: {stats:?}"
    );
    assert_eq!(stats.cfgs.builds, 2, "one CFG per bounds: {stats:?}");
    assert_eq!(
        stats.ilp_structures.builds, 4,
        "bounds × manual structures: {stats:?}"
    );
    assert_eq!(
        stats.cost_models.builds, 3,
        "l2-off, l2-on, pinned (the interrupt path touches pinned lines, \
         so pinning stays a distinct model): {stats:?}"
    );
    assert_eq!(
        stats.resolve.resolves, stats.reports.builds,
        "exactly one re-solve per built report: {stats:?}"
    );
    assert_eq!(
        stats.costs.builds, 3,
        "open/closed interrupt CFGs share one cost shape, so one cost \
         vector per model: {stats:?}"
    );
}

/// The presolved ILP's basis seed is built once even when many threads
/// race `warm_up`/`resolve_with_objective`, and every re-solve reports
/// the same deterministic pivot counts.
#[test]
fn ilp_basis_seed_is_shared_across_threads() {
    const THREADS: usize = 8;
    use std::collections::HashSet;
    let ilp = rt_wcet::ipet_ilp(EntryPoint::Interrupt, &acfg(false, false, true));
    let presolved = ilp.model.presolved().expect("presolve");
    // The canonical-cost objective, rebuilt the way the cache builds it.
    let layout = rt_kernel::kprog::Layout::new();
    let graph = rt_wcet::kmodel::build_cfg_with(
        EntryPoint::Interrupt,
        KernelConfig::after(),
        &BoundParams::default(),
    );
    let model = rt_wcet::cost::CostModel {
        l2: false,
        l2_kernel_locked: false,
        pinned_i: HashSet::new(),
        pinned_d: HashSet::new(),
    };
    let costs = rt_wcet::analysis::node_costs(&graph, &layout, &model);
    let objective = ilp.objective_for(&costs.node, &costs.edge);
    let seed_pivots: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let presolved = &presolved;
                s.spawn(move || presolved.warm_up().expect("seed"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // warm_up reports the one-off seed cost: identical from every thread
    // (idempotent fetch of the single shared seed).
    for &p in &seed_pivots[1..] {
        assert_eq!(p, seed_pivots[0], "seed built once, cost reported once");
    }
    // Concurrent re-solves against the shared seed agree exactly.
    let solutions: Vec<(i64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let presolved = &presolved;
                let objective = &objective;
                s.spawn(move || {
                    let sol = presolved
                        .resolve_with_objective(objective)
                        .expect("resolve");
                    (sol.objective.to_i64(), sol.stats.pivots())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for sol in &solutions[1..] {
        assert_eq!(
            sol, &solutions[0],
            "re-solves from one seed are deterministic"
        );
    }
}
