//! SMP which-core exploration differentials (DESIGN.md §14): the
//! explorer's new decision axis — *which core's* thread steps next, and
//! which core a routed arrival lands on — must inherit every determinism
//! and reduction contract the single-core engine makes.
//!
//! Pinned here:
//!
//! * SMP scenario searches are byte-identical at 1, 2 and 4 workers,
//!   with POR and snapshot-forking on — the same contract the
//!   single-core report makes — and find no counterexamples on the
//!   unmodified kernel (every SMP invariant holding at every explored
//!   interleaving; `por_differential.rs` and the `explore_small` golden
//!   run the same scenarios under the interference-aware latency
//!   bound).
//! * Sleep-set reduction with core-id tokens preserves the reachable
//!   canonical-state set exactly, as on single-core scenarios.
//! * Fork-vs-rebuild identity carries over: cadence 0 (rebuild), 1 and
//!   4 render byte-identically.
//! * The seeded lost-IPI bug — cross-core wakes that enqueue remotely
//!   but never kick the target — is caught via the
//!   `smp-idle-core-kicked` invariant, with a minimized trace that
//!   replays to the same violation on a fresh kernel.

use rt_explore::scenario::{by_name, smp_all};
use rt_explore::{
    explore, explore_with_states, render_line, replay, ExploreConfig, PorMode, SeededBug,
};
use rt_pool::Pool;

fn cfg(depth: usize, por: PorMode, snapshot_every: usize) -> ExploreConfig {
    ExploreConfig {
        max_depth: depth,
        por,
        snapshot_every,
        ..ExploreConfig::default()
    }
}

/// Every SMP scenario explores clean (no counterexample: invariants hold
/// everywhere) and renders byte-identically at any worker count,
/// expanding identical canonical-state sets.
#[test]
fn smp_scenarios_explore_clean_and_deterministically() {
    for sc in smp_all() {
        let c = cfg(6, PorMode::Sleep, 4);
        let (base, base_states) = explore_with_states(&sc, &c, &Pool::new(1));
        assert!(
            base.counterexample.is_none(),
            "{}: {:?}",
            sc.name,
            base.counterexample
        );
        assert!(!base.capped, "{}: capped", sc.name);
        assert!(base.interleavings > 1, "{}: nothing explored", sc.name);
        let render = render_line(&base);
        for workers in [2usize, 4] {
            let (rep, states) = explore_with_states(&sc, &c, &Pool::new(workers));
            assert_eq!(
                render,
                render_line(&rep),
                "{}: report diverged at {workers} workers",
                sc.name
            );
            assert_eq!(
                base_states, states,
                "{}: state sets diverged at {workers} workers",
                sc.name
            );
        }
    }
}

/// Sleep-set reduction with per-core scheduler tokens skips transitions,
/// never states: the reduced search expands exactly the unreduced
/// canonical-state set on every SMP scenario, in no more runs.
#[test]
fn smp_sleep_sets_preserve_visited_states() {
    for sc in smp_all() {
        let pool = Pool::new(2);
        let (off, off_states) = explore_with_states(&sc, &cfg(5, PorMode::Off, 4), &pool);
        let (sleep, sleep_states) = explore_with_states(&sc, &cfg(5, PorMode::Sleep, 4), &pool);
        assert!(!off.capped && !sleep.capped, "{}: capped", sc.name);
        assert_eq!(
            off_states, sleep_states,
            "{}: reachable-state sets diverged",
            sc.name
        );
        assert_eq!(
            off.counterexample.is_some(),
            sleep.counterexample.is_some(),
            "{}: verdicts diverged",
            sc.name
        );
        assert!(
            sleep.interleavings <= off.interleavings,
            "{}: reduction executed more runs",
            sc.name
        );
    }
}

/// Snapshot-forked SMP searches (the per-core machine state rides in the
/// same `KernelSnapshot`) render byte-identically to rebuild-from-boot.
#[test]
fn smp_fork_and_rebuild_render_identically() {
    for sc in smp_all() {
        let rebuilt = render_line(&explore(&sc, &cfg(5, PorMode::Sleep, 0), &Pool::new(1)));
        for every in [1usize, 4] {
            let forked = render_line(&explore(&sc, &cfg(5, PorMode::Sleep, every), &Pool::new(4)));
            assert_eq!(
                rebuilt, forked,
                "{} (every={every}): renders diverged",
                sc.name
            );
        }
    }
}

/// The seeded lost-IPI bug is found (only) by exploring the cross-core
/// interleavings, at every worker count with byte-identical reports, and
/// its minimized trace replays to the same `smp-idle-core-kicked`
/// violation on a fresh kernel with no snapshot in sight.
#[test]
fn seeded_lost_ipi_caught_with_replayable_minimized_trace() {
    let sc = by_name("smp-ep-delete").expect("scenario");
    let mut bugged = cfg(8, PorMode::Sleep, 1);
    bugged.seeded_bug = Some(SeededBug::LostIpi);
    let baseline = format!("{:?}", explore(&sc, &bugged, &Pool::new(1)));
    for workers in [2usize, 4] {
        assert_eq!(
            baseline,
            format!("{:?}", explore(&sc, &bugged, &Pool::new(workers))),
            "report diverged at {workers} workers"
        );
    }
    let rep = explore(&sc, &bugged, &Pool::new(4));
    let cex = rep.counterexample.expect("lost IPI not caught");
    assert!(
        cex.violations
            .iter()
            .any(|v| v.invariant == "smp-idle-core-kicked"),
        "wrong violation family: {:?}",
        cex.violations
    );
    // An empty minimized trace is legal (the all-defaults run already
    // fails); what matters is that it replays to the same violation.
    let r = replay(&sc, &cex.minimized, &bugged);
    assert!(
        r.violations
            .iter()
            .any(|v| v.invariant == "smp-idle-core-kicked"),
        "minimized trace does not replay: {:?}",
        r.violations
    );
    // The unmodified kernel passes the very same search.
    let clean = explore(&sc, &cfg(8, PorMode::Sleep, 1), &Pool::new(4));
    assert!(
        clean.counterexample.is_none(),
        "clean kernel failed: {:?}",
        clean.counterexample
    );
}
