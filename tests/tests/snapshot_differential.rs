//! Fork-vs-rebuild exploration differentials: the snapshot engine is an
//! *execution shortcut*, never a semantic one.
//!
//! A branch resumed from a [`rt_explore::snap`] point must be
//! indistinguishable — state for state, verdict for verdict, byte for
//! byte — from the same branch rebuilt from boot and replayed through
//! its whole prefix. These tests pin that contract on randomized
//! small-scope scenarios at several cadences and worker counts, keep
//! both seeded PR 5 bugs caught with forking on, and check the one
//! property the fork engine is explicitly *not* allowed to shortcut:
//! a minimized counterexample found by the forking search must replay
//! to the same violation on a fresh kernel, with no snapshot in sight.

use proptest::prelude::*;
use rt_explore::scenario::by_name;
use rt_explore::{
    explore, explore_with_states, randomized, render_line, replay, ExploreConfig, PorMode,
    RandomParams, SeededBug,
};
use rt_pool::Pool;

fn cfg(depth: usize, snapshot_every: usize) -> ExploreConfig {
    ExploreConfig {
        max_depth: depth,
        por: PorMode::Sleep,
        snapshot_every,
        ..ExploreConfig::default()
    }
}

fn arb_params() -> impl Strategy<Value = RandomParams> {
    (
        1u32..=3,
        0u32..=2,
        any::<bool>(),
        0u32..=2,
        0u32..=2,
        any::<bool>(),
    )
        .prop_map(
            |(senders, badge_every, with_driver, driver_budget, free_budget, revoke)| {
                RandomParams {
                    senders,
                    badge_every,
                    with_driver,
                    driver_budget,
                    free_budget,
                    revoke,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// On randomized small scenarios, the forking engine (cadence 1 and
    /// 3) expands exactly the rebuild engine's sorted canonical-state
    /// set, agrees on every oracle verdict, and renders byte-identically
    /// at 1, 2 and 4 workers. Snapshot-engine statistics are the single
    /// permitted difference, and they are kept out of the render.
    #[test]
    fn fork_and_rebuild_agree_on_random_scenarios(p in arb_params()) {
        let sc = randomized(p);
        let rebuild_cfg = cfg(6, 0);
        let pool1 = Pool::new(1);
        let (rebuilt, rebuilt_states) = explore_with_states(&sc, &rebuild_cfg, &pool1);
        let rebuilt_render = render_line(&rebuilt);
        for every in [1usize, 3] {
            let fork_cfg = cfg(6, every);
            for workers in [1usize, 2, 4] {
                let pool = Pool::new(workers);
                let (forked, forked_states) = explore_with_states(&sc, &fork_cfg, &pool);
                prop_assert_eq!(
                    &rebuilt_states,
                    &forked_states,
                    "{} (every={}, workers={}): canonical-state sets diverged",
                    &sc.name,
                    every,
                    workers
                );
                prop_assert_eq!(
                    &rebuilt_render,
                    &render_line(&forked),
                    "{} (every={}, workers={}): renders diverged",
                    &sc.name,
                    every,
                    workers
                );
                prop_assert_eq!(
                    rebuilt.counterexample.as_ref().map(|c| &c.minimized),
                    forked.counterexample.as_ref().map(|c| &c.minimized),
                    "{} (every={}, workers={}): minimized traces diverged",
                    &sc.name,
                    every,
                    workers
                );
            }
        }
    }
}

/// Both seeded PR 5 bugs stay caught with forking on, the minimized
/// lex-min trace matches the rebuild engine's exactly, and the forked
/// report is byte-identical across worker counts.
#[test]
fn seeded_bugs_caught_with_forking_at_every_worker_count() {
    for (name, bug, family) in [
        ("badged-revoke", SeededBug::AbortSkip, "abort-"),
        ("ep-delete", SeededBug::DropRunnable, ""),
    ] {
        let sc = by_name(name).expect("scenario");
        let mut fork_cfg = cfg(8, 1);
        fork_cfg.seeded_bug = Some(bug);
        let mut rebuild_cfg = cfg(8, 0);
        rebuild_cfg.seeded_bug = Some(bug);

        let rebuilt = explore(&sc, &rebuild_cfg, &Pool::new(1));
        let baseline = format!("{:?}", explore(&sc, &fork_cfg, &Pool::new(1)));
        for workers in [2, 4] {
            let rep = explore(&sc, &fork_cfg, &Pool::new(workers));
            assert_eq!(
                baseline,
                format!("{rep:?}"),
                "{name}: forked report diverged at {workers} workers"
            );
        }
        let rep = explore(&sc, &fork_cfg, &Pool::new(4));
        let cex = rep
            .counterexample
            .unwrap_or_else(|| panic!("{name}: seeded bug not found with forking on"));
        assert!(
            cex.violations
                .iter()
                .any(|v| v.invariant.starts_with(family)),
            "{name}: unexpected violations {:?}",
            cex.violations
        );
        let rebuilt_cex = rebuilt
            .counterexample
            .expect("rebuild engine missed the bug");
        assert_eq!(
            rebuilt_cex.minimized, cex.minimized,
            "{name}: forked and rebuilt minimized traces diverged"
        );
    }
}

/// Capture pauses at a wave boundary while the resident census is at or
/// over `snapshot_budget`, and that wave's children then resume from the
/// snapshot they inherit, replaying a longer gap. With a budget of one
/// snapshot nearly every wave runs paused, yet the search still renders
/// what the rebuild engine renders and expands the same state set, at 1
/// and 4 workers.
#[test]
fn paused_capture_matches_the_rebuild_engine() {
    for name in ["ep-delete", "smp-ipi-race"] {
        let sc = by_name(name).expect("scenario");
        let (rebuilt, rebuilt_states) = explore_with_states(&sc, &cfg(8, 0), &Pool::new(1));
        let paused_cfg = ExploreConfig {
            snapshot_budget: 1,
            ..cfg(8, 1)
        };
        for workers in [1usize, 4] {
            let (paused, paused_states) =
                explore_with_states(&sc, &paused_cfg, &Pool::new(workers));
            assert!(
                paused.snap.capture_paused_waves > 0,
                "{name}: capture never paused ({:?})",
                paused.snap
            );
            assert!(paused.snap.forks > 0, "{name}: no branch resumed");
            assert_eq!(
                render_line(&rebuilt),
                render_line(&paused),
                "{name} ({workers} workers): renders diverged"
            );
            assert_eq!(
                rebuilt_states, paused_states,
                "{name} ({workers} workers): state sets diverged"
            );
        }
    }
}

/// A minimized counterexample out of the *forking* search is a complete,
/// self-contained reproduction: replaying it on a fresh kernel — always
/// the rebuild-from-boot path, snapshots never involved — re-finds the
/// same violation.
#[test]
fn forked_counterexample_replays_from_boot() {
    let sc = by_name("ep-delete").expect("scenario");
    let mut c = cfg(8, 1);
    c.seeded_bug = Some(SeededBug::DropRunnable);
    let rep = explore(&sc, &c, &Pool::new(2));
    let cex = rep.counterexample.expect("seeded bug not found");
    assert!(!cex.minimized.is_empty(), "empty minimized trace");
    let run = replay(&sc, &cex.minimized, &c);
    assert_eq!(
        cex.violations
            .iter()
            .map(|v| v.invariant)
            .collect::<Vec<_>>(),
        run.violations
            .iter()
            .map(|v| v.invariant)
            .collect::<Vec<_>>(),
        "replay on a fresh kernel found different violations"
    );
    assert!(
        !run.violations.is_empty(),
        "minimized trace did not reproduce on a fresh kernel"
    );
}
