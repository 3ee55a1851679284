//! Integration tests for the exploration engine: exhaustiveness,
//! seeded-bug detection with minimized repro, worker-count determinism
//! (early stops included), trace replay, and the latency-soundness
//! oracle.

use rt_explore::scenario::{all, by_name, smp_all};
use rt_explore::{
    execute, explore, minimize, replay, wcet_latency_bound, ExploreConfig, ExploreReport, PorMode,
    SeededBug, SnapStats,
};
use rt_pool::Pool;
use rt_wcet::AnalysisCache;

/// The endpoint-deletion scenario must be exhaustively enumerable at a
/// scale of well over 10^3 distinct interleavings, with every oracle
/// passing on every path. Pruning is off so each executed run is a
/// genuinely distinct full interleaving, not a deduplicated prefix.
#[test]
fn ep_delete_exhausts_a_thousand_interleavings() {
    let sc = by_name("ep-delete").expect("scenario");
    let cfg = ExploreConfig {
        max_depth: 10,
        prune: false,
        ..ExploreConfig::default()
    };
    let rep = explore(&sc, &cfg, &Pool::new(4));
    assert!(
        rep.interleavings >= 1_000,
        "only {} interleavings",
        rep.interleavings
    );
    assert!(rep.counterexample.is_none(), "{:?}", rep.counterexample);
    assert!(!rep.capped);
    assert!(rep.preempt_sites >= 1, "no preemption-point decisions seen");
    assert!(
        rep.interleavings > rep.preempt_sites as usize,
        "exploration narrower than its own decision points"
    );
}

/// Pruned exploration reaches quiescence (frontier exhausted, nothing
/// capped) on every scenario at the smoke depth, with no counterexample,
/// and genuinely branches: more interleavings than the most
/// preemption-point decision sites any one run met.
#[test]
fn all_scenarios_complete_at_smoke_depth() {
    for sc in rt_explore::scenario::all() {
        let cfg = ExploreConfig {
            max_depth: 6,
            ..ExploreConfig::default()
        };
        let rep = explore(&sc, &cfg, &Pool::new(2));
        assert!(
            rep.counterexample.is_none(),
            "{}: {:?}",
            sc.name,
            rep.counterexample
        );
        assert!(!rep.capped, "{}", sc.name);
        assert!(rep.interleavings > 1, "{}", sc.name);
        assert!(
            rep.interleavings > rep.preempt_sites as usize,
            "{}: {} interleavings for {} preemption-point decision sites",
            sc.name,
            rep.interleavings,
            rep.preempt_sites
        );
        assert!(rep.injected > 0, "{}: nothing was ever injected", sc.name);
    }
}

/// A deliberately seeded §3.4 consistency bug — losing badged-abort scan
/// progress after a preemption — is caught, and the minimized trace
/// replays to the same violation.
#[test]
fn seeded_abort_skip_is_caught_with_replayable_minimized_trace() {
    let sc = by_name("badged-revoke").expect("scenario");
    let cfg = ExploreConfig {
        max_depth: 8,
        seeded_bug: Some(SeededBug::AbortSkip),
        ..ExploreConfig::default()
    };
    let rep = explore(&sc, &cfg, &Pool::new(2));
    let cex = rep.counterexample.expect("seeded bug must be found");
    assert!(
        cex.violations
            .iter()
            .any(|v| v.invariant.starts_with("abort-")),
        "unexpected violations: {:?}",
        cex.violations
    );
    // The minimized trace must still fail, for the same oracle family...
    let r = replay(&sc, &cex.minimized, &cfg);
    assert!(
        r.violations
            .iter()
            .any(|v| v.invariant.starts_with("abort-")),
        "minimized trace does not replay: {:?}",
        r.violations
    );
    // ...must be nonempty (a schedule with no injections never trips the
    // bug) and no longer than the original.
    assert!(!cex.minimized.is_empty());
    assert!(cex.minimized.len() <= cex.trace.len());
    // And the bug is schedule-dependent: the default run-to-completion
    // schedule is clean even with the bug armed.
    let clean = replay(&sc, &[], &cfg);
    assert!(
        clean.violations.is_empty(),
        "bug fires without preemption: {:?}",
        clean.violations
    );
}

/// A seeded scheduler bug — dropping a runnable thread from the run
/// queue after a preemption — is caught by the existing invariant suite
/// running as an exploration oracle.
#[test]
fn seeded_runqueue_drop_is_caught() {
    let sc = by_name("ep-delete").expect("scenario");
    let cfg = ExploreConfig {
        max_depth: 8,
        seeded_bug: Some(SeededBug::DropRunnable),
        ..ExploreConfig::default()
    };
    let rep = explore(&sc, &cfg, &Pool::new(2));
    let cex = rep.counterexample.expect("seeded bug must be found");
    let r = replay(&sc, &cex.minimized, &cfg);
    assert!(!r.violations.is_empty(), "minimized trace does not replay");
}

/// Reports are byte-identical for any worker count (the same determinism
/// contract the analysis sweep makes).
#[test]
fn reports_are_identical_across_worker_counts() {
    let cfg = ExploreConfig {
        max_depth: 7,
        ..ExploreConfig::default()
    };
    for name in ["irq-response", "retype-clear"] {
        let sc = by_name(name).expect("scenario");
        let one = format!("{:?}", explore(&sc, &cfg, &Pool::new(1)));
        let four = format!("{:?}", explore(&sc, &cfg, &Pool::new(4)));
        assert_eq!(one, four, "{name} diverged across worker counts");
    }
}

/// Runs stop early only where the wave's merge cuts them anyway. One
/// worker claims states in frontier order and so stops the most runs,
/// yet on every scenario, clean and with a seeded bug, the report is the
/// same at 1, 2 and 4 workers and, but for the snapshot counters, at
/// every snapshot cadence; no stopped run ever has to run again.
#[test]
fn early_stops_leave_reports_unchanged() {
    let strip = |r: &ExploreReport| {
        let mut r = r.clone();
        r.snap = SnapStats::default();
        format!("{r:?}")
    };
    for sc in all().into_iter().chain(smp_all()) {
        let bug = if sc.name.starts_with("smp-") {
            SeededBug::LostIpi
        } else {
            SeededBug::DropRunnable
        };
        for seeded_bug in [None, Some(bug)] {
            let mut cadences = Vec::new();
            for snapshot_every in [0usize, 1, 4] {
                let cfg = ExploreConfig {
                    max_depth: 7,
                    por: PorMode::Sleep,
                    seeded_bug,
                    snapshot_every,
                    ..ExploreConfig::default()
                };
                let one = explore(&sc, &cfg, &Pool::new(1));
                assert_eq!(one.reexecutions, 0, "{} (bug {seeded_bug:?})", sc.name);
                for workers in [2usize, 4] {
                    let rep = explore(&sc, &cfg, &Pool::new(workers));
                    assert_eq!(
                        format!("{one:?}"),
                        format!("{rep:?}"),
                        "{} (bug {seeded_bug:?}, every {snapshot_every}): {workers} workers",
                        sc.name
                    );
                }
                cadences.push(strip(&one));
            }
            assert!(
                cadences.windows(2).all(|w| w[0] == w[1]),
                "{} (bug {seeded_bug:?}): reports diverged across cadences",
                sc.name
            );
        }
    }
}

/// Replaying a recorded trace reproduces the run exactly.
#[test]
fn recorded_traces_replay_exactly() {
    let sc = by_name("badged-revoke").expect("scenario");
    let cfg = ExploreConfig {
        prune: false, // replay() never prunes; keep the records comparable
        ..ExploreConfig::default()
    };
    let first = execute(&sc, &[1, 1], &cfg);
    let again = replay(&sc, &first.taken, &cfg);
    assert_eq!(format!("{first:?}"), format!("{again:?}"));
}

/// The latency oracle with the *real* WCET-derived bound holds on every
/// explored path of the IRQ-response scenario — the §5–§6 soundness
/// claim checked against all enumerated arrival schedules rather than a
/// sampled few.
#[test]
fn latency_bound_holds_on_every_explored_path() {
    let cache = AnalysisCache::new();
    let bound = wcet_latency_bound(&cache);
    let sc = by_name("irq-response").expect("scenario");
    let cfg = ExploreConfig {
        max_depth: 9,
        latency_bound: bound,
        ..ExploreConfig::default()
    };
    let rep = explore(&sc, &cfg, &Pool::new(4));
    assert!(
        rep.counterexample.is_none(),
        "latency oracle tripped: {:?}",
        rep.counterexample
    );
    assert!(rep.responses > 0, "no interrupt responses observed");
    assert!(rep.max_latency > 0 && rep.max_latency <= bound);
    // The minimization machinery is honest about a violated bound: with
    // an absurdly tight bound the very first responses fail and the
    // counterexample replays.
    let tight = ExploreConfig {
        max_depth: 9,
        latency_bound: 1,
        ..ExploreConfig::default()
    };
    let rep = explore(&sc, &tight, &Pool::new(4));
    let cex = rep.counterexample.expect("1-cycle bound must trip");
    assert!(cex
        .violations
        .iter()
        .any(|v| v.invariant == "latency-bound"));
    let r = replay(&sc, &cex.minimized, &tight);
    assert!(r.violations.iter().any(|v| v.invariant == "latency-bound"));
}

/// `minimize` is idempotent on an already-minimal trace.
#[test]
fn minimize_is_idempotent() {
    let sc = by_name("badged-revoke").expect("scenario");
    let cfg = ExploreConfig {
        max_depth: 8,
        seeded_bug: Some(SeededBug::AbortSkip),
        ..ExploreConfig::default()
    };
    let rep = explore(&sc, &cfg, &Pool::new(1));
    let cex = rep.counterexample.expect("seeded bug must be found");
    let once = cex.minimized.clone();
    let twice = minimize(&sc, &once, &cfg);
    assert_eq!(once, twice);
}
