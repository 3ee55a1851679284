//! The release-profile gates: the explorer's scale and fork-vs-rebuild
//! gate, and the bench sweep's identity, structure-reuse and fleet
//! scaling gates. Each measurement is an `#[ignore]` test, because it
//! takes seconds in release and far longer in debug; `ci.sh` runs them
//! with `cargo test --release -p rt-tests --test gates -- --ignored
//! --test-threads=1`, so no timing gate shares the CPUs with another.
//! Each bound is a plain function, tested in tier 1 just inside and just
//! outside its edge.

use std::time::{Duration, Instant};

use rt_bench::sweep::{run_bench_with, BenchOpts};
use rt_explore::{explore_scenario, render_line, BoundMemo, PorMode};
use rt_pool::Pool;
use rt_wcet::AnalysisCache;

/// The widened search checks at least a million states.
fn at_scale(states: usize) -> bool {
    states >= 1_000_000
}

/// The fork engine needs at most half the rebuild engine's wall: ~3× is
/// the usual margin, so 2× catches a fork path that has quietly
/// degenerated into replay without flaking on noise.
fn forks_beat_rebuilds(fork: Duration, rebuild: Duration) -> bool {
    fork * 2 <= rebuild
}

/// The ILP structure memo absorbs the sweep's cost-config axis.
fn structures_reused(hit_rate: f64) -> bool {
    hit_rate > 0.5
}

/// Fleet walls at 1, 2 and 4 workers against bounds that follow the
/// host's CPUs: with 4 or more, 4 workers must take at most 0.8× the
/// 1-worker wall; with fewer, at most 1.35× (oversubscription overhead
/// only, which still catches a lock convoy). With 2 or more CPUs, 2
/// workers must take at most 1.1× the 1-worker wall; on 1 CPU a 2-thread
/// wall measures the host scheduler, so it is not bounded.
fn fleet_scales(host_cpus: usize, w1: f64, w2: f64, w4: f64) -> bool {
    let bound4 = if host_cpus >= 4 { 0.8 } else { 1.35 };
    w4 <= bound4 * w1 && (host_cpus < 2 || w2 <= 1.1 * w1)
}

#[test]
fn each_bound_holds_just_inside_its_edge_and_fails_just_outside() {
    assert!(at_scale(1_000_000) && !at_scale(999_999));
    let ms = Duration::from_millis;
    assert!(forks_beat_rebuilds(ms(500), ms(1000)) && !forks_beat_rebuilds(ms(500), ms(999)));
    assert!(structures_reused(0.5001) && !structures_reused(0.5));
    assert!(fleet_scales(4, 100.0, 110.0, 80.0) && !fleet_scales(4, 100.0, 110.0, 80.1));
    assert!(fleet_scales(3, 100.0, 110.0, 135.0) && !fleet_scales(3, 100.0, 110.0, 135.1));
    assert!(!fleet_scales(2, 100.0, 110.1, 100.0) && fleet_scales(1, 100.0, 500.0, 135.0));
}

/// `ep-delete-wider` (16 queued senders) to depth 64 under a 1,050,000
/// state budget at 4 workers, forked and then rebuilt from boot, as
/// `repro explore --baseline-rebuild` runs it: at least 10⁶ states, no
/// counterexample, byte-identical renders, and the fork wall at most half
/// the rebuild wall. ep-delete-wide (12 senders) is too small for the
/// floor: its whole space takes ~0.59M state checks.
#[test]
#[ignore]
fn wider_search_reaches_scale_and_forks_beat_rebuilds() {
    let sc = rt_explore::scenario::by_name("ep-delete-wider").expect("scale scenario");
    let pool = Pool::new(4);
    let cache = AnalysisCache::new();
    rt_explore::wcet_latency_bound(&cache);
    let mut memo = BoundMemo::default();
    let mut timed = |every| {
        let t0 = Instant::now();
        let rep = explore_scenario(
            &sc,
            64,
            PorMode::Sleep,
            Some(1_050_000),
            every,
            &pool,
            &cache,
            &mut memo,
        );
        (rep, t0.elapsed())
    };
    let (fork, fork_wall) = timed(4);
    let (rebuild, rebuild_wall) = timed(0);
    assert!(at_scale(fork.states), "only {} states", fork.states);
    assert!(fork.counterexample.is_none(), "{}", render_line(&fork));
    assert_eq!(render_line(&fork), render_line(&rebuild));
    assert!(
        forks_beat_rebuilds(fork_wall, rebuild_wall),
        "fork wall {fork_wall:?} > 0.5x rebuild wall {rebuild_wall:?}"
    );
}

/// `repro bench --workers 1,2,4 --fleet-jobs 200`: every batch and fleet
/// report equals its serial reference, the sweep's structure memo hits
/// more than half its lookups, and the fleet walls scale.
#[test]
#[ignore]
fn bench_sweep_is_identical_reuses_structures_and_scales() {
    let r = run_bench_with(&BenchOpts {
        workers: vec![1, 2, 4],
        fleet_cap: 200,
    });
    assert!(r.identical, "bench sweep diverged from serial analyze");
    let rate = r.stats.ilp_structures.hit_rate();
    assert!(
        structures_reused(rate),
        "ilp_structure hit rate {rate} <= 0.5"
    );
    let wall = |w| {
        let t = r.fleet.timings.iter().find(|t| t.workers == w);
        t.expect("timed worker count").wall.as_secs_f64() * 1e3
    };
    let (cpus, w1, w2, w4) = (r.fleet.host_cpus, wall(1), wall(2), wall(4));
    assert!(
        fleet_scales(cpus, w1, w2, w4),
        "fleet walls {w1:.1}, {w2:.1} and {w4:.1} ms at 1, 2 and 4 workers on {cpus} CPUs"
    );
}
