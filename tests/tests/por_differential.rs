//! Reduced-vs-unreduced exploration differentials: partial-order
//! reduction must be *invisible* to everything the explorer is trusted
//! for.
//!
//! Sleep-set reduction skips transitions, never states — so for any
//! scenario (every named single-core and SMP scenario, and randomized
//! small-scope instances) the reduced search must expand exactly the same
//! canonical-state set as the unreduced search, while executing no more
//! runs, and the seeded §3.4 bugs stay caught at every worker count with
//! byte-identical reports.

use proptest::prelude::*;
use rt_explore::scenario::{all, by_name, smp_all};
use rt_explore::{
    explore, explore_with_states, randomized, wcet_latency_bound, ExploreConfig, PorMode,
    RandomParams, SeededBug,
};
use rt_kernel::kernel::EntryPoint;
use rt_pool::Pool;
use rt_wcet::{smp_latency_margin, AnalysisCache, AnalysisConfig, SmpParams};

fn cfg(depth: usize, por: PorMode) -> ExploreConfig {
    ExploreConfig {
        max_depth: depth,
        por,
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

    /// Sleep-set reduction preserves the reachable canonical-state set
    /// exactly on randomized small scenarios, agrees on whether any
    /// oracle fires, and never executes *more* runs than the unreduced
    /// search.
    #[test]
    fn sleep_sets_preserve_visited_states_on_random_scenarios(p in arb_params()) {
        let sc = randomized(p);
        let pool = Pool::new(2);
        let (off, off_states) = explore_with_states(&sc, &cfg(6, PorMode::Off), &pool);
        let (sleep, sleep_states) = explore_with_states(&sc, &cfg(6, PorMode::Sleep), &pool);
        prop_assert!(!off.capped && !sleep.capped, "{}: capped", sc.name);
        prop_assert_eq!(
            &off_states,
            &sleep_states,
            "{}: reachable-state sets diverged (off {} vs sleep {})",
            &sc.name,
            off_states.len(),
            sleep_states.len()
        );
        prop_assert_eq!(
            off.counterexample.is_some(),
            sleep.counterexample.is_some(),
            "{}: oracle verdicts diverged",
            &sc.name
        );
        prop_assert!(
            sleep.interleavings <= off.interleavings,
            "{}: reduction executed more runs ({} > {})",
            &sc.name,
            sleep.interleavings,
            off.interleavings
        );
    }
}

/// Both seeded single-core bugs stay caught with sleep sets on, at every
/// worker count, with byte-identical reports — the determinism and
/// soundness regression the parallel reduced search must never lose.
#[test]
fn seeded_bugs_caught_with_por_at_every_worker_count() {
    for (name, bug, family) in [
        ("badged-revoke", SeededBug::AbortSkip, "abort-"),
        ("ep-delete", SeededBug::DropRunnable, ""),
    ] {
        let sc = by_name(name).expect("scenario");
        let mut c = cfg(8, PorMode::Sleep);
        c.seeded_bug = Some(bug);
        let baseline = format!("{:?}", explore(&sc, &c, &Pool::new(1)));
        for workers in [2, 4] {
            let rep = explore(&sc, &c, &Pool::new(workers));
            assert_eq!(
                baseline,
                format!("{rep:?}"),
                "{name}: report diverged at {workers} workers"
            );
        }
        let rep = explore(&sc, &c, &Pool::new(4));
        let cex = rep
            .counterexample
            .unwrap_or_else(|| panic!("{name}: seeded bug not found with POR on"));
        assert!(
            cex.violations
                .iter()
                .any(|v| v.invariant.starts_with(family)),
            "{name}: unexpected violations {:?}",
            cex.violations
        );
    }
}

/// The reduction actually reduces: on the standard ep-delete scope the
/// sleep-set search discharges branches without executing them and runs
/// fewer interleavings than the unreduced search.
#[test]
fn reduction_discharges_branches_on_ep_delete() {
    let sc = by_name("ep-delete").expect("scenario");
    let pool = Pool::new(2);
    let off = explore(&sc, &cfg(8, PorMode::Off), &pool);
    let sleep = explore(&sc, &cfg(8, PorMode::Sleep), &pool);
    assert!(off.counterexample.is_none());
    assert!(sleep.sleep_skips > 0, "sleep sets never fired");
    assert!(
        sleep.interleavings < off.interleavings,
        "no run reduction ({} vs {})",
        sleep.interleavings,
        off.interleavings
    );
    assert_eq!(off.distinct_states, sleep.distinct_states);
}

/// At depth 8, on every single-core and SMP scenario, the sleep-set
/// search expands exactly the unreduced search's canonical-state set in
/// no more runs, and neither search finds a counterexample: every
/// invariant holds and every response meets the §6 bound, widened by
/// the SMP margin on multi-core scenarios.
#[test]
fn sleep_sets_preserve_every_scenario_state_set_at_depth_8() {
    let cache = AnalysisCache::new();
    let scalar = wcet_latency_bound(&cache);
    let irq = cache
        .analyze(EntryPoint::Interrupt, &AnalysisConfig::after_l2_off())
        .cycles;
    let pool = Pool::new(2);
    for sc in all().into_iter().chain(smp_all()) {
        let cores = (sc.build)().kernel.n_cores();
        let search = |por| {
            let c = ExploreConfig {
                latency_bound: scalar + smp_latency_margin(irq, &SmpParams::new(cores)),
                ..cfg(8, por)
            };
            explore_with_states(&sc, &c, &pool)
        };
        let (off, off_states) = search(PorMode::Off);
        let (sleep, sleep_states) = search(PorMode::Sleep);
        assert!(!off.capped && !sleep.capped, "{}: capped", sc.name);
        assert_eq!(
            off_states, sleep_states,
            "{}: state sets diverged (off {} vs sleep {})",
            sc.name, off.distinct_states, sleep.distinct_states
        );
        assert!(
            sleep.interleavings <= off.interleavings,
            "{}: reduction executed more runs ({} > {})",
            sc.name,
            sleep.interleavings,
            off.interleavings
        );
        for rep in [&off, &sleep] {
            assert!(
                rep.counterexample.is_none(),
                "{}: {:?}",
                sc.name,
                rep.counterexample
            );
        }
    }
}
