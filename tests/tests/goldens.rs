//! Golden-file tests: the rendered `repro` tables must match the
//! checked-in goldens **byte for byte**, at any worker count.
//!
//! The goldens in `tests/goldens/` were captured from the serial,
//! pre-cache implementation, so these tests pin three properties at once:
//! the analysis results themselves, the renderers' formatting, and the
//! determinism of the parallel/cached pipeline (a scheduling-dependent
//! solve order would show up here as a diff). They run at `reps = 2`
//! even though `repro` defaults to 8 — the observed maxima are
//! rep-invariant (the workloads are deterministic and the first polluted
//! rep already realises the maximum; `observe.rs` proves this
//! separately), which is also what makes golden-pinning the observation
//! columns legitimate.
//!
//! `ci.sh` additionally diffs the actual `repro table1|table2` stdout
//! against the same files, covering the binary's argument plumbing.
//!
//! `load_small` and `explore_small` pin the simulated output of the load
//! engine and the schedule explorer. Worker-count agreement alone cannot
//! catch a simulator change that shifts every run alike; these goldens
//! do, so a host-side speed-up of the machine model must leave them
//! byte-identical.
//!
//! `ilp_work` pins the ILP solver's *work*, not just its answers: per
//! distinct analysis the re-solve's node, pivot, warm-start and presolve
//! counts plus a digest of the chosen worst path and trace. A solver
//! change that lands on a different optimal vertex with the same bound,
//! or pivots differently on the way, shows up here even though every
//! rendered table stays the same.

use std::collections::HashSet;
use std::fmt::Write;

use rt_bench::sweep::{full_sweep_jobs, SweepCtx};
use rt_bench::{attribution, tables};
use rt_explore::scenario::{all, smp_all};
use rt_explore::{explore_scenario, render_line, BoundMemo, PorMode};
use rt_kernel::kernel::{EntryPoint, KernelConfig, SchedKind, VmKind};
use rt_load::{run_load, LoadSpec};
use rt_wcet::AnalysisConfig;

fn check(name: &str, golden: &str, render: impl Fn(&SweepCtx) -> String) {
    for jobs in [1usize, 4] {
        let ctx = SweepCtx::with_jobs(jobs);
        let got = render(&ctx);
        assert!(
            got == golden,
            "{name} with {jobs} worker(s) diverged from tests/goldens/{name}.txt:\n\
             --- golden ---\n{golden}\n--- got ---\n{got}"
        );
    }
}

#[test]
fn table1_matches_golden() {
    check("table1", include_str!("../goldens/table1.txt"), |ctx| {
        tables::render_table1(&tables::table1_with(ctx))
    });
}

#[test]
fn table2_matches_golden() {
    check("table2", include_str!("../goldens/table2.txt"), |ctx| {
        tables::render_table2(&tables::table2_with(ctx, 2))
    });
}

#[test]
fn fig8_matches_golden() {
    check("fig8", include_str!("../goldens/fig8.txt"), |ctx| {
        tables::render_fig8(&tables::fig8_with(ctx, 2))
    });
}

#[test]
fn fig9_matches_golden() {
    check("fig9", include_str!("../goldens/fig9.txt"), |ctx| {
        tables::render_fig9(&tables::fig9_with(ctx, 2))
    });
}

#[test]
fn l2lock_matches_golden() {
    check("l2lock", include_str!("../goldens/l2lock.txt"), |ctx| {
        tables::render_l2lock(&tables::l2lock_with(ctx, 2))
    });
}

#[test]
fn attribution_matches_golden() {
    check(
        "attribution",
        include_str!("../goldens/attribution.txt"),
        |ctx| attribution::attribution_report_with(ctx, 2),
    );
}

#[test]
fn load_small_matches_golden() {
    check(
        "load_small",
        include_str!("../goldens/load_small.txt"),
        |ctx| {
            let cfg = rt_wcet::AnalysisConfig::after_l2_off();
            let mut out = String::new();
            for cores in [1u8, 2] {
                let mut spec = LoadSpec::standard(42, 6_000, 16, 4);
                spec.cores = cores;
                out.push_str(&run_load(&spec, ctx.pool(), ctx.cache(), &cfg).render());
            }
            out
        },
    );
}

#[test]
fn explore_small_matches_golden() {
    check(
        "explore_small",
        include_str!("../goldens/explore_small.txt"),
        |ctx| {
            let mut memo = BoundMemo::default();
            all()
                .iter()
                .chain(smp_all().iter())
                .map(|sc| {
                    render_line(&explore_scenario(
                        sc,
                        6,
                        PorMode::Sleep,
                        None,
                        4,
                        ctx.pool(),
                        ctx.cache(),
                        &mut memo,
                    ))
                })
                .collect()
        },
    );
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The analyses whose solver work `ilp_work.txt` pins: every distinct
/// analysis `repro all` issues (one of which branches: the after-kernel
/// system call with the L2 on), plus the fleet's lazy-scheduler,
/// shadow-page-table system call with preemption points and manual
/// constraints at both L2 settings — the instances whose branch and bound
/// appends cuts, re-optimises with dual pivots and falls back to cold
/// solves once the snapshot budget is spent.
fn ilp_work_jobs() -> Vec<(EntryPoint, AnalysisConfig)> {
    let mut seen = HashSet::new();
    let mut jobs: Vec<_> = full_sweep_jobs()
        .into_iter()
        .filter(|job| seen.insert(*job))
        .collect();
    let kernel = KernelConfig {
        sched: SchedKind::Lazy,
        vm: VmKind::ShadowPt,
        preemption_points: true,
        fastpath: false,
    };
    for l2 in [false, true] {
        jobs.push((
            EntryPoint::Syscall,
            AnalysisConfig {
                kernel,
                l2,
                pinning: false,
                l2_kernel_locked: false,
                manual_constraints: true,
            },
        ));
    }
    jobs
}

fn render_ilp_work(ctx: &SweepCtx) -> String {
    let jobs = ilp_work_jobs();
    let reports = ctx.analyze_batch(&jobs);
    let mut out = String::new();
    for ((entry, cfg), r) in jobs.iter().zip(&reports) {
        let k = cfg.kernel;
        let s = r.phases.ilp_stats;
        let path = fnv1a(format!("{:?}{:?}", r.worst_path, r.trace).as_bytes());
        writeln!(
            out,
            "{entry:?} {:?}/{:?} pp={} fp={} l2={} lock={} pin={} manual={} bounds=default \
             cycles={} nodes={} primal={} dual={} warm_hits={} warm_misses={} presolved={} \
             path={path:016x}",
            k.sched,
            k.vm,
            u8::from(k.preemption_points),
            u8::from(k.fastpath),
            u8::from(cfg.l2),
            u8::from(cfg.l2_kernel_locked),
            u8::from(cfg.pinning),
            u8::from(cfg.manual_constraints),
            r.cycles,
            s.nodes,
            s.primal_pivots,
            s.dual_pivots,
            s.warm_hits,
            s.warm_misses,
            s.presolve_eliminated,
        )
        .unwrap();
    }
    let t = ctx.cache().stats().resolve;
    writeln!(
        out,
        "resolve totals: resolves={} warm_pivots={} seed_pivots={}",
        t.resolves, t.warm_pivots, t.seed_pivots
    )
    .unwrap();
    out
}

#[test]
fn ilp_work_matches_golden() {
    check(
        "ilp_work",
        include_str!("../goldens/ilp_work.txt"),
        render_ilp_work,
    );
}
