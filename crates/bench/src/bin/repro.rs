//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p rt-bench --bin repro -- table1
//! cargo run --release -p rt-bench --bin repro -- table2
//! cargo run --release -p rt-bench --bin repro -- fig8
//! cargo run --release -p rt-bench --bin repro -- fig9
//! cargo run --release -p rt-bench --bin repro -- attribution
//! cargo run --release -p rt-bench --bin repro -- micro
//! cargo run --release -p rt-bench --bin repro -- overhead
//! cargo run --release -p rt-bench --bin repro -- latency-bound
//! cargo run --release -p rt-bench --bin repro -- explore [--depth N] [--por off|sleep] \
//!     [--workers a,b,c] [--budget-states N] [--scenario NAME] [--snapshot-every N] \
//!     [--baseline-rebuild] [--smp]
//! cargo run --release -p rt-bench --bin repro -- bench [--workers a,b,c] [--fleet-jobs N]
//! cargo run --release -p rt-bench --bin repro -- load [--events N --tenants N --shards N --seed N --cores N --workers a,b,c]
//! cargo run --release -p rt-bench --bin repro -- all
//! ```
//!
//! All analysis-driven targets run on one shared [`sweep::SweepCtx`]:
//! `--jobs N` (or `RT_JOBS`) sizes the worker pool, and the shared cache
//! means `repro all` computes each distinct analysis exactly once no
//! matter how many tables need it. The output bytes are identical for any
//! worker count.

use rt_bench::sweep::{self, SweepCtx};
use rt_bench::{attribution, tables};
use rt_kernel::vspace::overhead::{compute, OverheadParams};

fn overhead() -> String {
    let o = compute(&OverheadParams::paper_example());
    let mut s = String::new();
    s.push_str(
        "§3.6 memory-overhead comparison (256 MiB phys, 4 KiB frames, one dense 256 MiB AS)\n",
    );
    s.push_str(&format!(
        "  frame table:              {:>8} KiB   (paper: 256 KiB)\n",
        o.frame_table / 1024
    ));
    s.push_str(&format!(
        "  shadow page tables:       {:>8} KiB   (paper: 256 KiB)\n",
        o.shadow_pt / 1024
    ));
    s.push_str(&format!(
        "  shadow page directory:    {:>8} KiB   (paper: 16 KiB per AS)\n",
        o.shadow_pd / 1024
    ));
    s
}

fn latency_bound(ctx: &SweepCtx) -> String {
    use rt_kernel::kernel::{EntryPoint, KernelConfig};
    use rt_wcet::AnalysisConfig;
    let mut s = String::new();
    let cfg = AnalysisConfig {
        kernel: KernelConfig::after(),
        l2: false,
        pinning: false,
        l2_kernel_locked: false,
        manual_constraints: true,
    };
    let mut reports = ctx
        .analyze_batch(&[(EntryPoint::Syscall, cfg), (EntryPoint::Interrupt, cfg)])
        .into_iter();
    let sys = reports.next().expect("syscall report");
    let irq = reports.next().expect("interrupt report");
    let total = sys.cycles + irq.cycles;
    s.push_str("§6/§8 worst-case interrupt response bound (after-kernel, L2 off):\n");
    s.push_str(&format!(
        "  WCET(system call) = {} cycles ({:.1} us)\n",
        sys.cycles, sys.us
    ));
    s.push_str(&format!(
        "  WCET(interrupt)   = {} cycles ({:.1} us)\n",
        irq.cycles, irq.us
    ));
    s.push_str(&format!(
        "  bound             = {} cycles ({:.1} us)   [paper: 189,117 cycles]\n",
        total,
        rt_hw::cycles_to_us(total)
    ));
    s.push_str("\nDominant worst-path contributors (system call):\n");
    for (block, ctx, n, c) in sys.worst_path.iter().take(8) {
        s.push_str(&format!(
            "  {block:?}(ctx {ctx}) x{n} @ {c} cycles = {}\n",
            n * c
        ));
    }
    s.push_str("\nILP solver effort (warm-started branch and bound):\n");
    for (name, r) in [("system call", &sys), ("interrupt", &irq)] {
        let st = r.phases.ilp_stats;
        s.push_str(&format!(
            "  {name:<11}: {} nodes, {} pivots ({} primal + {} dual), \
             warm-start rate {:.0}%, {} presolved, {:.1} ms\n",
            st.nodes,
            st.pivots(),
            st.primal_pivots,
            st.dual_pivots,
            st.warm_hit_rate() * 100.0,
            st.presolve_eliminated,
            st.wall.as_secs_f64() * 1e3
        ));
    }
    s
}

fn constraints_demo(ctx: &SweepCtx) -> String {
    use rt_kernel::kernel::{EntryPoint, KernelConfig};
    use rt_wcet::AnalysisConfig;
    let mut raw_cfg = AnalysisConfig {
        kernel: KernelConfig::after(),
        l2: false,
        pinning: false,
        l2_kernel_locked: false,
        manual_constraints: false,
    };
    let raw = ctx.cache().analyze(EntryPoint::Syscall, &raw_cfg);
    raw_cfg.manual_constraints = true;
    let constrained = ctx.cache().analyze(EntryPoint::Syscall, &raw_cfg);
    format!(
        "§6 manual-constraint methodology (system call, after-kernel, L2 off):\n\
         \x20 raw CFG bound:         {} cycles ({:.1} us)\n\
         \x20 with constraints:      {} cycles ({:.1} us)\n\
         \x20 infeasible-path slack: {:.1}%\n\
         (paper: the first, infeasible solution exceeded 600k cycles; manual\n\
         constraints brought the bound to 232,098 cycles with L2 enabled)\n",
        raw.cycles,
        raw.us,
        constrained.cycles,
        constrained.us,
        100.0 * (raw.cycles as f64 - constrained.cycles as f64) / constrained.cycles as f64
    )
}

/// Parses a worker-count list like `1,2,4,8` (from `--workers` or
/// `RT_BENCH_WORKERS`); every element must be a positive integer.
fn parse_workers(spec: &str) -> Result<Vec<usize>, ()> {
    let counts: Vec<usize> = spec
        .split(',')
        .map(|w| w.trim().parse::<usize>().map_err(|_| ()))
        .collect::<Result<_, _>>()?;
    if counts.is_empty() || counts.contains(&0) {
        return Err(());
    }
    Ok(counts)
}

fn bench_opts(args: &[String]) -> sweep::BenchOpts {
    let mut opts = sweep::BenchOpts::default();
    // CLI flag wins over the environment; both parse identically.
    let spec = args
        .iter()
        .position(|a| a == "--workers")
        .map(|i| args.get(i + 1).cloned().unwrap_or_default())
        .or_else(|| std::env::var("RT_BENCH_WORKERS").ok());
    if let Some(spec) = spec {
        match parse_workers(&spec) {
            Ok(counts) => opts.workers = counts,
            Err(()) => {
                eprintln!(
                    "--workers / RT_BENCH_WORKERS requires a comma list of positive integers"
                );
                std::process::exit(2);
            }
        }
    }
    match flag_value(args, "--fleet-jobs") {
        None => {}
        Some(Ok(n)) => opts.fleet_cap = n,
        Some(Err(())) => {
            eprintln!("--fleet-jobs requires a positive integer");
            std::process::exit(2);
        }
    }
    opts
}

/// Updates the bench record and returns the status line saying where.
/// Only `--record` writes the committed `BENCH_sweep.json`;
/// `RT_BENCH_OUT` sends the record to another file instead (CI smoke
/// runs); with neither, nothing is written. `update` maps the record's
/// current contents (an empty object when absent) to its new contents.
fn record(args: &[String], update: impl FnOnce(&str) -> String) -> String {
    let path = match std::env::var("RT_BENCH_OUT") {
        Ok(path) => path,
        Err(_) if args.iter().any(|a| a == "--record") => "BENCH_sweep.json".into(),
        Err(_) => return "  not recorded (pass --record to update BENCH_sweep.json)".into(),
    };
    let old = std::fs::read_to_string(&path)
        .ok()
        .filter(|s| !s.trim().is_empty())
        .unwrap_or_else(|| "{\n}\n".into());
    std::fs::write(&path, update(&old)).unwrap_or_else(|e| panic!("write {path}: {e}"));
    format!("  wrote {path}")
}

fn bench_report(args: &[String], opts: &sweep::BenchOpts) -> String {
    let result = sweep::run_bench_with(opts);
    let status = record(args, |old| {
        let mut json = result.to_json();
        // `repro bench` regenerates the sweep numbers but must not lose
        // the `repro load` / `repro explore` blocks of previous runs —
        // carry them forward.
        for key in ["load", "explore", "explore_smp"] {
            if let Some(block) = sweep::extract_json_block(old, key) {
                json = sweep::upsert_json_block(&json, key, &block);
            }
        }
        json
    });
    let mut s = result.render();
    s.push_str(&status);
    s.push('\n');
    s
}

/// The `repro load` driver: runs the rt-load heavy-traffic engine once
/// per requested worker count, asserts the rendered reports are
/// byte-identical, records the `"load"` block (see [`record`]),
/// and returns the (deterministic) report for stdout. Wall-clock and
/// file-path chatter goes to stderr so stdout stays byte-comparable
/// across invocations.
fn load_report(args: &[String]) -> String {
    let grab = |flag: &str, default: usize| -> usize {
        match flag_value(args, flag) {
            None => default,
            Some(Ok(n)) => n,
            Some(Err(())) => {
                eprintln!("{flag} requires a positive integer");
                std::process::exit(2);
            }
        }
    };
    let events = grab("--events", 1_000_000) as u64;
    let tenants = grab("--tenants", 64) as u32;
    let shards = grab("--shards", 32) as u32;
    let seed = grab("--seed", 42) as u64;
    let cores = grab("--cores", 1) as u8;
    if !(1..=8).contains(&cores) {
        eprintln!("--cores must be in 1..=8");
        std::process::exit(2);
    }
    let workers = args
        .iter()
        .position(|a| a == "--workers")
        .map(|i| args.get(i + 1).cloned().unwrap_or_default())
        .or_else(|| std::env::var("RT_BENCH_WORKERS").ok())
        .map(|spec| {
            parse_workers(&spec).unwrap_or_else(|()| {
                eprintln!(
                    "--workers / RT_BENCH_WORKERS requires a comma list of positive integers"
                );
                std::process::exit(2);
            })
        })
        .unwrap_or_else(|| vec![1, 4]);

    let mut spec = rt_load::LoadSpec::standard(seed, events, tenants, shards);
    spec.cores = cores;
    let cfg = rt_wcet::AnalysisConfig::after_l2_off();
    // One shared analysis cache: the per-line bounds are computed once
    // and every worker-count run reuses the memo.
    let cache = rt_wcet::AnalysisCache::new();
    let mut walls: Vec<(usize, u128)> = Vec::new();
    let mut renders: Vec<String> = Vec::new();
    let mut last = None;
    for &w in &workers {
        let pool = rt_pool::Pool::new(w);
        let t0 = std::time::Instant::now();
        let r = rt_load::run_load(&spec, &pool, &cache, &cfg);
        walls.push((w, t0.elapsed().as_millis()));
        renders.push(r.render());
        last = Some(r);
    }
    let identical = renders.windows(2).all(|w| w[0] == w[1]);
    let result = last.expect("at least one worker count");
    for (w, ms) in &walls {
        eprintln!("  load: {w} workers -> {ms} ms (wall; stderr only)");
    }

    let block = result.to_json_block(&walls, identical);
    eprintln!(
        "{}",
        record(args, |old| sweep::upsert_json_block(old, "load", &block))
    );

    if !identical {
        eprintln!("load: reports DIVERGED across worker counts {workers:?}");
        std::process::exit(1);
    }
    if !result.sound() {
        eprint!("{}", renders[0]);
        eprintln!("load: soundness oracle FAILED");
        std::process::exit(1);
    }
    renders.into_iter().next().expect("one render per run")
}

/// The `repro explore` driver: runs the reduced frontier search once per
/// requested worker count, asserts the rendered reports (header plus one
/// `key=value` line per scenario) are byte-identical across counts,
/// records the `"explore"` block (see [`record`]), and returns the
/// deterministic report for stdout. Wall-clock, snapshot-engine stats and
/// file-path chatter go to stderr, as with `repro load` — the snapshot
/// cadence must never leak into stdout, because forked and rebuilt
/// searches are required to render byte-identically.
///
/// `--snapshot-every N` sets the fork cadence (default 4, the measured
/// capture-vs-replay sweet spot; 0 selects the
/// rebuild-replay engine). `--baseline-rebuild` additionally re-runs the
/// first worker count with snapshotting off, asserts the rebuilt render
/// is byte-identical to the forked one, and records the rebuild
/// wall/throughput beside the fork numbers — the CI scale gate reads the
/// ratio from the artifact.
fn explore_cmd(args: &[String], depth: usize, ctx: &SweepCtx) -> String {
    use rt_explore::PorMode;
    let por = match args
        .iter()
        .position(|a| a == "--por")
        .map(|i| args.get(i + 1).map(String::as_str).unwrap_or(""))
    {
        None | Some("off") => PorMode::Off,
        Some("sleep") => PorMode::Sleep,
        Some(other) => {
            eprintln!("--por must be off|sleep, got {other:?}");
            std::process::exit(2);
        }
    };
    let budget_states = match flag_value(args, "--budget-states") {
        None => None,
        Some(Ok(n)) => Some(n),
        Some(Err(())) => {
            eprintln!("--budget-states requires a positive integer");
            std::process::exit(2);
        }
    };
    // 0 is meaningful here (rebuild engine), so not `flag_value`.
    let snapshot_every = match args.iter().position(|a| a == "--snapshot-every") {
        None => 4,
        Some(i) => match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(n) => n,
            None => {
                eprintln!("--snapshot-every requires a non-negative integer");
                std::process::exit(2);
            }
        },
    };
    let baseline_rebuild = args.iter().any(|a| a == "--baseline-rebuild");
    // `--smp` swaps in the which-core-axis scenario set (DESIGN.md §14)
    // and records under the separate `"explore_smp"` JSON key, so the
    // single-core `"explore"` block stays exactly as recorded.
    let smp_set = args.iter().any(|a| a == "--smp");
    let scenarios: Vec<rt_explore::Scenario> = match args
        .iter()
        .position(|a| a == "--scenario")
        .map(|i| args.get(i + 1).cloned().unwrap_or_default())
    {
        None if smp_set => rt_explore::scenario::smp_all(),
        None => rt_explore::scenario::all(),
        Some(name) => match rt_explore::scenario::by_name(&name) {
            Some(sc) => vec![sc],
            None => {
                eprintln!("--scenario {name:?} unknown");
                std::process::exit(2);
            }
        },
    };
    let workers = args
        .iter()
        .position(|a| a == "--workers")
        .map(|i| args.get(i + 1).cloned().unwrap_or_default())
        .map(|spec| {
            parse_workers(&spec).unwrap_or_else(|()| {
                eprintln!("--workers requires a comma list of positive integers");
                std::process::exit(2);
            })
        })
        .unwrap_or_else(|| vec![ctx.pool().jobs()]);

    let cache = ctx.cache();
    let bound = rt_explore::wcet_latency_bound(cache);
    let header = format!(
        "schedule exploration: reduced frontier search over preemption-point interleavings, \
         depth <= {depth}, por={por:?}, budget-states={budget_states:?}\n\
         latency oracle: per-line rank-aware bounds from max-entry WCET + rank x WCET(interrupt)\n\
         (after-kernel, L2 off — scalar fallback {bound} cycles, the §6 bound `repro latency-bound` prints)\n\n"
    );
    // One run of every scenario per worker count; the bound memo and the
    // analysis cache are shared so bounds are resolved once total.
    let mut memo = rt_explore::BoundMemo::default();
    let mut walls: Vec<(usize, u128, usize)> = Vec::new();
    let mut renders: Vec<String> = Vec::new();
    let mut last_reports: Vec<rt_explore::ExploreReport> = Vec::new();
    let mut run_all =
        |every: usize, w: usize| -> (u128, usize, String, Vec<rt_explore::ExploreReport>) {
            let pool = rt_pool::Pool::new(w);
            let t0 = std::time::Instant::now();
            let reports: Vec<_> = scenarios
                .iter()
                .map(|sc| {
                    rt_explore::explore_scenario(
                        sc,
                        depth,
                        por,
                        budget_states,
                        every,
                        &pool,
                        cache,
                        &mut memo,
                    )
                })
                .collect();
            let ms = t0.elapsed().as_millis();
            let states: usize = reports.iter().map(|r| r.states).sum();
            let mut s = header.clone();
            for rep in &reports {
                s.push_str(&rt_explore::render_line(rep));
            }
            (ms, states, s, reports)
        };
    for &w in &workers {
        let (ms, states, s, reports) = run_all(snapshot_every, w);
        walls.push((w, ms, states));
        renders.push(s);
        last_reports = reports;
    }
    let mut identical = renders.windows(2).all(|w| w[0] == w[1]);
    for (w, ms, states) in &walls {
        let rate = *states as f64 / (*ms as f64 / 1e3).max(1e-9);
        eprintln!("  explore: {w} workers -> {ms} ms, {states} states ({rate:.0} states/sec; stderr only)");
    }
    let snap = last_reports
        .iter()
        .fold(rt_explore::SnapStats::default(), |mut acc, r| {
            acc.captured += r.snap.captured;
            acc.forks += r.snap.forks;
            acc.replays_avoided += r.snap.replays_avoided;
            acc.peak_resident = acc.peak_resident.max(r.snap.peak_resident);
            acc.capture_paused_waves += r.snap.capture_paused_waves;
            acc
        });
    if snapshot_every > 0 {
        eprintln!(
            "  explore: snapshot: every={} captured={} forks={} replays-avoided={} \
             peak-resident={} paused-waves={} (stderr only)",
            snapshot_every,
            snap.captured,
            snap.forks,
            snap.replays_avoided,
            snap.peak_resident,
            snap.capture_paused_waves
        );
    }
    // Rebuild-replay baseline: same search, snapshotting off, first
    // worker count. The renders must agree to the byte — the fork engine
    // is an execution shortcut, never a semantic one.
    let mut rebuild: Option<(u128, usize)> = None;
    if baseline_rebuild && snapshot_every > 0 {
        let w = workers[0];
        let (ms, states, s, _) = run_all(0, w);
        let rate = states as f64 / (ms as f64 / 1e3).max(1e-9);
        eprintln!(
            "  explore: rebuild baseline: {w} workers -> {ms} ms, {states} states \
             ({rate:.0} states/sec; stderr only)"
        );
        if s != renders[0] {
            identical = false;
        }
        rebuild = Some((ms, states));
    }

    let key = if smp_set { "explore_smp" } else { "explore" };
    let block = explore_json_block(
        key,
        depth,
        por,
        budget_states,
        &walls,
        identical,
        &last_reports,
        snapshot_every,
        &snap,
        rebuild,
    );
    eprintln!(
        "{}",
        record(args, |old| sweep::upsert_json_block(old, key, &block))
    );

    if !identical {
        eprintln!(
            "explore: reports DIVERGED (across worker counts {workers:?}, or forked vs rebuilt)"
        );
        std::process::exit(1);
    }
    renders.into_iter().next().expect("one render per run")
}

/// Serializes the `"explore"` (or `"explore_smp"`) block under `key`:
/// search shape, host parallelism (so
/// recorded throughput is never read against an unknown machine), per-
/// scenario frontier and reduction stats, per-worker wall/throughput
/// measurements, and the snapshot-engine sub-block (with the rebuild
/// baseline and speedup when `--baseline-rebuild` measured one).
#[allow(clippy::too_many_arguments)]
fn explore_json_block(
    key: &str,
    depth: usize,
    por: rt_explore::PorMode,
    budget_states: Option<usize>,
    walls: &[(usize, u128, usize)],
    identical: bool,
    reports: &[rt_explore::ExploreReport],
    snapshot_every: usize,
    snap: &rt_explore::SnapStats,
    rebuild: Option<(u128, usize)>,
) -> String {
    use std::fmt::Write as _;
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut s = String::new();
    let _ = writeln!(s, "  \"{key}\": {{");
    let _ = writeln!(s, "    \"depth\": {depth},");
    let _ = writeln!(s, "    \"por\": \"{:?}\",", por);
    let _ = writeln!(
        s,
        "    \"budget_states\": {},",
        budget_states.map_or("null".into(), |b| b.to_string())
    );
    let _ = writeln!(s, "    \"host_cpus\": {host_cpus},");
    let _ = writeln!(s, "    \"identical_across_workers\": {identical},");
    let _ = writeln!(s, "    \"scenarios\": [");
    for (i, r) in reports.iter().enumerate() {
        let _ = writeln!(
            s,
            "      {{\"name\": \"{}\", \"interleavings\": {}, \"states\": {}, \"distinct\": {}, \
             \"sleep_skips\": {}, \"reduction_ratio\": {:.4}, \
             \"waves\": {}, \"peak_frontier\": {}, \"counterexamples\": {}, \"capped\": {}}}{}",
            r.scenario,
            r.interleavings,
            r.states,
            r.distinct_states,
            r.sleep_skips,
            r.reduction_ratio(),
            r.waves,
            r.peak_frontier,
            r.counterexample.is_some() as u32,
            r.capped,
            if i + 1 == reports.len() { "" } else { "," }
        );
    }
    let _ = writeln!(s, "    ],");
    let _ = writeln!(s, "    \"runs\": [");
    for (i, (w, ms, states)) in walls.iter().enumerate() {
        let rate = *states as f64 / (*ms as f64 / 1e3).max(1e-9);
        let _ = writeln!(
            s,
            "      {{\"workers\": {w}, \"wall_ms\": {ms}, \"states\": {states}, \
             \"states_per_sec\": {rate:.0}}}{}",
            if i + 1 == walls.len() { "" } else { "," }
        );
    }
    let _ = writeln!(s, "    ],");
    let _ = writeln!(s, "    \"snapshot\": {{");
    let _ = writeln!(s, "      \"every\": {snapshot_every},");
    let _ = writeln!(s, "      \"captured\": {},", snap.captured);
    let _ = writeln!(s, "      \"forks\": {},", snap.forks);
    let _ = writeln!(s, "      \"replays_avoided\": {},", snap.replays_avoided);
    let _ = writeln!(s, "      \"peak_resident\": {},", snap.peak_resident);
    let _ = writeln!(
        s,
        "      \"capture_paused_waves\": {},",
        snap.capture_paused_waves
    );
    match rebuild {
        Some((ms, states)) => {
            let rate = states as f64 / (ms as f64 / 1e3).max(1e-9);
            let (fw, fms, fstates) = walls[0];
            let fork_rate = fstates as f64 / (fms as f64 / 1e3).max(1e-9);
            let speedup = fork_rate / rate.max(1e-9);
            let _ = writeln!(s, "      \"rebuild_workers\": {fw},");
            let _ = writeln!(s, "      \"rebuild_wall_ms\": {ms},");
            let _ = writeln!(s, "      \"rebuild_states_per_sec\": {rate:.0},");
            let _ = writeln!(s, "      \"speedup_vs_rebuild\": {speedup:.2}");
        }
        None => {
            let _ = writeln!(s, "      \"rebuild_wall_ms\": null,");
            let _ = writeln!(s, "      \"rebuild_states_per_sec\": null,");
            let _ = writeln!(s, "      \"speedup_vs_rebuild\": null");
        }
    }
    let _ = writeln!(s, "    }}");
    let _ = write!(s, "  }}");
    s
}

fn flag_value(args: &[String], flag: &str) -> Option<Result<usize, ()>> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .ok_or(())
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let reps: u32 = match flag_value(&args, "--reps") {
        None => 8,
        Some(Ok(n)) => n as u32,
        Some(Err(())) => {
            eprintln!("--reps requires a positive integer");
            std::process::exit(2);
        }
    };
    let depth: usize = match flag_value(&args, "--depth") {
        None => 8,
        Some(Ok(n)) => n,
        Some(Err(())) => {
            eprintln!("--depth requires a positive integer");
            std::process::exit(2);
        }
    };
    let ctx = match flag_value(&args, "--jobs") {
        None => SweepCtx::from_env(),
        Some(Ok(n)) => SweepCtx::with_jobs(n),
        Some(Err(())) => {
            eprintln!("--jobs requires a positive integer");
            std::process::exit(2);
        }
    };
    let ctx = &ctx;
    match what {
        "table1" => print!("{}", tables::render_table1(&tables::table1_with(ctx))),
        "table2" => print!("{}", tables::render_table2(&tables::table2_with(ctx, reps))),
        "fig8" => print!("{}", tables::render_fig8(&tables::fig8_with(ctx, reps))),
        "l2lock" => print!("{}", tables::render_l2lock(&tables::l2lock_with(ctx, reps))),
        "open-closed" => print!(
            "{}",
            tables::render_open_closed(&tables::open_closed_with(ctx))
        ),
        "restart-overhead" => print!(
            "{}",
            tables::render_restart_overhead(&tables::restart_overhead())
        ),
        "fig9" => print!("{}", tables::render_fig9(&tables::fig9_with(ctx, reps))),
        "micro" => print!("{}", tables::render_micro(&tables::micro())),
        "attribution" => print!("{}", attribution::attribution_report_with(ctx, reps)),
        "overhead" => print!("{}", overhead()),
        "latency-bound" => print!("{}", latency_bound(ctx)),
        "constraints" => print!("{}", constraints_demo(ctx)),
        "explore" => print!("{}", explore_cmd(&args, depth, ctx)),
        "bench" => print!("{}", bench_report(&args, &bench_opts(&args))),
        "load" => print!("{}", load_report(&args)),
        "all" => {
            print!("{}", tables::render_table1(&tables::table1_with(ctx)));
            println!();
            print!("{}", tables::render_table2(&tables::table2_with(ctx, reps)));
            println!();
            print!("{}", tables::render_fig8(&tables::fig8_with(ctx, reps)));
            println!();
            print!("{}", tables::render_fig9(&tables::fig9_with(ctx, reps)));
            println!();
            print!("{}", tables::render_l2lock(&tables::l2lock_with(ctx, reps)));
            println!();
            print!(
                "{}",
                tables::render_restart_overhead(&tables::restart_overhead())
            );
            println!();
            print!("{}", tables::render_micro(&tables::micro()));
            println!();
            print!(
                "{}",
                tables::render_open_closed(&tables::open_closed_with(ctx))
            );
            println!();
            print!("{}", overhead());
            println!();
            print!("{}", latency_bound(ctx));
            println!();
            print!("{}", constraints_demo(ctx));
            println!();
            print!("{}", attribution::attribution_report_with(ctx, reps));
        }
        other => {
            eprintln!(
                "unknown target {other:?}; expected table1|table2|fig8|fig9|micro|l2lock|attribution|open-closed|restart-overhead|overhead|latency-bound|constraints|explore|bench|load|all"
            );
            std::process::exit(2);
        }
    }
}
