//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p rt-bench --bin repro -- table1
//! cargo run --release -p rt-bench --bin repro -- table2
//! cargo run --release -p rt-bench --bin repro -- fig8
//! cargo run --release -p rt-bench --bin repro -- fig9
//! cargo run --release -p rt-bench --bin repro -- l2lock
//! cargo run --release -p rt-bench --bin repro -- attribution
//! cargo run --release -p rt-bench --bin repro -- micro
//! cargo run --release -p rt-bench --bin repro -- open-closed
//! cargo run --release -p rt-bench --bin repro -- restart-overhead
//! cargo run --release -p rt-bench --bin repro -- overhead
//! cargo run --release -p rt-bench --bin repro -- latency-bound
//! cargo run --release -p rt-bench --bin repro -- constraints
//! cargo run --release -p rt-bench --bin repro -- explore [--depth N] [--por off|sleep] \
//!     [--workers a,b,c] [--budget-states N] [--scenario NAME] [--snapshot-every N] \
//!     [--baseline-rebuild] [--smp] [--record]
//! cargo run --release -p rt-bench --bin repro -- bench [--workers a,b,c] [--fleet-jobs N] [--record]
//! cargo run --release -p rt-bench --bin repro -- load [--events N --tenants N --shards N --seed N --cores N --workers a,b,c] [--record]
//! cargo run --release -p rt-bench --bin repro -- all
//! ```
//!
//! All analysis-driven targets run on one shared [`sweep::SweepCtx`]:
//! `--jobs N` (or `RT_JOBS`) sizes the worker pool, and the shared cache
//! means `repro all` computes each distinct analysis exactly once no
//! matter how many tables need it. The output bytes are identical for any
//! worker count.

use rt_bench::json::Json;
use rt_bench::obj;
use rt_bench::provenance::provenance;
use rt_bench::sweep::{self, SweepCtx};
use rt_bench::{attribution, tables};

/// Prints the §6/§8 bound; each solve's host wall time goes to stderr, so
/// stdout is the same on every run.
fn latency_bound(ctx: &SweepCtx) -> String {
    let lb = tables::latency_bound_with(ctx);
    for (name, r) in [("system call", &lb.syscall), ("interrupt", &lb.interrupt)] {
        eprintln!(
            "  latency-bound: {name} ILP solved in {:.1} ms (stderr only)",
            r.phases.ilp_stats.wall.as_secs_f64() * 1e3
        );
    }
    tables::render_latency_bound(&lb)
}

/// The positive integer after `flag`, if `flag` is given; exits 2 when
/// its value is missing or not a positive integer.
fn positive(args: &[String], flag: &str) -> Option<usize> {
    let i = args.iter().position(|a| a == flag)?;
    let n = args
        .get(i + 1)
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0);
    if n.is_none() {
        eprintln!("{flag} requires a positive integer");
        std::process::exit(2);
    }
    n
}

/// The positive count after `flag`, else `default`; exits 2, naming
/// `max` and `why` it is the limit, when the count is above `max`.
fn at_most(args: &[String], flag: &str, default: u32, max: u32, why: &str) -> u32 {
    let n = positive(args, flag).unwrap_or(default as usize);
    match u32::try_from(n) {
        Ok(n) if n <= max => n,
        _ => {
            eprintln!("{flag} must be at most {max}{why}");
            std::process::exit(2);
        }
    }
}

/// The worker counts of `--workers 1,2,4`; exits 2 unless every count is
/// a positive integer.
fn worker_counts(args: &[String]) -> Option<Vec<usize>> {
    let i = args.iter().position(|a| a == "--workers")?;
    let spec = args.get(i + 1).map_or("", String::as_str);
    let counts = spec
        .split(',')
        .map(|w| w.trim().parse().ok().filter(|&n| n > 0));
    let counts: Option<Vec<usize>> = counts.collect();
    if counts.is_none() {
        eprintln!("--workers requires a comma list of positive integers");
        std::process::exit(2);
    }
    counts
}

fn bench_opts(args: &[String]) -> sweep::BenchOpts {
    let default = sweep::BenchOpts::default();
    sweep::BenchOpts {
        workers: worker_counts(args).unwrap_or(default.workers),
        fleet_cap: positive(args, "--fleet-jobs").unwrap_or(default.fleet_cap),
    }
}

/// The record `--record` updates.
const RECORD: &str = "BENCH_sweep.json";

/// The record as `--record` found it before any measurement ran, so that
/// one which cannot be read costs no run and is never overwritten; `None`
/// without `--record`, which writes nothing.
struct Record(Option<Json>);

impl Record {
    /// Reads and parses the record; a missing one starts empty. An
    /// unreadable or malformed record, or one that is not an object,
    /// exits 2 and stays as it is.
    fn open(args: &[String]) -> Record {
        if !args.iter().any(|a| a == "--record") {
            return Record(None);
        }
        let parsed = match std::fs::read_to_string(RECORD) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Json::Obj(Vec::new())),
            Err(e) => Err(e.to_string()),
            Ok(text) => Json::parse(&text).map_err(|e| e.to_string()),
        };
        let why = match parsed {
            Ok(record @ Json::Obj(_)) => return Record(Some(record)),
            Ok(_) => "not a JSON object".to_string(),
            Err(e) => e,
        };
        eprintln!("{RECORD}: {why}; not overwriting it");
        std::process::exit(2);
    }

    /// Sets each member of the object `update` in the record, where it
    /// stands or appended, writes the record and returns the status line.
    fn write(self, update: Json) -> String {
        let Some(mut record) = self.0 else {
            return format!("  not recorded (pass --record to update {RECORD})");
        };
        let Json::Obj(members) = update else {
            panic!("a record update is an object")
        };
        for (key, value) in members {
            record.set(&key, value);
        }
        std::fs::write(RECORD, record.print()).unwrap_or_else(|e| panic!("write {RECORD}: {e}"));
        format!("  wrote {RECORD}")
    }
}

/// The `repro bench` driver: measures, records the sweep's members (see
/// [`Record`]) and returns the report. A batch or fleet report that
/// differs from its serial reference exits 1 after recording.
fn bench_report(args: &[String], opts: &sweep::BenchOpts) -> String {
    let record = Record::open(args);
    let result = sweep::run_bench_with(opts);
    let mut s = result.render();
    // The sweep's members sit at the top level of the record, and so
    // does their provenance.
    let mut update = result.to_json();
    update.set("provenance", provenance());
    s.push_str(&record.write(update));
    s.push('\n');
    if !result.identical {
        eprint!("{s}");
        eprintln!("bench: batch or fleet reports DIVERGED from serial analyze");
        std::process::exit(1);
    }
    s
}

/// The `repro load` driver: runs the rt-load heavy-traffic engine once
/// per requested worker count, asserts the rendered reports are
/// byte-identical, records the `"load"` block (see [`Record`]),
/// and returns the (deterministic) report for stdout. Wall-clock and
/// file-path chatter goes to stderr so stdout stays byte-comparable
/// across invocations.
fn load_report(args: &[String]) -> String {
    let events = positive(args, "--events").unwrap_or(1_000_000) as u64;
    let seed = positive(args, "--seed").unwrap_or(42) as u64;
    // A shard's cspace holds only so many tenants, and the spec keeps
    // the shard count in a u32: a count above either would panic or
    // wrap, so it exits 2 before any run.
    let max_tenants = rt_load::LoadSpec::standard(seed, events, 8, 1).max_tenants();
    let tenants = at_most(
        args,
        "--tenants",
        64,
        max_tenants,
        ", the most a shard's cspace holds",
    );
    let shards = at_most(args, "--shards", 32, u32::MAX, "");
    let cores = positive(args, "--cores").unwrap_or(1);
    if !(1..=8).contains(&cores) {
        eprintln!("--cores must be in 1..=8");
        std::process::exit(2);
    }
    let workers = worker_counts(args).unwrap_or_else(|| vec![1, 4]);
    let record = Record::open(args);

    let mut spec = rt_load::LoadSpec::standard(seed, events, tenants, shards);
    spec.cores = cores as u8;
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

    let block = load_json(&result, &walls, identical);
    eprintln!("{}", record.write(obj! {"load": block}));

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

/// The `"load"` block: the run's shape, per-line quantiles against their
/// bounds, the kernel-visit distribution, the worst sample with its
/// attribution and the oracle's verdict, then what
/// [`rt_load::LoadResult::render`] leaves out because it depends on the
/// host: the worker counts, their walls and whether their renders agreed.
fn load_json(r: &rt_load::LoadResult, walls: &[(usize, u128)], identical: bool) -> Json {
    let lines = r
        .lines
        .iter()
        .zip(&r.line_violations)
        .map(|((line, h), &v)| {
            obj! {"line": *line, "n": h.count(), "p50": h.quantile(1, 2), "p90": h.quantile(9, 10),
            "p99": h.quantile(99, 100), "p999": h.quantile(999, 1000), "max": h.max(),
            "bound": r.bound_for(*line).unwrap_or(0), "violations": v}
        });
    let sys = &r.syscalls;
    let mut block = obj! {
        "seed": r.seed,
        "events": r.events,
        "shards": r.shards,
        "tenants": r.tenants,
        "threads": r.threads,
        "lines": Json::Arr(lines.collect()),
        "syscall": obj! {"n": sys.count(), "p50": sys.quantile(1, 2),
        "p99": sys.quantile(99, 100), "p999": sys.quantile(999, 1000), "max": sys.max(),
        "wcet": r.syscall_wcet},
    };
    if let (Some(w), Some(a)) = (r.worst, r.attribution) {
        let worst = obj! {"shard": w.shard, "line": w.line, "latency": w.latency,
        "pipeline": a.pipeline, "ifetch_miss": a.ifetch_miss, "dmiss": a.dmiss, "l2": a.l2,
        "replay_matches": a.replay_matches};
        block.set("worst", worst);
    }
    let (workers, wall_ms) = walls.iter().map(|&(w, ms)| (w.into(), ms.into())).unzip();
    block.set("violations", r.violations_total.into());
    block.set("sound", r.sound().into());
    block.set("workers", Json::Arr(workers));
    block.set("wall_ms", Json::Arr(wall_ms));
    block.set("identical_across_workers", identical.into());
    block.set("provenance", provenance());
    block
}

/// Times `repro explore` runs each search it records. Its searches last
/// from tens of milliseconds to about a second, so one run cannot show a
/// change smaller than the spread between runs; five give a median and
/// quartiles.
const REPEATS: usize = 5;

/// The first quartile, median and third quartile of `ms`, interpolated
/// between closest ranks.
fn quartiles(mut ms: Vec<f64>) -> [f64; 3] {
    ms.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let x = q * (ms.len() - 1) as f64;
        let lo = x.floor() as usize;
        ms[lo] + (ms[x.ceil() as usize] - ms[lo]) * (x - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// The `repro explore` driver: runs the reduced frontier search
/// [`REPEATS`] times per requested worker count, asserts the rendered
/// reports (header plus one `key=value` line per scenario) are
/// byte-identical across repeats and counts, records the `"explore"` or
/// `"explore_smp"` block (see [`Record`]),
/// and returns the deterministic report for stdout. Wall-clock,
/// snapshot-engine stats and file-path chatter go to stderr, as with
/// `repro load` — the snapshot cadence must never leak into stdout,
/// because forked and rebuilt searches are required to render
/// byte-identically.
///
/// `--snapshot-every N` sets the fork cadence (default 4, the measured
/// capture-vs-replay sweet spot; 0 selects the
/// rebuild-replay engine). `--baseline-rebuild` additionally re-runs the
/// first worker count [`REPEATS`] times with snapshotting off, asserts
/// the rebuilt renders are byte-identical to the forked ones, and records
/// the rebuild wall/throughput beside the fork numbers. Every wall is
/// recorded as the median of its repeats with its quartiles, and every
/// rate is computed from the median.
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
    let budget_states = positive(args, "--budget-states");
    // 0 is meaningful here (rebuild engine), so not `positive`.
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
    // `--smp` swaps in the which-core-axis scenario set (DESIGN.md §14).
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
    // A search of scenarios that boot more than one core records under
    // `"explore_smp"`, any other under `"explore"`, so each block holds
    // the search its key names.
    let key = if scenarios.iter().any(|sc| (sc.build)().kernel.n_cores() > 1) {
        "explore_smp"
    } else {
        "explore"
    };
    let workers = worker_counts(args).unwrap_or_else(|| vec![ctx.pool().jobs()]);
    let record = Record::open(args);

    let cache = ctx.cache();
    let bound = rt_explore::wcet_latency_bound(cache);
    let header = format!(
        "schedule exploration: reduced frontier search over preemption-point interleavings, \
         depth <= {depth}, por={por:?}, budget-states={budget_states:?}\n\
         latency oracle: per-line rank-aware bounds from max-entry WCET + rank x WCET(interrupt)\n\
         (after-kernel, L2 off — scalar fallback {bound} cycles, the §6 bound `repro latency-bound` prints)\n\n"
    );
    // [`REPEATS`] runs of every scenario per worker count: the walls'
    // quartiles in ms, the states, every run's render and the last run's
    // reports. The bound memo and the analysis cache are shared so bounds
    // are resolved once total.
    let mut memo = rt_explore::BoundMemo::default();
    let mut run_all = |every: usize, w: usize| {
        let pool = rt_pool::Pool::new(w);
        let mut walls = Vec::with_capacity(REPEATS);
        let mut renders = Vec::with_capacity(REPEATS);
        let mut reports: Vec<rt_explore::ExploreReport> = Vec::new();
        for _ in 0..REPEATS {
            let t0 = std::time::Instant::now();
            reports = scenarios
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
            walls.push(t0.elapsed().as_secs_f64() * 1e3);
            let mut s = header.clone();
            for rep in &reports {
                s.push_str(&rt_explore::render_line(rep));
            }
            renders.push(s);
        }
        let states: usize = reports.iter().map(|r| r.states).sum();
        (quartiles(walls), states, renders, reports)
    };
    let mut walls: Vec<(usize, [f64; 3], usize)> = Vec::new();
    let mut renders: Vec<String> = Vec::new();
    let mut last_reports: Vec<rt_explore::ExploreReport> = Vec::new();
    for &w in &workers {
        let (ms, states, mut runs, reports) = run_all(snapshot_every, w);
        walls.push((w, ms, states));
        renders.append(&mut runs);
        last_reports = reports;
    }
    let mut identical = renders.windows(2).all(|w| w[0] == w[1]);
    let rate = |states: usize, ms: f64| states as f64 / (ms / 1e3).max(1e-9);
    for &(w, [q1, ms, q3], states) in &walls {
        let rate = rate(states, ms);
        eprintln!(
            "  explore: {w} workers -> {ms:.1} ms [{q1:.1}, {q3:.1}] (median [quartiles] of \
             {REPEATS}), {states} states ({rate:.0} states/sec; stderr only)"
        );
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
    let mut rebuild: Option<([f64; 3], usize)> = None;
    if baseline_rebuild && snapshot_every > 0 {
        let w = workers[0];
        let (ms @ [q1, median, q3], states, runs, _) = run_all(0, w);
        let rate = rate(states, median);
        eprintln!(
            "  explore: rebuild baseline: {w} workers -> {median:.1} ms [{q1:.1}, {q3:.1}], \
             {states} states ({rate:.0} states/sec; stderr only)"
        );
        identical &= runs.iter().all(|s| *s == renders[0]);
        rebuild = Some((ms, states));
    }

    // The `"explore"` (or `"explore_smp"`) block: search shape,
    // per-scenario frontier and reduction stats, per-worker
    // wall/throughput measurements, the snapshot-engine sub-block (with
    // the rebuild baseline and speedup when `--baseline-rebuild` measured
    // one), and the provenance, whose host CPUs say which machine the
    // throughput was measured on.
    let scenarios = last_reports.iter().map(|r| {
        obj! {"name": r.scenario.as_str(), "interleavings": r.interleavings,
        "states": r.states, "distinct": r.distinct_states, "sleep_skips": r.sleep_skips,
        "reduction_ratio": Json::fixed(r.reduction_ratio(), 4), "waves": r.waves,
        "peak_frontier": r.peak_frontier,
        "counterexamples": u8::from(r.counterexample.is_some()), "capped": r.capped}
    });
    let ms = |x: f64| Json::fixed(x, 2);
    let runs = walls.iter().map(|&(w, [q1, median, q3], states)| {
        obj! {"workers": w, "wall_ms": ms(median), "wall_ms_q1": ms(q1), "wall_ms_q3": ms(q3),
        "states": states, "states_per_sec": Json::fixed(rate(states, median), 0)}
    });
    let (fork_workers, [_, fork_ms, _], fork_states) = walls[0];
    let rebuild_rate = rebuild.map(|([_, median, _], states)| rate(states, median));
    let mut snapshot = obj! {"every": snapshot_every, "captured": snap.captured,
    "forks": snap.forks, "replays_avoided": snap.replays_avoided,
    "peak_resident": snap.peak_resident, "capture_paused_waves": snap.capture_paused_waves};
    if rebuild.is_some() {
        snapshot.set("rebuild_workers", fork_workers.into());
    }
    let rebuild_ms = |i: usize| rebuild.map(|(q, _)| ms(q[i]));
    snapshot.set("rebuild_wall_ms", rebuild_ms(1).into());
    snapshot.set("rebuild_wall_ms_q1", rebuild_ms(0).into());
    snapshot.set("rebuild_wall_ms_q3", rebuild_ms(2).into());
    snapshot.set(
        "rebuild_states_per_sec",
        rebuild_rate.map(|r| Json::fixed(r, 0)).into(),
    );
    let speedup = rebuild_rate.map(|r| Json::fixed(rate(fork_states, fork_ms) / r.max(1e-9), 2));
    snapshot.set("speedup_vs_rebuild", speedup.into());
    let block = obj! {
        "depth": depth,
        "por": format!("{por:?}").as_str(),
        "budget_states": budget_states,
        "identical_across_workers": identical,
        "scenarios": Json::Arr(scenarios.collect()),
        "runs": Json::Arr(runs.collect()),
        "snapshot": snapshot,
        "provenance": provenance(),
    };
    eprintln!("{}", record.write(Json::Obj(vec![(key.into(), block)])));

    if !identical {
        eprintln!(
            "explore: reports DIVERGED (across repeats, worker counts {workers:?}, or forked vs \
             rebuilt)"
        );
        std::process::exit(1);
    }
    renders.into_iter().next().expect("one render per run")
}

/// The paper's tables and figures, in the order `repro all` prints them.
const PAPER: &str = "table1 table2 fig8 fig9 l2lock restart-overhead micro open-closed overhead \
                     latency-bound constraints attribution";

/// The report of one of the [`PAPER`] targets; `None` for any other name.
fn paper(target: &str, ctx: &SweepCtx, reps: u32) -> Option<String> {
    Some(match target {
        "table1" => tables::render_table1(&tables::table1_with(ctx)),
        "table2" => tables::render_table2(&tables::table2_with(ctx, reps)),
        "fig8" => tables::render_fig8(&tables::fig8_with(ctx, reps)),
        "fig9" => tables::render_fig9(&tables::fig9_with(ctx, reps)),
        "l2lock" => tables::render_l2lock(&tables::l2lock_with(ctx, reps)),
        "restart-overhead" => tables::render_restart_overhead(&tables::restart_overhead()),
        "micro" => tables::render_micro(&tables::micro()),
        "open-closed" => tables::render_open_closed(&tables::open_closed_with(ctx)),
        "overhead" => tables::overhead(),
        "latency-bound" => latency_bound(ctx),
        "constraints" => tables::constraints_demo(ctx),
        "attribution" => attribution::attribution_report_with(ctx, reps),
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let reps = positive(&args, "--reps").unwrap_or(8) as u32;
    let depth = positive(&args, "--depth").unwrap_or(8);
    let ctx = positive(&args, "--jobs").map_or_else(SweepCtx::from_env, SweepCtx::with_jobs);
    let ctx = &ctx;
    match what {
        "explore" => print!("{}", explore_cmd(&args, depth, ctx)),
        "bench" => print!("{}", bench_report(&args, &bench_opts(&args))),
        "load" => print!("{}", load_report(&args)),
        "all" => {
            for (i, target) in PAPER.split_whitespace().enumerate() {
                if i > 0 {
                    println!();
                }
                print!("{}", paper(target, ctx, reps).expect("a paper target"));
            }
        }
        target => match paper(target, ctx, reps) {
            Some(report) => print!("{report}"),
            None => {
                let paper = PAPER.split_whitespace().collect::<Vec<_>>().join("|");
                eprintln!("unknown target {target:?}; expected {paper}|explore|bench|load|all");
                std::process::exit(2);
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_interpolate_between_closest_ranks() {
        assert_eq!(quartiles(vec![5.0, 1.0, 4.0, 2.0, 3.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(vec![2.0, 1.0]), [1.25, 1.5, 1.75]);
        assert_eq!(quartiles(vec![7.0]), [7.0; 3]);
    }
}
