//! The shared sweep context and the `repro bench` sweep timing.
//!
//! [`SweepCtx`] bundles the two pieces every table/figure generator needs
//! to fan out: an [`rt_pool::Pool`] and an [`AnalysisCache`]. The `repro`
//! binary builds **one** context and threads it through every subcommand,
//! so e.g. the after-kernel/L2-off analyses Table 1 and Table 2 share are
//! computed once per `repro all` run instead of once per table.
//!
//! [`run_bench_with`] is the `repro bench` subcommand: it times the full
//! analysis sweep of `repro all` (the multiset of `analyze` calls in
//! [`full_sweep_jobs`]) serially — one uncached [`analyze`] per job,
//! exactly as the pre-cache code ran it — and then through
//! [`analyze_batch_with`] at 1, 2 and 4 workers with a fresh cache each,
//! plus a warm second pass. Every parallel report is checked identical to
//! its serial counterpart before any timing is reported, and the results
//! land in `BENCH_sweep.json`.

use std::time::{Duration, Instant};

use rt_kernel::kernel::{EntryPoint, KernelConfig, SchedKind, VmKind};
use rt_pool::{Pool, PoolStats};
use rt_wcet::kmodel::BoundParams;
use rt_wcet::{
    analyze, analyze_batch_bounds_with, analyze_batch_with, AnalysisCache, AnalysisConfig,
    MemoStats, WcetReport,
};

use crate::json::Json;
use crate::obj;

/// A thread pool plus a shared [`AnalysisCache`]: everything a sweep
/// needs. Cheap to create; share one across related sweeps to dedupe
/// their common analyses.
pub struct SweepCtx {
    pool: Pool,
    cache: AnalysisCache,
}

impl SweepCtx {
    /// A context running on the given pool with an empty cache.
    pub fn new(pool: Pool) -> SweepCtx {
        SweepCtx {
            pool,
            cache: AnalysisCache::new(),
        }
    }

    /// A context with exactly `jobs` workers.
    pub fn with_jobs(jobs: usize) -> SweepCtx {
        SweepCtx::new(Pool::new(jobs))
    }

    /// A context sized by `RT_JOBS` / available parallelism
    /// (see [`Pool::from_env`]).
    pub fn from_env() -> SweepCtx {
        SweepCtx::new(Pool::from_env())
    }

    /// The pool — for parallelising the observation side of a table.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// The shared cache.
    pub fn cache(&self) -> &AnalysisCache {
        &self.cache
    }

    /// [`analyze_batch_with`] on this context's pool and cache.
    pub fn analyze_batch(&self, jobs: &[(EntryPoint, AnalysisConfig)]) -> Vec<WcetReport> {
        analyze_batch_with(jobs, &self.pool, &self.cache)
    }
}

impl Default for SweepCtx {
    /// Same as [`SweepCtx::from_env`].
    fn default() -> SweepCtx {
        SweepCtx::from_env()
    }
}

fn acfg(kernel: KernelConfig, l2: bool, pinning: bool) -> AnalysisConfig {
    AnalysisConfig {
        kernel,
        l2,
        pinning,
        l2_kernel_locked: false,
        manual_constraints: true,
    }
}

/// The multiset of default-bounds [`analyze`] calls a full `repro all`
/// issues — duplicates included, because that is precisely what the cache
/// is meant to absorb. (The forced-path fig. 8 analyses and the
/// non-default-bounds §6.1 analyses are driven separately and not part of
/// this list.)
pub fn full_sweep_jobs() -> Vec<(EntryPoint, AnalysisConfig)> {
    let after = KernelConfig::after();
    let before = KernelConfig::before();
    let mut jobs = Vec::new();
    // Table 1: with/without pinning, after-kernel, L2 off.
    for e in EntryPoint::ALL {
        jobs.push((e, acfg(after, false, false)));
        jobs.push((e, acfg(after, false, true)));
    }
    // Table 2: before/L2-off, after/L2-off, after/L2-on.
    for e in EntryPoint::ALL {
        jobs.push((e, acfg(before, false, false)));
        jobs.push((e, acfg(after, false, false)));
        jobs.push((e, acfg(after, true, false)));
    }
    // §4/§8 L2 locking: after/L2-on, unlocked and kernel-locked.
    for e in EntryPoint::ALL {
        jobs.push((e, acfg(after, true, false)));
        let mut locked = acfg(after, true, false);
        locked.l2_kernel_locked = true;
        jobs.push((e, locked));
    }
    // Latency bound: syscall + interrupt, after/L2-off.
    jobs.push((EntryPoint::Syscall, acfg(after, false, false)));
    jobs.push((EntryPoint::Interrupt, acfg(after, false, false)));
    // Constraint demo: syscall raw vs constrained.
    let mut raw = acfg(after, false, false);
    raw.manual_constraints = false;
    jobs.push((EntryPoint::Syscall, raw));
    jobs.push((EntryPoint::Syscall, acfg(after, false, false)));
    // Attribution: after-kernel, both L2 settings.
    for l2 in [false, true] {
        for e in EntryPoint::ALL {
            jobs.push((e, acfg(after, l2, false)));
        }
    }
    jobs
}

/// The config-fleet generator: the full cross product of kernel designs
/// (scheduler × VM model × preemption points × fastpath), cache geometry
/// (L2 off / on / kernel-locked), pinning, manual constraint sets, loop
/// bounds (open / closed, plus a chunked-clear placement variant for the
/// lazy-scheduler kernels whose unpreemptible clears the bound governs)
/// and all four entry points — the "WCET analysis as a service" workload
/// of ROADMAP item 1, ~2,700 jobs rather than a hand-picked list.
///
/// `cap` truncates by deterministic striding (every ⌈n/cap⌉-th job), so a
/// reduced fleet still samples every axis; `usize::MAX` means the full
/// fleet. The generator is pure: the same cap always yields the same job
/// list, which is what lets the differential tests compare worker counts.
pub fn fleet_jobs(cap: usize) -> Vec<(EntryPoint, AnalysisConfig, BoundParams)> {
    let mut jobs = Vec::new();
    // Loop order interleaves the expensive artifacts (kernel × bounds ×
    // entry select the CFG and ILP structure) ahead of the cheap cost
    // reconfigurations, so the batch dispatcher's structure-major sort
    // sees many small groups — good stealing granularity — rather than a
    // few giant ones.
    for sched in [SchedKind::Lazy, SchedKind::Benno, SchedKind::BennoBitmap] {
        for vm in [VmKind::Asid, VmKind::ShadowPt] {
            for preemption_points in [false, true] {
                for fastpath in [false, true] {
                    let kernel = KernelConfig {
                        sched,
                        vm,
                        preemption_points,
                        fastpath,
                    };
                    let mut bounds = vec![BoundParams::open(), BoundParams::closed()];
                    if sched == SchedKind::Lazy {
                        // Preemption-point placement variant: chunk the
                        // before-kernel's worst unpreemptible clear eight
                        // times finer (§3.4's knob).
                        let mut chunked = BoundParams::open();
                        chunked.before_clear_lines /= 8;
                        bounds.push(chunked);
                    }
                    for bounds in bounds {
                        for entry in EntryPoint::ALL {
                            for (l2, l2_kernel_locked) in
                                [(false, false), (true, false), (true, true)]
                            {
                                for pinning in [false, true] {
                                    for manual_constraints in [false, true] {
                                        jobs.push((
                                            entry,
                                            AnalysisConfig {
                                                kernel,
                                                l2,
                                                pinning,
                                                l2_kernel_locked,
                                                manual_constraints,
                                            },
                                            bounds,
                                        ));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    if jobs.len() > cap && cap > 0 {
        let stride = jobs.len().div_ceil(cap);
        jobs = jobs.into_iter().step_by(stride).collect();
    }
    jobs
}

/// True iff two reports agree bit-for-bit on every deterministic field
/// (everything except the wall-clock phase timings).
pub fn reports_identical(a: &WcetReport, b: &WcetReport) -> bool {
    a.cycles == b.cycles
        && a.us.to_bits() == b.us.to_bits()
        && a.breakdown == b.breakdown
        && a.worst_path == b.worst_path
        && a.trace == b.trace
        && a.ilp_vars == b.ilp_vars
        && a.ilp_constraints == b.ilp_constraints
}

/// What `repro bench` should measure: which worker counts to put on the
/// scaling curve, and how large a fleet to run.
#[derive(Clone, Debug)]
pub struct BenchOpts {
    /// Worker counts of the scaling curve (applied to both the repro-all
    /// sweep and the fleet). A leading 1-worker point is implied — it is
    /// the speedup baseline and the bit-identity reference.
    pub workers: Vec<usize>,
    /// Fleet size cap (deterministic striding; `usize::MAX` = full fleet).
    pub fleet_cap: usize,
}

impl Default for BenchOpts {
    fn default() -> BenchOpts {
        BenchOpts {
            workers: vec![1, 2, 4, 8],
            fleet_cap: usize::MAX,
        }
    }
}

/// One timed configuration of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepTiming {
    /// Worker count.
    pub workers: usize,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Speedup over the serial baseline.
    pub speedup: f64,
}

/// One worker count's fleet run.
#[derive(Clone, Copy, Debug)]
pub struct FleetTiming {
    /// Worker count.
    pub workers: usize,
    /// Wall-clock time of the whole fleet batch (fresh cache).
    pub wall: Duration,
    /// Speedup over this curve's own 1-worker point.
    pub speedup_vs_1w: f64,
    /// Pool contention counters accumulated during the run.
    pub pool: PoolStats,
}

/// The fleet-scale measurement: the scaling curve plus the evidence that
/// the parallel path stayed honest (contention counters, cache stats, and
/// bit-identity against the 1-worker reference and uncached spot-checks).
pub struct FleetResult {
    /// Jobs in the fleet (after any cap).
    pub jobs: usize,
    /// Distinct reports the cache built.
    pub distinct: u64,
    /// Logical CPUs of the measuring host — the context a scaling curve
    /// cannot be read without (no host parallelism, no wall-time speedup).
    pub host_cpus: usize,
    /// Per-worker-count timings, in the order requested.
    pub timings: Vec<FleetTiming>,
    /// Cache counters after the last (highest-worker) run.
    pub stats: rt_wcet::CacheStats,
    /// Every worker count's reports matched the 1-worker reference, and
    /// the sampled uncached spot-checks matched too.
    pub identical: bool,
}

/// Everything `repro bench` measured.
pub struct BenchResult {
    /// Number of jobs in the sweep (duplicates included).
    pub jobs: usize,
    /// Number of distinct reports the cache had to build.
    pub distinct: u64,
    /// Serial, uncached baseline.
    pub serial: Duration,
    /// Fresh-cache batch runs at 1/2/4 workers.
    pub parallel: Vec<SweepTiming>,
    /// Second pass over the 4-worker cache (everything memoized).
    pub warm: Duration,
    /// Cache counters after the 4-worker run.
    pub stats: rt_wcet::CacheStats,
    /// Total ILP pivots of the serial (cold-solve) path, summed over the
    /// *distinct* jobs — the apples-to-apples denominator for the cache's
    /// warm re-solve pivot counts.
    pub cold_pivots: u64,
    /// Whether every batch report matched its serial counterpart — ANDed
    /// with the fleet's identity verdict, so one flag covers both sweeps.
    pub identical: bool,
    /// The fleet-scale scaling measurement.
    pub fleet: FleetResult,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl BenchResult {
    /// Cold-path ILP pivots per distinct job (0 with no jobs).
    fn cold_pivots_per_solve(&self) -> f64 {
        if self.distinct == 0 {
            0.0
        } else {
            self.cold_pivots as f64 / self.distinct as f64
        }
    }

    /// The record's `repro bench` members, in order.
    pub fn to_json(&self) -> Json {
        let memo = |s: &MemoStats| {
            obj! {"lookups": s.lookups, "builds": s.builds,
            "hit_rate": Json::fixed(s.hit_rate(), 4)}
        };
        let cache = |c: &rt_wcet::CacheStats| {
            obj! {
                "reports": memo(&c.reports),
                "cfgs": memo(&c.cfgs),
                "cost_models": memo(&c.cost_models),
                "costs": memo(&c.costs),
                "block_costs": memo(&c.block_costs),
                "ilp_structure": memo(&c.ilp_structures),
            }
        };
        let r = &self.stats.resolve;
        let cold_per = self.cold_pivots_per_solve();
        let warm_vs_cold = if cold_per == 0.0 {
            0.0
        } else {
            r.warm_pivots_per_resolve() / cold_per
        };
        let batch = self.parallel.iter().map(|t| {
            obj! {"workers": t.workers, "wall_ms": Json::fixed(ms(t.wall), 2),
            "speedup": Json::fixed(t.speedup, 2)}
        });
        let f = &self.fleet;
        let scaling = f.timings.iter().map(|t| {
            obj! {"workers": t.workers, "wall_ms": Json::fixed(ms(t.wall), 2),
            "speedup_vs_1w": Json::fixed(t.speedup_vs_1w, 2), "steals": t.pool.steals,
            "failed_steals": t.pool.failed_steals, "spins": t.pool.spins}
        });
        obj! {
            "sweep_jobs": self.jobs,
            "distinct_reports": self.distinct,
            "serial_ms": Json::fixed(ms(self.serial), 2),
            "batch": Json::Arr(batch.collect()),
            "warm_ms": Json::fixed(ms(self.warm), 2),
            "cache": cache(&self.stats),
            "resolve": obj! {"resolves": r.resolves, "warm_pivots": r.warm_pivots,
            "warm_pivots_per_resolve": Json::fixed(r.warm_pivots_per_resolve(), 2),
            "seed_pivots": r.seed_pivots, "cold_pivots": self.cold_pivots,
            "cold_pivots_per_solve": Json::fixed(cold_per, 2),
            "warm_vs_cold": Json::fixed(warm_vs_cold, 4)},
            "fleet": obj! {
                "jobs": f.jobs,
                "distinct_reports": f.distinct,
                "host_cpus": f.host_cpus,
                "scaling": Json::Arr(scaling.collect()),
                "cache": cache(&f.stats),
                "identical": f.identical,
            },
            "bit_identical_to_serial": self.identical,
        }
    }

    /// The human-readable `repro bench` report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "Analysis-sweep timing: {} analyze jobs ({} distinct), serial vs analyze_batch\n",
            self.jobs, self.distinct
        ));
        s.push_str(&format!(
            "  serial (uncached):        {:>9.1} ms\n",
            ms(self.serial)
        ));
        for t in &self.parallel {
            s.push_str(&format!(
                "  batch, {} worker{}:         {:>9.1} ms   ({:.2}x)\n",
                t.workers,
                if t.workers == 1 { " " } else { "s" },
                ms(t.wall),
                t.speedup
            ));
        }
        s.push_str(&format!(
            "  warm cache, second pass:  {:>9.1} ms\n",
            ms(self.warm)
        ));
        let r = self.stats.reports;
        s.push_str(&format!(
            "  dedup: {} duplicate jobs absorbed at dispatch; report memo {}/{} lookups hit \
             ({:.0}% hit rate); CFGs built {}x for {} analyses\n",
            self.jobs as u64 - self.stats.reports.builds,
            r.lookups - r.builds,
            r.lookups,
            r.hit_rate() * 100.0,
            self.stats.cfgs.builds,
            self.stats.cfgs.lookups,
        ));
        let rv = &self.stats.resolve;
        let cold_per = self.cold_pivots_per_solve();
        s.push_str(&format!(
            "  incremental ILP: {} structures seeded ({} pivots), {} objective re-solves at \
             {:.1} pivots each vs {:.1} cold ({:.0}% saved); structure memo {:.0}% hit rate\n",
            self.stats.ilp_structures.builds,
            rv.seed_pivots,
            rv.resolves,
            rv.warm_pivots_per_resolve(),
            cold_per,
            if cold_per > 0.0 {
                (1.0 - rv.warm_pivots_per_resolve() / cold_per) * 100.0
            } else {
                0.0
            },
            self.stats.ilp_structures.hit_rate() * 100.0,
        ));
        let f = &self.fleet;
        s.push_str(&format!(
            "Fleet sweep: {} generated configs ({} distinct reports), {} host CPU{}\n",
            f.jobs,
            f.distinct,
            f.host_cpus,
            if f.host_cpus == 1 { "" } else { "s" }
        ));
        for t in &f.timings {
            s.push_str(&format!(
                "  fleet, {} worker{}: {:>9.1} ms   ({:.2}x vs 1w; {} steals, {} failed, {} spins)\n",
                t.workers,
                if t.workers == 1 { " " } else { "s" },
                ms(t.wall),
                t.speedup_vs_1w,
                t.pool.steals,
                t.pool.failed_steals,
                t.pool.spins
            ));
        }
        s.push_str(&format!(
            "  fleet cache: cfg {:.0}%, costs {:.0}%, block-costs {:.0}%, structure {:.0}% hit \
             rates\n",
            f.stats.cfgs.hit_rate() * 100.0,
            f.stats.costs.hit_rate() * 100.0,
            f.stats.block_costs.hit_rate() * 100.0,
            f.stats.ilp_structures.hit_rate() * 100.0,
        ));
        s.push_str(&format!(
            "  fleet reports identical across worker counts + uncached spot-checks: {}\n",
            if f.identical { "yes" } else { "NO (BUG)" }
        ));
        s.push_str(&format!(
            "  batch reports bit-identical to serial: {}\n",
            if self.identical { "yes" } else { "NO (BUG)" }
        ));
        s
    }
}

/// Repetitions per timed configuration; the minimum is reported, which
/// filters scheduler noise from competing load (every repetition does the
/// same deterministic work, so the minimum is the least-disturbed run).
const TIMING_REPS: usize = 2;

/// Runs one fleet batch at `workers` workers with a fresh cache and pool,
/// returning the reports, the wall time, the pool's contention counters
/// and the cache (for stats).
fn fleet_run(
    jobs: &[(EntryPoint, AnalysisConfig, BoundParams)],
    workers: usize,
) -> (Vec<WcetReport>, Duration, PoolStats, AnalysisCache) {
    let pool = Pool::new(workers);
    let cache = AnalysisCache::new();
    let t0 = Instant::now();
    let reports = analyze_batch_bounds_with(jobs, &pool, &cache);
    let wall = t0.elapsed();
    (reports, wall, pool.stats(), cache)
}

/// Runs the fleet-scale scaling measurement: the 1-worker run is the
/// speedup baseline *and* the bit-identity reference (its own honesty is
/// established by uncached spot-checks at a deterministic stride — a full
/// uncached pass over ~2,700 jobs would dwarf the measurement itself).
fn run_fleet(opts: &BenchOpts) -> FleetResult {
    let jobs = fleet_jobs(opts.fleet_cap);
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let (reference, base_wall, base_pool, base_cache) = fleet_run(&jobs, 1);
    let mut identical = true;
    let mut timings = Vec::new();
    let mut stats = base_cache.stats();
    let distinct = stats.reports.builds;
    for &workers in &opts.workers {
        let (wall, pool) = if workers == 1 {
            (base_wall, base_pool)
        } else {
            let (reports, wall, pool, cache) = fleet_run(&jobs, workers);
            identical &= reports.len() == reference.len()
                && reports
                    .iter()
                    .zip(reference.iter())
                    .all(|(a, b)| reports_identical(a, b));
            stats = cache.stats();
            (wall, pool)
        };
        timings.push(FleetTiming {
            workers,
            wall,
            speedup_vs_1w: base_wall.as_secs_f64() / wall.as_secs_f64(),
            pool,
        });
    }

    // Uncached spot-checks: every `stride`-th job re-analyzed from scratch
    // and compared against the reference — the ground truth anchoring the
    // whole curve to the serial analyzer.
    let stride = (jobs.len() / 16).max(1);
    for i in (0..jobs.len()).step_by(stride) {
        let (entry, cfg, bounds) = jobs[i];
        let plain = rt_wcet::analysis::analyze_with_bounds(entry, &cfg, &bounds);
        identical &= reports_identical(&plain, &reference[i]);
    }

    FleetResult {
        jobs: jobs.len(),
        distinct,
        host_cpus,
        timings,
        stats,
        identical,
    }
}

/// Runs the `repro bench` measurement (see the module docs) and returns
/// the result; the caller decides where the JSON goes.
pub fn run_bench_with(opts: &BenchOpts) -> BenchResult {
    let jobs = full_sweep_jobs();

    let mut serial_wall = Duration::MAX;
    let mut serial = Vec::new();
    for _ in 0..TIMING_REPS {
        let t0 = Instant::now();
        serial = jobs.iter().map(|(e, cfg)| analyze(*e, cfg)).collect();
        serial_wall = serial_wall.min(t0.elapsed());
    }

    let mut curve = opts.workers.clone();
    if !curve.contains(&1) {
        curve.insert(0, 1);
    }
    let mut identical = true;
    let mut parallel = Vec::new();
    let mut last_cache = None;
    for workers in curve {
        let pool = Pool::new(workers);
        let mut wall = Duration::MAX;
        for _ in 0..TIMING_REPS {
            let cache = AnalysisCache::new();
            let t0 = Instant::now();
            let reports = analyze_batch_with(&jobs, &pool, &cache);
            wall = wall.min(t0.elapsed());
            identical &= reports.len() == serial.len()
                && reports
                    .iter()
                    .zip(serial.iter())
                    .all(|(a, b)| reports_identical(a, b));
            last_cache = Some((cache, pool.clone()));
        }
        parallel.push(SweepTiming {
            workers,
            wall,
            speedup: serial_wall.as_secs_f64() / wall.as_secs_f64(),
        });
    }

    // Cold-path pivot denominator: each *distinct* job's serial solve,
    // counted once (duplicates are memo hits in the batch path and would
    // inflate the cold side).
    let mut seen = std::collections::HashSet::new();
    let mut cold_pivots = 0u64;
    for (job, rep) in jobs.iter().zip(serial.iter()) {
        if seen.insert(*job) {
            cold_pivots += rep.phases.ilp_stats.pivots();
        }
    }

    let (cache, pool) = last_cache.expect("batch runs happened");
    let t0 = Instant::now();
    let warm_reports = analyze_batch_with(&jobs, &pool, &cache);
    let warm = t0.elapsed();
    identical &= warm_reports
        .iter()
        .zip(serial.iter())
        .all(|(a, b)| reports_identical(a, b));
    let stats = cache.stats();

    let fleet = run_fleet(opts);
    identical &= fleet.identical;

    BenchResult {
        jobs: jobs.len(),
        distinct: stats.reports.builds,
        serial: serial_wall,
        parallel,
        warm,
        stats,
        cold_pivots,
        identical,
        fleet,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_jobs_mirror_repro_all() {
        let jobs = full_sweep_jobs();
        assert_eq!(jobs.len(), 40, "8 + 12 + 8 + 2 + 2 + 8 analyze calls");
        let cache = AnalysisCache::new();
        for (e, cfg) in &jobs {
            cache.analyze(*e, cfg);
        }
        let s = cache.stats();
        assert_eq!(s.reports.lookups, 40);
        assert!(
            s.reports.builds < 25,
            "the sweep must contain substantial duplication: {s:?}"
        );
    }

    #[test]
    fn fleet_covers_two_thousand_configs() {
        let jobs = fleet_jobs(usize::MAX);
        assert!(
            jobs.len() >= 2000,
            "fleet must reach ISSUE 6 scale: {}",
            jobs.len()
        );
        // Every axis must appear somewhere.
        assert!(jobs
            .iter()
            .any(|(_, c, _)| c.kernel.sched == SchedKind::Lazy));
        assert!(jobs
            .iter()
            .any(|(_, c, _)| c.kernel.sched == SchedKind::Benno));
        assert!(jobs.iter().any(|(_, c, _)| c.kernel.vm == VmKind::Asid));
        assert!(jobs.iter().any(|(_, c, _)| c.l2_kernel_locked));
        assert!(jobs.iter().any(|(_, c, _)| c.pinning));
        assert!(jobs.iter().any(|(_, c, _)| !c.manual_constraints));
        assert!(jobs.iter().any(|(_, _, b)| b.ipc_only));
        assert!(jobs
            .iter()
            .any(|(_, _, b)| b.before_clear_lines != BoundParams::open().before_clear_lines));
        // All four entry points.
        for e in EntryPoint::ALL {
            assert!(jobs.iter().any(|(entry, _, _)| *entry == e));
        }
    }

    #[test]
    fn fleet_cap_strides_deterministically() {
        let full = fleet_jobs(usize::MAX);
        let capped = fleet_jobs(100);
        assert!(capped.len() <= 100 && capped.len() > 50);
        let stride = full.len().div_ceil(100);
        assert!(capped
            .iter()
            .enumerate()
            .all(|(i, job)| *job == full[i * stride]));
        // Striding still samples the big axes.
        assert!(capped
            .iter()
            .any(|(_, c, _)| c.kernel.sched == SchedKind::Lazy));
        assert!(capped
            .iter()
            .any(|(_, c, _)| c.kernel.sched == SchedKind::BennoBitmap));
    }

    #[test]
    fn fleet_batch_equals_serial_on_a_sampled_fleet() {
        let jobs = fleet_jobs(24);
        let serial: Vec<_> = jobs
            .iter()
            .map(|(e, cfg, b)| rt_wcet::analysis::analyze_with_bounds(*e, cfg, b))
            .collect();
        let pool = Pool::new(3);
        let cache = AnalysisCache::new();
        let batch = analyze_batch_bounds_with(&jobs, &pool, &cache);
        assert_eq!(serial.len(), batch.len());
        for (a, b) in serial.iter().zip(batch.iter()) {
            assert!(reports_identical(a, b));
        }
    }

    #[test]
    fn batch_equals_serial_on_a_small_sweep() {
        let jobs: Vec<_> = full_sweep_jobs()
            .into_iter()
            .filter(|(e, _)| *e == EntryPoint::Interrupt)
            .collect();
        let serial: Vec<_> = jobs.iter().map(|(e, cfg)| analyze(*e, cfg)).collect();
        let ctx = SweepCtx::with_jobs(3);
        let batch = ctx.analyze_batch(&jobs);
        assert_eq!(serial.len(), batch.len());
        for (a, b) in serial.iter().zip(batch.iter()) {
            assert!(reports_identical(a, b));
        }
    }
}
