//! The exploration engine: partial-order-reduced frontier search,
//! replay and counterexample minimization.
//!
//! A *run* executes a scenario instance from boot under a scripted choice
//! trace (see [`crate::choice`]). The engine's event loop runs like
//! `rt_kernel::system::System::run` — service pending interrupts, then
//! step the current thread through the same user-mode step — except
//! that *which* enabled event happens next (a thread step, or one of the
//! legal interrupt arrivals) is a decision point, as is every
//! preemption-point poll inside the kernel
//! (via the installed [`DecisionSource`]). After every event the oracles
//! run: the kernel-wide invariant suite, the incremental-consistency
//! checks of [`crate::oracle`], and the latency oracle (every logged
//! interrupt response must be within its WCET-derived bound — per-line
//! rank-aware bounds when configured, the scalar §6 bound otherwise).
//!
//! Exhaustive mode branches a new trace for every untried alternative at
//! every decision point past the scripted prefix. Two execution paths
//! realise a branch, with identical results by construction:
//!
//! * **Snapshot fork** (the default, [`crate::snap`]): the branch carries
//!   an `Arc` fork of a mid-run `SnapPoint` its parent captured at an
//!   event boundary, restores it, and replays only the choice gap between
//!   the capture and its divergence decision — O(1) in depth when a
//!   snapshot exists at every boundary (`snapshot_every = 1`).
//! * **Rebuild + replay** (`snapshot_every = 0`, and always the path for
//!   [`replay`]/[`minimize`]): rebuild the kernel from the scenario and
//!   re-execute the full prefix from boot — O(depth) per branch, but a
//!   compact `Vec<Choice>` is all it needs.
//!
//! Three mechanisms keep the search polynomial in practice where the raw
//! interleaving count is exponential:
//!
//! * **Duplicate-state pruning** against the visited set of canonical
//!   time-free hashes ([`crate::state`]) across waves, and
//!   against the expansions of earlier runs of the same wave (below);
//! * **Partial-order reduction** ([`crate::por`]): sleep sets skip
//!   branches provably covered by a commuted sibling;
//! * **Frontier waves over the worker pool**: the frontier drains in
//!   deterministic fixed-size waves; within a wave, runs execute in
//!   parallel over [`rt_pool::Pool`] (work-stealing hands branches
//!   between idle workers) against a *read-only* view of the visited
//!   set, and the wave's results merge back in frontier order. Wave
//!   composition, merge order, prune decisions and counterexample choice
//!   (lowest lexicographic trace of the first failing wave) are all
//!   independent of the worker count, so reports are byte-identical at
//!   any `--workers` value — the same determinism contract the analysis
//!   sweep makes.
//!
//! Because the visited set only grows between waves, most runs of a wave
//! reach some state that an earlier run of the same wave also reaches.
//! The merge therefore cuts each run, in frontier order, at the first
//! state that an earlier run of the wave expanded at no greater depth. It
//! records the run as though a worker had pruned it there, with the
//! counters saved at that boundary, and drops everything past it. The
//! depth guard keeps the state set exact: an earlier expansion at a
//! greater depth has less depth left than the run it would cut. When the
//! earlier expansions' sleep signatures intersect to a set that is not a
//! subset of the run's own, Godefroid's revisit rule applies (state
//! caching with sleep sets, LNCS 1032): the run is still cut, but it
//! branches the alternatives asleep in the stored signature and awake in
//! the run.
//!
//! Workers stop most of these runs before they execute the duplicate
//! suffix at all, through the wave's claim table (`state::Claims`, the
//! one table they write during a wave). A run stops at a state that a
//! lower-indexed run of the wave has already claimed at no greater depth
//! with a sleep set no larger, where the merge cuts it anyway. Claims
//! depend on timing and cuts do not. A stopped run that the merge cannot
//! cut at or before its stop runs again in full on the coordinating
//! thread ([`ExploreReport::reexecutions`]), so reports stay
//! byte-identical at any worker count.
//!
//! [`DecisionSource`]: rt_kernel::decision::DecisionSource

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use rt_hw::{Cycles, IrqLine};
use rt_kernel::invariants::{self, Violation};
use rt_kernel::kernel::{EntryPoint, Kernel, KernelConfig};
use rt_kernel::system::{restart_current, step_current, Action, Restart, Stepped};
use rt_pool::Pool;
use rt_wcet::{smp_latency_margin, AnalysisCache, AnalysisConfig, SmpParams};

use crate::choice::{Choice, Decision, RunCtl, ScriptedSource, Site};
use crate::oracle;
use crate::por::{
    desc_raise, desc_run, filter_sleep, independent, raise_footprint, run_footprint, sig_intersect,
    sig_subset, sleep_sig, Footprint, PorMode, SleepEntry,
};
use crate::scenario::{Instance, Scenario};
use crate::snap::{SnapAccount, SnapPoint, SnapStats};
use crate::state::{canonical_hash, Claims, SleepSig, Visited};

/// Exploration parameters.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Maximum top-level events per run (depth bound).
    pub max_depth: usize,
    /// Prune runs that reach an already-expanded canonical state.
    pub prune: bool,
    /// Latency oracle bound in cycles ([`Cycles::MAX`] disables it).
    /// Fallback for lines without an entry in `line_bounds`.
    pub latency_bound: Cycles,
    /// Per-line rank-aware bounds (`AnalysisCache::irq_line_bounds`);
    /// empty means every line uses the scalar `latency_bound`.
    pub line_bounds: Vec<(IrqLine, Cycles)>,
    /// Partial-order reduction mode (see [`crate::por`]).
    pub por: PorMode,
    /// Test-only mutation applied after preempting events (see
    /// [`SeededBug`]).
    pub seeded_bug: Option<SeededBug>,
    /// Safety cap on the number of runs.
    pub max_runs: usize,
    /// Stop (checked between waves) once this many states were checked.
    pub budget_states: Option<usize>,
    /// Capture a resume snapshot every N top-level events (`1` = every
    /// boundary, so branches fork in O(1); larger N trades resident
    /// memory — and capture time — for up to N-1 replayed events per
    /// fork). `0` disables snapshotting entirely — every branch rebuilds
    /// from boot and replays its prefix, the pre-fork engine. Reports are
    /// byte-identical for every value (see [`crate::snap`]). Most runs
    /// are cut at their first new state, so few live long enough for the
    /// cadence to matter: on the depth-36 widened search at one worker,
    /// the wall falls from cadence 1 to 3 and then stays within 5% up to
    /// cadence 8. 4 stays the default.
    pub snapshot_every: usize,
    /// Resident-snapshot cap, enforced at wave boundaries: while the live
    /// census is at or over this, the next wave runs with capture paused
    /// and its children inherit their parents' snapshots instead
    /// (replay gaps lengthen; peak memory stays bounded). Deterministic
    /// for any worker count — the census is sampled only between waves.
    pub snapshot_budget: usize,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig {
            max_depth: 8,
            prune: true,
            latency_bound: Cycles::MAX,
            line_bounds: Vec::new(),
            por: PorMode::Off,
            seeded_bug: None,
            max_runs: 500_000,
            budget_states: None,
            snapshot_every: 4,
            snapshot_budget: 32_768,
        }
    }
}

/// A deliberately planted consistency bug, applied *after* any event that
/// preempted a kernel operation. Schedules that never preempt mid-flight
/// never trigger it — finding the bug requires finding the interleaving,
/// which is what makes these useful for validating the explorer itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeededBug {
    /// Advance a live badged-abort cursor past one queue element without
    /// examining it — lost §3.4 scan progress, caught by the
    /// `abort-scan-progress` oracle when the skipped sender matches.
    AbortSkip,
    /// Dequeue one runnable queued thread without suspending it — breaks
    /// the Benno "runnable iff queued or current" discipline, caught by
    /// the scheduler invariants.
    DropRunnable,
    /// Drop reschedule IPIs instead of raising them (set at boot on the
    /// kernel, not applied per event) — the classic SMP lost-wakeup bug:
    /// a cross-core wake enqueues remotely but never kicks the target,
    /// which idles with work queued. Caught by the `smp-idle-core-kicked`
    /// invariant, but only along interleavings that actually take a
    /// cross-core wake. Meaningless on single-core instances.
    LostIpi,
}

/// Per-decision alternatives recorded for branch generation: event
/// identities and footprints per option, plus the sleep set at the
/// decision (POR modes only; `None` at preemption polls and when POR is
/// off).
#[derive(Clone, Debug, Default)]
pub(crate) struct EventInfo {
    descs: Vec<u32>,
    fps: Vec<Footprint>,
    sleep: Vec<SleepEntry>,
}

/// A run's counters as they stood at one hashed boundary: what its record
/// would hold had it been pruned there. The wave's merge cuts runs back
/// to one of these.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Mark {
    /// Decisions taken before the boundary (its event decision's index).
    taken: usize,
    /// Top-level events executed (`RunRecord::events`).
    depth: usize,
    states: usize,
    polls: u32,
    injected: u32,
    preemptions: u64,
    responses: usize,
    max_latency: Cycles,
}

/// Everything observed during a single run.
#[derive(Clone, Debug, Default)]
pub struct RunRecord {
    /// Full choice trace taken (prefix + extension).
    pub taken: Vec<Choice>,
    /// Option counts per decision, aligned with `taken`.
    pub decisions: Vec<Decision>,
    /// Top-level events executed.
    pub events: usize,
    /// Oracle-checked states.
    pub states: usize,
    /// Stopped at an already-expanded state.
    pub pruned: bool,
    /// Hit the depth bound while still active.
    pub truncated: bool,
    /// Preemption-poll decision points encountered.
    pub preempt_decisions: u32,
    /// Preemption-point polls observed (decision points or not).
    pub polls: u32,
    /// Interrupt arrivals injected.
    pub injected: u32,
    /// Preemptions the kernel actually took.
    pub preemptions: u64,
    /// Interrupt responses logged.
    pub responses: usize,
    /// Worst observed response latency (0 when none).
    pub max_latency: Cycles,
    /// Canonical state hashes newly expanded by this run, each with the
    /// sleep-set signature in force at the expansion.
    pub hashes: Vec<(u64, Vec<u32>)>,
    /// The counters at each boundary of `hashes`, aligned with it.
    pub(crate) marks: Vec<Mark>,
    /// Stopped at the last boundary of `hashes`, which a lower-indexed
    /// run of the wave had claimed (see `Claims`).
    pub(crate) stopped: bool,
    /// Set when the wave's merge cut this run where the stored sleep
    /// signature (held here) was not a subset of the run's own: the
    /// alternatives asleep there but awake in this run still branch.
    pub(crate) revisit: Option<SleepSig>,
    /// Oracle violations (run stops at the first failing state).
    pub violations: Vec<Violation>,
    /// Per-decision branch alternatives (POR bookkeeping).
    pub(crate) evinfo: Vec<Option<EventInfo>>,
    /// Resume points captured during this run, chronological (so strictly
    /// ascending in consumed-choice count): `(taken_len, point)`. Child
    /// branches adopt the latest point at or before their divergence.
    pub(crate) snaps: Vec<(usize, Arc<SnapPoint>)>,
}

/// A failing schedule: the full trace that produced it, the minimized
/// replayable trace, and what the oracles reported.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Trace of the originally failing run.
    pub trace: Vec<Choice>,
    /// Lexicographically minimized trace (replays to a failure).
    pub minimized: Vec<Choice>,
    /// Violations at the failing state.
    pub violations: Vec<Violation>,
}

/// Aggregate result of exploring one scenario.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Scenario name.
    pub scenario: String,
    /// Distinct interleavings executed.
    pub interleavings: usize,
    /// Runs cut short at a duplicate state: pruned against earlier waves
    /// by a worker, or cut by the merge where an earlier run of the same
    /// wave had expanded the state at no greater depth.
    pub pruned: usize,
    /// Runs that hit the depth bound.
    pub truncated: usize,
    /// Oracle-checked states (with duplicates across runs).
    pub states: usize,
    /// Distinct canonical states expanded.
    pub distinct_states: usize,
    /// Branches skipped by sleep-set reduction.
    pub sleep_skips: u64,
    /// Frontier waves processed.
    pub waves: usize,
    /// Largest single wave (runs).
    pub peak_frontier: usize,
    /// Most preemption-poll decision points seen in one run.
    pub preempt_sites: u32,
    /// Total preemption-point polls across runs.
    pub polls: u64,
    /// Total injected arrivals.
    pub injected: u64,
    /// Total kernel preemptions.
    pub preemptions: u64,
    /// Total interrupt responses checked by the latency oracle.
    pub responses: u64,
    /// Worst observed response latency across all paths.
    pub max_latency: Cycles,
    /// The bound the latency oracle enforced (scalar fallback).
    pub latency_bound: Cycles,
    /// First failing schedule found, if any.
    pub counterexample: Option<Counterexample>,
    /// The run cap or state budget stopped the search before the
    /// frontier emptied.
    pub capped: bool,
    /// Snapshot-fork engine counters (all zero when `snapshot_every` is
    /// 0). Not part of [`render_line`] — forked and rebuilt searches
    /// render byte-identically.
    pub snap: SnapStats,
    /// Runs that stopped early at a claimed state which the merge did
    /// not cut at or before the stop, so they ran again in full on the
    /// coordinating thread. Expected to stay 0; not rendered.
    pub reexecutions: usize,
}

impl ExploreReport {
    fn new(name: &str, bound: Cycles) -> ExploreReport {
        ExploreReport {
            scenario: name.to_string(),
            interleavings: 0,
            pruned: 0,
            truncated: 0,
            states: 0,
            distinct_states: 0,
            sleep_skips: 0,
            waves: 0,
            peak_frontier: 0,
            preempt_sites: 0,
            polls: 0,
            injected: 0,
            preemptions: 0,
            responses: 0,
            max_latency: 0,
            latency_bound: bound,
            counterexample: None,
            capped: false,
            snap: SnapStats::default(),
            reexecutions: 0,
        }
    }

    /// Fraction of generated branches the reduction discharged without
    /// executing: `skipped / (executed + skipped)`.
    pub fn reduction_ratio(&self) -> f64 {
        let skipped = self.sleep_skips as f64;
        let total = self.interleavings as f64 + skipped;
        if total == 0.0 {
            0.0
        } else {
            skipped / total
        }
    }
}

/// The WCET configuration every exploration bound derives from: the
/// after-kernel with L2 off (the §6 configuration `repro latency-bound`
/// prints).
fn bound_analysis_config() -> AnalysisConfig {
    AnalysisConfig {
        kernel: KernelConfig::after(),
        l2: false,
        pinning: false,
        l2_kernel_locked: false,
        manual_constraints: true,
    }
}

/// The paper's interrupt-response bound — WCET(system call) +
/// WCET(interrupt) for the after-kernel with L2 off — computed through
/// the shared [`AnalysisCache`] so repeated callers pay for it once.
pub fn wcet_latency_bound(cache: &AnalysisCache) -> Cycles {
    let cfg = bound_analysis_config();
    let sys = cache.analyze(EntryPoint::Syscall, &cfg);
    let irq = cache.analyze(EntryPoint::Interrupt, &cfg);
    sys.cycles + irq.cycles
}

/// Rank-aware per-line latency bounds for a scenario's injectable lines,
/// via [`AnalysisCache::irq_line_bounds`] — each per-state bound check in
/// the engine then costs a table lookup, and the bound computation itself
/// costs ~4 warm simplex pivots per entry point (the structure memo and
/// `PresolvedModel::resolve_with_objective` do the heavy lifting once).
pub fn scenario_line_bounds(cache: &AnalysisCache, lines: &[IrqLine]) -> Vec<(IrqLine, Cycles)> {
    let raw: Vec<u8> = lines.iter().map(|l| l.0).collect();
    cache
        .irq_line_bounds(&bound_analysis_config(), &raw)
        .into_iter()
        .map(|(l, c)| (IrqLine(l), c))
        .collect()
}

/// A top-level event enabled at an event boundary, in enumeration order:
/// step each core's current thread first (core order), then arrivals in
/// budget order. Single-core instances only ever enumerate `Run(0)`, so
/// their decision structure is bit-identical to the pre-SMP engine.
#[derive(Clone, Copy, Debug)]
enum Event {
    Run(u8),
    Raise(usize),
}

fn apply_seeded_bug(k: &mut Kernel, bug: SeededBug) {
    match bug {
        // Installed once at boot (`SmpCounters::drop_resched_ipis`),
        // nothing to do per event.
        SeededBug::LostIpi => {}
        SeededBug::AbortSkip => {
            let target = k.objs.iter().find_map(|(id, o)| match &o.kind {
                rt_kernel::obj::ObjKind::Endpoint(e) => {
                    e.abort.as_ref().and_then(|a| a.cursor).map(|c| (id, c))
                }
                _ => None,
            });
            if let Some((ep, cursor)) = target {
                let next = k.objs.tcb(cursor).ep_next;
                k.objs
                    .ep_mut(ep)
                    .abort
                    .as_mut()
                    .expect("abort state")
                    .cursor = next;
            }
        }
        SeededBug::DropRunnable => {
            let victim = k.objs.iter().find_map(|(id, o)| match &o.kind {
                rt_kernel::obj::ObjKind::Tcb(t)
                    if t.in_runqueue && t.state.is_runnable() && id != k.current() =>
                {
                    Some(id)
                }
                _ => None,
            });
            if let Some(t) = victim {
                k.dequeue_on(k.cur_core(), t);
            }
        }
    }
}

/// Steps the current thread once through the user-mode step of
/// [`rt_kernel::system`], the one `System::run` and rt-load use; the next
/// action comes from the thread's script cursor. One choice is the
/// explorer's own: a §2.1 restart cleared without a syscall ends the
/// event there, where `System::run` and rt-load go on to the next
/// action. Every sender an ep-delete scenario dequeues reaches that case
/// when it next runs (a blocked `Send` keeps no syscall), so the
/// thread's next action is its own event.
fn run_current(
    k: &mut Kernel,
    scripts: &[(rt_kernel::obj::ObjId, Vec<Action>)],
    cursors: &mut [usize],
) {
    if restart_current(k) != Restart::NotPending {
        return;
    }
    let cur = k.current();
    let next = scripts
        .iter()
        .position(|(id, _)| *id == cur)
        .and_then(|si| {
            let action = scripts[si].1.get(cursors[si]).cloned()?;
            cursors[si] += 1;
            Some(action)
        });
    // Arrivals are events here, never programmed, so no `Compute`
    // reaches a programmed interrupt to split at.
    let split = matches!(step_current(k, next), Stepped::Split(_));
    assert!(!split, "explorer kernels program no interrupts");
}

/// One unexplored branch: the choice prefix to replay, the sleep set in
/// force after the branch-point event (empty when POR is off), and —
/// when the fork engine is on — the resume point closest below the
/// divergence. `snap: None` means rebuild from boot and replay the whole
/// prefix; a present snapshot replays only `prefix[snap.taken_len..]`.
#[derive(Clone, Debug, Default)]
struct Branch {
    prefix: Vec<Choice>,
    sleep0: Vec<SleepEntry>,
    snap: Option<Arc<SnapPoint>>,
}

/// Wave-scoped capture policy handed to runs: cadence, whether the
/// resident budget currently allows captures at all, and the census that
/// new points register with.
struct SnapCtx<'a> {
    every: usize,
    capture: bool,
    account: &'a Arc<SnapAccount>,
}

/// Runs every oracle against the current state and folds the results into
/// `rec`: kernel invariants, incremental consistency, and the latency
/// bound over `irq_log` entries past `*checked` (the cursor lives outside
/// `rec` because snapshots must carry it — the loop-top interrupt drain
/// can log responses before the next boundary check).
/// When `verify` is false the invariant and consistency oracles are
/// skipped (the counters and latency tally still accumulate). Only
/// snapshot-resumed runs pass false, and only while retracing the
/// parent's own path below the divergence choice: branches are created
/// exclusively from violation-free runs, and exclusively at extension
/// decisions — so every gap state was already oracle-checked, in some
/// ancestor's extension, by induction down the branch chain. Re-checking
/// it is pure replay overhead the fork engine exists to avoid.
fn check_state(
    kernel: &Kernel,
    rec: &mut RunRecord,
    checked: &mut usize,
    cfg: &ExploreConfig,
    verify: bool,
) -> Vec<Violation> {
    let mut v = if verify {
        let mut v = invariants::check_all(kernel);
        v.extend(oracle::check_consistency(kernel));
        v
    } else {
        Vec::new()
    };
    while *checked < kernel.irq_log.len() {
        let r = &kernel.irq_log[*checked];
        *checked += 1;
        let latency = r.kernel_ack.saturating_sub(r.raised);
        rec.responses += 1;
        rec.max_latency = rec.max_latency.max(latency);
        let bound = cfg
            .line_bounds
            .iter()
            .find(|&&(l, _)| l == r.line)
            .map(|&(_, b)| b)
            .unwrap_or(cfg.latency_bound);
        if latency > bound {
            v.push(Violation {
                invariant: "latency-bound",
                detail: format!(
                    "line {:?}: observed {} cycles > bound {} (raised {}, acked {})",
                    r.line, latency, bound, r.raised, r.kernel_ack
                ),
            });
        }
    }
    rec.states += 1;
    v
}

/// Executes one run. `claims` holds the wave's claim table and this
/// run's index in frontier order: the run stops early at a state a
/// lower-indexed run of the wave has claimed.
fn execute_inner(
    sc: &Scenario,
    branch: &Branch,
    cfg: &ExploreConfig,
    visited: Option<&Visited>,
    snapctx: Option<&SnapCtx<'_>>,
    claims: Option<(&Claims, usize)>,
) -> RunRecord {
    let mut rec = RunRecord::default();
    let mut checked_responses = 0usize;
    let track_por = cfg.por.on();
    // Boot the scenario, or restore the branch's resume point and
    // pre-seed every counter with what the replayed prefix would have
    // re-accumulated — the two paths are indistinguishable downstream.
    let (mut kernel, scripts, mut cursors, ctl) = match &branch.snap {
        None => {
            let Instance {
                mut kernel,
                scripts,
                irqs,
            } = (sc.build)();
            // The lost-IPI bug is a boot-time installation (every later
            // cross-core wake drops its kick); snapshots carry the flag,
            // so resumed branches need no re-application.
            if cfg.seeded_bug == Some(SeededBug::LostIpi) {
                kernel.smp.drop_resched_ipis = true;
            }
            let cursors = vec![0usize; scripts.len()];
            let ctl = RunCtl::new(branch.prefix.clone(), irqs);
            (kernel, Arc::new(scripts), cursors, ctl)
        }
        Some(sp) => {
            // Restore into the worker's scratch kernel when one is
            // parked: `restore_into` overwrites every field, so this is
            // bit-identical to `restore()` but reuses the scratch's heap
            // buffers instead of re-allocating them for every branch.
            let kernel = SCRATCH.with(|s| s.borrow_mut().take()).map_or_else(
                || sp.kernel.restore(),
                |mut k| {
                    sp.kernel.restore_into(&mut k);
                    k
                },
            );
            let ctl = RunCtl::resumed(
                branch.prefix.clone(),
                sp.taken_len,
                sp.log.clone(),
                sp.budgets.clone(),
                sp.injected,
                sp.polls,
            );
            rec.states = sp.states;
            rec.events = sp.events;
            rec.responses = sp.responses;
            rec.max_latency = sp.max_latency;
            checked_responses = sp.checked_responses;
            (kernel, sp.scripts.clone(), sp.cursors.clone(), ctl)
        }
    };
    let resumed_at = branch.snap.as_ref().map(|sp| sp.events);
    let ctl = Rc::new(RefCell::new(ctl));
    let routes: Vec<u8> = ctl
        .borrow()
        .budgets
        .iter()
        .map(|&(l, _)| kernel.machine.irq_route(l))
        .collect();
    kernel.set_decision_source(Box::new(ScriptedSource {
        ctl: ctl.clone(),
        routes,
    }));
    let mut sleep: Vec<SleepEntry> = branch.sleep0.clone();

    // The boot state is checked (and counted) once per path — snapshot
    // resumption already carries it in `rec.states`.
    let initial = if resumed_at.is_some() {
        Vec::new()
    } else {
        check_state(&kernel, &mut rec, &mut checked_responses, cfg, true)
    };
    if !initial.is_empty() {
        rec.violations = initial;
    } else {
        while rec.events < cfg.max_depth {
            // "In userspace" with a line pending: the entry happens now,
            // deterministically — same as the simulator's run loop. Every
            // core drains in core order (IPIs raised by one core's
            // service are picked up in the same sweep when they target a
            // later core, or at the next boundary).
            for c in 0..kernel.n_cores() {
                if kernel.machine.core_irq(c).has_pending() {
                    kernel.machine.switch_core(c);
                    while kernel.machine.irq.has_pending() {
                        kernel.handle_interrupt();
                    }
                }
            }
            let mut events: Vec<Event> = Vec::new();
            for c in 0..kernel.n_cores() {
                if kernel.core(c).cur != kernel.idle_thread() {
                    events.push(Event::Run(c));
                }
            }
            {
                let g = ctl.borrow();
                for (i, &(line, left)) in g.budgets.iter().enumerate() {
                    // Mask/pending state lives on the controller of the
                    // core the line is routed to.
                    let cirq = kernel.machine.core_irq(kernel.machine.irq_route(line));
                    if left > 0 && !cirq.is_masked(line) && !cirq.is_pending(line) {
                        events.push(Event::Raise(i));
                    }
                }
            }
            if events.is_empty() {
                break; // quiescent
            }
            let in_extension = ctl.borrow().in_extension();
            // POR: identity and footprint per enabled event (extension
            // only — prefix decisions were branched by the parent).
            let info = if track_por && in_extension {
                let budgets = ctl.borrow().budgets.clone();
                let mut descs = Vec::with_capacity(events.len());
                let mut fps = Vec::with_capacity(events.len());
                for e in &events {
                    match *e {
                        Event::Run(c) => {
                            descs.push(desc_run(c, kernel.core(c).cur));
                            fps.push(run_footprint(&kernel, c, &scripts[..], &cursors));
                        }
                        Event::Raise(i) => {
                            descs.push(desc_raise(budgets[i].0));
                            fps.push(raise_footprint(&kernel, budgets[i].0));
                        }
                    }
                }
                Some(EventInfo {
                    descs,
                    fps,
                    sleep: sleep.clone(),
                })
            } else {
                None
            };
            if cfg.prune && in_extension {
                let budgets = ctl.borrow().budgets.clone();
                let sig = sleep_sig(&sleep);
                let h = canonical_hash(&kernel, &cursors, &budgets);
                let seen_shared = visited.is_some_and(|v| v.would_prune(h, &sig));
                let seen_local = rec
                    .hashes
                    .iter()
                    .any(|(ph, ps)| *ph == h && sig_subset(ps, &sig));
                if seen_shared || seen_local {
                    rec.pruned = true;
                    break;
                }
                let g = ctl.borrow();
                rec.marks.push(Mark {
                    taken: g.taken.len(),
                    depth: rec.events,
                    states: rec.states,
                    polls: g.polls,
                    injected: g.injected,
                    preemptions: kernel.stats.preemptions,
                    responses: rec.responses,
                    max_latency: rec.max_latency,
                });
                drop(g);
                let stop = claims.is_some_and(|(c, i)| c.yield_or_claim(h, i, rec.events, &sig));
                rec.hashes.push((h, sig));
                if stop {
                    rec.stopped = true;
                    break;
                }
            }
            // Capture a resume point at this boundary: the kernel is
            // quiescent (pending lines drained, no operation on the
            // stack), so the decision source detaches cleanly. The resume
            // boundary itself is skipped — the parent's point already
            // covers it.
            if let Some(sx) = snapctx {
                if sx.capture
                    && rec.events % sx.every == 0
                    && Some(rec.events) != resumed_at
                    && (rec.events > 0 || resumed_at.is_none())
                {
                    let src = kernel
                        .clear_decision_source()
                        .expect("scripted source installed");
                    let point = {
                        let g = ctl.borrow();
                        SnapPoint {
                            kernel: kernel.snapshot(),
                            scripts: scripts.clone(),
                            cursors: cursors.clone(),
                            budgets: g.budgets.clone(),
                            log: g.log.clone(),
                            taken_len: g.taken.len(),
                            polls: g.polls,
                            injected: g.injected,
                            states: rec.states,
                            events: rec.events,
                            responses: rec.responses,
                            max_latency: rec.max_latency,
                            checked_responses,
                            account: sx.account.clone(),
                        }
                    };
                    kernel.set_decision_source(src);
                    rec.snaps.push((point.taken_len, point.register()));
                }
            }
            let pick = {
                let mut g = ctl.borrow_mut();
                if info.is_some() {
                    // Align evinfo with this decision's index in `taken`.
                    while rec.evinfo.len() < g.taken.len() {
                        rec.evinfo.push(None);
                    }
                    rec.evinfo.push(info);
                }
                g.choose(Site::Event, events.len() as Choice)
            };
            let preemptions_before = kernel.stats.preemptions;
            match events[pick as usize] {
                Event::Run(c) => {
                    kernel.machine.switch_core(c);
                    run_current(&mut kernel, &scripts[..], &mut cursors);
                }
                Event::Raise(i) => {
                    let line = {
                        let mut g = ctl.borrow_mut();
                        g.budgets[i].1 -= 1;
                        g.injected += 1;
                        g.budgets[i].0
                    };
                    // The distributor delivers the line to its routed
                    // core: switch there (a no-op when it is resident)
                    // and stamp the arrival with that core's own clock.
                    let core = kernel.machine.irq_route(line);
                    kernel.machine.switch_core(core);
                    kernel.machine.raise_on(core, line);
                    kernel.handle_interrupt();
                }
            }
            if track_por && in_extension {
                // Evict sleepers dependent on what just ran. The executed
                // footprint comes from the recorded info when available
                // (extension picks are always option 0).
                if let Some(Some(info)) = rec.evinfo.last() {
                    let fp = info.fps[pick as usize].clone();
                    filter_sleep(&mut sleep, &fp);
                }
            }
            rec.events += 1;
            if let Some(bug) = cfg.seeded_bug {
                if kernel.stats.preemptions > preemptions_before {
                    apply_seeded_bug(&mut kernel, bug);
                }
            }
            // States strictly below the divergence choice of a resumed
            // run are ancestor-verified (see `check_state`); everything
            // else — and every state of a rebuild run, which `replay` and
            // `minimize` rely on to re-find violations — gets the full
            // oracle pass.
            let verify = resumed_at.is_none() || ctl.borrow().taken.len() >= branch.prefix.len();
            let v = check_state(&kernel, &mut rec, &mut checked_responses, cfg, verify);
            if !v.is_empty() {
                rec.violations = v;
                break;
            }
        }
    }

    let g = ctl.borrow();
    rec.taken = g.taken.clone();
    rec.decisions = g.log.clone();
    rec.polls = g.polls;
    rec.injected = g.injected;
    rec.preempt_decisions = g.log.iter().filter(|d| d.site == Site::PreemptPoll).count() as u32;
    rec.preemptions = kernel.stats.preemptions;
    rec.truncated = rec.events == cfg.max_depth && rec.violations.is_empty() && !rec.pruned;
    drop(g);
    // Park the kernel (decision source dropped — it holds an `Rc` into
    // this run's controller) so the next run on this thread can restore
    // into its buffers instead of allocating a fresh kernel.
    kernel.clear_decision_source();
    SCRATCH.with(|s| *s.borrow_mut() = Some(kernel));
    rec
}

thread_local! {
    /// Per-worker parked kernel for [`KernelSnapshot::restore_into`]:
    /// every run deposits its kernel here on the way out, and every
    /// snapshot-resumed run withdraws it, so branch forks recycle one
    /// long-lived set of heap buffers per thread instead of paying a
    /// full allocate-and-free cycle each.
    static SCRATCH: RefCell<Option<Kernel>> = const { RefCell::new(None) };
}

/// Executes one run of `sc` under `prefix` (+ default extension),
/// checking every oracle at every event boundary. No duplicate-state
/// pruning (the exploration driver handles that); the direct entry point
/// for tests and one-off runs.
pub fn execute(sc: &Scenario, prefix: &[Choice], cfg: &ExploreConfig) -> RunRecord {
    let branch = Branch {
        prefix: prefix.to_vec(),
        sleep0: Vec::new(),
        snap: None,
    };
    execute_inner(sc, &branch, cfg, None, None, None)
}

/// Replays `trace` against `sc` (no pruning) and returns the full record
/// — the repro entry point for counterexamples.
///
/// Always the rebuild path: a compact `Vec<Choice>` plus the scenario is
/// a complete, self-contained reproduction — replaying (and minimizing)
/// a trace must never require a snapshot from the search that found it.
pub fn replay(sc: &Scenario, trace: &[Choice], cfg: &ExploreConfig) -> RunRecord {
    let mut c = cfg.clone();
    c.prune = false;
    execute(sc, trace, &c)
}

/// Minimizes a failing trace by lexicographic descent: repeatedly try to
/// lower the first lowerable choice (re-running with the shortened prefix
/// and default continuation) and keep any variant that still fails. The
/// big-endian lexicographic value strictly decreases on every accepted
/// step, so this terminates; trailing default choices are then dropped.
pub fn minimize(sc: &Scenario, trace: &[Choice], cfg: &ExploreConfig) -> Vec<Choice> {
    let fails = |t: &[Choice]| -> Option<Vec<Choice>> {
        let r = replay(sc, t, cfg);
        (!r.violations.is_empty()).then_some(r.taken)
    };
    let mut best = trace.to_vec();
    loop {
        let mut improved = false;
        'scan: for i in 0..best.len() {
            if best[i] == 0 {
                continue;
            }
            for smaller in 0..best[i] {
                let mut cand = best[..i].to_vec();
                cand.push(smaller);
                if let Some(full) = fails(&cand) {
                    best = full;
                    improved = true;
                    break 'scan;
                }
            }
        }
        if !improved {
            break;
        }
    }
    while best.last() == Some(&0) {
        best.pop();
    }
    best
}

/// Folds one run's counters into the report (branching handled
/// separately).
fn tally(rep: &mut ExploreReport, r: &RunRecord) {
    rep.interleavings += 1;
    rep.states += r.states;
    rep.pruned += r.pruned as usize;
    rep.truncated += r.truncated as usize;
    rep.preempt_sites = rep.preempt_sites.max(r.preempt_decisions);
    rep.polls += r.polls as u64;
    rep.injected += r.injected as u64;
    rep.preemptions += r.preemptions;
    rep.responses += r.responses as u64;
    rep.max_latency = rep.max_latency.max(r.max_latency);
}

/// Generates the child branches of one completed run: every untried
/// alternative at every extension decision, minus the sleeping
/// alternatives the reduction discharges, plus the alternatives
/// Godefroid's revisit rule re-expands
/// at a cut (see `RunRecord::revisit`). Each child adopts the latest
/// resume point at or before its divergence decision — falling back to
/// the parent's own point (an `Arc` fork, so inherited chains cost no
/// extra memory, only a longer replay gap) when this run captured none,
/// and to rebuild-from-boot when there is neither.
fn branch(
    rep: &mut ExploreReport,
    frontier: &mut VecDeque<Branch>,
    parent: &Branch,
    r: &RunRecord,
) {
    let snap_at = |i: usize| {
        r.snaps
            .iter()
            .rev()
            .find(|&&(tl, _)| tl <= i)
            .map(|(_, sp)| sp)
            .or(parent.snap.as_ref())
    };
    let prefix_len = parent.prefix.len();
    for i in prefix_len..r.taken.len() {
        let info = r.evinfo.get(i).and_then(|o| o.as_ref());
        let snap_i = snap_at(i);
        // Non-sleeping siblings already branched at this site (option
        // `taken[i]` was executed by this very run).
        let mut explored: Vec<usize> = vec![r.taken[i] as usize];
        for alt in (r.taken[i] + 1)..r.decisions[i].options {
            let mut prefix = r.taken[..i].to_vec();
            prefix.push(alt);
            let sleep0 = match info {
                None => Vec::new(),
                Some(info) => {
                    let a = alt as usize;
                    if info.sleep.iter().any(|e| e.desc == info.descs[a]) {
                        rep.sleep_skips += 1;
                        continue;
                    }
                    let fp_alt = &info.fps[a];
                    let mut s0: Vec<SleepEntry> = info
                        .sleep
                        .iter()
                        .filter(|e| independent(&e.fp, fp_alt))
                        .cloned()
                        .collect();
                    for &sib in &explored {
                        if independent(&info.fps[sib], fp_alt) {
                            s0.push(SleepEntry {
                                desc: info.descs[sib],
                                fp: info.fps[sib].clone(),
                            });
                        }
                    }
                    explored.push(a);
                    s0
                }
            };
            frontier.push_back(Branch {
                prefix,
                sleep0,
                snap: snap_i.cloned(),
            });
        }
    }
    // The revisit rule: the stored expansion left the alternatives asleep
    // in `stored` unexplored, so those this run has awake branch here,
    // each with (current ∩ stored) plus its earlier such siblings asleep.
    // Option 0 is never one of them: the stored expansion executed it.
    let i = r.taken.len();
    let info = r.evinfo.get(i).and_then(|o| o.as_ref());
    if let (Some(stored), Some(info)) = (&r.revisit, info) {
        let mut asleep: Vec<SleepEntry> = info
            .sleep
            .iter()
            .filter(|e| stored.contains(&e.desc))
            .cloned()
            .collect();
        for (alt, (&desc, fp)) in info.descs.iter().zip(&info.fps).enumerate().skip(1) {
            if !stored.contains(&desc) || info.sleep.iter().any(|e| e.desc == desc) {
                continue;
            }
            let sleep0 = asleep
                .iter()
                .filter(|e| independent(&e.fp, fp))
                .cloned()
                .collect();
            asleep.push(SleepEntry {
                desc,
                fp: fp.clone(),
            });
            let mut prefix = r.taken.clone();
            prefix.push(alt as Choice);
            frontier.push_back(Branch {
                prefix,
                sleep0,
                snap: snap_at(i).cloned(),
            });
        }
    }
}

/// Where the wave's merge cuts a run: the index in its `hashes` of the
/// first boundary that earlier runs of the wave expanded at no greater
/// depth, and the intersection of their signatures there when it is not
/// a subset of the run's own (the revisit case).
struct Cut {
    at: usize,
    revisit: Option<SleepSig>,
}

/// Expansions merged so far in the current wave: per canonical hash, the
/// depth and sleep signature of each.
type WaveExpanded = HashMap<u64, Vec<(usize, SleepSig)>>;

/// Finds `r`'s cut against the expansions earlier runs of its wave
/// merged. Only expansions at a depth no greater than the run's count: a
/// deeper one has less depth left, so cutting against it would lose the
/// states the run's extra depth reaches.
fn find_cut(expanded: &WaveExpanded, r: &RunRecord) -> Option<Cut> {
    r.hashes
        .iter()
        .zip(&r.marks)
        .enumerate()
        .find_map(|(at, ((h, sig), m))| {
            let stored = expanded
                .get(h)?
                .iter()
                .filter(|(depth, _)| *depth <= m.depth)
                .map(|(_, s)| s.clone())
                .reduce(|a, b| sig_intersect(&a, &b))?;
            let revisit = (!sig_subset(&stored, sig)).then_some(stored);
            Some(Cut { at, revisit })
        })
}

/// Rewinds `r` to the record a worker would have returned had it pruned
/// the run at `cut`: counters from the boundary's mark, and only the
/// decisions, snapshots and expansions before it (the cut boundary's own
/// expansion too, under the revisit rule, which branches from it).
/// Whatever the run found past the cut — violations included — lies on
/// the default path an earlier run of the wave takes from the same
/// canonical state.
fn cut_run(r: &mut RunRecord, cut: Cut) {
    let m = r.marks[cut.at];
    let keep = cut.at + cut.revisit.is_some() as usize;
    r.hashes.truncate(keep);
    r.marks.truncate(keep);
    r.taken.truncate(m.taken);
    r.decisions.truncate(m.taken);
    r.evinfo.truncate(m.taken + 1);
    r.snaps.retain(|&(tl, _)| tl < m.taken);
    r.events = m.depth;
    r.states = m.states;
    r.polls = m.polls;
    r.injected = m.injected;
    r.preemptions = m.preemptions;
    r.responses = m.responses;
    r.max_latency = m.max_latency;
    r.preempt_decisions = r
        .decisions
        .iter()
        .filter(|d| d.site == Site::PreemptPoll)
        .count() as u32;
    r.pruned = true;
    r.truncated = false;
    r.stopped = false;
    r.violations.clear();
    r.revisit = cut.revisit;
}

/// Runs per wave: bounds the memory spike of a wide frontier and the
/// overshoot past `budget_states`/`max_runs` (both are enforced at wave
/// boundaries). Fixed — never derived from the worker count.
const MAX_WAVE: usize = 4096;
/// Branches per work-stealing chunk within a wave.
const WAVE_CHUNK: usize = 8;

/// Exhaustive bounded search over `sc`'s interleavings: deterministic
/// frontier waves fanned over `pool`, with duplicate-state pruning and
/// (per `cfg.por`) partial-order reduction. Reports are byte-identical
/// for any pool size; the search stops at the wave containing the first
/// counterexample and reports the lexicographically smallest failing
/// trace of that wave (then minimizes it).
pub fn explore(sc: &Scenario, cfg: &ExploreConfig, pool: &Pool) -> ExploreReport {
    explore_with_states(sc, cfg, pool).0
}

/// As [`explore`], additionally returning the sorted set of distinct
/// canonical state hashes expanded — the quantity the reduced-vs-
/// unreduced differential suite compares (sleep-set reduction must
/// preserve it exactly).
pub fn explore_with_states(
    sc: &Scenario,
    cfg: &ExploreConfig,
    pool: &Pool,
) -> (ExploreReport, Vec<u64>) {
    let mut rep = ExploreReport::new(&sc.name, cfg.latency_bound);
    let mut visited = Visited::default();
    let mut claims = Claims::new();
    let account = Arc::new(SnapAccount::default());
    let mut frontier: VecDeque<Branch> = VecDeque::from([Branch::default()]);

    while !frontier.is_empty() {
        if rep.interleavings >= cfg.max_runs || cfg.budget_states.is_some_and(|b| rep.states >= b) {
            rep.capped = true;
            break;
        }
        let take = frontier
            .len()
            .min(MAX_WAVE)
            .min(cfg.max_runs - rep.interleavings);
        let wave: Vec<Branch> = frontier.drain(..take).collect();
        rep.waves += 1;
        rep.peak_frontier = rep.peak_frontier.max(wave.len());

        // Capture policy for this wave: pause while the resident census
        // is over budget (children then inherit parent points — replay
        // gaps lengthen, memory does not). Sampled only here, between
        // waves, where the frontier is a deterministic function of the
        // search — so the policy, like everything else, is independent of
        // the worker count.
        let snapping = cfg.snapshot_every > 0;
        let capture = snapping && account.live() < cfg.snapshot_budget;
        if snapping && !capture {
            rep.snap.capture_paused_waves += 1;
        }
        let sctx = SnapCtx {
            every: cfg.snapshot_every,
            capture,
            account: &account,
        };

        // Execute the wave: chunks fan out over the pool (work stealing
        // hands whole chunks between idle workers); results come back in
        // frontier order regardless of who ran what. Workers only read
        // the visited set during the wave, and claim states in the claim
        // table as they reach them. Branches are *moved* through the pool
        // and returned beside their records — a wave can hold thousands
        // of branches whose sleep sets carry footprint vectors, and
        // deep-cloning them per wave was a measurable slice of the merge
        // loop.
        let mut iter = wave.into_iter();
        let mut chunks: Vec<(usize, Vec<Branch>)> = Vec::new();
        loop {
            let c: Vec<Branch> = iter.by_ref().take(WAVE_CHUNK).collect();
            if c.is_empty() {
                break;
            }
            chunks.push((chunks.len() * WAVE_CHUNK, c));
        }
        let mut pairs: Vec<(Branch, RunRecord)> = pool
            .parallel_map(chunks, |(start, chunk)| {
                chunk
                    .into_iter()
                    .enumerate()
                    .map(|(k, b)| {
                        let r = execute_inner(
                            sc,
                            &b,
                            cfg,
                            Some(&visited),
                            snapping.then_some(&sctx),
                            Some((&claims, start + k)),
                        );
                        (b, r)
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        claims.clear();

        // Deterministic cuts, in frontier order: each run is cut at the
        // first state an earlier run of this wave expanded at no greater
        // depth. A run the claim table stopped early is cut at or before
        // its stop, so its record holds everything read here; should
        // that ever fail, it runs again in full, without claims, against
        // the visited set as it stood before the wave (whose merges wait
        // until every cut is decided).
        let mut expanded = WaveExpanded::new();
        for (b, r) in &mut pairs {
            let mut cut = find_cut(&expanded, r);
            // A stop records no branch alternatives at its boundary, and
            // a revisit cut there would need them.
            let covered = cut
                .as_ref()
                .is_some_and(|c| c.at + 1 < r.hashes.len() || c.revisit.is_none());
            if r.stopped && !covered {
                *r = execute_inner(sc, b, cfg, Some(&visited), snapping.then_some(&sctx), None);
                rep.reexecutions += 1;
                cut = find_cut(&expanded, r);
            }
            if let Some(c) = cut {
                cut_run(r, c);
            }
            for ((h, sig), m) in r.hashes.iter().zip(&r.marks) {
                expanded.entry(*h).or_default().push((m.depth, sig.clone()));
            }
        }

        // Deterministic merge, in frontier order: visited-set updates,
        // counters, and child branches.
        let mut failing: Option<&RunRecord> = None;
        for (b, r) in &pairs {
            tally(&mut rep, r);
            rep.snap.captured += r.snaps.len() as u64;
            if let Some(sp) = &b.snap {
                rep.snap.forks += 1;
                rep.snap.replays_avoided += sp.events as u64;
            }
            for (h, sig) in &r.hashes {
                visited.merge(*h, sig);
            }
            if r.violations.is_empty() {
                branch(&mut rep, &mut frontier, b, r);
            } else if failing.is_none_or(|f| r.taken < f.taken) {
                failing = Some(r);
            }
        }
        let found_cex = if let Some(r) = failing {
            rep.counterexample = Some(Counterexample {
                trace: r.taken.clone(),
                minimized: Vec::new(),
                violations: r.violations.clone(),
            });
            true
        } else {
            false
        };
        // Census the surviving points (frontier-held only, once the
        // executed wave and its records are gone) for the peak statistic.
        drop(pairs);
        rep.snap.peak_resident = rep.snap.peak_resident.max(account.live());
        if found_cex {
            break;
        }
    }

    rep.distinct_states = visited.len();
    if let Some(cex) = rep.counterexample.as_mut() {
        let trace = cex.trace.clone();
        let minimized = minimize(sc, &trace, cfg);
        rep.counterexample
            .as_mut()
            .expect("counterexample present")
            .minimized = minimized;
    }
    (rep, visited.hashes())
}

/// Renders one scenario report as the `key=value` summary line the CI
/// smoke gate parses (plus counterexample traces, when any). Every field
/// is deterministic — wall-clock never appears — so the rendered bytes
/// are identical for any worker count.
pub fn render_line(rep: &ExploreReport) -> String {
    let mut s = format!(
        "  {:<16} interleavings={} pruned={} truncated={} states={} distinct={} \
         sleep-skips={} waves={} \
         preempt-pts={} polls={} injected={} preemptions={} responses={} \
         max-latency={}/{}",
        rep.scenario,
        rep.interleavings,
        rep.pruned,
        rep.truncated,
        rep.states,
        rep.distinct_states,
        rep.sleep_skips,
        rep.waves,
        rep.preempt_sites,
        rep.polls,
        rep.injected,
        rep.preemptions,
        rep.responses,
        rep.max_latency,
        rep.latency_bound,
    );
    s.push_str(&format!(
        " counterexamples={}{}\n",
        rep.counterexample.is_some() as u32,
        if rep.capped { " (capped)" } else { "" }
    ));
    if let Some(cex) = &rep.counterexample {
        s.push_str(&format!(
            "    counterexample: trace={:?} minimized={:?}\n",
            cex.trace, cex.minimized
        ));
        for v in &cex.violations {
            s.push_str(&format!("    violated {}: {}\n", v.invariant, v.detail));
        }
    }
    s
}

/// Per-scenario latency-bound memo, keyed by a scenario's (sorted,
/// deduplicated) injectable line set plus its core count (multi-core
/// instances carry the [`smp_latency_margin`] on every bound). Scenarios
/// sharing a key share one rank-aware bound table; the underlying WCETs
/// are memoized again inside [`AnalysisCache`], so a memo miss costs
/// warm resolves only.
#[derive(Default)]
pub struct BoundMemo {
    bounds: std::collections::HashMap<BoundKey, Vec<(IrqLine, Cycles)>>,
}

/// [`BoundMemo`] key: (sorted line set, core count).
type BoundKey = (Vec<u8>, SmpParams);

/// Explores one scenario with the standard report configuration:
/// WCET-derived per-line bounds (memoized by line set across calls) and
/// the given depth/POR/state budget/snapshot cadence (`snapshot_every` as
/// in [`ExploreConfig`]; 0 selects the rebuild-replay engine).
#[allow(clippy::too_many_arguments)]
pub fn explore_scenario(
    sc: &Scenario,
    depth: usize,
    por: PorMode,
    budget_states: Option<usize>,
    snapshot_every: usize,
    pool: &Pool,
    cache: &AnalysisCache,
    memo: &mut BoundMemo,
) -> ExploreReport {
    let inst = (sc.build)();
    let mut lines: Vec<u8> = inst.irqs.iter().map(|&(l, _)| l.0).collect();
    lines.sort_unstable();
    lines.dedup();
    // SMP instances widen every bound by the cross-core margin (big-lock
    // wait at the servicing entry plus IPI services draining ahead);
    // single-core instances get a zero margin and the pre-SMP bounds to
    // the cycle.
    let smp = SmpParams::new(inst.kernel.n_cores());
    let margin = if smp.cores > 1 {
        smp_latency_margin(
            cache
                .analyze(EntryPoint::Interrupt, &bound_analysis_config())
                .cycles,
            &smp,
        )
    } else {
        0
    };
    let line_bounds = memo
        .bounds
        .entry((lines.clone(), smp))
        .or_insert_with(|| {
            scenario_line_bounds(
                cache,
                &lines.iter().map(|&l| IrqLine(l)).collect::<Vec<_>>(),
            )
            .into_iter()
            .map(|(l, b)| (l, b + margin))
            .collect()
        })
        .clone();
    let cfg = ExploreConfig {
        max_depth: depth,
        latency_bound: wcet_latency_bound(cache) + margin,
        line_bounds,
        por,
        budget_states,
        snapshot_every,
        max_runs: usize::MAX,
        ..ExploreConfig::default()
    };
    explore(sc, &cfg, pool)
}
