//! The per-shard simulation engine.
//!
//! [`run_shard`] boots one shard ([`crate::scenario::build_shard`]),
//! injects its open-loop interrupt schedules in one batch, and steps its
//! threads through the user-mode step of [`rt_kernel::system`]
//! ([`restart_current`], [`step_current`], [`fast_forward`]), the one
//! `System::run` and rt-explore step them through. The next action comes
//! from a thread's [`Behavior`], after any `Compute` remainder carried
//! from a split. What the loop adds is measurement: every kernel visit's
//! cycle count feeds the syscall histogram, drained
//! [`rt_kernel::kernel::IrqResponse`] entries feed the per-line
//! histograms, and each response is judged against its static bound as
//! it is recorded (the soundness oracle's per-sample half).
//!
//! The engine is deterministic: given the same [`LoadSpec`] and shard
//! index it performs the same steps, draws the same RNG stream and
//! records the same samples — which is what makes the worst observed
//! sample *replayable*. [`attribute_worst`] re-runs the worst sample's
//! shard with the machine's trace sink enabled around the sample's
//! window and folds the captured events into the PR-2 attribution
//! buckets (pipeline / ifetch-miss / dmiss / L2), verifying on the way
//! that the replayed latency is bit-identical to the recorded one.

use crate::hist::Hist;
use crate::rng::{shard_seed, Rng64};
use crate::scenario::{build_shard, Behavior, LoadSpec, ObjMap};
use rt_hw::irq::NUM_LINES;
use rt_hw::{AccessKind, Cycles, IrqLine, TraceEvent};
use rt_kernel::kernel::Kernel;
use rt_kernel::syscall::SyscallOutcome;
use rt_kernel::system::{
    fast_forward, restart_current, step_current, Action, Restart, Stepped, Visit,
};

/// One observed interrupt response, identified by its raise cycle (raise
/// times on a line are unique because arrival budgets exceed every
/// bound, so `(line, raised)` pins down one sample for replay).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorstSample {
    /// Shard the sample came from.
    pub shard: u32,
    /// Interrupt line.
    pub line: u8,
    /// Cycle the device raised the line.
    pub raised: Cycles,
    /// Cycle the kernel acknowledged it.
    pub ack: Cycles,
    /// `ack - raised`.
    pub latency: Cycles,
}

/// A sample the soundness oracle rejected: observed latency above the
/// line's static bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The offending sample.
    pub sample: WorstSample,
    /// The bound it exceeded.
    pub bound: Cycles,
}

/// Everything one shard observed.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Shard index.
    pub shard: u32,
    /// Per-line response-latency histograms, in `active_lines` order.
    pub lines: Vec<(u8, Hist)>,
    /// Kernel-visit (syscall + restart re-execution) latency histogram.
    pub syscalls: Hist,
    /// Events recorded (kernel visits + interrupt responses).
    pub events: u64,
    /// Kernel visits measured.
    pub syscall_visits: u64,
    /// Interrupt responses recorded.
    pub irq_responses: u64,
    /// Visits that hit a preemption point and unwound.
    pub preempted: u64,
    /// §6.1 fastpath successes.
    pub fastpath_hits: u64,
    /// §2.1 syscall restarts.
    pub restarts: u64,
    /// Threads the shard booted (excluding idle).
    pub threads: u32,
    /// Endpoints the shard booted.
    pub endpoints: u32,
    /// Simulated cycles the shard covered.
    pub end_cycle: Cycles,
    /// Highest-latency response observed (ties keep the earliest).
    pub worst: Option<WorstSample>,
    /// Oracle rejections, in observation order (capped at 16 per shard).
    pub violations: Vec<Violation>,
    /// Exact per-line counts of bound-exceeding samples, aligned with
    /// `lines` (uncapped, unlike the detailed `violations` list).
    pub violation_counts: Vec<u64>,
    /// Present only on [`attribute_worst`] replays.
    pub attribution: Option<WorstAttribution>,
}

/// Per-bucket cycle attribution of one replayed sample's window,
/// folded from the machine's trace events (`docs/TRACING.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorstAttribution {
    /// Cycles not explained by the memory system: issue/execute plus
    /// branch-unit cost (the remainder bucket).
    pub pipeline: Cycles,
    /// Instruction-fetch miss cycles in the window.
    pub ifetch_miss: Cycles,
    /// Data miss cycles in the window.
    pub dmiss: Cycles,
    /// L2-absorbed writeback cycles in the window.
    pub l2: Cycles,
    /// Latency the replay reproduced for the sample.
    pub replay_latency: Cycles,
    /// Replayed latency matches the recorded one bit-for-bit.
    pub replay_matches: bool,
    /// Trace events that fell inside the window.
    pub window_events: usize,
}

/// A replay probe: re-run a shard, tracing around one known sample.
#[derive(Clone, Copy, Debug)]
struct Probe {
    line: u8,
    raised: Cycles,
    expect_latency: Cycles,
    margin: Cycles,
}

/// Runs shard `shard` of `spec`. `bounds` is the per-line static bound
/// table from [`rt_wcet::AnalysisCache::irq_line_bounds`]; every
/// response is judged against it as it is recorded.
pub fn run_shard(spec: &LoadSpec, shard: u32, bounds: &[(u8, Cycles)]) -> ShardReport {
    run_shard_impl(spec, shard, bounds, None)
}

/// Replays `worst`'s shard with tracing enabled around the sample and
/// attributes its window per bucket. Returns the enriched shard report
/// (its `attribution` field is always `Some`).
pub fn attribute_worst(
    spec: &LoadSpec,
    worst: &WorstSample,
    bounds: &[(u8, Cycles)],
) -> ShardReport {
    let bound_max = bounds.iter().map(|&(_, b)| b).max().unwrap_or(0);
    let delay = spec.fault.map_or(0, |f| f.delay);
    let probe = Probe {
        line: worst.line,
        raised: worst.raised,
        expect_latency: worst.latency,
        // Trace must be live before the kernel visit containing the
        // raise begins: two max-length visits plus the injected delay
        // plus user-step slack is a safe envelope.
        margin: 2 * bound_max + 2 * delay + 1_000_000,
    };
    run_shard_impl(spec, worst.shard, bounds, Some(probe))
}

fn run_shard_impl(
    spec: &LoadSpec,
    shard: u32,
    bounds: &[(u8, Cycles)],
    probe: Option<Probe>,
) -> ShardReport {
    let mut rng = Rng64::new(shard_seed(spec.seed, shard));
    let mut sim = build_shard(spec);
    let quota = spec.shard_quota();
    let lines = spec.active_lines();
    // Per-line tables below are indexed by the line number.
    let mut bound_of = [None; NUM_LINES as usize];
    for &(l, b) in bounds {
        bound_of[l as usize] = Some(b);
    }
    let bound_max = bounds.iter().map(|&(_, b)| b).max().unwrap_or(0);
    // The storm budget: with inter-arrival gaps at or above the largest
    // bound, a line is never raised twice inside one service window, so
    // the rank-aware bound argument applies (DESIGN.md §11).
    let budget = bound_max.max(1);

    // Open-loop schedules: the timer plus every storm line, one batch.
    let storm_count = (quota / 4 / (spec.storm.len() as u64 + 1)).max(4) as usize;
    let mut batch: Vec<(Cycles, IrqLine)> = Vec::new();
    let timer = crate::arrival::Arrival::Periodic {
        period: spec.timer_period,
    };
    for (line, arrival) in std::iter::once((rt_kernel::kernel::TIMER_LINE, &timer))
        .chain(spec.storm.iter().map(|(l, a)| (*l, a)))
    {
        let phase = rng.gen_range(1, budget + 1);
        for t in arrival.schedule(&mut rng, phase, storm_count, budget) {
            batch.push((t, IrqLine(line)));
        }
    }
    sim.kernel.inject_irq_schedule(batch);

    // Closed-loop driver lines: re-armed only after the driver's ack.
    let mut drv_scheduled = [0u64; NUM_LINES as usize];
    let mut seen = [0u64; NUM_LINES as usize];

    let mut per_line: Vec<(u8, Hist)> = lines.iter().map(|&l| (l, Hist::new())).collect();
    let mut line_ix = [None; NUM_LINES as usize];
    for (i, &l) in lines.iter().enumerate() {
        line_ix[l as usize] = Some(i);
    }
    let mut syscalls = Hist::new();
    let mut events = 0u64;
    let mut syscall_visits = 0u64;
    let mut irq_responses = 0u64;
    let mut preempted = 0u64;
    let mut worst: Option<WorstSample> = None;
    let mut violations: Vec<Violation> = Vec::new();
    let mut violation_counts: Vec<u64> = vec![0; lines.len()];
    let mut drained = 0usize;
    let mut injected = false;
    let mut carry: ObjMap<Cycles> = ObjMap::default();
    let mut attribution: Option<WorstAttribution> = None;

    let mut steps = 0u64;
    let max_steps = quota.saturating_mul(400).max(1_000_000);

    'outer: loop {
        if events >= quota || steps > max_steps {
            break;
        }
        steps += 1;
        let k = &mut sim.kernel;

        // Replay probe: arm the trace before the sample's window.
        if let Some(p) = probe {
            if !k.machine.trace.is_enabled()
                && attribution.is_none()
                && k.machine.now() >= p.raised.saturating_sub(p.margin)
            {
                k.machine.trace.enable();
            }
        }

        // Seeded-bug injection: raise the target line, then stall for
        // `delay` cycles before re-entering the service path — the model
        // of a kernel section that misses its preemption point. The line
        // must be an unmasked (timer or storm) line so the raise is
        // serviceable immediately after the stall.
        if let Some(f) = spec.fault {
            if f.shard == shard && !injected && seen[f.line as usize] >= f.after {
                injected = true;
                let il = IrqLine(f.line);
                let now = k.machine.now();
                k.machine.irq.raise(il, now);
                k.machine.advance(f.delay.max(1));
            }
        }

        // Re-arm driver lines whose previous occurrence was acked.
        for &l in &spec.driver_lines {
            let sched = drv_scheduled[l as usize];
            let il = IrqLine(l);
            if seen[l as usize] == sched
                && !k.machine.irq.is_masked(il)
                && !k.machine.irq.is_pending(il)
            {
                let gap = rng.gen_range(budget, 2 * budget);
                let at = k.machine.now() + gap;
                k.machine.irq.schedule(at, il);
                drv_scheduled[l as usize] = sched + 1;
            }
        }

        // Pending interrupt while "in userspace": take the IRQ entry.
        if k.machine.irq.has_pending() {
            k.handle_interrupt();
        } else if k.is_idle() {
            if !fast_forward(k, Cycles::MAX) {
                break; // quiescent
            }
        } else if let Some(v) = step_thread(k, &mut sim.behaviors, &mut carry, &mut rng) {
            // Every kernel visit is measured, a §2.1 re-execution as a
            // fresh one.
            syscalls.record(v.cycles);
            syscall_visits += 1;
            events += 1;
            if v.outcome == SyscallOutcome::Preempted {
                preempted += 1;
            }
        }

        // SMP (DESIGN.md §14): give each remote core a slice — service
        // its pending IPIs, then step its pinned thrasher once, unmeasured
        // — and return to core 0. Remote kernel entries take the big lock
        // and pollute the shared L2, which is exactly the cross-core
        // interference the widened per-line bounds must absorb. A
        // single-core run has no remote core, so it takes no slice and
        // draws no extra randomness.
        for c in 1..sim.kernel.n_cores() {
            let k = &mut sim.kernel;
            k.machine.switch_core(c);
            while k.machine.irq.has_pending() {
                k.handle_interrupt();
            }
            if !k.is_idle() {
                step_thread(k, &mut sim.behaviors, &mut carry, &mut rng);
            }
            k.machine.switch_core(0);
        }

        // Drain newly logged responses: histogram, oracle, worst-sample
        // tracking, and (on replays) the probe's window fold.
        while drained < sim.kernel.irq_log.len() {
            let r = sim.kernel.irq_log[drained];
            drained += 1;
            let latency = r.kernel_ack.saturating_sub(r.raised);
            let line = r.line.0;
            if let Some(ix) = line_ix[line as usize] {
                per_line[ix].1.record(latency);
            }
            seen[line as usize] += 1;
            irq_responses += 1;
            events += 1;
            let sample = WorstSample {
                shard,
                line,
                raised: r.raised,
                ack: r.kernel_ack,
                latency,
            };
            if worst.is_none_or(|w| latency > w.latency) {
                worst = Some(sample);
            }
            if let Some(b) = bound_of[line as usize] {
                if latency > b {
                    if let Some(ix) = line_ix[line as usize] {
                        violation_counts[ix] += 1;
                    }
                    if violations.len() < 16 {
                        violations.push(Violation { sample, bound: b });
                    }
                }
            }
            if let Some(p) = probe {
                if line == p.line && r.raised == p.raised {
                    attribution = Some(fold_window(
                        &mut sim.kernel,
                        r.raised,
                        r.kernel_ack,
                        latency,
                        p.expect_latency,
                    ));
                    break 'outer;
                }
            }
        }
    }

    ShardReport {
        shard,
        lines: per_line,
        syscalls,
        events,
        syscall_visits,
        irq_responses,
        preempted,
        fastpath_hits: sim.kernel.stats.fastpath_hits,
        restarts: sim.kernel.stats.restarts,
        threads: sim.threads,
        endpoints: sim.endpoints,
        end_cycle: sim.kernel.machine.now(),
        worst,
        violations,
        violation_counts,
        attribution,
    }
}

/// Steps the current thread of the current core through the shared
/// user-mode step: its §2.1 restart, else the `Compute` remainder
/// carried from a split, else its behaviour's next action. Returns the
/// kernel visit the step made, if any.
fn step_thread(
    k: &mut Kernel,
    behaviors: &mut ObjMap<Behavior>,
    carry: &mut ObjMap<Cycles>,
    rng: &mut Rng64,
) -> Option<Visit> {
    if let Restart::Reexecuted(v) = restart_current(k) {
        return Some(v);
    }
    let cur = k.current();
    let next = carry
        .remove(cur)
        .map(Action::Compute)
        .or_else(|| behaviors.get_mut(cur).map(|b| b.next(rng)));
    match step_current(k, next) {
        Stepped::Syscall(v) => Some(v),
        Stepped::Split(rest) => {
            carry.insert(cur, rest);
            None
        }
        Stepped::Done => None,
    }
}

/// Folds the trace events of `[raised, ack)` into the four attribution
/// buckets. The pipeline bucket is the remainder — by the PR-2 partition
/// (`total == now()`), whatever the memory system does not explain is
/// issue/execute plus branch cost.
fn fold_window(
    k: &mut Kernel,
    raised: Cycles,
    ack: Cycles,
    replay_latency: Cycles,
    expect_latency: Cycles,
) -> WorstAttribution {
    let events = k.machine.trace.take();
    k.machine.trace.disable();
    let mut ifetch_miss = 0;
    let mut dmiss = 0;
    let mut l2 = 0;
    let mut window_events = 0usize;
    for e in &events {
        if let TraceEvent::Access {
            at, kind, report, ..
        } = e
        {
            if *at >= raised && *at < ack {
                window_events += 1;
                match kind {
                    AccessKind::IFetch => ifetch_miss += report.miss_cycles,
                    AccessKind::Read | AccessKind::Write => dmiss += report.miss_cycles,
                }
                l2 += report.l2_absorbed_cycles;
            }
        }
    }
    let explained = ifetch_miss + dmiss + l2;
    WorstAttribution {
        pipeline: replay_latency.saturating_sub(explained),
        ifetch_miss,
        dmiss,
        l2,
        replay_latency,
        replay_matches: replay_latency == expect_latency,
        window_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::FaultInjection;

    fn tiny_spec() -> LoadSpec {
        let mut spec = LoadSpec::standard(11, 400, 12, 2);
        spec.timer_period = 300_000;
        spec
    }

    fn tiny_bounds(spec: &LoadSpec) -> Vec<(u8, Cycles)> {
        // Stand-in bounds sized like the real after-kernel ones; unit
        // tests must not pay for a WCET analysis.
        spec.active_lines()
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, 180_000 + 15_000 * (i as Cycles + 1)))
            .collect()
    }

    #[test]
    fn shard_runs_and_records() {
        let spec = tiny_spec();
        let bounds = tiny_bounds(&spec);
        let r = run_shard(&spec, 0, &bounds);
        assert!(r.events >= spec.shard_quota(), "only {} events", r.events);
        assert!(r.syscall_visits > 0 && r.irq_responses > 0);
        assert!(r.worst.is_some());
        // The timer line fired and was measured.
        let timer = &r.lines[0];
        assert_eq!(timer.0, 0);
        assert!(timer.1.count() > 0, "timer line never measured");
    }

    #[test]
    fn same_shard_is_bit_identical() {
        let spec = tiny_spec();
        let bounds = tiny_bounds(&spec);
        let a = run_shard(&spec, 1, &bounds);
        let b = run_shard(&spec, 1, &bounds);
        assert_eq!(a.events, b.events);
        assert_eq!(a.end_cycle, b.end_cycle);
        assert_eq!(a.worst, b.worst);
        assert_eq!(a.lines, b.lines);
        assert_eq!(a.syscalls, b.syscalls);
    }

    #[test]
    fn shards_differ_from_each_other() {
        let spec = tiny_spec();
        let bounds = tiny_bounds(&spec);
        let a = run_shard(&spec, 0, &bounds);
        let b = run_shard(&spec, 1, &bounds);
        // Different seeds ⇒ different interleavings ⇒ (almost surely)
        // different end cycles.
        assert_ne!(a.end_cycle, b.end_cycle);
    }

    #[test]
    fn injected_delay_trips_the_oracle_and_replays() {
        let mut spec = tiny_spec();
        spec.events = 2_000; // enough simulated span for a timer response
        let bounds = tiny_bounds(&spec);
        let bound_max = bounds.iter().map(|&(_, b)| b).max().unwrap();
        spec.fault = Some(FaultInjection {
            shard: 1,
            line: 0,
            after: 1,
            delay: bound_max + 50_000,
        });
        let clean = run_shard(&spec, 0, &bounds);
        assert!(clean.violations.is_empty(), "fault leaked into shard 0");
        let r = run_shard(&spec, 1, &bounds);
        assert!(!r.violations.is_empty(), "oracle missed the injected delay");
        let v = r.violations[0];
        assert_eq!(v.sample.line, 0);
        assert!(v.sample.latency > v.bound);
        // The worst sample is replayable with a trace attribution.
        let worst = r.worst.unwrap();
        let replay = attribute_worst(&spec, &worst, &bounds);
        let attr = replay.attribution.expect("probe must find the sample");
        assert!(attr.replay_matches, "replay latency diverged");
        assert_eq!(attr.replay_latency, worst.latency);
        assert_eq!(
            attr.pipeline + attr.ifetch_miss + attr.dmiss + attr.l2,
            attr.replay_latency
        );
    }
}
