//! Merging shard reports and rendering the run report.
//!
//! Shard reports are merged **in shard-index order**, never in completion
//! order: [`rt_pool::Pool::parallel_map`] is order-preserving, histogram
//! merge is associative/commutative ([`crate::hist`]), and the worst
//! sample and violation lists tie-break on shard index — so the rendered
//! report is byte-identical at any worker count (`DESIGN.md` §11). The
//! rendered text contains no wall-clock times, hostnames or worker
//! counts; anything host-dependent goes to stderr or the JSON side
//! channel instead.

use crate::engine::{ShardReport, Violation, WorstAttribution, WorstSample};
use crate::hist::Hist;
use crate::scenario::LoadSpec;
use rt_hw::Cycles;

/// Cap on violation details carried into the merged report (counts are
/// exact regardless).
const MAX_VIOLATION_DETAILS: usize = 32;

/// The merged result of one load run.
#[derive(Clone, Debug)]
pub struct LoadResult {
    /// Master seed the run used.
    pub seed: u64,
    /// Events the spec asked for.
    pub events_requested: u64,
    /// Shards the run was split into.
    pub shards: u32,
    /// Tenants per shard.
    pub tenants: u32,
    /// Per-line static bounds the oracle judged against.
    pub bounds: Vec<(u8, Cycles)>,
    /// Merged per-line response-latency histograms.
    pub lines: Vec<(u8, Hist)>,
    /// Exact per-line violation counts, aligned with `lines`.
    pub line_violations: Vec<u64>,
    /// Merged kernel-visit histogram.
    pub syscalls: Hist,
    /// Static WCET of the syscall entry (soft reference for the visit
    /// table; a visit may legitimately exceed it because the exit loop
    /// services pending interrupts inside the same visit).
    pub syscall_wcet: Cycles,
    /// Total events recorded.
    pub events: u64,
    /// Total kernel visits.
    pub syscall_visits: u64,
    /// Total interrupt responses.
    pub irq_responses: u64,
    /// Total preempted visits.
    pub preempted: u64,
    /// Total fastpath successes.
    pub fastpath_hits: u64,
    /// Total syscall restarts.
    pub restarts: u64,
    /// Threads booted across all shards.
    pub threads: u64,
    /// Endpoints booted across all shards.
    pub endpoints: u64,
    /// Worst sample across shards (highest latency; earliest shard wins
    /// ties so the choice is schedule-independent).
    pub worst: Option<WorstSample>,
    /// Total bound violations (exact).
    pub violations_total: u64,
    /// First violation details (capped at `MAX_VIOLATION_DETAILS`).
    pub violations: Vec<Violation>,
    /// Attribution of the worst sample's replay, when one was run.
    pub attribution: Option<WorstAttribution>,
}

impl LoadResult {
    /// Merges shard reports (given in shard-index order) into one
    /// result. Panics if a shard's line set disagrees with the spec —
    /// merging histograms of different lines would be meaningless.
    pub fn merge(
        spec: &LoadSpec,
        bounds: &[(u8, Cycles)],
        syscall_wcet: Cycles,
        shards: &[ShardReport],
    ) -> LoadResult {
        let line_set = spec.active_lines();
        let mut lines: Vec<(u8, Hist)> = line_set.iter().map(|&l| (l, Hist::new())).collect();
        let mut line_violations = vec![0u64; line_set.len()];
        let mut syscalls = Hist::new();
        let mut out = LoadResult {
            seed: spec.seed,
            events_requested: spec.events,
            shards: spec.shards,
            tenants: spec.tenants,
            bounds: bounds.to_vec(),
            lines: Vec::new(),
            line_violations: Vec::new(),
            syscalls: Hist::new(),
            syscall_wcet,
            events: 0,
            syscall_visits: 0,
            irq_responses: 0,
            preempted: 0,
            fastpath_hits: 0,
            restarts: 0,
            threads: 0,
            endpoints: 0,
            worst: None,
            violations_total: 0,
            violations: Vec::new(),
            attribution: None,
        };
        for s in shards {
            assert_eq!(
                s.lines.len(),
                lines.len(),
                "shard {} line set diverges from the spec",
                s.shard
            );
            for (i, (l, h)) in s.lines.iter().enumerate() {
                assert_eq!(*l, lines[i].0, "shard {} line order diverges", s.shard);
                lines[i].1.merge(h);
                line_violations[i] += s.violation_counts[i];
            }
            syscalls.merge(&s.syscalls);
            out.events += s.events;
            out.syscall_visits += s.syscall_visits;
            out.irq_responses += s.irq_responses;
            out.preempted += s.preempted;
            out.fastpath_hits += s.fastpath_hits;
            out.restarts += s.restarts;
            out.threads += u64::from(s.threads);
            out.endpoints += u64::from(s.endpoints);
            // Strictly-greater keeps the earliest shard on ties: the
            // result depends only on the shard order, which is fixed.
            if let Some(w) = s.worst {
                if out.worst.is_none_or(|cur| w.latency > cur.latency) {
                    out.worst = Some(w);
                }
            }
            out.violations_total += s.violation_counts.iter().sum::<u64>();
            for v in &s.violations {
                if out.violations.len() < MAX_VIOLATION_DETAILS {
                    out.violations.push(*v);
                }
            }
        }
        out.lines = lines;
        out.line_violations = line_violations;
        out.syscalls = syscalls;
        out
    }

    /// `true` when no sample anywhere exceeded its line's static bound —
    /// the run-level soundness oracle.
    pub fn sound(&self) -> bool {
        self.violations_total == 0
    }

    /// Bound for `line`, if the oracle had one.
    pub fn bound_for(&self, line: u8) -> Option<Cycles> {
        self.bounds
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, b)| b)
    }

    /// Renders the deterministic run report: per-line latency
    /// distributions against their static bounds, the kernel-visit
    /// distribution, the worst sample with its attribution, and the
    /// oracle verdict. Pure function of the merged data — no wall clock,
    /// worker count or host state — so the bytes are identical however
    /// the shards were scheduled.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "rt-load: {} events requested, {} recorded | seed {} | {} shards x {} tenants",
            self.events_requested, self.events, self.seed, self.shards, self.tenants
        );
        let _ = writeln!(
            s,
            "  threads {} | endpoints {} | visits {} | irq responses {} | preempted {} | fastpath {} | restarts {}",
            self.threads,
            self.endpoints,
            self.syscall_visits,
            self.irq_responses,
            self.preempted,
            self.fastpath_hits,
            self.restarts
        );
        let _ = writeln!(s);
        let _ = writeln!(s, "interrupt-response latency (cycles) vs static bound:");
        let _ = writeln!(
            s,
            "  {:>4} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>5}",
            "line", "n", "p50", "p90", "p99", "p999", "max", "bound", "headroom", "viol"
        );
        for (i, (line, h)) in self.lines.iter().enumerate() {
            let bound = self.bound_for(*line).unwrap_or(0);
            let headroom = i128::from(bound) - i128::from(h.max());
            let _ = writeln!(
                s,
                "  {:>4} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>5}",
                line,
                h.count(),
                h.quantile(1, 2),
                h.quantile(9, 10),
                h.quantile(99, 100),
                h.quantile(999, 1000),
                h.max(),
                bound,
                headroom,
                self.line_violations[i]
            );
        }
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "kernel visits (cycles; WCET(syscall) = {} is a soft reference — a visit may \
             also service pending interrupts on exit):",
            self.syscall_wcet
        );
        let _ = writeln!(
            s,
            "  n {} | p50 {} | p90 {} | p99 {} | p999 {} | max {}",
            self.syscalls.count(),
            self.syscalls.quantile(1, 2),
            self.syscalls.quantile(9, 10),
            self.syscalls.quantile(99, 100),
            self.syscalls.quantile(999, 1000),
            self.syscalls.max()
        );
        if let Some(w) = self.worst {
            let _ = writeln!(s);
            let _ = writeln!(
                s,
                "worst sample: line {} | latency {} | raised {} acked {} | shard {}",
                w.line, w.latency, w.raised, w.ack, w.shard
            );
            if let Some(a) = self.attribution {
                let _ = writeln!(
                    s,
                    "  attribution: pipeline {} | ifetch-miss {} | dmiss {} | l2 {} ({} trace \
                     events; replay {})",
                    a.pipeline,
                    a.ifetch_miss,
                    a.dmiss,
                    a.l2,
                    a.window_events,
                    if a.replay_matches {
                        "bit-identical"
                    } else {
                        "DIVERGED"
                    }
                );
            }
        }
        let _ = writeln!(s);
        if self.sound() {
            let _ = writeln!(
                s,
                "soundness oracle: PASS — 0 of {} responses above the static bound",
                self.irq_responses
            );
        } else {
            let _ = writeln!(
                s,
                "soundness oracle: FAIL — {} responses above the static bound",
                self.violations_total
            );
            for v in self.violations.iter().take(8) {
                let _ = writeln!(
                    s,
                    "  line {} latency {} > bound {} (raised {}, shard {})",
                    v.sample.line, v.sample.latency, v.bound, v.sample.raised, v.sample.shard
                );
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_shard;

    fn spec() -> LoadSpec {
        LoadSpec::standard(5, 300, 12, 2)
    }

    fn bounds(spec: &LoadSpec) -> Vec<(u8, Cycles)> {
        spec.active_lines()
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, 180_000 + 15_000 * (i as Cycles + 1)))
            .collect()
    }

    #[test]
    fn merge_accumulates_and_renders() {
        let spec = spec();
        let b = bounds(&spec);
        let shards: Vec<_> = (0..spec.shards).map(|s| run_shard(&spec, s, &b)).collect();
        let merged = LoadResult::merge(&spec, &b, 163_000, &shards);
        assert_eq!(merged.events, shards.iter().map(|s| s.events).sum::<u64>());
        assert_eq!(
            merged.syscalls.count(),
            shards.iter().map(|s| s.syscalls.count()).sum::<u64>()
        );
        let text = merged.render();
        assert!(text.contains("soundness oracle"));
        assert!(text.contains("interrupt-response latency"));
        // No host state leaks into the rendered bytes.
        assert!(!text.contains("wall"));
    }

    #[test]
    fn merge_order_is_shard_order_not_completion_order() {
        let spec = spec();
        let b = bounds(&spec);
        let s0 = run_shard(&spec, 0, &b);
        let s1 = run_shard(&spec, 1, &b);
        let a = LoadResult::merge(&spec, &b, 163_000, &[s0.clone(), s1.clone()]);
        // Merging the same reports again yields the same render: merge is
        // a pure fold over the shard-ordered inputs.
        let c = LoadResult::merge(&spec, &b, 163_000, &[s0, s1]);
        assert_eq!(a.render(), c.render());
    }
}
