//! Choice traces and the scripted decision controller.
//!
//! Every run of a scenario is driven by a sequence of small-integer
//! choices, one per *decision point*: which enabled event fires next
//! (thread step or interrupt arrival), and whether a device asserts a
//! line at a preemption-point poll. A run is therefore fully described by
//! the `Vec<Choice>` it took — the compact trace the engine branches on,
//! replays and minimizes.
//!
//! The controller replays a *prefix* of scripted choices and then
//! continues with defaults (choice 0). Each consultation is logged with
//! its option count so the exhaustive search knows where to branch.

use std::cell::RefCell;
use std::rc::Rc;

use rt_hw::{IrqController, IrqLine};
use rt_kernel::decision::DecisionSource;

/// Option index taken at one decision point.
pub type Choice = u16;

/// Where a decision point occurred.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// Top-level ("userspace") event selection: which thread step or
    /// interrupt arrival happens next.
    Event,
    /// A preemption-point poll inside a kernel operation: inject nothing
    /// (choice 0) or assert one of the still-legal lines.
    PreemptPoll,
}

/// One logged decision point: where it occurred and how many options were
/// enabled there. `options` is always at least 1; a point with a single
/// option is logged but contributes no branches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Kind of decision point.
    pub site: Site,
    /// Number of enabled options (choices `0..options`).
    pub options: Choice,
}

/// A small deterministic PRNG (splitmix64), self-contained so a draw
/// sequence is reproducible from a single `u64` seed on any platform.
#[derive(Clone, Debug)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n` must be nonzero).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.next_u64() % n
    }
}

/// Shared per-run decision state: the scripted prefix, the full trace
/// taken so far, the decision log, and the interrupt-injection budgets.
///
/// Shared (`Rc<RefCell<..>>`) between the engine's event loop and the
/// [`ScriptedSource`] installed on the kernel, because preemption-point
/// polls happen *inside* `Kernel` calls while the engine holds no borrow.
/// Each run is strictly single-threaded (kernels are built or restored
/// inside one pool worker and never move), so the former `Arc<Mutex<..>>`
/// bought nothing but an uncontended-lock round trip at every decision
/// poll — millions per exploration — and is gone.
#[derive(Debug)]
pub(crate) struct RunCtl {
    /// Choices to replay verbatim before extending with defaults.
    pub prefix: Vec<Choice>,
    /// Every choice actually taken (prefix + extension).
    pub taken: Vec<Choice>,
    /// One entry per consultation, aligned with `taken`.
    pub log: Vec<Decision>,
    /// Remaining injections per interrupt line.
    pub budgets: Vec<(IrqLine, u32)>,
    /// Total lines injected (polls + top-level arrivals).
    pub injected: u32,
    /// Preemption-point polls observed (with or without a decision).
    pub polls: u32,
}

impl RunCtl {
    pub(crate) fn new(prefix: Vec<Choice>, budgets: Vec<(IrqLine, u32)>) -> RunCtl {
        RunCtl {
            prefix,
            taken: Vec::new(),
            log: Vec::new(),
            budgets,
            injected: 0,
            polls: 0,
        }
    }

    /// A controller resuming mid-run from a snapshot: the first
    /// `consumed` prefix choices are already reflected in the restored
    /// kernel (with `log`/`budgets`/counters as they stood at capture),
    /// so replay continues at decision `consumed` instead of 0.
    pub(crate) fn resumed(
        prefix: Vec<Choice>,
        consumed: usize,
        log: Vec<Decision>,
        budgets: Vec<(IrqLine, u32)>,
        injected: u32,
        polls: u32,
    ) -> RunCtl {
        assert!(consumed <= prefix.len(), "snapshot past its branch prefix");
        let taken = prefix[..consumed].to_vec();
        RunCtl {
            prefix,
            taken,
            log,
            budgets,
            injected,
            polls,
        }
    }

    /// Takes the next choice among `options` alternatives at `site`:
    /// scripted while the prefix lasts, then default-0.
    ///
    /// # Panics
    ///
    /// If a scripted choice is out of range for the options enabled at
    /// replay time — the kernel is deterministic, so that means the trace
    /// belongs to a different scenario or engine version.
    pub(crate) fn choose(&mut self, site: Site, options: Choice) -> Choice {
        debug_assert!(options >= 1);
        let i = self.taken.len();
        let pick = if i < self.prefix.len() {
            let p = self.prefix[i];
            assert!(
                p < options,
                "replay diverged at decision {i} ({site:?}): trace says {p}, {options} enabled"
            );
            p
        } else {
            0
        };
        self.taken.push(pick);
        self.log.push(Decision { site, options });
        pick
    }

    /// Whether the next decision lies past the scripted prefix (the
    /// extension phase, where state-hash pruning is sound — states along
    /// the replayed prefix were necessarily visited before).
    pub(crate) fn in_extension(&self) -> bool {
        self.taken.len() >= self.prefix.len()
    }
}

/// The [`DecisionSource`] the engine installs: at every preemption-point
/// poll it may spend one unit of a line's budget to assert that line,
/// turning each poll into an enumerable branch.
///
/// A line is legal to inject only if it has budget left, is unmasked
/// (masked lines model seL4's not-yet-acknowledged IRQs — asserting them
/// would be invisible to this poll anyway), is not already pending, and
/// — on SMP instances — is routed to the core that is polling (the
/// distributor delivers a device line to exactly one core, so asserting
/// it at another core's poll would be invisible there too). When no line
/// is legal the poll is not a decision point at all — no trace entry is
/// recorded, which keeps traces compact and the branch factor honest.
pub(crate) struct ScriptedSource {
    pub ctl: Rc<RefCell<RunCtl>>,
    /// Delivery core per budget entry (all zero on single-core
    /// instances, where every poll is on core 0 — the filter passes
    /// everything and behaviour is bit-identical to pre-SMP). Routing is
    /// fixed at scenario build, so a plain snapshot of it is safe.
    pub routes: Vec<u8>,
}

impl DecisionSource for ScriptedSource {
    fn preemption_poll(&mut self, core: u8, irq: &IrqController) -> Option<IrqLine> {
        let mut ctl = self.ctl.borrow_mut();
        ctl.polls += 1;
        let legal: Vec<usize> = ctl
            .budgets
            .iter()
            .enumerate()
            .filter(|&(i, &(line, left))| {
                left > 0 && self.routes[i] == core && !irq.is_masked(line) && !irq.is_pending(line)
            })
            .map(|(i, _)| i)
            .collect();
        if legal.is_empty() {
            return None;
        }
        let pick = ctl.choose(Site::PreemptPoll, (legal.len() + 1) as Choice);
        if pick == 0 {
            return None;
        }
        let bi = legal[(pick - 1) as usize];
        ctl.budgets[bi].1 -= 1;
        ctl.injected += 1;
        Some(ctl.budgets[bi].0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn prefix_replays_then_defaults() {
        let mut ctl = RunCtl::new(vec![2, 1], Vec::new());
        assert_eq!(ctl.choose(Site::Event, 3), 2);
        assert!(!ctl.in_extension());
        assert_eq!(ctl.choose(Site::Event, 2), 1);
        assert!(ctl.in_extension());
        assert_eq!(ctl.choose(Site::Event, 5), 0);
        assert_eq!(ctl.taken, vec![2, 1, 0]);
        assert_eq!(ctl.log.len(), 3);
    }

    #[test]
    #[should_panic(expected = "replay diverged")]
    fn out_of_range_prefix_choice_panics() {
        let mut ctl = RunCtl::new(vec![3], Vec::new());
        ctl.choose(Site::Event, 2);
    }
}
