//! Interrupt controller model.
//!
//! A simplified AVIC (the i.MX31's vectored interrupt controller): 32 lines,
//! per-line masking, a pending register, and a *firing schedule* that raises
//! lines at programmed cycle counts. The kernel polls [`IrqController::
//! pending_unmasked`] at its preemption points and on kernel exit — exactly
//! the "interrupts are disabled in hardware during kernel execution, and
//! handled when encountering a preemption point or upon returning to the
//! user" discipline of §2.1.

use crate::Cycles;

/// An interrupt line number (0..32).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IrqLine(pub u8);

/// Number of interrupt lines modelled.
pub const NUM_LINES: u8 = 32;

/// The interrupt controller.
#[derive(Clone, Debug, Default)]
pub struct IrqController {
    pending: u32,
    masked: u32,
    /// Programmed future interrupts, sorted by cycle (soonest last, so we
    /// can pop from the back).
    schedule: Vec<(Cycles, IrqLine)>,
    /// Cycle at which each pending line was raised (for latency accounting);
    /// indexed by line.
    raised_at: [Option<Cycles>; NUM_LINES as usize],
}

impl IrqController {
    /// Overwrites `self` with `src`, reusing the schedule buffer.
    pub fn copy_from(&mut self, src: &IrqController) {
        self.pending = src.pending;
        self.masked = src.masked;
        self.schedule.clone_from(&src.schedule);
        self.raised_at = src.raised_at;
    }

    /// Creates a controller with all lines unmasked and nothing pending.
    pub fn new() -> IrqController {
        IrqController::default()
    }

    /// Programs `line` to be raised when the cycle counter reaches `at`.
    pub fn schedule(&mut self, at: Cycles, line: IrqLine) {
        assert!(line.0 < NUM_LINES);
        // Keep soonest at the back for O(1) pop. The new entry goes
        // nearer the back than its equal-cycle ties (it fires first
        // among them), as a stable descending sort would place it.
        let ix = self.schedule.partition_point(|e| e.0 >= at);
        self.schedule.insert(ix, (at, line));
    }

    /// Programs a whole batch of future raises in one call.
    ///
    /// Equivalent to calling [`IrqController::schedule`] for every element,
    /// but sorts the schedule once at the end instead of once per event —
    /// the difference between O(n log n) and O(n²) when a load generator
    /// injects a storm schedule of tens of thousands of arrivals. Events may
    /// arrive in any order; ties on the cycle fire lowest-line-first, and the
    /// sort is stable so equal `(cycle, line)` duplicates keep insertion
    /// order.
    pub fn schedule_batch(&mut self, events: impl IntoIterator<Item = (Cycles, IrqLine)>) {
        for (at, line) in events {
            assert!(line.0 < NUM_LINES);
            self.schedule.push((at, line));
        }
        // Soonest at the back for O(1) pop; among simultaneous arrivals the
        // lowest-numbered (highest-priority) line must surface first.
        self.schedule
            .sort_by_key(|&(at, line)| (std::cmp::Reverse(at), std::cmp::Reverse(line.0)));
    }

    /// Advances controller time to `now`, raising any scheduled lines that
    /// are due. Returns `true` if anything new was raised.
    pub fn tick(&mut self, now: Cycles) -> bool {
        let mut raised = false;
        while let Some(&(at, line)) = self.schedule.last() {
            if at > now {
                break;
            }
            self.schedule.pop();
            self.raise_at(line, at);
            raised = true;
        }
        raised
    }

    /// Raises `line` immediately (device asserts its IRQ output).
    pub fn raise(&mut self, line: IrqLine, now: Cycles) {
        self.raise_at(line, now);
    }

    fn raise_at(&mut self, line: IrqLine, at: Cycles) {
        assert!(line.0 < NUM_LINES);
        let bit = 1u32 << line.0;
        if self.pending & bit == 0 {
            self.pending |= bit;
            self.raised_at[line.0 as usize] = Some(at);
        }
    }

    /// Masks `line` (it can still become pending but will not be reported).
    pub fn mask(&mut self, line: IrqLine) {
        self.masked |= 1 << line.0;
    }

    /// Unmasks `line`.
    pub fn unmask(&mut self, line: IrqLine) {
        self.masked &= !(1 << line.0);
    }

    /// Returns `true` if `line` is masked.
    pub fn is_masked(&self, line: IrqLine) -> bool {
        self.masked & (1 << line.0) != 0
    }

    /// Whether `line` is currently asserted (pending), masked or not.
    pub fn is_pending(&self, line: IrqLine) -> bool {
        self.pending & (1 << line.0) != 0
    }

    /// Highest-priority (lowest-numbered) pending unmasked line, if any.
    pub fn pending_unmasked(&self) -> Option<IrqLine> {
        let active = self.pending & !self.masked;
        if active == 0 {
            None
        } else {
            Some(IrqLine(active.trailing_zeros() as u8))
        }
    }

    /// Returns `true` if any unmasked interrupt is pending. This is the
    /// check a preemption point performs.
    pub fn has_pending(&self) -> bool {
        self.pending & !self.masked != 0
    }

    /// Acknowledges (clears) `line` and returns the cycle at which it was
    /// raised, for response-time accounting.
    pub fn ack(&mut self, line: IrqLine) -> Option<Cycles> {
        let bit = 1u32 << line.0;
        if self.pending & bit == 0 {
            return None;
        }
        self.pending &= !bit;
        self.raised_at[line.0 as usize].take()
    }

    /// Number of interrupts still programmed to fire.
    pub fn scheduled_count(&self) -> usize {
        self.schedule.len()
    }

    /// Cycle of the next programmed interrupt, if any.
    pub fn next_scheduled(&self) -> Option<Cycles> {
        self.schedule.last().map(|&(at, _)| at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_fires_in_order() {
        let mut c = IrqController::new();
        c.schedule(100, IrqLine(3));
        c.schedule(50, IrqLine(7));
        assert!(!c.tick(49));
        assert!(!c.has_pending());
        assert!(c.tick(50));
        assert_eq!(c.pending_unmasked(), Some(IrqLine(7)));
        assert!(c.tick(200));
        // Line 3 now also pending; lowest number wins.
        assert_eq!(c.pending_unmasked(), Some(IrqLine(3)));
    }

    #[test]
    fn ack_returns_raise_cycle() {
        let mut c = IrqController::new();
        c.schedule(123, IrqLine(0));
        c.tick(500); // serviced late
        assert_eq!(c.ack(IrqLine(0)), Some(123));
        assert_eq!(c.ack(IrqLine(0)), None);
        assert!(!c.has_pending());
    }

    #[test]
    fn masking_hides_but_preserves_pending() {
        let mut c = IrqController::new();
        c.mask(IrqLine(5));
        c.raise(IrqLine(5), 10);
        assert!(!c.has_pending());
        assert_eq!(c.pending_unmasked(), None);
        c.unmask(IrqLine(5));
        assert!(c.has_pending());
        assert_eq!(c.pending_unmasked(), Some(IrqLine(5)));
    }

    #[test]
    fn schedule_batch_matches_per_event_schedule() {
        let events = [
            (300, IrqLine(1)),
            (100, IrqLine(9)),
            (100, IrqLine(2)),
            (50, IrqLine(31)),
        ];
        let mut a = IrqController::new();
        for &(at, line) in &events {
            a.schedule(at, line);
        }
        let mut b = IrqController::new();
        b.schedule_batch(events);
        assert_eq!(a.scheduled_count(), b.scheduled_count());
        assert_eq!(a.next_scheduled(), b.next_scheduled());
        for now in [50, 100, 300] {
            a.tick(now);
            b.tick(now);
            assert_eq!(a.pending_unmasked(), b.pending_unmasked());
            while let Some(line) = a.pending_unmasked() {
                assert_eq!(a.ack(line), b.ack(line));
            }
        }
        assert_eq!(a.scheduled_count(), 0);
        assert_eq!(b.scheduled_count(), 0);
    }

    #[test]
    fn double_raise_keeps_first_timestamp() {
        let mut c = IrqController::new();
        c.raise(IrqLine(2), 10);
        c.raise(IrqLine(2), 20);
        assert_eq!(c.ack(IrqLine(2)), Some(10));
    }
}
