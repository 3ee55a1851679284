//! Performance monitoring unit.
//!
//! The paper measures observed execution times "using the cycle counters
//! available on the ARM1136's performance monitoring unit" (§5.4). This is
//! the equivalent: a free-running cycle counter plus event counters, with a
//! snapshot facility for measuring deltas around a code region.

use crate::Cycles;

/// PMU state: a cycle counter and the event counts software most often
/// wants to read back.
///
/// The snapshot facility is how the benchmarks measure one kernel path:
///
/// ```
/// use rt_hw::{HwConfig, InstrClass, Machine};
///
/// let mut m = Machine::new(HwConfig::default());
/// let snap = m.pmu.snapshot();
/// // 8 ALU instructions in one cold 32-byte line: 60-cycle fill + 8 * 1.
/// for i in 0..8 {
///     m.exec(InstrClass::Alu, 0xf000_0000 + 4 * i);
/// }
/// assert_eq!(m.pmu.cycles_since(snap), 68);
/// assert_eq!(m.pmu.instructions_since(snap), 8);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Pmu {
    /// Free-running cycle counter.
    pub cycles: Cycles,
    /// Instructions executed.
    pub instructions: u64,
    /// Branches resolved.
    pub branches: u64,
    /// Data memory accesses.
    pub data_accesses: u64,
}

/// A snapshot of the PMU taken at some instant; subtract two to get deltas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PmuSnapshot(Pmu);

impl Pmu {
    /// Creates a zeroed PMU.
    pub fn new() -> Pmu {
        Pmu::default()
    }

    /// Takes a snapshot of the current counters.
    pub fn snapshot(&self) -> PmuSnapshot {
        PmuSnapshot(*self)
    }

    /// Cycles elapsed since `snap`.
    pub fn cycles_since(&self, snap: PmuSnapshot) -> Cycles {
        self.cycles - snap.0.cycles
    }

    /// Instructions retired since `snap`.
    pub fn instructions_since(&self, snap: PmuSnapshot) -> u64 {
        self.instructions - snap.0.instructions
    }

    /// All counter deltas since `snap`, as a [`Pmu`] whose fields are the
    /// per-counter differences.
    ///
    /// This is the histogram-friendly readout: one call per measured event
    /// yields every counter delta at once, so a load generator can feed
    /// cycle/instruction/branch/access histograms from a single snapshot
    /// pair instead of four separate subtractions.
    ///
    /// ```
    /// use rt_hw::{HwConfig, InstrClass, Machine};
    ///
    /// let mut m = Machine::new(HwConfig::default());
    /// let snap = m.pmu.snapshot();
    /// for i in 0..8 {
    ///     m.exec(InstrClass::Alu, 0xf000_0000 + 4 * i);
    /// }
    /// let d = m.pmu.delta_since(snap);
    /// assert_eq!(d.cycles, 68);
    /// assert_eq!(d.instructions, 8);
    /// assert_eq!(d.branches, 0);
    /// ```
    pub fn delta_since(&self, snap: PmuSnapshot) -> Pmu {
        Pmu {
            cycles: self.cycles - snap.0.cycles,
            instructions: self.instructions - snap.0.instructions,
            branches: self.branches - snap.0.branches,
            data_accesses: self.data_accesses - snap.0.data_accesses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_deltas() {
        let mut p = Pmu::new();
        p.cycles = 100;
        p.instructions = 40;
        let s = p.snapshot();
        p.cycles = 350;
        p.instructions = 90;
        assert_eq!(p.cycles_since(s), 250);
        assert_eq!(p.instructions_since(s), 50);
    }
}
