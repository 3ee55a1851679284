//! The memory hierarchy: split L1, optional unified L2, main memory.
//!
//! Latency parameters follow §5.1 of the paper exactly:
//!
//! * L1 hit: folded into the instruction's base cost (0 extra cycles);
//! * L1 miss, L2 hit: 26 cycles;
//! * main-memory access: **60 cycles with the L2 disabled, 96 cycles with it
//!   enabled** — the disparity responsible for the paper's observation that
//!   enabling the L2 *increases* some cold-cache worst cases by up to 8 %
//!   (Fig. 9);
//! * a dirty victim costs an additional write to the next level, which is
//!   why the paper's worst-case preambles pollute the caches with *dirty*
//!   lines.

use crate::cache::{Cache, CacheGeometry, Lookup, Replacement};
use crate::trace::AccessReport;
use crate::{Addr, Cycles};

/// L1-miss-L2-hit latency (§5.1: "hit access latency of 26 cycles").
pub const L2_HIT_CYCLES: Cycles = 26;
/// Main memory latency with the L2 disabled (§5.1).
pub const DRAM_CYCLES_L2_OFF: Cycles = 60;
/// Main memory latency with the L2 enabled (§5.1).
pub const DRAM_CYCLES_L2_ON: Cycles = 96;

/// What kind of access is being made (selects L1I or L1D).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch (L1 I-cache).
    IFetch,
    /// Data read (L1 D-cache).
    Read,
    /// Data write (L1 D-cache, write-allocate).
    Write,
}

/// Per-level hit/miss statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemLevelStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
    /// Dirty evictions written back.
    pub writebacks: u64,
}

/// The full memory hierarchy.
#[derive(Clone, Debug)]
pub struct MemSystem {
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Unified L2, present only when enabled.
    pub l2: Option<Cache>,
    /// L1I statistics.
    pub l1i_stats: MemLevelStats,
    /// L1D statistics.
    pub l1d_stats: MemLevelStats,
    /// L2 statistics.
    pub l2_stats: MemLevelStats,
}

impl MemSystem {
    /// Overwrites `self` with `src`, reusing every cache's buffers. The
    /// L2 either exists in both or neither (it is a process-constant
    /// configuration), so the `Option` never flips shape here.
    pub fn copy_from(&mut self, src: &MemSystem) {
        self.l1i.copy_from(&src.l1i);
        self.l1d.copy_from(&src.l1d);
        match (&mut self.l2, &src.l2) {
            (Some(dst), Some(s)) => dst.copy_from(s),
            (None, None) => {}
            (dst, s) => *dst = s.clone(),
        }
        self.l1i_stats = src.l1i_stats;
        self.l1d_stats = src.l1d_stats;
        self.l2_stats = src.l2_stats;
    }

    /// Builds the i.MX31 hierarchy; `l2_enabled` selects whether the 128 KiB
    /// L2 is active (and with it the 96-cycle memory latency).
    pub fn new(l2_enabled: bool, replacement: Replacement) -> MemSystem {
        MemSystem {
            l1i: Cache::new(CacheGeometry::L1, replacement),
            l1d: Cache::new(CacheGeometry::L1, replacement),
            l2: l2_enabled.then(|| Cache::new(CacheGeometry::L2, replacement)),
            l1i_stats: MemLevelStats::default(),
            l1d_stats: MemLevelStats::default(),
            l2_stats: MemLevelStats::default(),
        }
    }

    /// Performs one access and returns its cost in cycles *beyond* the
    /// instruction's base pipeline cost.
    pub fn access(&mut self, kind: AccessKind, addr: Addr) -> Cycles {
        self.access_report(kind, addr).cost()
    }

    /// As [`MemSystem::access`], returning the full [`AccessReport`]: which
    /// levels hit, which writebacks fired, and the latency split between
    /// the fill path (`miss_cycles`) and L1-victim writebacks absorbed by
    /// the L2 (`l2_absorbed_cycles`) — the raw material of the attribution
    /// buckets (see `docs/TRACING.md`).
    ///
    /// The L1 probe and the hit path are inlined into every caller (the
    /// block loop among them); a miss continues out of line.
    #[inline(always)]
    pub fn access_report(&mut self, kind: AccessKind, addr: Addr) -> AccessReport {
        let write = kind == AccessKind::Write;
        let (l1, stats) = match kind {
            AccessKind::IFetch => (&mut self.l1i, &mut self.l1i_stats),
            AccessKind::Read | AccessKind::Write => (&mut self.l1d, &mut self.l1d_stats),
        };
        let (lookup, locked_hit) = l1.probe(addr, write);
        match lookup {
            Lookup::Hit => {
                stats.hits += 1;
                AccessReport {
                    l1_hit: true,
                    locked_hit,
                    ..AccessReport::default()
                }
            }
            Lookup::Miss { writeback } => {
                stats.misses += 1;
                if writeback {
                    stats.writebacks += 1;
                }
                self.fill_report(addr, write, writeback)
            }
        }
    }

    /// The report of an L1 miss on `addr` whose victim needed a writeback
    /// if `writeback`: the line fill from the L2 or from memory.
    #[inline(never)]
    fn fill_report(&mut self, addr: Addr, write: bool, writeback: bool) -> AccessReport {
        let mut report = AccessReport {
            l1_writeback: writeback,
            ..AccessReport::default()
        };
        match &mut self.l2 {
            Some(l2) => {
                // Line fill from L2 (or memory through L2).
                match l2.access(addr, write) {
                    Lookup::Hit => {
                        self.l2_stats.hits += 1;
                        report.l2_hit = Some(true);
                        report.miss_cycles += L2_HIT_CYCLES;
                    }
                    Lookup::Miss { writeback: l2_wb } => {
                        self.l2_stats.misses += 1;
                        report.l2_hit = Some(false);
                        report.miss_cycles += DRAM_CYCLES_L2_ON;
                        if l2_wb {
                            self.l2_stats.writebacks += 1;
                            report.l2_writeback = true;
                            report.miss_cycles += DRAM_CYCLES_L2_ON;
                        }
                    }
                }
                // The L1 victim writeback lands in the L2.
                if writeback {
                    report.l2_absorbed_cycles += L2_HIT_CYCLES;
                }
            }
            None => {
                report.miss_cycles += DRAM_CYCLES_L2_OFF;
                if writeback {
                    report.miss_cycles += DRAM_CYCLES_L2_OFF;
                }
            }
        }
        report
    }

    /// Worst-case preamble: fills every unlocked line of every level with
    /// dirty conflicting data (§5.4 of the paper).
    pub fn pollute_dirty(&mut self, pollution_base: Addr) {
        // The I-cache is polluted clean: instruction lines are never
        // written, so their eviction costs no writeback on real hardware.
        self.l1i.pollute(pollution_base, false);
        self.l1d.pollute(pollution_base, true);
        if let Some(l2) = &mut self.l2 {
            l2.pollute(pollution_base, true);
        }
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.l1i_stats = MemLevelStats::default();
        self.l1d_stats = MemLevelStats::default();
        self.l2_stats = MemLevelStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_costs_follow_l2_configuration() {
        let mut off = MemSystem::new(false, Replacement::RoundRobin);
        let mut on = MemSystem::new(true, Replacement::RoundRobin);
        // Cold miss.
        assert_eq!(off.access(AccessKind::Read, 0x8000_0000), 60);
        assert_eq!(on.access(AccessKind::Read, 0x8000_0000), 96);
        // L1 hit afterwards is free.
        assert_eq!(off.access(AccessKind::Read, 0x8000_0000), 0);
        assert_eq!(on.access(AccessKind::Read, 0x8000_0000), 0);
    }

    #[test]
    fn l2_hit_costs_26() {
        let mut m = MemSystem::new(true, Replacement::RoundRobin);
        // Touch enough conflicting L1 lines that the first gets evicted from
        // L1 but stays resident in the much larger L2.
        let stride = CacheGeometry::L1.sets() * CacheGeometry::L1.line; // 4 KiB
        for i in 0..5 {
            m.access(AccessKind::Read, 0x8000_0000 + i * stride);
        }
        // 5 conflicting lines in a 4-way set: at least one was evicted.
        // Re-touch all; evicted ones come back from L2 at 26 cycles.
        let costs: Vec<Cycles> = (0..5)
            .map(|i| m.access(AccessKind::Read, 0x8000_0000 + i * stride))
            .collect();
        assert!(
            costs.contains(&L2_HIT_CYCLES),
            "expected an L2 hit, got {costs:?}"
        );
        assert!(costs.iter().all(|&c| c == 0 || c == L2_HIT_CYCLES));
    }

    #[test]
    fn dirty_pollution_doubles_cold_miss_cost_without_l2() {
        let mut m = MemSystem::new(false, Replacement::RoundRobin);
        m.pollute_dirty(0x4000_0000);
        // Miss + dirty victim writeback: 60 + 60.
        assert_eq!(m.access(AccessKind::Read, 0x8000_0000), 120);
    }

    #[test]
    fn ifetch_and_data_use_separate_l1s() {
        let mut m = MemSystem::new(false, Replacement::RoundRobin);
        m.access(AccessKind::IFetch, 0xf000_0000);
        // Same address as data: must miss (split caches).
        assert_eq!(m.access(AccessKind::Read, 0xf000_0000), 60);
        assert_eq!(m.l1i_stats.misses, 1);
        assert_eq!(m.l1d_stats.misses, 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut m = MemSystem::new(true, Replacement::RoundRobin);
        m.access(AccessKind::Read, 0x8000_0000);
        m.access(AccessKind::Read, 0x8000_0000);
        assert_eq!(m.l1d_stats.misses, 1);
        assert_eq!(m.l1d_stats.hits, 1);
        assert_eq!(m.l2_stats.misses, 1);
        m.reset_stats();
        assert_eq!(m.l1d_stats, MemLevelStats::default());
    }
}
