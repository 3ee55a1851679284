//! The pessimistic-but-sound hardware cost model (§5.1).
//!
//! * Each L1 cache is analysed "as if \[it\] were a direct-mapped cache of
//!   the size of one way (4 KiB)" — any contention within a set is a miss.
//!   We go one step more conservative at block granularity: a block is
//!   costed **cold** (no instruction line carried over from other blocks)
//!   except for (a) lines already fetched earlier in the same block,
//!   (b) pinned lines (§4), and (c) loop-persistent lines (lines of a loop
//!   body that cannot conflict within the loop are charged one cold miss
//!   at the loop preheader and hit thereafter). Block-cold costing also
//!   reproduces the paper's virtual-inlining overestimation: every decode
//!   context pays its own cold misses (§6).
//! * Data at *static* addresses (kernel stack, globals) hits only when
//!   pinned; otherwise every region access is a miss — the analysis cannot
//!   bound the interleaved unknown-address object traffic that could evict
//!   them (an unknown store may alias any set).
//! * Data at *unknown* addresses (kernel objects) is always a miss, plus
//!   the dirty-victim writeback a polluted cache can force (§5.4's worst
//!   case preamble fills the caches with dirty lines).
//! * Branches cost the constant 5 cycles of the predictor-disabled
//!   ARM1136; memory latencies are the §5.1 figures (60 cycles L2-off;
//!   with the L2 enabled: 26-cycle L2 hits, 96-cycle memory, and victim
//!   writebacks at the level's latency).

use std::collections::HashSet;

use rt_hw::mem::{DRAM_CYCLES_L2_OFF, DRAM_CYCLES_L2_ON, L2_HIT_CYCLES};
use rt_hw::{Addr, CycleAccounts, OpKind, Operand};
use rt_kernel::kprog::{self, Block, Ik, Layout, D};

/// Branch cost with the predictor disabled (§5.1).
pub const BRANCH_CYCLES: u64 = 5;

/// Cache/latency configuration of one analysis run.
#[derive(Clone, Debug, Default)]
pub struct CostModel {
    /// Whether the L2 is enabled (changes both hit paths and the memory
    /// latency, §5.1).
    pub l2: bool,
    /// The §4/§8 extension: the whole kernel (code, stack, globals) is
    /// locked into the L2, so static-address misses are served at the
    /// 26-cycle L2 hit latency and never suffer L2-victim writebacks.
    /// Implies `l2`.
    pub l2_kernel_locked: bool,
    /// Pinned instruction lines (always hit).
    pub pinned_i: HashSet<Addr>,
    /// Pinned data lines (always hit).
    pub pinned_d: HashSet<Addr>,
}

impl CostModel {
    /// Worst-case cost of one instruction-fetch miss.
    ///
    /// L2 off: straight to memory (no writeback — I-lines are clean).
    /// L2 on: L2 miss to memory plus a possible dirty L2-victim writeback.
    pub fn ifetch_miss(&self) -> u64 {
        self.ifetch_miss_split().total()
    }

    /// As [`CostModel::ifetch_miss`], split into attribution buckets
    /// ([`rt_hw::Bucket`]): the fill and its DRAM-level writeback belong to
    /// the ifetch-miss bucket; I-lines are clean, so there is never an
    /// L1-victim writeback into the L2.
    pub fn ifetch_miss_split(&self) -> CycleAccounts {
        let ifetch_miss = if self.l2_kernel_locked {
            // Kernel code is locked in the L2: an L1I miss is a guaranteed
            // L2 hit with a clean victim.
            L2_HIT_CYCLES
        } else if self.l2 {
            DRAM_CYCLES_L2_ON + DRAM_CYCLES_L2_ON
        } else {
            DRAM_CYCLES_L2_OFF
        };
        CycleAccounts {
            ifetch_miss,
            ..CycleAccounts::default()
        }
    }

    /// Worst-case cost of one data miss (including the dirty L1-victim
    /// writeback a polluted cache forces, and with L2 on also a dirty
    /// L2-victim writeback).
    pub fn data_miss(&self) -> u64 {
        self.data_miss_split().total()
    }

    /// As [`CostModel::data_miss`], split into buckets: fill plus any
    /// DRAM-level writeback in the dmiss bucket, the L1-victim writeback
    /// absorbed by the L2 (when one exists) in the l2 bucket — the same
    /// partition the machine's [`rt_hw::trace::AccessReport`] uses, so
    /// per-bucket dominance can be asserted against observations.
    pub fn data_miss_split(&self) -> CycleAccounts {
        if self.l2 || self.l2_kernel_locked {
            CycleAccounts {
                dmiss: DRAM_CYCLES_L2_ON + DRAM_CYCLES_L2_ON,
                l2: L2_HIT_CYCLES,
                ..CycleAccounts::default()
            }
        } else {
            CycleAccounts {
                dmiss: DRAM_CYCLES_L2_OFF + DRAM_CYCLES_L2_OFF,
                ..CycleAccounts::default()
            }
        }
    }

    /// Worst-case miss cost for *static* kernel data (stack, globals):
    /// like [`CostModel::data_miss`] unless the kernel is L2-locked, in
    /// which case the fill and the dirty L1-victim writeback both hit the
    /// locked L2 way.
    pub fn static_data_miss(&self) -> u64 {
        self.static_data_miss_split().total()
    }

    /// As [`CostModel::static_data_miss`], split into buckets.
    pub fn static_data_miss_split(&self) -> CycleAccounts {
        if self.l2_kernel_locked {
            CycleAccounts {
                dmiss: L2_HIT_CYCLES,
                l2: L2_HIT_CYCLES,
                ..CycleAccounts::default()
            }
        } else {
            self.data_miss_split()
        }
    }

    /// Cost of `block` at its laid-out address. `persistent_i` lists
    /// instruction lines guaranteed resident (loop persistence); the
    /// block's own already-fetched lines and pinned lines also hit.
    pub fn block_cost(&self, layout: &Layout, block: Block, persistent_i: &HashSet<Addr>) -> u64 {
        self.block_cost_split(layout, block, persistent_i).total()
    }

    /// As [`CostModel::block_cost`], split into attribution buckets (base
    /// instruction, branch and device cycles in the pipeline bucket; miss
    /// latencies per [`CostModel::ifetch_miss_split`] and friends). The
    /// total over buckets *is* the block cost — [`CostModel::block_cost`]
    /// is defined as this split's sum, so the two cannot drift.
    pub fn block_cost_split(
        &self,
        layout: &Layout,
        block: Block,
        persistent_i: &HashSet<Addr>,
    ) -> CycleAccounts {
        let spec = block.spec();
        let mut cost = CycleAccounts::default();
        let mut pc = layout.addr_of(block);
        let mut seen_i: HashSet<Addr> = HashSet::new();
        let mut statics = static_operands(block);
        let ifetch = self.ifetch_miss_split();
        let fetch = |pc: Addr, cost: &mut CycleAccounts, seen_i: &mut HashSet<Addr>| {
            let line = pc & !31;
            if !(self.pinned_i.contains(&line)
                || persistent_i.contains(&line)
                || seen_i.contains(&line))
            {
                *cost = cost.add(ifetch);
                seen_i.insert(line);
            }
        };
        for ik in spec.instrs {
            match *ik {
                Ik::A(n) => {
                    for _ in 0..n {
                        fetch(pc, &mut cost, &mut seen_i);
                        cost.pipeline += 1;
                        pc += 4;
                    }
                }
                Ik::Z | Ik::M => {
                    fetch(pc, &mut cost, &mut seen_i);
                    cost.pipeline += if matches!(ik, Ik::M) { 2 } else { 1 };
                    pc += 4;
                }
                Ik::B => {
                    fetch(pc, &mut cost, &mut seen_i);
                    cost.pipeline += BRANCH_CYCLES;
                    pc += 4;
                }
                Ik::L(d, n) | Ik::S(d, n) => {
                    // Every access instruction is fetched; the data cost
                    // depends on the class.
                    for i in 0..n {
                        fetch(pc, &mut cost, &mut seen_i);
                        cost.pipeline += 1; // base cost of a load/store
                        pc += 4;
                        match d {
                            D::Dv => cost.pipeline += kprog::DEVICE_ACCESS_CYCLES,
                            D::St | D::Gl => {
                                let addr = statics
                                    .next()
                                    .expect("every stack or global operand is lowered");
                                if !self.pinned_d.contains(&(addr & !31)) {
                                    cost = cost.add(self.static_data_miss_split());
                                }
                            }
                            D::Ob => {
                                // One miss per grouped consecutive-word
                                // region (first word), hits after.
                                if i == 0 {
                                    cost = cost.add(self.data_miss_split());
                                }
                            }
                        }
                    }
                }
            }
        }
        cost
    }

    /// Cold-miss charge for a loop's persistent instruction lines (paid
    /// once, at the preheader).
    pub fn persistence_entry_cost(&self, lines: &HashSet<Addr>) -> u64 {
        self.persistence_entry_cost_split(lines).total()
    }

    /// As [`CostModel::persistence_entry_cost`], split into buckets (all
    /// of it is instruction-fetch miss latency).
    pub fn persistence_entry_cost_split(&self, lines: &HashSet<Addr>) -> CycleAccounts {
        let unpinned = lines.iter().filter(|l| !self.pinned_i.contains(*l)).count();
        self.ifetch_miss_split().scaled(unpinned as u64)
    }
}

/// Instruction lines occupied by a set of blocks.
pub fn i_lines_of(layout: &Layout, blocks: &[Block]) -> HashSet<Addr> {
    layout.code_lines(blocks).into_iter().collect()
}

/// The stack and global addresses `block` accesses, in program order:
/// the ones the executor's lowered ops carry ([`kprog::compiled`]).
fn static_operands(block: Block) -> impl Iterator<Item = Addr> {
    kprog::compiled(block)
        .lowered
        .ops()
        .iter()
        .filter_map(|op| match op.kind {
            OpKind::Load(Operand::At(a)) | OpKind::Store(Operand::At(a)) => Some(a),
            _ => None,
        })
}

/// Whether pinning can affect `block`'s cost at all: true iff any
/// instruction line the block fetches is in `pinned_i` or any static data
/// address it touches is in `pinned_d`. Walks the executor's lowered ops,
/// which carry exactly the addresses [`CostModel::block_cost_split`]
/// prices: each op lies in one instruction line, and the stack/global
/// operands are the same ones (object and device accesses never consult
/// the pinned sets). A `false` over every node of a graph proves the
/// pinned and unpinned cost vectors are identical, including
/// loop-persistence entry charges, whose lines are code lines of
/// loop-member blocks and therefore covered by the instruction scan.
pub fn block_touches_pinned(
    layout: &Layout,
    block: Block,
    pinned_i: &HashSet<Addr>,
    pinned_d: &HashSet<Addr>,
) -> bool {
    let ops = kprog::compiled(block).lowered.ops();
    // The ops were lowered at `Layout::new`'s addresses.
    debug_assert_eq!(ops.first().map(|op| op.pc), Some(layout.addr_of(block)));
    ops.iter().any(|op| pinned_i.contains(&(op.pc & !31)))
        || static_operands(block).any(|a| pinned_d.contains(&(a & !31)))
}

/// Checks whether a loop's instruction lines are conflict-free in the
/// direct-mapped one-way model (4 KiB, 128 sets): if no two distinct lines
/// share a set, the lines persist across iterations.
pub fn loop_lines_persistent(lines: &HashSet<Addr>) -> bool {
    let mut sets = HashSet::new();
    for l in lines {
        let set = (l / 32) % 128;
        if !sets.insert(set) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(l2: bool) -> CostModel {
        CostModel {
            l2,
            ..CostModel::default()
        }
    }

    #[test]
    fn latency_parameters_match_the_paper() {
        assert_eq!(model(false).ifetch_miss(), 60);
        assert_eq!(model(false).data_miss(), 120);
        assert!(model(true).ifetch_miss() > model(false).ifetch_miss());
        assert!(model(true).data_miss() > model(false).data_miss());
    }

    #[test]
    fn cold_block_pays_one_miss_per_line() {
        let layout = Layout::new();
        let m = model(false);
        // CaseEp: 3 ALU + branch = 4 instructions, on 1..=2 lines.
        let c = m.block_cost(&layout, Block::CaseEp, &HashSet::new());
        // 3*1 + 5 (branch) + k*60 for k in 1..=2.
        assert!(c == 3 + 5 + 60 || c == 3 + 5 + 120, "got {c}");
    }

    #[test]
    fn pinned_lines_fetch_free() {
        let layout = Layout::new();
        let mut m = model(false);
        let all: HashSet<Addr> = layout.code_lines(Block::ALL).into_iter().collect();
        m.pinned_i = all;
        let c = m.block_cost(&layout, Block::CaseEp, &HashSet::new());
        assert_eq!(c, 3 + 5, "no fetch misses when fully pinned");
    }

    #[test]
    fn touch_scan_predicts_pinning_sensitivity() {
        // The cache's key-normalisation relies on the contrapositive: if
        // `block_touches_pinned` is false, pinning cannot change the
        // block's cost. Check it block by block against the real pinned
        // sets, with and without loop-persistent lines.
        let layout = Layout::new();
        let pinned_i: HashSet<Addr> = rt_kernel::pinning::pinned_icache_lines(&layout)
            .into_iter()
            .collect();
        let pinned_d: HashSet<Addr> = rt_kernel::pinning::pinned_dcache_lines()
            .into_iter()
            .collect();
        let unpinned = model(false);
        let pinned = CostModel {
            pinned_i: pinned_i.clone(),
            pinned_d: pinned_d.clone(),
            ..model(false)
        };
        let mut touching = 0usize;
        for &b in Block::ALL {
            let persistent: HashSet<Addr> = layout.code_lines(&[b]).into_iter().collect();
            for per in [HashSet::new(), persistent] {
                let a = unpinned.block_cost(&layout, b, &per);
                let p = pinned.block_cost(&layout, b, &per);
                if a != p {
                    assert!(
                        block_touches_pinned(&layout, b, &pinned_i, &pinned_d),
                        "{b:?}: cost changed under pinning ({a} -> {p}) but scan says untouched"
                    );
                }
            }
            if block_touches_pinned(&layout, b, &pinned_i, &pinned_d) {
                touching += 1;
            }
        }
        assert!(touching > 0, "pinned sets should cover some blocks");
    }

    #[test]
    fn object_data_always_misses_per_region() {
        let layout = Layout::new();
        let m = model(false);
        // TransferWord: A(1), L(Ob,1), S(Ob,1), B -> 2 data regions.
        let c = m.block_cost(&layout, Block::TransferWord, &HashSet::new());
        let i_lines = layout.code_lines(&[Block::TransferWord]).len() as u64;
        assert_eq!(c, i_lines * 60 + 1 + 1 + 1 + 5 + 2 * 120);
    }

    #[test]
    fn grouped_region_costs_one_miss() {
        let layout = Layout::new();
        let m = model(false);
        // ClearLine: A(1), S(Ob,8), B -> one region, one data miss.
        let c = m.block_cost(&layout, Block::ClearLine, &HashSet::new());
        let i_lines = layout.code_lines(&[Block::ClearLine]).len() as u64;
        assert_eq!(c, i_lines * 60 + 1 + 8 + 5 + 120);
    }

    #[test]
    fn stack_and_globals_hit_only_when_pinned() {
        let layout = Layout::new();
        let unpinned = model(false);
        let mut pinned = model(false);
        pinned.pinned_d = rt_kernel::pinning::pinned_dcache_lines()
            .into_iter()
            .collect();
        let cu = unpinned.block_cost(&layout, Block::SwiEntry, &HashSet::new());
        let cp = pinned.block_cost(&layout, Block::SwiEntry, &HashSet::new());
        assert!(
            cu > cp,
            "pinning the stack/globals must reduce SwiEntry: {cu} vs {cp}"
        );
    }

    #[test]
    fn l2_on_is_more_pessimistic() {
        let layout = Layout::new();
        let off = model(false);
        let on = model(true);
        for &b in Block::ALL {
            assert!(
                on.block_cost(&layout, b, &HashSet::new())
                    >= off.block_cost(&layout, b, &HashSet::new()),
                "{b:?}"
            );
        }
    }

    #[test]
    fn split_costs_partition_the_totals() {
        let layout = Layout::new();
        for (l2, locked) in [(false, false), (true, false), (true, true)] {
            let m = CostModel {
                l2,
                l2_kernel_locked: locked,
                ..CostModel::default()
            };
            assert_eq!(m.ifetch_miss_split().total(), m.ifetch_miss());
            assert_eq!(m.data_miss_split().total(), m.data_miss());
            assert_eq!(m.static_data_miss_split().total(), m.static_data_miss());
            // The l2 bucket exists only where an L2 absorbs L1 victims.
            assert_eq!(m.ifetch_miss_split().l2, 0, "I-lines are clean");
            assert_eq!(m.data_miss_split().l2 > 0, l2 || locked);
            for &b in Block::ALL {
                let split = m.block_cost_split(&layout, b, &HashSet::new());
                assert_eq!(
                    split.total(),
                    m.block_cost(&layout, b, &HashSet::new()),
                    "{b:?}"
                );
            }
        }
    }

    #[test]
    fn single_block_loops_are_persistent() {
        let layout = Layout::new();
        let lines = i_lines_of(&layout, &[Block::ResolveLevel]);
        assert!(loop_lines_persistent(&lines));
        // Two lines 4 KiB apart collide in the one-way model.
        let conflicting: HashSet<Addr> = [0xf000_0000u32, 0xf000_1000].into_iter().collect();
        assert!(!loop_lines_persistent(&conflicting));
    }
}
