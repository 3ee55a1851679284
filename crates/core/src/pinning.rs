//! Cache pinning (§4).
//!
//! "We modified seL4 to pin specific cache lines into the L1 caches so that
//! these cache lines would not be evicted. We selected the interrupt
//! delivery path, along with some commonly accessed memory regions to be
//! permanently pinned ... A total of 118 instruction cache lines were
//! pinned, along with the first 256 bytes of stack memory and some key
//! data regions."
//!
//! [`apply_pinning`] locks the same three sets into the machine's locked
//! ways; the static analysis reads the identical sets through
//! [`pinned_icache_lines`] / [`pinned_dcache_lines`], so computed and
//! observed numbers see the same pinning.

use rt_hw::Addr;

use crate::kernel::Kernel;
use crate::kprog::{
    self, Layout, KERNEL_GLOBALS_BASE, KERNEL_GLOBALS_SPAN, KERNEL_STACK_SPAN, KERNEL_STACK_TOP,
};

/// What was pinned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PinReport {
    /// Instruction-cache lines pinned (the interrupt delivery path).
    pub icache_lines: usize,
    /// Data-cache lines pinned (stack head + key globals).
    pub dcache_lines: usize,
    /// Lines that did not fit in the locked ways (0 in a correct setup).
    pub rejected: usize,
}

/// The pinned instruction lines: every line of the interrupt delivery
/// path's code (§4).
pub fn pinned_icache_lines(layout: &Layout) -> Vec<Addr> {
    layout.code_lines(&kprog::interrupt_path_blocks())
}

/// The pinned data lines: the first 256 bytes of kernel stack and the key
/// global data region (§4).
pub fn pinned_dcache_lines() -> Vec<Addr> {
    let mut lines = Vec::new();
    let stack_base = KERNEL_STACK_TOP - KERNEL_STACK_SPAN;
    for i in 0..(KERNEL_STACK_SPAN / 32) {
        lines.push(stack_base + 32 * i);
    }
    for i in 0..(KERNEL_GLOBALS_SPAN / 32) {
        lines.push(KERNEL_GLOBALS_BASE + 32 * i);
    }
    lines
}

/// Pins the §4 working set into the machine's locked ways.
///
/// # Panics
///
/// Panics if the machine was built without locked ways
/// (`HwConfig::locked_l1_ways == 0`) — pinning needs somewhere to pin.
pub fn apply_pinning(k: &mut Kernel) -> PinReport {
    assert!(
        k.machine.config().locked_l1_ways > 0,
        "apply_pinning requires locked L1 ways (HwConfig::locked_l1_ways)"
    );
    let mut rejected = 0;
    let ilines = pinned_icache_lines(&k.layout);
    for &l in &ilines {
        if !k.machine.pin_icache(l) {
            rejected += 1;
        }
    }
    let dlines = pinned_dcache_lines();
    for &l in &dlines {
        if !k.machine.pin_dcache(l) {
            rejected += 1;
        }
    }
    PinReport {
        icache_lines: ilines.len(),
        dcache_lines: dlines.len(),
        rejected,
    }
}

/// Locks the *entire kernel* — every code line plus the stack head and key
/// globals — into the L2's locked ways: the extension the paper proposes in
/// §4/§8 ("our compiled seL4 binary is 36 KiB, and so it would be possible
/// to lock the entire seL4 microkernel into the L2 cache. Doing so would
/// drastically reduce execution time ... whilst also reducing
/// non-determinism, resulting in a tighter upper bound").
///
/// # Panics
///
/// Panics if the machine was built without locked L2 ways.
pub fn apply_l2_kernel_lock(k: &mut Kernel) -> PinReport {
    assert!(
        k.machine.config().locked_l2_ways > 0,
        "apply_l2_kernel_lock requires locked L2 ways (HwConfig::locked_l2_ways)"
    );
    let mut rejected = 0;
    let ilines = k.layout.code_lines(crate::kprog::Block::ALL);
    for &l in &ilines {
        if !k.machine.pin_l2(l) {
            rejected += 1;
        }
    }
    let dlines = pinned_dcache_lines();
    for &l in &dlines {
        if !k.machine.pin_l2(l) {
            rejected += 1;
        }
    }
    PinReport {
        icache_lines: ilines.len(),
        dcache_lines: dlines.len(),
        rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelConfig;
    use rt_hw::HwConfig;

    #[test]
    fn pinned_set_fits_one_locked_way() {
        let hw = HwConfig {
            locked_l1_ways: 1,
            ..HwConfig::default()
        };
        let mut k = Kernel::new(KernelConfig::after(), hw);
        let report = apply_pinning(&mut k);
        assert_eq!(
            report.rejected, 0,
            "pinned set exceeds one locked way: {report:?}"
        );
        // The paper pinned 118 I-lines; our path model is the same order.
        assert!(report.icache_lines >= 10 && report.icache_lines <= 128);
        // 256 B stack (8 lines) + 1 KiB globals (32 lines).
        assert_eq!(report.dcache_lines, 8 + 32);
    }

    #[test]
    fn pinned_lines_survive_pollution() {
        let hw = HwConfig {
            locked_l1_ways: 1,
            ..HwConfig::default()
        };
        let mut k = Kernel::new(KernelConfig::after(), hw);
        apply_pinning(&mut k);
        k.machine.pollute(crate::system::POLLUTION_BASE);
        for l in pinned_icache_lines(&k.layout) {
            assert!(k.machine.mem.l1i.is_pinned(l));
        }
        for l in pinned_dcache_lines() {
            assert!(k.machine.mem.l1d.is_pinned(l));
        }
    }

    #[test]
    fn l2_kernel_lock_fits_two_ways() {
        let hw = HwConfig {
            l2_enabled: true,
            locked_l2_ways: 2,
            ..HwConfig::default()
        };
        let mut k = Kernel::new(KernelConfig::after(), hw);
        let report = apply_l2_kernel_lock(&mut k);
        assert_eq!(
            report.rejected, 0,
            "whole kernel must fit two L2 ways: {report:?}"
        );
        // Polluting the caches must not evict the locked kernel lines.
        k.machine.pollute(crate::system::POLLUTION_BASE);
        for l in k.layout.code_lines(crate::kprog::Block::ALL) {
            assert!(k.machine.mem.l2.as_ref().expect("l2").is_pinned(l));
        }
    }

    #[test]
    #[should_panic(expected = "locked L2 ways")]
    fn l2_lock_without_locked_ways_panics() {
        let hw = HwConfig {
            l2_enabled: true,
            ..HwConfig::default()
        };
        let mut k = Kernel::new(KernelConfig::after(), hw);
        let _ = apply_l2_kernel_lock(&mut k);
    }

    #[test]
    #[should_panic(expected = "locked L1 ways")]
    fn pinning_without_locked_ways_panics() {
        let mut k = Kernel::new(KernelConfig::after(), HwConfig::default());
        let _ = apply_pinning(&mut k);
    }
}
