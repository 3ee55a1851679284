//! # rt-hw — an ARM1136/i.MX31-like machine timing model
//!
//! This crate is the hardware substrate for the EuroSys 2012 reproduction
//! (Blackham, Shi & Heiser, *Improving Interrupt Response Time in a
//! Verifiable Protected Microkernel*). The paper's evaluation platform is a
//! Freescale i.MX31 (ARM1136 core, 532 MHz) on a KZM board; we do not have
//! that board, so this crate models the parts of it that the paper's numbers
//! depend on (§5.1):
//!
//! * split L1 instruction/data caches, 16 KiB each, 4-way set-associative,
//!   32-byte lines, round-robin or pseudo-random replacement, and the
//!   ability to **lock complete cache ways** (the mechanism behind the
//!   paper's cache pinning, §4);
//! * an optional unified 128 KiB 8-way L2 cache with a 26-cycle hit latency;
//! * main memory at 60 cycles when the L2 is disabled and 96 cycles when it
//!   is enabled (the disparity that makes enabling the L2 *hurt* cold-cache
//!   worst cases, Fig. 9);
//! * a branch unit that costs a constant 5 cycles per branch with the
//!   predictor disabled, and 0–7 cycles with it enabled (§5.1);
//! * a performance monitoring unit (cycle counter + event counts) standing
//!   in for the ARM1136 PMU the paper measures with;
//! * an interrupt controller with a programmable firing schedule, so
//!   workloads can inject device interrupts at arbitrary points.
//!
//! Software built on this crate (the microkernel in `rt-kernel`) charges
//! every instruction fetch and every data access through [`Machine`], so
//! execution times emerge from path length and memory-hierarchy behaviour —
//! the same two quantities the paper studies — rather than from wall-clock
//! measurement of the host.
//!
//! For the §6-style cost attribution, every charged cycle is additionally
//! filed into one of four buckets ([`trace::CycleAccounts`], always on)
//! and an optional [`trace::Trace`] sink records per-access, per-branch
//! and phase-marker events ([`trace::TraceEvent`]); see `docs/TRACING.md`
//! for the event vocabulary and how the observed breakdown lines up with
//! the analysis side in `rt-wcet`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod cache;
pub mod irq;
pub mod machine;
pub mod mem;
pub mod phys;
pub mod pmu;
pub mod predictor;
pub mod smp;
pub mod trace;

pub use block::{LoweredBlock, Op, OpKind, Operand};
pub use cache::{Cache, CacheGeometry, Replacement};
pub use irq::{IrqController, IrqLine};
pub use machine::{HwConfig, InstrClass, Machine};
pub use mem::{AccessKind, MemLevelStats, MemSystem};
pub use phys::PhysMem;
pub use pmu::Pmu;
pub use predictor::BranchPredictor;
pub use smp::{CoreCtx, IrqRouting};
pub use trace::{AccessReport, BranchOutcome, Bucket, CycleAccounts, Trace, TraceEvent};

/// Cycle count type used throughout the workspace.
pub type Cycles = u64;

/// Physical / virtual address type (the modelled machine is 32-bit ARM).
pub type Addr = u32;

/// Clock frequency of the modelled i.MX31 (532 MHz), used to convert cycle
/// counts to the microsecond figures the paper reports.
pub const CPU_HZ: u64 = 532_000_000;

/// Converts a cycle count to microseconds at [`CPU_HZ`].
pub fn cycles_to_us(c: Cycles) -> f64 {
    c as f64 / (CPU_HZ as f64 / 1_000_000.0)
}

/// Converts microseconds to cycles at [`CPU_HZ`].
pub fn us_to_cycles(us: f64) -> Cycles {
    (us * (CPU_HZ as f64 / 1_000_000.0)).round() as Cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_us_round_trip() {
        // The paper: 176,851 cycles at 532 MHz = 332.4 us.
        let us = cycles_to_us(176_851);
        assert!((us - 332.4).abs() < 0.1, "got {us}");
        let c = us_to_cycles(332.4);
        assert!((c as i64 - 176_851).unsigned_abs() < 100);
    }
}
