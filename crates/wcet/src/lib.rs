//! # rt-wcet — static worst-case interrupt-response analysis
//!
//! The analysis half of the EuroSys 2012 reproduction: the machinery of §5
//! applied to the kernel "binary" defined in `rt_kernel::kprog`.
//!
//! Pipeline (mirroring the paper's use of Chronos + an ILP solver):
//!
//! 1. **Control-flow graphs** ([`mod@cfg`], [`kmodel`]): one graph per kernel
//!    entry point (system call, undefined instruction, page fault,
//!    interrupt), *virtually inlined* — every call site of a shared
//!    function (most importantly the capability decode of Fig. 7) gets its
//!    own copy of the callee's blocks, identified by a context id. Paths
//!    end where the paper says they end (§5.2): at return-to-user or at
//!    the start of the kernel's interrupt handler, which is why each
//!    **preemption point is an exit** of the graph — the after-kernel's
//!    long loops contribute only one inter-preemption segment to the
//!    interrupt-response bound.
//! 2. **Cost model** ([`cost`]): each L1 cache is modelled as a
//!    direct-mapped cache the size of one way (4 KiB), exactly the
//!    pessimistic-but-sound approximation of §5.1; data whose address is
//!    not static (kernel objects) is charged a full miss plus a dirty
//!    writeback; blocks are costed cold except for loop-persistent lines.
//!    Branches cost the constant 5 cycles of the predictor-disabled
//!    ARM1136. Pinned lines (§4) always hit.
//! 3. **Loop bounds** ([`loopbound`]): bounds for counter loops are
//!    *computed* by program slicing plus a bounded search over the slice
//!    semantics (the §5.3 technique), and cross-checked against the
//!    system parameters the graphs declare.
//! 4. **IPET** ([`ipet`]): execution counts become ILP variables; flow
//!    conservation, loop bounds and the paper's three manual-constraint
//!    forms ("conflicts with", "is consistent with", "executes n times",
//!    §5.2) become constraints; the exact solver in `rt-ilp` maximises
//!    total cost.
//!
//! The top-level driver is [`analysis::analyze`]; see
//! [`analysis::AnalysisConfig`] for the switches (kernel before/after, L2
//! on/off, pinning on/off) that regenerate the paper's tables. Sweeps over
//! many (entry, configuration) pairs should go through
//! [`analysis::analyze_batch`] (or an explicit [`cache::AnalysisCache`] +
//! `rt_pool` pool via [`analysis::analyze_batch_with`]), which dedupes
//! identical jobs, shares the immutable artifacts between configurations,
//! and fans the ILP solves out across worker threads while returning
//! reports bit-identical to serial [`analysis::analyze`] calls.
//!
//! Every cost in [`cost`] is also available *split* into the attribution
//! buckets of [`rt_hw::CycleAccounts`] (pipeline / ifetch-miss / dmiss /
//! L2-writeback), and [`analysis::WcetReport::breakdown`] folds the ILP's
//! chosen worst path over those splits — the computed half of the
//! observed-vs-computed attribution printed by `repro attribution` and
//! asserted per bucket by the soundness tests. The bucket partition and
//! its per-bucket dominance argument are documented in `docs/TRACING.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cache;
pub mod cfg;
pub mod cost;
pub mod ipet;
pub mod kmodel;
pub mod loopbound;
pub mod smp;

pub use analysis::{
    analyze, analyze_batch, analyze_batch_bounds_with, analyze_batch_with, ipet_ilp, ipet_ilp_with,
    AnalysisConfig, WcetReport,
};
pub use cache::{AnalysisCache, CacheStats, MemoStats, ResolveStats};
pub use cfg::{Cfg, CfgBuilder, NodeId, UserConstraint};
pub use smp::{smp_irq_line_bounds, smp_latency_margin, SmpParams};
