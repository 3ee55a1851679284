//! # rt-kernel — an event-based protected microkernel with bounded
//! interrupt response
//!
//! This crate reproduces the system studied in Blackham, Shi & Heiser,
//! *Improving Interrupt Response Time in a Verifiable Protected
//! Microkernel* (EuroSys 2012): an seL4-style third-generation microkernel
//! that
//!
//! * is **event-based** — one kernel stack, no in-kernel preemption except
//!   at explicit *preemption points* (§2);
//! * runs with **interrupts disabled** for the whole of every kernel entry,
//!   polling for pending interrupts only at preemption points and on kernel
//!   exit (§2.1);
//! * makes preempted operations **restartable system calls**: progress is
//!   stored in the affected *objects* (incremental consistency), never in a
//!   per-thread continuation, so re-executing the trapped system call
//!   resumes the operation (§2.1, §3.4);
//! * manages all authority through **capabilities** held in guarded-decode
//!   CNodes, with a derivation tree supporting revocation (§3.6, Fig. 7);
//! * delegates **all memory allocation to userspace** via untyped retype
//!   (§3) — the kernel only checks and clears.
//!
//! Both the *before* and *after* designs from the paper are implemented and
//! selected by [`KernelConfig`]:
//!
//! | Area | before (§ ref) | after (§ ref) |
//! |---|---|---|
//! | Scheduler | lazy scheduling (§3.1, Fig. 2) | Benno scheduling + 2-level priority bitmap with CLZ (§3.1–3.2, Fig. 3) |
//! | Endpoint delete | drain queue in one go | preemption point per dequeued thread (§3.3) |
//! | Badged abort | scan whole queue in one go | preemption point per element with the 4-tuple resume state stored in the endpoint (§3.4) |
//! | Object creation | clear inside the creation path | clear first, preemptible at 1 KiB, progress stored in the object (§3.5) |
//! | Address spaces | ASID lookup table, lazy deletion, unpreemptible pool scans (§3.6, Fig. 4) | shadow page tables, eager back-pointers, preemptible deletion (§3.6, Fig. 5) |
//!
//! The kernel executes on the [`rt_hw::Machine`] timing model: every
//! instruction fetch and data access of every kernel path is charged through
//! the modelled caches, so measured cycle counts respond to cache pinning,
//! L2 configuration and branch prediction exactly as the paper's measured
//! numbers do. The per-path instruction sequences live in [`kprog`] as data
//! tables that double as the control-flow model consumed by the static WCET
//! analysis in `rt-wcet` — the analogue of analysing the compiled binary
//! that is actually executed (§5).
//!
//! For the §6-style cost attribution the kernel also *narrates* its
//! execution: it emits phase markers into the machine's trace sink
//! (capability decode, fastpath commit, preemption-point checks,
//! endpoint-deletion and badged-abort resume steps — the vocabulary is in
//! `docs/TRACING.md`) and can keep an optional per-block count/cycle
//! profile ([`kernel::Kernel::start_profile`], [`kernel::BlockStat`]).
//! Both are off by default and free when off, so Table 1/2 measurements
//! are unaffected.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cap;
pub mod cnode;
pub mod decision;
pub mod ep;
pub mod fastpath;
pub mod invariants;
pub mod irqk;
pub mod kernel;
pub mod kprog;
pub mod ntfn;
pub mod obj;
pub mod pinning;
pub mod preempt;
pub mod sched;
pub mod smp;
pub mod syscall;
pub mod system;
pub mod tcb;
pub mod testutil;
pub mod untyped;
pub mod vspace;

pub use cap::{Badge, Cap, CapType, Rights, SlotRef};
pub use kernel::{EntryPoint, Kernel, KernelConfig, SchedKind, VmKind};
pub use obj::{ObjId, ObjKind};
pub use preempt::{PreemptResult, Preempted};
pub use syscall::{Syscall, SyscallResult};
pub use system::{Action, System, ThreadScript};

/// Maximum number of threads the analysis assumes can exist — in the real
/// system this is bounded by physical memory (§3.3: the endpoint queue is
/// "limited by the number of threads in the system, which is limited by the
/// amount of physical memory"). 128 MiB of RAM at a 512-byte TCB plus
/// associated state supports a few thousand threads; the static analysis of
/// the *before* kernel uses this as the loop bound for unpreemptible queue
/// walks.
pub const MAX_THREADS: u32 = 4096;

/// Number of thread priorities (§3.2).
pub const NUM_PRIOS: u32 = 256;

/// Size of a capability slot in bytes (§3.6: "seL4 caps are 16 bytes").
pub const CAP_SLOT_BYTES: u32 = 16;

/// Preemptible clearing/copying granularity in bytes (§3.5: "we made all
/// other block copy and clearing operations in seL4 preempt at multiples of
/// 1 KiB").
pub const CLEAR_CHUNK_BYTES: u32 = 1024;

/// Maximum message length in 32-bit words for a full IPC transfer.
pub const MAX_MSG_WORDS: u32 = 120;

/// Maximum number of capabilities transferable in one IPC.
pub const MAX_XFER_CAPS: u32 = 3;

/// Depth of the capability address space in bits; a pathological capability
/// space requires one lookup per bit (§6.1, Fig. 7).
pub const CSPACE_DEPTH_BITS: u32 = 32;

/// Indices of the set bits of `words`, 32 bits per word, ascending: the
/// walk shared by the run queues' non-empty bitmap and the invariant
/// checks that read it.
pub(crate) fn set_bits(words: impl IntoIterator<Item = u32>) -> impl Iterator<Item = u32> {
    words.into_iter().enumerate().flat_map(|(w, word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let i = w as u32 * 32 + bits.trailing_zeros();
            bits &= bits - 1;
            Some(i)
        })
    })
}
