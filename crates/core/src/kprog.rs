//! The kernel "binary": block-level code model shared by execution and
//! analysis.
//!
//! The paper's analysis "was performed on a compiled binary of the kernel"
//! (§5). We have no ARM binary, so this module plays that role: every
//! kernel operation is described as a sequence of **basic blocks**, each a
//! list of abstract instructions ([`Ik`]) laid out at concrete code
//! addresses. The same tables are used twice:
//!
//! * the **runtime** ([`crate::kernel::Kernel::blk`]) runs a block's
//!   instruction list as the Rust control flow passes through it, charging
//!   every instruction fetch and data access to the `rt_hw` machine — this
//!   is what produces *observed* execution times. Each list is lowered
//!   once, at its laid-out address, into `rt_hw` ops and their dense
//!   charge form ([`compiled`]);
//! * the **static analysis** (`rt-wcet`) walks the same lists with its
//!   pessimistic cache model and a control-flow graph over the same blocks
//!   — this is what produces *computed* bounds.
//!
//! Because both sides read one table, the analysed program *is* the
//! executed program, and the computed/observed gap that emerges is due to
//! model conservatism — the same source of pessimism the paper quantifies
//! in Fig. 8 — rather than accidental divergence.
//!
//! Data addresses are classified ([`D`]): stack and global accesses have
//! statically-known addresses (and are what §4 pins, alongside the
//! interrupt-path instruction lines — see [`interrupt_path_blocks`]);
//! object accesses ([`D::Ob`]) depend on runtime placement and are the
//! analysis's unknowable, always-miss traffic.

use std::sync::OnceLock;

use rt_hw::{Addr, CacheGeometry, LoweredBlock, Op, OpKind, Operand};

/// Kernel code is linked at the top of the virtual address space.
pub const KERNEL_CODE_BASE: Addr = 0xf000_0000;
/// Top of the single kernel stack; the paper pins "the first 256 bytes of
/// stack memory" (§4).
pub const KERNEL_STACK_TOP: Addr = 0xf010_1000;
/// Bytes of stack the model touches (kept within the pinnable 256 B).
pub const KERNEL_STACK_SPAN: u32 = 256;
/// Base of kernel global data ("some key data regions", §4).
pub const KERNEL_GLOBALS_BASE: Addr = 0xf011_0000;
/// Bytes of globals the model touches.
pub const KERNEL_GLOBALS_SPAN: u32 = 1024;
/// Modelled latency of an uncached device-register access (AVIC).
pub const DEVICE_ACCESS_CYCLES: u64 = 20;

/// Data-access class, determining how runtime picks the address and how the
/// analysis classifies the access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum D {
    /// Kernel stack (static address, pinnable).
    St,
    /// Kernel global (static address, pinnable).
    Gl,
    /// Kernel object (dynamic address — always a miss to the analysis).
    Ob,
    /// Device register (uncached, fixed latency).
    Dv,
}

/// One abstract instruction (or a run of identical ones).
///
/// **Grouping convention:** a multi-count `L`/`S` entry denotes accesses to
/// *consecutive words of one region* (e.g. a register save, a cap slot, a
/// line being cleared) — the static analysis may treat the run as touching
/// a single cache line. Accesses to *distinct* objects must be separate
/// entries, or the analysis would undercount worst-case misses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ik {
    /// `n` data-processing instructions (1 cycle each).
    A(u8),
    /// Count-leading-zeros (the §3.2 scheduler bitmap instruction).
    Z,
    /// Multiply.
    M,
    /// `n` loads of consecutive words from one region of the given class.
    L(D, u8),
    /// `n` stores of consecutive words to one region of the given class.
    S(D, u8),
    /// Branch terminating or continuing the block.
    B,
}

impl Ik {
    /// Number of machine instructions this entry expands to.
    pub fn count(self) -> u32 {
        match self {
            Ik::A(n) | Ik::L(_, n) | Ik::S(_, n) => n as u32,
            Ik::Z | Ik::M | Ik::B => 1,
        }
    }
}

/// Kernel functions — the units of code layout (each gets a contiguous,
/// line-aligned code region).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum KFn {
    Entry,
    Exit,
    Dispatch,
    Resolve,
    EpSend,
    EpRecv,
    Transfer,
    Wake,
    Sched,
    CtxSw,
    Irq,
    Preempt,
    EpDelete,
    Abort,
    Retype,
    Vspace,
    Fault,
    Fastpath,
    TcbOps,
    CNodeOps,
    NtfnOps,
}

/// Basic blocks of the kernel. Grouped by function; the comments give the
/// paper hook for the interesting ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Block {
    // --- KFn::Entry: exception vectors (context save) ---
    SwiEntry,
    UndefEntry,
    PfEntry,
    IrqEntry,
    // --- KFn::Exit ---
    /// Final pending-interrupt check before returning to user (§2.1).
    KExitCheck,
    ExitRestore,
    // --- KFn::Dispatch: syscall decode (the cap-type switch of Fig. 6) ---
    DispatchStart,
    DispatchSwitch,
    CaseEp,
    CaseCNode,
    CaseUntyped,
    CaseTcb,
    CaseVspace,
    CaseIrq,
    CaseNtfn,
    CaseReply,
    // --- KFn::Resolve: capability-space decode (Fig. 7) ---
    ResolveEntry,
    /// Per-level lookup: up to 32 per decode (§6.1).
    ResolveLevel,
    ResolveFinish,
    // --- KFn::EpSend / EpRecv: slow-path IPC ---
    SendCheck,
    SendEnqueue,
    SendDequeueRecv,
    RecvCheck,
    RecvEnqueue,
    RecvDequeueSend,
    // --- KFn::Transfer: message and capability transfer ---
    TransferSetup,
    /// Per message word; up to [`crate::MAX_MSG_WORDS`].
    TransferWord,
    TransferBadge,
    /// Per transferred cap (after a Resolve); up to
    /// [`crate::MAX_XFER_CAPS`].
    CapXferOne,
    ReplyXfer,
    // --- KFn::Wake: making threads runnable ---
    WakeThread,
    /// Benno scheduling's direct switch (§3.1): the woken thread runs
    /// immediately and is never enqueued.
    DirectSwitch,
    EnqueueThread,
    DequeueThread,
    /// §3.2 bitmap maintenance.
    BitmapSet,
    BitmapClear,
    // --- KFn::Sched: chooseThread ---
    /// Lazy scheduling (Fig. 2): per queue element examined.
    SchedLazyIter,
    /// Lazy scheduling: per blocked thread dequeued — the unbounded work.
    SchedLazyDequeue,
    /// Priority-scan step (Fig. 3 and the lazy outer loop).
    SchedPrioScan,
    /// §3.2: two loads + two CLZ; no loop.
    SchedBitmap,
    SchedCommit,
    SchedIdle,
    // --- KFn::CtxSw ---
    CtxSwitch,
    // --- KFn::Irq: interrupt delivery ---
    IrqGet,
    IrqLookup,
    IrqSignal,
    IrqAck,
    IrqSpurious,
    // --- KFn::Preempt: preemption points (§2.1) ---
    PreemptCheck,
    PreemptSave,
    // --- KFn::EpDelete (§3.3) ---
    EpDelSetup,
    /// Per dequeued waiter; preemption point after each (§3.3).
    EpDelIter,
    EpDelFinish,
    // --- KFn::Abort: badged abort (§3.4) ---
    /// Writes the four-field resume state into the endpoint.
    AbortSetup,
    /// Per examined waiter; preemption point after each.
    AbortIter,
    AbortRemove,
    AbortFinish,
    // --- KFn::Retype: object creation (§3.5) ---
    RetypeCheck,
    /// Clears one 32-byte line; 32 of these per 1 KiB preemptible chunk.
    ClearLine,
    RetypeCreateObj,
    RetypeFinish,
    /// Copies one line of the kernel global mappings into a new page
    /// directory; 32 of these per creation, unpreemptible (§3.5: ~20 µs).
    PdCopyLine,
    // --- KFn::Vspace (§3.6) ---
    MapFrameCheck,
    MapFrameCommit,
    UnmapFrame,
    /// Per entry of a preemptible address-space teardown (shadow design).
    VsDelIter,
    VsDelFinish,
    /// Per slot of the unpreemptible free-ASID scan (legacy design).
    AsidAllocIter,
    /// Per entry of the unpreemptible ASID-pool deletion (legacy design).
    AsidPoolDelIter,
    AsidResolve,
    TlbFlush,
    // --- KFn::Fault ---
    FaultSetup,
    /// Per word of the fault message.
    FaultMsgWord,
    // --- KFn::Fastpath (§6.1: 200–250 cycles) ---
    FastpathCheck,
    FastpathXfer,
    FastpathCommit,
    // --- KFn::TcbOps / CNodeOps / NtfnOps ---
    TcbInvoke,
    CNodeCopy,
    CNodeDelete,
    /// Per revoked descendant.
    RevokeIter,
    NtfnSignalOp,
    NtfnWaitOp,
}

/// Specification of one block: owning function and instruction list.
#[derive(Clone, Copy, Debug)]
pub struct BlockSpec {
    /// Function this block belongs to (code layout unit).
    pub func: KFn,
    /// Instruction sequence.
    pub instrs: &'static [Ik],
}

impl BlockSpec {
    /// Total machine instructions in the block.
    pub fn instr_count(&self) -> u32 {
        self.instrs.iter().map(|i| i.count()).sum()
    }

    /// Number of object-class data operands the runtime must supply.
    pub fn obj_ops(&self) -> u32 {
        self.instrs
            .iter()
            .map(|i| match i {
                Ik::L(D::Ob, n) | Ik::S(D::Ob, n) => *n as u32,
                _ => 0,
            })
            .sum()
    }

    /// Code bytes occupied (4 bytes per instruction).
    pub fn code_bytes(&self) -> u32 {
        self.instr_count() * 4
    }
}

use Ik::{A, B, L, M, S, Z};
use D::{Dv, Gl, Ob, St};

impl Block {
    /// Every block, in code-layout order.
    pub const ALL: &'static [Block] = &[
        Block::SwiEntry,
        Block::UndefEntry,
        Block::PfEntry,
        Block::IrqEntry,
        Block::KExitCheck,
        Block::ExitRestore,
        Block::DispatchStart,
        Block::DispatchSwitch,
        Block::CaseEp,
        Block::CaseCNode,
        Block::CaseUntyped,
        Block::CaseTcb,
        Block::CaseVspace,
        Block::CaseIrq,
        Block::CaseNtfn,
        Block::CaseReply,
        Block::ResolveEntry,
        Block::ResolveLevel,
        Block::ResolveFinish,
        Block::SendCheck,
        Block::SendEnqueue,
        Block::SendDequeueRecv,
        Block::RecvCheck,
        Block::RecvEnqueue,
        Block::RecvDequeueSend,
        Block::TransferSetup,
        Block::TransferWord,
        Block::TransferBadge,
        Block::CapXferOne,
        Block::ReplyXfer,
        Block::WakeThread,
        Block::DirectSwitch,
        Block::EnqueueThread,
        Block::DequeueThread,
        Block::BitmapSet,
        Block::BitmapClear,
        Block::SchedLazyIter,
        Block::SchedLazyDequeue,
        Block::SchedPrioScan,
        Block::SchedBitmap,
        Block::SchedCommit,
        Block::SchedIdle,
        Block::CtxSwitch,
        Block::IrqGet,
        Block::IrqLookup,
        Block::IrqSignal,
        Block::IrqAck,
        Block::IrqSpurious,
        Block::PreemptCheck,
        Block::PreemptSave,
        Block::EpDelSetup,
        Block::EpDelIter,
        Block::EpDelFinish,
        Block::AbortSetup,
        Block::AbortIter,
        Block::AbortRemove,
        Block::AbortFinish,
        Block::RetypeCheck,
        Block::ClearLine,
        Block::RetypeCreateObj,
        Block::RetypeFinish,
        Block::PdCopyLine,
        Block::MapFrameCheck,
        Block::MapFrameCommit,
        Block::UnmapFrame,
        Block::VsDelIter,
        Block::VsDelFinish,
        Block::AsidAllocIter,
        Block::AsidPoolDelIter,
        Block::AsidResolve,
        Block::TlbFlush,
        Block::FaultSetup,
        Block::FaultMsgWord,
        Block::FastpathCheck,
        Block::FastpathXfer,
        Block::FastpathCommit,
        Block::TcbInvoke,
        Block::CNodeCopy,
        Block::CNodeDelete,
        Block::RevokeIter,
        Block::NtfnSignalOp,
        Block::NtfnWaitOp,
    ];

    /// The block's specification.
    pub fn spec(self) -> BlockSpec {
        macro_rules! b {
            ($f:ident, $($i:expr),+ $(,)?) => {
                BlockSpec { func: KFn::$f, instrs: &[$($i),+] }
            };
        }
        match self {
            // Exception vectors: save a trap frame to the kernel stack and
            // load the current-thread pointer.
            Block::SwiEntry => b!(Entry, A(2), S(St, 12), L(Gl, 1), A(4)),
            Block::UndefEntry => b!(Entry, A(2), S(St, 12), L(Gl, 1), A(5)),
            Block::PfEntry => b!(Entry, A(2), S(St, 12), L(Gl, 1), A(5)),
            Block::IrqEntry => b!(Entry, A(2), S(St, 12), L(Gl, 1), A(4)),
            Block::KExitCheck => b!(Exit, A(2), L(Dv, 1), B),
            Block::ExitRestore => b!(Exit, A(2), L(Gl, 1), L(Ob, 6), L(St, 10), A(2), B),
            Block::DispatchStart => b!(Dispatch, A(4), L(Ob, 2), A(4), B),
            Block::DispatchSwitch => b!(Dispatch, A(2), L(Ob, 1), A(2), B),
            Block::CaseEp => b!(Dispatch, A(3), B),
            Block::CaseCNode => b!(Dispatch, A(3), B),
            Block::CaseUntyped => b!(Dispatch, A(4), B),
            Block::CaseTcb => b!(Dispatch, A(3), B),
            Block::CaseVspace => b!(Dispatch, A(4), B),
            Block::CaseIrq => b!(Dispatch, A(3), B),
            Block::CaseNtfn => b!(Dispatch, A(3), B),
            Block::CaseReply => b!(Dispatch, A(3), B),
            Block::ResolveEntry => b!(Resolve, A(5), L(Ob, 2), A(2), B),
            // One guarded-decode level: CNode header, then the slot's two
            // words (Fig. 7: each level is another potential cache miss).
            Block::ResolveLevel => b!(Resolve, A(4), L(Ob, 1), L(Ob, 2), A(3), B),
            Block::ResolveFinish => b!(Resolve, A(3), B),
            Block::SendCheck => b!(EpSend, A(4), L(Ob, 2), A(2), B),
            // Load ep tail; store sender link fields; store ep tail; store
            // the old tail's next pointer (a different TCB).
            Block::SendEnqueue => {
                b!(
                    EpSend,
                    A(3),
                    L(Ob, 1),
                    S(Ob, 3),
                    S(Ob, 1),
                    S(Ob, 1),
                    A(2),
                    B
                )
            }
            Block::SendDequeueRecv => {
                b!(
                    EpSend,
                    A(3),
                    L(Ob, 1),
                    L(Ob, 2),
                    S(Ob, 2),
                    S(Ob, 1),
                    A(3),
                    B
                )
            }
            Block::RecvCheck => b!(EpRecv, A(4), L(Ob, 2), A(2), B),
            Block::RecvEnqueue => {
                b!(
                    EpRecv,
                    A(3),
                    L(Ob, 1),
                    S(Ob, 3),
                    S(Ob, 1),
                    S(Ob, 1),
                    A(2),
                    B
                )
            }
            Block::RecvDequeueSend => {
                b!(
                    EpRecv,
                    A(3),
                    L(Ob, 1),
                    L(Ob, 2),
                    S(Ob, 2),
                    S(Ob, 1),
                    A(3),
                    B
                )
            }
            Block::TransferSetup => b!(Transfer, A(6), L(Ob, 1), L(Ob, 1), B),
            Block::TransferWord => b!(Transfer, A(1), L(Ob, 1), S(Ob, 1), B),
            Block::TransferBadge => b!(Transfer, A(2), S(Ob, 2), B),
            Block::CapXferOne => b!(Transfer, A(6), L(Ob, 2), S(Ob, 3), A(3), B),
            Block::ReplyXfer => b!(Transfer, A(6), L(Ob, 1), L(Ob, 1), S(Ob, 3), B),
            Block::WakeThread => b!(Wake, A(3), S(Ob, 2), A(2), B),
            Block::DirectSwitch => b!(Wake, A(4), S(Gl, 1), A(2), B),
            Block::EnqueueThread => {
                b!(Wake, A(2), L(Ob, 1), S(Ob, 3), S(Ob, 1), A(2), B)
            }
            Block::DequeueThread => {
                b!(Wake, A(2), L(Ob, 2), S(Ob, 1), S(Ob, 1), S(Ob, 2), A(2), B)
            }
            Block::BitmapSet => b!(Wake, A(2), L(Gl, 1), S(Gl, 2), B),
            Block::BitmapClear => b!(Wake, A(2), L(Gl, 1), S(Gl, 2), B),
            Block::SchedLazyIter => b!(Sched, A(2), L(Ob, 1), B),
            Block::SchedLazyDequeue => {
                b!(Sched, A(2), L(Ob, 2), S(Ob, 1), S(Ob, 1), S(Ob, 2), B)
            }
            Block::SchedPrioScan => b!(Sched, A(1), L(Gl, 1), B),
            // §3.2: "using two loads and two CLZ instructions".
            Block::SchedBitmap => b!(Sched, A(2), L(Gl, 1), Z, L(Gl, 1), Z, A(2), B),
            Block::SchedCommit => b!(Sched, A(3), L(Ob, 1), S(Gl, 2), B),
            Block::SchedIdle => b!(Sched, A(2), S(Gl, 1), B),
            Block::CtxSwitch => b!(CtxSw, A(4), L(Ob, 8), S(Gl, 1), A(4), B),
            Block::IrqGet => b!(Irq, A(2), L(Dv, 1), A(2), B),
            Block::IrqLookup => b!(Irq, A(2), L(Gl, 1), A(1), B),
            Block::IrqSignal => b!(Irq, A(3), L(Ob, 2), S(Ob, 2), A(2), B),
            Block::IrqAck => b!(Irq, A(2), S(Dv, 1), B),
            Block::IrqSpurious => b!(Irq, A(2), B),
            // §2.1: a preemption point is a cheap pending-interrupt check.
            Block::PreemptCheck => b!(Preempt, A(1), L(Dv, 1), B),
            Block::PreemptSave => b!(Preempt, A(4), S(Ob, 1), S(Ob, 1), S(Gl, 1), B),
            Block::EpDelSetup => b!(EpDelete, A(3), L(Ob, 1), S(Ob, 1), B),
            Block::EpDelIter => {
                b!(
                    EpDelete,
                    A(3),
                    L(Ob, 1),
                    L(Ob, 1),
                    S(Ob, 2),
                    S(Ob, 1),
                    A(2),
                    B
                )
            }
            Block::EpDelFinish => b!(EpDelete, A(2), S(Ob, 1), B),
            // §3.4: store the four resume fields in the endpoint.
            Block::AbortSetup => b!(Abort, A(4), L(Ob, 2), S(Ob, 4), B),
            Block::AbortIter => b!(Abort, A(4), L(Ob, 3), A(2), B),
            Block::AbortRemove => b!(Abort, A(2), S(Ob, 1), S(Ob, 1), S(Ob, 2), A(1), B),
            Block::AbortFinish => b!(Abort, A(2), S(Ob, 2), B),
            Block::RetypeCheck => b!(Retype, A(8), L(Ob, 2), A(4), B),
            Block::ClearLine => b!(Retype, A(1), S(Ob, 8), B),
            Block::RetypeCreateObj => b!(Retype, A(6), S(Ob, 3), S(Ob, 2), A(3), B),
            Block::RetypeFinish => b!(Retype, A(3), S(Ob, 2), B),
            Block::PdCopyLine => b!(Retype, A(1), L(Gl, 2), S(Ob, 8), B),
            Block::MapFrameCheck => b!(Vspace, A(6), L(Ob, 2), L(Ob, 1), A(3), B),
            Block::MapFrameCommit => {
                b!(Vspace, A(3), S(Ob, 1), S(Ob, 1), S(Ob, 1), A(2), B)
            }
            Block::UnmapFrame => {
                b!(
                    Vspace,
                    A(4),
                    L(Ob, 2),
                    S(Ob, 1),
                    S(Ob, 1),
                    S(Ob, 1),
                    A(2),
                    B
                )
            }
            Block::VsDelIter => {
                b!(
                    Vspace,
                    A(3),
                    L(Ob, 1),
                    L(Ob, 1),
                    S(Ob, 1),
                    S(Ob, 1),
                    A(2),
                    B
                )
            }
            Block::VsDelFinish => b!(Vspace, A(2), S(Ob, 1), B),
            Block::AsidAllocIter => b!(Vspace, A(2), L(Ob, 1), B),
            Block::AsidPoolDelIter => {
                b!(Vspace, A(3), L(Ob, 1), S(Ob, 1), S(Ob, 1), A(2), B)
            }
            Block::AsidResolve => b!(Vspace, A(2), L(Gl, 1), L(Ob, 1), A(1), B),
            Block::TlbFlush => b!(Vspace, A(2), S(Dv, 1), A(6), B),
            Block::FaultSetup => b!(Fault, A(6), L(Ob, 1), L(Ob, 1), A(3), B),
            Block::FaultMsgWord => b!(Fault, A(1), S(Ob, 1), B),
            Block::FastpathCheck => {
                b!(Fastpath, A(40), L(Ob, 2), L(Ob, 2), L(Ob, 2), A(4), B)
            }
            Block::FastpathXfer => b!(Fastpath, A(16), L(Ob, 4), S(Ob, 4), B),
            Block::FastpathCommit => {
                b!(Fastpath, A(56), M, S(Ob, 4), S(Ob, 4), S(Gl, 2), A(4), B)
            }
            Block::TcbInvoke => b!(TcbOps, A(10), L(Ob, 2), S(Ob, 4), B),
            Block::CNodeCopy => b!(CNodeOps, A(8), L(Ob, 2), S(Ob, 3), A(2), B),
            Block::CNodeDelete => b!(CNodeOps, A(6), L(Ob, 2), S(Ob, 2), B),
            Block::RevokeIter => b!(CNodeOps, A(4), L(Ob, 2), S(Ob, 2), B),
            Block::NtfnSignalOp => b!(NtfnOps, A(4), L(Ob, 2), S(Ob, 2), B),
            Block::NtfnWaitOp => b!(NtfnOps, A(4), L(Ob, 2), S(Ob, 2), B),
        }
    }

    /// Stable index of the block (position in [`Block::ALL`], which
    /// lists the blocks in declaration order).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Code layout: the concrete address of every block.
#[derive(Clone, Debug)]
pub struct Layout {
    /// Indexed by [`Block::index`].
    addr: Vec<Addr>,
    code_end: Addr,
}

impl Layout {
    /// Lays out [`Block::ALL`] from [`KERNEL_CODE_BASE`], aligning each
    /// function's first block to a cache line (as a linker would).
    pub fn new() -> Layout {
        let mut addr = Vec::with_capacity(Block::ALL.len());
        let mut cur = KERNEL_CODE_BASE;
        let mut last_fn = None;
        for &b in Block::ALL {
            let spec = b.spec();
            if last_fn != Some(spec.func) {
                cur = (cur + 31) & !31;
                last_fn = Some(spec.func);
            }
            assert_eq!(b.index(), addr.len(), "{b:?} out of order in ALL");
            addr.push(cur);
            cur += spec.code_bytes();
        }
        Layout {
            addr,
            code_end: cur,
        }
    }

    /// Address of a block's first instruction.
    pub fn addr_of(&self, b: Block) -> Addr {
        self.addr[b.index()]
    }

    /// Total kernel code size in bytes.
    pub fn code_size(&self) -> u32 {
        self.code_end - KERNEL_CODE_BASE
    }

    /// All 32-byte instruction lines occupied by `blocks` (for cache
    /// pinning, §4).
    pub fn code_lines(&self, blocks: &[Block]) -> Vec<Addr> {
        let mut lines = Vec::new();
        for &b in blocks {
            let start = self.addr_of(b);
            let end = start + b.spec().code_bytes();
            let mut line = start & !31;
            while line < end {
                if !lines.contains(&line) {
                    lines.push(line);
                }
                line += 32;
            }
        }
        lines.sort_unstable();
        lines
    }
}

impl Default for Layout {
    fn default() -> Layout {
        Layout::new()
    }
}

/// A block lowered to rt-hw ops at its laid-out address.
#[derive(Debug)]
pub struct CompiledBlock {
    /// The ops, in execution order, and their dense charge form, for
    /// [`rt_hw::Machine::run_block`].
    pub lowered: LoweredBlock,
    /// Object operands the ops read: [`BlockSpec::obj_ops`].
    pub obj_ops: u32,
}

/// `b` lowered to rt-hw ops and their charge form. Every block is
/// lowered once per process into one table: [`Layout::new`] takes no input, so the table never
/// varies.
pub fn compiled(b: Block) -> &'static CompiledBlock {
    static PROGRAM: OnceLock<Vec<CompiledBlock>> = OnceLock::new();
    let program = PROGRAM.get_or_init(|| {
        let layout = Layout::new();
        Block::ALL.iter().map(|&b| lower(&layout, b)).collect()
    });
    &program[b.index()]
}

/// Lowers `b`'s instruction list, as laid out by `layout`. ALU runs are
/// split at L1I line boundaries; stack and global operands get their
/// addresses here, object operands their index into the runtime's list.
/// [`LoweredBlock::new`] builds the charge form from the ops.
fn lower(layout: &Layout, b: Block) -> CompiledBlock {
    let line = CacheGeometry::L1.line;
    let mut ops = Vec::new();
    let mut last_line = None;
    // Appends an op at `pc`, probing the L1I unless `pc` lies in the line
    // the previous instruction was fetched from.
    let mut push = |pc: Addr, kind: OpKind| {
        let l = pc & !(line - 1);
        ops.push(Op {
            pc,
            fetch: last_line != Some(l),
            kind,
        });
        last_line = Some(l);
    };
    let mut pc = layout.addr_of(b);
    let mut obj = 0u32;
    let mut auto_i = 0u32; // index for stack/global slot assignment
    for &ik in b.spec().instrs {
        match ik {
            Ik::A(n) => {
                let mut left = u32::from(n);
                while left > 0 {
                    let run = ((line - (pc & (line - 1))) / 4).min(left);
                    push(pc, OpKind::Alu(run));
                    pc += 4 * run;
                    left -= run;
                }
            }
            Ik::Z | Ik::M | Ik::B => {
                let kind = match ik {
                    Ik::Z => OpKind::Clz,
                    Ik::M => OpKind::Mul,
                    _ => OpKind::Branch(true),
                };
                push(pc, kind);
                pc += 4;
            }
            Ik::L(d, n) | Ik::S(d, n) => {
                let data = |o| match ik {
                    Ik::L(..) => OpKind::Load(o),
                    _ => OpKind::Store(o),
                };
                for _ in 0..n {
                    let kind = match d {
                        D::Ob => data(Operand::Obj(post_inc(&mut obj))),
                        D::St => data(Operand::At(stack_addr(post_inc(&mut auto_i)))),
                        D::Gl => data(Operand::At(global_addr(b, post_inc(&mut auto_i)))),
                        // Uncached device register: fixed latency.
                        D::Dv => OpKind::Device(DEVICE_ACCESS_CYCLES as u32 - 1),
                    };
                    push(pc, kind);
                    pc += 4;
                }
            }
        }
    }
    CompiledBlock {
        lowered: LoweredBlock::new(ops),
        obj_ops: obj,
    }
}

/// Returns `*i` and increments it.
fn post_inc(i: &mut u32) -> u32 {
    *i += 1;
    *i - 1
}

/// Address of the stack slot used by the `i`-th stack operand of a block
/// (rotates within the pinned first 256 bytes below the stack top).
fn stack_addr(op_index: u32) -> Addr {
    KERNEL_STACK_TOP - KERNEL_STACK_SPAN + 4 * (op_index % (KERNEL_STACK_SPAN / 4))
}

/// Address of the global variable used by the `i`-th global operand of
/// `block` (a deterministic per-block slot within the key data region).
fn global_addr(block: Block, op_index: u32) -> Addr {
    let slot = (block.index() as u32 * 7 + op_index) % (KERNEL_GLOBALS_SPAN / 4);
    KERNEL_GLOBALS_BASE + 4 * slot
}

/// The blocks making up the interrupt delivery path — the pinned set of §4
/// ("we selected the interrupt delivery path, along with some commonly
/// accessed memory regions, to be permanently pinned").
pub fn interrupt_path_blocks() -> Vec<Block> {
    vec![
        Block::IrqEntry,
        Block::IrqGet,
        Block::IrqLookup,
        Block::IrqSignal,
        Block::IrqAck,
        Block::IrqSpurious,
        Block::WakeThread,
        Block::DirectSwitch,
        Block::EnqueueThread,
        Block::DequeueThread,
        Block::BitmapSet,
        Block::BitmapClear,
        Block::SchedBitmap,
        Block::SchedPrioScan,
        Block::SchedCommit,
        Block::SchedIdle,
        Block::CtxSwitch,
        Block::PreemptCheck,
        Block::PreemptSave,
        Block::KExitCheck,
        Block::ExitRestore,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_has_a_spec_and_address() {
        let layout = Layout::new();
        for &b in Block::ALL {
            let spec = b.spec();
            assert!(spec.instr_count() > 0, "{b:?} empty");
            let addr = layout.addr_of(b);
            assert!(addr >= KERNEL_CODE_BASE);
            assert_eq!(addr % 4, 0);
        }
    }

    #[test]
    fn block_index_is_position_in_all() {
        // `Layout` stores addresses in a vector indexed by `Block::index`.
        for (i, &b) in Block::ALL.iter().enumerate() {
            assert_eq!(b.index(), i, "{b:?}");
        }
        assert_eq!(Block::ALL.len(), Block::NtfnWaitOp.index() + 1);
    }

    #[test]
    fn blocks_do_not_overlap() {
        let layout = Layout::new();
        let mut spans: Vec<(Addr, Addr)> = Block::ALL
            .iter()
            .map(|&b| {
                let a = layout.addr_of(b);
                (a, a + b.spec().code_bytes())
            })
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping code: {:?}", w);
        }
    }

    #[test]
    fn kernel_code_size_is_tens_of_kib() {
        // The paper's compiled seL4 binary is 36 KiB; our block model
        // should be the same order of magnitude (it models the paths, not
        // every line of C).
        let layout = Layout::new();
        let size = layout.code_size();
        assert!(size > 1024, "suspiciously small kernel: {size}");
        assert!(size < 64 * 1024, "kernel larger than expected: {size}");
    }

    #[test]
    fn scheduler_bitmap_uses_two_loads_two_clz() {
        let spec = Block::SchedBitmap.spec();
        let clz = spec.instrs.iter().filter(|i| matches!(i, Ik::Z)).count();
        let loads = spec
            .instrs
            .iter()
            .filter(|i| matches!(i, Ik::L(D::Gl, _)))
            .count();
        assert_eq!(clz, 2, "§3.2: two CLZ instructions");
        assert_eq!(loads, 2, "§3.2: two loads");
    }

    #[test]
    fn interrupt_path_fits_in_quarter_of_icache() {
        // §4: 118 instruction lines were pinned, fitting in 1/4 of the
        // 16 KiB I-cache (128 lines of one 4 KiB way). Our path must fit
        // the same budget.
        let layout = Layout::new();
        let lines = layout.code_lines(&interrupt_path_blocks());
        assert!(
            lines.len() <= 128,
            "interrupt path needs {} lines, exceeding one lockable way",
            lines.len()
        );
        assert!(lines.len() >= 10, "path suspiciously small");
    }

    #[test]
    fn stack_and_global_addresses_stay_in_pinned_regions() {
        for i in 0..256 {
            let s = stack_addr(i);
            assert!((KERNEL_STACK_TOP - KERNEL_STACK_SPAN..KERNEL_STACK_TOP).contains(&s));
        }
        for &b in Block::ALL {
            for i in 0..8 {
                let g = global_addr(b, i);
                assert!(
                    (KERNEL_GLOBALS_BASE..KERNEL_GLOBALS_BASE + KERNEL_GLOBALS_SPAN).contains(&g)
                );
            }
        }
    }

    #[test]
    fn obj_op_counting() {
        let spec = Block::ResolveLevel.spec();
        assert_eq!(spec.obj_ops(), 3);
        assert_eq!(Block::CaseEp.spec().obj_ops(), 0);
    }

    #[test]
    fn compiled_ops_cover_each_block_in_order() {
        let layout = Layout::new();
        let line_of = |a: Addr| a & !(CacheGeometry::L1.line - 1);
        for &b in Block::ALL {
            let spec = b.spec();
            let code = compiled(b);
            let mut pc = layout.addr_of(b);
            let mut last_line = None;
            let mut objs = Vec::new();
            for op in code.lowered.ops() {
                assert_eq!(op.pc, pc, "{b:?}: ops not contiguous");
                let n = op.instructions();
                assert!(n > 0, "{b:?}: empty op");
                assert_eq!(
                    line_of(pc + 4 * (n - 1)),
                    line_of(pc),
                    "{b:?}: {op:?} crosses a line"
                );
                assert_eq!(op.fetch, last_line != Some(line_of(pc)), "{b:?}: {op:?}");
                if let OpKind::Load(Operand::Obj(i)) | OpKind::Store(Operand::Obj(i)) = op.kind {
                    objs.push(i);
                }
                last_line = Some(line_of(pc));
                pc += 4 * n;
            }
            assert_eq!(
                pc,
                layout.addr_of(b) + spec.code_bytes(),
                "{b:?}: instruction count"
            );
            assert_eq!(code.obj_ops, spec.obj_ops(), "{b:?}");
            assert_eq!(
                objs,
                (0..spec.obj_ops()).collect::<Vec<_>>(),
                "{b:?}: object operands"
            );
        }
    }

    #[test]
    fn fastpath_is_a_few_hundred_instructions() {
        // §6.1: the fastpath is ~200-250 cycles warm; warm cost is roughly
        // instruction count plus branch costs, so the three fastpath blocks
        // should total in that range.
        let total: u32 = [
            Block::FastpathCheck,
            Block::FastpathXfer,
            Block::FastpathCommit,
        ]
        .iter()
        .map(|b| b.spec().instr_count())
        .sum();
        assert!(
            (120..=220).contains(&total),
            "fastpath block total {total} instructions"
        );
    }
}
