//! SMP idle-core differential (DESIGN.md §14): a **two-core** kernel
//! whose threads all keep affinity 0 — so core 1 never runs anything —
//! must be byte-identical to the one-core kernel on every observable of
//! core 0, not "equivalent", identical. Nothing crosses cores here: the
//! big lock is uncontended (core 1 never holds it, so every lock wait is
//! 0), no thread is homed on core 1, so no reschedule IPI is sent, and
//! the trace language has no unmap, so no shootdown is broadcast. What
//! remains is the SMP machinery itself — per-core records, the lock
//! bookkeeping at every entry and exit, the second machine context — and
//! none of it may move a single cycle.
//!
//! This is the contract that lets every existing golden, BENCH block and
//! explorer report stand unchanged while the SMP code is compiled in:
//! randomized syscall/IRQ systems run under both kernels and the block
//! trace, PMU counters, cycle accounts, kernel stats, IRQ response log
//! and final clock are compared as rendered bytes. A failure means an
//! SMP charge leaks into single-core work.

use proptest::prelude::*;
use rt_hw::{HwConfig, IrqLine};
use rt_kernel::cap::{insert_cap, Badge, CapType, Rights, SlotRef};
use rt_kernel::kernel::{Kernel, KernelConfig};
use rt_kernel::syscall::Syscall;
use rt_kernel::system::{Action, StopReason, System, ThreadScript};

/// One user action in the differential trace language — a trimmed cut of
/// the `system_fuzz` generator covering IPC, notifications, scheduling,
/// faults and cache pollution (the paths whose timing SMP gating could
/// plausibly disturb).
#[derive(Debug, Clone)]
enum DiffAction {
    Compute(u16),
    Send { block: bool },
    Call,
    Recv,
    ReplyRecv,
    Signal,
    Wait,
    Yield,
    PageFault,
    Undef,
    Pollute,
}

const EP_CPTR: u32 = 1;
const BADGED_CPTR: u32 = 2;
const NTFN_CPTR: u32 = 3;

fn to_action(f: &DiffAction, tid: u32) -> Action {
    match f {
        DiffAction::Compute(c) => Action::Compute(*c as u64 + 1),
        DiffAction::Send { block } => Action::Syscall(Syscall::Send {
            cptr: EP_CPTR,
            len: 2,
            caps: vec![],
            block: *block,
        }),
        DiffAction::Call => Action::Syscall(Syscall::Call {
            cptr: BADGED_CPTR,
            len: 4,
            caps: vec![],
        }),
        DiffAction::Recv => Action::Syscall(Syscall::Recv { cptr: EP_CPTR }),
        DiffAction::ReplyRecv => Action::Syscall(Syscall::ReplyRecv {
            cptr: EP_CPTR,
            len: 2,
            caps: vec![],
        }),
        DiffAction::Signal => Action::Syscall(Syscall::Signal { cptr: NTFN_CPTR }),
        DiffAction::Wait => Action::Syscall(Syscall::Wait { cptr: NTFN_CPTR }),
        DiffAction::Yield => Action::Syscall(Syscall::Yield),
        DiffAction::PageFault => Action::PageFault(0x0060_0000 + tid * 0x1000),
        DiffAction::Undef => Action::UndefInstr,
        DiffAction::Pollute => Action::Pollute,
    }
}

fn diff_action() -> impl Strategy<Value = DiffAction> {
    prop_oneof![
        (1u16..5000).prop_map(DiffAction::Compute),
        any::<bool>().prop_map(|block| DiffAction::Send { block }),
        Just(DiffAction::Call),
        Just(DiffAction::Recv),
        Just(DiffAction::ReplyRecv),
        Just(DiffAction::Signal),
        Just(DiffAction::Wait),
        Just(DiffAction::Yield),
        Just(DiffAction::PageFault),
        Just(DiffAction::Undef),
        Just(DiffAction::Pollute),
    ]
}

fn boot(cfg: KernelConfig, cores: u8, n_threads: u32) -> (Kernel, Vec<rt_kernel::obj::ObjId>) {
    let mut k = Kernel::new(cfg, HwConfig::default());
    k.enable_smp(cores);
    let cnode = k.boot_cnode(10);
    let root = CapType::CNode {
        obj: cnode,
        guard_bits: 22,
        guard: 0,
    };
    let ep = k.boot_endpoint();
    let ntfn = k.boot_ntfn();
    let orig = SlotRef::new(cnode, EP_CPTR);
    insert_cap(
        &mut k.objs,
        orig,
        CapType::Endpoint {
            obj: ep,
            badge: Badge::NONE,
            rights: Rights::ALL,
        },
        None,
    );
    insert_cap(
        &mut k.objs,
        SlotRef::new(cnode, BADGED_CPTR),
        CapType::Endpoint {
            obj: ep,
            badge: Badge(9),
            rights: Rights::ALL,
        },
        Some(orig),
    );
    insert_cap(
        &mut k.objs,
        SlotRef::new(cnode, NTFN_CPTR),
        CapType::Notification {
            obj: ntfn,
            badge: Badge(1),
            rights: Rights::ALL,
        },
        None,
    );
    let fault_ep = k.boot_endpoint();
    insert_cap(
        &mut k.objs,
        SlotRef::new(cnode, 6),
        CapType::Endpoint {
            obj: fault_ep,
            badge: Badge::NONE,
            rights: Rights::ALL,
        },
        None,
    );
    let mut threads = Vec::new();
    for i in 0..n_threads {
        let t = k.boot_tcb(&format!("diff{i}"), 10 + (i % 3) as u8);
        k.objs.tcb_mut(t).cspace_root = root.clone();
        k.objs.tcb_mut(t).fault_handler = 6;
        k.boot_resume(t);
        threads.push(t);
    }
    (k, threads)
}

/// Runs one randomized system on a kernel and returns every observable,
/// rendered: final clock, block trace, PMU, cycle accounts, stats and
/// IRQ log.
fn run_observed(
    cores: u8,
    before: bool,
    scripts: &[Vec<DiffAction>],
    irqs: &[(u64, u8)],
    timer: Option<u64>,
) -> (StopReason, String) {
    let cfg = if before {
        KernelConfig::before()
    } else {
        KernelConfig::after()
    };
    let (mut k, threads) = boot(cfg, cores, scripts.len() as u32);
    for (at, line) in irqs {
        k.irq_table.issue(*line);
        k.machine.irq.schedule(*at, IrqLine(*line));
    }
    k.start_trace();
    let mut sys = System::new(k);
    for (i, script) in scripts.iter().enumerate() {
        let actions: Vec<Action> = script
            .iter()
            .map(|f| to_action(f, i as u32))
            .chain(std::iter::once(Action::Stop))
            .collect();
        sys.set_script(threads[i], ThreadScript::once(actions));
    }
    if let Some(p) = timer {
        sys.enable_timer(p, 1_500_000);
    }
    let reason = sys.run(1_500_000);
    rt_kernel::invariants::assert_all(&sys.kernel);
    let k = &mut sys.kernel;
    assert_eq!(k.cur_core(), 0, "the system only ever runs core 0");
    let obs = format!(
        "now={}\ntrace={:?}\npmu={:?}\naccounts={:?}\nstats={:?}\nirq_log={:?}\n",
        k.machine.now(),
        k.take_trace(),
        k.machine.pmu,
        k.machine.accounts,
        k.stats,
        k.irq_log,
    );
    (reason, obs)
}

/// Body shared between the proptest and the named deterministic
/// regression below.
fn diff_case(
    scripts: &[Vec<DiffAction>],
    irqs: &[(u64, u8)],
    timer: Option<u64>,
    before: bool,
) -> Result<(), TestCaseError> {
    let (one_stop, one) = run_observed(1, before, scripts, irqs, timer);
    let (two_stop, two) = run_observed(2, before, scripts, irqs, timer);
    prop_assert_eq!(one_stop, two_stop, "stop reasons diverged");
    prop_assert_eq!(&one, &two, "idle second core moved core 0's observables");
    Ok(())
}

/// A fixed, deterministic trace exercising IPC, IRQ wakeups and the
/// timer under both kernel configs — the always-on pin behind the
/// randomized search.
#[test]
fn fixed_trace_identical_with_idle_second_core() {
    let scripts = vec![
        vec![
            DiffAction::Call,
            DiffAction::Compute(700),
            DiffAction::Wait,
            DiffAction::Pollute,
            DiffAction::Yield,
        ],
        vec![
            DiffAction::Recv,
            DiffAction::ReplyRecv,
            DiffAction::Signal,
            DiffAction::PageFault,
            DiffAction::Compute(120),
        ],
        vec![DiffAction::Send { block: true }, DiffAction::Undef],
    ];
    let irqs = [(9_000u64, 2u8), (40_000, 5), (41_000, 2)];
    for before in [false, true] {
        diff_case(&scripts, &irqs, Some(25_000), before).expect("fixed trace diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized systems: the two-core kernel with core 1 idle is
    /// byte-identical to the one-core kernel on trace, PMU, accounts,
    /// stats, IRQ log and clock.
    #[test]
    fn idle_second_core_is_byte_identical(
        scripts in proptest::collection::vec(
            proptest::collection::vec(diff_action(), 1..20),
            2..5,
        ),
        irqs in proptest::collection::vec((1u64..1_000_000, 1u8..8), 0..8),
        timer in proptest::option::of(10_000u64..200_000),
        before in any::<bool>(),
    ) {
        diff_case(&scripts, &irqs, timer, before)?;
    }
}
