//! Small-scope exploration scenarios.
//!
//! Each scenario is a self-contained booted kernel plus per-thread
//! scripts and a set of injectable interrupt lines with per-line budgets.
//! They are deliberately *small-scope* (a handful of threads, one long
//! preemptible operation, one or two interrupt lines with one or two
//! arrivals each): the small-scope hypothesis that makes exhaustive
//! enumeration meaningful is the same one behind the bounded model
//! checking the PAPERS.md verification line of work uses. Every scenario
//! centres on one of the paper's preemptible operations (§3.3–§3.6) so
//! the consistency oracles in [`crate::oracle`] have resume state to
//! interrogate at every interleaving.
//!
//! Builders run any setup system calls to completion *before* the engine
//! installs its decision source, so instances start from a quiescent,
//! deterministic state.

use std::sync::Arc;

use rt_hw::{HwConfig, IrqLine};
use rt_kernel::cap::{insert_cap, Badge, CapType, Rights, SlotRef};
use rt_kernel::ep::{ep_append, EpState};
use rt_kernel::kernel::{Kernel, KernelConfig};
use rt_kernel::ntfn::ntfn_append;
use rt_kernel::obj::{ObjId, ObjKind};
use rt_kernel::syscall::{Syscall, SyscallOutcome};
use rt_kernel::system::Action;
use rt_kernel::tcb::ThreadState;
use rt_kernel::untyped::RetypeKind;

/// Interrupt line wired to the driver thread's notification (bound lines
/// follow seL4's mask-until-ack protocol). Line 0 is the timer; stay off
/// it so no timeslice semantics are dragged in.
pub const DRIVER_LINE: IrqLine = IrqLine(3);
/// An issued but unbound line: acknowledged by the kernel, delivered to
/// nobody — pure preemption pressure.
pub const FREE_LINE: IrqLine = IrqLine(7);

/// Capability addresses shared by all scenarios (one 12-bit CNode behind
/// a 20-bit guard, so plain small integers decode directly).
pub mod cptrs {
    /// Original (unbadged) endpoint capability.
    pub const EP: u32 = 1;
    /// Badged derivation of [`EP`] (badge 42).
    pub const BADGED: u32 = 2;
    /// The driver's notification.
    pub const NTFN: u32 = 3;
    /// Untyped memory.
    pub const UT: u32 = 4;
    /// The root CNode itself (retype destination).
    pub const ROOT: u32 = 5;
    /// IRQ-handler capability for [`super::DRIVER_LINE`].
    pub const IRQ_HANDLER: u32 = 6;
    /// Page directory created during vspace-scenario setup.
    pub const PD: u32 = 200;
    /// Page table created during vspace-scenario setup.
    pub const PT: u32 = 210;
    /// First of the frames created during setup.
    pub const FRAME: u32 = 220;
    /// First free slot for retype destinations.
    pub const DEST: u32 = 100;
}

/// A built scenario instance, ready for one run.
pub struct Instance {
    /// The booted kernel (current thread set, setup complete).
    pub kernel: Kernel,
    /// Per-thread scripts, executed one action per `Run` event.
    pub scripts: Vec<(ObjId, Vec<Action>)>,
    /// Injectable lines and how many arrivals of each to explore.
    pub irqs: Vec<(IrqLine, u32)>,
}

/// A named scenario: a description plus a deterministic builder. The
/// engine re-builds an instance per run (kernels are not cloneable), so
/// builders must be pure. Builders are shared closures so parameterized
/// (including property-test-randomized) scenarios are expressible.
#[derive(Clone)]
pub struct Scenario {
    /// Short identifier (report key).
    pub name: String,
    /// One-line description of what is being interleaved.
    pub about: String,
    /// Deterministic instance constructor.
    pub build: Arc<dyn Fn() -> Instance + Send + Sync>,
}

impl Scenario {
    fn new(
        name: &str,
        about: &str,
        build: impl Fn() -> Instance + Send + Sync + 'static,
    ) -> Scenario {
        Scenario {
            name: name.to_string(),
            about: about.to_string(),
            build: Arc::new(build),
        }
    }
}

struct Base {
    k: Kernel,
    cnode: ObjId,
    root: CapType,
}

fn base() -> Base {
    base_radix(12)
}

/// As [`base`] but with a chosen root-CNode radix. The widened search
/// scenario uses a 256-slot root. It predates the sparse CNode slot
/// list, which makes whole-node scans independent of the radix; the radix
/// stays because object placement, and so every recorded number of that
/// search, depends on it. All scenario cptrs fit in 8 bits.
fn base_radix(radix_bits: u8) -> Base {
    let mut k = Kernel::new(KernelConfig::after(), HwConfig::default());
    let cnode = k.boot_cnode(radix_bits);
    let root = CapType::CNode {
        obj: cnode,
        guard_bits: 32 - radix_bits,
        guard: 0,
    };
    insert_cap(
        &mut k.objs,
        SlotRef::new(cnode, cptrs::ROOT),
        root.clone(),
        None,
    );
    Base { k, cnode, root }
}

/// An endpoint with `n` queued senders, every `badge_every`-th carrying
/// badge 42 (0 = none badged). With `badged_child` a derived badge-42 cap
/// sits at [`cptrs::BADGED`]; without it the cap at [`cptrs::EP`] is
/// final, so deleting it destroys the endpoint.
fn queued_ep(b: &mut Base, n: u32, badge_every: u32, badged_child: bool) -> ObjId {
    let ep = b.k.boot_endpoint();
    let orig = SlotRef::new(b.cnode, cptrs::EP);
    insert_cap(
        &mut b.k.objs,
        orig,
        CapType::Endpoint {
            obj: ep,
            badge: Badge::NONE,
            rights: Rights::ALL,
        },
        None,
    );
    if badged_child {
        insert_cap(
            &mut b.k.objs,
            SlotRef::new(b.cnode, cptrs::BADGED),
            CapType::Endpoint {
                obj: ep,
                badge: Badge(42),
                rights: Rights::ALL,
            },
            Some(orig),
        );
    }
    for i in 0..n {
        let c = b.k.boot_tcb(&format!("client{i}"), 10);
        b.k.objs.tcb_mut(c).cspace_root = b.root.clone();
        let badge = if badge_every != 0 && i % badge_every == 0 {
            Badge(42)
        } else {
            Badge(7)
        };
        ep_append(&mut b.k.objs, ep, c, EpState::Sending);
        b.k.objs.tcb_mut(c).state = ThreadState::BlockedOnSend {
            ep,
            badge,
            can_grant: false,
            is_call: false,
        };
    }
    ep
}

/// A high-priority driver thread parked on a notification bound to
/// [`DRIVER_LINE`]. Its script acknowledges the IRQ (unmasking the line)
/// and goes back to waiting — the seL4 driver loop.
fn add_driver(b: &mut Base) -> (ObjId, Vec<Action>) {
    let ntfn = b.k.boot_ntfn();
    insert_cap(
        &mut b.k.objs,
        SlotRef::new(b.cnode, cptrs::NTFN),
        CapType::Notification {
            obj: ntfn,
            badge: Badge::NONE,
            rights: Rights::ALL,
        },
        None,
    );
    insert_cap(
        &mut b.k.objs,
        SlotRef::new(b.cnode, cptrs::IRQ_HANDLER),
        CapType::IrqHandler(DRIVER_LINE.0),
        None,
    );
    assert!(b.k.irq_table.issue(DRIVER_LINE.0));
    b.k.irq_table.bind(DRIVER_LINE.0, ntfn, Badge(1));
    let d = b.k.boot_tcb("driver", 220);
    b.k.objs.tcb_mut(d).cspace_root = b.root.clone();
    ntfn_append(&mut b.k.objs, ntfn, d);
    b.k.objs.tcb_mut(d).state = ThreadState::BlockedOnNotification { ntfn };
    let script = vec![
        Action::Syscall(Syscall::IrqAck {
            handler: cptrs::IRQ_HANDLER,
        }),
        Action::Syscall(Syscall::Wait { cptr: cptrs::NTFN }),
        Action::Stop,
    ];
    (d, script)
}

fn start(b: &mut Base, name: &str, prio: u8) -> ObjId {
    let t = b.k.boot_tcb(name, prio);
    b.k.objs.tcb_mut(t).cspace_root = b.root.clone();
    b.k.objs.tcb_mut(t).state = ThreadState::Running;
    b.k.force_current_for_test(t);
    t
}

/// Runs a setup system call to completion (builders only — no decision
/// source is installed yet, so nothing can preempt it).
fn setup_syscall(k: &mut Kernel, sys: Syscall) {
    match k.handle_syscall(sys) {
        SyscallOutcome::Completed(r) => assert!(r.is_ok(), "setup syscall failed: {r:?}"),
        SyscallOutcome::Preempted => panic!("setup syscall preempted"),
    }
}

fn ep_delete() -> Instance {
    let mut b = base();
    let _ep = queued_ep(&mut b, 4, 2, false);
    let (driver, driver_script) = add_driver(&mut b);
    let deleter = start(&mut b, "deleter", 100);
    let irqs = vec![(DRIVER_LINE, 2), (FREE_LINE, 2)];
    Instance {
        kernel: b.k,
        scripts: vec![
            (
                deleter,
                vec![
                    Action::Syscall(Syscall::Delete { cptr: cptrs::EP }),
                    Action::Stop,
                ],
            ),
            (driver, driver_script),
        ],
        irqs,
    }
}

fn badged_revoke() -> Instance {
    let mut b = base();
    let _ep = queued_ep(&mut b, 5, 2, true);
    let server = start(&mut b, "server", 100);
    Instance {
        kernel: b.k,
        scripts: vec![(
            server,
            vec![
                Action::Syscall(Syscall::Revoke {
                    cptr: cptrs::BADGED,
                }),
                Action::Stop,
            ],
        )],
        irqs: vec![(FREE_LINE, 2)],
    }
}

fn retype_clear() -> Instance {
    let mut b = base();
    let ut = b.k.boot_untyped(15);
    insert_cap(
        &mut b.k.objs,
        SlotRef::new(b.cnode, cptrs::UT),
        CapType::Untyped(ut),
        None,
    );
    let alloc = start(&mut b, "allocator", 100);
    Instance {
        kernel: b.k,
        scripts: vec![(
            alloc,
            vec![
                Action::Syscall(Syscall::Retype {
                    untyped: cptrs::UT,
                    kind: RetypeKind::Frame { size_bits: 12 },
                    count: 2,
                    dest_cnode: cptrs::ROOT,
                    dest_offset: cptrs::DEST,
                }),
                Action::Stop,
            ],
        )],
        irqs: vec![(DRIVER_LINE, 1), (FREE_LINE, 1)],
    }
}

fn vspace_teardown() -> Instance {
    let mut b = base();
    let ut = b.k.boot_untyped(17);
    insert_cap(
        &mut b.k.objs,
        SlotRef::new(b.cnode, cptrs::UT),
        CapType::Untyped(ut),
        None,
    );
    let owner = start(&mut b, "owner", 100);
    // Build a small address space to completion: a directory, a table,
    // two mapped frames. Only the teardown is explored.
    const VADDR: u32 = 0x1000_0000;
    for sys in [
        Syscall::Retype {
            untyped: cptrs::UT,
            kind: RetypeKind::PageDirectory,
            count: 1,
            dest_cnode: cptrs::ROOT,
            dest_offset: cptrs::PD,
        },
        Syscall::Retype {
            untyped: cptrs::UT,
            kind: RetypeKind::PageTable,
            count: 1,
            dest_cnode: cptrs::ROOT,
            dest_offset: cptrs::PT,
        },
        Syscall::Retype {
            untyped: cptrs::UT,
            kind: RetypeKind::Frame { size_bits: 12 },
            count: 2,
            dest_cnode: cptrs::ROOT,
            dest_offset: cptrs::FRAME,
        },
        Syscall::MapPageTable {
            pt: cptrs::PT,
            pd: cptrs::PD,
            vaddr: VADDR,
        },
        Syscall::MapFrame {
            frame: cptrs::FRAME,
            pd: cptrs::PD,
            vaddr: VADDR,
        },
        Syscall::MapFrame {
            frame: cptrs::FRAME + 1,
            pd: cptrs::PD,
            vaddr: VADDR + 0x1000,
        },
    ] {
        setup_syscall(&mut b.k, sys);
    }
    Instance {
        kernel: b.k,
        scripts: vec![(
            owner,
            vec![
                Action::Syscall(Syscall::Delete { cptr: cptrs::PT }),
                Action::Syscall(Syscall::Delete { cptr: cptrs::PD }),
                Action::Stop,
            ],
        )],
        irqs: vec![(FREE_LINE, 2)],
    }
}

fn irq_response() -> Instance {
    let mut b = base();
    let _ep = queued_ep(&mut b, 6, 1, true);
    let (driver, driver_script) = add_driver(&mut b);
    let server = start(&mut b, "server", 100);
    Instance {
        kernel: b.k,
        scripts: vec![
            (
                server,
                vec![
                    // Dirty caches first so explored latencies are
                    // realistic worst-ish cases, not warm-cache best cases.
                    Action::Pollute,
                    Action::Syscall(Syscall::Revoke {
                        cptr: cptrs::BADGED,
                    }),
                    Action::Stop,
                ],
            ),
            (driver, driver_script),
        ],
        irqs: vec![(DRIVER_LINE, 2), (FREE_LINE, 1)],
    }
}

/// Widened-scope endpoint deletion: `senders` queued senders (every
/// second one badged) and triple arrival budgets on both lines, on a
/// 256-slot root CNode (see [`base_radix`]). Not part of [`all`] — the
/// smoke report keeps the PR 5 scope; `repro explore --scenario
/// ep-delete-wide` (12 senders) and the CI scale gate (`ep-delete-wider`,
/// 16 senders) drive these.
fn ep_delete_wide(senders: u32) -> Instance {
    let mut b = base_radix(8);
    let _ep = queued_ep(&mut b, senders, 2, false);
    let (driver, driver_script) = add_driver(&mut b);
    let deleter = start(&mut b, "deleter", 100);
    let irqs = vec![(DRIVER_LINE, 6), (FREE_LINE, 6)];
    Instance {
        kernel: b.k,
        scripts: vec![
            (
                deleter,
                vec![
                    Action::Syscall(Syscall::Delete { cptr: cptrs::EP }),
                    Action::Stop,
                ],
            ),
            (driver, driver_script),
        ],
        irqs,
    }
}

/// Threads currently blocked sending on an endpoint, in object order —
/// the SMP builders re-pin some of them to other cores so aborting them
/// exercises the cross-core wake path.
fn blocked_senders(k: &Kernel) -> Vec<ObjId> {
    k.objs
        .iter()
        .filter_map(|(id, o)| match &o.kind {
            ObjKind::Tcb(t) if matches!(t.state, ThreadState::BlockedOnSend { .. }) => Some(id),
            _ => None,
        })
        .collect()
}

/// Two-core §3.3 deletion: the deleter unwinds the send queue on core 0
/// while every second aborted sender has affinity 1, so its wake is a
/// remote Benno enqueue plus a reschedule IPI. [`FREE_LINE`] is routed
/// to core 1 for pure preemption pressure against the IPI services.
fn smp_ep_delete() -> Instance {
    let mut b = base();
    b.k.enable_smp(2);
    let _ep = queued_ep(&mut b, 3, 2, false);
    for (i, t) in blocked_senders(&b.k).into_iter().enumerate() {
        if i % 2 == 1 {
            b.k.set_affinity(t, 1);
        }
    }
    b.k.machine.route_irq(FREE_LINE, 1);
    let deleter = start(&mut b, "deleter", 100);
    Instance {
        kernel: b.k,
        scripts: vec![(
            deleter,
            vec![
                Action::Syscall(Syscall::Delete { cptr: cptrs::EP }),
                Action::Stop,
            ],
        )],
        irqs: vec![(FREE_LINE, 2)],
    }
}

/// Four-core §3.3 deletion: the deleter unwinds the send queue on core 0
/// while the aborted senders are pinned round-robin across cores 1–3, so
/// each abort is a remote Benno enqueue plus a reschedule IPI to a
/// *different* core — the which-core axis at its widest. [`FREE_LINE`]
/// routed to core 2 adds device pressure against one of the IPI targets.
fn smp_quad_ep_delete() -> Instance {
    let mut b = base();
    b.k.enable_smp(4);
    let _ep = queued_ep(&mut b, 3, 2, false);
    for (i, t) in blocked_senders(&b.k).into_iter().enumerate() {
        b.k.set_affinity(t, (i % 3 + 1) as u8);
    }
    b.k.machine.route_irq(FREE_LINE, 2);
    let deleter = start(&mut b, "deleter", 100);
    Instance {
        kernel: b.k,
        scripts: vec![(
            deleter,
            vec![
                Action::Syscall(Syscall::Delete { cptr: cptrs::EP }),
                Action::Stop,
            ],
        )],
        irqs: vec![(FREE_LINE, 1)],
    }
}

/// Two-core IPI-vs-IRQ race: [`DRIVER_LINE`] is serviced on core 0 (its
/// default route) but the driver thread lives on core 1, so every
/// delivery is a cross-core wake whose reschedule IPI races the
/// [`FREE_LINE`] arrivals routed straight to core 1. The driver's ack
/// then unmasks the line back on core 0's controller.
fn smp_ipi_irq_race() -> Instance {
    let mut b = base();
    b.k.enable_smp(2);
    let _ep = queued_ep(&mut b, 2, 0, false);
    let (driver, driver_script) = add_driver(&mut b);
    b.k.set_affinity(driver, 1);
    b.k.machine.route_irq(FREE_LINE, 1);
    let deleter = start(&mut b, "deleter", 100);
    Instance {
        kernel: b.k,
        scripts: vec![
            (
                deleter,
                vec![
                    Action::Syscall(Syscall::Delete { cptr: cptrs::EP }),
                    Action::Stop,
                ],
            ),
            (driver, driver_script),
        ],
        irqs: vec![(DRIVER_LINE, 2), (FREE_LINE, 2)],
    }
}

/// Two-core TLB shootdown landing mid-revoke: core 0 runs a preemptible
/// badged revoke (with [`FREE_LINE`] pressure to park it in `Restart`),
/// while core 1's flusher deletes a mapped page table — the local flush
/// broadcasts a shootdown IPI that core 0 may service between any two
/// revoke steps.
fn smp_shootdown_revoke() -> Instance {
    let mut b = base();
    b.k.enable_smp(2);
    let _ep = queued_ep(&mut b, 3, 2, true);
    let ut = b.k.boot_untyped(17);
    insert_cap(
        &mut b.k.objs,
        SlotRef::new(b.cnode, cptrs::UT),
        CapType::Untyped(ut),
        None,
    );
    let server = start(&mut b, "server", 100);
    const VADDR: u32 = 0x1000_0000;
    for sys in [
        Syscall::Retype {
            untyped: cptrs::UT,
            kind: RetypeKind::PageDirectory,
            count: 1,
            dest_cnode: cptrs::ROOT,
            dest_offset: cptrs::PD,
        },
        Syscall::Retype {
            untyped: cptrs::UT,
            kind: RetypeKind::PageTable,
            count: 1,
            dest_cnode: cptrs::ROOT,
            dest_offset: cptrs::PT,
        },
        Syscall::Retype {
            untyped: cptrs::UT,
            kind: RetypeKind::Frame { size_bits: 12 },
            count: 1,
            dest_cnode: cptrs::ROOT,
            dest_offset: cptrs::FRAME,
        },
        Syscall::MapPageTable {
            pt: cptrs::PT,
            pd: cptrs::PD,
            vaddr: VADDR,
        },
        Syscall::MapFrame {
            frame: cptrs::FRAME,
            pd: cptrs::PD,
            vaddr: VADDR,
        },
    ] {
        setup_syscall(&mut b.k, sys);
    }
    let flusher = b.k.boot_tcb("flusher", 90);
    b.k.objs.tcb_mut(flusher).cspace_root = b.root.clone();
    b.k.set_affinity(flusher, 1);
    b.k.objs.tcb_mut(flusher).state = ThreadState::Running;
    b.k.machine.switch_core(1);
    b.k.force_current_for_test(flusher);
    b.k.machine.switch_core(0);
    Instance {
        kernel: b.k,
        scripts: vec![
            (
                server,
                vec![
                    Action::Syscall(Syscall::Revoke {
                        cptr: cptrs::BADGED,
                    }),
                    Action::Stop,
                ],
            ),
            (
                flusher,
                vec![
                    Action::Syscall(Syscall::Delete { cptr: cptrs::PT }),
                    Action::Stop,
                ],
            ),
        ],
        irqs: vec![(FREE_LINE, 1)],
    }
}

/// Parameters for a randomized small-scope scenario (property tests):
/// a queued endpoint, an optional driver, and a delete/revoke operation,
/// all within the small-scope envelope the differential suites can
/// explore unreduced.
#[derive(Clone, Copy, Debug)]
pub struct RandomParams {
    /// Queued senders (1..=3 keeps unreduced exploration tractable).
    pub senders: u32,
    /// Badge period for `queued_ep`-style mixing (0 = none badged).
    pub badge_every: u32,
    /// Include the bound-line driver thread.
    pub with_driver: bool,
    /// Arrival budget for [`DRIVER_LINE`] (only with the driver).
    pub driver_budget: u32,
    /// Arrival budget for [`FREE_LINE`].
    pub free_budget: u32,
    /// Explore `Revoke` of the badged child instead of `Delete` of the
    /// original endpoint cap.
    pub revoke: bool,
}

/// Builds a deterministic scenario from randomized parameters. Budgets
/// are clamped so at least one arrival is injectable (a scenario with no
/// decisions explores nothing).
pub fn randomized(p: RandomParams) -> Scenario {
    let mut p = p;
    p.senders = p.senders.clamp(1, 3);
    p.badge_every = p.badge_every.min(2);
    p.driver_budget = if p.with_driver {
        p.driver_budget.min(2)
    } else {
        0
    };
    p.free_budget = p.free_budget.min(2);
    if p.driver_budget == 0 && p.free_budget == 0 {
        p.free_budget = 1;
    }
    let name = format!(
        "rand-s{}b{}{}d{}f{}-{}",
        p.senders,
        p.badge_every,
        if p.with_driver { "D" } else { "-" },
        p.driver_budget,
        p.free_budget,
        if p.revoke { "revoke" } else { "delete" },
    );
    Scenario::new(
        &name,
        "randomized queued-endpoint scenario (property tests)",
        move || {
            let mut b = base();
            let _ep = queued_ep(&mut b, p.senders, p.badge_every, p.revoke);
            let mut scripts = Vec::new();
            let mut irqs = Vec::new();
            if p.with_driver {
                let (driver, script) = add_driver(&mut b);
                scripts.push((driver, script));
                if p.driver_budget > 0 {
                    irqs.push((DRIVER_LINE, p.driver_budget));
                }
            }
            if p.free_budget > 0 {
                irqs.push((FREE_LINE, p.free_budget));
            }
            let op = start(&mut b, "op", 100);
            let sys = if p.revoke {
                Syscall::Revoke {
                    cptr: cptrs::BADGED,
                }
            } else {
                Syscall::Delete { cptr: cptrs::EP }
            };
            scripts.insert(0, (op, vec![Action::Syscall(sys), Action::Stop]));
            Instance {
                kernel: b.k,
                scripts,
                irqs,
            }
        },
    )
}

/// All report scenarios, in report order.
pub fn all() -> Vec<Scenario> {
    vec![
        Scenario::new(
            "ep-delete",
            "endpoint deletion unwinding a 4-deep send queue (§3.3)",
            ep_delete,
        ),
        Scenario::new(
            "badged-revoke",
            "badged abort scanning a mixed 5-deep queue (§3.4)",
            badged_revoke,
        ),
        Scenario::new(
            "retype-clear",
            "retype zeroing 8 KiB in preemptible chunks (§3.5)",
            retype_clear,
        ),
        Scenario::new(
            "vspace-teardown",
            "page-table and directory teardown mid-flight (§3.6)",
            vspace_teardown,
        ),
        Scenario::new(
            "irq-response",
            "driver IRQ latency across a badged abort (§5-§6 bound)",
            irq_response,
        ),
    ]
}

/// The SMP scenarios (DESIGN.md §14): the which-core decision axis over
/// cross-core wakes, IPI-vs-IRQ races and TLB shootdowns. Deliberately
/// *not* part of [`all`] — the single-core report and its goldens stay
/// byte-identical — the SMP differential suite, the CI SMP smoke gate
/// and `repro explore --scenario smp-*` drive these.
pub fn smp_all() -> Vec<Scenario> {
    vec![
        Scenario::new(
            "smp-ep-delete",
            "cross-core §3.3 deletion: core-1 senders woken by remote enqueue + IPI",
            smp_ep_delete,
        ),
        Scenario::new(
            "smp-ipi-race",
            "reschedule IPI racing a device IRQ on core 1 (cross-core driver wake)",
            smp_ipi_irq_race,
        ),
        Scenario::new(
            "smp-shootdown-revoke",
            "TLB shootdown from core 1 landing mid-revoke on core 0",
            smp_shootdown_revoke,
        ),
        Scenario::new(
            "smp-quad-ep-delete",
            "four-core deletion: aborted senders spread over cores 1-3, IPIs fan out",
            smp_quad_ep_delete,
        ),
    ]
}

/// Scenarios addressable by name: the report set, the SMP set, plus the
/// two widened-scope search targets.
pub fn by_name(name: &str) -> Option<Scenario> {
    match name {
        "ep-delete-wide" => Some(Scenario::new(
            "ep-delete-wide",
            "widened §3.3 deletion: 12 queued senders, 6+6 arrivals \
             (exhausted in ~0.59M state checks)",
            || ep_delete_wide(12),
        )),
        "ep-delete-wider" => Some(Scenario::new(
            "ep-delete-wider",
            "widened §3.3 deletion: 16 queued senders, 6+6 arrivals (≥10⁶-state scale target)",
            || ep_delete_wide(16),
        )),
        _ => all().into_iter().chain(smp_all()).find(|s| s.name == name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_builds_clean() {
        for sc in all() {
            let inst = (sc.build)();
            let v = rt_kernel::invariants::check_all(&inst.kernel);
            assert!(v.is_empty(), "{}: {v:?}", sc.name);
            assert!(!inst.scripts.is_empty(), "{}", sc.name);
            assert!(!inst.irqs.is_empty(), "{}", sc.name);
        }
    }

    #[test]
    fn smp_scenarios_build_clean_and_deterministic() {
        for sc in smp_all() {
            let inst = (sc.build)();
            assert!(inst.kernel.n_cores() > 1, "{}", sc.name);
            let v = rt_kernel::invariants::check_all(&inst.kernel);
            assert!(v.is_empty(), "{}: {v:?}", sc.name);
            let again = (sc.build)();
            let ha = crate::state::canonical_hash(&inst.kernel, &[], &inst.irqs);
            let hb = crate::state::canonical_hash(&again.kernel, &[], &again.irqs);
            assert_eq!(ha, hb, "{}", sc.name);
        }
    }

    #[test]
    fn widened_scenarios_build_clean() {
        for (name, senders) in [("ep-delete-wide", 12), ("ep-delete-wider", 16)] {
            let inst = (by_name(name).expect("widened scenario").build)();
            let v = rt_kernel::invariants::check_all(&inst.kernel);
            assert!(v.is_empty(), "{name}: {v:?}");
            assert_eq!(blocked_senders(&inst.kernel).len(), senders, "{name}");
        }
    }

    #[test]
    fn builders_are_deterministic() {
        for sc in all() {
            let a = (sc.build)();
            let b = (sc.build)();
            let ha = crate::state::canonical_hash(&a.kernel, &[], &a.irqs);
            let hb = crate::state::canonical_hash(&b.kernel, &[], &b.irqs);
            assert_eq!(ha, hb, "{}", sc.name);
        }
    }
}
