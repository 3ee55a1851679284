//! Scenario composition: what a load run *is*.
//!
//! A [`LoadSpec`] names a master seed, an event target, a shard count
//! and a tenant mix; [`build_shard`] turns it into one shard's booted
//! kernel plus the per-thread [`Behavior`] state machines the engine
//! steps. The tenant vocabulary (documented in `docs/WORKLOADS.md`):
//!
//! * **IPC pairs** — a closed-loop client `Call`ing a server that sits
//!   in the `Recv`/`ReplyRecv` loop, with randomised message lengths and
//!   think times; short messages ride the §6.1 fastpath, long ones take
//!   the slowpath.
//! * **Thrashers** — adversarial cache tenants: dirty-fill every
//!   unlocked cache line (the §5.4 pollution preamble) between compute
//!   bursts and `Yield`s, so other tenants' kernel entries run cold.
//! * **Decoders** — threads whose capability space is a 32-level trie
//!   (Fig. 7): every `Signal` they issue pays the worst-case decode.
//! * **Janitors** — tenants living on the §2.1 preemptible long paths:
//!   each `Mint`s a batch of badged children off a private notification
//!   cap, then `Revoke`s the parent. The revoke sweep polls a
//!   preemption point per deleted child, so interrupts arriving
//!   mid-sweep preempt the syscall and the engine observes genuine
//!   `Preempted`/`Restart` traffic under load.
//! * **Drivers** — high-priority threads bound to an interrupt line via
//!   a notification, running the seL4 driver protocol: `Wait`, service,
//!   `IrqAck` (unmask), `Wait`...
//!
//! Interrupt lines are either **storm lines** (unbound, open-loop
//! arrival schedules injected up front — the kernel acknowledges them at
//! the hardware level with no masking, so arrivals are never throttled
//! by the system) or **driver lines** (bound; the engine re-arms a raise
//! only after observing the driver's ack, keeping the line's protocol
//! closed-loop and the raise-while-masked hazard impossible).

use crate::arrival::{Arrival, Think};
use crate::rng::Rng64;
use rt_hw::{Cycles, HwConfig};
use rt_kernel::cap::{insert_cap, Badge, CapType, Rights, SlotRef};
use rt_kernel::kernel::{DeepCspace, Kernel, KernelConfig, TIMER_LINE};
use rt_kernel::obj::ObjId;
use rt_kernel::syscall::Syscall;
use rt_kernel::system::Action;
use rt_kernel::MAX_MSG_WORDS;

/// A deterministic, bound-violating delay injected into one shard — the
/// seeded-bug hook for testing the soundness oracle. The engine stalls
/// the machine for `delay` cycles right before servicing `line`, the
/// first time it finds the line pending at its loop head after `after`
/// responses have already been observed on it. The stall models a
/// kernel that missed a preemption point (exactly the regression the
/// oracle exists to catch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultInjection {
    /// Shard to inject into.
    pub shard: u32,
    /// Interrupt line to delay.
    pub line: u8,
    /// Responses already seen on `line` before arming the delay.
    pub after: u64,
    /// Stall length in cycles (choose > the line's static bound to
    /// guarantee an oracle violation).
    pub delay: Cycles,
}

/// Full description of a load run. Byte-identical reports follow from
/// the spec alone (plus worker-count-independent sharding); see
/// `DESIGN.md` §11.
#[derive(Clone, Debug)]
pub struct LoadSpec {
    /// Master RNG seed; per-shard seeds derive from it
    /// ([`crate::rng::shard_seed`]).
    pub seed: u64,
    /// Target number of recorded events (kernel visits + interrupt
    /// responses) across all shards.
    pub events: u64,
    /// Number of independent simulation shards. Fixed by the spec —
    /// **not** by the worker count — so any pool size computes the same
    /// shard set.
    pub shards: u32,
    /// Approximate threads per shard; sets the tenant mix.
    pub tenants: u32,
    /// Timer period (line 0); clamped up to the storm budget.
    pub timer_period: Cycles,
    /// Open-loop storm lines and their arrival processes.
    pub storm: Vec<(u8, Arrival)>,
    /// Closed-loop driver-bound lines.
    pub driver_lines: Vec<u8>,
    /// Simulated cores per shard (DESIGN.md §14). `1` (the default) is
    /// the single-core engine, bit-identical to before the knob
    /// existed. Above 1 each shard boots an SMP kernel with `cores - 1`
    /// adversarial cache-thrasher tenants pinned to the extra cores;
    /// device lines stay routed to core 0, and the per-line bounds must
    /// come from [`rt_wcet::smp_irq_line_bounds`].
    pub cores: u8,
    /// Optional seeded-bug injection (testing only).
    pub fault: Option<FaultInjection>,
}

impl LoadSpec {
    /// The standard heavy-traffic mix: periodic timer; one deterministic,
    /// one jittered and one bursty storm line; two driver lines; and a
    /// tenant population of IPC pairs, thrashers and deep decoders.
    pub fn standard(seed: u64, events: u64, tenants: u32, shards: u32) -> LoadSpec {
        LoadSpec {
            seed,
            events,
            shards: shards.max(1),
            tenants: tenants.max(8),
            timer_period: 400_000,
            storm: vec![
                (6, Arrival::Periodic { period: 500_000 }),
                (
                    9,
                    Arrival::Jitter {
                        period: 600_000,
                        jitter: 250_000,
                    },
                ),
                (
                    12,
                    Arrival::Bursty {
                        burst: 4,
                        on_gap: 300_000,
                        off_gap: 2_000_000,
                    },
                ),
            ],
            driver_lines: vec![3, 4],
            cores: 1,
            fault: None,
        }
    }

    /// Every line the run exercises (timer + storm + driver), sorted and
    /// deduplicated — the input to the per-line bound lookup.
    pub fn active_lines(&self) -> Vec<u8> {
        let mut lines: Vec<u8> = std::iter::once(TIMER_LINE)
            .chain(self.storm.iter().map(|&(l, _)| l))
            .chain(self.driver_lines.iter().copied())
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    /// Per-shard event quota.
    pub fn shard_quota(&self) -> u64 {
        self.events.div_ceil(u64::from(self.shards)).max(1)
    }

    /// The most tenants a shard of this spec holds: every count up to it
    /// fits the shard's shared cspace, and one more exhausts it
    /// ([`build_shard`] panics).
    pub fn max_tenants(&self) -> u32 {
        let drivers = self.driver_lines.len() as u32;
        (8..)
            .take_while(|&t| TenantMix::for_tenants(t, drivers).cspace_slots() < 1 << CSPACE_BITS)
            .last()
            .unwrap_or(0)
    }
}

/// A shard's shared capability space is one CNode of `1 << CSPACE_BITS`
/// slots; slot 0 stays empty.
const CSPACE_BITS: u8 = 12;

/// Children a janitor mints per cycle, each into a slot of its own.
const JANITOR_BATCH: u32 = 16;

/// A tenant's behaviour state machine; [`Behavior::next`] yields the
/// thread's next action each time it is current. All randomness comes from
/// the shard RNG passed in, in deterministic engine-loop order.
#[derive(Clone, Debug)]
pub enum Behavior {
    /// Closed-loop IPC client.
    Client {
        /// Endpoint capability address.
        ep: u32,
        /// Think-time range between calls.
        think: Think,
        /// Next step is the think phase.
        thinking: bool,
    },
    /// IPC server: `Recv` once, then `ReplyRecv` forever.
    Server {
        /// Endpoint capability address.
        ep: u32,
        /// The initial `Recv` has been issued.
        recved: bool,
    },
    /// Adversarial cache thrasher.
    Thrasher {
        /// Compute-burst range between pollutions.
        think: Think,
        /// Cycles through pollute → compute → yield.
        phase: u8,
    },
    /// Worst-case-decode tenant (32-level cspace).
    Decoder {
        /// Deep capability address of its notification.
        cptr: u32,
        /// Think-time range between signals.
        think: Think,
        /// Next step is the think phase.
        thinking: bool,
    },
    /// Mint-then-revoke tenant exercising the preemptible revoke sweep.
    Janitor {
        /// Capability address of the (unbadged) parent notification cap.
        parent: u32,
        /// First of `batch` contiguous destination slots.
        dest_base: u32,
        /// Children minted per cycle.
        batch: u32,
        /// Children minted so far this cycle.
        minted: u32,
        /// Think-time range after each revoke.
        think: Think,
        /// Next step is the think phase.
        resting: bool,
    },
    /// Interrupt driver (seL4 protocol).
    Driver {
        /// Notification capability address it waits on.
        ntfn: u32,
        /// IRQ-handler capability address it acks through.
        handler: u32,
        /// Next step is the ack (a delivery just woke it).
        acking: bool,
    },
}

impl Behavior {
    /// The tenant's next action. `rng` is the shard RNG; draws happen in
    /// engine-loop order, so the stream is deterministic. A think time
    /// computes for at least one cycle.
    pub fn next(&mut self, rng: &mut Rng64) -> Action {
        let compute = |t: &Think, rng: &mut Rng64| Action::Compute(t.draw(rng).max(1));
        match self {
            Behavior::Client {
                ep,
                think,
                thinking,
            } => {
                if *thinking {
                    *thinking = false;
                    compute(think, rng)
                } else {
                    *thinking = true;
                    // Mostly short (fastpath-eligible) calls, with a
                    // slowpath-length tail.
                    let len = if rng.gen_bool(3, 4) {
                        rng.gen_range(0, 5) as u32
                    } else {
                        rng.gen_range(5, u64::from(MAX_MSG_WORDS) + 1) as u32
                    };
                    Action::Syscall(Syscall::Call {
                        cptr: *ep,
                        len,
                        caps: vec![],
                    })
                }
            }
            Behavior::Server { ep, recved } => {
                if !*recved {
                    *recved = true;
                    Action::Syscall(Syscall::Recv { cptr: *ep })
                } else {
                    let len = rng.gen_range(0, u64::from(MAX_MSG_WORDS) + 1) as u32;
                    Action::Syscall(Syscall::ReplyRecv {
                        cptr: *ep,
                        len,
                        caps: vec![],
                    })
                }
            }
            Behavior::Thrasher { think, phase } => {
                *phase = (*phase + 1) % 3;
                match *phase {
                    1 => Action::Pollute,
                    2 => compute(think, rng),
                    _ => Action::Syscall(Syscall::Yield),
                }
            }
            Behavior::Decoder {
                cptr,
                think,
                thinking,
            } => {
                if *thinking {
                    *thinking = false;
                    compute(think, rng)
                } else {
                    *thinking = true;
                    Action::Syscall(Syscall::Signal { cptr: *cptr })
                }
            }
            Behavior::Janitor {
                parent,
                dest_base,
                batch,
                minted,
                think,
                resting,
            } => {
                if *resting {
                    *resting = false;
                    compute(think, rng)
                } else if *minted < *batch {
                    let dest = *dest_base + *minted;
                    *minted += 1;
                    Action::Syscall(Syscall::Mint {
                        src: *parent,
                        dest,
                        badge: Badge(0x4000_0000 | *minted),
                        rights: Rights::ALL,
                    })
                } else {
                    *minted = 0;
                    *resting = true;
                    // The long path: delete every child, one preemption
                    // point per deletion.
                    Action::Syscall(Syscall::Revoke { cptr: *parent })
                }
            }
            Behavior::Driver {
                ntfn,
                handler,
                acking,
            } => {
                if *acking {
                    *acking = false;
                    Action::Syscall(Syscall::IrqAck { handler: *handler })
                } else {
                    *acking = true;
                    Action::Syscall(Syscall::Wait { cptr: *ntfn })
                }
            }
        }
    }
}

/// Values keyed by [`ObjId`], stored in a vector indexed by the id.
/// Object ids are small dense slot indices, so the shard loop's
/// per-step lookups index instead of hashing.
pub struct ObjMap<T>(Vec<Option<T>>);

impl<T> Default for ObjMap<T> {
    fn default() -> ObjMap<T> {
        ObjMap(Vec::new())
    }
}

impl<T> ObjMap<T> {
    /// Sets `id`'s value.
    pub fn insert(&mut self, id: ObjId, value: T) {
        let i = id.0 as usize;
        if i >= self.0.len() {
            self.0.resize_with(i + 1, || None);
        }
        self.0[i] = Some(value);
    }

    /// `id`'s value, if set.
    pub fn get_mut(&mut self, id: ObjId) -> Option<&mut T> {
        self.0.get_mut(id.0 as usize)?.as_mut()
    }

    /// Clears `id`'s value and returns it, if set.
    pub fn remove(&mut self, id: ObjId) -> Option<T> {
        self.0.get_mut(id.0 as usize)?.take()
    }
}

/// A booted shard: the kernel, the tenants' behaviours, and the object
/// census the report prints.
pub struct ShardSim {
    /// The shard's kernel (fresh machine, after-kernel configuration).
    pub kernel: Kernel,
    /// Behaviour per thread.
    pub behaviors: ObjMap<Behavior>,
    /// Threads created (excluding idle).
    pub threads: u32,
    /// Endpoints created.
    pub endpoints: u32,
}

/// Builds shard `shard` of `spec`: boots a kernel, populates the tenant
/// mix, binds driver lines, and resumes every thread. Determinism: the
/// construction consumes no RNG (tenant parameters are fixed by index),
/// so the shard RNG stream is wholly owned by the engine loop.
pub fn build_shard(spec: &LoadSpec) -> ShardSim {
    let mut k = Kernel::new(KernelConfig::after(), HwConfig::default());
    k.enable_smp(spec.cores);
    let mut behaviors = ObjMap::default();
    let mut threads = 0u32;
    let mut endpoints = 0u32;

    // Shared capability space: one level-1 CNode, guard covering the
    // high 20 bits, 4096 slots addressed by small cptrs.
    let cnode = k.boot_cnode(CSPACE_BITS);
    let root = CapType::CNode {
        obj: cnode,
        guard_bits: 32 - CSPACE_BITS,
        guard: 0,
    };
    let mut next_slot = 1u32;
    let mut alloc_slot = || {
        let s = next_slot;
        next_slot += 1;
        assert!(s < 1 << CSPACE_BITS, "shard cspace exhausted");
        s
    };

    let mix = TenantMix::for_tenants(spec.tenants, spec.driver_lines.len() as u32);

    // Drivers first: they must outrank every other tenant so a delivery
    // preempts whatever is running.
    for (i, &line) in spec.driver_lines.iter().enumerate() {
        let ntfn = k.boot_ntfn();
        let drv = k.boot_tcb(&format!("drv{line}"), 200 + i as u8);
        k.objs.tcb_mut(drv).cspace_root = root.clone();
        let ntfn_slot = alloc_slot();
        insert_cap(
            &mut k.objs,
            SlotRef::new(cnode, ntfn_slot),
            CapType::Notification {
                obj: ntfn,
                badge: Badge(0x100 + u32::from(line)),
                rights: Rights::ALL,
            },
            None,
        );
        let handler_slot = alloc_slot();
        insert_cap(
            &mut k.objs,
            SlotRef::new(cnode, handler_slot),
            CapType::IrqHandler(line),
            None,
        );
        k.irq_table.issue(line);
        k.irq_table.bind(line, ntfn, Badge(0x100 + u32::from(line)));
        behaviors.insert(
            drv,
            Behavior::Driver {
                ntfn: ntfn_slot,
                handler: handler_slot,
                acking: false,
            },
        );
        threads += 1;
        k.boot_resume(drv);
    }

    // IPC pairs.
    for i in 0..mix.ipc_pairs {
        let ep = k.boot_endpoint();
        endpoints += 1;
        let ep_slot = alloc_slot();
        insert_cap(
            &mut k.objs,
            SlotRef::new(cnode, ep_slot),
            CapType::Endpoint {
                obj: ep,
                badge: Badge(i + 1),
                rights: Rights::ALL,
            },
            None,
        );
        let server = k.boot_tcb(&format!("srv{i}"), 100);
        let client = k.boot_tcb(&format!("cli{i}"), 50);
        for t in [server, client] {
            k.objs.tcb_mut(t).cspace_root = root.clone();
        }
        behaviors.insert(
            server,
            Behavior::Server {
                ep: ep_slot,
                recved: false,
            },
        );
        behaviors.insert(
            client,
            Behavior::Client {
                ep: ep_slot,
                think: Think {
                    lo: 2_000,
                    hi: 60_000,
                },
                thinking: false,
            },
        );
        threads += 2;
        k.boot_resume(server);
        k.boot_resume(client);
    }

    // Thrashers.
    for i in 0..mix.thrashers {
        let t = k.boot_tcb(&format!("thrash{i}"), 50);
        k.objs.tcb_mut(t).cspace_root = root.clone();
        behaviors.insert(
            t,
            Behavior::Thrasher {
                think: Think {
                    lo: 5_000,
                    hi: 40_000,
                },
                phase: 0,
            },
        );
        threads += 1;
        k.boot_resume(t);
    }

    // Janitors: a private unbadged notification cap each, plus a batch
    // of contiguous destination slots in the shared cspace.
    for i in 0..mix.janitors {
        let ntfn = k.boot_ntfn();
        let parent = alloc_slot();
        insert_cap(
            &mut k.objs,
            SlotRef::new(cnode, parent),
            CapType::Notification {
                obj: ntfn,
                badge: Badge::NONE,
                rights: Rights::ALL,
            },
            None,
        );
        let dest_base = alloc_slot();
        for _ in 1..JANITOR_BATCH {
            alloc_slot();
        }
        let t = k.boot_tcb(&format!("jan{i}"), 50);
        k.objs.tcb_mut(t).cspace_root = root.clone();
        behaviors.insert(
            t,
            Behavior::Janitor {
                parent,
                dest_base,
                batch: JANITOR_BATCH,
                minted: 0,
                think: Think {
                    lo: 20_000,
                    hi: 100_000,
                },
                resting: false,
            },
        );
        threads += 1;
        k.boot_resume(t);
    }

    // Decoders: one shared 32-level trie; each decoder's notification
    // cap sits at a distinct deep address and the trie root *is* their
    // cspace root, so every Signal decodes 32 levels.
    if mix.decoders > 0 {
        let trie = DeepCspace::new(&mut k);
        for i in 0..mix.decoders {
            let ntfn = k.boot_ntfn();
            let cptr = 0xD00D_0000u32 ^ (i.wrapping_mul(0x0101_0103));
            trie.insert(
                &mut k,
                cptr,
                CapType::Notification {
                    obj: ntfn,
                    badge: Badge(0x8000_0000 | i),
                    rights: Rights::ALL,
                },
            );
            let t = k.boot_tcb(&format!("deep{i}"), 50);
            k.objs.tcb_mut(t).cspace_root = trie.root_cap.clone();
            behaviors.insert(
                t,
                Behavior::Decoder {
                    cptr,
                    think: Think {
                        lo: 10_000,
                        hi: 80_000,
                    },
                    thinking: false,
                },
            );
            threads += 1;
            k.boot_resume(t);
        }
    }

    // Remote adversaries: one cache thrasher pinned to each extra core
    // (DESIGN.md §14). They pollute the shared L2 and take the big lock
    // from the other side — the cross-core interference the SMP latency
    // margin has to cover. `boot_resume` queues each on its affinity
    // core and kicks it; the engine's per-core slices service the kick.
    for c in 1..spec.cores {
        let t = k.boot_tcb(&format!("rthrash{c}"), 60);
        k.objs.tcb_mut(t).cspace_root = root.clone();
        k.set_affinity(t, c);
        behaviors.insert(
            t,
            Behavior::Thrasher {
                think: Think {
                    lo: 5_000,
                    hi: 40_000,
                },
                phase: 0,
            },
        );
        threads += 1;
        k.boot_resume(t);
    }

    ShardSim {
        kernel: k,
        behaviors,
        threads,
        endpoints,
    }
}

/// How `tenants` threads per shard split across tenant kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantMix {
    /// Client/server pairs (two threads each).
    pub ipc_pairs: u32,
    /// Cache thrashers.
    pub thrashers: u32,
    /// Deep-decode tenants.
    pub decoders: u32,
    /// Mint-then-revoke tenants.
    pub janitors: u32,
    /// Interrupt drivers (fixed by the spec's driver lines).
    pub drivers: u32,
}

impl TenantMix {
    /// The standard split: 1/8 each of thrashers, decoders and janitors,
    /// the rest IPC pairs, plus the spec's drivers.
    pub fn for_tenants(tenants: u32, drivers: u32) -> TenantMix {
        let tenants = tenants.max(8);
        let thrashers = (tenants / 8).max(1);
        let decoders = (tenants / 8).max(1);
        let janitors = (tenants / 8).max(1);
        let rest = tenants.saturating_sub(thrashers + decoders + janitors + drivers);
        TenantMix {
            ipc_pairs: (rest / 2).max(1),
            thrashers,
            decoders,
            janitors,
            drivers,
        }
    }

    /// Total threads this mix creates.
    pub fn threads(&self) -> u32 {
        self.ipc_pairs * 2 + self.thrashers + self.decoders + self.janitors + self.drivers
    }

    /// Shared-cspace slots [`build_shard`] takes for this mix: a
    /// notification and an IRQ handler per driver, an endpoint per IPC
    /// pair, and a parent plus its batch per janitor. Thrashers take
    /// none, and decoders live in their own trie.
    fn cspace_slots(&self) -> u32 {
        2 * self.drivers + self.ipc_pairs + self.janitors * (1 + JANITOR_BATCH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_spec_lines_are_sorted_unique() {
        let spec = LoadSpec::standard(1, 1000, 32, 4);
        let lines = spec.active_lines();
        assert_eq!(lines, vec![0, 3, 4, 6, 9, 12]);
    }

    #[test]
    fn mix_accounts_for_all_tenants() {
        for tenants in [8, 16, 64, 129] {
            let m = TenantMix::for_tenants(tenants, 2);
            assert!(m.ipc_pairs >= 1 && m.thrashers >= 1 && m.decoders >= 1);
            // Threads land within one pair of the request.
            assert!(m.threads() <= tenants + 2, "{m:?} for {tenants}");
        }
    }

    #[test]
    fn max_tenants_is_the_last_count_a_shard_cspace_holds() {
        let mut spec = LoadSpec::standard(7, 1000, 8, 1);
        let max = spec.max_tenants();
        assert_eq!(max, 1679);
        spec.tenants = max;
        build_shard(&spec);
        spec.tenants = max + 1;
        assert!(std::panic::catch_unwind(|| build_shard(&spec)).is_err());
    }

    #[test]
    fn shard_boots_with_invariants_held() {
        let spec = LoadSpec::standard(7, 1000, 16, 1);
        let sim = build_shard(&spec);
        assert!(sim.threads >= 8);
        assert!(sim.endpoints >= 1);
        rt_kernel::invariants::assert_all(&sim.kernel);
    }
}
