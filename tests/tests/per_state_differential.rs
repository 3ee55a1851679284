//! Differential tests for the explorer's per-state fast paths
//! (DESIGN.md §16). Each fast path is checked against the full scan or
//! the allocating copy it replaced:
//!
//! * the CNode in-use slot index — every slot it skips is null, and the
//!   occupancy helpers and `is_final` agree with full-scan references
//!   under random cap-operation scripts;
//! * the CNode slot store — `slot`, the occupancy helpers and the in-use
//!   list agree with a dense `Vec<CapSlot>` reference under random
//!   `slot_mut` writes at radix 1–16, and writing a clone leaves the
//!   original as it was;
//! * the run-queue head mask — `nonempty` lists exactly the queues
//!   `head` finds non-empty;
//! * the buffer-reusing SMP restore — `restore_into` across 1-, 2- and
//!   4-core shapes equals `restore()`, at rest and after identical
//!   forward execution.

use std::collections::HashMap;

use proptest::prelude::*;
use rt_explore::scenario;
use rt_hw::HwConfig;
use rt_kernel::cap::{
    delete_cap, insert_cap, is_final, read_slot, Badge, CapSlot, CapType, Rights, SlotRef,
};
use rt_kernel::cnode::CNode;
use rt_kernel::kernel::{Kernel, KernelConfig, KernelSnapshot};
use rt_kernel::obj::{ObjId, ObjKind, ObjStore};
use rt_kernel::sched::RunQueues;
use rt_kernel::syscall::{Syscall, SyscallOutcome};
use rt_kernel::tcb::{Tcb, ThreadState, TCB_SIZE_BITS};

// --- CNode in-use index ---------------------------------------------------

#[derive(Debug, Clone)]
enum CapOp {
    /// A fresh endpoint cap (a new object) into an empty slot of either
    /// CNode, with no CDT parent.
    Insert(u8, u32),
    /// `Mint` syscall within the root CNode: a badged child.
    Mint(u32, u32, u32),
    /// CDT-preserving move between any two slots: delete, then insert
    /// under the old parent.
    Move((u8, u32), (u8, u32)),
    /// `Delete` syscall on a root slot (destroys the object when final,
    /// tearing down the second CNode slot by slot when it is).
    Delete(u32),
    /// `Revoke` syscall on a root slot.
    Revoke(u32),
}

/// A slot of either CNode: `(which, raw index)`, reduced modulo its size.
fn slot() -> impl Strategy<Value = (u8, u32)> {
    (0u8..2, any::<u32>())
}

fn cap_ops() -> impl Strategy<Value = Vec<CapOp>> {
    proptest::collection::vec(
        prop_oneof![
            slot().prop_map(|(n, i)| CapOp::Insert(n, i)),
            (any::<u32>(), any::<u32>(), 0u32..4).prop_map(|(s, d, b)| CapOp::Mint(s, d, b)),
            (slot(), slot()).prop_map(|(a, b)| CapOp::Move(a, b)),
            any::<u32>().prop_map(CapOp::Delete),
            any::<u32>().prop_map(CapOp::Revoke),
        ],
        1..40,
    )
}

/// A task whose cspace root (held by value, as a thread's root is) is a
/// radix-`r1` CNode; root slot 0 holds the final cap to a second,
/// radix-`r2` CNode.
fn boot_cspace(r1: u8, r2: u8) -> (Kernel, [ObjId; 2]) {
    let mut k = Kernel::new(KernelConfig::after(), HwConfig::default());
    let root = k.boot_cnode(r1);
    let second = k.boot_cnode(r2);
    let task = k.boot_tcb("task", 100);
    k.objs.tcb_mut(task).cspace_root = CapType::CNode {
        obj: root,
        guard_bits: 32 - r1,
        guard: 0,
    };
    insert_cap(
        &mut k.objs,
        SlotRef::new(root, 0),
        CapType::CNode {
            obj: second,
            guard_bits: 0,
            guard: 0,
        },
        None,
    );
    k.objs.tcb_mut(task).state = ThreadState::Running;
    k.force_current_for_test(task);
    (k, [root, second])
}

/// Runs a syscall to completion, resuming it after every preemption.
fn run(k: &mut Kernel, sys: Syscall) {
    while k.handle_syscall(sys.clone()) == SyscallOutcome::Preempted {}
}

fn cnode_slot(k: &Kernel, nodes: [ObjId; 2], (n, i): (u8, u32)) -> Option<SlotRef> {
    let node = nodes[n as usize];
    match &k.objs.is_live(node).then(|| &k.objs.get(node).kind) {
        Some(ObjKind::CNode(cn)) => Some(SlotRef::new(node, i % cn.num_slots())),
        _ => None,
    }
}

fn apply(k: &mut Kernel, nodes: [ObjId; 2], op: &CapOp) {
    let root_slots = k.objs.cnode(nodes[0]).num_slots();
    match *op {
        CapOp::Insert(n, i) => {
            let Some(slot) = cnode_slot(k, nodes, (n, i)) else {
                return;
            };
            if read_slot(&k.objs, slot).cap.is_null() {
                let ep = k.boot_endpoint();
                let cap = CapType::Endpoint {
                    obj: ep,
                    badge: Badge::NONE,
                    rights: Rights::ALL,
                };
                insert_cap(&mut k.objs, slot, cap, None);
            }
        }
        CapOp::Mint(src, dest, badge) => run(
            k,
            Syscall::Mint {
                src: src % root_slots,
                dest: dest % root_slots,
                badge: Badge(badge),
                rights: Rights::ALL,
            },
        ),
        CapOp::Move(a, b) => {
            let (Some(src), Some(dst)) = (cnode_slot(k, nodes, a), cnode_slot(k, nodes, b)) else {
                return;
            };
            if src != dst
                && !read_slot(&k.objs, src).cap.is_null()
                && read_slot(&k.objs, dst).cap.is_null()
            {
                let parent = read_slot(&k.objs, src).parent;
                let cap = delete_cap(&mut k.objs, src);
                insert_cap(&mut k.objs, dst, cap, parent);
            }
        }
        CapOp::Delete(i) => run(
            k,
            Syscall::Delete {
                cptr: i % root_slots,
            },
        ),
        CapOp::Revoke(i) => run(
            k,
            Syscall::Revoke {
                cptr: i % root_slots,
            },
        ),
    }
}

/// Checks every live CNode's index and occupancy helpers, and `is_final`
/// at every occupied slot, against full scans.
fn check_index(store: &ObjStore) -> Result<(), TestCaseError> {
    // Full-scan finality reference: who holds a cap to each object,
    // ignoring caps stored inside the object itself.
    let mut holders: HashMap<ObjId, Vec<SlotRef>> = HashMap::new();
    for (id, o) in store.iter() {
        if let ObjKind::CNode(cn) = &o.kind {
            for i in 0..cn.num_slots() {
                match cn.slot(i).cap.object() {
                    Some(obj) if obj != id => {
                        holders.entry(obj).or_default().push(SlotRef::new(id, i))
                    }
                    _ => {}
                }
            }
        }
    }
    for (id, o) in store.iter() {
        let ObjKind::CNode(cn) = &o.kind else {
            continue;
        };
        let in_use: Vec<u32> = cn.slots_in_use().map(|(i, _)| i).collect();
        prop_assert!(
            in_use.windows(2).all(|w| w[0] < w[1]),
            "{id:?}: index not ascending"
        );
        prop_assert!(in_use.iter().all(|&i| i < cn.num_slots()));
        for i in 0..cn.num_slots() {
            let s = cn.slot(i);
            if in_use.binary_search(&i).is_err() {
                prop_assert!(
                    s.cap.is_null() && s.parent.is_none() && s.children.is_empty(),
                    "{id:?}[{i}] skipped by the index but not null: {s:?}"
                );
            }
        }
        let occupied: Vec<u32> = (0..cn.num_slots())
            .filter(|&i| !cn.slot(i).cap.is_null())
            .collect();
        prop_assert_eq!(cn.first_occupied(), occupied.first().copied());
        prop_assert_eq!(cn.occupied(), occupied.len() as u32);
        for &i in &occupied {
            let slot = SlotRef::new(id, i);
            let reference = cn
                .slot(i)
                .cap
                .object()
                .is_some_and(|obj| holders.get(&obj).is_some_and(|h| h[..] == [slot]));
            prop_assert_eq!(is_final(store, slot), reference, "is_final at {:?}", slot);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn slot_index_matches_full_scans(r1 in 1u8..=12, r2 in 1u8..=12, ops in cap_ops()) {
        let (mut k, nodes) = boot_cspace(r1, r2);
        check_index(&k.objs)?;
        for op in &ops {
            apply(&mut k, nodes, op);
            check_index(&k.objs)?;
        }
    }
}

// --- CNode slots against a dense reference ----------------------------------

/// One `slot_mut` step: `(kind, raw index, payload seed)`. Kinds 0–1 write
/// a cap at `raw` or at the last index; 2–3 null or rewrite a slot already
/// touched; 4 nulls `raw`, touched or not.
type SlotOp = (u8, u32, u32);

fn slot_ops(len: usize) -> impl Strategy<Value = Vec<SlotOp>> {
    proptest::collection::vec((0u8..5, any::<u32>(), any::<u32>()), 0..len)
}

fn same_slot(a: &CapSlot, b: &CapSlot) -> bool {
    a.cap == b.cap && a.parent == b.parent && a.children == b.children
}

/// Applies `op` to `cn` and to its dense reference alike.
fn apply_slot_op(cn: &mut CNode, reference: &mut [CapSlot], touched: &mut Vec<u32>, op: SlotOp) {
    let (kind, raw, seed) = op;
    let n = cn.num_slots();
    let pick = |touched: &Vec<u32>| match touched.len() {
        0 => raw % n,
        len => touched[raw as usize % len],
    };
    let (index, value) = match kind {
        0 | 1 => {
            let index = if kind == 0 { raw % n } else { n - 1 };
            (index, Some(seed))
        }
        2 => (pick(touched), None),
        3 => (pick(touched), Some(seed)),
        _ => (raw % n, None),
    };
    let slot = match value {
        None => CapSlot::null(),
        Some(seed) => CapSlot {
            cap: CapType::Endpoint {
                obj: ObjId(seed % 7),
                badge: Badge(seed),
                rights: Rights::ALL,
            },
            parent: (seed % 3 == 0).then(|| SlotRef::new(ObjId(1), seed % n)),
            children: (0..seed % 3).map(|c| SlotRef::new(ObjId(2), c)).collect(),
        },
    };
    *cn.slot_mut(index) = slot.clone();
    reference[index as usize] = slot;
    touched.push(index);
}

/// Checks the CNode's helpers against the reference; with `every_slot`,
/// also reads each of its `2^radix` slots.
fn check_against(cn: &CNode, reference: &[CapSlot], every_slot: bool) -> Result<(), TestCaseError> {
    let occupied: Vec<u32> = (0..cn.num_slots())
        .filter(|&i| !reference[i as usize].cap.is_null())
        .collect();
    prop_assert_eq!(cn.first_occupied(), occupied.first().copied());
    prop_assert_eq!(cn.occupied(), occupied.len() as u32);
    let in_use: Vec<(u32, &CapSlot)> = cn.slots_in_use().collect();
    prop_assert!(
        in_use.windows(2).all(|w| w[0].0 < w[1].0),
        "slots in use not strictly ascending"
    );
    for &(i, s) in &in_use {
        prop_assert!(i < cn.num_slots(), "slot {i} in use beyond the node");
        prop_assert!(
            same_slot(s, &reference[i as usize]),
            "in-use slot {i}: {s:?}"
        );
    }
    for &i in &occupied {
        prop_assert!(
            in_use.binary_search_by_key(&i, |&(j, _)| j).is_ok(),
            "occupied slot {i} not in use"
        );
    }
    if every_slot {
        for i in 0..cn.num_slots() {
            let s = cn.slot(i);
            prop_assert!(same_slot(s, &reference[i as usize]), "slot {i}: {s:?}");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cnode_slots_match_dense_reference(
        radix in 1u8..=16,
        ops in slot_ops(48),
        clone_ops in slot_ops(12),
    ) {
        let mut cn = CNode::new(radix);
        let mut reference = vec![CapSlot::null(); cn.num_slots() as usize];
        let mut touched = Vec::new();
        check_against(&cn, &reference, true)?;
        for &op in &ops {
            apply_slot_op(&mut cn, &mut reference, &mut touched, op);
            check_against(&cn, &reference, false)?;
        }
        check_against(&cn, &reference, true)?;
        // Writes to a clone leave the original as it was.
        let mut copy = cn.clone();
        let mut copy_reference = reference.clone();
        for &op in &clone_ops {
            apply_slot_op(&mut copy, &mut copy_reference, &mut touched, op);
        }
        check_against(&copy, &copy_reference, true)?;
        check_against(&cn, &reference, true)?;
    }
}

// --- run-queue head mask --------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn nonempty_matches_head_scan(ops in proptest::collection::vec((0u8..24, any::<u8>(), any::<bool>()), 1..80)) {
        let mut s = ObjStore::new();
        let tcbs: Vec<ObjId> = (0..24u32)
            .map(|i| {
                let id = s.insert(0x8000_0000 + i * 512, TCB_SIZE_BITS, ObjKind::Tcb(Tcb::new(&format!("t{i}"), 0)));
                s.tcb_mut(id).state = ThreadState::Running;
                id
            })
            .collect();
        let mut q = RunQueues::new();
        for (t, prio, enqueue) in ops {
            let id = tcbs[t as usize];
            match (enqueue, s.tcb(id).in_runqueue) {
                (true, false) => {
                    s.tcb_mut(id).prio = prio;
                    q.enqueue(&mut s, id);
                }
                (false, true) => q.dequeue(&mut s, id),
                _ => {}
            }
            let scan: Vec<(u8, ObjId)> = (0..=255u8).filter_map(|p| q.head(p).map(|h| (p, h))).collect();
            prop_assert_eq!(q.nonempty().collect::<Vec<_>>(), scan);
            let mut mask = [0u32; 8];
            for p in 0..=255u8 {
                if q.head(p).is_some() {
                    mask[p as usize / 32] |= 1 << (p % 32);
                }
            }
            prop_assert_eq!(q.heads_mask(), mask);
        }
    }
}

// --- SMP restore across core-count shapes -----------------------------------

/// Every field of a kernel, via its snapshot's `Debug`.
fn state(k: &Kernel) -> String {
    format!("{:?}", k.snapshot())
}

/// Identical forward execution for any shape: core 0's current thread
/// deletes the queued endpoint (remote enqueues and reschedule IPIs on
/// the SMP shapes), then every core services what is pending.
fn drive(k: &mut Kernel) {
    k.machine.switch_core(0);
    run(
        k,
        Syscall::Delete {
            cptr: scenario::cptrs::EP,
        },
    );
    for c in 0..k.n_cores() {
        k.machine.switch_core(c);
        k.machine.advance(500);
        k.handle_interrupt();
    }
}

fn boot(name: &str) -> Kernel {
    (scenario::by_name(name).expect("scenario").build)().kernel
}

#[test]
fn restore_into_matches_restore_across_core_counts() {
    // Snapshots of each shape, at boot and after running forward.
    let mut snaps: Vec<KernelSnapshot> = Vec::new();
    for name in ["smp-ep-delete", "smp-quad-ep-delete", "ep-delete"] {
        let mut k = boot(name);
        snaps.push(k.snapshot());
        drive(&mut k);
        snaps.push(k.snapshot());
    }
    // 2-core, 4-core, 2-core, 1-core, 4-core, ...: every shape change in
    // both directions, including to and from no SMP state at all.
    let order = [0, 2, 1, 3, 4, 0, 5, 3, 2, 0];
    for target_name in ["ep-delete", "smp-ep-delete", "smp-quad-ep-delete"] {
        let mut target = boot(target_name);
        drive(&mut target);
        for &i in &order {
            let snap = &snaps[i];
            snap.restore_into(&mut target);
            let mut fresh = snap.restore();
            assert_eq!(
                state(&fresh),
                state(&target),
                "snapshot {i} into {target_name}: at rest"
            );
            assert_eq!(fresh.n_cores(), target.n_cores());
            drive(&mut fresh);
            drive(&mut target);
            assert_eq!(
                state(&fresh),
                state(&target),
                "snapshot {i} into {target_name}: after running"
            );
        }
    }
}
