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
//! * the run-queue non-empty mask — `nonempty` and `heads_mask` list
//!   exactly the queues `head` finds non-empty, through enqueues,
//!   dequeues, a `clone_from` restore and `choose_lazy`'s dequeues;
//! * the page-table hash — streaming only the mapped entries and set
//!   shadow slots, it still moves when any one field of a directory or
//!   table changes, under both VM designs;
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
use rt_kernel::kernel::{Kernel, KernelConfig, KernelSnapshot, VmKind};
use rt_kernel::obj::{ObjId, ObjKind, ObjStore};
use rt_kernel::sched::RunQueues;
use rt_kernel::syscall::{Syscall, SyscallOutcome};
use rt_kernel::tcb::{Tcb, ThreadState, TCB_SIZE_BITS};
use rt_kernel::vspace::{Frame, PageDirectory, PageTable, PdEntry, PtEntry, KERNEL_PDE_START};

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

/// 24 runnable threads at priority 0, none queued.
fn thread_store() -> (ObjStore, Vec<ObjId>) {
    let mut s = ObjStore::new();
    let tcbs = (0..24u32)
        .map(|i| {
            let id = s.insert(
                0x8000_0000 + i * 512,
                TCB_SIZE_BITS,
                ObjKind::Tcb(Tcb::new(&format!("t{i}"), 0)),
            );
            s.tcb_mut(id).state = ThreadState::Running;
            id
        })
        .collect();
    (s, tcbs)
}

/// `(thread, prio, enqueue)`: enqueue the thread at `prio` if it is not
/// queued, or dequeue it if it is.
fn queue_ops() -> impl Strategy<Value = Vec<(u8, u8, bool)>> {
    proptest::collection::vec((0u8..24, any::<u8>(), any::<bool>()), 1..80)
}

fn apply_queue_op(
    q: &mut RunQueues,
    s: &mut ObjStore,
    tcbs: &[ObjId],
    (t, prio, enqueue): (u8, u8, bool),
) {
    let id = tcbs[t as usize];
    match (enqueue, s.tcb(id).in_runqueue) {
        (true, false) => {
            s.tcb_mut(id).prio = prio;
            q.enqueue(s, id);
        }
        (false, true) => q.dequeue(s, id),
        _ => {}
    }
}

/// `nonempty` and `heads_mask` list exactly the queues a scan of all 256
/// heads finds non-empty.
fn check_mask(q: &RunQueues) -> Result<(), TestCaseError> {
    let scan: Vec<(u8, ObjId)> = (0..=255u8)
        .filter_map(|p| q.head(p).map(|h| (p, h)))
        .collect();
    prop_assert_eq!(q.nonempty().collect::<Vec<_>>(), scan.clone());
    let mut mask = [0u32; 8];
    for (p, _) in scan {
        mask[p as usize / 32] |= 1 << (p % 32);
    }
    prop_assert_eq!(q.heads_mask(), mask);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After every enqueue and dequeue; after `clone_from` over queues
    /// with another history (the snapshot-restore path), and as the
    /// restored queues go on; and across `choose_lazy`, which dequeues
    /// the blocked threads it meets, until the queues drain.
    #[test]
    fn nonempty_matches_head_scan(ops in queue_ops(), other in queue_ops(), blocked in proptest::collection::vec(any::<bool>(), 24)) {
        let (mut s, tcbs) = thread_store();
        let mut q = RunQueues::new();
        for &op in &ops {
            apply_queue_op(&mut q, &mut s, &tcbs, op);
            check_mask(&q)?;
        }

        let (mut restored_store, _) = thread_store();
        let mut restored = RunQueues::new();
        for &op in &other {
            apply_queue_op(&mut restored, &mut restored_store, &tcbs, op);
        }
        restored.clone_from(&q);
        restored_store.copy_from(&s);
        check_mask(&restored)?;
        for &op in &other {
            apply_queue_op(&mut restored, &mut restored_store, &tcbs, op);
            check_mask(&restored)?;
        }

        for (&t, &b) in tcbs.iter().zip(&blocked) {
            if b {
                s.tcb_mut(t).state = ThreadState::BlockedOnReply;
            }
        }
        loop {
            let choice = q.choose_lazy(&mut s);
            check_mask(&q)?;
            let Some(t) = choice.thread else { break };
            q.dequeue(&mut s, t);
            check_mask(&q)?;
        }
        prop_assert!(q.is_empty());
    }
}

// --- page-table hash --------------------------------------------------------

/// One step of a mapping script on the test's directory and table, as
/// the map and unmap system calls write them.
#[derive(Debug, Clone, Copy)]
enum MapOp {
    /// A section (frame `f`) at user PD index `i`, if the entry is free.
    Section(u16, u8),
    /// The page table at user PD index `i`, if the entry is free and the
    /// table is not yet installed.
    Table(u16),
    /// A page (frame `f`) at PT index `i`, if the entry is free.
    Page(u8, u8),
    /// Clears PD index `i`, as an unmap does.
    UnmapPd(u16),
    /// Clears PT index `i`, as an unmap does.
    UnmapPt(u8),
}

fn map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    let pdi = 0..KERNEL_PDE_START as u16;
    proptest::collection::vec(
        prop_oneof![
            (pdi.clone(), 0u8..4).prop_map(|(i, f)| MapOp::Section(i, f)),
            pdi.clone().prop_map(MapOp::Table),
            (any::<u8>(), 0u8..4).prop_map(|(i, f)| MapOp::Page(i, f)),
            pdi.prop_map(MapOp::UnmapPd),
            any::<u8>().prop_map(MapOp::UnmapPt),
        ],
        0..40,
    )
}

/// A kernel holding one page directory (kernel mappings installed), one
/// page table and four frames, with `script` applied; shadow arrays exist
/// under [`VmKind::ShadowPt`] only. Returns the kernel, the directory, the
/// table, and a cap slot that shadow entries point at.
fn paging_kernel(vm: VmKind, script: &[MapOp]) -> (Kernel, ObjId, ObjId, SlotRef) {
    let mut k = Kernel::new(
        KernelConfig {
            vm,
            ..KernelConfig::after()
        },
        HwConfig::default(),
    );
    let shadow = vm == VmKind::ShadowPt;
    let cnode = k.boot_cnode(4);
    let mut dir = PageDirectory::new(shadow);
    dir.install_kernel_mappings();
    let base = k.boot_alloc().alloc(14);
    let pd = k.objs.insert(base, 14, ObjKind::PageDirectory(dir));
    let base = k.boot_alloc().alloc(10);
    let pt = k
        .objs
        .insert(base, 10, ObjKind::PageTable(PageTable::new(shadow)));
    let frames: Vec<ObjId> = (0..4)
        .map(|_| {
            let base = k.boot_alloc().alloc(12);
            k.objs.insert(base, 12, ObjKind::Frame(Frame::new(12)))
        })
        .collect();
    for &op in script {
        let slot = |i| Some(SlotRef::new(cnode, u32::from(i) % 16));
        match op {
            MapOp::Section(i, f) => {
                let frame = frames[f as usize];
                map_pd(k.objs.pd_mut(pd), i, PdEntry::Section { frame }, slot(i));
            }
            MapOp::Table(i) => {
                if k.objs.pt(pt).mapped_in.is_none()
                    && map_pd(k.objs.pd_mut(pd), i, PdEntry::Table { pt }, slot(i))
                {
                    k.objs.pt_mut(pt).mapped_in = Some((pd, u32::from(i)));
                }
            }
            MapOp::Page(i, f) => {
                let t = k.objs.pt_mut(pt);
                let i = usize::from(i);
                if t.entries[i] == PtEntry::Invalid {
                    t.entries[i] = PtEntry::Page {
                        frame: frames[f as usize],
                    };
                    t.note_mapped(i as u32);
                    if let Some(s) = t.shadow.get_mut(i) {
                        *s = slot(i as u16);
                    }
                }
            }
            MapOp::UnmapPd(i) => {
                let d = k.objs.pd_mut(pd);
                d.entries[usize::from(i)] = PdEntry::Invalid;
                if let Some(s) = d.shadow.get_mut(usize::from(i)) {
                    *s = None;
                }
            }
            MapOp::UnmapPt(i) => {
                let t = k.objs.pt_mut(pt);
                t.entries[usize::from(i)] = PtEntry::Invalid;
                if let Some(s) = t.shadow.get_mut(usize::from(i)) {
                    *s = None;
                }
            }
        }
    }
    (k, pd, pt, SlotRef::new(cnode, 7))
}

/// Writes `entry` at PD index `i` if that entry is free, with its shadow
/// slot where the design has one; returns whether it did.
fn map_pd(d: &mut PageDirectory, i: u16, entry: PdEntry, slot: Option<SlotRef>) -> bool {
    let i = usize::from(i);
    if d.entries[i] != PdEntry::Invalid {
        return false;
    }
    d.entries[i] = entry;
    d.note_mapped(i as u32);
    if let Some(s) = d.shadow.get_mut(i) {
        *s = slot;
    }
    true
}

fn hash(k: &Kernel) -> u64 {
    rt_explore::state::canonical_hash(k, &[], &[])
}

/// One change to the test's directory or table that the hash must see.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Change {
    PdEntry,
    PdShadow,
    PdShadowAtInvalid,
    PdLowestMapped,
    KernelMapped,
    PtEntry,
    PtShadow,
    PtShadowAtInvalid,
    PtLowestMapped,
    MappedIn,
}

impl Change {
    const ALL: [Change; 10] = [
        Change::PdEntry,
        Change::PdShadow,
        Change::PdShadowAtInvalid,
        Change::PdLowestMapped,
        Change::KernelMapped,
        Change::PtEntry,
        Change::PtShadow,
        Change::PtShadowAtInvalid,
        Change::PtLowestMapped,
        Change::MappedIn,
    ];

    fn of_shadow(self) -> bool {
        matches!(
            self,
            Change::PdShadow
                | Change::PdShadowAtInvalid
                | Change::PtShadow
                | Change::PtShadowAtInvalid
        )
    }
}

/// Applies `change` to the directory `pd` or the table `pt` of `k`:
/// entry `pdi`/`pti` toggles between `Invalid` and a mapping, shadow slot
/// `pdi`/`pti` between empty and `slot`, the first `Invalid` entry with
/// an empty shadow slot gets `slot`, and the scalars flip `bit`, toggle
/// or move.
fn apply_change(
    k: &mut Kernel,
    (pd, pt): (ObjId, ObjId),
    pdi: usize,
    pti: usize,
    bit: u32,
    slot: SlotRef,
    change: Change,
) {
    let toggle = |s: &mut Option<SlotRef>| *s = if s.is_some() { None } else { Some(slot) };
    let section = PdEntry::Section { frame: ObjId(0) };
    let page = PtEntry::Page { frame: ObjId(0) };
    match change {
        Change::PdEntry => {
            let e = &mut k.objs.pd_mut(pd).entries[pdi];
            *e = if *e == section {
                PdEntry::Invalid
            } else {
                section
            };
        }
        Change::PdShadow => toggle(&mut k.objs.pd_mut(pd).shadow[pdi]),
        Change::PdShadowAtInvalid => {
            let d = k.objs.pd_mut(pd);
            let i = free_index(&d.entries, &d.shadow, PdEntry::Invalid);
            d.shadow[i] = Some(slot);
        }
        Change::PdLowestMapped => k.objs.pd_mut(pd).lowest_mapped ^= 1 << bit,
        Change::KernelMapped => {
            let d = k.objs.pd_mut(pd);
            d.kernel_mapped = !d.kernel_mapped;
        }
        Change::PtEntry => {
            let e = &mut k.objs.pt_mut(pt).entries[pti];
            *e = if *e == page { PtEntry::Invalid } else { page };
        }
        Change::PtShadow => toggle(&mut k.objs.pt_mut(pt).shadow[pti]),
        Change::PtShadowAtInvalid => {
            let t = k.objs.pt_mut(pt);
            let i = free_index(&t.entries, &t.shadow, PtEntry::Invalid);
            t.shadow[i] = Some(slot);
        }
        Change::PtLowestMapped => k.objs.pt_mut(pt).lowest_mapped ^= 1 << bit,
        Change::MappedIn => {
            let m = &mut k.objs.pt_mut(pt).mapped_in;
            *m = match *m {
                None => Some((pd, bit)),
                Some((d, i)) if bit.is_multiple_of(2) => Some((d, i ^ 1)),
                Some(_) => None,
            };
        }
    }
}

/// The first index whose entry is `invalid` and whose shadow slot is
/// empty.
fn free_index<E: PartialEq>(entries: &[E], shadow: &[Option<SlotRef>], invalid: E) -> usize {
    (0..entries.len())
        .find(|&i| entries[i] == invalid && shadow[i].is_none())
        .expect("a free index")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under both VM designs, an unchanged copy of a mapped directory and
    /// table hashes equal, and changing any one thing the hash covers
    /// (an entry, a shadow slot, a shadow slot at an `Invalid` entry,
    /// `lowest_mapped`, `kernel_mapped` or `mapped_in`) moves it. Shadow
    /// slots exist under the shadow design only.
    #[test]
    fn page_table_hash_sees_every_field(
        script in map_ops(),
        pdi in 0u16..4096,
        pti in any::<u8>(),
        bit in 0u32..13,
    ) {
        for vm in [VmKind::Asid, VmKind::ShadowPt] {
            let (k, pd, pt, slot) = paging_kernel(vm, &script);
            let h = hash(&k);
            prop_assert_eq!(hash(&k.snapshot().restore()), h);
            for change in Change::ALL {
                if change.of_shadow() && vm == VmKind::Asid {
                    continue;
                }
                let mut changed = k.snapshot().restore();
                apply_change(&mut changed, (pd, pt), pdi.into(), pti.into(), bit, slot, change);
                prop_assert_ne!(hash(&changed), h, "{:?}: {:?} left the hash as it was", vm, change);
            }
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
