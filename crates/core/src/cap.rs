//! Capabilities and the capability derivation tree (CDT).
//!
//! Capabilities are the basic unit of object management and access control
//! (§3.6): 16-byte slots holding a typed reference to a kernel object plus
//! object-specific metadata (badge, rights, guard, mapping information). A
//! typical system has tens or hundreds of thousands of caps, held in CNode
//! slots and linked into a derivation tree that records how authority was
//! minted, copied and delegated — deletion and revocation walk this tree.
//!
//! The paper's Fig. 7 worst case — a capability space requiring a separate
//! lookup for each of the 32 address bits — is constructed from these
//! pieces by `rt-bench`.

use rt_hw::Addr;

use crate::obj::{ObjId, ObjStore};
use crate::CAP_SLOT_BYTES;

/// Access rights carried by endpoint/notification/frame caps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Rights {
    /// Permission to receive / read.
    pub read: bool,
    /// Permission to send / write.
    pub write: bool,
    /// Permission to transfer capabilities over IPC (§6.1: the worst-case
    /// IPC grants access rights to objects).
    pub grant: bool,
}

impl Rights {
    /// All rights.
    pub const ALL: Rights = Rights {
        read: true,
        write: true,
        grant: true,
    };

    /// Send-only (a typical client's endpoint cap).
    pub const SEND: Rights = Rights {
        read: false,
        write: true,
        grant: false,
    };

    /// Receive-only (a typical server's endpoint cap).
    pub const RECV: Rights = Rights {
        read: true,
        write: false,
        grant: false,
    };

    /// Intersection with a requested mask (rights can only shrink when a
    /// cap is derived).
    pub fn masked(self, mask: Rights) -> Rights {
        Rights {
            read: self.read && mask.read,
            write: self.write && mask.write,
            grant: self.grant && mask.grant,
        }
    }
}

/// An unforgeable badge minted onto an endpoint capability (§3.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Badge(pub u32);

impl Badge {
    /// The unbadged sentinel.
    pub const NONE: Badge = Badge(0);
}

/// Which address space a frame/page-table is mapped into. The two VM
/// designs of §3.6 differ exactly here: the legacy design indirects through
/// an ASID, the shadow design stores the page directory directly (made safe
/// by eager back-pointer maintenance).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpaceRef {
    /// Address-space identifier resolved through the ASID table (Fig. 4).
    Asid(u32),
    /// Direct page-directory reference (Fig. 5).
    Pd(ObjId),
}

/// Frame-cap mapping metadata (§3.6: a mapped frame cap records the address
/// space and virtual address of its mapping).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Mapping {
    /// The containing address space.
    pub space: SpaceRef,
    /// Virtual address of the mapping.
    pub vaddr: Addr,
}

/// The typed content of a capability slot.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CapType {
    /// Empty slot.
    Null,
    /// Authority over a region of untyped memory.
    Untyped(ObjId),
    /// Endpoint cap with badge and rights.
    Endpoint {
        /// Target endpoint object.
        obj: ObjId,
        /// Badge (0 = unbadged).
        badge: Badge,
        /// Rights mask.
        rights: Rights,
    },
    /// Notification cap with badge and rights.
    Notification {
        /// Target notification object.
        obj: ObjId,
        /// Badge OR-ed into the notification word on signal.
        badge: Badge,
        /// Rights mask.
        rights: Rights,
    },
    /// Thread control block cap.
    Tcb(ObjId),
    /// CNode cap with a guard (the guarded-page-table decode of Fig. 7).
    CNode {
        /// Target CNode object.
        obj: ObjId,
        /// Number of guard bits consumed before the radix.
        guard_bits: u8,
        /// Guard value that must match.
        guard: u32,
    },
    /// Physical memory frame, possibly mapped.
    Frame {
        /// Target frame object.
        obj: ObjId,
        /// Mapping state.
        mapping: Option<Mapping>,
        /// Rights mask.
        rights: Rights,
    },
    /// Second-level page table, possibly installed in a directory.
    PageTable {
        /// Target page-table object.
        obj: ObjId,
        /// Where it is installed.
        mapped: Option<Mapping>,
    },
    /// Top-level page directory (an address space).
    PageDirectory {
        /// Target page-directory object.
        obj: ObjId,
        /// Assigned ASID (legacy design only).
        asid: Option<u32>,
    },
    /// ASID pool (legacy VM design, Fig. 4).
    AsidPool(ObjId),
    /// Authority to create ASID pools (legacy VM design).
    AsidControl,
    /// Authority to create IRQ handler caps.
    IrqControl,
    /// Authority over one interrupt line.
    IrqHandler(u8),
    /// Single-use reply cap generated by `Call` (§6.1).
    Reply(ObjId),
}

impl CapType {
    /// The object this cap refers to, if it is an object cap.
    pub fn object(&self) -> Option<ObjId> {
        match *self {
            CapType::Untyped(o)
            | CapType::Endpoint { obj: o, .. }
            | CapType::Notification { obj: o, .. }
            | CapType::Tcb(o)
            | CapType::CNode { obj: o, .. }
            | CapType::Frame { obj: o, .. }
            | CapType::PageTable { obj: o, .. }
            | CapType::PageDirectory { obj: o, .. }
            | CapType::AsidPool(o)
            | CapType::Reply(o) => Some(o),
            CapType::Null | CapType::AsidControl | CapType::IrqControl | CapType::IrqHandler(_) => {
                None
            }
        }
    }

    /// Returns `true` for the empty slot.
    pub fn is_null(&self) -> bool {
        matches!(self, CapType::Null)
    }
}

/// Address of a capability slot: which CNode, and which index inside it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotRef {
    /// Containing CNode object.
    pub cnode: ObjId,
    /// Slot index.
    pub index: u32,
}

impl SlotRef {
    /// Creates a slot reference.
    pub fn new(cnode: ObjId, index: u32) -> SlotRef {
        SlotRef { cnode, index }
    }

    /// Physical address of the slot (16 bytes per slot), for timing charges.
    pub fn addr(&self, store: &ObjStore) -> Addr {
        store.get(self.cnode).base + self.index * CAP_SLOT_BYTES
    }
}

/// A capability slot: the cap itself plus its derivation-tree links.
///
/// The derivation tree is kept as explicit parent/children links; the §2.2
/// *well-formed data structures* invariant (checked executably in
/// [`crate::invariants`]) demands that parent and child links agree.
#[derive(Clone, Debug, Hash)]
pub struct CapSlot {
    /// The capability stored here.
    pub cap: CapType,
    /// The slot this cap was derived from, if any.
    pub parent: Option<SlotRef>,
    /// Slots holding caps derived from this one.
    pub children: Vec<SlotRef>,
}

impl CapSlot {
    /// An empty slot.
    pub const fn null() -> CapSlot {
        CapSlot {
            cap: CapType::Null,
            parent: None,
            children: Vec::new(),
        }
    }
}

impl Default for CapSlot {
    fn default() -> CapSlot {
        CapSlot::null()
    }
}

/// A full, read-only view of one slot.
pub type Cap = CapType;

// --- CDT operations -------------------------------------------------------
//
// These are pure bookkeeping (no timing); the kernel charges the memory
// accesses of the 16-byte slots around each call.

/// Reads the cap at `slot`.
///
/// # Panics
///
/// Panics if `slot.cnode` is not a live CNode or the index is out of range.
pub fn read_slot(store: &ObjStore, slot: SlotRef) -> &CapSlot {
    store.cnode(slot.cnode).slot(slot.index)
}

/// Writes `cap` into the empty slot `slot`, recording `parent` in the CDT.
///
/// # Panics
///
/// Panics if the destination slot is occupied (a slot must be deleted
/// before reuse — the kernel's decode paths check this before calling).
pub fn insert_cap(store: &mut ObjStore, slot: SlotRef, cap: CapType, parent: Option<SlotRef>) {
    assert!(!cap.is_null(), "inserting Null is not a CDT operation");
    {
        let dst = store.cnode_mut(slot.cnode).slot_mut(slot.index);
        assert!(dst.cap.is_null(), "cap slot {slot:?} already occupied");
        dst.cap = cap;
        dst.parent = parent;
    }
    if let Some(p) = parent {
        store
            .cnode_mut(p.cnode)
            .slot_mut(p.index)
            .children
            .push(slot);
    }
}

/// Removes the cap at `slot` from the CDT, reparenting its children to its
/// parent, and returns the removed cap.
///
/// # Panics
///
/// Panics if the slot is empty.
pub fn delete_cap(store: &mut ObjStore, slot: SlotRef) -> CapType {
    let (cap, parent, children) = {
        let s = store.cnode_mut(slot.cnode).slot_mut(slot.index);
        assert!(!s.cap.is_null(), "deleting an empty slot {slot:?}");
        let cap = std::mem::replace(&mut s.cap, CapType::Null);
        let parent = s.parent.take();
        let children = std::mem::take(&mut s.children);
        (cap, parent, children)
    };
    // Detach from the parent's child list.
    if let Some(p) = parent {
        let kids = &mut store.cnode_mut(p.cnode).slot_mut(p.index).children;
        kids.retain(|&c| c != slot);
        // Reparent grandchildren.
        kids.extend(children.iter().copied());
    }
    for c in &children {
        store.cnode_mut(c.cnode).slot_mut(c.index).parent = parent;
    }
    cap
}

/// Collects the direct children of `slot` (for revocation walks).
pub fn children_of(store: &ObjStore, slot: SlotRef) -> Vec<SlotRef> {
    read_slot(store, slot).children.clone()
}

/// Returns `true` if `slot` holds the final capability to its object — no
/// other slot in the system references the same object. Object destruction
/// is only performed on final-cap deletion.
///
/// Capabilities stored *inside the object itself* (a CNode holding a cap
/// to itself) do not count: they die with the object, so they cannot keep
/// it alive — the role seL4's zombie caps play for cyclic self-reference.
pub fn is_final(store: &ObjStore, slot: SlotRef) -> bool {
    let cap = &read_slot(store, slot).cap;
    let Some(obj) = cap.object() else {
        return false;
    };
    let mut seen = 0u32;
    let mut counted_self = false;
    for (id, o) in store.iter() {
        if id == obj {
            continue; // caps inside the object itself die with it
        }
        if let crate::obj::ObjKind::CNode(cn) = &o.kind {
            for (i, s) in cn.slots_in_use() {
                if s.cap.object() == Some(obj) {
                    seen += 1;
                    if id == slot.cnode && i == slot.index {
                        counted_self = true;
                    }
                    if seen > 1 {
                        return false;
                    }
                }
            }
        }
    }
    // Final only when the queried slot itself is the single counted cap;
    // in particular a self-contained cap is never final while an external
    // cap exists.
    seen == 1 && counted_self
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnode::CNode;
    use crate::obj::ObjKind;

    fn store_with_cnode(slots: u8) -> (ObjStore, ObjId) {
        let mut s = ObjStore::new();
        let cn = CNode::new(slots);
        let size_bits = CNode::size_bits(slots);
        let id = s.insert(0x8000_0000, size_bits, ObjKind::CNode(cn));
        (s, id)
    }

    fn ep(store: &mut ObjStore, at: Addr) -> CapType {
        let id = store.insert(at, 4, ObjKind::Endpoint(crate::ep::Endpoint::new()));
        CapType::Endpoint {
            obj: id,
            badge: Badge::NONE,
            rights: Rights::ALL,
        }
    }

    #[test]
    fn rights_mask_shrinks() {
        let r = Rights::ALL.masked(Rights::SEND);
        assert_eq!(r, Rights::SEND);
        let r2 = Rights::SEND.masked(Rights::RECV);
        assert!(!r2.read && !r2.write && !r2.grant);
    }

    #[test]
    fn insert_read_delete_round_trip() {
        let (mut s, cn) = store_with_cnode(4);
        let cap = ep(&mut s, 0x8100_0000);
        let slot = SlotRef::new(cn, 2);
        insert_cap(&mut s, slot, cap.clone(), None);
        assert_eq!(read_slot(&s, slot).cap, cap);
        let removed = delete_cap(&mut s, slot);
        assert_eq!(removed, cap);
        assert!(read_slot(&s, slot).cap.is_null());
    }

    #[test]
    fn cdt_parent_child_links() {
        let (mut s, cn) = store_with_cnode(4);
        let cap = ep(&mut s, 0x8100_0000);
        let parent = SlotRef::new(cn, 0);
        let child = SlotRef::new(cn, 1);
        insert_cap(&mut s, parent, cap.clone(), None);
        insert_cap(&mut s, child, cap.clone(), Some(parent));
        assert_eq!(read_slot(&s, parent).children, vec![child]);
        assert_eq!(read_slot(&s, child).parent, Some(parent));
    }

    #[test]
    fn delete_reparents_grandchildren() {
        let (mut s, cn) = store_with_cnode(8);
        let cap = ep(&mut s, 0x8100_0000);
        let a = SlotRef::new(cn, 0);
        let b = SlotRef::new(cn, 1);
        let c = SlotRef::new(cn, 2);
        insert_cap(&mut s, a, cap.clone(), None);
        insert_cap(&mut s, b, cap.clone(), Some(a));
        insert_cap(&mut s, c, cap.clone(), Some(b));
        delete_cap(&mut s, b);
        assert_eq!(read_slot(&s, a).children, vec![c]);
        assert_eq!(read_slot(&s, c).parent, Some(a));
    }

    #[test]
    fn finality() {
        let (mut s, cn) = store_with_cnode(4);
        let cap = ep(&mut s, 0x8100_0000);
        let a = SlotRef::new(cn, 0);
        let b = SlotRef::new(cn, 1);
        insert_cap(&mut s, a, cap.clone(), None);
        assert!(is_final(&s, a));
        insert_cap(&mut s, b, cap, Some(a));
        assert!(!is_final(&s, a));
        delete_cap(&mut s, b);
        assert!(is_final(&s, a));
    }

    #[test]
    fn slot_addresses_are_16_bytes_apart() {
        let (s, cn) = store_with_cnode(4);
        let a0 = SlotRef::new(cn, 0).addr(&s);
        let a1 = SlotRef::new(cn, 1).addr(&s);
        assert_eq!(a1 - a0, 16);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_insert_panics() {
        let (mut s, cn) = store_with_cnode(4);
        let cap = ep(&mut s, 0x8100_0000);
        let slot = SlotRef::new(cn, 0);
        insert_cap(&mut s, slot, cap.clone(), None);
        insert_cap(&mut s, slot, cap, None);
    }
}

#[cfg(test)]
mod finality_edge_tests {
    use super::*;
    use crate::cnode::CNode;
    use crate::obj::{ObjKind, ObjStore};

    #[test]
    fn self_cap_is_not_final_while_external_cap_exists() {
        let mut s = ObjStore::new();
        let outer = s.insert(
            0x8000_0000,
            CNode::size_bits(2),
            ObjKind::CNode(CNode::new(2)),
        );
        let inner = s.insert(
            0x8000_0100,
            CNode::size_bits(2),
            ObjKind::CNode(CNode::new(2)),
        );
        let external = SlotRef::new(outer, 0);
        let self_cap = SlotRef::new(inner, 1);
        let cap = CapType::CNode {
            obj: inner,
            guard_bits: 0,
            guard: 0,
        };
        insert_cap(&mut s, external, cap.clone(), None);
        insert_cap(&mut s, self_cap, cap, Some(external));
        // Deleting the self-contained cap must NOT destroy the CNode.
        assert!(!is_final(&s, self_cap));
        // The external cap IS final: the self-cap dies with the object.
        assert!(is_final(&s, external));
    }
}
