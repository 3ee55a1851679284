//! CNodes and capability-space decoding.
//!
//! A CNode is an array of `2^radix` 16-byte capability slots. Capability
//! addresses live in a 32-bit *capability space* (§6.1): decoding an address
//! walks a chain of CNode caps, each consuming `guard_bits + radix_bits` of
//! the address, until exactly zero bits remain. The paper's Fig. 7 worst
//! case is a chain of radix-1, guard-0 CNodes, 32 levels deep, where *"each
//! of the 32 bits that need to be decoded can theoretically lead to another
//! cache miss"* — the dominant contributor to the worst-case system call.

use crate::cap::{CapSlot, CapType, SlotRef};
use crate::obj::{ObjId, ObjStore};

/// A capability node: `2^radix_bits` slots.
#[derive(Clone, Debug)]
pub struct CNode {
    radix_bits: u8,
    /// Every slot ever handed out by [`CNode::slot_mut`], the only mutable
    /// path to a slot, as `(index, slot)` sorted by index. A slot outside
    /// the list was never written, so it equals [`CapSlot::null`]. Booting
    /// a 4,096-slot root CNode allocates nothing per slot, and copying one
    /// (a snapshot de-sharing it) copies only the few dozen slots in use.
    slots: Vec<(u32, CapSlot)>,
}

/// What [`CNode::slot`] reads at an index outside the in-use list.
static NULL_SLOT: CapSlot = CapSlot::null();

impl CNode {
    /// Creates an empty CNode with `2^radix_bits` slots.
    pub fn new(radix_bits: u8) -> CNode {
        assert!(
            (1..=16).contains(&radix_bits),
            "CNode radix must be 1..=16 bits"
        );
        CNode {
            radix_bits,
            slots: Vec::new(),
        }
    }

    /// Object size in bits for a CNode of the given radix (16-byte slots).
    pub fn size_bits(radix_bits: u8) -> u8 {
        radix_bits + 4
    }

    /// Radix in bits.
    pub fn radix_bits(&self) -> u8 {
        self.radix_bits
    }

    /// Number of slots.
    pub fn num_slots(&self) -> u32 {
        1u32 << self.radix_bits
    }

    /// Position of `index` in the in-use list, or where it would go.
    fn find(&self, index: u32) -> Result<usize, usize> {
        assert!(index < self.num_slots(), "slot {index} out of range");
        self.slots.binary_search_by_key(&index, |&(i, _)| i)
    }

    /// Shared slot access.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range (decode validates indices).
    pub fn slot(&self, index: u32) -> &CapSlot {
        match self.find(index) {
            Ok(pos) => &self.slots[pos].1,
            Err(_) => &NULL_SLOT,
        }
    }

    /// Exclusive slot access; the first access to `index` adds it to the
    /// in-use list.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn slot_mut(&mut self, index: u32) -> &mut CapSlot {
        let pos = self.find(index).unwrap_or_else(|pos| {
            self.slots.insert(pos, (index, CapSlot::null()));
            pos
        });
        &mut self.slots[pos].1
    }

    /// Every slot ever handed out by [`CNode::slot_mut`], as
    /// `(index, slot)` in ascending index order. A superset of the
    /// occupied slots; each slot it skips equals [`CapSlot::null`].
    pub fn slots_in_use(&self) -> impl Iterator<Item = (u32, &CapSlot)> + '_ {
        self.slots.iter().map(|(i, s)| (*i, s))
    }

    /// Index of the first occupied slot, if any (used by deletion paths).
    pub fn first_occupied(&self) -> Option<u32> {
        self.slots_in_use()
            .find(|(_, s)| !s.cap.is_null())
            .map(|(i, _)| i)
    }

    /// Number of occupied slots.
    pub fn occupied(&self) -> u32 {
        self.slots_in_use()
            .filter(|(_, s)| !s.cap.is_null())
            .count() as u32
    }
}

/// Why a capability-space decode failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Encountered a non-CNode cap with bits still to translate.
    InvalidRoot,
    /// Guard bits did not match.
    GuardMismatch,
    /// Ran out of address bits mid-node (depth mismatch).
    DepthMismatch,
    /// The slot resolved to is empty and a cap was required.
    EmptySlot,
}

/// One step of a decode: which slot the walk is at and how many bits remain.
/// Exposed so the kernel can charge the per-level memory accesses and count
/// levels (Fig. 7).
#[derive(Clone, Copy, Debug)]
pub struct DecodeStep {
    /// The CNode the walk is currently reading.
    pub node: ObjId,
    /// Bits of the capability address left to translate after this step.
    pub bits_remaining: u32,
    /// Slot selected within `node`.
    pub slot: SlotRef,
}

/// Iterative capability-space decode.
///
/// `root` must hold a CNode cap. Returns the slot addressed by the low
/// `depth` bits of `cptr`, visiting intermediate levels through `on_level`
/// (the kernel charges cache traffic there).
///
/// # Errors
///
/// Returns a [`DecodeError`] describing the malformed address or space.
pub fn resolve_slot(
    store: &ObjStore,
    root: &CapType,
    cptr: u32,
    depth: u32,
    mut on_level: impl FnMut(&DecodeStep),
) -> Result<SlotRef, DecodeError> {
    assert!((1..=32).contains(&depth), "decode depth must be 1..=32");
    let mut cap = root.clone();
    let mut bits = depth;
    loop {
        let CapType::CNode {
            obj,
            guard_bits,
            guard,
        } = cap
        else {
            return Err(DecodeError::InvalidRoot);
        };
        // A thread's cspace root is held by value in this model (not in a
        // CDT slot), so a destroyed root CNode is reachable here; fail the
        // decode rather than dereference a dead object.
        if !store.is_live(obj) {
            return Err(DecodeError::InvalidRoot);
        }
        let node = store.cnode(obj);
        let radix = node.radix_bits() as u32;
        // A guard can never be wider than the address space; a cap claiming
        // one is malformed, not a reason to overflow a shift.
        if guard_bits as u32 >= 32 {
            return Err(DecodeError::DepthMismatch);
        }
        let level_bits = guard_bits as u32 + radix;
        if level_bits > bits {
            return Err(DecodeError::DepthMismatch);
        }
        if guard_bits > 0 {
            let g = (cptr >> (bits - guard_bits as u32)) & ((1u32 << guard_bits) - 1);
            if g != guard {
                return Err(DecodeError::GuardMismatch);
            }
        }
        let index = (cptr >> (bits - level_bits)) & ((1u32 << radix) - 1);
        bits -= level_bits;
        let slot = SlotRef::new(obj, index);
        on_level(&DecodeStep {
            node: obj,
            bits_remaining: bits,
            slot,
        });
        if bits == 0 {
            return Ok(slot);
        }
        cap = node.slot(index).cap.clone();
        if cap.is_null() {
            return Err(DecodeError::EmptySlot);
        }
    }
}

/// Builds the Fig. 7 adversarial capability space: a chain of `depth`
/// radix-1 CNodes such that decoding a `depth`-bit address takes one lookup
/// per bit. Returns the root cap and the final slot (which is left empty
/// for the caller to populate).
///
/// Bit `i` of `path` (counting from the most significant decoded bit)
/// selects which of the two slots the chain continues through at level `i`.
pub fn build_deep_cspace(
    store: &mut ObjStore,
    alloc: &mut crate::obj::BootAlloc,
    depth: u32,
    path: u32,
) -> (CapType, SlotRef) {
    assert!((1..=32).contains(&depth));
    let mut nodes = Vec::with_capacity(depth as usize);
    for _ in 0..depth {
        let base = alloc.alloc(CNode::size_bits(1));
        let id = store.insert(
            base,
            CNode::size_bits(1),
            crate::obj::ObjKind::CNode(CNode::new(1)),
        );
        nodes.push(id);
    }
    // Link level i's chosen slot to level i+1.
    for i in 0..depth as usize - 1 {
        let bit = (path >> (depth - 1 - i as u32)) & 1;
        let slot = SlotRef::new(nodes[i], bit);
        crate::cap::insert_cap(
            store,
            slot,
            CapType::CNode {
                obj: nodes[i + 1],
                guard_bits: 0,
                guard: 0,
            },
            None,
        );
    }
    let last_bit = path & 1;
    let final_slot = SlotRef::new(nodes[depth as usize - 1], last_bit);
    let root = CapType::CNode {
        obj: nodes[0],
        guard_bits: 0,
        guard: 0,
    };
    (root, final_slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cap::{insert_cap, Badge, Rights};
    use crate::obj::{BootAlloc, ObjKind};

    fn setup() -> (ObjStore, BootAlloc) {
        (ObjStore::new(), BootAlloc::new(0x8000_0000, 0x0100_0000))
    }

    fn make_cnode(store: &mut ObjStore, alloc: &mut BootAlloc, radix: u8) -> ObjId {
        let base = alloc.alloc(CNode::size_bits(radix));
        store.insert(
            base,
            CNode::size_bits(radix),
            ObjKind::CNode(CNode::new(radix)),
        )
    }

    fn ep_cap(store: &mut ObjStore, alloc: &mut BootAlloc) -> CapType {
        let base = alloc.alloc(4);
        let id = store.insert(base, 4, ObjKind::Endpoint(crate::ep::Endpoint::new()));
        CapType::Endpoint {
            obj: id,
            badge: Badge::NONE,
            rights: Rights::ALL,
        }
    }

    #[test]
    fn single_level_decode() {
        let (mut s, mut a) = setup();
        let cn = make_cnode(&mut s, &mut a, 8);
        let root = CapType::CNode {
            obj: cn,
            guard_bits: 24,
            guard: 0,
        };
        let cap = ep_cap(&mut s, &mut a);
        insert_cap(&mut s, SlotRef::new(cn, 0x42), cap.clone(), None);
        let mut levels = 0;
        let slot = resolve_slot(&s, &root, 0x42, 32, |_| levels += 1).expect("decode");
        assert_eq!(slot, SlotRef::new(cn, 0x42));
        assert_eq!(levels, 1);
        assert_eq!(crate::cap::read_slot(&s, slot).cap, cap);
    }

    #[test]
    fn guard_mismatch_detected() {
        let (mut s, mut a) = setup();
        let cn = make_cnode(&mut s, &mut a, 8);
        let root = CapType::CNode {
            obj: cn,
            guard_bits: 24,
            guard: 1,
        };
        assert_eq!(
            resolve_slot(&s, &root, 0x42, 32, |_| {}),
            Err(DecodeError::GuardMismatch)
        );
    }

    #[test]
    fn two_level_decode() {
        let (mut s, mut a) = setup();
        let top = make_cnode(&mut s, &mut a, 4);
        let bottom = make_cnode(&mut s, &mut a, 4);
        insert_cap(
            &mut s,
            SlotRef::new(top, 0x3),
            CapType::CNode {
                obj: bottom,
                guard_bits: 0,
                guard: 0,
            },
            None,
        );
        let cap = ep_cap(&mut s, &mut a);
        insert_cap(&mut s, SlotRef::new(bottom, 0x9), cap, None);
        let root = CapType::CNode {
            obj: top,
            guard_bits: 24,
            guard: 0,
        };
        let mut levels = 0;
        let slot = resolve_slot(&s, &root, 0x39, 32, |_| levels += 1).expect("decode");
        assert_eq!(slot, SlotRef::new(bottom, 0x9));
        assert_eq!(levels, 2);
    }

    #[test]
    fn deep_cspace_takes_one_lookup_per_bit() {
        let (mut s, mut a) = setup();
        // Fig. 7: address 010...0 decodes through 32 levels.
        let path = 0b0100_0000_0000_0000_0000_0000_0000_0000u32;
        let (root, final_slot) = build_deep_cspace(&mut s, &mut a, 32, path);
        let cap = ep_cap(&mut s, &mut a);
        insert_cap(&mut s, final_slot, cap, None);
        let mut levels = 0;
        let slot = resolve_slot(&s, &root, path, 32, |_| levels += 1).expect("decode");
        assert_eq!(levels, 32, "Fig. 7: one lookup per address bit");
        assert_eq!(slot, final_slot);
    }

    #[test]
    fn deep_cspace_wrong_path_fails() {
        let (mut s, mut a) = setup();
        let path = 0xAAAA_5555u32;
        let (root, _) = build_deep_cspace(&mut s, &mut a, 32, path);
        // Flip one bit: the walk falls off the chain into an empty slot.
        let wrong = path ^ (1 << 20);
        assert_eq!(
            resolve_slot(&s, &root, wrong, 32, |_| {}),
            Err(DecodeError::EmptySlot)
        );
    }

    #[test]
    fn depth_mismatch_detected() {
        let (mut s, mut a) = setup();
        let cn = make_cnode(&mut s, &mut a, 8);
        let root = CapType::CNode {
            obj: cn,
            guard_bits: 0,
            guard: 0,
        };
        // Only 4 bits of address for an 8-bit radix.
        assert_eq!(
            resolve_slot(&s, &root, 0x4, 4, |_| {}),
            Err(DecodeError::DepthMismatch)
        );
    }

    #[test]
    fn oversized_guard_rejected_not_panicking() {
        let (mut s, mut a) = setup();
        let cn = make_cnode(&mut s, &mut a, 8);
        let root = CapType::CNode {
            obj: cn,
            guard_bits: 32,
            guard: 0,
        };
        assert_eq!(
            resolve_slot(&s, &root, 0x42, 32, |_| {}),
            Err(DecodeError::DepthMismatch)
        );
    }

    #[test]
    fn non_cnode_root_rejected() {
        let (mut s, mut a) = setup();
        let cap = ep_cap(&mut s, &mut a);
        assert_eq!(
            resolve_slot(&s, &cap, 0, 32, |_| {}),
            Err(DecodeError::InvalidRoot)
        );
    }

    #[test]
    fn occupancy_helpers() {
        let (mut s, mut a) = setup();
        let cn = make_cnode(&mut s, &mut a, 2);
        assert_eq!(s.cnode(cn).first_occupied(), None);
        let cap = ep_cap(&mut s, &mut a);
        insert_cap(&mut s, SlotRef::new(cn, 2), cap, None);
        assert_eq!(s.cnode(cn).first_occupied(), Some(2));
        assert_eq!(s.cnode(cn).occupied(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_out_of_range_panics() {
        let _ = CNode::new(4).slot(16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_mut_out_of_range_panics() {
        let _ = CNode::new(4).slot_mut(16);
    }

    #[test]
    fn fresh_cnode_holds_no_slot_storage() {
        let mut cn = CNode::new(16);
        assert_eq!(cn.slots.capacity(), 0);
        assert!(cn.slot(0xFFFF).cap.is_null());
        assert_eq!(cn.slots_in_use().count(), 0);
        // Reading never stores; the first exclusive access does.
        cn.slot_mut(0xFFFF);
        assert_eq!(cn.slots.len(), 1);
        assert_eq!(cn.first_occupied(), None);
    }
}
