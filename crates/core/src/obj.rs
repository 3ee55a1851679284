//! Kernel object store.
//!
//! Every kernel object occupies a range of simulated physical memory and is
//! subject to the paper's *object alignment* invariant (§2.2): "all objects
//! in seL4 are aligned to their size, and do not overlap in memory with any
//! other objects". The store hands out [`ObjId`] handles; the address of an
//! object (and of its fields) is what the kernel charges data accesses
//! against, so object placement directly shapes cache behaviour.

use std::sync::Arc;

use rt_hw::Addr;

use crate::cnode::CNode;
use crate::ep::Endpoint;
use crate::ntfn::Notification;
use crate::tcb::Tcb;
use crate::untyped::Untyped;
use crate::vspace::{AsidPool, Frame, PageDirectory, PageTable};

/// Handle to a kernel object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

/// The typed payload of a kernel object.
#[derive(Clone, Debug)]
pub enum ObjKind {
    /// Thread control block.
    Tcb(Tcb),
    /// Synchronous IPC endpoint.
    Endpoint(Endpoint),
    /// Notification (asynchronous signal word; used for IRQ delivery).
    Notification(Notification),
    /// Capability node: 2^radix slots of 16 bytes.
    CNode(CNode),
    /// Untyped memory available for retype.
    Untyped(Untyped),
    /// Physical memory frame mappable into address spaces.
    Frame(Frame),
    /// Second-level page table (ARMv6: 256 entries, 1 KiB — 2 KiB with its
    /// shadow).
    PageTable(PageTable),
    /// Top-level page directory (ARMv6: 4096 entries, 16 KiB — 32 KiB with
    /// its shadow).
    PageDirectory(PageDirectory),
    /// ASID pool (legacy VM design only): 1024 address-space slots.
    AsidPool(AsidPool),
}

impl ObjKind {
    /// Human-readable type name (diagnostics).
    pub fn type_name(&self) -> &'static str {
        match self {
            ObjKind::Tcb(_) => "Tcb",
            ObjKind::Endpoint(_) => "Endpoint",
            ObjKind::Notification(_) => "Notification",
            ObjKind::CNode(_) => "CNode",
            ObjKind::Untyped(_) => "Untyped",
            ObjKind::Frame(_) => "Frame",
            ObjKind::PageTable(_) => "PageTable",
            ObjKind::PageDirectory(_) => "PageDirectory",
            ObjKind::AsidPool(_) => "AsidPool",
        }
    }
}

/// One live kernel object.
#[derive(Clone, Debug)]
pub struct Object {
    /// Physical base address (aligned to `1 << size_bits`).
    pub base: Addr,
    /// Object size in bits.
    pub size_bits: u8,
    /// Typed payload.
    pub kind: ObjKind,
}

impl Object {
    /// Size in bytes.
    pub fn size(&self) -> u32 {
        1u32 << self.size_bits
    }

    /// End address (exclusive).
    pub fn end(&self) -> Addr {
        self.base + self.size()
    }
}

/// Slab of live kernel objects.
///
/// Freed slots are recycled; a generation check is deliberately omitted —
/// dangling [`ObjId`]s are kernel bugs and the capability derivation tree
/// plus the VM back-pointers exist precisely to prevent them (§3.6). The
/// executable invariant checker validates non-overlap and alignment.
///
/// Objects are reference-counted and copy-on-write: cloning the store (the
/// kernel-snapshot path the schedule explorer takes thousands of times per
/// wave) shares every object, and [`ObjStore::get_mut`] de-shares just the
/// one it touches via [`Arc::make_mut`] — one refcount check per exclusive
/// access on the unique-owner fast path. Shared accessors are untouched.
#[derive(Clone, Debug, Default)]
pub struct ObjStore {
    objs: Vec<Option<Arc<Object>>>,
    free: Vec<u32>,
}

impl ObjStore {
    /// Overwrites `self` with `src`, reusing the slot and free-list
    /// buffers. Objects stay `Arc`-shared with `src` exactly as a fresh
    /// `clone` would leave them.
    pub fn copy_from(&mut self, src: &ObjStore) {
        self.objs.clone_from(&src.objs);
        self.free.clone_from(&src.free);
    }

    /// Creates an empty store.
    pub fn new() -> ObjStore {
        ObjStore::default()
    }

    /// Inserts an object at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not aligned to the object size (the §2.2
    /// alignment invariant is established at creation).
    pub fn insert(&mut self, base: Addr, size_bits: u8, kind: ObjKind) -> ObjId {
        assert!(
            base.is_multiple_of(1u32 << size_bits),
            "object at {base:#x} not aligned to 2^{size_bits}"
        );
        let obj = Object {
            base,
            size_bits,
            kind,
        };
        match self.free.pop() {
            Some(i) => {
                self.objs[i as usize] = Some(Arc::new(obj));
                ObjId(i)
            }
            None => {
                self.objs.push(Some(Arc::new(obj)));
                ObjId(self.objs.len() as u32 - 1)
            }
        }
    }

    /// Removes an object. A snapshot that still shares it keeps its copy.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live (double delete is a kernel bug).
    pub fn remove(&mut self, id: ObjId) {
        let slot = self
            .objs
            .get_mut(id.0 as usize)
            .expect("ObjId out of range");
        slot.take().expect("double delete of kernel object");
        self.free.push(id.0);
    }

    /// Returns `true` if `id` refers to a live object.
    pub fn is_live(&self, id: ObjId) -> bool {
        self.objs.get(id.0 as usize).is_some_and(|s| s.is_some())
    }

    /// Shared access.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub fn get(&self, id: ObjId) -> &Object {
        self.objs[id.0 as usize]
            .as_deref()
            .expect("access to dead kernel object")
    }

    /// Exclusive access.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub fn get_mut(&mut self, id: ObjId) -> &mut Object {
        self.objs[id.0 as usize]
            .as_mut()
            .map(Arc::make_mut)
            .expect("access to dead kernel object")
    }

    /// Iterates over all live objects.
    pub fn iter(&self) -> impl Iterator<Item = (ObjId, &Object)> {
        self.objs
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.as_deref().map(|o| (ObjId(i as u32), o)))
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objs.len() - self.free.len()
    }

    /// Returns `true` if no objects are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // Typed accessors. A wrong-type access is a kernel bug (capability typing
    // is supposed to prevent it), so these panic rather than return errors.

    /// The TCB payload of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live TCB.
    pub fn tcb(&self, id: ObjId) -> &Tcb {
        match &self.get(id).kind {
            ObjKind::Tcb(t) => t,
            k => panic!("expected Tcb, found {}", k.type_name()),
        }
    }

    /// Mutable TCB payload.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live TCB.
    pub fn tcb_mut(&mut self, id: ObjId) -> &mut Tcb {
        match &mut self.get_mut(id).kind {
            ObjKind::Tcb(t) => t,
            k => panic!("expected Tcb, found {}", k.type_name()),
        }
    }

    /// The endpoint payload of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live endpoint.
    pub fn ep(&self, id: ObjId) -> &Endpoint {
        match &self.get(id).kind {
            ObjKind::Endpoint(e) => e,
            k => panic!("expected Endpoint, found {}", k.type_name()),
        }
    }

    /// Mutable endpoint payload.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live endpoint.
    pub fn ep_mut(&mut self, id: ObjId) -> &mut Endpoint {
        match &mut self.get_mut(id).kind {
            ObjKind::Endpoint(e) => e,
            k => panic!("expected Endpoint, found {}", k.type_name()),
        }
    }

    /// The notification payload of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live notification.
    pub fn ntfn(&self, id: ObjId) -> &Notification {
        match &self.get(id).kind {
            ObjKind::Notification(n) => n,
            k => panic!("expected Notification, found {}", k.type_name()),
        }
    }

    /// Mutable notification payload.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live notification.
    pub fn ntfn_mut(&mut self, id: ObjId) -> &mut Notification {
        match &mut self.get_mut(id).kind {
            ObjKind::Notification(n) => n,
            k => panic!("expected Notification, found {}", k.type_name()),
        }
    }

    /// The CNode payload of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live CNode.
    pub fn cnode(&self, id: ObjId) -> &CNode {
        match &self.get(id).kind {
            ObjKind::CNode(c) => c,
            k => panic!("expected CNode, found {}", k.type_name()),
        }
    }

    /// Mutable CNode payload.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live CNode.
    pub fn cnode_mut(&mut self, id: ObjId) -> &mut CNode {
        match &mut self.get_mut(id).kind {
            ObjKind::CNode(c) => c,
            k => panic!("expected CNode, found {}", k.type_name()),
        }
    }

    /// The untyped payload of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live untyped object.
    pub fn untyped(&self, id: ObjId) -> &Untyped {
        match &self.get(id).kind {
            ObjKind::Untyped(u) => u,
            k => panic!("expected Untyped, found {}", k.type_name()),
        }
    }

    /// Mutable untyped payload.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live untyped object.
    pub fn untyped_mut(&mut self, id: ObjId) -> &mut Untyped {
        match &mut self.get_mut(id).kind {
            ObjKind::Untyped(u) => u,
            k => panic!("expected Untyped, found {}", k.type_name()),
        }
    }

    /// The frame payload of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live frame.
    pub fn frame(&self, id: ObjId) -> &Frame {
        match &self.get(id).kind {
            ObjKind::Frame(f) => f,
            k => panic!("expected Frame, found {}", k.type_name()),
        }
    }

    /// The page-table payload of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live page table.
    pub fn pt(&self, id: ObjId) -> &PageTable {
        match &self.get(id).kind {
            ObjKind::PageTable(p) => p,
            k => panic!("expected PageTable, found {}", k.type_name()),
        }
    }

    /// Mutable page-table payload.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live page table.
    pub fn pt_mut(&mut self, id: ObjId) -> &mut PageTable {
        match &mut self.get_mut(id).kind {
            ObjKind::PageTable(p) => p,
            k => panic!("expected PageTable, found {}", k.type_name()),
        }
    }

    /// The page-directory payload of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live page directory.
    pub fn pd(&self, id: ObjId) -> &PageDirectory {
        match &self.get(id).kind {
            ObjKind::PageDirectory(p) => p,
            k => panic!("expected PageDirectory, found {}", k.type_name()),
        }
    }

    /// Mutable page-directory payload.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live page directory.
    pub fn pd_mut(&mut self, id: ObjId) -> &mut PageDirectory {
        match &mut self.get_mut(id).kind {
            ObjKind::PageDirectory(p) => p,
            k => panic!("expected PageDirectory, found {}", k.type_name()),
        }
    }

    /// The ASID-pool payload of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live ASID pool.
    pub fn asid_pool(&self, id: ObjId) -> &AsidPool {
        match &self.get(id).kind {
            ObjKind::AsidPool(p) => p,
            k => panic!("expected AsidPool, found {}", k.type_name()),
        }
    }

    /// Mutable ASID-pool payload.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live ASID pool.
    pub fn asid_pool_mut(&mut self, id: ObjId) -> &mut AsidPool {
        match &mut self.get_mut(id).kind {
            ObjKind::AsidPool(p) => p,
            k => panic!("expected AsidPool, found {}", k.type_name()),
        }
    }
}

/// A simple bump allocator over a physical range, used at boot to place the
/// initial objects; after boot, all allocation happens in userspace via
/// untyped retype (§3: "almost all allocation policies are delegated to
/// userspace").
#[derive(Clone, Debug)]
pub struct BootAlloc {
    next: Addr,
    end: Addr,
}

impl BootAlloc {
    /// Creates an allocator over `[base, base + size)`.
    pub fn new(base: Addr, size: u32) -> BootAlloc {
        BootAlloc {
            next: base,
            end: base + size,
        }
    }

    /// Allocates `1 << size_bits` bytes aligned to the size.
    ///
    /// # Panics
    ///
    /// Panics if the region is exhausted (boot-time placement is static).
    pub fn alloc(&mut self, size_bits: u8) -> Addr {
        let size = 1u32 << size_bits;
        let base = (self.next + size - 1) & !(size - 1);
        assert!(
            base + size <= self.end,
            "boot allocator exhausted at {base:#x} + {size:#x}"
        );
        self.next = base + size;
        base
    }

    /// First unallocated address.
    pub fn watermark(&self) -> Addr {
        self.next
    }

    /// Remaining bytes (ignoring alignment slack).
    pub fn remaining(&self) -> u32 {
        self.end - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ep::Endpoint;

    fn ep_kind() -> ObjKind {
        ObjKind::Endpoint(Endpoint::new())
    }

    #[test]
    fn insert_get_remove() {
        let mut s = ObjStore::new();
        let id = s.insert(0x8000_0000, 4, ep_kind());
        assert!(s.is_live(id));
        assert_eq!(s.get(id).base, 0x8000_0000);
        assert_eq!(s.get(id).size(), 16);
        s.remove(id);
        assert!(!s.is_live(id));
    }

    #[test]
    fn slot_reuse() {
        let mut s = ObjStore::new();
        let a = s.insert(0x8000_0000, 4, ep_kind());
        s.remove(a);
        let b = s.insert(0x8000_0100, 4, ep_kind());
        assert_eq!(a, b, "freed slot should be recycled");
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn misaligned_insert_panics() {
        let mut s = ObjStore::new();
        s.insert(0x8000_0008, 9, ep_kind());
    }

    #[test]
    #[should_panic(expected = "double delete")]
    fn double_remove_panics() {
        let mut s = ObjStore::new();
        let id = s.insert(0x8000_0000, 4, ep_kind());
        s.remove(id);
        s.remove(id);
    }

    #[test]
    #[should_panic(expected = "expected Tcb")]
    fn wrong_type_access_panics() {
        let mut s = ObjStore::new();
        let id = s.insert(0x8000_0000, 4, ep_kind());
        let _ = s.tcb(id);
    }

    #[test]
    fn boot_alloc_aligns() {
        let mut a = BootAlloc::new(0x8000_0004, 0x10000);
        let x = a.alloc(9); // 512 B
        assert_eq!(x % 512, 0);
        let y = a.alloc(4);
        assert!(y >= x + 512);
        assert_eq!(y % 16, 0);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn boot_alloc_exhaustion_panics() {
        let mut a = BootAlloc::new(0x8000_0000, 0x100);
        let _ = a.alloc(9);
    }

    #[test]
    fn iter_sees_live_only() {
        let mut s = ObjStore::new();
        let a = s.insert(0x8000_0000, 4, ep_kind());
        let b = s.insert(0x8000_0010, 4, ep_kind());
        s.remove(a);
        let ids: Vec<ObjId> = s.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![b]);
    }
}
