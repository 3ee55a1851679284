//! Virtual address-space management — both designs of §3.6.
//!
//! ARMv6 geometry throughout: a 16 KiB page directory of 4096 entries, each
//! covering 1 MiB (a section mapping or a pointer to a page table); 1 KiB
//! page tables of 256 entries, each mapping a 4 KiB page. The kernel
//! reserves the top 256 MiB of every address space (the 256 top PD entries,
//! exactly 1 KiB of the directory — the global-mapping copy the paper
//! measures at ~20 µs).
//!
//! * [`asid`] implements the **legacy design** (Fig. 4): frame caps carry an
//!   18-bit ASID resolved through a two-level lookup table; deletion is
//!   lazy (drop the table entry, flush the TLB) but ASID allocation and
//!   pool deletion are unpreemptible scans over 1024 entries.
//! * The **shadow design** (Fig. 5) doubles each paging structure with a
//!   shadow array of back-pointers from each entry to the capability slot
//!   that installed it, making unmap/delete eager, O(1) per entry, and
//!   preemptible per entry, with the lowest-mapped index stored in the
//!   object to avoid rescanning — incremental consistency again.
//!
//! [`overhead`] reproduces the §3.6 memory-overhead comparison against a
//! Linux-style frame table.

pub mod asid;
pub mod overhead;

use rt_hw::Addr;

use crate::cap::SlotRef;
use crate::obj::ObjId;

/// Number of page-directory entries (ARMv6: 4096 × 1 MiB).
pub const PD_ENTRIES: u32 = 4096;
/// Number of page-table entries (ARMv6: 256 × 4 KiB).
pub const PT_ENTRIES: u32 = 256;
/// First PD index of the kernel's reserved top 256 MiB.
pub const KERNEL_PDE_START: u32 = 3840;
/// Bytes of the page directory covered by the kernel mappings (256 entries
/// of 4 bytes — the 1 KiB copy of §3.5).
pub const KERNEL_MAPPING_BYTES: u32 = (PD_ENTRIES - KERNEL_PDE_START) * 4;

/// PD index for a virtual address.
pub fn pd_index(vaddr: Addr) -> u32 {
    vaddr >> 20
}

/// PT index for a virtual address.
pub fn pt_index(vaddr: Addr) -> u32 {
    (vaddr >> 12) & (PT_ENTRIES - 1)
}

/// A physical memory frame object (the mappable unit).
#[derive(Clone, Debug)]
pub struct Frame {
    /// Size in bits (12 = 4 KiB small page … 24 = 16 MiB supersection).
    pub size_bits: u8,
}

impl Frame {
    /// Creates a frame descriptor.
    pub fn new(size_bits: u8) -> Frame {
        Frame { size_bits }
    }
}

/// One page-directory entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Hash)]
pub enum PdEntry {
    /// Unmapped.
    #[default]
    Invalid,
    /// 1 MiB section mapping directly to a frame.
    Section {
        /// The mapped frame.
        frame: ObjId,
    },
    /// Pointer to a second-level page table.
    Table {
        /// The installed page table.
        pt: ObjId,
    },
    /// Kernel global mapping (present in every address space — the §3.5
    /// invariant "all page directories will contain these global
    /// mappings").
    Kernel,
}

/// One page-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Hash)]
pub enum PtEntry {
    /// Unmapped.
    #[default]
    Invalid,
    /// 4 KiB page mapping.
    Page {
        /// The mapped frame.
        frame: ObjId,
    },
}

/// A top-level page directory (an address space).
#[derive(Clone, Debug)]
pub struct PageDirectory {
    /// The 4096 hardware entries.
    pub entries: Vec<PdEntry>,
    /// Shadow: for each entry, the capability slot that installed it
    /// (Fig. 5). Present (allocated) only under the shadow design.
    pub shadow: Vec<Option<SlotRef>>,
    /// Lowest user index that may be mapped — the §3.6 resume cursor:
    /// "we also store the index of the lowest mapped entry in the page
    /// table and only resume the operation from that point."
    pub lowest_mapped: u32,
    /// Whether the kernel global mappings have been copied in yet (they are
    /// copied, unpreemptibly, during creation).
    pub kernel_mapped: bool,
}

impl PageDirectory {
    /// Creates a directory with all user entries invalid and kernel
    /// mappings *not yet* installed (creation copies them in).
    pub fn new(shadow: bool) -> PageDirectory {
        PageDirectory {
            entries: vec![PdEntry::Invalid; PD_ENTRIES as usize],
            shadow: if shadow {
                vec![None; PD_ENTRIES as usize]
            } else {
                Vec::new()
            },
            lowest_mapped: PD_ENTRIES, // nothing mapped
            kernel_mapped: false,
        }
    }

    /// Installs the kernel global mappings (the 1 KiB copy).
    pub fn install_kernel_mappings(&mut self) {
        for i in KERNEL_PDE_START..PD_ENTRIES {
            self.entries[i as usize] = PdEntry::Kernel;
        }
        self.kernel_mapped = true;
    }

    /// Number of mapped *user* entries.
    pub fn user_mapped(&self) -> u32 {
        self.entries[..KERNEL_PDE_START as usize]
            .iter()
            .filter(|e| !matches!(e, PdEntry::Invalid))
            .count() as u32
    }

    /// Updates the lowest-mapped cursor after mapping at `index`.
    pub fn note_mapped(&mut self, index: u32) {
        if index < self.lowest_mapped {
            self.lowest_mapped = index;
        }
    }

    /// `(index, entry, shadow)` of every index whose entry is not
    /// `Invalid` or whose shadow slot is set, ascending. With the scalar
    /// fields and the shadow length it is the whole directory: the
    /// indices it skips hold `Invalid` and no shadow.
    pub fn mapped_entries(&self) -> impl Iterator<Item = (u32, PdEntry, Option<SlotRef>)> + '_ {
        set_entries(&self.entries, &self.shadow, PdEntry::Invalid)
    }
}

/// A second-level page table.
#[derive(Clone, Debug)]
pub struct PageTable {
    /// The 256 hardware entries.
    pub entries: Vec<PtEntry>,
    /// Shadow back-pointers (Fig. 5), shadow design only.
    pub shadow: Vec<Option<SlotRef>>,
    /// Resume cursor for preemptible deletion (§3.6).
    pub lowest_mapped: u32,
    /// Where this table is installed: `(pd, pd_index)`.
    pub mapped_in: Option<(ObjId, u32)>,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new(shadow: bool) -> PageTable {
        PageTable {
            entries: vec![PtEntry::Invalid; PT_ENTRIES as usize],
            shadow: if shadow {
                vec![None; PT_ENTRIES as usize]
            } else {
                Vec::new()
            },
            lowest_mapped: PT_ENTRIES,
            mapped_in: None,
        }
    }

    /// Number of mapped entries.
    pub fn mapped(&self) -> u32 {
        self.entries
            .iter()
            .filter(|e| !matches!(e, PtEntry::Invalid))
            .count() as u32
    }

    /// Updates the lowest-mapped cursor after mapping at `index`.
    pub fn note_mapped(&mut self, index: u32) {
        if index < self.lowest_mapped {
            self.lowest_mapped = index;
        }
    }

    /// As [`PageDirectory::mapped_entries`], for the table's 256 entries.
    pub fn mapped_entries(&self) -> impl Iterator<Item = (u32, PtEntry, Option<SlotRef>)> + '_ {
        set_entries(&self.entries, &self.shadow, PtEntry::Invalid)
    }
}

/// The `(index, entry, shadow)` triples of the indices where `entries`
/// is not `invalid` or `shadow` is set; `shadow` is empty under the ASID
/// design. A directory is mostly unmapped, so blocks of 64 indices are
/// first tested whole, without a branch per index, and only the blocks
/// holding something are walked.
fn set_entries<'a, E: Copy + PartialEq>(
    entries: &'a [E],
    shadow: &'a [Option<SlotRef>],
    invalid: E,
) -> impl Iterator<Item = (u32, E, Option<SlotRef>)> + 'a {
    const BLOCK: usize = 64;
    let block = move |b: usize| b * BLOCK..(b * BLOCK + BLOCK).min(entries.len());
    let empty = move |b: usize| {
        let r = block(b);
        entries[r.clone()]
            .iter()
            .fold(true, |all, &e| all & (e == invalid))
            && shadow
                .get(r)
                .is_none_or(|s| s.iter().fold(true, |all, s| all & s.is_none()))
    };
    (0..entries.len().div_ceil(BLOCK))
        .filter(move |&b| !empty(b))
        .flat_map(block)
        .filter_map(move |i| {
            let (e, s) = (entries[i], shadow.get(i).copied().flatten());
            (e != invalid || s.is_some()).then_some((i as u32, e, s))
        })
}

/// An ASID pool (legacy design): 1024 address-space slots.
#[derive(Clone, Debug, Hash)]
pub struct AsidPool {
    /// Slot `i` holds the page directory assigned ASID `base + i`.
    pub entries: Vec<Option<ObjId>>,
}

/// Entries per ASID pool (§3.6: "each second level (ASID pool) providing
/// entries for 1024 address spaces").
pub const ASID_POOL_ENTRIES: u32 = 1024;

impl AsidPool {
    /// Creates an empty pool.
    pub fn new() -> AsidPool {
        AsidPool {
            entries: vec![None; ASID_POOL_ENTRIES as usize],
        }
    }

    /// Number of assigned slots.
    pub fn assigned(&self) -> u32 {
        self.entries.iter().filter(|e| e.is_some()).count() as u32
    }
}

impl Default for AsidPool {
    fn default() -> AsidPool {
        AsidPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_extraction() {
        assert_eq!(pd_index(0x0010_0000), 1);
        assert_eq!(pd_index(0xf000_0000), 3840);
        assert_eq!(pt_index(0x0000_1000), 1);
        assert_eq!(pt_index(0x0000_f000), 15);
        assert_eq!(pt_index(0x0010_0000), 0);
    }

    #[test]
    fn kernel_mapping_is_1kib() {
        assert_eq!(KERNEL_MAPPING_BYTES, 1024);
    }

    #[test]
    fn kernel_mappings_cover_top_256mib() {
        let mut pd = PageDirectory::new(true);
        assert!(!pd.kernel_mapped);
        pd.install_kernel_mappings();
        assert!(pd.kernel_mapped);
        assert_eq!(pd.entries[3839], PdEntry::Invalid);
        assert_eq!(pd.entries[3840], PdEntry::Kernel);
        assert_eq!(pd.entries[4095], PdEntry::Kernel);
        assert_eq!(pd.user_mapped(), 0, "kernel entries are not user entries");
    }

    #[test]
    fn lowest_mapped_cursor() {
        let mut pt = PageTable::new(true);
        assert_eq!(pt.lowest_mapped, PT_ENTRIES);
        pt.note_mapped(100);
        pt.note_mapped(40);
        pt.note_mapped(200);
        assert_eq!(pt.lowest_mapped, 40);
    }

    #[test]
    fn shadow_allocated_only_when_requested() {
        assert!(PageDirectory::new(false).shadow.is_empty());
        assert_eq!(PageDirectory::new(true).shadow.len(), 4096);
        assert!(PageTable::new(false).shadow.is_empty());
        assert_eq!(PageTable::new(true).shadow.len(), 256);
    }

    #[test]
    fn asid_pool_counts() {
        let mut p = AsidPool::new();
        assert_eq!(p.assigned(), 0);
        p.entries[7] = Some(ObjId(1));
        p.entries[1000] = Some(ObjId(2));
        assert_eq!(p.assigned(), 2);
    }
}
