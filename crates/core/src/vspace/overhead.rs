//! The §3.6 memory-overhead comparison: shadow page tables vs a
//! Linux-style frame table.
//!
//! The paper's worked example: on a 32-bit system with 256 MiB of physical
//! memory and 4 KiB frames, a frame table (one pointer per frame) occupies
//! 256 KiB. A densely-packed address space covering 256 MiB costs an extra
//! 256 KiB in page-table shadows plus 16 KiB per address space for the
//! directory shadow. This module computes both so the `repro overhead`
//! harness can print the comparison for arbitrary parameters.

/// Parameters of the overhead comparison.
#[derive(Clone, Copy, Debug)]
pub struct OverheadParams {
    /// Physical memory size in bytes.
    pub phys_bytes: u64,
    /// Frame size in bytes (4 KiB in the paper's example).
    pub frame_bytes: u64,
    /// Number of address spaces in the system.
    pub address_spaces: u64,
    /// Virtual memory actually mapped per address space, in bytes.
    pub mapped_per_as: u64,
    /// Fraction of each page table actually used (1.0 = densely packed;
    /// the paper notes sparse tables waste shadow space *and* table space).
    pub pt_density: f64,
}

impl OverheadParams {
    /// The paper's worked example: 256 MiB physical, 4 KiB frames, one
    /// densely-packed 256 MiB address space.
    pub fn paper_example() -> OverheadParams {
        OverheadParams {
            phys_bytes: 256 << 20,
            frame_bytes: 4096,
            address_spaces: 1,
            mapped_per_as: 256 << 20,
            pt_density: 1.0,
        }
    }
}

/// Computed overheads in bytes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Overheads {
    /// Frame-table design: one 4-byte pointer per physical frame.
    pub frame_table: u64,
    /// Shadow design: page-table shadows actually allocated.
    pub shadow_pt: u64,
    /// Shadow design: 16 KiB directory shadow per address space.
    pub shadow_pd: u64,
}

/// Computes both designs' overheads (ARMv6 geometry: 1 KiB page tables
/// covering 1 MiB each, 16 KiB directories).
pub fn compute(p: &OverheadParams) -> Overheads {
    let frame_table = (p.phys_bytes / p.frame_bytes) * 4;
    // Page tables needed per address space: one per 1 MiB of mapped VA,
    // inflated by sparseness (a half-used PT still needs a whole shadow).
    let pts_per_as = ((p.mapped_per_as as f64 / (1 << 20) as f64) / p.pt_density).ceil() as u64;
    let shadow_pt = p.address_spaces * pts_per_as * 1024; // 1 KiB shadow per PT
    let shadow_pd = p.address_spaces * 16 * 1024; // 16 KiB shadow per PD
    Overheads {
        frame_table,
        shadow_pt,
        shadow_pd,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_numbers() {
        // §3.6: "the frame table would occupy 256 KiB of memory" and "a
        // densely-packed page directory covering 256 MiB of virtual address
        // space would use an extra 256 KiB in shadow page tables, and an
        // extra 16 KiB per address space".
        let o = compute(&OverheadParams::paper_example());
        assert_eq!(o.frame_table, 256 * 1024);
        assert_eq!(o.shadow_pt, 256 * 1024);
        assert_eq!(o.shadow_pd, 16 * 1024);
    }

    #[test]
    fn sparse_tables_inflate_shadows() {
        let mut p = OverheadParams::paper_example();
        p.pt_density = 0.25; // quarter-used page tables
        let o = compute(&p);
        assert_eq!(o.shadow_pt, 4 * 256 * 1024);
    }

    #[test]
    fn many_small_address_spaces() {
        let p = OverheadParams {
            phys_bytes: 128 << 20,
            frame_bytes: 4096,
            address_spaces: 50,
            mapped_per_as: 4 << 20,
            pt_density: 1.0,
        };
        let o = compute(&p);
        assert_eq!(o.frame_table, 128 * 1024);
        assert_eq!(o.shadow_pt, 50 * 4 * 1024);
        assert_eq!(o.shadow_pd, 50 * 16 * 1024);
        // With many sparse address spaces the PD shadows dominate — the
        // regime where the paper concedes the overhead "might be considered
        // detrimental".
        assert!(o.shadow_pd > o.shadow_pt);
    }
}
