//! Set-associative cache model with way-locking.
//!
//! Models the ARM1136 L1 caches and the i.MX31 L2 (§5.1 of the paper):
//! configurable geometry, round-robin or pseudo-random replacement, and the
//! ability to reserve ("lock") a number of ways per set. Locked ways hold
//! pinned lines that are never evicted — the hardware mechanism the paper
//! uses for cache pinning (§4): *"the caches also provide the ability to
//! select a subset of the four ways for cache replacement, effectively
//! allowing some cache lines to be permanently pinned."*

use crate::Addr;

/// Cache shape parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size: u32,
    /// Associativity (number of ways).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line: u32,
}

impl CacheGeometry {
    /// ARM1136 L1 cache: 16 KiB, 4-way, 32-byte lines.
    pub const L1: CacheGeometry = CacheGeometry {
        size: 16 * 1024,
        ways: 4,
        line: 32,
    };

    /// i.MX31 L2 cache: 128 KiB, 8-way, 32-byte lines.
    pub const L2: CacheGeometry = CacheGeometry {
        size: 128 * 1024,
        ways: 8,
        line: 32,
    };

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size / (self.ways * self.line)
    }

    /// Set index for an address.
    pub fn set_of(&self, addr: Addr) -> u32 {
        (addr / self.line) % self.sets()
    }

    /// Tag for an address (line address divided by set count).
    pub fn tag_of(&self, addr: Addr) -> u32 {
        (addr / self.line) / self.sets()
    }

    /// Line-aligned address.
    pub fn line_addr(&self, addr: Addr) -> Addr {
        addr & !(self.line - 1)
    }
}

/// Replacement policy for unlocked ways.
///
/// The ARM1136 supports round-robin and pseudo-random; the paper's static
/// analysis supports neither and therefore treats each L1 as a direct-mapped
/// cache of one way (§5.1) — that pessimistic view lives in `rt-wcet`, not
/// here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Replacement {
    /// Round-robin victim counter per set.
    RoundRobin,
    /// Pseudo-random victim (16-bit LFSR, deterministic per seed).
    PseudoRandom {
        /// LFSR seed; a fixed seed makes runs reproducible.
        seed: u16,
    },
}

/// The tag of an empty way. Tags are addresses shifted right by at least
/// the line offset's width, so no line's tag equals it.
const INVALID: u32 = u32::MAX;

/// Result of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Present in the cache.
    Hit,
    /// Absent; a line was (re)filled. `writeback` is true if the evicted
    /// victim was dirty and must be written to the next level.
    Miss {
        /// Whether the victim line was dirty.
        writeback: bool,
    },
}

/// A set-associative cache with optional locked ways.
#[derive(Clone, Debug)]
pub struct Cache {
    geom: CacheGeometry,
    /// `log2(geom.line)`: the address shift to the line number.
    line_shift: u32,
    /// `log2(geom.sets())`: the line-number shift to the tag.
    set_shift: u32,
    /// The tag of each of the `sets * ways` lines, row-major by set, or
    /// [`INVALID`]. Ways `0..locked_ways` are the locked region.
    tags: Vec<u32>,
    /// Whether each line is dirty, indexed as `tags`.
    dirty: Vec<bool>,
    locked_ways: u32,
    policy: Replacement,
    /// Per-set round-robin pointers (into the unlocked region).
    rr: Vec<u32>,
    lfsr: u16,
}

impl Cache {
    /// Overwrites `self` with `src`, reusing the line and round-robin
    /// buffers — the allocation-free half of the explorer's
    /// snapshot-restore fast path (geometry is process-constant, so the
    /// buffers always fit). `src` is destructured, so a field added to
    /// `Cache` and not copied here fails to compile.
    pub fn copy_from(&mut self, src: &Cache) {
        let Cache {
            geom,
            line_shift,
            set_shift,
            tags,
            dirty,
            locked_ways,
            policy,
            rr,
            lfsr,
        } = src;
        self.geom = *geom;
        self.line_shift = *line_shift;
        self.set_shift = *set_shift;
        self.tags.clone_from(tags);
        self.dirty.clone_from(dirty);
        self.locked_ways = *locked_ways;
        self.policy = *policy;
        self.rr.clone_from(rr);
        self.lfsr = *lfsr;
    }

    /// Creates an empty (all-invalid) cache.
    pub fn new(geom: CacheGeometry, policy: Replacement) -> Cache {
        assert!(
            geom.line.is_power_of_two(),
            "line size must be a power of two"
        );
        // A tag then drops at least one address bit, so none is `INVALID`.
        assert!(geom.line > 1, "line size must exceed one byte");
        assert!(
            geom.size.is_multiple_of(geom.ways * geom.line),
            "cache size must be a whole number of sets"
        );
        let sets = geom.sets() as usize;
        // Power-of-two sets let `locate` index with a shift and a mask
        // instead of the divisions `CacheGeometry::set_of`/`tag_of` do.
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let lfsr = match policy {
            Replacement::PseudoRandom { seed } => seed.max(1),
            Replacement::RoundRobin => 1,
        };
        Cache {
            geom,
            line_shift: geom.line.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            tags: vec![INVALID; sets * geom.ways as usize],
            dirty: vec![false; sets * geom.ways as usize],
            locked_ways: 0,
            policy,
            rr: vec![0; sets],
            lfsr,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Number of ways currently locked.
    pub fn locked_ways(&self) -> u32 {
        self.locked_ways
    }

    /// Reserves `n` ways per set for pinned lines. Must be called before any
    /// [`Cache::pin`]; existing cached contents are invalidated (matching a
    /// real lockdown sequence, which cleans and reconfigures the cache).
    ///
    /// # Panics
    ///
    /// Panics if `n >= ways` (at least one way must remain for replacement,
    /// as on the ARM1136 where at most 3 of 4 ways can be locked).
    pub fn lock_ways(&mut self, n: u32) {
        assert!(
            n < self.geom.ways,
            "cannot lock all {} ways (at most {})",
            self.geom.ways,
            self.geom.ways - 1
        );
        self.locked_ways = n;
        self.tags.fill(INVALID);
        self.dirty.fill(false);
        for p in &mut self.rr {
            *p = 0;
        }
    }

    /// `addr`'s set and the index of that set's first line in `tags`,
    /// and `addr`'s tag; equal to `geom.set_of(addr)` and
    /// `geom.tag_of(addr)`.
    fn locate(&self, addr: Addr) -> (usize, usize, u32) {
        let line_no = addr >> self.line_shift;
        let set = (line_no & ((1 << self.set_shift) - 1)) as usize;
        (
            set,
            set * self.geom.ways as usize,
            line_no >> self.set_shift,
        )
    }

    /// Pins the line containing `addr` into a locked way of its set.
    ///
    /// Returns `false` (without pinning) if every locked way of the set is
    /// already occupied — callers use this to detect that the pinned working
    /// set exceeds the locked region, as the paper did when selecting "as
    /// much as would fit into 1/4 of the cache" (§4).
    pub fn pin(&mut self, addr: Addr) -> bool {
        let (_, base, tag) = self.locate(addr);
        // Already pinned?
        let locked = base..base + self.locked_ways as usize;
        if self.tags[locked.clone()].contains(&tag) {
            return true;
        }
        for i in locked {
            if self.tags[i] == INVALID {
                self.tags[i] = tag;
                self.dirty[i] = false;
                return true;
            }
        }
        false
    }

    /// Returns `true` if the line containing `addr` is pinned.
    pub fn is_pinned(&self, addr: Addr) -> bool {
        let (_, base, tag) = self.locate(addr);
        self.tags[base..base + self.locked_ways as usize].contains(&tag)
    }

    /// Looks up `addr`, allocating on miss. `write` marks the line dirty.
    pub fn access(&mut self, addr: Addr, write: bool) -> Lookup {
        self.probe(addr, write).0
    }

    /// As [`Cache::access`], also telling whether a hit was in a locked
    /// way. Locked ways are searched first, so a hit is locked exactly
    /// when [`Cache::is_pinned`] holds: one set probe answers both.
    #[inline(always)]
    pub fn probe(&mut self, addr: Addr, write: bool) -> (Lookup, bool) {
        let (set, base, tag) = self.locate(addr);
        // Compare every way, one bit per match: no branch per way. The
        // lowest matching way is the first a way-by-way search would
        // stop at, so locked ways still win. A 4-way set (the L1s)
        // compares as one fixed-length array, fully unrolled.
        let hits = if self.geom.ways == 4 {
            let set_tags: &[u32; 4] = self.tags[base..base + 4]
                .try_into()
                .expect("a 4-way set has 4 tags");
            hit_mask(set_tags, tag)
        } else {
            hit_mask(&self.tags[base..base + self.geom.ways as usize], tag)
        };
        if hits != 0 {
            let w = hits.trailing_zeros() as usize;
            if write {
                self.dirty[base + w] = true;
            }
            return (Lookup::Hit, w < self.locked_ways as usize);
        }
        (self.fill(set, base, tag, write), false)
    }

    /// A miss on `tag` in `set`, whose first line is at `base`: replaces
    /// a victim among the unlocked ways.
    #[inline(never)]
    fn fill(&mut self, set: usize, base: usize, tag: u32, write: bool) -> Lookup {
        let locked = self.locked_ways as usize;
        let unlocked = self.geom.ways as usize - locked;
        debug_assert!(unlocked > 0);
        let victim_off = match self.policy {
            Replacement::RoundRobin => {
                // The pointer starts at 0 (`new`, `lock_ways`) and wraps
                // here, so it is always below `unlocked`.
                let v = self.rr[set];
                debug_assert!((v as usize) < unlocked);
                self.rr[set] = if v as usize + 1 == unlocked { 0 } else { v + 1 };
                v as usize
            }
            Replacement::PseudoRandom { .. } => {
                let v = self.lfsr as usize % unlocked;
                // 16-bit Fibonacci LFSR, taps 16,15,13,4.
                let bit = (self.lfsr ^ (self.lfsr >> 1) ^ (self.lfsr >> 3) ^ (self.lfsr >> 12)) & 1;
                self.lfsr = (self.lfsr >> 1) | (bit << 15);
                if self.lfsr == 0 {
                    self.lfsr = 1;
                }
                v
            }
        };
        let victim = base + locked + victim_off;
        // An empty way is never dirty.
        let writeback = self.dirty[victim];
        self.tags[victim] = tag;
        self.dirty[victim] = write;
        Lookup::Miss { writeback }
    }

    /// Invalidates the entire cache except pinned lines (used between
    /// benchmark repetitions to restore a cold cache).
    pub fn invalidate_unlocked(&mut self) {
        let ways = self.geom.ways as usize;
        for set in 0..self.geom.sets() as usize {
            for w in self.locked_ways as usize..ways {
                self.tags[set * ways + w] = INVALID;
                self.dirty[set * ways + w] = false;
            }
        }
    }

    /// Marks every valid line dirty and fills all unlocked ways with
    /// conflicting lines — the paper's worst-case preamble: *"our test
    /// programs pollute both the instruction and data caches with dirty
    /// cache lines prior to exercising the paths"* (§5.4).
    ///
    /// `pollution_base` selects the address region the dirty lines pretend
    /// to come from (it must not alias addresses the measured path uses).
    pub fn pollute_dirty(&mut self, pollution_base: Addr) {
        self.pollute(pollution_base, true);
    }

    /// As [`Cache::pollute_dirty`] with selectable dirtiness — instruction
    /// caches are polluted *clean* (I-lines are never written, so evicting
    /// them costs no writeback on real hardware).
    pub fn pollute(&mut self, pollution_base: Addr, dirty: bool) {
        let Cache {
            geom,
            line_shift,
            set_shift,
            tags,
            dirty: dirty_bits,
            locked_ways,
            ..
        } = self;
        let ways = geom.ways as usize;
        let rows = tags
            .chunks_exact_mut(ways)
            .zip(dirty_bits.chunks_exact_mut(ways));
        for (set, (tag_row, dirty_row)) in (0u32..).zip(rows) {
            for w in *locked_ways..geom.ways {
                // A distinct tag per way, far away from normal traffic.
                let addr = pollution_base
                    .wrapping_add(set * geom.line)
                    .wrapping_add(w * geom.size);
                // `geom.tag_of(addr)`, by the shifts `locate` uses.
                tag_row[w as usize] = addr >> *line_shift >> *set_shift;
                dirty_row[w as usize] = dirty;
            }
        }
    }

    /// Number of valid lines (diagnostics / tests).
    pub fn valid_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }
}

/// Bit `w` set iff way `w` of a set holds `tag`.
#[inline(always)]
fn hit_mask(set_tags: &[u32], tag: u32) -> u32 {
    let mut hits = 0u32;
    for (w, &t) in set_tags.iter().enumerate() {
        hits |= u32::from(t == tag) << w;
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> Cache {
        Cache::new(CacheGeometry::L1, Replacement::RoundRobin)
    }

    #[test]
    fn geometry() {
        let g = CacheGeometry::L1;
        assert_eq!(g.sets(), 128);
        assert_eq!(g.set_of(0), 0);
        assert_eq!(g.set_of(32), 1);
        assert_eq!(g.set_of(128 * 32), 0);
        assert_ne!(g.tag_of(0), g.tag_of(128 * 32));
    }

    #[test]
    fn hit_after_fill() {
        let mut c = l1();
        assert!(matches!(c.access(0x8000_0000, false), Lookup::Miss { .. }));
        assert_eq!(c.access(0x8000_0000, false), Lookup::Hit);
        // Same line, different word.
        assert_eq!(c.access(0x8000_001c, false), Lookup::Hit);
        // Next line misses.
        assert!(matches!(c.access(0x8000_0020, false), Lookup::Miss { .. }));
    }

    #[test]
    fn associativity_holds_four_conflicting_lines() {
        let mut c = l1();
        let stride = CacheGeometry::L1.sets() * CacheGeometry::L1.line; // same set
        for i in 0..4 {
            assert!(matches!(
                c.access(0x8000_0000 + i * stride, false),
                Lookup::Miss { .. }
            ));
        }
        for i in 0..4 {
            assert_eq!(c.access(0x8000_0000 + i * stride, false), Lookup::Hit);
        }
        // A fifth conflicting line evicts someone.
        assert!(matches!(
            c.access(0x8000_0000 + 4 * stride, false),
            Lookup::Miss { .. }
        ));
        let hits = (0..5)
            .filter(|&i| c.access(0x8000_0000 + i * stride, false) == Lookup::Hit)
            .count();
        assert!(hits < 5, "somebody must have been evicted");
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = l1();
        let stride = CacheGeometry::L1.sets() * CacheGeometry::L1.line;
        // Fill the set with dirty lines (round-robin: ways filled in order).
        for i in 0..4 {
            c.access(0x8000_0000 + i * stride, true);
        }
        // Evicting must report a writeback.
        match c.access(0x8000_0000 + 4 * stride, false) {
            Lookup::Miss { writeback } => assert!(writeback),
            Lookup::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn pinned_lines_never_evicted() {
        let mut c = l1();
        c.lock_ways(1);
        assert!(c.pin(0x9000_0000));
        assert!(c.is_pinned(0x9000_0000));
        let stride = CacheGeometry::L1.sets() * CacheGeometry::L1.line;
        // Hammer the same set with conflicting lines.
        for i in 1..100 {
            c.access(0x9000_0000 + i * stride, true);
        }
        assert_eq!(c.access(0x9000_0000, false), Lookup::Hit);
    }

    #[test]
    fn pin_capacity_per_set_is_locked_ways() {
        let mut c = l1();
        c.lock_ways(1);
        let stride = CacheGeometry::L1.sets() * CacheGeometry::L1.line;
        assert!(c.pin(0x9000_0000));
        // Second pin in the same set must be refused with 1 locked way.
        assert!(!c.pin(0x9000_0000 + stride));
        // But a pin in another set succeeds.
        assert!(c.pin(0x9000_0020));
    }

    #[test]
    fn lock_ways_reduces_effective_associativity() {
        let mut c = l1();
        c.lock_ways(2);
        let stride = CacheGeometry::L1.sets() * CacheGeometry::L1.line;
        // Only 2 unlocked ways now: two lines fit, third conflicts.
        c.access(0x8000_0000, false);
        c.access(0x8000_0000 + stride, false);
        assert_eq!(c.access(0x8000_0000, false), Lookup::Hit);
        assert_eq!(c.access(0x8000_0000 + stride, false), Lookup::Hit);
        c.access(0x8000_0000 + 2 * stride, false);
        let survivors = [0, 1, 2]
            .iter()
            .filter(|&&i| c.access(0x8000_0000 + i * stride, false) == Lookup::Hit)
            .count();
        assert!(survivors <= 2 + 1); // at most 2 old + the one just re-filled
    }

    #[test]
    #[should_panic(expected = "cannot lock all")]
    fn locking_all_ways_panics() {
        let mut c = l1();
        c.lock_ways(4);
    }

    #[test]
    fn pollute_fills_everything_dirty() {
        let mut c = l1();
        c.pollute_dirty(0x4000_0000);
        assert_eq!(c.valid_lines(), 128 * 4);
        // Any fresh access must miss and write back.
        match c.access(0x8000_0000, false) {
            Lookup::Miss { writeback } => assert!(writeback),
            Lookup::Hit => panic!("polluted cache cannot hit fresh address"),
        }
    }

    #[test]
    fn pollute_spares_pinned_ways() {
        let mut c = l1();
        c.lock_ways(1);
        assert!(c.pin(0x9000_0000));
        c.pollute_dirty(0x4000_0000);
        assert_eq!(c.access(0x9000_0000, false), Lookup::Hit);
    }

    #[test]
    fn pollute_tags_equal_tag_of() {
        for geom in [CacheGeometry::L1, CacheGeometry::L2] {
            for locked in [0, 1, geom.ways - 1] {
                let mut c = Cache::new(geom, Replacement::RoundRobin);
                c.lock_ways(locked);
                // A base whose set bits are non-zero, and one that wraps.
                for base in [0x4000_0120, 0xffff_ffe0] {
                    c.pollute(base, true);
                    for set in 0..geom.sets() {
                        for w in 0..geom.ways {
                            let i = (set * geom.ways + w) as usize;
                            if w < locked {
                                assert_eq!(c.tags[i], INVALID, "locked way {w} polluted");
                                continue;
                            }
                            let addr = base
                                .wrapping_add(set * geom.line)
                                .wrapping_add(w * geom.size);
                            assert!(c.dirty[i]);
                            assert_eq!(c.tags[i], geom.tag_of(addr), "{geom:?} set {set} way {w}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pseudo_random_is_deterministic() {
        let mk = || Cache::new(CacheGeometry::L1, Replacement::PseudoRandom { seed: 42 });
        let mut a = mk();
        let mut b = mk();
        let stride = CacheGeometry::L1.sets() * CacheGeometry::L1.line;
        for i in 0..64 {
            let addr = 0x8000_0000 + (i % 7) * stride;
            assert_eq!(a.access(addr, i % 3 == 0), b.access(addr, i % 3 == 0));
        }
    }

    #[test]
    fn invalidate_unlocked_keeps_pins() {
        let mut c = l1();
        c.lock_ways(1);
        c.pin(0x9000_0000);
        c.access(0x8000_0000, false);
        c.invalidate_unlocked();
        assert_eq!(c.access(0x9000_0000, false), Lookup::Hit);
        assert!(matches!(c.access(0x8000_0000, false), Lookup::Miss { .. }));
    }
}
