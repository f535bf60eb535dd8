//! Two-level paged MMU with a direct-mapped TLB.
//!
//! Virtual addresses split `10 | 10 | 12`: bits `[31:22]` index the level-1
//! table, `[21:12]` the level-2 table, `[11:0]` are the page offset. Both
//! tables are 1024 × 4-byte entries (one 4 KiB page each). Level-1 entries
//! are pointers (leaf permission bits must be clear); level-2 entries are
//! leaves.
//!
//! The hardware walker sets the accessed bit on every successful walk and
//! the dirty bit on stores. The TLB caches leaf entries and must be flushed
//! with `tlbflush` after software edits a page table — the lightweight
//! monitor's shadow-paging code depends on this contract.
//!
//! [`walk`] is exported for software that needs to translate through a page
//! table it does *not* currently run on: the monitor walks **guest** page
//! tables to build shadow tables and to fetch the instructions it emulates,
//! and the debug stub reads guest memory by virtual address through
//! [`walk_tables`], the structure-only step of [`walk`] that ignores
//! permission bits. Both pass a bus that bounds every table access, so one
//! walker serves the hardware, the monitors and the debugger.

use crate::{Bus, BusFault, MemSize, Mode};
use core::fmt;

/// Page-table entry flag bits and masks.
pub mod pte {
    /// Entry is valid.
    pub const V: u32 = 1 << 0;
    /// Page is readable.
    pub const R: u32 = 1 << 1;
    /// Page is writable.
    pub const W: u32 = 1 << 2;
    /// Page is executable.
    pub const X: u32 = 1 << 3;
    /// Page is accessible in user mode.
    pub const U: u32 = 1 << 4;
    /// Accessed (set by the hardware walker).
    pub const A: u32 = 1 << 5;
    /// Dirty (set by the hardware walker on stores).
    pub const D: u32 = 1 << 6;
    /// Mask of the physical page number.
    pub const PPN_MASK: u32 = 0xffff_f000;
    /// Mask of all permission/flag bits.
    pub const FLAGS_MASK: u32 = 0x7f;

    /// Builds a leaf entry from a physical page address and flags.
    pub fn leaf(pa: u32, flags: u32) -> u32 {
        (pa & PPN_MASK) | (flags & FLAGS_MASK)
    }

    /// Builds a pointer (level-1) entry referring to a level-2 table page.
    pub fn table(pa: u32) -> u32 {
        (pa & PPN_MASK) | V
    }
}

/// Page size in bytes.
pub const PAGE_SIZE: u32 = 4096;
/// Mask of the in-page offset.
pub const PAGE_MASK: u32 = PAGE_SIZE - 1;

/// Level-1 index of a virtual address.
pub fn l1_index(va: u32) -> u32 {
    va >> 22
}

/// Level-2 index of a virtual address.
pub fn l2_index(va: u32) -> u32 {
    (va >> 12) & 0x3ff
}

/// Virtual page number (both indices combined).
pub fn vpn(va: u32) -> u32 {
    va >> 12
}

/// The kind of access being translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Instruction fetch (needs `X`).
    Fetch,
    /// Data load (needs `R`).
    Load,
    /// Data store (needs `W`).
    Store,
}

impl Access {
    /// The access kind behind a page-fault cause (monitors classify guest
    /// faults this way before walking the guest's page tables).
    pub fn from_fault(cause: crate::trap::Cause) -> Access {
        match cause {
            crate::trap::Cause::InstrPageFault => Access::Fetch,
            crate::trap::Cause::LoadPageFault => Access::Load,
            _ => Access::Store,
        }
    }

    /// The access-fault cause this access kind raises when it reaches
    /// unmapped or forbidden physical space.
    pub fn fault_cause(self) -> crate::trap::Cause {
        match self {
            Access::Fetch => crate::trap::Cause::InstrAccessFault,
            Access::Load => crate::trap::Cause::LoadAccessFault,
            Access::Store => crate::trap::Cause::StoreAccessFault,
        }
    }
}

/// Why a translation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslateErr {
    /// The page tables deny the access (invalid entry, missing permission,
    /// or user access to a supervisor page).
    PageFault,
    /// A page-table entry could not be read or written on the bus.
    Bus(BusFault),
}

impl fmt::Display for TranslateErr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateErr::PageFault => write!(f, "page fault"),
            TranslateErr::Bus(b) => write!(f, "page-table access failed: {b}"),
        }
    }
}

impl std::error::Error for TranslateErr {}

/// Result of a successful page walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Walk {
    /// Translated physical address.
    pub paddr: u32,
    /// The leaf (level-2) entry, after any A/D update.
    pub leaf: u32,
    /// Physical address of the leaf entry (for shadow bookkeeping).
    pub leaf_addr: u32,
    /// `true` if the walker wrote back accessed/dirty bits.
    pub updated_ad: bool,
}

fn perm_ok(flags: u32, access: Access, mode: Mode) -> bool {
    if flags & pte::V == 0 {
        return false;
    }
    if mode == Mode::User && flags & pte::U == 0 {
        return false;
    }
    match access {
        Access::Fetch => flags & pte::X != 0,
        Access::Load => flags & pte::R != 0,
        Access::Store => flags & pte::W != 0,
    }
}

/// The structure-only step of a walk: follows the level-1 pointer for `va`
/// in the page table rooted at `root` and reads the valid leaf it selects,
/// checking no permission bit and writing nothing. The returned
/// [`Walk::paddr`] is where the leaf maps `va`; the debugger translates
/// this way, since it may read execute-only pages.
///
/// # Errors
///
/// [`TranslateErr::PageFault`] for an invalid level-1 pointer, a (reserved)
/// superpage leaf at level 1 or an invalid leaf; [`TranslateErr::Bus`] if a
/// table entry cannot be read.
pub fn walk_tables<B: Bus + ?Sized>(bus: &mut B, root: u32, va: u32) -> Result<Walk, TranslateErr> {
    let l1_addr = (root & pte::PPN_MASK) + l1_index(va) * 4;
    let l1e = bus
        .read(l1_addr, MemSize::Word)
        .map_err(TranslateErr::Bus)?;
    if l1e & pte::V == 0 || l1e & (pte::R | pte::W | pte::X) != 0 {
        return Err(TranslateErr::PageFault);
    }
    let leaf_addr = (l1e & pte::PPN_MASK) + l2_index(va) * 4;
    let leaf = bus
        .read(leaf_addr, MemSize::Word)
        .map_err(TranslateErr::Bus)?;
    if leaf & pte::V == 0 {
        return Err(TranslateErr::PageFault);
    }
    Ok(Walk {
        paddr: (leaf & pte::PPN_MASK) | (va & PAGE_MASK),
        leaf,
        leaf_addr,
        updated_ad: false,
    })
}

/// Walks the page table rooted at `root` (a physical page address) for `va`:
/// [`walk_tables`], then the leaf's permission check for `access` in
/// `mode`.
///
/// When `update_ad` is `true` the walker behaves like the hardware MMU and
/// writes back accessed/dirty bits; pass `false` for side-effect-free
/// translation.
///
/// # Errors
///
/// [`TranslateErr::PageFault`] if any level denies the access;
/// [`TranslateErr::Bus`] if a table entry itself cannot be read or written.
pub fn walk<B: Bus + ?Sized>(
    bus: &mut B,
    root: u32,
    va: u32,
    access: Access,
    mode: Mode,
    update_ad: bool,
) -> Result<Walk, TranslateErr> {
    let mut w = walk_tables(bus, root, va)?;
    if !perm_ok(w.leaf, access, mode) {
        return Err(TranslateErr::PageFault);
    }
    let want = pte::A | if access == Access::Store { pte::D } else { 0 };
    if update_ad && w.leaf & want != want {
        w.leaf |= want;
        bus.write(w.leaf_addr, w.leaf, MemSize::Word)
            .map_err(TranslateErr::Bus)?;
        w.updated_ad = true;
    }
    Ok(w)
}

/// Installs a single `va → pa` leaf mapping in the page table rooted at
/// `root`, allocating a level-2 table page from the `alloc` bump pointer
/// when the level-1 slot is empty.
///
/// This is the builder used by guest images, monitors and tests; the
/// hardware walker only ever reads tables.
///
/// # Errors
///
/// Returns a [`BusFault`] if a table page cannot be read or written.
pub fn map_page<B: Bus + ?Sized>(
    bus: &mut B,
    root: u32,
    alloc: &mut u32,
    va: u32,
    pa: u32,
    flags: u32,
) -> Result<(), BusFault> {
    let l1a = (root & pte::PPN_MASK) + l1_index(va) * 4;
    let mut l1e = bus.read(l1a, MemSize::Word)?;
    if l1e & pte::V == 0 {
        let table = *alloc;
        *alloc += PAGE_SIZE;
        // Zero the fresh level-2 table.
        for i in 0..1024 {
            bus.write(table + i * 4, 0, MemSize::Word)?;
        }
        l1e = pte::table(table);
        bus.write(l1a, l1e, MemSize::Word)?;
    }
    let l2a = (l1e & pte::PPN_MASK) + l2_index(va) * 4;
    bus.write(l2a, pte::leaf(pa, flags), MemSize::Word)
}

const TLB_ENTRIES: usize = 64;

#[derive(Debug, Clone, Copy, Default)]
struct TlbEntry {
    valid: bool,
    vpn: u32,
    ppn: u32,
    flags: u32,
}

/// A direct-mapped translation lookaside buffer.
///
/// The TLB caches leaf entries *including* their dirty bit; a store that hits
/// a clean entry still takes the walker so the dirty bit is set in memory,
/// matching real hardware and keeping shadow page tables coherent.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: [TlbEntry; TLB_ENTRIES],
    hits: u64,
    misses: u64,
    generation: u64,
}

impl Default for Tlb {
    fn default() -> Self {
        Self::new()
    }
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new() -> Tlb {
        Tlb {
            entries: [TlbEntry::default(); TLB_ENTRIES],
            hits: 0,
            misses: 0,
            generation: 0,
        }
    }

    fn slot(vpn: u32) -> usize {
        (vpn as usize) % TLB_ENTRIES
    }

    /// Looks up a translation; returns the physical address on a usable hit.
    pub fn lookup(&mut self, va: u32, access: Access, mode: Mode) -> Option<u32> {
        let vpn = vpn(va);
        let e = &self.entries[Self::slot(vpn)];
        if e.valid
            && e.vpn == vpn
            && perm_ok(e.flags, access, mode)
            && (access != Access::Store || e.flags & pte::D != 0)
        {
            self.hits += 1;
            Some(e.ppn | (va & PAGE_MASK))
        } else {
            self.misses += 1;
            None
        }
    }

    /// Caches a leaf entry produced by the walker.
    pub fn insert(&mut self, va: u32, leaf: u32) {
        let vpn = vpn(va);
        self.entries[Self::slot(vpn)] = TlbEntry {
            valid: true,
            vpn,
            ppn: leaf & pte::PPN_MASK,
            flags: leaf & pte::FLAGS_MASK,
        };
        self.generation += 1;
    }

    /// Invalidates every entry (the `tlbflush` instruction).
    pub fn flush(&mut self) {
        for e in &mut self.entries {
            e.valid = false;
        }
        self.generation += 1;
    }

    /// `(hits, misses)` counters, for performance analysis.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Monotonic counter bumped on every mutation (insert or flush).
    ///
    /// The CPU's fetch fast path memoises one translation and revalidates it
    /// against this counter: as long as the generation is unchanged, the TLB
    /// provably still holds the memoised entry.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Records a hit that was answered by the fetch fast path instead of
    /// [`Tlb::lookup`], keeping hit/miss statistics identical whether or not
    /// the fast path is enabled.
    pub(crate) fn note_hit(&mut self) {
        self.hits += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatRam;
    use proptest::prelude::*;

    #[test]
    fn walk_translates_and_sets_ad() {
        let mut ram = FlatRam::new(64 * 1024);
        let root = 0x1000;
        let mut alloc = 0x2000;
        map_page(
            &mut ram,
            root,
            &mut alloc,
            0x0040_0000,
            0x5000,
            pte::V | pte::R | pte::W,
        )
        .unwrap();

        let w = walk(
            &mut ram,
            root,
            0x0040_0123,
            Access::Load,
            Mode::Supervisor,
            true,
        )
        .unwrap();
        assert_eq!(w.paddr, 0x5123);
        assert!(w.leaf & pte::A != 0);
        assert!(w.leaf & pte::D == 0);
        assert!(w.updated_ad);

        let w = walk(
            &mut ram,
            root,
            0x0040_0200,
            Access::Store,
            Mode::Supervisor,
            true,
        )
        .unwrap();
        assert!(w.leaf & pte::D != 0);
        // Dirty bit persisted to memory.
        let stored = ram.load_word(w.leaf_addr);
        assert!(stored & pte::D != 0);
    }

    #[test]
    fn walk_without_update_leaves_table_untouched() {
        let mut ram = FlatRam::new(64 * 1024);
        let root = 0x1000;
        let mut alloc = 0x2000;
        map_page(&mut ram, root, &mut alloc, 0x1000, 0x5000, pte::V | pte::R).unwrap();
        let before = ram.clone();
        walk(
            &mut ram,
            root,
            0x1004,
            Access::Load,
            Mode::Supervisor,
            false,
        )
        .unwrap();
        assert_eq!(ram, before);
    }

    #[test]
    fn permission_checks() {
        let mut ram = FlatRam::new(64 * 1024);
        let root = 0x1000;
        let mut alloc = 0x2000;
        map_page(&mut ram, root, &mut alloc, 0x1000, 0x5000, pte::V | pte::R).unwrap(); // read-only, no U
        map_page(
            &mut ram,
            root,
            &mut alloc,
            0x2000,
            0x6000,
            pte::V | pte::R | pte::U,
        )
        .unwrap();

        // Store to read-only page fails.
        assert_eq!(
            walk(
                &mut ram,
                root,
                0x1000,
                Access::Store,
                Mode::Supervisor,
                true
            ),
            Err(TranslateErr::PageFault)
        );
        // User access to supervisor page fails.
        assert_eq!(
            walk(&mut ram, root, 0x1000, Access::Load, Mode::User, true),
            Err(TranslateErr::PageFault)
        );
        // User access to user page succeeds.
        assert!(walk(&mut ram, root, 0x2000, Access::Load, Mode::User, true).is_ok());
        // Fetch needs X.
        assert_eq!(
            walk(&mut ram, root, 0x2000, Access::Fetch, Mode::User, true),
            Err(TranslateErr::PageFault)
        );
        // Unmapped VA faults at level 1.
        assert_eq!(
            walk(
                &mut ram,
                root,
                0x8000_0000,
                Access::Load,
                Mode::Supervisor,
                true
            ),
            Err(TranslateErr::PageFault)
        );
    }

    #[test]
    fn l1_leaf_bits_are_reserved() {
        let mut ram = FlatRam::new(64 * 1024);
        let root = 0x1000;
        ram.store_word(
            root + l1_index(0x1000) * 4,
            pte::leaf(0x5000, pte::V | pte::R),
        );
        assert_eq!(
            walk(&mut ram, root, 0x1000, Access::Load, Mode::Supervisor, true),
            Err(TranslateErr::PageFault)
        );
    }

    #[test]
    fn pte_table_out_of_ram_is_bus_fault() {
        let mut ram = FlatRam::new(8 * 1024);
        let root = 0x1000;
        ram.store_word(root + l1_index(0) * 4, pte::table(0x0010_0000));
        assert_eq!(
            walk(&mut ram, root, 0, Access::Load, Mode::Supervisor, true),
            Err(TranslateErr::Bus(BusFault::Unmapped))
        );
    }

    #[test]
    fn walk_tables_ignores_permissions_but_not_validity() {
        let mut ram = FlatRam::new(64 * 1024);
        let root = 0x1000;
        let mut alloc = 0x2000;
        map_page(&mut ram, root, &mut alloc, 0x3000, 0x5000, pte::V | pte::X).unwrap();
        map_page(&mut ram, root, &mut alloc, 0x4000, 0x6000, pte::R | pte::W).unwrap();
        let before = ram.clone();
        let w = walk_tables(&mut ram, root, 0x3010).unwrap();
        assert_eq!((w.paddr, w.leaf_addr), (0x5010, 0x2000 + 3 * 4));
        assert!(!w.updated_ad);
        assert_eq!(
            walk_tables(&mut ram, root, 0x4000),
            Err(TranslateErr::PageFault),
            "an invalid leaf maps nothing"
        );
        assert_eq!(ram, before, "nothing written");
    }

    #[test]
    fn tlb_store_needs_dirty() {
        let mut tlb = Tlb::new();
        tlb.insert(0x4000, pte::leaf(0x7000, pte::V | pte::R | pte::W | pte::A));
        // Clean entry: loads hit, stores miss (must re-walk to set D).
        assert_eq!(
            tlb.lookup(0x4010, Access::Load, Mode::Supervisor),
            Some(0x7010)
        );
        assert_eq!(tlb.lookup(0x4010, Access::Store, Mode::Supervisor), None);
        tlb.insert(
            0x4000,
            pte::leaf(0x7000, pte::V | pte::R | pte::W | pte::A | pte::D),
        );
        assert_eq!(
            tlb.lookup(0x4010, Access::Store, Mode::Supervisor),
            Some(0x7010)
        );
        let (hits, misses) = tlb.stats();
        assert_eq!((hits, misses), (2, 1));
    }

    #[test]
    fn tlb_flush_clears() {
        let mut tlb = Tlb::new();
        tlb.insert(0x4000, pte::leaf(0x7000, pte::V | pte::R | pte::A));
        assert!(tlb.lookup(0x4000, Access::Load, Mode::Supervisor).is_some());
        tlb.flush();
        assert!(tlb.lookup(0x4000, Access::Load, Mode::Supervisor).is_none());
    }

    #[test]
    fn tlb_mode_check_on_hit() {
        let mut tlb = Tlb::new();
        tlb.insert(0x4000, pte::leaf(0x7000, pte::V | pte::R | pte::A)); // no U
        assert!(tlb.lookup(0x4000, Access::Load, Mode::User).is_none());
        assert!(tlb.lookup(0x4000, Access::Load, Mode::Supervisor).is_some());
    }

    proptest! {
        /// The walker agrees with a from-scratch reference computation for
        /// arbitrary single-page mappings and accesses.
        #[test]
        fn walker_matches_reference(
            va_page in 0u32..0x10_0000,
            pa_page in 2u32..16,
            flags in 0u32..128,
            offset in 0u32..PAGE_SIZE,
            access_sel in 0u8..3,
            user in proptest::bool::ANY,
        ) {
            let va = va_page << 12;
            let pa = pa_page << 12;
            let mut ram = FlatRam::new(128 * 1024);
            let root = 0x1_0000;
            let mut alloc = 0x1_1000;
            map_page(&mut ram, root, &mut alloc, va, pa, flags).unwrap();
            let access = [Access::Fetch, Access::Load, Access::Store][access_sel as usize];
            let mode = if user { Mode::User } else { Mode::Supervisor };

            let tables = walk_tables(&mut ram, root, va | offset);
            prop_assert_eq!(tables.ok().map(|w| w.paddr), (flags & pte::V != 0).then_some(pa | offset));
            let got = walk(&mut ram, root, va | offset, access, mode, false);
            let expect_ok = perm_ok(flags, access, mode);
            match got {
                Ok(w) => {
                    prop_assert!(expect_ok);
                    prop_assert_eq!(w.paddr, pa | offset);
                }
                Err(TranslateErr::PageFault) => prop_assert!(!expect_ok),
                Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            }
        }
    }
}
