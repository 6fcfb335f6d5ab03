//! Byte-addressable main memory with single-bit-flip injection.
//!
//! Storage is paged and copy-on-write: pages are [`Arc`]-shared between
//! clones, and a clone only materializes its own copy of a page on the
//! first write to it. Forking a machine for an injection experiment
//! therefore costs `O(pages)` pointer bumps instead of a full RAM
//! memcpy, and the campaign executor's convergence check can compare two
//! related RAM images mostly by pointer equality.

use crate::trap::Trap;
use sofi_isa::MemWidth;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Bytes per copy-on-write page. A power of two no smaller than the
/// widest access (4 bytes), so a naturally aligned access never crosses
/// a page boundary.
pub const PAGE_BYTES: usize = 256;

type Page = [u8; PAGE_BYTES];

/// The all-zero page, shared by every freshly created RAM (and by every
/// zero-initialized tail page), so `Ram::new` allocates nothing per page.
fn zero_page() -> Arc<Page> {
    static ZERO: OnceLock<Arc<Page>> = OnceLock::new();
    ZERO.get_or_init(|| Arc::new([0; PAGE_BYTES])).clone()
}

/// The splitmix64 output permutation: a cheap, statistically strong
/// bijection on `u64`. Used as the mixing step of the content hashes
/// backing the campaign executor's fault-equivalence memoization, where
/// an (astronomically unlikely) collision would silently misclassify an
/// experiment — hence 128 hash bits built from two independent lanes.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds one word into a two-lane 128-bit accumulator. Both lanes are
/// position-dependent chains of [`mix64`] (a bijection, so unequal lane
/// states stay unequal); the lanes differ by seed and by how the word
/// enters the chain.
#[inline]
pub(crate) fn fold128(acc: (u64, u64), x: u64) -> (u64, u64) {
    (
        mix64(acc.0 ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15),
        mix64(acc.1.wrapping_add(x ^ 0xD1B5_4A32_D192_ED03)),
    )
}

/// Content hash of one page (both lanes packed into a `u128`).
fn hash_page(page: &Page) -> u128 {
    let mut acc = (0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344);
    for chunk in page.chunks_exact(8) {
        acc = fold128(acc, u64::from_le_bytes(chunk.try_into().unwrap()));
    }
    (acc.0 as u128) << 64 | acc.1 as u128
}

/// A page's position-mixed contribution to the rolling whole-RAM hash.
///
/// The whole-RAM hash combines pages by per-lane wrapping *sums* of
/// these contributions, so a single page's contribution can be
/// subtracted back out when the page is dirtied — that is what makes
/// [`Ram::content_hash`] incremental. Each contribution mixes the page
/// *index* into both lanes through [`mix64`] before and after the page
/// hash enters, so permuted or duplicated page contents never produce
/// colliding sums the way a plain XOR/sum of raw page hashes would.
#[inline]
fn page_contrib(ph: u128, p: usize) -> (u64, u64) {
    let pos = p as u64;
    (
        mix64((ph >> 64) as u64 ^ mix64(pos ^ 0x8509_4E22_45C4_BC83)),
        mix64((ph as u64).wrapping_add(mix64(pos ^ 0x6A09_E667_F3BC_C909))),
    )
}

/// Folds the accumulated page-contribution sums (and the RAM size) into
/// the final 128-bit content hash.
#[inline]
fn finish_content_hash(size: u32, acc: (u64, u64)) -> u128 {
    let mut h = fold128((0x4528_21E6_38D0_1377, 0xBE54_66CF_34E9_0C6C), size as u64);
    h = fold128(h, acc.0);
    h = fold128(h, acc.1);
    (h.0 as u128) << 64 | h.1 as u128
}

/// Main memory: the only fault-susceptible component in the paper's model.
///
/// Addresses run from `0` to `size() - 1`; the fault space's memory extent
/// is `size() * 8` bits. All multi-byte accesses are little-endian and must
/// be naturally aligned.
///
/// # Examples
///
/// ```
/// use sofi_machine::Ram;
/// use sofi_isa::MemWidth;
///
/// let mut ram = Ram::new(4);
/// ram.write(0, MemWidth::Word, 0xDEAD_BEEF).unwrap();
/// ram.flip_bit(0); // flip bit 0 of byte 0
/// assert_eq!(ram.read(0, MemWidth::Word).unwrap(), 0xDEAD_BEEE);
/// ```
#[derive(Clone)]
pub struct Ram {
    size: u32,
    /// COW pages; the last page is zero-padded past `size` and the
    /// padding is unreachable through the bounds-checked API.
    pages: Vec<Arc<Page>>,
    /// Cached per-page content hashes, invalidated on write. A clone
    /// inherits the cache (its content is identical at clone time), so a
    /// fork only re-hashes the pages it subsequently dirties — this is
    /// what makes whole-RAM hashing O(dirty pages) for the campaign
    /// executor's fault-equivalence memoization.
    ///
    /// Keyed by page *index*, never by page *pointer*: `Arc::make_mut`
    /// mutates a page in place when the refcount is 1, so a
    /// pointer-keyed cache would silently go stale.
    page_hashes: Vec<Option<u128>>,
    /// Rolling per-lane wrapping sums of [`page_contrib`] over exactly
    /// the pages whose `page_hashes` entry is populated. Dirtying a page
    /// subtracts its old contribution (ℤ/2⁶⁴ group arithmetic, exact);
    /// re-hashing adds the new one back.
    hash_acc: (u64, u64),
    /// Page indices missing from `hash_acc` — exactly the `None` entries
    /// of `page_hashes`, maintained duplicate-free so a probe pays
    /// `O(pages dirtied since the last probe)`, never `O(pages)`.
    stale_pages: Vec<u32>,
    /// Pages [`Ram::content_hash`] has re-hashed, inherited by clones.
    pages_hashed: u64,
}

impl Ram {
    /// Creates zero-filled RAM of `size` bytes.
    pub fn new(size: u32) -> Self {
        let count = (size as usize).div_ceil(PAGE_BYTES);
        Ram {
            size,
            pages: vec![zero_page(); count],
            page_hashes: vec![None; count],
            hash_acc: (0, 0),
            stale_pages: (0..count as u32).collect(),
            pages_hashed: 0,
        }
    }

    /// Creates RAM initialized with `image` (zero-padded to `size`).
    ///
    /// # Panics
    ///
    /// Panics if `image` is longer than `size`.
    pub fn with_image(size: u32, image: &[u8]) -> Self {
        assert!(
            image.len() <= size as usize,
            "image ({}) larger than RAM ({size})",
            image.len()
        );
        let mut ram = Ram::new(size);
        for (p, chunk) in image.chunks(PAGE_BYTES).enumerate() {
            if chunk.iter().any(|&b| b != 0) {
                let mut page = [0u8; PAGE_BYTES];
                page[..chunk.len()].copy_from_slice(chunk);
                ram.pages[p] = Arc::new(page);
            }
        }
        ram
    }

    /// RAM size in bytes.
    #[inline]
    pub fn size(&self) -> u32 {
        self.size
    }

    /// RAM size in bits (the fault-space memory extent `Δm`).
    #[inline]
    pub fn size_bits(&self) -> u64 {
        self.size as u64 * 8
    }

    /// Contiguous copy of the memory contents (diagnostics and tests;
    /// the storage itself is paged, so this materializes a fresh `Vec`).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size as usize);
        for page in &self.pages {
            let take = (self.size as usize - out.len()).min(PAGE_BYTES);
            out.extend_from_slice(&page[..take]);
        }
        out
    }

    /// Reads one byte without width/alignment ceremony (diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if `addr >= size()`.
    #[inline]
    pub fn byte(&self, addr: u32) -> u8 {
        assert!(addr < self.size, "address {addr} outside RAM");
        self.pages[addr as usize / PAGE_BYTES][addr as usize % PAGE_BYTES]
    }

    /// `true` if `self` and `other` share every page allocation (clone
    /// that nobody has written through yet). Used by tests to verify the
    /// copy-on-write behaviour; content equality is `==`.
    pub fn shares_all_pages_with(&self, other: &Ram) -> bool {
        self.size == other.size
            && self
                .pages
                .iter()
                .zip(&other.pages)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// Content equality restricted to *live* bytes: byte `i` is compared
    /// only when bit `i` of `live` is set (flat bitmask, one bit per RAM
    /// byte). Pages still `Arc`-shared between the two RAMs are skipped
    /// by pointer equality.
    ///
    /// The campaign executor uses this to detect convergence of faulted
    /// runs: a byte whose next access in the reference run is a write —
    /// or that is never accessed again — is *dead*, and a lingering
    /// difference there can never influence execution or output.
    ///
    /// # Panics
    ///
    /// Panics if the RAM sizes differ or `live` is shorter than
    /// `size().div_ceil(8)`.
    pub fn eq_masked(&self, other: &Ram, live: &[u8]) -> bool {
        assert_eq!(self.size, other.size, "masked compare of unequal RAMs");
        assert!(
            live.len() >= (self.size as usize).div_ceil(8),
            "live mask shorter than RAM"
        );
        for (p, (a, b)) in self.pages.iter().zip(&other.pages).enumerate() {
            if Arc::ptr_eq(a, b) {
                continue;
            }
            let base = p * PAGE_BYTES;
            let len = (self.size as usize - base).min(PAGE_BYTES);
            for i in 0..len {
                if a[i] != b[i] && live[(base + i) / 8] & (1 << ((base + i) % 8)) != 0 {
                    return false;
                }
            }
        }
        true
    }

    /// 128-bit content hash of the full memory image, position-sensitive
    /// over pages. Equal contents always hash equal (the hash never sees
    /// the COW sharing structure — or the incremental bookkeeping);
    /// unequal contents collide with probability ~2⁻¹²⁸ per pair.
    ///
    /// The hash is *incremental*: a rolling per-lane sum of
    /// position-mixed page contributions is maintained across writes —
    /// dirtying a page subtracts its old contribution, and a probe
    /// re-hashes and re-adds only the pages dirtied since the previous
    /// probe. Clones inherit the accumulator and per-page cache, so
    /// digesting a fork of an already-hashed RAM costs `O(pages dirtied
    /// since the fork)` and a clean re-probe costs `O(1)` — not
    /// `O(pages)` as in the pre-incremental sequential fold. This is the
    /// property the campaign executor's fault-equivalence memoization
    /// relies on to digest machine state at every injection and
    /// checkpoint crossing without making RAM-heavy plans lose.
    ///
    /// [`Ram::content_hash_from_scratch`] recomputes the same value with
    /// no cached state; the fuzz battery in `tests/memoization_fuzz.rs`
    /// holds the two equal across random write/flip/fork interleavings.
    pub fn content_hash(&mut self) -> u128 {
        self.pages_hashed += self.stale_pages.len() as u64;
        while let Some(p) = self.stale_pages.pop() {
            let p = p as usize;
            let ph = hash_page(&self.pages[p]);
            self.page_hashes[p] = Some(ph);
            let (c0, c1) = page_contrib(ph, p);
            self.hash_acc.0 = self.hash_acc.0.wrapping_add(c0);
            self.hash_acc.1 = self.hash_acc.1.wrapping_add(c1);
        }
        finish_content_hash(self.size, self.hash_acc)
    }

    /// Pages [`Ram::content_hash`] has re-hashed over this RAM's history
    /// (a clone starts from its parent's count). The difference across
    /// one call is that call's work — the deterministic unit in which
    /// the campaign executor's memo cost gate prices digests.
    pub fn pages_hashed(&self) -> u64 {
        self.pages_hashed
    }

    /// [`Ram::content_hash`] recomputed from the raw page contents alone,
    /// ignoring (and not touching) the incremental accumulator and
    /// per-page cache. The oracle the digest-equality fuzz battery
    /// compares the rolling hash against.
    pub fn content_hash_from_scratch(&self) -> u128 {
        let mut acc = (0u64, 0u64);
        for (p, page) in self.pages.iter().enumerate() {
            let (c0, c1) = page_contrib(hash_page(page), p);
            acc.0 = acc.0.wrapping_add(c0);
            acc.1 = acc.1.wrapping_add(c1);
        }
        finish_content_hash(self.size, acc)
    }

    /// Records that page `p` is about to change: subtracts its
    /// contribution from the rolling hash and queues it for re-hashing
    /// at the next probe. A page already dirty is already queued.
    #[inline]
    fn touch_page(&mut self, p: usize) {
        if let Some(ph) = self.page_hashes[p].take() {
            let (c0, c1) = page_contrib(ph, p);
            self.hash_acc.0 = self.hash_acc.0.wrapping_sub(c0);
            self.hash_acc.1 = self.hash_acc.1.wrapping_sub(c1);
            self.stale_pages.push(p as u32);
        }
    }

    fn check(&self, addr: u32, width: MemWidth) -> Result<usize, Trap> {
        let bytes = width.bytes();
        if !addr.is_multiple_of(bytes) {
            return Err(Trap::Misaligned { addr, width });
        }
        let end = addr as u64 + bytes as u64;
        if end > self.size as u64 {
            return Err(Trap::OutOfRange { addr });
        }
        Ok(addr as usize)
    }

    /// Reads `width` bytes at `addr` (little-endian, zero-extended to u32).
    ///
    /// # Errors
    ///
    /// [`Trap::Misaligned`] if `addr` is not naturally aligned,
    /// [`Trap::OutOfRange`] if the access crosses the end of RAM.
    pub fn read(&self, addr: u32, width: MemWidth) -> Result<u32, Trap> {
        let i = self.check(addr, width)?;
        // Natural alignment keeps the access inside one page.
        let page = &self.pages[i / PAGE_BYTES];
        let o = i % PAGE_BYTES;
        Ok(match width {
            MemWidth::Byte => page[o] as u32,
            MemWidth::Half => u16::from_le_bytes([page[o], page[o + 1]]) as u32,
            MemWidth::Word => u32::from_le_bytes([page[o], page[o + 1], page[o + 2], page[o + 3]]),
        })
    }

    /// Writes the low `width` bytes of `value` at `addr` (little-endian).
    ///
    /// The first write to an `Arc`-shared page copies it (copy-on-write);
    /// subsequent writes to the same page are in-place.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ram::read`].
    pub fn write(&mut self, addr: u32, width: MemWidth, value: u32) -> Result<(), Trap> {
        let i = self.check(addr, width)?;
        self.touch_page(i / PAGE_BYTES);
        let page = Arc::make_mut(&mut self.pages[i / PAGE_BYTES]);
        let o = i % PAGE_BYTES;
        match width {
            MemWidth::Byte => page[o] = value as u8,
            MemWidth::Half => page[o..o + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            MemWidth::Word => page[o..o + 4].copy_from_slice(&value.to_le_bytes()),
        }
        Ok(())
    }

    /// Flips one bit. `bit` is a flat index: `addr * 8 + bit_in_byte`,
    /// exactly the memory axis of the fault space.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= size_bits()`.
    #[inline]
    pub fn flip_bit(&mut self, bit: u64) {
        assert!(bit < self.size_bits(), "bit {bit} outside RAM");
        let i = (bit / 8) as usize;
        self.touch_page(i / PAGE_BYTES);
        let page = Arc::make_mut(&mut self.pages[i / PAGE_BYTES]);
        page[i % PAGE_BYTES] ^= 1 << (bit % 8);
    }

    /// Reads a single bit (for diagnostics and tests).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= size_bits()`.
    #[inline]
    pub fn bit(&self, bit: u64) -> bool {
        assert!(bit < self.size_bits(), "bit {bit} outside RAM");
        let i = (bit / 8) as usize;
        self.pages[i / PAGE_BYTES][i % PAGE_BYTES] & (1 << (bit % 8)) != 0
    }
}

impl PartialEq for Ram {
    /// Content equality with an `Arc::ptr_eq` fast path per page — two
    /// RAMs forked from a common ancestor compare in O(pages) pointer
    /// checks plus a memcmp per diverged page.
    fn eq(&self, other: &Ram) -> bool {
        self.size == other.size
            && self
                .pages
                .iter()
                .zip(&other.pages)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a[..] == b[..])
    }
}

impl Eq for Ram {}

impl fmt::Debug for Ram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Dumping whole pages would swamp Machine's derived Debug.
        let owned = self.pages.iter().filter(|p| Arc::strong_count(p) == 1);
        f.debug_struct("Ram")
            .field("size", &self.size)
            .field("pages", &self.pages.len())
            .field("owned_pages", &owned.count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn little_endian_round_trip() {
        let mut ram = Ram::new(8);
        ram.write(4, MemWidth::Word, 0x0102_0304).unwrap();
        assert_eq!(ram.to_vec()[4..8], [0x04, 0x03, 0x02, 0x01]);
        assert_eq!(ram.read(4, MemWidth::Half).unwrap(), 0x0304);
        assert_eq!(ram.read(6, MemWidth::Half).unwrap(), 0x0102);
        assert_eq!(ram.read(7, MemWidth::Byte).unwrap(), 0x01);
    }

    #[test]
    fn misaligned_rejected() {
        let mut ram = Ram::new(8);
        assert_eq!(
            ram.read(1, MemWidth::Half),
            Err(Trap::Misaligned {
                addr: 1,
                width: MemWidth::Half
            })
        );
        assert_eq!(
            ram.write(2, MemWidth::Word, 0),
            Err(Trap::Misaligned {
                addr: 2,
                width: MemWidth::Word
            })
        );
        assert!(ram.read(1, MemWidth::Byte).is_ok());
    }

    #[test]
    fn out_of_range_rejected() {
        let ram = Ram::new(4);
        assert_eq!(
            ram.read(4, MemWidth::Byte),
            Err(Trap::OutOfRange { addr: 4 })
        );
        assert_eq!(
            ram.read(2, MemWidth::Word),
            Err(Trap::Misaligned {
                addr: 2,
                width: MemWidth::Word
            })
        );
        // Aligned but crossing the end.
        let ram = Ram::new(2);
        assert_eq!(
            ram.read(0, MemWidth::Word),
            Err(Trap::OutOfRange { addr: 0 })
        );
    }

    #[test]
    fn flip_is_involution() {
        let mut ram = Ram::with_image(2, &[0xFF, 0x00]);
        for bit in 0..16 {
            let before = ram.to_vec();
            ram.flip_bit(bit);
            assert_ne!(ram.to_vec(), before);
            ram.flip_bit(bit);
            assert_eq!(ram.to_vec(), before);
        }
    }

    #[test]
    fn bit_indexing_matches_flip() {
        let mut ram = Ram::new(2);
        assert!(!ram.bit(9));
        ram.flip_bit(9); // byte 1, bit 1
        assert!(ram.bit(9));
        assert_eq!(ram.to_vec(), vec![0x00, 0x02]);
    }

    #[test]
    #[should_panic(expected = "outside RAM")]
    fn flip_out_of_range_panics() {
        Ram::new(1).flip_bit(8);
    }

    #[test]
    fn image_padding() {
        let ram = Ram::with_image(4, &[1, 2]);
        assert_eq!(ram.to_vec(), vec![1, 2, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "larger than RAM")]
    fn oversized_image_panics() {
        Ram::with_image(1, &[1, 2]);
    }

    #[test]
    fn crosses_page_boundaries() {
        // Accesses and flips on both sides of the first page boundary.
        let size = (PAGE_BYTES as u32) * 2 + 8;
        let mut ram = Ram::new(size);
        let edge = PAGE_BYTES as u32;
        ram.write(edge - 4, MemWidth::Word, 0xAABB_CCDD).unwrap();
        ram.write(edge, MemWidth::Word, 0x1122_3344).unwrap();
        assert_eq!(ram.read(edge - 4, MemWidth::Word).unwrap(), 0xAABB_CCDD);
        assert_eq!(ram.read(edge, MemWidth::Word).unwrap(), 0x1122_3344);
        ram.flip_bit((edge as u64) * 8); // first bit of page 1
        assert_eq!(ram.read(edge, MemWidth::Word).unwrap(), 0x1122_3345);
        // Last byte of the partial tail page.
        ram.write(size - 1, MemWidth::Byte, 0x7F).unwrap();
        assert_eq!(ram.byte(size - 1), 0x7F);
    }

    #[test]
    fn clone_shares_pages_until_written() {
        let mut a = Ram::with_image(1024, &[9; 700]);
        let b = a.clone();
        assert!(a.shares_all_pages_with(&b));
        assert_eq!(a, b);
        // Writing through one side copies exactly that page.
        a.write(0, MemWidth::Byte, 1).unwrap();
        assert!(!a.shares_all_pages_with(&b));
        assert_ne!(a, b);
        assert_eq!(b.byte(0), 9, "clone must not observe the write");
        // Pages past the written one are still shared.
        assert!(Arc::ptr_eq(&a.pages[1], &b.pages[1]));
    }

    #[test]
    fn fresh_ram_shares_the_zero_page() {
        let a = Ram::new(4 * PAGE_BYTES as u32);
        let b = Ram::new(2 * PAGE_BYTES as u32);
        assert!(Arc::ptr_eq(&a.pages[3], &b.pages[0]));
    }

    #[test]
    fn equality_is_content_based_after_divergence() {
        // Write the same value through two independent clones: the pages
        // are no longer shared, but the RAMs still compare equal.
        let base = Ram::new(512);
        let mut a = base.clone();
        let mut b = base.clone();
        a.write(300, MemWidth::Word, 77).unwrap();
        b.write(300, MemWidth::Word, 77).unwrap();
        assert!(!a.shares_all_pages_with(&b));
        assert_eq!(a, b);
        b.flip_bit(300 * 8);
        assert_ne!(a, b);
    }

    #[test]
    fn masked_equality_ignores_dead_bytes() {
        let base = Ram::new(512);
        let mut a = base.clone();
        let mut b = base.clone();
        a.write(3, MemWidth::Byte, 0xAA).unwrap();
        a.write(300, MemWidth::Byte, 0x55).unwrap();
        b.write(300, MemWidth::Byte, 0x55).unwrap();
        assert_ne!(a, b);

        let mut all_live = vec![0xFFu8; 64];
        assert!(!a.eq_masked(&b, &all_live));
        // Mark byte 3 dead: the remaining difference is invisible.
        all_live[0] &= !(1 << 3);
        assert!(a.eq_masked(&b, &all_live));
        // Shared pages are skipped even with an all-live mask.
        assert!(base.eq_masked(&base.clone(), &[0xFFu8; 64]));
        // A live difference in the diverged page is still caught.
        b.flip_bit(301 * 8);
        assert!(!a.eq_masked(&b, &all_live));
    }

    #[test]
    fn content_hash_is_content_determined() {
        // Equal content ⇒ equal hash, regardless of COW structure or
        // cache population order.
        let base = Ram::with_image(1024, &[7; 700]);
        let mut a = base.clone();
        let mut b = Ram::with_image(1024, &[7; 700]); // no shared pages
        assert_eq!(a.content_hash(), b.content_hash());
        a.write(300, MemWidth::Word, 0xAB).unwrap();
        b.write(300, MemWidth::Word, 0xAB).unwrap();
        assert_eq!(a.content_hash(), b.content_hash());
        // Different size, same (empty) content prefix ⇒ different hash.
        assert_ne!(Ram::new(256).content_hash(), Ram::new(512).content_hash());
    }

    #[test]
    fn content_hash_tracks_every_write_and_flip() {
        let mut ram = Ram::with_image(512, &[3; 300]);
        let h0 = ram.content_hash();
        ram.write(100, MemWidth::Byte, 99).unwrap();
        let h1 = ram.content_hash();
        assert_ne!(h0, h1, "write after hashing must change the hash");
        ram.write(100, MemWidth::Byte, 3).unwrap();
        assert_eq!(
            ram.content_hash(),
            h0,
            "restoring content restores the hash"
        );
        ram.flip_bit(400 * 8 + 5);
        assert_ne!(ram.content_hash(), h0);
        ram.flip_bit(400 * 8 + 5);
        assert_eq!(ram.content_hash(), h0, "flip is an involution on the hash");
    }

    #[test]
    fn clone_inherits_hash_cache_and_stays_correct() {
        // The stale-cache hazard this design must avoid: `Arc::make_mut`
        // mutates a uniquely-owned page *in place*, so a fork writing to
        // a page the parent already hashed must not reuse the parent's
        // entry for its own changed content — and vice versa.
        let mut parent = Ram::with_image(1024, &[5; 1000]);
        let h_parent = parent.content_hash(); // warm every page
        let mut fork = parent.clone();
        assert!(
            fork.page_hashes.iter().all(Option::is_some),
            "fork must inherit the parent's warm cache"
        );
        assert_eq!(fork.content_hash(), h_parent);
        assert_eq!(fork.pages_hashed(), 4, "a clean re-probe re-hashes nothing");
        fork.write(0, MemWidth::Byte, 6).unwrap();
        assert_ne!(fork.content_hash(), h_parent);
        assert_eq!(fork.pages_hashed(), 5, "one dirtied page, one re-hash");
        assert_eq!(parent.content_hash(), h_parent, "parent unaffected by fork");
        // In-place mutation of a uniquely-owned page (refcount 1).
        let mut solo = Ram::with_image(256, &[1; 100]);
        let h = solo.content_hash();
        solo.write(0, MemWidth::Byte, 2).unwrap(); // make_mut in place
        assert_ne!(solo.content_hash(), h);
    }

    #[test]
    fn incremental_hash_matches_from_scratch() {
        // The rolling accumulator must agree with a cache-free rehash at
        // every probe point, through writes, flips, forks, and in-place
        // mutation of uniquely-owned pages.
        let mut s = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let size = 4 * PAGE_BYTES as u32 + 32;
        let mut ram = Ram::with_image(size, &[0xA5; 600]);
        let mut fork = ram.clone(); // cold-cache fork
        for step in 0..500u32 {
            match next() % 3 {
                0 => {
                    let addr = (next() % size as u64) as u32;
                    let _ = ram.write(addr, MemWidth::Byte, next() as u32);
                }
                1 => ram.flip_bit(next() % ram.size_bits()),
                _ => {
                    assert_eq!(ram.content_hash(), ram.content_hash_from_scratch());
                    if step % 7 == 0 {
                        fork = ram.clone(); // warm-cache fork
                    }
                    fork.flip_bit(next() % fork.size_bits());
                    assert_eq!(fork.content_hash(), fork.content_hash_from_scratch());
                }
            }
        }
        assert_eq!(ram.content_hash(), ram.content_hash_from_scratch());
        // A second probe with nothing dirtied takes the O(1) path and
        // must return the same value.
        assert_eq!(ram.content_hash(), ram.content_hash_from_scratch());
        assert!(ram.stale_pages.is_empty());
    }

    /// Equivalence sweep against the previous `Vec<u8>`-backed semantics:
    /// a flat byte vector modeling what the old implementation stored.
    #[test]
    fn cow_matches_flat_vec_model() {
        // Deterministic xorshift — the machine crate has no RNG dep.
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for &size in &[1u32, 7, 255, 256, 257, 1000, 4096] {
            let image: Vec<u8> = (0..size.min(300)).map(|_| next() as u8).collect();
            let mut ram = Ram::with_image(size, &image);
            let mut model = vec![0u8; size as usize];
            model[..image.len()].copy_from_slice(&image);
            let mut fork: Option<(Ram, Vec<u8>)> = None;
            for step in 0..2_000u32 {
                let op = next() % 4;
                let addr = (next() % size as u64) as u32;
                match op {
                    0 => {
                        let width = match next() % 3 {
                            0 => MemWidth::Byte,
                            1 => MemWidth::Half,
                            _ => MemWidth::Word,
                        };
                        let value = next() as u32;
                        let got = ram.write(addr, width, value);
                        // Mirror into the model only on success.
                        if got.is_ok() {
                            let n = width.bytes() as usize;
                            model[addr as usize..addr as usize + n]
                                .copy_from_slice(&value.to_le_bytes()[..n]);
                        } else {
                            assert!(
                                !addr.is_multiple_of(width.bytes())
                                    || addr as u64 + width.bytes() as u64 > size as u64,
                                "write rejected in-bounds aligned access"
                            );
                        }
                    }
                    1 => {
                        let width = match next() % 3 {
                            0 => MemWidth::Byte,
                            1 => MemWidth::Half,
                            _ => MemWidth::Word,
                        };
                        if let Ok(v) = ram.read(addr, width) {
                            let n = width.bytes() as usize;
                            let mut bytes = [0u8; 4];
                            bytes[..n].copy_from_slice(&model[addr as usize..addr as usize + n]);
                            assert_eq!(v, u32::from_le_bytes(bytes));
                        }
                    }
                    2 => {
                        let bit = next() % (size as u64 * 8);
                        ram.flip_bit(bit);
                        model[(bit / 8) as usize] ^= 1 << (bit % 8);
                        assert_eq!(
                            ram.bit(bit),
                            model[(bit / 8) as usize] & (1 << (bit % 8)) != 0
                        );
                    }
                    _ => {
                        if step == 500 {
                            // Fork mid-sweep; the fork must stay frozen.
                            fork = Some((ram.clone(), model.clone()));
                        }
                    }
                }
            }
            assert_eq!(ram.to_vec(), model, "size {size} diverged");
            if let Some((fram, fmodel)) = fork {
                assert_eq!(fram.to_vec(), fmodel, "size {size} fork was disturbed");
            }
        }
    }
}
