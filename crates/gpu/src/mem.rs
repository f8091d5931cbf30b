//! Device (and host) memory pools.
//!
//! A [`MemPool`] is a flat address space with a bump allocator. Pools back
//! GPU device memory; pointers are plain `(addr, len)` pairs valid within
//! one pool.
//!
//! Pools run in one of two [`DataMode`]s:
//!
//! * `Full` — the pool holds real bytes and every copy moves them, so tests
//!   can verify end-to-end pack/unpack correctness. While a cluster runs,
//!   its copy engine owns each rank's GPU pool (moved out of the `Gpu` at
//!   the start of the run and back at the end) and makes every copy; the
//!   event loop only submits the copies. The byte vector starts
//!   empty and allocations extend it to cover the allocation high-water
//!   mark, so a pool costs memory for what it hands out, not for its
//!   declared capacity. A cluster build reserves each GPU pool once, for
//!   the span of its program's buffers ([`MemPool::reserve_for`]), so the
//!   buffers never reallocate it, and writes each buffer once:
//!   [`MemPool::alloc`] zero-fills (padding and zero-initialized buffers)
//!   and [`MemPool::alloc_with`] hands the new bytes to a fill (a random
//!   buffer's generator) with no zero-fill first. Without a reservation
//!   the vector grows geometrically, capped at the capacity. Copies never
//!   grow the vector: touching bytes no allocation ever covered panics;
//! * `ModelOnly` — no backing storage; a copy returns its byte count in
//!   O(1) and touches nothing. Benchmark sweeps use this to avoid
//!   allocating gigabytes per iteration (timing is independent of the
//!   data). A cluster's staging pools are always `ModelOnly`: they are
//!   address allocators only (the addresses a CTS advertises, and the
//!   capacity check), while packed bytes travel in owned, recycled
//!   buffers (see [`crate::PoolStats`]).
//!
//! Copies are driven by a datatype's [`CompiledLayout`]: one gather into
//! and one scatter from a buffer outside the pool (a payload), executing
//! the layout's copy plan through the host
//! [`pack::pack_into`]/[`pack::unpack`] kernels, and one layout-to-layout
//! copy through [`pack::copy`], from one pool into another
//! ([`MemPool::copy_to`], the DirectIPC load) or within one
//! ([`MemPool::copy_within`], where a contiguous buffer is the packed
//! side of an explicit pack or unpack). A layout-to-layout copy makes no
//! packed image when a side is contiguous or both are indexed runs of one
//! width (any other pair packs through a scratch buffer the caller keeps).

use fusedpack_datatype::{pack, CompiledLayout};

/// Bytes [`MemPool::alloc_with`] hands its fill at a time: a multiple of
/// 4 (whole generator draws) small enough to stay in L1.
const FILL_PIECE: usize = 4096;

/// Whether a pool carries real bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataMode {
    /// Real backing storage; copies move bytes.
    Full,
    /// Timing-only; no storage, copies only count bytes.
    ModelOnly,
}

/// A pointer into a [`MemPool`]: offset and length in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevPtr {
    pub addr: u64,
    pub len: u64,
}

impl DevPtr {
    /// A sub-range of this allocation.
    pub fn slice(self, offset: u64, len: u64) -> DevPtr {
        assert!(
            offset + len <= self.len,
            "slice {offset}+{len} out of bounds of {self:?}"
        );
        DevPtr {
            addr: self.addr + offset,
            len,
        }
    }

    /// End address (one past the last byte).
    #[inline]
    pub fn end(self) -> u64 {
        self.addr + self.len
    }
}

/// `count` elements of a layout based at `base`: one side of a
/// [`MemPool::copy_to`].
#[derive(Debug, Clone, Copy)]
pub struct Elements<'a> {
    pub layout: &'a CompiledLayout,
    pub base: u64,
    pub count: u64,
}

impl<'a> Elements<'a> {
    pub fn new(layout: &'a CompiledLayout, base: u64, count: u64) -> Self {
        Elements {
            layout,
            base,
            count,
        }
    }
}

/// A flat memory pool with a bump allocator.
#[derive(Debug, Clone)]
pub struct MemPool {
    mode: DataMode,
    capacity: u64,
    cursor: u64,
    /// Backing bytes of a `Full` pool: the first [`Self::peak`] bytes of
    /// the address space, zero until written. Empty in `ModelOnly` mode.
    bytes: Vec<u8>,
    /// High-water mark of allocations, for sizing diagnostics.
    peak: u64,
}

impl MemPool {
    /// Create a pool of `capacity` bytes. No backing memory is reserved
    /// until the first allocation.
    pub fn new(capacity: u64, mode: DataMode) -> Self {
        MemPool {
            mode,
            capacity,
            cursor: 0,
            bytes: Vec::new(),
            peak: 0,
        }
    }

    #[inline]
    pub fn mode(&self) -> DataMode {
        self.mode
    }

    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    #[inline]
    pub fn allocated(&self) -> u64 {
        self.cursor
    }

    /// High-water mark of allocations.
    #[inline]
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Bytes of host memory the backing holds room for (0 in `ModelOnly`
    /// mode): what [`Self::reserve_for`] reserved, until an allocation
    /// past it grows the backing.
    #[inline]
    pub fn backing_capacity(&self) -> u64 {
        self.bytes.capacity() as u64
    }

    /// Reserve backing, in one allocation, for allocations of `lens` bytes
    /// at `align` made in order from the current cursor (capped at the
    /// capacity), so making them never reallocates the pool. Nothing is
    /// written. A no-op in `ModelOnly` mode.
    pub fn reserve_for(&mut self, lens: impl IntoIterator<Item = u64>, align: u64) {
        if self.mode == DataMode::ModelOnly {
            return;
        }
        let end = lens
            .into_iter()
            .fold(self.cursor, |at, len| align_up(at, align) + len)
            .min(self.capacity) as usize;
        self.bytes
            .reserve_exact(end.saturating_sub(self.bytes.len()));
    }

    /// Allocate `len` bytes with `align` alignment (power of two). In
    /// `Full` mode, bytes no earlier allocation covered read as zero;
    /// bytes reused after [`Self::reset`] keep their contents.
    ///
    /// Panics if the pool is exhausted: pool sizing is a configuration
    /// decision made by the workload driver, so exhaustion is a bug there.
    pub fn alloc(&mut self, len: u64, align: u64) -> DevPtr {
        let ptr = self.bump(len, align);
        if self.mode == DataMode::Full {
            self.back(ptr.end() as usize);
        }
        ptr
    }

    /// Allocate like [`Self::alloc`], but let `fill` write every byte of
    /// the allocation, each written once: new bytes are not zero-filled
    /// first (only the alignment padding before them is). `fill` sees the
    /// allocation in address order, as consecutive 4 KiB pieces (the last
    /// one shorter), so a fill that splits cleanly at multiples of 4 bytes,
    /// such as [`fusedpack_sim::Pcg32::fill_bytes`], writes what one fill
    /// of the whole would. `fill` does not run in `ModelOnly` mode.
    ///
    /// Panics if the pool is exhausted, like [`Self::alloc`].
    pub fn alloc_with(&mut self, len: u64, align: u64, mut fill: impl FnMut(&mut [u8])) -> DevPtr {
        let ptr = self.bump(len, align);
        if self.mode == DataMode::ModelOnly {
            return ptr;
        }
        let (start, end) = (ptr.addr as usize, ptr.end() as usize);
        self.make_room(end);
        self.back(start);
        // Each piece is written into a stack buffer, then into the pool:
        // over bytes a reset left backed, or appended past the end.
        let mut buf = [0u8; FILL_PIECE];
        for at in (start..end).step_by(FILL_PIECE) {
            let piece = &mut buf[..FILL_PIECE.min(end - at)];
            fill(piece);
            let backed = self.bytes.len().min(at + piece.len()) - at;
            self.bytes[at..at + backed].copy_from_slice(&piece[..backed]);
            self.bytes.extend_from_slice(&piece[backed..]);
        }
        ptr
    }

    /// Claim the next `len` bytes at `align`; moves the cursor and the
    /// high-water mark, backs nothing.
    fn bump(&mut self, len: u64, align: u64) -> DevPtr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = align_up(self.cursor, align);
        assert!(
            addr + len <= self.capacity,
            "pool exhausted: need {len}B at {addr}, capacity {}B",
            self.capacity
        );
        self.cursor = addr + len;
        self.peak = self.peak.max(self.cursor);
        DevPtr { addr, len }
    }

    /// Extend the backing bytes to `end`, zero-filled. Only the bytes up
    /// to `end` are written (so untouched capacity costs no resident
    /// memory).
    fn back(&mut self, end: usize) {
        if end > self.bytes.len() {
            self.make_room(end);
            self.bytes.resize(end, 0);
        }
    }

    /// Make the backing allocation hold `end` bytes. Growth past a
    /// reservation is at least geometric (so a run of small allocations
    /// reallocates O(log n) times) but never past the capacity.
    fn make_room(&mut self, end: usize) {
        if end > self.bytes.capacity() {
            let target = end
                .max(2 * self.bytes.capacity())
                .min(self.capacity as usize);
            self.bytes.reserve_exact(target - self.bytes.len());
        }
    }

    /// The backing range of `ptr`, which must lie inside memory some
    /// allocation has covered.
    fn backed(&self, ptr: DevPtr) -> std::ops::Range<usize> {
        assert!(
            ptr.end() <= self.peak,
            "access to {ptr:?} beyond the pool's allocated bytes (high-water mark {}B)",
            self.peak
        );
        ptr.addr as usize..ptr.end() as usize
    }

    /// Release everything allocated so far (bulk free between iterations).
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    /// Read the bytes behind `ptr`. Empty in `ModelOnly` mode.
    ///
    /// Panics in `Full` mode if any byte of `ptr` was never allocated.
    pub fn read(&self, ptr: DevPtr) -> &[u8] {
        match self.mode {
            DataMode::Full => &self.bytes[self.backed(ptr)],
            DataMode::ModelOnly => &[],
        }
    }

    /// Overwrite the bytes behind `ptr`.
    ///
    /// Panics in `Full` mode if any byte of `ptr` was never allocated.
    pub fn write(&mut self, ptr: DevPtr, data: &[u8]) {
        assert!(
            self.mode == DataMode::ModelOnly || data.len() as u64 == ptr.len,
            "write length mismatch: {} vs {:?}",
            data.len(),
            ptr
        );
        self.write_with(ptr, |bytes| bytes.copy_from_slice(data));
    }

    /// Let `fill` write the bytes behind `ptr` in place, with no staging
    /// copy. `fill` does not run in `ModelOnly` mode.
    ///
    /// Panics in `Full` mode if any byte of `ptr` was never allocated.
    pub fn write_with(&mut self, ptr: DevPtr, fill: impl FnOnce(&mut [u8])) {
        if self.mode == DataMode::ModelOnly {
            return;
        }
        let range = self.backed(ptr);
        fill(&mut self.bytes[range]);
    }

    /// Gather `count` elements of `layout` based at `base` into a buffer
    /// outside this pool (a pooled payload buffer) — the data movement a
    /// packing kernel performs. Fills the first `layout.total_bytes(count)`
    /// bytes of `out`; returns that count.
    pub fn gather_into(
        &self,
        layout: &CompiledLayout,
        base: u64,
        count: u64,
        out: &mut [u8],
    ) -> u64 {
        let total = layout.total_bytes(count);
        if self.mode == DataMode::ModelOnly {
            return total;
        }
        pack::pack_into(
            &self.bytes[base as usize..],
            layout,
            count,
            &mut out[..total as usize],
        );
        total
    }

    /// Copy the elements `from` of this pool to the elements `to` of
    /// `dst` through [`pack::copy`] — the data movement of a DirectIPC
    /// kernel, which loads a peer GPU's buffer and stores it in the
    /// receiver's layout in one pass. The two layouts may differ; their
    /// packed sizes must not. Bytes in `to`'s gaps are untouched. A pair
    /// of layouts with no table zip packs through `scratch`, which the
    /// caller keeps from copy to copy. Returns the packed byte count.
    pub fn copy_to(
        &self,
        from: Elements<'_>,
        dst: &mut MemPool,
        to: Elements<'_>,
        scratch: &mut Vec<u8>,
    ) -> u64 {
        let total = from.layout.total_bytes(from.count);
        if self.mode == DataMode::ModelOnly || dst.mode == DataMode::ModelOnly {
            return total;
        }
        pack::copy(
            &self.bytes[from.base as usize..],
            from.layout,
            from.count,
            &mut dst.bytes[to.base as usize..],
            to.layout,
            to.count,
            scratch,
        );
        total
    }

    /// [`Self::copy_to`] within this pool: an explicit pack (`to` a
    /// contiguous layout) or unpack (`from` one) between two buffers of
    /// one device. Returns the packed byte count.
    ///
    /// Panics if the two sides overlap.
    pub fn copy_within(
        &mut self,
        from: Elements<'_>,
        to: Elements<'_>,
        scratch: &mut Vec<u8>,
    ) -> u64 {
        let total = from.layout.total_bytes(from.count);
        if self.mode == DataMode::ModelOnly {
            return total;
        }
        let (src, dst) = split(&mut self.bytes, from.base, to.base);
        pack::copy(
            src,
            from.layout,
            from.count,
            dst,
            to.layout,
            to.count,
            scratch,
        );
        total
    }

    /// Scatter the first `layout.total_bytes(count)` bytes of `data`, a
    /// buffer outside this pool, out to `count` elements of `layout` based
    /// at `base` — the data movement an unpacking kernel performs. Bytes
    /// in the layout's gaps are untouched. Returns the packed byte count.
    pub fn scatter_from(
        &mut self,
        data: &[u8],
        layout: &CompiledLayout,
        base: u64,
        count: u64,
    ) -> u64 {
        let total = layout.total_bytes(count);
        if self.mode == DataMode::ModelOnly {
            return total;
        }
        pack::unpack(
            &data[..total as usize],
            layout,
            count,
            &mut self.bytes[base as usize..],
        );
        total
    }
}

/// `at` rounded up to a multiple of `align` (a power of two).
fn align_up(at: u64, align: u64) -> u64 {
    (at + align - 1) & !(align - 1)
}

/// Borrow one pool's bytes twice: shared from `read`, exclusive from
/// `write`, each view ending where the other begins (or at the end of the
/// pool). A copy whose source and destination overlap runs off the end of
/// its view and panics instead of reading bytes it is overwriting.
fn split(bytes: &mut [u8], read: u64, write: u64) -> (&[u8], &mut [u8]) {
    let (read, write) = (read as usize, write as usize);
    if read < write {
        let (lo, hi) = bytes.split_at_mut(write);
        (&lo[read..], hi)
    } else {
        let (lo, hi) = bytes.split_at_mut(read);
        (hi, &mut lo[write..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedpack_datatype::Segment;
    use fusedpack_sim::Pcg32;

    #[test]
    fn alloc_respects_alignment_and_bounds() {
        let mut p = MemPool::new(1024, DataMode::Full);
        let a = p.alloc(10, 1);
        assert_eq!(a.addr, 0);
        let b = p.alloc(16, 64);
        assert_eq!(b.addr, 64);
        assert_eq!(p.allocated(), 80);
        assert_eq!(p.peak(), 80);
    }

    #[test]
    #[should_panic(expected = "pool exhausted")]
    fn exhaustion_panics() {
        let mut p = MemPool::new(16, DataMode::Full);
        p.alloc(32, 1);
    }

    #[test]
    fn full_pool_backs_only_its_high_water_mark() {
        let mut p = MemPool::new(1 << 20, DataMode::Full);
        assert_eq!(p.bytes.len(), 0, "nothing reserved before the first alloc");
        let a = p.alloc(100, 1);
        assert_eq!(p.bytes.len(), 100);
        p.write(a, &[7; 100]);
        let b = p.alloc(10, 64);
        assert_eq!(b.addr, 128);
        assert_eq!(p.bytes.len(), 138);
        assert_eq!(p.read(a), &[7; 100][..], "growth keeps written bytes");
        assert_eq!(p.read(b), &[0; 10][..], "new bytes read as zero");
        // Reallocation is geometric, and never reserves past the capacity.
        assert!(p.bytes.capacity() >= 200);
        let big = p.alloc((1 << 20) - 256, 256);
        assert_eq!(big.end(), 1 << 20);
        assert_eq!(p.bytes.len(), 1 << 20);
        assert_eq!(p.bytes.capacity(), 1 << 20);
    }

    #[test]
    fn a_pool_reserved_for_its_buffers_writes_each_once_without_reallocating() {
        // Random buffers (even index) around zero ones, lengths that leave
        // alignment padding and cross fill pieces.
        let lens = [100u64, 5000, 1, 8192, 4099, 37];
        let stream = |i: usize| Pcg32::new(40 + i as u64, i as u64);
        let mut p = MemPool::new(1 << 20, DataMode::Full);
        p.reserve_for(lens, 64);
        let (base, reserved) = (p.bytes.as_ptr(), p.bytes.capacity());
        let ptrs: Vec<DevPtr> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| match i % 2 {
                0 => {
                    let mut rng = stream(i);
                    p.alloc_with(len, 64, |piece| rng.fill_bytes(piece))
                }
                _ => p.alloc(len, 64),
            })
            .collect();
        assert_eq!(p.bytes.as_ptr(), base, "the pool reallocated");
        assert_eq!(p.bytes.capacity(), reserved);
        assert_eq!(p.bytes.len() as u64, p.peak());
        assert!(reserved as u64 >= p.peak());
        let mut covered = vec![false; p.bytes.len()];
        for (i, ptr) in ptrs.iter().enumerate() {
            let mut want = vec![0u8; ptr.len as usize];
            if i % 2 == 0 {
                stream(i).fill_bytes(&mut want);
            }
            assert_eq!(p.read(*ptr), &want[..], "buffer {i}");
            covered[ptr.addr as usize..ptr.end() as usize].fill(true);
        }
        let mut padding = p.bytes.iter().zip(&covered).filter(|(_, &c)| !c);
        assert!(padding.clone().count() > 0);
        assert!(padding.all(|(&b, _)| b == 0), "padding is zero");
    }

    #[test]
    fn alloc_with_overwrites_bytes_a_reset_left_backed() {
        let mut p = MemPool::new(1 << 16, DataMode::Full);
        let a = p.alloc(5000, 1);
        p.write(a, &[1; 5000]);
        p.reset();
        // Straddles the backed end: pieces land in place, then append.
        let b = p.alloc_with(9000, 64, |piece| piece.fill(7));
        assert_eq!(p.read(b), &[7; 9000][..]);
        assert_eq!(p.bytes.len(), 9000);
        let mut model = MemPool::new(1 << 16, DataMode::ModelOnly);
        let m = model.alloc_with(9000, 64, |_| panic!("ModelOnly pools are not filled"));
        assert_eq!(m, b);
    }

    #[test]
    fn reset_reuses_backing_without_growth() {
        let mut p = MemPool::new(256, DataMode::Full);
        let a = p.alloc(64, 1);
        p.write(a, &[1; 64]);
        p.reset();
        let b = p.alloc(32, 1);
        assert_eq!(
            p.bytes.len(),
            64,
            "backing follows the peak, not the cursor"
        );
        assert_eq!(p.read(b), &[1; 32][..], "reset does not clear bytes");
    }

    #[test]
    fn allocation_may_end_exactly_at_capacity() {
        let mut p = MemPool::new(64, DataMode::Full);
        p.alloc(60, 1);
        let last = p.alloc(4, 1);
        assert_eq!(last.end(), 64);
        p.write(last, &[9; 4]);
    }

    #[test]
    #[should_panic(expected = "pool exhausted: need 5B at 60, capacity 64B")]
    fn one_byte_past_capacity_panics() {
        let mut p = MemPool::new(64, DataMode::Full);
        p.alloc(60, 1);
        p.alloc(5, 1);
    }

    #[test]
    #[should_panic(expected = "beyond the pool's allocated bytes")]
    fn reading_unallocated_bytes_panics() {
        let mut p = MemPool::new(64, DataMode::Full);
        let a = p.alloc(16, 1);
        p.read(DevPtr {
            addr: a.addr,
            len: 17,
        });
    }

    #[test]
    #[should_panic(expected = "beyond the pool's allocated bytes")]
    fn writing_unallocated_bytes_panics() {
        let mut p = MemPool::new(64, DataMode::Full);
        p.alloc(8, 1);
        p.write(DevPtr { addr: 32, len: 4 }, &[0; 4]);
    }

    #[test]
    fn reset_frees_but_keeps_peak() {
        let mut p = MemPool::new(128, DataMode::Full);
        p.alloc(100, 1);
        p.reset();
        assert_eq!(p.allocated(), 0);
        assert_eq!(p.peak(), 100);
        let a = p.alloc(50, 1);
        assert_eq!(a.addr, 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut p = MemPool::new(64, DataMode::Full);
        let ptr = p.alloc(4, 1);
        p.write(ptr, &[1, 2, 3, 4]);
        assert_eq!(p.read(ptr), &[1, 2, 3, 4]);
    }

    /// Segments `(offset, len)` of one element of extent `extent`.
    fn layout(segments: &[(u64, u64)], extent: u64) -> CompiledLayout {
        let segments = segments
            .iter()
            .map(|&(offset, len)| Segment { offset, len })
            .collect();
        CompiledLayout::from_segments(segments, extent)
    }

    /// One element of `len` contiguous bytes: the packed side of an
    /// explicit pack or unpack.
    fn packed(len: u64) -> CompiledLayout {
        layout(&[(0, len)], len)
    }

    #[test]
    fn copy_within_packs_segments_in_order() {
        let mut p = MemPool::new(64, DataMode::Full);
        let src = p.alloc(16, 1);
        let dst = p.alloc(8, 1);
        p.write(src, &(0..16).collect::<Vec<u8>>());
        // Gather bytes at offsets 2..4, 8..10, 12..16.
        let l = layout(&[(2, 2), (8, 2), (12, 4)], 16);
        let (from, to) = (Elements::new(&l, src.addr, 1), packed(8));
        let to = Elements::new(&to, dst.addr, 1);
        assert_eq!(p.copy_within(from, to, &mut Vec::new()), 8);
        assert_eq!(p.read(dst), &[2, 3, 8, 9, 12, 13, 14, 15]);
    }

    #[test]
    fn copy_within_unpacks_what_it_packed() {
        let mut p = MemPool::new(128, DataMode::Full);
        let image = p.alloc(8, 1);
        let orig = p.alloc(16, 1);
        let out = p.alloc(16, 1);
        p.write(orig, &(100..116).collect::<Vec<u8>>());
        let (l, flat) = (layout(&[(1, 3), (10, 5)], 16), packed(8));
        let packed = Elements::new(&flat, image.addr, 1);
        p.copy_within(Elements::new(&l, orig.addr, 1), packed, &mut Vec::new());
        let n = p.copy_within(packed, Elements::new(&l, out.addr, 1), &mut Vec::new());
        assert_eq!(n, 8);
        let o = p.read(out);
        assert_eq!(&o[1..4], &[101, 102, 103]);
        assert_eq!(&o[10..15], &[110, 111, 112, 113, 114]);
        assert_eq!(o[0], 0, "gap bytes untouched");
    }

    #[test]
    #[should_panic]
    fn an_overlapping_copy_within_panics() {
        let mut p = MemPool::new(64, DataMode::Full);
        let src = p.alloc(16, 1);
        // The packed image would land on the element's second run.
        let (l, flat) = (layout(&[(0, 4), (8, 4)], 16), packed(8));
        let from = Elements::new(&l, src.addr, 1);
        p.copy_within(from, Elements::new(&flat, src.addr + 6, 1), &mut Vec::new());
    }

    #[test]
    fn model_only_pool_is_storage_free() {
        let mut p = MemPool::new(1 << 40, DataMode::ModelOnly); // 1 TiB, no alloc
        let ptr = p.alloc(1 << 30, 256);
        assert!(p.read(ptr).is_empty());
        p.write(ptr, &[]); // no-op, no panic
        let l = layout(&[(0, 100), (200, 50)], 256);
        let (flat, elems) = (packed(600), Elements::new(&l, 0, 4));
        let image = Elements::new(&flat, 1 << 20, 1);
        assert_eq!(p.copy_within(elems, image, &mut Vec::new()), 600);
        assert_eq!(p.copy_within(image, elems, &mut Vec::new()), 600);
        assert_eq!(p.gather_into(&l, 0, 4, &mut []), 600);
        assert_eq!(p.scatter_from(&[], &l, 0, 4), 600);
        let mut q = MemPool::new(1 << 40, DataMode::ModelOnly);
        assert_eq!(p.copy_to(elems, &mut q, elems, &mut Vec::new()), 600);
        assert!(p.bytes.is_empty(), "a ModelOnly pool never backs a byte");
        assert_eq!(p.bytes.capacity(), 0, "nor reserves one");
    }

    #[test]
    fn gather_and_scatter_between_pools() {
        let mut dev = MemPool::new(64, DataMode::Full);
        let mut host = MemPool::new(64, DataMode::Full);
        let src = dev.alloc(16, 1);
        let staged = host.alloc(5, 1);
        dev.write(src, &(0..16).collect::<Vec<u8>>());
        let l = layout(&[(1, 2), (8, 3)], 16);
        let mut packed = [0u8; 5];
        let n = dev.gather_into(&l, src.addr, 1, &mut packed);
        assert_eq!(n, 5);
        assert_eq!(packed, [1, 2, 8, 9, 10]);
        host.write(staged, &packed);

        let mut dev2 = MemPool::new(64, DataMode::Full);
        let dst = dev2.alloc(16, 1);
        dev2.scatter_from(host.read(staged), &l, dst.addr + 2, 1);
        let v = dev2.read(dst);
        assert_eq!(&v[3..5], &[1, 2]);
        assert_eq!(&v[10..13], &[8, 9, 10]);
    }

    #[test]
    fn copy_to_moves_runs_between_layouts_and_keeps_gaps() {
        let mut peer = MemPool::new(64, DataMode::Full);
        let src = peer.alloc(16, 1);
        peer.write(src, &(0..16).collect::<Vec<u8>>());
        let mut local = MemPool::new(64, DataMode::Full);
        let dst = local.alloc(24, 1);
        local.write(dst, &[0xEE; 24]);
        // 2 + 3 bytes out of the peer's element, into 1 + 4 of the local one.
        let (from, to) = (layout(&[(1, 2), (8, 3)], 16), layout(&[(0, 1), (6, 4)], 12));
        let n = peer.copy_to(
            Elements::new(&from, src.addr, 1),
            &mut local,
            Elements::new(&to, dst.addr + 2, 1),
            &mut Vec::new(),
        );
        assert_eq!(n, 5);
        let v = local.read(dst);
        assert_eq!(v[2], 1);
        assert_eq!(&v[8..12], &[2, 8, 9, 10]);
        assert!(v[..2]
            .iter()
            .chain(&v[3..8])
            .chain(&v[12..])
            .all(|&b| b == 0xEE));
    }

    #[test]
    fn devptr_slice() {
        let p = DevPtr { addr: 100, len: 50 };
        let s = p.slice(10, 20);
        assert_eq!(s, DevPtr { addr: 110, len: 20 });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn devptr_slice_bounds_checked() {
        DevPtr { addr: 0, len: 10 }.slice(5, 10);
    }
}
