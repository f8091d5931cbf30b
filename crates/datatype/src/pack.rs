//! Pack/unpack: the workspace's one set of copy kernels.
//!
//! Host packing calls these directly, and the simulated GPU memory pools
//! (`gpu::MemPool` gather/scatter/copy) execute every copy plan through
//! them, so a copy tier exists once. Tests check the wire protocols'
//! delivered bytes against them.
//!
//! One kernel pair per [`CopyPlan`]: a `memcpy`, the chunked fixed-stride
//! block loop, the indexed fixed-width loop over the layout's `u32`
//! offset table, and the generic segment walk
//! ([`pack_into_generic`]/[`unpack_generic`]), which stays public as the
//! reference the faster tiers are tested and benchmarked against.
//!
//! [`copy`] moves elements of one layout straight into elements of
//! another, with no packed image between them — the single pass of a
//! DirectIPC kernel, which loads the peer's buffer and stores it in the
//! receiver's layout. It zips the two sides' offset tables when both are
//! indexed runs of one width, and otherwise packs one side and unpacks
//! into the other, each through its own plan's tier; [`copy_zip`], which
//! zips the two run lists, stays public as the reference. All of them
//! are safe code; every run is a bounds-checked slice copy.

use crate::compile::CompiledLayout;
use crate::compile::CopyPlan;
use crate::layout::UniformPlan;

/// Pack `count` elements laid out per `layout` starting at `src\[0\]` into a
/// contiguous buffer. Returns the packed bytes.
pub fn pack(src: &[u8], layout: &CompiledLayout, count: u64) -> Vec<u8> {
    let mut dst = vec![0u8; layout.total_bytes(count) as usize];
    pack_into(src, layout, count, &mut dst);
    dst
}

/// Pack into a caller-provided buffer of exactly `layout.total_bytes(count)`
/// bytes.
///
/// Dispatches on the layout's precomputed [`CopyPlan`] — four tiers,
/// decided once at compile time: fully contiguous layouts (single gapless
/// segment, gapless tiling) take a single-`memcpy` fast path; block-uniform
/// layouts (equal large runs a constant stride apart) take a fixed-stride
/// loop of chunked inner copies; indexed-run layouts (equal small runs at
/// any offsets) take fixed-width moves over a compact offset table;
/// everything else runs the generic segment loop driven by the layout's
/// prefix sums.
pub fn pack_into(src: &[u8], layout: &CompiledLayout, count: u64, dst: &mut [u8]) {
    assert_eq!(
        dst.len() as u64,
        layout.total_bytes(count),
        "destination size mismatch"
    );
    match layout.plan_for(count) {
        CopyPlan::Memcpy { .. } => {
            let n = dst.len();
            dst.copy_from_slice(&src[..n]);
        }
        CopyPlan::BlockUniform(plan) => pack_into_block_uniform(src, &plan, dst),
        CopyPlan::IndexedRuns { width } => pack_into_indexed(src, layout, width, dst),
        CopyPlan::Generic => pack_into_generic(src, layout, count, dst),
    }
}

/// The block-uniform tier: `plan.runs` copies of a *large* fixed run
/// length (> [`crate::compile::FIXED_RUN_WIDTH_MAX`] bytes) at constant
/// source stride. Each run is moved in fixed 64-byte chunks — a
/// SIMD-friendly shape the compiler turns into full-width vector moves —
/// with one variable tail copy, avoiding both the per-run `memcpy` call
/// of the fallback loop and the per-segment table walk of the generic
/// tier.
pub fn pack_into_block_uniform(src: &[u8], plan: &UniformPlan, dst: &mut [u8]) {
    debug_assert_eq!(dst.len() as u64, plan.runs * plan.len);
    let len = plan.len as usize;
    let stride = plan.stride as usize;
    let mut lo = plan.first as usize;
    for chunk in dst.chunks_exact_mut(len) {
        copy_run_chunked(&src[lo..lo + len], chunk);
        lo += stride;
    }
}

/// Scatter counterpart of [`pack_into_block_uniform`].
pub fn unpack_block_uniform(src: &[u8], plan: &UniformPlan, dst: &mut [u8]) {
    debug_assert_eq!(src.len() as u64, plan.runs * plan.len);
    let len = plan.len as usize;
    let stride = plan.stride as usize;
    let mut lo = plan.first as usize;
    for chunk in src.chunks_exact(len) {
        copy_run_chunked(chunk, &mut dst[lo..lo + len]);
        lo += stride;
    }
}

/// Copy one run as fixed 64-byte blocks plus a variable tail.
#[inline]
fn copy_run_chunked(src: &[u8], dst: &mut [u8]) {
    const CHUNK: usize = 64;
    debug_assert_eq!(src.len(), dst.len());
    let mut i = 0;
    while i + CHUNK <= src.len() {
        let block: &[u8; CHUNK] = src[i..i + CHUNK].try_into().expect("chunk width");
        dst[i..i + CHUNK].copy_from_slice(block);
        i += CHUNK;
    }
    if i < src.len() {
        dst[i..].copy_from_slice(&src[i..]);
    }
}

/// The indexed-runs tier: every run is `width` bytes at an offset from
/// the layout's [`CompiledLayout::run_offsets`] table, and elements tile
/// by extent (`dst` holds as many elements as it has room for). Widths
/// 2/4/8/16/32 get their own inlined copy of the loop, so each run is one
/// fixed-size move; other widths take a variable-length copy over the
/// same table.
fn pack_into_indexed(src: &[u8], layout: &CompiledLayout, width: u64, dst: &mut [u8]) {
    let offs = layout.run_offsets();
    let extent = layout.extent() as usize;
    match width {
        2 => gather_indexed(src, offs, extent, 2, dst),
        4 => gather_indexed(src, offs, extent, 4, dst),
        8 => gather_indexed(src, offs, extent, 8, dst),
        16 => gather_indexed(src, offs, extent, 16, dst),
        32 => gather_indexed(src, offs, extent, 32, dst),
        w => gather_indexed(src, offs, extent, w as usize, dst),
    }
}

/// Runs per step of the indexed loops: a fixed inner trip count the
/// compiler unrolls, keeping several independent table loads and moves in
/// flight (~1.4x over one run per iteration on a 2-vCPU Xeon VM).
const RUNS_PER_STEP: usize = 4;

/// Inlined into each width arm of [`pack_into_indexed`], where `w` is a
/// constant and every `copy_from_slice` becomes a fixed-size move.
#[inline(always)]
fn gather_indexed(src: &[u8], offs: &[u32], extent: usize, w: usize, dst: &mut [u8]) {
    for (i, out) in dst.chunks_exact_mut(offs.len() * w).enumerate() {
        let elem = &src[i * extent..];
        let mut steps = out.chunks_exact_mut(RUNS_PER_STEP * w);
        let mut step_offs = offs.chunks_exact(RUNS_PER_STEP);
        for (step, offs) in (&mut steps).zip(&mut step_offs) {
            for (run, &off) in step.chunks_exact_mut(w).zip(offs) {
                run.copy_from_slice(&elem[off as usize..off as usize + w]);
            }
        }
        let tail = steps.into_remainder().chunks_exact_mut(w);
        for (run, &off) in tail.zip(step_offs.remainder()) {
            run.copy_from_slice(&elem[off as usize..off as usize + w]);
        }
    }
}

/// Scatter counterpart of [`pack_into_indexed`]: `src` is the packed
/// image, `dst` the extent-tiled elements. Gap bytes are untouched.
fn unpack_indexed(src: &[u8], layout: &CompiledLayout, width: u64, dst: &mut [u8]) {
    let offs = layout.run_offsets();
    let extent = layout.extent() as usize;
    match width {
        2 => scatter_indexed(src, offs, extent, 2, dst),
        4 => scatter_indexed(src, offs, extent, 4, dst),
        8 => scatter_indexed(src, offs, extent, 8, dst),
        16 => scatter_indexed(src, offs, extent, 16, dst),
        32 => scatter_indexed(src, offs, extent, 32, dst),
        w => scatter_indexed(src, offs, extent, w as usize, dst),
    }
}

/// Scatter counterpart of [`gather_indexed`].
#[inline(always)]
fn scatter_indexed(src: &[u8], offs: &[u32], extent: usize, w: usize, dst: &mut [u8]) {
    for (i, packed) in src.chunks_exact(offs.len() * w).enumerate() {
        let elem = &mut dst[i * extent..];
        let mut steps = packed.chunks_exact(RUNS_PER_STEP * w);
        let mut step_offs = offs.chunks_exact(RUNS_PER_STEP);
        for (step, offs) in (&mut steps).zip(&mut step_offs) {
            for (run, &off) in step.chunks_exact(w).zip(offs) {
                elem[off as usize..off as usize + w].copy_from_slice(run);
            }
        }
        let tail = steps.remainder().chunks_exact(w);
        for (run, &off) in tail.zip(step_offs.remainder()) {
            elem[off as usize..off as usize + w].copy_from_slice(run);
        }
    }
}

/// The generic segment loop behind [`pack_into`], without the contiguous
/// fast path. Public so tests and benches can compare the two directly.
pub fn pack_into_generic(src: &[u8], layout: &CompiledLayout, count: u64, dst: &mut [u8]) {
    assert_eq!(
        dst.len() as u64,
        layout.total_bytes(count),
        "destination size mismatch"
    );
    let segs = layout.segments();
    let offs = layout.packed_offsets();
    for i in 0..count {
        let base = (i * layout.extent()) as usize;
        let out = (i * layout.size()) as usize;
        for (seg, &packed) in segs.iter().zip(offs) {
            let lo = base + seg.offset as usize;
            let hi = lo + seg.len as usize;
            let po = out + packed as usize;
            dst[po..po + seg.len as usize].copy_from_slice(&src[lo..hi]);
        }
    }
}

/// Unpack a contiguous buffer into `count` elements laid out per `layout`
/// starting at `dst\[0\]`. Bytes outside the layout's segments are untouched.
///
/// Like [`pack_into`], fully contiguous layouts reduce to one `memcpy`.
pub fn unpack(src: &[u8], layout: &CompiledLayout, count: u64, dst: &mut [u8]) {
    assert_eq!(
        src.len() as u64,
        layout.total_bytes(count),
        "source size mismatch"
    );
    match layout.plan_for(count) {
        CopyPlan::Memcpy { .. } => {
            let n = src.len();
            dst[..n].copy_from_slice(src);
        }
        CopyPlan::BlockUniform(plan) => unpack_block_uniform(src, &plan, dst),
        CopyPlan::IndexedRuns { width } => unpack_indexed(src, layout, width, dst),
        CopyPlan::Generic => unpack_generic(src, layout, count, dst),
    }
}

/// The generic segment loop behind [`unpack`], without the contiguous fast
/// path. Public so tests and benches can compare the two directly.
pub fn unpack_generic(src: &[u8], layout: &CompiledLayout, count: u64, dst: &mut [u8]) {
    assert_eq!(
        src.len() as u64,
        layout.total_bytes(count),
        "source size mismatch"
    );
    let segs = layout.segments();
    let offs = layout.packed_offsets();
    for i in 0..count {
        let base = (i * layout.extent()) as usize;
        let inp = (i * layout.size()) as usize;
        for (seg, &packed) in segs.iter().zip(offs) {
            let lo = base + seg.offset as usize;
            let hi = lo + seg.len as usize;
            let po = inp + packed as usize;
            dst[lo..hi].copy_from_slice(&src[po..po + seg.len as usize]);
        }
    }
}

/// Copy `src_count` elements of `src_layout` starting at `src\[0\]` to
/// `dst_count` elements of `dst_layout` starting at `dst\[0\]`: `dst`
/// ends up as [`pack`] of `src` followed by [`unpack`] into `dst` would
/// leave it. Bytes in the destination layout's gaps are untouched.
///
/// A contiguous side reduces to one [`pack_into`] or [`unpack`]. Two
/// indexed-runs layouts of one run width — one layout on both sides
/// included, the halo's case — zip their offset tables with fixed-width
/// moves, with no packed image. Any other pair goes through a packed
/// image in `scratch`, [`pack_into`] then [`unpack`]: each side runs its
/// own plan's tier, which beats zipping the two run lists ([`copy_zip`],
/// kept as the reference) by a variable-length move per run. `scratch`
/// is the caller's, so a caller that keeps it allocates the image once;
/// its contents on entry do not matter.
///
/// Panics if the two sides' packed sizes differ.
pub fn copy(
    src: &[u8],
    src_layout: &CompiledLayout,
    src_count: u64,
    dst: &mut [u8],
    dst_layout: &CompiledLayout,
    dst_count: u64,
    scratch: &mut Vec<u8>,
) {
    let total = src_layout.total_bytes(src_count);
    assert_eq!(
        total,
        dst_layout.total_bytes(dst_count),
        "packed size mismatch"
    );
    let n = total as usize;
    match (
        src_layout.plan_for(src_count),
        dst_layout.plan_for(dst_count),
    ) {
        (CopyPlan::Memcpy { .. }, _) => unpack(&src[..n], dst_layout, dst_count, dst),
        (_, CopyPlan::Memcpy { .. }) => pack_into(src, src_layout, src_count, &mut dst[..n]),
        (CopyPlan::IndexedRuns { width }, CopyPlan::IndexedRuns { width: w }) if width == w => {
            let from = (src, src_layout.run_offsets(), src_layout.extent() as usize);
            let to = (dst, dst_layout.run_offsets(), dst_layout.extent() as usize);
            let runs = n / width as usize;
            match width {
                2 => zip_indexed(from, to, runs, 2),
                4 => zip_indexed(from, to, runs, 4),
                8 => zip_indexed(from, to, runs, 8),
                16 => zip_indexed(from, to, runs, 16),
                32 => zip_indexed(from, to, runs, 32),
                w => zip_indexed(from, to, runs, w as usize),
            }
        }
        _ => {
            if scratch.len() < n {
                scratch.resize(n, 0);
            }
            let image = &mut scratch[..n];
            pack_into(src, src_layout, src_count, image);
            unpack(image, dst_layout, dst_count, dst);
        }
    }
}

/// [`copy_zip`] for two indexed-runs layouts of one run width `w`: the
/// k-th run of the source lands in the k-th run of the destination, so
/// the two offset tables zip directly, a stretch at a time up to the next
/// element boundary on either side. Each side is `(bytes, run offsets,
/// extent)`.
#[inline(always)]
fn zip_indexed(
    from: (&[u8], &[u32], usize),
    to: (&mut [u8], &[u32], usize),
    runs: usize,
    w: usize,
) {
    let ((src, s_offs, s_extent), (dst, d_offs, d_extent)) = (from, to);
    let (mut s_base, mut s_at, mut d_base, mut d_at) = (0, 0, 0, 0);
    let mut left = runs;
    while left > 0 {
        let n = (s_offs.len() - s_at).min(d_offs.len() - d_at);
        let (elem, out) = (&src[s_base..], &mut dst[d_base..]);
        let mut s_steps = s_offs[s_at..s_at + n].chunks_exact(RUNS_PER_STEP);
        let mut d_steps = d_offs[d_at..d_at + n].chunks_exact(RUNS_PER_STEP);
        for (ss, ds) in (&mut s_steps).zip(&mut d_steps) {
            for (&s, &d) in ss.iter().zip(ds) {
                let (s, d) = (s as usize, d as usize);
                out[d..d + w].copy_from_slice(&elem[s..s + w]);
            }
        }
        for (&s, &d) in s_steps.remainder().iter().zip(d_steps.remainder()) {
            let (s, d) = (s as usize, d as usize);
            out[d..d + w].copy_from_slice(&elem[s..s + w]);
        }
        (s_at, d_at, left) = (s_at + n, d_at + n, left - n);
        if s_at == s_offs.len() {
            (s_base, s_at) = (s_base + s_extent, 0);
        }
        if d_at == d_offs.len() {
            (d_base, d_at) = (d_base + d_extent, 0);
        }
    }
}

/// The reference for [`copy`]: walk both sides' runs in pack order at
/// once, each step moving the overlap of the current source run and the
/// current destination run. Public so tests and benches can check and
/// time [`copy`]'s tiers against it.
///
/// Panics if the two sides' packed sizes differ.
pub fn copy_zip(
    src: &[u8],
    src_layout: &CompiledLayout,
    src_count: u64,
    dst: &mut [u8],
    dst_layout: &CompiledLayout,
    dst_count: u64,
) {
    assert_eq!(
        src_layout.total_bytes(src_count),
        dst_layout.total_bytes(dst_count),
        "packed size mismatch"
    );
    let mut to = runs(dst_layout, dst_count);
    let Some((mut d, mut d_len)) = to.next() else {
        return;
    };
    for (mut s, mut s_len) in runs(src_layout, src_count) {
        while s_len > 0 {
            if d_len == 0 {
                (d, d_len) = to.next().expect("equal packed sizes");
            }
            let n = s_len.min(d_len);
            dst[d..d + n].copy_from_slice(&src[s..s + n]);
            (s, s_len, d, d_len) = (s + n, s_len - n, d + n, d_len - n);
        }
    }
}

/// The non-empty `(offset, len)` runs of `count` elements of `layout`,
/// in pack order.
fn runs(layout: &CompiledLayout, count: u64) -> impl Iterator<Item = (usize, usize)> + '_ {
    let extent = layout.extent() as usize;
    (0..count as usize).flat_map(move |i| {
        layout
            .segments()
            .iter()
            .filter(|seg| seg.len > 0)
            .map(move |seg| (i * extent + seg.offset as usize, seg.len as usize))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TypeBuilder;
    use crate::compile::CompiledLayout;
    use proptest::prelude::*;

    #[test]
    fn pack_vector_selects_blocks_in_order() {
        // 2 blocks of 2 bytes, stride 4 bytes.
        let t = TypeBuilder::vector(2, 2, 4, TypeBuilder::byte());
        let l = CompiledLayout::of(&t);
        let src: Vec<u8> = (0..8).collect();
        assert_eq!(pack(&src, &l, 1), vec![0, 1, 4, 5]);
    }

    #[test]
    fn pack_multiple_elements_tiles_by_extent() {
        let t = TypeBuilder::vector(2, 1, 2, TypeBuilder::byte()); // segs (0,1),(2,1), extent 3
        let l = CompiledLayout::of(&t);
        let src: Vec<u8> = (10..19).collect();
        // elements at 0 and 3: bytes 10,12 then 13,15
        assert_eq!(pack(&src, &l, 2), vec![10, 12, 13, 15]);
    }

    #[test]
    fn unpack_restores_scattered_positions() {
        let t = TypeBuilder::indexed(&[(1, 2), (5, 1)], TypeBuilder::byte());
        let l = CompiledLayout::of(&t);
        let packed = vec![7, 8, 9];
        let mut dst = vec![0u8; l.footprint(1) as usize];
        unpack(&packed, &l, 1, &mut dst);
        assert_eq!(dst, vec![0, 7, 8, 0, 0, 9]);
    }

    #[test]
    fn unpack_leaves_gaps_untouched() {
        let t = TypeBuilder::vector(2, 1, 3, TypeBuilder::byte());
        let l = CompiledLayout::of(&t);
        let mut dst = vec![0xEE; 6];
        unpack(&[1, 2], &l, 1, &mut dst);
        assert_eq!(dst, vec![1, 0xEE, 0xEE, 2, 0xEE, 0xEE]);
    }

    #[test]
    #[should_panic(expected = "destination size mismatch")]
    fn pack_into_checks_sizes() {
        let t = TypeBuilder::contiguous(4, TypeBuilder::byte());
        let l = CompiledLayout::of(&t);
        let mut small = vec![0u8; 2];
        pack_into(&[0u8; 4], &l, 1, &mut small);
    }

    #[test]
    fn contiguous_pack_is_single_memcpy_of_prefix() {
        let t = TypeBuilder::contiguous(4, TypeBuilder::byte());
        let l = CompiledLayout::of(&t);
        assert!(l.is_contiguous_for(3));
        let src: Vec<u8> = (0..16).collect();
        // 3 elements: exactly the first 12 bytes, in order.
        assert_eq!(pack(&src, &l, 3), (0..12).collect::<Vec<u8>>());
    }

    #[test]
    fn contiguous_unpack_copies_prefix_and_leaves_tail() {
        let t = TypeBuilder::contiguous(4, TypeBuilder::byte());
        let l = CompiledLayout::of(&t);
        let mut dst = vec![0xEE; 10];
        unpack(&[1, 2, 3, 4, 5, 6, 7, 8], &l, 2, &mut dst);
        assert_eq!(dst, vec![1, 2, 3, 4, 5, 6, 7, 8, 0xEE, 0xEE]);
    }

    #[test]
    fn contiguous_single_element_with_padded_extent_uses_fast_path() {
        // Contiguous element, extent > size: fast path legal only for count 1.
        let t = TypeBuilder::subarray(&[3, 3], &[1, 3], &[0, 0], TypeBuilder::int());
        let l = CompiledLayout::of(&t);
        assert!(l.is_contiguous_for(1));
        assert!(!l.is_contiguous_for(2));
        let src: Vec<u8> = (0..72).collect();
        assert_eq!(pack(&src, &l, 1), (0..12).collect::<Vec<u8>>());
        // count 2 must tile by extent (element 1 starts at byte 36), not
        // run the memcpy path.
        let mut expect: Vec<u8> = (0..12).collect();
        expect.extend(36..48);
        assert_eq!(pack(&src, &l, 2), expect);
    }

    #[test]
    fn block_uniform_tier_matches_generic() {
        // 6 runs of 72 bytes every 120: BlockUniform (chunk + 8B tail).
        let t = TypeBuilder::vector(6, 9, 15, TypeBuilder::double());
        let l = CompiledLayout::of(&t);
        assert!(matches!(
            l.plan_for(1),
            crate::compile::CopyPlan::BlockUniform(_)
        ));
        let src: Vec<u8> = (0..l.footprint(1)).map(|i| (i * 7 % 251) as u8).collect();
        let mut fast = vec![0u8; l.total_bytes(1) as usize];
        let mut generic = fast.clone();
        pack_into(&src, &l, 1, &mut fast);
        pack_into_generic(&src, &l, 1, &mut generic);
        assert_eq!(fast, generic);

        let mut scat_fast = vec![0xEE; l.footprint(1) as usize];
        let mut scat_gen = scat_fast.clone();
        unpack(&fast, &l, 1, &mut scat_fast);
        unpack_generic(&generic, &l, 1, &mut scat_gen);
        assert_eq!(scat_fast, scat_gen);
    }

    /// Strategy: a random (but valid) datatype with modest sizes.
    fn arb_type() -> impl Strategy<Value = std::sync::Arc<crate::typedesc::TypeDesc>> {
        prop_oneof![
            // Fully contiguous (pad = 0 hits the memcpy fast path when the
            // vector degenerates to one segment) and truly strided shapes.
            (1u64..16).prop_map(|n| TypeBuilder::contiguous(n, TypeBuilder::double())),
            (1u64..8, 1u64..4, 0u64..8).prop_map(|(count, blocklen, pad)| {
                TypeBuilder::vector(count, blocklen, blocklen + pad, TypeBuilder::int())
            }),
            // Wide runs (> 32 bytes) at fixed stride: the BlockUniform tier.
            (1u64..8, 5u64..16, 0u64..8).prop_map(|(count, blocklen, pad)| {
                TypeBuilder::vector(count, blocklen, blocklen + pad, TypeBuilder::double())
            }),
            prop::collection::vec((0u64..4, 1u64..4), 1..6).prop_map(|raw| {
                // Convert gaps into sorted disjoint (disp, len) blocks.
                let mut disp = 0;
                let blocks: Vec<(u64, u64)> = raw
                    .into_iter()
                    .map(|(gap, len)| {
                        let d = disp + gap;
                        disp = d + len;
                        (d, len)
                    })
                    .collect();
                TypeBuilder::indexed(&blocks, TypeBuilder::float())
            }),
            (2u64..6, 2u64..6).prop_flat_map(|(rows, cols)| {
                (1..=rows, 1..=cols).prop_map(move |(sr, sc)| {
                    TypeBuilder::subarray(
                        &[rows, cols],
                        &[sr, sc],
                        &[rows - sr, cols - sc],
                        TypeBuilder::double(),
                    )
                })
            }),
        ]
    }

    proptest! {
        /// unpack(pack(x)) restores exactly the bytes the layout touches.
        #[test]
        fn pack_unpack_roundtrip(t in arb_type(), count in 1u64..4, seed in 0u64..1000) {
            let l = CompiledLayout::of(&t);
            let fp = l.footprint(count) as usize;
            let mut rng = fusedpack_sim::Pcg32::seeded(seed);
            let mut src = vec![0u8; fp];
            rng.fill_bytes(&mut src);

            let packed = pack(&src, &l, count);
            prop_assert_eq!(packed.len() as u64, l.total_bytes(count));

            let mut dst = vec![0u8; fp];
            unpack(&packed, &l, count, &mut dst);

            // Every byte inside a segment must match the source.
            for (addr, len) in l.absolute_segments(0, count) {
                let (a, b) = (addr as usize, (addr + len) as usize);
                prop_assert_eq!(&dst[a..b], &src[a..b]);
            }
        }

        /// pack(unpack(y)) is the identity on packed buffers.
        #[test]
        fn unpack_pack_roundtrip(t in arb_type(), count in 1u64..4, seed in 0u64..1000) {
            let l = CompiledLayout::of(&t);
            let mut rng = fusedpack_sim::Pcg32::seeded(seed);
            let mut packed = vec![0u8; l.total_bytes(count) as usize];
            rng.fill_bytes(&mut packed);

            let mut scattered = vec![0u8; l.footprint(count) as usize];
            unpack(&packed, &l, count, &mut scattered);
            let repacked = pack(&scattered, &l, count);
            prop_assert_eq!(repacked, packed);
        }

        /// Packed size equals type size x count for arbitrary types.
        #[test]
        fn packed_size_is_type_size(t in arb_type(), count in 1u64..5) {
            let l = CompiledLayout::of(&t);
            let src = vec![0u8; l.footprint(count) as usize];
            prop_assert_eq!(pack(&src, &l, count).len() as u64, t.size() * count);
        }

        /// The dispatching pack (fast path when eligible) and the generic
        /// segment loop produce identical bytes for arbitrary layouts.
        #[test]
        fn pack_fast_path_matches_generic(t in arb_type(), count in 1u64..4, seed in 0u64..1000) {
            let l = CompiledLayout::of(&t);
            let mut rng = fusedpack_sim::Pcg32::seeded(seed);
            let mut src = vec![0u8; l.footprint(count) as usize];
            rng.fill_bytes(&mut src);

            let mut fast = vec![0u8; l.total_bytes(count) as usize];
            let mut generic = fast.clone();
            pack_into(&src, &l, count, &mut fast);
            pack_into_generic(&src, &l, count, &mut generic);
            prop_assert_eq!(fast, generic);
        }

        /// Same guarantee on the unpack side, including untouched gap bytes.
        #[test]
        fn unpack_fast_path_matches_generic(t in arb_type(), count in 1u64..4, seed in 0u64..1000) {
            let l = CompiledLayout::of(&t);
            let mut rng = fusedpack_sim::Pcg32::seeded(seed);
            let mut packed = vec![0u8; l.total_bytes(count) as usize];
            rng.fill_bytes(&mut packed);

            let mut fast = vec![0xEE; l.footprint(count) as usize];
            let mut generic = fast.clone();
            unpack(&packed, &l, count, &mut fast);
            unpack_generic(&packed, &l, count, &mut generic);
            prop_assert_eq!(fast, generic);
        }
    }
}
