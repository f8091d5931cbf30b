//! The layout compile pass: lower a normalized [`LayoutIr`] once into a
//! [`CompiledLayout`] — segments, packed-offset prefix sums, a
//! contiguity/uniformity *classification*, and a precomputed copy plan.
//!
//! This is stage 2 of the datatype pipeline (`TypeDesc` → [`LayoutIr`] →
//! `CompiledLayout`). Everything downstream — host `pack`/`unpack`, the
//! GPU `MemPool` gather/scatter (which run the same kernels), the
//! scheduler's shape accounting — consumes the compiled form instead of
//! re-deriving structure per call site: resolving the copy tier for a
//! message is one [`CompiledLayout::plan_for`] call (a classification
//! match plus one multiply), not a fresh scan of the segment table.
//!
//! Classification ladder, fastest first:
//!
//! * [`LayoutClass::Contiguous`] — one gapless run at offset 0; `count`
//!   elements are a single `memcpy` when the extent tiles gaplessly.
//! * [`LayoutClass::BlockUniform`] — equal-length runs at a constant
//!   stride with *large* runs (> [`FIXED_RUN_WIDTH_MAX`] bytes): a
//!   fixed-stride loop of chunked inner copies (SIMD-friendly, no
//!   per-run table walk).
//! * [`LayoutClass::IndexedRuns`] — equal-length *small* runs
//!   (≤ [`FIXED_RUN_WIDTH_MAX`] bytes) at any offsets, strided or
//!   irregular: fixed-width moves driven by a `u32` offset table built
//!   here, once. Sparse gathers such as specfem3D's thousands of 4-byte
//!   boundary points land here. An element whose runs end past `u32::MAX`
//!   gets no table.
//! * [`LayoutClass::Generic`] — everything else (mixed or wide irregular
//!   runs); the segment-table walk with precomputed prefix sums.
//!
//! The three tables (segments, prefix sums, run offsets) are `Arc` slices:
//! a clone shares them, so it costs three reference counts, not a copy of
//! every table.

use crate::flatten::emit_ir_segments;
use crate::ir::LayoutIr;
use crate::layout::{Segment, UniformPlan};
use crate::typedesc::TypeDesc;
use std::sync::Arc;

/// Run width (bytes) at or below which an equal-width layout uses the
/// indexed fixed-width tier; above it, a constant stride takes the
/// chunked block tier and anything else the generic walk.
pub const FIXED_RUN_WIDTH_MAX: u64 = 32;

/// Bytes of [`CompiledLayout::resident_bytes`] charged per layout on top of
/// its segment and prefix-sum tables: the header of the compiled form as
/// the cache model counts it. A constant, so the modelled cache footprint
/// does not move when the host struct gains a field.
pub const LAYOUT_HEADER_BYTES: u64 = 112;

/// Commit-time classification of one element's memory shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutClass {
    /// One gapless run starting at offset 0.
    Contiguous,
    /// Equal-length runs at constant stride, runs longer than
    /// [`FIXED_RUN_WIDTH_MAX`] bytes.
    BlockUniform,
    /// Equal-length runs of at most [`FIXED_RUN_WIDTH_MAX`] bytes at any
    /// offsets, strided or not: fixed-width moves driven by a compact
    /// offset table.
    IndexedRuns,
    /// Irregular: generic segment walk.
    Generic,
}

impl LayoutClass {
    /// Number of classes in the ladder (sizes per-class counter arrays).
    pub const COUNT: usize = 4;

    /// Stable lowercase name (telemetry / report labels).
    pub fn name(self) -> &'static str {
        match self {
            LayoutClass::Contiguous => "contiguous",
            LayoutClass::BlockUniform => "block_uniform",
            LayoutClass::IndexedRuns => "indexed_runs",
            LayoutClass::Generic => "generic",
        }
    }

    /// Dense index in ladder order (for `[u64; LayoutClass::COUNT]`
    /// counter arrays).
    pub fn index(self) -> usize {
        match self {
            LayoutClass::Contiguous => 0,
            LayoutClass::BlockUniform => 1,
            LayoutClass::IndexedRuns => 2,
            LayoutClass::Generic => 3,
        }
    }
}

/// The resolved copy plan for `count` elements of a compiled layout —
/// what a pack/unpack engine executes, precomputed so call sites never
/// re-detect structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyPlan {
    /// One `memcpy` of `bytes`.
    Memcpy { bytes: u64 },
    /// Fixed-stride loop with chunked inner copies (runs >
    /// [`FIXED_RUN_WIDTH_MAX`] bytes).
    BlockUniform(UniformPlan),
    /// Runs of `width` bytes at the offsets of the layout's
    /// [`CompiledLayout::run_offsets`] table, elements tiled by extent.
    IndexedRuns { width: u64 },
    /// Generic segment-table walk.
    Generic,
}

impl CopyPlan {
    /// The ladder rung this plan executes. Unlike
    /// [`CompiledLayout::class`] (per-element classification), this
    /// reflects the count-resolved plan — e.g. a vector that tiles
    /// gaplessly is `Contiguous` here for any count.
    pub fn class(&self) -> LayoutClass {
        match self {
            CopyPlan::Memcpy { .. } => LayoutClass::Contiguous,
            CopyPlan::BlockUniform(_) => LayoutClass::BlockUniform,
            CopyPlan::IndexedRuns { .. } => LayoutClass::IndexedRuns,
            CopyPlan::Generic => LayoutClass::Generic,
        }
    }
}

/// The compiled, committed form of a datatype: what the layout cache
/// stores and every fusion request references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledLayout {
    /// Segments of one element, in pack (traversal) order. Shared, not
    /// copied, by clones.
    segments: Arc<[Segment]>,
    /// Prefix sums of segment lengths: `packed_off[j]` is the byte offset
    /// of segment `j` within the *packed* image of one element. Computed
    /// once at compile time so pack/unpack loops don't re-derive running
    /// cursors (and can jump straight to any segment). Shared, not copied,
    /// by clones.
    packed_off: Arc<[u64]>,
    /// Payload bytes per element.
    size: u64,
    /// Extent (tiling stride) per element.
    extent: u64,
    /// End of one element's last byte (its furthest segment end), at least
    /// the extent: what [`Self::footprint`] adds to the elements before
    /// the last.
    reach: u64,
    /// Fixed-stride classification, computed once at compile time: `Some`
    /// when every segment has the same length and consecutive segments sit
    /// a constant stride apart (vectors, subarray rows, regular indexed
    /// types).
    uniform: Option<UniformInfo>,
    /// Start of each run within one element, built once at compile time
    /// when every segment has the same length ≤ [`FIXED_RUN_WIDTH_MAX`]
    /// and the element's reach fits a `u32`. Shared, not copied, by
    /// clones.
    runs: Option<Arc<[u32]>>,
    /// The class this element's shape falls into.
    class: LayoutClass,
}

/// Compile-time fixed-stride classification of one element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct UniformInfo {
    /// Offset of the first run within the element.
    first: u64,
    /// Distance between consecutive run starts (≥ `len`, so runs never
    /// overlap).
    stride: u64,
    /// Bytes per run.
    len: u64,
    /// Runs per element.
    per_elem: u64,
    /// Whether the stride arithmetic continues across extent-tiled
    /// elements (`extent == per_elem * stride`); when false the plan is
    /// only valid for a single element.
    tiles: bool,
}

fn classify_uniform(segments: &[Segment], extent: u64) -> Option<UniformInfo> {
    let first = *segments.first()?;
    if first.len == 0 {
        return None;
    }
    let per_elem = segments.len() as u64;
    let stride = if per_elem == 1 {
        extent
    } else {
        segments[1].offset.checked_sub(segments[0].offset)?
    };
    if stride < first.len {
        return None;
    }
    for (j, s) in segments.iter().enumerate() {
        if s.len != first.len || s.offset != first.offset + j as u64 * stride {
            return None;
        }
    }
    Some(UniformInfo {
        first: first.offset,
        stride,
        len: first.len,
        per_elem,
        tiles: extent == per_elem * stride,
    })
}

/// The run starts of a layout whose segments all share one width
/// ≤ [`FIXED_RUN_WIDTH_MAX`], or `None` when widths differ, a run is wider,
/// or a run ends past `u32::MAX`.
fn run_table(segments: &[Segment]) -> Option<Arc<[u32]>> {
    let width = segments.first()?.len;
    if width == 0 || width > FIXED_RUN_WIDTH_MAX {
        return None;
    }
    segments
        .iter()
        .map(|s| {
            let fits = s.len == width && s.offset <= u64::from(u32::MAX) - width;
            fits.then_some(s.offset as u32)
        })
        .collect()
}

fn prefix_sums(segments: &[Segment]) -> Arc<[u64]> {
    let mut off = 0u64;
    segments
        .iter()
        .map(|s| {
            let here = off;
            off += s.len;
            here
        })
        .collect()
}

fn classify(
    segments: &[Segment],
    size: u64,
    uniform: &Option<UniformInfo>,
    runs: &Option<Arc<[u32]>>,
) -> LayoutClass {
    let contiguous =
        segments.len() == 1 && segments[0].offset == 0 && segments[0].len == size && size > 0;
    if contiguous {
        return LayoutClass::Contiguous;
    }
    match (uniform, runs) {
        (Some(u), _) if u.len > FIXED_RUN_WIDTH_MAX => LayoutClass::BlockUniform,
        (_, Some(_)) => LayoutClass::IndexedRuns,
        _ => LayoutClass::Generic,
    }
}

/// Lower a normalized IR into its compiled form.
pub fn compile(ir: &LayoutIr) -> CompiledLayout {
    let segments = emit_ir_segments(ir);
    CompiledLayout::from_parts(segments, ir.extent())
}

impl CompiledLayout {
    /// Normalize, then compile, one element of `desc`.
    pub fn of(desc: &TypeDesc) -> CompiledLayout {
        let layout = compile(&LayoutIr::normalize(desc));
        debug_assert_eq!(layout.size, desc.size(), "lowering lost bytes");
        layout
    }

    /// Build directly from segments (used by tests and synthetic layouts).
    pub fn from_segments(segments: Vec<Segment>, extent: u64) -> CompiledLayout {
        Self::from_parts(segments, extent)
    }

    fn from_parts(segments: Vec<Segment>, extent: u64) -> CompiledLayout {
        let size = segments.iter().map(|s| s.len).sum();
        let uniform = classify_uniform(&segments, extent);
        let runs = run_table(&segments);
        let class = classify(&segments, size, &uniform, &runs);
        let reach = segments.iter().map(|s| s.offset + s.len).max();
        CompiledLayout {
            reach: reach.unwrap_or(0).max(extent),
            packed_off: prefix_sums(&segments),
            uniform,
            runs,
            class,
            segments: segments.into(),
            size,
            extent,
        }
    }

    /// Segments of one element.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Packed-image byte offset of each segment within one element
    /// (prefix sums of segment lengths), parallel to [`Self::segments`].
    pub fn packed_offsets(&self) -> &[u64] {
        &self.packed_off
    }

    /// Start of each run within one element, in pack order, for layouts
    /// whose runs share one width ≤ [`FIXED_RUN_WIDTH_MAX`] (empty
    /// otherwise): the table a [`CopyPlan::IndexedRuns`] plan walks.
    pub fn run_offsets(&self) -> &[u32] {
        self.runs.as_deref().unwrap_or_default()
    }

    /// Contiguous blocks per element.
    pub fn num_blocks(&self) -> u64 {
        self.segments.len() as u64
    }

    /// Payload bytes per element.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Extent per element.
    pub fn extent(&self) -> u64 {
        self.extent
    }

    /// The compile-time class of one element's shape.
    pub fn class(&self) -> LayoutClass {
        self.class
    }

    /// Approximate bytes this compiled layout keeps resident (cache
    /// accounting): [`LAYOUT_HEADER_BYTES`] plus the segment and prefix-sum
    /// tables. Deterministic: derived from lengths, not capacities. The
    /// run-offset table is a host copy accelerator, not part of the
    /// modelled cache entry, so it is not counted.
    pub fn resident_bytes(&self) -> u64 {
        LAYOUT_HEADER_BYTES
            + (self.segments.len() * std::mem::size_of::<Segment>()
                + self.packed_off.len() * std::mem::size_of::<u64>()) as u64
    }

    /// Resolve the copy plan for `count` elements: the single dispatch
    /// point every pack/unpack site consumes instead of re-probing
    /// contiguity and stride structure per call.
    pub fn plan_for(&self, count: u64) -> CopyPlan {
        if self.is_contiguous_for(count) {
            return CopyPlan::Memcpy {
                bytes: self.total_bytes(count),
            };
        }
        match (self.uniform_for(count), &self.runs) {
            (Some(p), _) if p.len > FIXED_RUN_WIDTH_MAX => CopyPlan::BlockUniform(p),
            (_, Some(_)) => CopyPlan::IndexedRuns {
                width: self.segments[0].len,
            },
            _ => CopyPlan::Generic,
        }
    }

    /// Resolve the fixed-stride copy plan for `count` elements, if this
    /// layout has one: all runs equal-length, constant stride, and (for
    /// `count > 1`) the stride arithmetic continuing seamlessly across
    /// extent-tiled elements. Returns `None` for irregular layouts, which
    /// must take the generic segment walk.
    ///
    /// Classification happens once at compile time; this call is a copy of
    /// four words plus one multiply.
    pub fn uniform_for(&self, count: u64) -> Option<UniformPlan> {
        let u = self.uniform.as_ref()?;
        if count > 1 && !u.tiles {
            return None;
        }
        Some(UniformPlan {
            first: u.first,
            stride: u.stride,
            len: u.len,
            runs: u.per_elem * count,
        })
    }

    /// Is one element a single contiguous run starting at offset 0?
    pub fn is_contiguous(&self) -> bool {
        self.class == LayoutClass::Contiguous
    }

    /// Are `count` elements one single contiguous run? Requires each
    /// element to be contiguous *and* elements to tile without gaps
    /// (extent == size) when there is more than one.
    pub fn is_contiguous_for(&self, count: u64) -> bool {
        self.is_contiguous() && (count <= 1 || self.extent == self.size)
    }

    /// Total payload bytes for `count` elements.
    pub fn total_bytes(&self, count: u64) -> u64 {
        self.size * count
    }

    /// Total contiguous blocks for `count` elements (no cross-element
    /// coalescing — elements are extent-tiled, matching what a real packing
    /// kernel sees).
    pub fn total_blocks(&self, count: u64) -> u64 {
        self.num_blocks() * count
    }

    /// Shape summary `(total_bytes, total_blocks)` for `count` elements, in
    /// the form the GPU kernel cost model consumes.
    pub fn shape(&self, count: u64) -> (u64, u64) {
        (self.total_bytes(count), self.total_blocks(count))
    }

    /// Absolute `(address, len)` segments for `count` elements based at
    /// `base`, in pack order: the segment list the generic copy tier walks,
    /// spelled out for byte-level checks.
    pub fn absolute_segments(&self, base: u64, count: u64) -> Vec<(u64, u64)> {
        (0..count)
            .flat_map(|i| {
                let elem = base + i * self.extent;
                self.segments.iter().map(move |s| (elem + s.offset, s.len))
            })
            .collect()
    }

    /// The footprint in bytes that `count` elements occupy in memory
    /// (`(count-1)*extent + last element's reach`), in O(1): the reach is
    /// found once, at compile time.
    pub fn footprint(&self, count: u64) -> u64 {
        match count {
            0 => 0,
            _ => (count - 1) * self.extent + self.reach,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TypeBuilder;

    fn segs(runs: &[(u64, u64)]) -> Vec<Segment> {
        runs.iter()
            .map(|&(offset, len)| Segment { offset, len })
            .collect()
    }

    #[test]
    fn classes_cover_the_ladder() {
        // Contiguous: one gapless run.
        let c = CompiledLayout::of(&TypeBuilder::contiguous(16, TypeBuilder::double()));
        assert_eq!(c.class(), LayoutClass::Contiguous);

        // BlockUniform: large runs (96B) at constant stride.
        let b = CompiledLayout::of(&TypeBuilder::vector(8, 12, 20, TypeBuilder::double()));
        assert_eq!(b.class(), LayoutClass::BlockUniform);

        // IndexedRuns: small runs (8B) at constant stride...
        let f = CompiledLayout::of(&TypeBuilder::vector(4, 1, 3, TypeBuilder::double()));
        assert_eq!(f.class(), LayoutClass::IndexedRuns);
        // ...and small equal runs at irregular offsets.
        let i = CompiledLayout::of(&TypeBuilder::indexed(
            &[(0, 1), (3, 1), (7, 1)],
            TypeBuilder::float(),
        ));
        assert_eq!(i.class(), LayoutClass::IndexedRuns);
        assert_eq!(i.run_offsets(), &[0, 12, 28]);

        // Generic: unequal run lengths.
        let g = CompiledLayout::of(&TypeBuilder::indexed(
            &[(0, 1), (4, 2), (9, 1)],
            TypeBuilder::float(),
        ));
        assert_eq!(g.class(), LayoutClass::Generic);
        assert!(g.run_offsets().is_empty());
    }

    #[test]
    fn plan_for_follows_the_class() {
        let c = CompiledLayout::of(&TypeBuilder::contiguous(16, TypeBuilder::double()));
        assert_eq!(c.plan_for(4), CopyPlan::Memcpy { bytes: 512 });

        let col = CompiledLayout::of(&TypeBuilder::subarray(
            &[3, 3],
            &[3, 1],
            &[0, 0],
            TypeBuilder::int(),
        ));
        assert_eq!(col.plan_for(2), CopyPlan::IndexedRuns { width: 4 });
        assert_eq!(col.run_offsets(), &[0, 12, 24]);

        let wide = CompiledLayout::of(&TypeBuilder::vector(4, 8, 16, TypeBuilder::double()));
        match wide.plan_for(1) {
            CopyPlan::BlockUniform(p) => {
                assert_eq!((p.first, p.stride, p.len, p.runs), (0, 128, 64, 4));
            }
            other => panic!("expected BlockUniform, got {other:?}"),
        }

        let irr = CompiledLayout::of(&TypeBuilder::indexed(
            &[(0, 1), (4, 2), (9, 1)],
            TypeBuilder::float(),
        ));
        assert_eq!(irr.plan_for(1), CopyPlan::Generic);
    }

    #[test]
    fn indexed_runs_tile_by_extent_where_the_stride_breaks() {
        // vector(3,2,4,int): uniform per element but extent breaks the
        // stride across elements; the offset table tiles by extent instead.
        let v = CompiledLayout::of(&TypeBuilder::vector(3, 2, 4, TypeBuilder::int()));
        assert_eq!(v.class(), LayoutClass::IndexedRuns);
        assert!(v.uniform_for(2).is_none());
        assert_eq!(v.plan_for(1), CopyPlan::IndexedRuns { width: 8 });
        assert_eq!(v.plan_for(2), CopyPlan::IndexedRuns { width: 8 });
    }

    #[test]
    fn padded_small_contiguous_element_takes_indexed_runs_for_many() {
        // One 12-byte run in a 36-byte extent: a memcpy for one element,
        // the offset table (one entry) once elements leave gaps.
        let t = TypeBuilder::subarray(&[3, 3], &[1, 3], &[0, 0], TypeBuilder::int());
        let l = CompiledLayout::of(&t);
        assert_eq!(l.class(), LayoutClass::Contiguous);
        assert_eq!(l.plan_for(1), CopyPlan::Memcpy { bytes: 12 });
        assert_eq!(l.plan_for(3), CopyPlan::IndexedRuns { width: 12 });
    }

    #[test]
    fn block_uniform_boundary_is_fixed_run_width_max() {
        // Runs of exactly 32B stay in the indexed tier; 40B graduate.
        let at = CompiledLayout::of(&TypeBuilder::vector(4, 4, 8, TypeBuilder::double()));
        assert_eq!(at.class(), LayoutClass::IndexedRuns);
        let over = CompiledLayout::of(&TypeBuilder::vector(4, 5, 8, TypeBuilder::double()));
        assert_eq!(over.class(), LayoutClass::BlockUniform);
    }

    #[test]
    fn wide_irregular_runs_stay_generic() {
        let l = CompiledLayout::from_segments(segs(&[(0, 40), (50, 40), (130, 40)]), 170);
        assert_eq!(l.class(), LayoutClass::Generic);
        assert_eq!(l.plan_for(2), CopyPlan::Generic);
    }

    #[test]
    fn unequal_widths_stay_generic() {
        let l = CompiledLayout::from_segments(segs(&[(0, 4), (8, 4), (20, 8)]), 28);
        assert_eq!(l.class(), LayoutClass::Generic);
        assert!(l.run_offsets().is_empty());
    }

    #[test]
    fn empty_segment_list_compiles_and_copies_nothing() {
        let l = CompiledLayout::from_segments(Vec::new(), 0);
        assert_eq!(l.class(), LayoutClass::Generic);
        assert_eq!(l.plan_for(3), CopyPlan::Generic);
        assert_eq!(l.total_bytes(3), 0);
        assert!(l.run_offsets().is_empty());
    }

    #[test]
    fn reach_past_u32_stays_generic() {
        // Descriptors only: nothing this large is ever allocated.
        let edge = u64::from(u32::MAX);
        let fits = CompiledLayout::from_segments(segs(&[(0, 4), (edge - 4, 4)]), edge);
        assert_eq!(fits.class(), LayoutClass::IndexedRuns);
        assert_eq!(fits.run_offsets(), &[0, u32::MAX - 4]);
        let past = CompiledLayout::from_segments(segs(&[(0, 4), (edge - 3, 4)]), edge + 1);
        assert_eq!(past.class(), LayoutClass::Generic);
        assert_eq!(past.plan_for(1), CopyPlan::Generic);
    }

    #[test]
    fn clones_share_every_table() {
        let l = CompiledLayout::of(&TypeBuilder::indexed(
            &[(0, 1), (3, 1), (7, 1)],
            TypeBuilder::float(),
        ));
        let copy = l.clone();
        assert!(std::ptr::eq(l.segments(), copy.segments()));
        assert!(std::ptr::eq(l.packed_offsets(), copy.packed_offsets()));
        assert!(std::ptr::eq(l.run_offsets(), copy.run_offsets()));
    }

    #[test]
    fn resident_bytes_is_pinned() {
        // Header constant + 5 segments x 16 B + 5 prefix sums x 8 B. The
        // offset table is host-only and not counted.
        let l = CompiledLayout::of(&TypeBuilder::indexed(
            &[(0, 1), (3, 1), (7, 1), (12, 1), (18, 1)],
            TypeBuilder::float(),
        ));
        assert_eq!(l.class(), LayoutClass::IndexedRuns);
        assert_eq!(l.resident_bytes(), 112 + 5 * 16 + 5 * 8);
    }

    #[test]
    fn resident_bytes_scales_with_segments() {
        let small = CompiledLayout::of(&TypeBuilder::double());
        let big = CompiledLayout::of(&TypeBuilder::indexed(
            &[(0, 1), (3, 1), (7, 1), (12, 1), (18, 1)],
            TypeBuilder::float(),
        ));
        assert!(big.resident_bytes() > small.resident_bytes());
    }

    #[test]
    fn class_names_are_stable() {
        assert_eq!(LayoutClass::Contiguous.name(), "contiguous");
        assert_eq!(LayoutClass::BlockUniform.name(), "block_uniform");
        assert_eq!(LayoutClass::IndexedRuns.name(), "indexed_runs");
        assert_eq!(LayoutClass::Generic.name(), "generic");
    }

    #[test]
    fn ladder_indices_are_dense() {
        let ladder = [
            LayoutClass::Contiguous,
            LayoutClass::BlockUniform,
            LayoutClass::IndexedRuns,
            LayoutClass::Generic,
        ];
        for (i, class) in ladder.into_iter().enumerate() {
            assert_eq!(class.index(), i);
        }
        assert_eq!(ladder.len(), LayoutClass::COUNT);
    }
}
