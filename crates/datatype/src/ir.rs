//! Canonical layout IR: strided loop nests over leaf byte runs.
//!
//! TEMPI (PAPERS.md) observes that arbitrary MPI datatype trees — however
//! they were constructed — describe a small family of actual memory
//! shapes, and that *normalizing* the constructor tree into a canonical
//! strided form before lowering unlocks both speed (one analysis, reused
//! everywhere) and generality (every constructor benefits from every fast
//! path). This module is that normalizer.
//!
//! A [`LayoutIr`] is an ordered forest of [`IrNode`]s describing one
//! element in *pack order* (the order MPI packs bytes):
//!
//! * `Run { offset, len }` — one contiguous run of `len` bytes;
//! * `Nest { offset, count, stride, body }` — `count` iterations of
//!   `body`, iteration `i` based at `offset + i * stride`.
//!
//! [`LayoutIr::normalize`] raises a [`TypeDesc`] into raw nodes and then
//! rewrites to a fixed point under four rules, each order-preserving:
//!
//! 1. **fold-degenerate** — empty runs and zero-count nests vanish;
//!    one-count nests inline their body (shifted by the nest offset).
//! 2. **collapse-contiguous** — a nest over a single run whose stride
//!    equals the run length is one big run (`vector(n, b, b, t)` ≡
//!    `contiguous(n*b, t)`).
//! 3. **merge-nests** (uniform-stride hoisting) — a nest over exactly one
//!    inner nest whose iterations tile the outer stride
//!    (`outer.stride == inner.count * inner.stride`) becomes a single
//!    flat nest with the product count. Subarray row/plane loops collapse
//!    to one loop this way.
//! 4. **merge-siblings** — adjacent touching runs coalesce, and runs of
//!    structurally identical siblings at a constant offset delta roll up
//!    into a nest (`indexed_block` with evenly spaced displacements
//!    becomes a vector).
//!
//! The rewrite result is canonical enough that the compile pass
//! ([`crate::compile`]) can classify a layout by *looking at the nodes*
//! instead of pattern-matching constructor trees, and the exact
//! post-rewrite run count ([`LayoutIr::run_count`]) sizes the segment
//! buffer precisely — no over-reservation by the pre-coalesce leaf count
//! on pathological nested types.

use crate::typedesc::TypeDesc;

/// One node of the canonical layout IR. Offsets are bytes relative to the
/// enclosing iteration's base.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IrNode {
    /// A contiguous run of `len` bytes at `offset`.
    Run { offset: u64, len: u64 },
    /// `count` iterations of `body`; iteration `i` is based at
    /// `offset + i * stride`.
    Nest {
        offset: u64,
        count: u64,
        stride: u64,
        body: Vec<IrNode>,
    },
}

impl IrNode {
    /// Shift this node's base offset by `delta`.
    fn shifted(mut self, delta: u64) -> IrNode {
        match &mut self {
            IrNode::Run { offset, .. } | IrNode::Nest { offset, .. } => *offset += delta,
        }
        self
    }

    /// Structural equality ignoring the *top-level* offset (bodies are
    /// compared exactly). Two shape-equal siblings at a constant offset
    /// delta can roll up into a nest.
    fn shape_eq(&self, other: &IrNode) -> bool {
        match (self, other) {
            (IrNode::Run { len: a, .. }, IrNode::Run { len: b, .. }) => a == b,
            (
                IrNode::Nest {
                    count: c1,
                    stride: s1,
                    body: b1,
                    ..
                },
                IrNode::Nest {
                    count: c2,
                    stride: s2,
                    body: b2,
                    ..
                },
            ) => c1 == c2 && s1 == s2 && b1 == b2,
            _ => false,
        }
    }

    /// Top-level offset.
    fn offset(&self) -> u64 {
        match self {
            IrNode::Run { offset, .. } | IrNode::Nest { offset, .. } => *offset,
        }
    }

    /// Exact leaf runs this node emits (saturating on absurd nestings).
    fn run_count(&self) -> u64 {
        match self {
            IrNode::Run { .. } => 1,
            IrNode::Nest { count, body, .. } => {
                count.saturating_mul(body.iter().map(IrNode::run_count).sum())
            }
        }
    }

    /// Payload bytes this node emits.
    fn byte_count(&self) -> u64 {
        match self {
            IrNode::Run { len, .. } => *len,
            IrNode::Nest { count, body, .. } => {
                count.saturating_mul(body.iter().map(IrNode::byte_count).sum())
            }
        }
    }

    /// Nesting depth (a run is depth 1).
    fn depth(&self) -> usize {
        match self {
            IrNode::Run { .. } => 1,
            IrNode::Nest { body, .. } => 1 + body.iter().map(IrNode::depth).max().unwrap_or(0),
        }
    }

    fn for_each_run(&self, base: u64, f: &mut impl FnMut(u64, u64)) {
        match self {
            IrNode::Run { offset, len } => f(base + offset, *len),
            IrNode::Nest {
                offset,
                count,
                stride,
                body,
            } => {
                for i in 0..*count {
                    let b = base + offset + i * stride;
                    for node in body {
                        node.for_each_run(b, f);
                    }
                }
            }
        }
    }
}

/// The canonical (normalized) layout of one datatype element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutIr {
    nodes: Vec<IrNode>,
    size: u64,
    extent: u64,
}

impl LayoutIr {
    /// Raise `desc` into the IR and rewrite to the canonical fixed point.
    pub fn normalize(desc: &TypeDesc) -> LayoutIr {
        let mut nodes = Vec::new();
        raise(desc, 0, &mut nodes);
        let nodes = simplify_to_fixpoint(nodes);
        let ir = LayoutIr {
            nodes,
            size: desc.size(),
            extent: desc.extent(),
        };
        debug_assert_eq!(
            ir.nodes.iter().map(IrNode::byte_count).sum::<u64>(),
            ir.size,
            "rewrite lost bytes"
        );
        ir
    }

    /// The canonical node forest, in pack order.
    pub fn nodes(&self) -> &[IrNode] {
        &self.nodes
    }

    /// Payload bytes per element.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Extent (tiling stride) per element.
    pub fn extent(&self) -> u64 {
        self.extent
    }

    /// Exact number of leaf runs one element emits *after* normalization
    /// (adjacent-run coalescing at emission can only shrink this). This is
    /// the precise pre-allocation bound the flattener uses.
    pub fn run_count(&self) -> u64 {
        self.nodes.iter().map(IrNode::run_count).sum()
    }

    /// Maximum loop-nest depth (1 = flat runs only).
    pub fn depth(&self) -> usize {
        self.nodes.iter().map(IrNode::depth).max().unwrap_or(0)
    }

    /// Visit every `(offset, len)` leaf run of one element, in pack order.
    pub fn for_each_run(&self, mut f: impl FnMut(u64, u64)) {
        for node in &self.nodes {
            node.for_each_run(0, &mut f);
        }
    }
}

/// Raise one constructor level into raw IR nodes, appending to `out`.
fn raise(desc: &TypeDesc, offset: u64, out: &mut Vec<IrNode>) {
    match desc {
        TypeDesc::Named(p) => out.push(IrNode::Run {
            offset,
            len: p.size(),
        }),
        TypeDesc::Contiguous { count, child } => {
            let mut body = Vec::new();
            raise(child, 0, &mut body);
            out.push(IrNode::Nest {
                offset,
                count: *count,
                stride: child.extent(),
                body,
            });
        }
        TypeDesc::Vector {
            count,
            blocklen,
            stride,
            child,
        } => {
            let ext = child.extent();
            raise_strided(child, offset, *count, *blocklen, stride * ext, ext, out);
        }
        TypeDesc::Hvector {
            count,
            blocklen,
            stride_bytes,
            child,
        } => {
            let ext = child.extent();
            raise_strided(child, offset, *count, *blocklen, *stride_bytes, ext, out);
        }
        TypeDesc::Indexed { blocks, child } => {
            let ext = child.extent();
            for &(disp, len) in blocks.iter() {
                raise_block(child, offset + disp * ext, len, ext, out);
            }
        }
        TypeDesc::Hindexed { blocks, child } => {
            let ext = child.extent();
            for &(disp, len) in blocks.iter() {
                raise_block(child, offset + disp, len, ext, out);
            }
        }
        TypeDesc::IndexedBlock {
            displacements,
            blocklen,
            child,
        } => {
            let ext = child.extent();
            for &disp in displacements.iter() {
                raise_block(child, offset + disp * ext, *blocklen, ext, out);
            }
        }
        TypeDesc::Struct { fields } => {
            for (disp, count, child) in fields.iter() {
                raise_block(child, offset + disp, *count, child.extent(), out);
            }
        }
        TypeDesc::Subarray {
            sizes,
            subsizes,
            starts,
            child,
        } => {
            // C-order slab: one nest per dimension; dimension d's stride is
            // the row-pitch of everything after it. The start offsets fold
            // into the outermost nest's base.
            let ext = child.extent();
            let ndims = sizes.len();
            let mut pitch = vec![ext; ndims];
            for d in (0..ndims.saturating_sub(1)).rev() {
                pitch[d] = pitch[d + 1] * sizes[d + 1];
            }
            let base: u64 = offset + (0..ndims).map(|d| starts[d] * pitch[d]).sum::<u64>();
            let mut body = Vec::new();
            raise(child, 0, &mut body);
            let mut node = IrNode::Nest {
                offset: 0,
                count: subsizes[ndims - 1],
                stride: pitch[ndims - 1],
                body,
            };
            for d in (0..ndims.saturating_sub(1)).rev() {
                node = IrNode::Nest {
                    offset: 0,
                    count: subsizes[d],
                    stride: pitch[d],
                    body: vec![node],
                };
            }
            out.push(node.shifted(base));
        }
        TypeDesc::Resized { child, .. } => raise(child, offset, out),
    }
}

/// `count` blocks of `blocklen` children, block starts `stride_bytes`
/// apart: the vector/hvector shape.
fn raise_strided(
    child: &TypeDesc,
    offset: u64,
    count: u64,
    blocklen: u64,
    stride_bytes: u64,
    child_ext: u64,
    out: &mut Vec<IrNode>,
) {
    let mut block = Vec::new();
    raise_block(child, 0, blocklen, child_ext, &mut block);
    out.push(IrNode::Nest {
        offset,
        count,
        stride: stride_bytes,
        body: block,
    });
}

/// One run of `count` consecutive children at `offset`.
fn raise_block(child: &TypeDesc, offset: u64, count: u64, child_ext: u64, out: &mut Vec<IrNode>) {
    // Blocks of primitives tile gaplessly (a primitive's extent is its
    // size): emit the collapsed run directly instead of a one-run nest
    // the rewriter would fold anyway. Indexed types raise linearly in
    // block count this way, with no per-block body allocation.
    if let TypeDesc::Named(p) = child {
        out.push(IrNode::Run {
            offset,
            len: count * p.size(),
        });
        return;
    }
    let mut body = Vec::new();
    raise(child, 0, &mut body);
    out.push(IrNode::Nest {
        offset,
        count,
        stride: child_ext,
        body,
    });
}

/// Rewrite to the canonical fixed point, bottom-up: every node's body is
/// canonicalized once (children before parents), the node-local rules
/// (fold-degenerate, collapse-contiguous, merge-nests) run to a local
/// fixed point per node, and the sibling rules (run coalescing, roll-up)
/// iterate per level until that level stops changing. Each subtree is
/// visited exactly once and every pass owns its nodes, so nothing is
/// deep-cloned — the rewrite is linear in tree size times the (small,
/// roll-up-depth-bounded) number of level passes.
fn simplify_to_fixpoint(nodes: Vec<IrNode>) -> Vec<IrNode> {
    canonicalize_siblings(nodes)
}

fn canonicalize_siblings(nodes: Vec<IrNode>) -> Vec<IrNode> {
    let mut flat: Vec<IrNode> = Vec::with_capacity(nodes.len());
    for node in nodes {
        canonicalize_node(node, &mut flat);
    }
    while flat.len() >= 2 {
        let (next, changed) = sibling_pass(flat);
        flat = next;
        if !changed {
            break;
        }
    }
    flat
}

/// Canonicalize one node, appending the result (possibly several inlined
/// nodes, possibly nothing) to `out`.
fn canonicalize_node(node: IrNode, out: &mut Vec<IrNode>) {
    match node {
        IrNode::Run { len: 0, .. } => {} // fold-degenerate: empty run
        run @ IrNode::Run { .. } => out.push(run),
        IrNode::Nest {
            offset,
            count,
            stride,
            body,
        } => {
            if count == 0 {
                return; // fold-degenerate: empty nest
            }
            let body = canonicalize_siblings(body);
            if body.is_empty() {
                return;
            }
            if count == 1 {
                // fold-degenerate: inline a one-iteration nest.
                for child in body {
                    out.push(child.shifted(offset));
                }
                return;
            }
            push_nest(offset, count, stride, body, out);
        }
    }
}

/// Push a nest whose `body` is already canonical (and non-empty, with
/// `count >= 2`), applying the node-local rules to a local fixed point:
///
/// * **collapse-contiguous** — a nest over a single run whose stride
///   equals the run length is one big run.
/// * **merge-nests** — a nest over exactly one inner nest whose
///   iterations tile the outer stride flattens to the product count
///   (and may then collapse-contiguous, hence the loop).
fn push_nest(
    mut offset: u64,
    mut count: u64,
    mut stride: u64,
    mut body: Vec<IrNode>,
    out: &mut Vec<IrNode>,
) {
    loop {
        match body.as_slice() {
            [IrNode::Run {
                offset: ro,
                len: rl,
            }] if stride == *rl => {
                out.push(IrNode::Run {
                    offset: offset + ro,
                    len: count * rl,
                });
                return;
            }
            [IrNode::Nest {
                count: ic,
                stride: is_,
                ..
            }] if stride == ic.saturating_mul(*is_) => {
                let Some(IrNode::Nest {
                    offset: io,
                    count: ic,
                    stride: is_,
                    body: ib,
                }) = body.pop()
                else {
                    unreachable!("single-nest body just matched");
                };
                offset += io;
                count *= ic;
                stride = is_;
                body = ib;
            }
            _ => break,
        }
    }
    out.push(IrNode::Nest {
        offset,
        count,
        stride,
        body,
    });
}

/// One sibling pass over an owned level: adjacent touching runs coalesce,
/// then maximal groups of shape-equal siblings at a constant positive
/// offset delta roll up into nests. Rolled nests go through
/// [`push_nest`], so a roll-up that exposes a merge-nests opportunity
/// (adjacent tiling nests) canonicalizes immediately.
fn sibling_pass(nodes: Vec<IrNode>) -> (Vec<IrNode>, bool) {
    let mut changed = false;

    // merge-siblings (runs): adjacent touching runs coalesce.
    let mut merged: Vec<IrNode> = Vec::with_capacity(nodes.len());
    for node in nodes {
        if let (
            Some(IrNode::Run {
                offset: po,
                len: pl,
            }),
            IrNode::Run { offset, len },
        ) = (merged.last_mut(), &node)
        {
            if *po + *pl == *offset {
                *pl += *len;
                changed = true;
                continue;
            }
        }
        merged.push(node);
    }

    // merge-siblings (roll-up), as a running group over the owned list:
    // `(leader, delta, members, last_offset)`.
    let mut rolled: Vec<IrNode> = Vec::with_capacity(merged.len());
    let mut group: Option<(IrNode, u64, u64, u64)> = None;
    for node in merged {
        group = Some(match group {
            None => (node, 0, 1, 0),
            Some((leader, delta, members, last)) => {
                let off = node.offset();
                let extend = node.shape_eq(&leader)
                    && if members == 1 {
                        off > leader.offset() // only roll forward-marching groups
                    } else {
                        off.wrapping_sub(last) == delta
                    };
                if extend {
                    let d = if members == 1 {
                        off - leader.offset()
                    } else {
                        delta
                    };
                    (leader, d, members + 1, off)
                } else {
                    flush_group(leader, delta, members, &mut rolled, &mut changed);
                    (node, 0, 1, 0)
                }
            }
        });
    }
    if let Some((leader, delta, members, _)) = group {
        flush_group(leader, delta, members, &mut rolled, &mut changed);
    }
    (rolled, changed)
}

/// Emit a finished roll-up group: a singleton passes through unchanged, a
/// group of two or more becomes a nest over the (offset-zeroed) leader.
fn flush_group(
    leader: IrNode,
    delta: u64,
    members: u64,
    out: &mut Vec<IrNode>,
    changed: &mut bool,
) {
    if members >= 2 && delta > 0 {
        let base = leader.offset();
        *changed = true;
        push_nest(base, members, delta, vec![leader.with_offset(0)], out);
    } else {
        out.push(leader);
    }
}

impl IrNode {
    /// This node with its top-level offset replaced.
    fn with_offset(mut self, new: u64) -> IrNode {
        match &mut self {
            IrNode::Run { offset, .. } | IrNode::Nest { offset, .. } => *offset = new,
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TypeBuilder;

    fn runs_of(ir: &LayoutIr) -> Vec<(u64, u64)> {
        let mut v = Vec::new();
        ir.for_each_run(|o, l| v.push((o, l)));
        v
    }

    #[test]
    fn primitive_is_one_run() {
        let ir = LayoutIr::normalize(&TypeBuilder::double());
        assert_eq!(ir.nodes(), &[IrNode::Run { offset: 0, len: 8 }]);
        assert_eq!(ir.run_count(), 1);
    }

    #[test]
    fn contiguous_collapses_to_one_run() {
        // contiguous(1M, int) would over-reserve a 1<<20-segment buffer in
        // the legacy flattener; the IR folds it to a single run.
        let ir = LayoutIr::normalize(&TypeBuilder::contiguous(1 << 20, TypeBuilder::int()));
        assert_eq!(
            ir.nodes(),
            &[IrNode::Run {
                offset: 0,
                len: 4 << 20
            }]
        );
        assert_eq!(ir.run_count(), 1);
    }

    #[test]
    fn nested_contiguous_collapses_fully() {
        // contiguous(contiguous(contiguous)) — pathological depth, one run.
        let t = TypeBuilder::contiguous(
            64,
            TypeBuilder::contiguous(64, TypeBuilder::contiguous(64, TypeBuilder::byte())),
        );
        let ir = LayoutIr::normalize(&t);
        assert_eq!(ir.run_count(), 1);
        assert_eq!(runs_of(&ir), vec![(0, 64 * 64 * 64)]);
    }

    #[test]
    fn vector_is_one_flat_nest() {
        // vector(3, 2, 4, int): 3 runs of 8B every 16B.
        let ir = LayoutIr::normalize(&TypeBuilder::vector(3, 2, 4, TypeBuilder::int()));
        assert_eq!(
            ir.nodes(),
            &[IrNode::Nest {
                offset: 0,
                count: 3,
                stride: 16,
                body: vec![IrNode::Run { offset: 0, len: 8 }],
            }]
        );
        assert_eq!(ir.depth(), 2);
        assert_eq!(ir.run_count(), 3);
    }

    #[test]
    fn unit_stride_vector_collapses() {
        let ir = LayoutIr::normalize(&TypeBuilder::vector(5, 2, 2, TypeBuilder::int()));
        assert_eq!(runs_of(&ir), vec![(0, 40)]);
    }

    #[test]
    fn subarray_interior_hoists_row_loops() {
        // Full-width interior rows tile perfectly: the plane and row loops
        // merge into a single uniform-stride nest.
        let t = TypeBuilder::subarray(&[4, 4], &[2, 4], &[1, 0], TypeBuilder::int());
        let ir = LayoutIr::normalize(&t);
        assert_eq!(runs_of(&ir), vec![(16, 32)]);
    }

    #[test]
    fn subarray_column_is_uniform_nest() {
        let t = TypeBuilder::subarray(&[3, 3], &[3, 1], &[0, 0], TypeBuilder::int());
        let ir = LayoutIr::normalize(&t);
        assert_eq!(
            ir.nodes(),
            &[IrNode::Nest {
                offset: 0,
                count: 3,
                stride: 12,
                body: vec![IrNode::Run { offset: 0, len: 4 }],
            }]
        );
    }

    #[test]
    fn evenly_spaced_indexed_block_rolls_into_a_nest() {
        // indexed_block at displacements 0,4,8 (uniform spacing) is a
        // vector in disguise — merge-siblings rolls it up.
        let t = TypeBuilder::indexed_block(&[0, 4, 8], 2, TypeBuilder::float());
        let ir = LayoutIr::normalize(&t);
        assert_eq!(
            ir.nodes(),
            &[IrNode::Nest {
                offset: 0,
                count: 3,
                stride: 16,
                body: vec![IrNode::Run { offset: 0, len: 8 }],
            }]
        );
    }

    #[test]
    fn irregular_indexed_stays_flat() {
        let t = TypeBuilder::indexed(&[(0, 1), (4, 2), (9, 1)], TypeBuilder::float());
        let ir = LayoutIr::normalize(&t);
        assert_eq!(runs_of(&ir), vec![(0, 4), (16, 8), (36, 4)]);
        assert_eq!(ir.run_count(), 3);
    }

    #[test]
    fn runs_match_legacy_flatten_order_and_bytes() {
        let cases = [
            TypeBuilder::vector(7, 3, 5, TypeBuilder::double()),
            TypeBuilder::indexed(&[(0, 2), (4, 1), (9, 5)], TypeBuilder::float()),
            TypeBuilder::subarray(&[5, 7, 3], &[2, 3, 2], &[1, 2, 0], TypeBuilder::int()),
            TypeBuilder::structure(&[
                (0, 4, TypeBuilder::float()),
                (32, 1, TypeBuilder::vector(2, 1, 3, TypeBuilder::int())),
            ]),
            TypeBuilder::hvector(2, 1, 100, TypeBuilder::double()),
        ];
        for t in cases {
            let ir = LayoutIr::normalize(&t);
            let total: u64 = {
                let mut sum = 0;
                ir.for_each_run(|_, l| sum += l);
                sum
            };
            assert_eq!(total, t.size(), "{t:?}");
            assert_eq!(ir.size(), t.size());
            assert_eq!(ir.extent(), t.extent());
        }
    }

    #[test]
    fn run_count_is_exact_not_an_upper_bound() {
        // 4 blocks x 2 doubles = 8 leaf primitives before coalescing; the
        // IR knows each block coalesces into one run.
        let t = TypeBuilder::vector(4, 2, 5, TypeBuilder::double());
        assert_eq!(LayoutIr::normalize(&t).run_count(), 4);
    }

    #[test]
    fn resized_changes_extent_only() {
        let inner = TypeBuilder::vector(2, 1, 4, TypeBuilder::int());
        let ir = LayoutIr::normalize(&TypeBuilder::resized(256, inner.clone()));
        assert_eq!(runs_of(&ir), runs_of(&LayoutIr::normalize(&inner)));
        assert_eq!(ir.extent(), 256);
    }
}
