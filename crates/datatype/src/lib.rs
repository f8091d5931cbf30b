//! # fusedpack-datatype
//!
//! An MPI Derived DataType (DDT) engine, structured as a three-stage
//! layout compiler:
//!
//! 1. **Normalize** ([`ir`]): the type constructors of the MPI standard
//!    (`contiguous`, `vector`, `hvector`, `indexed`, `hindexed`,
//!    `indexed_block`, `struct`, `subarray`, `resized`) are raised into a
//!    canonical IR — strided loop nests over leaf byte runs — and
//!    rewritten to a fixed point (degenerate constructors fold, adjacent
//!    runs merge, compatible nests hoist into uniform strides).
//! 2. **Compile** ([`compile`]): the IR lowers once into a
//!    [`CompiledLayout`] — the `(offset, length)` segment list
//!    ("flattening on the fly", Träff et al.), packed-offset prefix sums,
//!    a contiguity/uniformity [`LayoutClass`], and the precomputed
//!    [`CopyPlan`] every pack/unpack engine dispatches on.
//! 3. **Cache** ([`cache`]): following the scheme of Chu et al. \[24\], a
//!    [`LayoutTable`] interns each distinct descriptor once by structural
//!    hash, and each rank's [`LayoutCache`] counts its commits and hits.
//!
//! The compiled layout is the lingua franca of the whole workspace: the
//! GPU kernel cost model consumes its [`shape`](CompiledLayout::shape),
//! the GPU memory pools execute its copy plan through the same [`pack`]
//! kernels as the host, and the fusion scheduler carries cached layout
//! references in its request objects.

pub mod builder;
pub mod cache;
pub mod compile;
mod flatten;
pub mod ir;
pub mod layout;
pub mod pack;
pub mod typedesc;

pub use builder::TypeBuilder;
pub use cache::{LayoutCache, LayoutCacheStats, LayoutTable};
pub use compile::{CompiledLayout, CopyPlan, LayoutClass, FIXED_RUN_WIDTH_MAX};
pub use ir::{IrNode, LayoutIr};
pub use layout::{Segment, UniformPlan};
pub use typedesc::{Primitive, TypeDesc};
