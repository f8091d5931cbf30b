//! Datatype descriptors: a tree mirroring the MPI type-constructor algebra.
//!
//! A [`TypeDesc`] describes the memory footprint of *one* element. Sending
//! `count` elements tiles the description by its extent, exactly as MPI
//! does. Displacements are byte offsets within the element; negative lower
//! bounds are not supported (asserted at construction), which loses no
//! generality for the halo-exchange layouts this workspace models.

use std::sync::Arc;

/// MPI primitive (named) types, with their sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// `MPI_BYTE` / `MPI_CHAR`
    Byte,
    /// `MPI_INT`
    Int32,
    /// `MPI_FLOAT`
    Float32,
    /// `MPI_DOUBLE`
    Float64,
    /// `MPI_DOUBLE` pair, e.g. complex numbers (`MPI_2DOUBLE_PRECISION`)
    Complex128,
}

impl Primitive {
    /// Size in bytes.
    #[inline]
    pub fn size(self) -> u64 {
        match self {
            Primitive::Byte => 1,
            Primitive::Int32 | Primitive::Float32 => 4,
            Primitive::Float64 => 8,
            Primitive::Complex128 => 16,
        }
    }
}

/// A derived-datatype tree node.
///
/// Children are `Arc`-shared: committed types are immutable and reused
/// across many layouts (e.g. the same indexed type sent to 26 neighbors).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TypeDesc {
    /// A named primitive type.
    Named(Primitive),
    /// `MPI_Type_contiguous`: `count` consecutive children.
    Contiguous { count: u64, child: Arc<TypeDesc> },
    /// `MPI_Type_vector`: `count` blocks of `blocklen` children, with a
    /// stride of `stride` *children* between block starts.
    Vector {
        count: u64,
        blocklen: u64,
        stride: u64,
        child: Arc<TypeDesc>,
    },
    /// `MPI_Type_create_hvector`: stride given in bytes.
    Hvector {
        count: u64,
        blocklen: u64,
        stride_bytes: u64,
        child: Arc<TypeDesc>,
    },
    /// `MPI_Type_indexed`: blocks of `(displacement, blocklen)` in units of
    /// the child extent.
    Indexed {
        blocks: Arc<[(u64, u64)]>,
        child: Arc<TypeDesc>,
    },
    /// `MPI_Type_create_hindexed`: displacements in bytes.
    Hindexed {
        blocks: Arc<[(u64, u64)]>,
        child: Arc<TypeDesc>,
    },
    /// `MPI_Type_create_indexed_block`: constant block length.
    IndexedBlock {
        displacements: Arc<[u64]>,
        blocklen: u64,
        child: Arc<TypeDesc>,
    },
    /// `MPI_Type_create_struct`: fields of `(byte displacement, count,
    /// child)`.
    Struct {
        fields: Arc<[(u64, u64, Arc<TypeDesc>)]>,
    },
    /// `MPI_Type_create_subarray` (C order): an `ndims`-dimensional slab.
    Subarray {
        sizes: Arc<[u64]>,
        subsizes: Arc<[u64]>,
        starts: Arc<[u64]>,
        child: Arc<TypeDesc>,
    },
    /// `MPI_Type_create_resized`: override the extent.
    Resized { extent: u64, child: Arc<TypeDesc> },
}

impl TypeDesc {
    /// True payload size in bytes of one element (sum of all primitive
    /// bytes), as `MPI_Type_size` reports.
    pub fn size(&self) -> u64 {
        match self {
            TypeDesc::Named(p) => p.size(),
            TypeDesc::Contiguous { count, child } => count * child.size(),
            TypeDesc::Vector {
                count,
                blocklen,
                child,
                ..
            }
            | TypeDesc::Hvector {
                count,
                blocklen,
                child,
                ..
            } => count * blocklen * child.size(),
            TypeDesc::Indexed { blocks, child } | TypeDesc::Hindexed { blocks, child } => {
                blocks.iter().map(|&(_, len)| len).sum::<u64>() * child.size()
            }
            TypeDesc::IndexedBlock {
                displacements,
                blocklen,
                child,
            } => displacements.len() as u64 * blocklen * child.size(),
            TypeDesc::Struct { fields } => fields
                .iter()
                .map(|(_, count, child)| count * child.size())
                .sum(),
            TypeDesc::Subarray {
                subsizes, child, ..
            } => subsizes.iter().product::<u64>() * child.size(),
            TypeDesc::Resized { child, .. } => child.size(),
        }
    }

    /// Extent in bytes of one element (`MPI_Type_get_extent`), i.e. the
    /// stride between consecutive elements when `count > 1`. Lower bound is
    /// always zero in this engine.
    pub fn extent(&self) -> u64 {
        match self {
            TypeDesc::Named(p) => p.size(),
            TypeDesc::Contiguous { count, child } => count * child.extent(),
            TypeDesc::Vector {
                count,
                blocklen,
                stride,
                child,
            } => {
                if *count == 0 {
                    0
                } else {
                    ((count - 1) * stride + blocklen) * child.extent()
                }
            }
            TypeDesc::Hvector {
                count,
                blocklen,
                stride_bytes,
                child,
            } => {
                if *count == 0 {
                    0
                } else {
                    (count - 1) * stride_bytes + blocklen * child.extent()
                }
            }
            TypeDesc::Indexed { blocks, child } => blocks
                .iter()
                .map(|&(disp, len)| (disp + len) * child.extent())
                .max()
                .unwrap_or(0),
            TypeDesc::Hindexed { blocks, child } => blocks
                .iter()
                .map(|&(disp, len)| disp + len * child.extent())
                .max()
                .unwrap_or(0),
            TypeDesc::IndexedBlock {
                displacements,
                blocklen,
                child,
            } => displacements
                .iter()
                .map(|&disp| (disp + blocklen) * child.extent())
                .max()
                .unwrap_or(0),
            TypeDesc::Struct { fields } => fields
                .iter()
                .map(|(disp, count, child)| disp + count * child.extent())
                .max()
                .unwrap_or(0),
            TypeDesc::Subarray { sizes, child, .. } => {
                sizes.iter().product::<u64>() * child.extent()
            }
            TypeDesc::Resized { extent, .. } => *extent,
        }
    }

    /// Is this a (possibly nested) fully contiguous type?
    pub fn is_contiguous(&self) -> bool {
        self.size() == self.true_extent()
    }

    /// Extent ignoring `Resized` overrides (distance from first to last
    /// byte actually touched).
    fn true_extent(&self) -> u64 {
        match self {
            TypeDesc::Resized { child, .. } => child.true_extent(),
            _ => self.extent(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TypeBuilder;

    #[test]
    fn primitive_sizes() {
        assert_eq!(Primitive::Byte.size(), 1);
        assert_eq!(Primitive::Int32.size(), 4);
        assert_eq!(Primitive::Float32.size(), 4);
        assert_eq!(Primitive::Float64.size(), 8);
        assert_eq!(Primitive::Complex128.size(), 16);
    }

    #[test]
    fn contiguous_size_and_extent() {
        let t = TypeBuilder::contiguous(10, TypeBuilder::double());
        assert_eq!(t.size(), 80);
        assert_eq!(t.extent(), 80);
        assert!(t.is_contiguous());
    }

    #[test]
    fn vector_size_vs_extent() {
        // 4 blocks of 2 doubles, stride 5 doubles.
        let t = TypeBuilder::vector(4, 2, 5, TypeBuilder::double());
        assert_eq!(t.size(), 4 * 2 * 8);
        assert_eq!(t.extent(), ((4 - 1) * 5 + 2) * 8);
        assert!(!t.is_contiguous());
    }

    #[test]
    fn vector_with_unit_stride_is_contiguous() {
        let t = TypeBuilder::vector(4, 1, 1, TypeBuilder::double());
        assert_eq!(t.size(), t.extent());
        assert!(t.is_contiguous());
    }

    #[test]
    fn indexed_extent_is_max_end() {
        // Blocks at element displacements 0(len 2) and 10(len 3) of ints.
        let t = TypeBuilder::indexed(&[(0, 2), (10, 3)], TypeBuilder::int());
        assert_eq!(t.size(), 5 * 4);
        assert_eq!(t.extent(), 13 * 4);
    }

    #[test]
    fn struct_extent_spans_fields() {
        let t =
            TypeBuilder::structure(&[(0, 3, TypeBuilder::float()), (64, 2, TypeBuilder::double())]);
        assert_eq!(t.size(), 3 * 4 + 2 * 8);
        assert_eq!(t.extent(), 64 + 16);
    }

    #[test]
    fn subarray_size_and_extent() {
        // 8x8 array, 3x4 subarray starting at (1,2), ints.
        let t = TypeBuilder::subarray(&[8, 8], &[3, 4], &[1, 2], TypeBuilder::int());
        assert_eq!(t.size(), 12 * 4);
        assert_eq!(t.extent(), 64 * 4);
    }

    #[test]
    fn resized_overrides_extent_only() {
        let inner = TypeBuilder::vector(2, 1, 4, TypeBuilder::int());
        let t = TypeBuilder::resized(64, inner.clone());
        assert_eq!(t.size(), inner.size());
        assert_eq!(t.extent(), 64);
    }

    #[test]
    fn empty_vector_has_zero_extent() {
        let t = TypeBuilder::vector(0, 2, 5, TypeBuilder::double());
        assert_eq!(t.extent(), 0);
        assert_eq!(t.size(), 0);
    }
}
