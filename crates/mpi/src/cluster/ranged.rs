//! A contiguous slice of a global index space.
//!
//! Sharded runs ([`super::shardrun`]) hand each worker the sub-range of
//! ranks (and nodes) it owns, but every protocol path indexes state by
//! *global* rank — `self.ranks[msg.dst.0 as usize]` and friends appear in
//! hundreds of places. [`Ranged`] keeps those sites compiling unchanged:
//! it is a `Vec<T>` plus a base offset whose `Index` impl translates a
//! global index to a local one. A single-queue cluster is simply the
//! degenerate case with `base == 0`.
//!
//! Indexing outside the owned range is a bug (an event escaped its shard)
//! and panics with the offending indices in the message.

use std::ops::{Index, IndexMut, Range};

#[derive(Debug)]
pub(crate) struct Ranged<T> {
    base: usize,
    items: Vec<T>,
}

impl<T> Default for Ranged<T> {
    fn default() -> Self {
        Ranged {
            base: 0,
            items: Vec::new(),
        }
    }
}

impl<T> Ranged<T> {
    /// Wrap a full global array (base 0).
    pub fn from_vec(items: Vec<T>) -> Self {
        Ranged { base: 0, items }
    }

    /// Wrap the sub-range starting at global index `base`.
    pub fn with_base(base: usize, items: Vec<T>) -> Self {
        Ranged { base, items }
    }

    /// Number of owned items (the local count, not the global extent).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Does this range own global index `i`?
    #[inline]
    pub fn contains_index(&self, i: usize) -> bool {
        i >= self.base && i < self.base + self.items.len()
    }

    /// The owned global indices.
    pub fn indices(&self) -> Range<usize> {
        self.base..self.base + self.items.len()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.items.iter_mut()
    }

    /// Two distinct entries at once, by global index:
    /// `(&mut self[a], &mut self[b])`. Panics if `a == b`.
    pub fn pair_mut(&mut self, a: usize, b: usize) -> (&mut T, &mut T) {
        assert_ne!(a, b, "pair_mut needs two distinct indices");
        let (i, j) = (a - self.base, b - self.base);
        if i < j {
            let (lo, hi) = self.items.split_at_mut(j);
            (&mut lo[i], &mut hi[0])
        } else {
            let (lo, hi) = self.items.split_at_mut(i);
            (&mut hi[0], &mut lo[j])
        }
    }

    /// Unwrap the backing storage (recompose path).
    pub fn into_vec(self) -> Vec<T> {
        self.items
    }
}

impl<T> Index<usize> for Ranged<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        debug_assert!(
            self.contains_index(i),
            "global index {i} outside owned range {:?}",
            self.indices()
        );
        &self.items[i - self.base]
    }
}

impl<T> IndexMut<usize> for Ranged<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        debug_assert!(
            self.contains_index(i),
            "global index {i} outside owned range {:?}",
            self.indices()
        );
        &mut self.items[i - self.base]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translates_global_indices() {
        let r = Ranged::with_base(10, vec!["a", "b", "c"]);
        assert_eq!(r[10], "a");
        assert_eq!(r[12], "c");
        assert!(r.contains_index(10) && r.contains_index(12));
        assert!(!r.contains_index(9) && !r.contains_index(13));
        assert_eq!(r.indices(), 10..13);
    }

    #[test]
    fn base_zero_behaves_like_a_vec() {
        let mut r = Ranged::from_vec(vec![1, 2, 3]);
        r[1] += 10;
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![1, 12, 3]);
        assert_eq!(r.into_vec(), vec![1, 12, 3]);
    }

    #[test]
    fn pair_mut_borrows_two_entries_in_either_order() {
        let mut r = Ranged::with_base(5, vec![1, 2, 3]);
        let (a, b) = r.pair_mut(7, 5);
        (*a, *b) = (*b * 10, *a * 10);
        assert_eq!(r.into_vec(), vec![30, 2, 10]);
    }

    #[test]
    #[should_panic(expected = "two distinct indices")]
    fn pair_mut_refuses_one_index_twice() {
        Ranged::from_vec(vec![1, 2]).pair_mut(1, 1);
    }
}
