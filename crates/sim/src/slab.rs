//! A free-list slab allocator for hot-path object storage.
//!
//! The simulator's data plane used to box every in-flight node (event
//! records, wire messages) individually; under sustained load that churns
//! the global allocator on every push/pop. A [`Slab`] keeps entries in one
//! growable `Vec` and recycles vacated indices through an intrusive free
//! list, so steady-state traffic allocates nothing at all. Keys are plain
//! `u32` indices — half the size of a pointer, and trivially storable
//! inside event payloads.

/// Sentinel index meaning "no entry" — shared by the slab free list and
/// the event-wheel's intrusive slot lists.
pub const NIL: u32 = u32::MAX;

#[derive(Debug)]
enum Entry<T> {
    Occupied(T),
    Free { next: u32 },
}

/// Vec-backed slab with free-list reuse and an occupancy high-water mark.
#[derive(Debug)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    free_head: u32,
    len: u32,
    high_water: u32,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    pub fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free_head: NIL,
            len: 0,
            high_water: 0,
        }
    }

    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            entries: Vec::with_capacity(cap),
            free_head: NIL,
            len: 0,
            high_water: 0,
        }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Peak number of simultaneously live entries over the slab's lifetime.
    /// This is the allocator-churn health metric surfaced in run reports:
    /// total slab memory is `high_water × size_of::<T>()` regardless of how
    /// many billions of inserts flowed through.
    #[inline]
    pub fn high_water(&self) -> u32 {
        self.high_water
    }

    /// Number of entry slots ever created (occupied + recyclable); always
    /// equals `high_water` unless entries were freed below the peak.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Store `value`, reusing a vacated index when one exists.
    pub fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
        if self.free_head != NIL {
            let key = self.free_head;
            match self.entries[key as usize] {
                Entry::Free { next } => self.free_head = next,
                Entry::Occupied(_) => unreachable!("free list points at a live entry"),
            }
            self.entries[key as usize] = Entry::Occupied(value);
            key
        } else {
            let key = self.entries.len() as u32;
            assert!(key != NIL, "slab full: 2^32-1 live entries");
            self.entries.push(Entry::Occupied(value));
            key
        }
    }

    /// Remove and return the entry at `key`.
    ///
    /// Panics on a dead or out-of-range key: a double-remove means two
    /// owners believed they held the same index, which is exactly the
    /// aliasing bug slabs are prone to — fail loudly instead of handing
    /// one owner another owner's data.
    pub fn remove(&mut self, key: u32) -> T {
        let slot = &mut self.entries[key as usize];
        match std::mem::replace(
            slot,
            Entry::Free {
                next: self.free_head,
            },
        ) {
            Entry::Occupied(value) => {
                self.free_head = key;
                self.len -= 1;
                value
            }
            Entry::Free { next } => {
                // Undo the replace so the free list stays consistent even if
                // the caller catches the panic.
                *slot = Entry::Free { next };
                panic!("slab::remove on vacant key {key}");
            }
        }
    }

    #[inline]
    pub fn get(&self, key: u32) -> Option<&T> {
        match self.entries.get(key as usize) {
            Some(Entry::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    #[inline]
    pub fn get_mut(&mut self, key: u32) -> Option<&mut T> {
        match self.entries.get_mut(key as usize) {
            Some(Entry::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    #[inline]
    pub fn contains(&self, key: u32) -> bool {
        matches!(self.entries.get(key as usize), Some(Entry::Occupied(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.remove(a), "a");
        assert_eq!(s.get(a), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn freed_indices_are_reused_lifo() {
        let mut s = Slab::new();
        let a = s.insert(1);
        let b = s.insert(2);
        s.remove(a);
        s.remove(b);
        // LIFO reuse: most recently freed index comes back first.
        assert_eq!(s.insert(3), b);
        assert_eq!(s.insert(4), a);
        assert_eq!(s.capacity(), 2);
    }

    #[test]
    fn high_water_tracks_peak_not_total() {
        let mut s = Slab::new();
        for round in 0..10 {
            let keys: Vec<_> = (0..4).map(|i| s.insert(round * 4 + i)).collect();
            for k in keys {
                s.remove(k);
            }
        }
        assert_eq!(s.high_water(), 4);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "vacant key")]
    fn double_remove_panics() {
        let mut s = Slab::new();
        let k = s.insert(());
        s.remove(k);
        s.remove(k);
    }
}
