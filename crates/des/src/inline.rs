//! An inline-first list: the small-vector the simulator's hot paths use
//! for extents and completion tags.

use std::fmt;

/// A list that stores up to `N` elements in place and spills to a `Vec`
/// beyond that.
///
/// Once the list spills, the `Vec` holds *every* element and stays the
/// storage until it is emptied; [`clear`](Self::clear) keeps its
/// capacity for reuse. Dereferences to `[T]` for iteration and indexing.
/// `N` must fit the `u8` length.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize> {
    /// Valid in `..len` while `spill` is empty.
    inline: [T; N],
    /// Inline length; once the list spills, `spill.len()` is the truth.
    len: u8,
    /// Heap storage after overflow; holds *all* elements then.
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Creates an empty list (no allocation).
    pub fn new() -> Self {
        const { assert!(N <= u8::MAX as usize, "inline capacity must fit a u8") };
        InlineVec {
            inline: [T::default(); N],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Creates a list holding one element (no allocation).
    pub fn one(a: T) -> Self {
        let mut l = Self::new();
        l.inline[0] = a;
        l.len = 1;
        l
    }

    /// Creates a list holding two elements (no allocation).
    pub fn two(a: T, b: T) -> Self {
        let mut l = Self::new();
        l.inline[0] = a;
        l.inline[1] = b;
        l.len = 2;
        l
    }

    /// Appends an element, spilling to the heap past `N`.
    pub fn push(&mut self, e: T) {
        if self.spill.is_empty() && (self.len as usize) < N {
            self.inline[self.len as usize] = e;
            self.len += 1;
        } else {
            if self.spill.is_empty() {
                self.spill.reserve(N * 2);
                self.spill
                    .extend_from_slice(&self.inline[..self.len as usize]);
                self.len = 0;
            }
            self.spill.push(e);
        }
    }

    /// Removes and returns the last element.
    pub fn pop(&mut self) -> Option<T> {
        if !self.spill.is_empty() {
            // Draining the spill below the inline capacity is fine: the
            // spill stays authoritative while non-empty, and an empty
            // spill with `len == 0` reads as an empty list.
            return self.spill.pop();
        }
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        Some(self.inline[self.len as usize])
    }
}

impl<T, const N: usize> InlineVec<T, N> {
    /// Empties the list, keeping any spill capacity for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.spill.is_empty() {
            &mut self.inline[..self.len as usize]
        } else {
            &mut self.spill
        }
    }

    /// True when the list heap-allocated (diagnostics/tests).
    pub fn spilled(&self) -> bool {
        !self.spill.is_empty()
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T, const N: usize> std::ops::DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Self::new();
        for e in iter {
            out.push(e);
        }
        out
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(v: Vec<T>) -> Self {
        v.into_iter().collect()
    }
}

impl<T: Copy + Default, const N: usize, const M: usize> From<[T; M]> for InlineVec<T, N> {
    fn from(a: [T; M]) -> Self {
        a.into_iter().collect()
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_keeps_the_spill_capacity() {
        let mut l: InlineVec<u64, 2> = [1, 2, 3].into();
        let cap = l.spill.capacity();
        assert!(cap >= 4, "a spill reserves twice the inline capacity");
        l.clear();
        assert!(l.is_empty() && !l.spilled());
        assert_eq!(l.spill.capacity(), cap);
        // Refilling goes inline first, then reuses the kept spill.
        for e in [4, 5, 6] {
            l.push(e);
        }
        assert_eq!(l.as_slice(), &[4, 5, 6]);
        assert_eq!(l.spill.capacity(), cap);
    }

    #[test]
    fn pop_drains_the_spill_then_the_inline_elements() {
        let mut l: InlineVec<u64, 2> = [1, 2, 3].into();
        assert_eq!(l.pop(), Some(3));
        assert!(l.spilled(), "the spill stays the storage while non-empty");
        assert_eq!(&l[..], &[1, 2]);
        let mut l = InlineVec::<u64, 4>::two(7, 8);
        assert_eq!(l.pop(), Some(8));
        assert_eq!(l.pop(), Some(7));
        assert_eq!(l.pop(), None);
    }
}
