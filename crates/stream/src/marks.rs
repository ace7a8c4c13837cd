//! A dense vertex set emptied in O(1): the reusable per-update scratch
//! of the streaming monitors.

use ga_graph::VertexId;

/// Set of vertex ids in `0..n`, stored as one `u32` stamp per vertex: an
/// id is in the set iff its stamp equals the current one, so
/// [`Self::clear`] only advances the stamp. When the stamp wraps, every
/// slot is zeroed once, so a mark from 2³² clears ago never reads as
/// live.
#[derive(Default)]
pub(crate) struct VertexMarks {
    stamp_of: Vec<u32>,
    stamp: u32,
}

impl VertexMarks {
    /// Empty the set and let it hold ids below `n`.
    pub(crate) fn clear(&mut self, n: usize) {
        if self.stamp_of.len() < n {
            self.stamp_of.resize(n, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.stamp_of.fill(0);
            self.stamp = 1;
        }
    }

    /// Add `v`; true if it was not already in the set.
    #[inline]
    pub(crate) fn insert(&mut self, v: VertexId) -> bool {
        let slot = &mut self.stamp_of[v as usize];
        let fresh = *slot != self.stamp;
        *slot = self.stamp;
        fresh
    }

    /// Whether `v` is in the set.
    #[inline]
    pub(crate) fn contains(&self, v: VertexId) -> bool {
        self.stamp_of[v as usize] == self.stamp
    }

    /// Marks `stamps_left` clears before the wrap, every slot of `0..n`
    /// holding the first stamp after it: a stale mark only the wrap's
    /// reset removes.
    #[cfg(test)]
    pub(crate) fn pre_wrap(n: usize, stamps_left: u32) -> Self {
        VertexMarks {
            stamp_of: vec![1; n],
            stamp: u32::MAX - stamps_left,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_empties_and_grows() {
        let mut m = VertexMarks::default();
        m.clear(4);
        assert!(m.insert(3));
        assert!(!m.insert(3));
        assert!(m.contains(3) && !m.contains(0));
        m.clear(8);
        assert!(!m.contains(3));
        assert!(m.insert(7));
    }

    #[test]
    fn wrap_resets_stale_marks() {
        let mut m = VertexMarks::pre_wrap(4, 1);
        m.clear(4);
        assert!(!m.contains(0));
        m.clear(4);
        assert_eq!(m.stamp, 1);
        assert!((0..4).all(|v| !m.contains(v)));
    }
}
