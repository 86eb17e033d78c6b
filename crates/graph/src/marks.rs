//! Visited marks that a new round clears in O(1).

/// Marks over `0..n` that [`Marks::clear`] resets by bumping a tag
/// instead of touching them, so a warm round allocates nothing.
///
/// The one visited set under the workspace's graph searches: the fan-in
/// walk ([`crate::cone::fanin_cone_into`]), the loop query
/// ([`crate::comb::LoopQuery`]), the orbit counters, the Phase-3 reward
/// and the sampler's dedup. Call [`Marks::clear`] before a round's
/// first mark.
#[derive(Clone, Debug, Default)]
pub struct Marks {
    seen: Vec<u32>,
    tag: u32,
}

impl Marks {
    /// Clears every mark for a round over `0..n`. Once every 2³² − 1
    /// rounds the tag wraps, and the stored marks are zeroed then.
    #[inline]
    pub fn clear(&mut self, n: usize) {
        if self.seen.len() < n {
            self.seen.resize(n, 0);
        }
        self.tag = self.tag.wrapping_add(1);
        if self.tag == 0 {
            self.seen.fill(0);
            self.tag = 1;
        }
    }

    /// Marks `i`; whether it was unmarked.
    #[inline]
    pub fn mark(&mut self, i: usize) -> bool {
        let fresh = self.seen[i] != self.tag;
        self.seen[i] = self.tag;
        fresh
    }

    /// Whether `i` is marked.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.seen[i] == self.tag
    }

    /// Unmarks `i` (a cleared tag is never 0).
    #[inline]
    pub fn unmark(&mut self, i: usize) {
        self.seen[i] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_wraparound_forgets_every_mark() {
        // A mark from round 1 would read as set again once the tag
        // wraps back to 1, unless the wrap zeroes the stored marks.
        let mut marks = Marks::default();
        marks.clear(4);
        marks.mark(0);
        marks.tag = u32::MAX - 1;
        marks.clear(4);
        assert_eq!(marks.tag, u32::MAX);
        assert!(!marks.contains(0));
        marks.mark(1);
        marks.clear(6);
        assert_eq!(marks.tag, 1, "the tag skips 0 when it wraps");
        assert!((0..6).all(|i| !marks.contains(i)));
        assert!(marks.mark(0) && marks.mark(5) && !marks.mark(0));
        marks.unmark(0);
        assert!(!marks.contains(0) && marks.contains(5));
    }
}
