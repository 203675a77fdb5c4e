//! MPI-style message matching, shared between transports.
//!
//! Matching follows the MPI rules every backend must agree on: a receive
//! names an exact source or the wildcard (`None`) and an exact tag or the
//! wildcard, arrivals match posted receives in post order, posted receives
//! match buffered arrivals in arrival order, and the per-`(source, tag)`
//! stream is FIFO. All three engines delegate to this queue: the
//! in-process mailboxes ([`crate::RtMpi`]), the socket wire backend's
//! progress engine (`crates/wire`) and the discrete-event simulator
//! (`mpisim::engine`, one queue per communicator — matching never crosses
//! communicators, so that keeps one queue's order). They cannot drift
//! apart on matching semantics, the reserved-tag wildcard rule included.
//!
//! The queue is generic over the *receive token* `R` (what a posted
//! receive resolves to — an in-process request handle, a wire request
//! id, or a simulated request) and the *buffered message* `M` (an eager
//! payload, or a rendezvous RTS descriptor awaiting its CTS).

use std::collections::VecDeque;

use crate::Tag;

/// A posted receive waiting for a matching arrival.
#[derive(Debug)]
pub struct PostedRecv<R> {
    pub src: Option<usize>,
    pub tag: Option<Tag>,
    pub token: R,
}

/// A buffered (unexpected) arrival waiting for a matching receive.
#[derive(Debug)]
pub struct Unexpected<M> {
    pub src: usize,
    pub tag: Tag,
    pub msg: M,
}

/// Does a `(src, tag)` filter pair accept an arrival from `src`/`tag`?
/// `None` is the MPI wildcard (`MPI_ANY_SOURCE` / `MPI_ANY_TAG`).
///
/// A wildcard tag deliberately does **not** match the reserved internal
/// tag space (`tag >= `[`crate::TAG_RESERVED_BASE`]): collective rounds
/// and barrier tokens travel on reserved tags, and an application
/// `ANY_TAG` receive must never consume them. Internal receives always
/// name their exact tag, so exact matches in the reserved range are
/// unaffected.
pub fn filter_matches(
    src_filter: Option<usize>,
    tag_filter: Option<Tag>,
    src: usize,
    tag: Tag,
) -> bool {
    let tag_ok = match tag_filter {
        Some(t) => t == tag,
        // Seeded regression (protocheck rediscovers it): before the
        // exclusion below, ANY_TAG matched reserved tags and could steal a
        // collective round's frame from the NBC schedule.
        #[cfg(feature = "model-faults")]
        None if crate::faults::wildcard_reserved_leak() => true,
        None => tag < crate::TAG_RESERVED_BASE,
    };
    src_filter.is_none_or(|s| s == src) && tag_ok
}

/// The two-sided matching queue: posted receives on one side, unexpected
/// arrivals on the other. At most one side is non-empty for any matching
/// `(source, tag)` pair — an invariant both transports rely on.
#[derive(Debug)]
pub struct MatchQueue<R, M> {
    posted: VecDeque<PostedRecv<R>>,
    unexpected: VecDeque<Unexpected<M>>,
}

impl<R, M> Default for MatchQueue<R, M> {
    fn default() -> Self {
        Self {
            posted: VecDeque::new(),
            unexpected: VecDeque::new(),
        }
    }
}

impl<R, M> MatchQueue<R, M> {
    pub fn new() -> Self {
        Self::default()
    }

    /// An arrival from `(src, tag)`: remove and return the *first* posted
    /// receive that accepts it (post order — the MPI matching rule).
    pub fn take_posted(&mut self, src: usize, tag: Tag) -> Option<PostedRecv<R>> {
        let pos = self
            .posted
            .iter()
            .position(|p| filter_matches(p.src, p.tag, src, tag))?;
        self.posted.remove(pos)
    }

    /// A new receive with the given filters: remove and return the *first*
    /// buffered arrival it accepts (arrival order).
    pub fn take_unexpected(
        &mut self,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Option<Unexpected<M>> {
        let pos = self
            .unexpected
            .iter()
            .position(|u| filter_matches(src, tag, u.src, u.tag))?;
        self.unexpected.remove(pos)
    }

    /// Buffer a receive that found no arrival.
    pub fn push_posted(&mut self, src: Option<usize>, tag: Option<Tag>, token: R) {
        self.posted.push_back(PostedRecv { src, tag, token });
    }

    /// Buffer an arrival that found no receive.
    pub fn push_unexpected(&mut self, src: usize, tag: Tag, msg: M) {
        self.unexpected.push_back(Unexpected { src, tag, msg });
    }

    /// Non-consuming probe of the unexpected queue (MPI_Iprobe).
    pub fn probe(&self, src: Option<usize>, tag: Option<Tag>) -> Option<(usize, Tag, &M)> {
        self.unexpected
            .iter()
            .find(|u| filter_matches(src, tag, u.src, u.tag))
            .map(|u| (u.src, u.tag, &u.msg))
    }

    /// Remove and return every posted receive that names `src` as its
    /// exact source — used when a peer dies so its receivers can be failed
    /// instead of hanging. Wildcard-source receives are left posted (they
    /// may still match a live peer).
    pub fn take_posted_from(&mut self, src: usize) -> Vec<PostedRecv<R>> {
        let mut taken = Vec::new();
        let mut keep = VecDeque::with_capacity(self.posted.len());
        for p in self.posted.drain(..) {
            if p.src == Some(src) {
                taken.push(p);
            } else {
                keep.push_back(p);
            }
        }
        self.posted = keep;
        taken
    }

    /// Keep only the buffered arrivals `f` accepts — used when a peer dies
    /// to purge arrivals that can no longer complete (a rendezvous RTS
    /// whose DATA will never come), while keeping fully-delivered ones.
    pub fn retain_unexpected(&mut self, f: impl FnMut(&Unexpected<M>) -> bool) {
        self.unexpected.retain(f);
    }

    pub fn posted_len(&self) -> usize {
        self.posted.len()
    }

    pub fn unexpected_len(&self) -> usize {
        self.unexpected.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildcards_and_exact_filters() {
        assert!(filter_matches(None, None, 3, 9));
        assert!(filter_matches(Some(3), None, 3, 9));
        assert!(filter_matches(None, Some(9), 3, 9));
        assert!(!filter_matches(Some(2), None, 3, 9));
        assert!(!filter_matches(None, Some(8), 3, 9));
    }

    #[test]
    fn wildcard_tag_excludes_reserved_internal_space() {
        use crate::{TAG_COLL_BASE, TAG_COLL_SPAN, TAG_RESERVED_BASE};
        // ANY_TAG never matches reserved tags, inside the collective
        // sub-range or above it...
        assert!(!filter_matches(None, None, 0, TAG_RESERVED_BASE));
        assert!(!filter_matches(Some(0), None, 0, TAG_RESERVED_BASE + 17));
        assert!(!filter_matches(
            None,
            None,
            2,
            TAG_COLL_BASE + TAG_COLL_SPAN
        ));
        assert!(!filter_matches(
            None,
            None,
            2,
            TAG_COLL_BASE + 2 * TAG_COLL_SPAN - 1
        ));
        // ...while exact filters on reserved tags (what collective-round
        // receives post) still match, and the app range is untouched.
        assert!(filter_matches(
            Some(1),
            Some(TAG_RESERVED_BASE + 17),
            1,
            TAG_RESERVED_BASE + 17
        ));
        assert!(filter_matches(None, None, 1, TAG_RESERVED_BASE - 1));
    }

    #[test]
    fn wildcard_recv_skips_buffered_internal_arrival() {
        let mut q: MatchQueue<(), u8> = MatchQueue::new();
        // A barrier token arrives before the wildcard recv is served...
        q.push_unexpected(1, crate::TAG_COLL_BASE + 7, 0xB0);
        q.push_unexpected(1, 5, 0xA0);
        // ...the ANY_SOURCE/ANY_TAG recv must take the *app* message.
        assert_eq!(q.take_unexpected(None, None).map(|u| u.msg), Some(0xA0));
        // The token stays for the exact-tag internal receive.
        assert_eq!(
            q.take_unexpected(Some(1), Some(crate::TAG_COLL_BASE + 7))
                .map(|u| u.msg),
            Some(0xB0)
        );
        // An internal arrival never matches a posted wildcard recv either.
        let mut q: MatchQueue<u32, ()> = MatchQueue::new();
        q.push_posted(None, None, 7);
        assert!(q.take_posted(0, crate::TAG_RESERVED_BASE + 3).is_none());
        assert_eq!(q.take_posted(0, 3).map(|p| p.token), Some(7));
    }

    #[test]
    fn arrivals_match_in_post_order() {
        let mut q: MatchQueue<u32, ()> = MatchQueue::new();
        q.push_posted(None, None, 1); // wildcard, posted first
        q.push_posted(Some(0), Some(5), 2);
        // Arrival from (0, 5) must match the *first* posted recv even
        // though the second names it exactly.
        assert_eq!(q.take_posted(0, 5).map(|p| p.token), Some(1));
        assert_eq!(q.take_posted(0, 5).map(|p| p.token), Some(2));
        assert!(q.take_posted(0, 5).is_none());
    }

    #[test]
    fn receives_match_in_arrival_order() {
        let mut q: MatchQueue<(), u8> = MatchQueue::new();
        q.push_unexpected(0, 1, 10);
        q.push_unexpected(1, 1, 11);
        q.push_unexpected(0, 1, 12);
        // Wildcard source takes arrival order; exact source skips others.
        assert_eq!(q.take_unexpected(None, Some(1)).map(|u| u.msg), Some(10));
        assert_eq!(q.take_unexpected(Some(1), None).map(|u| u.msg), Some(11));
        assert_eq!(q.take_unexpected(None, None).map(|u| u.msg), Some(12));
    }

    #[test]
    fn probe_does_not_consume() {
        let mut q: MatchQueue<(), u8> = MatchQueue::new();
        q.push_unexpected(2, 7, 42);
        assert_eq!(q.probe(Some(2), None).map(|(_, _, m)| *m), Some(42));
        assert_eq!(q.unexpected_len(), 1);
        assert!(q.probe(Some(1), None).is_none());
    }

    #[test]
    fn peer_death_drains_only_exact_source_receives() {
        let mut q: MatchQueue<u32, ()> = MatchQueue::new();
        q.push_posted(Some(1), None, 1);
        q.push_posted(None, None, 2);
        q.push_posted(Some(1), Some(4), 3);
        q.push_posted(Some(0), None, 4);
        let dead: Vec<u32> = q.take_posted_from(1).into_iter().map(|p| p.token).collect();
        assert_eq!(dead, vec![1, 3]);
        assert_eq!(q.posted_len(), 2);
    }
}
