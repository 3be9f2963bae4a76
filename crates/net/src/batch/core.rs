//! The link batcher's decisions (DESIGN.md §5.12) without a lock, a thread
//! or a clock: who leads the frame forming on a link, when it ships, what
//! taking it resets, and how a call's outcome is written.
//!
//! The shell (`batch.rs`) holds the lock, parks followers, reads the clock
//! and runs the shipper. [`Forming`] is generic over the entry, and
//! [`settle`] and [`land`] over the outcome, so the model in
//! `batch/explore.rs` drives them with plain ids and checks §5.12's
//! invariants after every step.

use crate::transport::ReplyOutcome;

/// Most calls one frame coalesces.
const MAX_CALLS: usize = 64;

/// Most payload bytes one frame coalesces.
const MAX_BYTES: usize = 256 * 1024;

/// The frame forming on one link, as the shell's lock guards it. Every call
/// aboard reported company: a plain call never boards (it ships alone).
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub(crate) struct Forming<E> {
    /// The calls aboard in arrival order, the leader's first.
    pub(crate) calls: Vec<E>,
    bytes: usize,
    /// The largest company a call aboard reported: how many pipelined
    /// calls the frame is worth holding for.
    pub(crate) expected: u32,
}

impl<E> Default for Forming<E> {
    fn default() -> Self {
        Forming {
            calls: Vec::new(),
            bytes: 0,
            expected: 0,
        }
    }
}

impl<E> Forming<E> {
    /// A call of `bytes` payload bytes whose caller reported `company` (at
    /// least 1) boards the frame. Returns whether its caller leads the
    /// frame — it is the first aboard — or follows; `entry` builds what
    /// boards, knowing which. (The leader takes every call when it stands
    /// down, so a frame with calls aboard has a leader collecting it.)
    pub fn arrive(&mut self, bytes: usize, company: u32, entry: impl FnOnce(bool) -> E) -> bool {
        debug_assert!(company > 0, "a plain call ships alone, never aboard");
        let leads = self.calls.is_empty();
        self.bytes += bytes;
        self.expected = self.expected.max(company);
        self.calls.push(entry(leads));
        leads
    }

    /// Whether the leader ships now: the frame is full, every call the
    /// calls aboard said was coming is aboard, or the linger deadline has
    /// passed (`lingered`, an input: the shell owns the clock).
    pub fn should_flush(&self, lingered: bool) -> bool {
        lingered
            || self.calls.len() >= MAX_CALLS
            || self.bytes >= MAX_BYTES
            || self.calls.len() >= self.expected as usize
    }

    /// The leader takes the frame, leaving `spare` (empty) in its place and
    /// nothing of what the frame waited for: the next arrival leads.
    pub fn take(&mut self, spare: Vec<E>) -> Vec<E> {
        (self.bytes, self.expected) = (0, 0);
        std::mem::replace(&mut self.calls, spare)
    }
}

/// Where a call's outcome is written: a follower's slot holds an `Option`,
/// a shipping caller's entry its stage.
pub(crate) trait Cell {
    type Outcome;

    /// Whether an outcome has been written.
    fn is_settled(&self) -> bool;

    fn write(&mut self, outcome: Self::Outcome);
}

impl<T> Cell for Option<T> {
    type Outcome = T;

    fn is_settled(&self) -> bool {
        self.is_some()
    }

    fn write(&mut self, outcome: T) {
        *self = Some(outcome);
    }
}

/// Settles a call's outcome `cell` with `outcome()` unless it was settled
/// before — by the shipper, or by the batcher's backstop when the shipper
/// is back and settled nothing — and returns whether it did: the first
/// write wins, and the ones after it are never evaluated.
pub(crate) fn settle<C: Cell>(cell: &mut C, outcome: impl FnOnce() -> C::Outcome) -> bool {
    let first = !cell.is_settled();
    if first {
        cell.write(outcome());
    }
    first
}

/// What became of a call, as its caller reads it: `land` turns a reply
/// into that, and only a call that never reached its door
/// (`NotDelivered`) runs `release` for the pins freshly made for it —
/// after `Ok` or `Failed` the far side may reference them. Evaluated by a
/// first write only, so a call's pins follow the outcome its caller reads.
pub(crate) fn land<W, M, E>(
    outcome: ReplyOutcome<W, E>,
    land: impl FnOnce(W) -> Result<M, E>,
    release: impl FnOnce(),
) -> Result<M, E> {
    match outcome {
        ReplyOutcome::Ok(reply) => land(reply),
        ReplyOutcome::NotDelivered(e) => {
            release();
            Err(e)
        }
        ReplyOutcome::Failed(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame that reaches either budget ships although the company its
    /// calls reported is not all aboard; taking it forgets that company.
    #[test]
    fn a_full_frame_flushes_with_its_company_unmet() {
        let mut full = Forming::default();
        for _ in 1..MAX_CALLS {
            full.arrive(1, 1000, |_| ());
        }
        assert!(!full.should_flush(false));
        full.arrive(1, 1000, |_| ());
        assert!(full.should_flush(false), "{MAX_CALLS} calls aboard");

        let mut sized = Forming::default();
        sized.arrive(MAX_BYTES - 1, 1000, |_| ());
        assert!(!sized.should_flush(false));
        sized.arrive(1, 1000, |_| ());
        assert!(sized.should_flush(false), "{MAX_BYTES} bytes aboard");

        assert_eq!(sized.take(Vec::new()).len(), 2);
        assert!(sized.arrive(1, 1, |_| ()), "the next call leads");
        assert!(sized.should_flush(false), "a frame that flushes at once");
    }

    /// A plain call never boards: `arrive` holds its callers to that.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a plain call ships alone")]
    fn a_plain_call_never_boards() {
        Forming::<()>::default().arrive(1, 0, |_| ());
    }
}
