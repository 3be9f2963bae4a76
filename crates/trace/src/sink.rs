//! Where a finished span is recorded: its scope's ring and, when keyed, its
//! latency histogram.
//!
//! Both live in locked registries. Looked up there, the end of a span costs
//! two hashes and four atomic read-modify-writes before the first counter
//! moves; a thread that keeps ending the same few spans instead finds the
//! pair in its own direct-mapped memo with one relaxed load and one compare.
//! [`forget`] (called when a registry is cleared) makes every thread drop
//! what it remembered.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::hist::{self, Histogram};
use crate::ring::{self, Event, Ring};

/// Direct-mapped slots per thread (as a power of two); a colliding span
/// takes the slot over.
const SLOT_BITS: u32 = 5;
const SLOTS: usize = 1 << SLOT_BITS;

/// Bumped whenever a registry drops entries; a memo filled under an older
/// value is stale.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// Makes every thread forget the sinks it remembers.
pub(crate) fn forget() {
    GENERATION.fetch_add(1, Ordering::Release);
}

/// The ring and histogram that spans with this `(scope, scid, key)` feed.
struct Sink {
    scope: u64,
    scid: u64,
    key: &'static str,
    ring: Arc<Ring>,
    hist: Option<Arc<Histogram>>,
}

impl Sink {
    /// Looks the pair up in the registries (creating either on first use).
    fn resolve(ev: &Event) -> Sink {
        Sink {
            scope: ev.scope,
            scid: ev.scid,
            key: ev.key,
            ring: ring::ring_for(ev.scope),
            hist: (ev.scid != 0).then(|| hist::histogram(ev.scid, ev.key)),
        }
    }

    fn record(&self, ev: Event) {
        self.ring.record(ev);
        if let Some(hist) = &self.hist {
            hist.record(ev.dur_ns);
        }
    }
}

struct Memo {
    generation: u64,
    slots: [Option<Sink>; SLOTS],
}

thread_local! {
    static MEMO: RefCell<Memo> = const {
        RefCell::new(Memo {
            generation: 0,
            slots: [const { None }; SLOTS],
        })
    };
}

/// Records a finished span: one event into its scope's ring plus, when the
/// span is keyed (`scid != 0`), one sample into the `(scid, key)` histogram.
pub(crate) fn record(ev: Event) {
    let memoized = MEMO.try_with(|memo| {
        let memo = &mut *memo.borrow_mut();
        let generation = GENERATION.load(Ordering::Acquire);
        if generation != memo.generation {
            memo.slots = [const { None }; SLOTS];
            memo.generation = generation;
        }
        // Scopes and door tokens are small integers, subcontract ids are
        // hashes, and one subcontract's span keys differ in length: fold
        // the three and let a Fibonacci multiply spread them.
        let folded = (ev.scope.rotate_left(20) ^ ev.scid).wrapping_add(ev.key.len() as u64);
        let hash = folded.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (u64::BITS - SLOT_BITS);
        let slot = &mut memo.slots[hash as usize];
        let sink = match slot {
            Some(s) if s.scope == ev.scope && s.scid == ev.scid && s.key == ev.key => s,
            _ => slot.insert(Sink::resolve(&ev)),
        };
        sink.record(ev);
    });
    // Only while the thread is tearing its locals down: a span ending that
    // late goes through the registries.
    if memoized.is_err() {
        Sink::resolve(&ev).record(ev);
    }
}
