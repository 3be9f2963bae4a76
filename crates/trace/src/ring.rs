//! Per-scope lock-free event ring buffers.
//!
//! Each traced *scope* (a domain, tagged `node << 32 | domain`) gets its own
//! fixed-capacity ring. Writers never block: a slot index comes from one
//! `fetch_add` and the slot is published with a seqlock-style sequence
//! number, so concurrent door calls from many threads record without taking
//! any lock. The ring overwrites its oldest events when full — tracing is a
//! diagnostic window, not a reliable log — and readers detect and skip
//! slots that are mid-write.

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

/// Default ring capacity per scope (events, rounded up to a power of two).
pub const DEFAULT_CAPACITY: usize = 4096;

/// One completed span, recorded when the span ends.
#[derive(Clone, Copy, Debug, Default)]
pub struct Event {
    /// End-to-end trace identifier.
    pub trace: u64,
    /// This span's identifier.
    pub span: u64,
    /// Parent span identifier (0 for a root span).
    pub parent: u64,
    /// The scope (domain tag) the span executed in.
    pub scope: u64,
    /// Subcontract identifier or door token the span is keyed by (0: none).
    pub scid: u64,
    /// Operation key (`"invoke"`, `"door_call"`, `"net.hop"`, ...).
    pub key: &'static str,
    /// Start time, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// True when the span ended in failure (for example a dropped hop).
    pub failed: bool,
}

/// A slot: sequence number plus the event payload. Sequence protocol (with
/// `i` the monotonically increasing write index for the slot):
/// `2i + 1` while the writer is copying in, `2i + 2` once published. Readers
/// accept a slot only when they observe the same even sequence before and
/// after copying out.
struct Slot {
    seq: AtomicU64,
    ev: UnsafeCell<Event>,
}

/// A fixed-capacity, lock-free, overwrite-oldest event ring.
pub struct Ring {
    mask: u64,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

// SAFETY: slot payloads are raced deliberately; the sequence protocol makes
// readers discard any slot whose bytes may be torn, and `Event` is `Copy`
// with no interior pointers (the `&'static str` key is immutable).
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

impl Ring {
    /// Creates a ring holding `capacity` events (rounded up to a power of
    /// two, minimum 2).
    pub fn new(capacity: usize) -> Ring {
        let cap = capacity.next_power_of_two().max(2);
        Ring {
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            slots: (0..cap)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    ev: UnsafeCell::new(Event::default()),
                })
                .collect(),
        }
    }

    /// Records one event; never blocks, overwrites the oldest on wrap.
    pub fn record(&self, ev: Event) {
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(i & self.mask) as usize];
        slot.seq.store(2 * i + 1, Ordering::Release);
        // SAFETY: the odd sequence number marks the slot as mid-write; any
        // reader observing it discards the slot. A concurrent writer that
        // lapped the ring writes a larger sequence, which readers also use
        // to reject the torn value.
        unsafe { *slot.ev.get() = ev };
        slot.seq.store(2 * i + 2, Ordering::Release);
    }

    /// Number of events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Copies out every currently readable event, oldest first by start
    /// time. Slots being concurrently written are skipped.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue;
            }
            // SAFETY: the copy may race a writer; the re-check below rejects
            // the value unless the sequence was stable across the copy.
            let ev = unsafe { *slot.ev.get() };
            let after = slot.seq.load(Ordering::Acquire);
            if before == after {
                out.push(ev);
            }
        }
        out.sort_by_key(|e| (e.start_ns, e.span));
        out
    }
}

/// Scope id -> ring registry.
static RINGS: OnceLock<RwLock<HashMap<u64, Arc<Ring>>>> = OnceLock::new();

fn rings() -> &'static RwLock<HashMap<u64, Arc<Ring>>> {
    RINGS.get_or_init(|| RwLock::new(HashMap::new()))
}

/// The ring for `scope`, created at [`DEFAULT_CAPACITY`] on first use.
pub fn ring_for(scope: u64) -> Arc<Ring> {
    if let Some(r) = rings().read().get(&scope) {
        return Arc::clone(r);
    }
    Arc::clone(
        rings()
            .write()
            .entry(scope)
            .or_insert_with(|| Arc::new(Ring::new(DEFAULT_CAPACITY))),
    )
}

/// Every scope that has a ring.
pub fn scopes() -> Vec<u64> {
    let mut s: Vec<u64> = rings().read().keys().copied().collect();
    s.sort_unstable();
    s
}

/// Snapshot of one scope's events (empty when the scope has no ring).
pub fn events_for(scope: u64) -> Vec<Event> {
    rings()
        .read()
        .get(&scope)
        .map(|r| r.snapshot())
        .unwrap_or_default()
}

/// Snapshot of every scope's events, merged and ordered by start time.
pub fn events() -> Vec<Event> {
    let rings: Vec<Arc<Ring>> = self::rings().read().values().cloned().collect();
    let mut out = Vec::new();
    for r in rings {
        out.extend(r.snapshot());
    }
    out.sort_by_key(|e| (e.start_ns, e.span));
    out
}

/// Drops every ring (fresh window for the next test or bench section).
pub fn clear() {
    rings().write().clear();
    crate::sink::forget();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let ring = Ring::new(8);
        for i in 0..3u64 {
            ring.record(Event {
                trace: 1,
                span: i + 1,
                start_ns: i,
                key: "t",
                ..Event::default()
            });
        }
        let evs = ring.snapshot();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].span, 1);
        assert_eq!(evs[2].span, 3);
        assert_eq!(ring.recorded(), 3);
    }

    #[test]
    fn overwrites_oldest_on_wrap() {
        let ring = Ring::new(4);
        for i in 0..10u64 {
            ring.record(Event {
                span: i,
                start_ns: i,
                ..Event::default()
            });
        }
        let evs = ring.snapshot();
        assert_eq!(evs.len(), 4);
        // Only the newest four survive.
        assert!(evs.iter().all(|e| e.span >= 6));
    }

    #[test]
    fn concurrent_writers_do_not_corrupt() {
        let ring = Arc::new(Ring::new(64));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        ring.record(Event {
                            trace: t,
                            span: i,
                            key: "w",
                            ..Event::default()
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ring.recorded(), 4000);
        // Every surviving event must be internally consistent.
        for ev in ring.snapshot() {
            assert!(ev.trace < 4);
            assert!(ev.span < 1000);
            assert_eq!(ev.key, "w");
        }
    }
}
