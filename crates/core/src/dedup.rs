//! Server-side reply cache: the other half of at-most-once invocation.
//!
//! A retrying client cannot tell a call lost on the way in from a reply
//! lost on the way back — but the server can. Every serve door
//! ([`crate::ServeDoor`]) runs its calls through [`ReplyCache::serve`]: the
//! first attempt of a logical call (identified by the
//! [`spring_kernel::CallId`] nonce riding the envelope) executes and its
//! reply is recorded; any later attempt with the same nonce gets the
//! recorded reply back *without re-executing*. Calls with no identity —
//! the overwhelmingly common case — skip the cache entirely on a single
//! branch.
//!
//! Two kinds of reply cannot be replayed byte-for-byte:
//!
//! * replies carrying door identifiers (the identifiers *moved* with the
//!   original reply; minting fresh ones would re-execute side effects),
//! * nothing else — application-level errors are encoded in the reply
//!   bytes by `server_dispatch` and replay fine.
//!
//! Such a call is recorded as *uncacheable*: a duplicate attempt gets a
//! non-communications error, so the client stops retrying and reports the
//! honest "maybe executed" outcome instead of silently executing twice.
//!
//! The cache is bounded (FIFO eviction). An evicted entry downgrades that
//! call back to at-least-once — the bound trades memory for a window, and
//! the window (capacity ≫ in-flight retries) makes the trade safe.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use spring_kernel::{DoorError, Message};

/// Default bound on recorded replies per serve door.
const DEFAULT_CAPACITY: usize = 1024;

/// What the cache remembers about one executed call.
enum Entry {
    /// Door-free reply bytes, replayable verbatim.
    Replayable(Vec<u8>),
    /// The call executed but its reply cannot be replayed (it moved door
    /// identifiers); duplicates get an error instead of a re-execution.
    Uncacheable,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<u64, Entry>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<u64>,
}

/// Counters exposed for tests and the benchmark report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Duplicate attempts answered from the cache.
    pub hits: u64,
    /// First attempts executed and recorded.
    pub recorded: u64,
    /// Duplicate attempts refused because the reply was uncacheable.
    pub refused: u64,
    /// Calls refused because their deadline had already passed.
    pub expired: u64,
    /// Entries dropped by the FIFO bound.
    pub evictions: u64,
}

/// A bounded nonce-keyed reply cache for one serve door.
pub struct ReplyCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    recorded: AtomicU64,
    refused: AtomicU64,
    expired: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ReplyCache {
    fn default() -> Self {
        ReplyCache::with_capacity(DEFAULT_CAPACITY)
    }
}

impl ReplyCache {
    /// Creates a cache remembering at most `capacity` replies.
    pub fn with_capacity(capacity: usize) -> ReplyCache {
        ReplyCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Serves one incoming call with at-most-once semantics: executes
    /// `exec` for the first attempt of a logical call and replays (or
    /// refuses) duplicates. Identity-free calls go straight to `exec`.
    pub fn serve<F>(&self, msg: Message, exec: F) -> Result<Message, DoorError>
    where
        F: FnOnce(Message) -> Result<Message, DoorError>,
    {
        let call = msg.call;
        if call.is_none() {
            return exec(msg);
        }
        if call.is_expired() {
            // The client has given up on this invocation; starting to
            // execute it now could only produce an orphan side effect.
            self.expired.fetch_add(1, Ordering::Relaxed);
            return Err(DoorError::Handler(
                "call deadline expired before execution".into(),
            ));
        }
        {
            let inner = self.inner.lock();
            match inner.entries.get(&call.nonce) {
                Some(Entry::Replayable(bytes)) => {
                    let replay = bytes.clone();
                    drop(inner);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Message::from_bytes(replay));
                }
                Some(Entry::Uncacheable) => {
                    drop(inner);
                    self.refused.fetch_add(1, Ordering::Relaxed);
                    // Deliberately not a communications error: the client
                    // must stop retrying and surface the uncertainty.
                    return Err(DoorError::Handler(
                        "duplicate of a completed call whose reply cannot be replayed".into(),
                    ));
                }
                None => {}
            }
        }

        // First attempt to arrive: execute outside the lock (door calls
        // run on the shuttled caller thread; one logical call is retried
        // serially, so no second attempt races this execution).
        let reply = exec(msg)?;
        let entry = if reply.doors.is_empty() {
            Entry::Replayable(reply.bytes.clone())
        } else {
            Entry::Uncacheable
        };
        let mut inner = self.inner.lock();
        if inner.entries.insert(call.nonce, entry).is_none() {
            inner.order.push_back(call.nonce);
            self.recorded.fetch_add(1, Ordering::Relaxed);
            while inner.order.len() > self.capacity {
                if let Some(old) = inner.order.pop_front() {
                    inner.entries.remove(&old);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(reply)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DedupStats {
        DedupStats {
            hits: self.hits.load(Ordering::Relaxed),
            recorded: self.recorded.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spring_kernel::callid::deadline_after;
    use spring_kernel::{CallCtx, CallId, DoorHandler, Kernel, Message};
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;
    use std::time::Duration;

    fn ided(nonce: u64, attempt: u32) -> Message {
        Message {
            call: CallId {
                nonce,
                attempt,
                deadline_micros: deadline_after(Duration::from_secs(60)),
            },
            ..Message::from_bytes(vec![1, 2, 3])
        }
    }

    #[test]
    fn identity_free_calls_bypass_the_cache() {
        let cache = ReplyCache::default();
        let executions = AtomicU32::new(0);
        for _ in 0..3 {
            let reply = cache
                .serve(Message::from_bytes(vec![9]), |_| {
                    executions.fetch_add(1, Ordering::Relaxed);
                    Ok(Message::from_bytes(vec![7]))
                })
                .unwrap();
            assert_eq!(reply.bytes, vec![7]);
        }
        assert_eq!(executions.load(Ordering::Relaxed), 3);
        assert_eq!(cache.stats(), DedupStats::default());
    }

    #[test]
    fn duplicates_replay_without_reexecuting() {
        let cache = ReplyCache::default();
        let executions = AtomicU32::new(0);
        for attempt in 1..=3 {
            let reply = cache
                .serve(ided(42, attempt), |_| {
                    executions.fetch_add(1, Ordering::Relaxed);
                    Ok(Message::from_bytes(vec![7, 7]))
                })
                .unwrap();
            assert_eq!(reply.bytes, vec![7, 7]);
        }
        assert_eq!(executions.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.recorded, 1);
    }

    #[test]
    fn door_carrying_replies_refuse_duplicates() {
        struct Nop;
        impl DoorHandler for Nop {
            fn invoke(&self, _: &CallCtx, m: Message) -> Result<Message, DoorError> {
                Ok(m)
            }
        }
        let kernel = Kernel::new("dedup-test");
        let domain = kernel.create_domain("server");
        let door = domain.create_door(Arc::new(Nop)).unwrap();

        let cache = ReplyCache::default();
        let first = cache.serve(ided(7, 1), |_| {
            Ok(Message {
                doors: vec![door],
                ..Message::from_bytes(vec![1])
            })
        });
        assert!(first.is_ok());
        let dup = cache.serve(ided(7, 2), |_| panic!("must not re-execute"));
        let err = dup.unwrap_err();
        assert!(!err.is_comm_failure(), "refusal must stop client retries");
        assert_eq!(cache.stats().refused, 1);
    }

    #[test]
    fn expired_calls_are_refused_before_execution() {
        let cache = ReplyCache::default();
        let msg = Message {
            call: CallId {
                nonce: 9,
                attempt: 1,
                deadline_micros: 1,
            },
            ..Message::from_bytes(vec![])
        };
        std::thread::sleep(Duration::from_micros(10));
        let out = cache.serve(msg, |_| panic!("must not execute"));
        assert!(out.is_err());
        assert_eq!(cache.stats().expired, 1);
    }

    #[test]
    fn fifo_bound_evicts_oldest() {
        let cache = ReplyCache::with_capacity(2);
        for nonce in 1..=3u64 {
            cache
                .serve(ided(nonce, 1), |_| Ok(Message::from_bytes(vec![0])))
                .unwrap();
        }
        assert_eq!(cache.stats().evictions, 1);
        // Nonce 1 was evicted: a late duplicate re-executes (the documented
        // at-least-once downgrade), nonce 3 still replays.
        let executions = AtomicU32::new(0);
        cache
            .serve(ided(1, 2), |_| {
                executions.fetch_add(1, Ordering::Relaxed);
                Ok(Message::from_bytes(vec![0]))
            })
            .unwrap();
        assert_eq!(executions.load(Ordering::Relaxed), 1);
        cache
            .serve(ided(3, 2), |_| panic!("must not re-execute"))
            .unwrap();
    }

    #[test]
    fn failed_executions_are_not_recorded() {
        let cache = ReplyCache::default();
        let out = cache.serve(ided(5, 1), |_| Err(DoorError::Handler("boom".into())));
        assert!(out.is_err());
        assert_eq!(cache.stats().recorded, 0);
        // A retry of a failed execution executes again.
        cache
            .serve(ided(5, 2), |_| Ok(Message::from_bytes(vec![1])))
            .unwrap();
        assert_eq!(cache.stats().recorded, 1);
    }
}
