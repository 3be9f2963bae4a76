//! Shared retry engine: call identity, deadline, exponential backoff.
//!
//! Both retrying subcontracts — reconnectable (§8.3, "retries periodically
//! until it succeeds") and replicon (§5.1.3, try the next replica on a
//! communications error) — share one attempt-budget discipline here. An
//! [`Invocation`] names one *logical* call: it allocates the nonce every
//! attempt is stamped with (so the server's reply cache can deduplicate,
//! see [`subcontract::ReplyCache`]), fixes the deadline the whole invocation
//! must finish by, and paces retries with exponentially growing, jittered
//! sleeps so a herd of retrying clients does not hammer a recovering
//! server in lockstep.

use std::time::Duration;

use spring_kernel::callid::{deadline_after, next_nonce, now_micros};
use spring_kernel::{pool, CallId, Domain, DoorError, DoorId, FaultRng, Message};
use spring_trace::TraceCtx;
use subcontract::SpringError;

/// How persistently a retrying subcontract re-attempts one invocation.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum retries per invocation after the initial attempt.
    pub max_attempts: u32,
    /// Delay before the first retry ("retries periodically"); doubles on
    /// each further retry.
    pub interval: Duration,
    /// Ceiling on the per-retry delay once backoff has grown it.
    pub max_interval: Duration,
    /// Wall-clock budget for the whole invocation, carried in the call
    /// envelope (over a socket, as the time it has left): the client stops
    /// retrying past it and servers refuse to *start* executing an expired
    /// call.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            interval: Duration::from_millis(10),
            max_interval: Duration::from_millis(200),
            deadline: Duration::from_secs(30),
        }
    }
}

/// Backoff growth factor between consecutive retries.
const BACKOFF_MULTIPLIER: f64 = 2.0;

/// Jitter fraction: each sleep is scaled by a random factor in
/// `[1 - BACKOFF_JITTER, 1 + BACKOFF_JITTER]` to de-synchronize retrying
/// clients.
const BACKOFF_JITTER: f64 = 0.5;

/// One logical invocation's retry state: the request every attempt
/// re-sends, identity, budget, pacing.
#[derive(Debug)]
pub struct Invocation {
    request: Replay,
    arg_doors: Vec<DoorId>,
    trace: TraceCtx,
    /// What the attempt spans parent under: the given context, or the
    /// thread's innermost open span at each attempt.
    parent: Option<TraceCtx>,
    nonce: u64,
    deadline_micros: u64,
    policy: RetryPolicy,
    /// Attempt number stamped on the next transmission (starts at 1).
    attempt: u32,
    /// The next backoff sleep, before jitter and the interval ceiling.
    next_delay: Duration,
    rng: FaultRng,
}

impl Invocation {
    /// Begins a logical invocation of the marshalled `call`: fresh nonce,
    /// deadline anchored now.
    pub fn begin(policy: RetryPolicy, call: Message) -> Invocation {
        let nonce = next_nonce();
        Invocation {
            request: Replay(call.bytes),
            arg_doors: call.doors,
            trace: call.trace,
            parent: None,
            nonce,
            deadline_micros: deadline_after(policy.deadline),
            policy,
            attempt: 1,
            next_delay: policy.interval,
            // Jitter only needs de-synchronization, not secrecy; seeding
            // from the nonce keeps every run reproducible.
            rng: FaultRng::seed_from_u64(nonce),
        }
    }

    /// Parents the attempt spans under `parent` — for an invocation that
    /// runs on another thread than the one that issued it.
    pub fn under(mut self, parent: TraceCtx) -> Invocation {
        self.parent = Some(parent);
        self
    }

    /// One attempt: hands `call` a fresh copy of the request stamped with
    /// the current attempt's identity, under one span named `span` and
    /// tagged with the attempt number — so a retry reads in the trace as a
    /// failed sibling followed by the attempt that succeeded. What the
    /// outcome means is the caller's business.
    pub fn attempt<T>(
        &self,
        span: &'static str,
        domain: &Domain,
        call: impl FnOnce(Message) -> Result<T, DoorError>,
    ) -> Result<T, DoorError> {
        let msg = Message {
            bytes: self.request.copy(),
            doors: self.arg_doors.clone(),
            trace: self.trace,
            call: self.call_id(),
        };
        let (scope, tag) = (domain.trace_scope(), self.attempt as u64);
        let mut attempt_span = match self.parent {
            Some(parent) => spring_trace::span_child_of(span, parent, scope, tag),
            None => spring_trace::span_start(span, scope, tag),
        };
        let outcome = call(msg);
        if outcome.is_err() {
            attempt_span.fail();
        }
        outcome
    }

    /// The identity to stamp on the current attempt's call envelope.
    pub fn call_id(&self) -> CallId {
        CallId {
            nonce: self.nonce,
            attempt: self.attempt,
            deadline_micros: self.deadline_micros,
        }
    }

    /// Records a failed attempt and sleeps the backoff delay before the
    /// next one. Returns `Err(Exhausted)` when the retry budget or the
    /// invocation deadline is spent — retrying past either would waste
    /// work the server is already refusing.
    pub fn backoff(&mut self) -> Result<(), SpringError> {
        if self.attempt > self.policy.max_attempts {
            return Err(SpringError::Exhausted("retry attempts"));
        }
        self.attempt += 1;
        let remaining_micros = self.deadline_micros.saturating_sub(now_micros());
        if remaining_micros == 0 {
            return Err(SpringError::Exhausted("invocation deadline"));
        }
        let mut delay = self.next_delay.min(self.policy.max_interval);
        self.next_delay = self.next_delay.mul_f64(BACKOFF_MULTIPLIER);
        let jitter = 1.0 - BACKOFF_JITTER + 2.0 * BACKOFF_JITTER * self.rng.unit_f64();
        delay = delay.mul_f64(jitter);
        // Never sleep past the deadline itself.
        delay = delay.min(Duration::from_micros(remaining_micros));
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        Ok(())
    }
}

/// The marshalled request of an invocation that may be transmitted more
/// than once. Every attempt, the first included, sends a copy drawn from
/// the thread's buffer pool, and the original goes back to the pool when
/// the invocation ends, whichever way it ends — so a retrying subcontract's
/// steady-state call allocates nothing for its payload.
#[derive(Debug)]
struct Replay(Vec<u8>);

impl Replay {
    /// The bytes for one more attempt.
    fn copy(&self) -> Vec<u8> {
        let mut copy = pool::take(self.0.len());
        copy.extend_from_slice(&self.0);
        copy
    }
}

impl Drop for Replay {
    fn drop(&mut self) {
        pool::give(std::mem::take(&mut self.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            interval: Duration::from_micros(50),
            max_interval: Duration::from_micros(200),
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn attempts_share_the_nonce_and_count_up() {
        let mut inv = Invocation::begin(fast_policy(), Message::default());
        let first = inv.call_id();
        assert!(first.is_some());
        assert_eq!(first.attempt, 1);
        inv.backoff().unwrap();
        let second = inv.call_id();
        assert_eq!(second.nonce, first.nonce);
        assert_eq!(second.attempt, 2);
        assert_eq!(second.deadline_micros, first.deadline_micros);
    }

    #[test]
    fn budget_exhausts_after_max_attempts() {
        let mut inv = Invocation::begin(fast_policy(), Message::default());
        for _ in 0..3 {
            inv.backoff().unwrap();
        }
        assert!(matches!(inv.backoff(), Err(SpringError::Exhausted(_))));
    }

    #[test]
    fn deadline_exhausts_before_budget() {
        let policy = RetryPolicy {
            max_attempts: 1_000,
            interval: Duration::from_micros(100),
            deadline: Duration::from_millis(5),
            ..RetryPolicy::default()
        };
        let mut inv = Invocation::begin(policy, Message::default());
        let mut spent = 0;
        loop {
            match inv.backoff() {
                Ok(()) => spent += 1,
                Err(SpringError::Exhausted(what)) => {
                    assert_eq!(what, "invocation deadline");
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(spent < 1_000, "deadline never tripped");
        }
    }

    #[test]
    fn distinct_invocations_get_distinct_nonces() {
        let a = Invocation::begin(fast_policy(), Message::default());
        let b = Invocation::begin(fast_policy(), Message::default());
        assert_ne!(a.call_id().nonce, b.call_id().nonce);
    }
}
