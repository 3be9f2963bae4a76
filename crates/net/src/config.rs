//! Network configuration and counters.

use std::time::Duration;

/// Tunable behaviour of the simulated network.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// One-way latency added to every network hop.
    pub latency: Duration,
    /// Maximum extra uniform jitter per hop.
    pub jitter: Duration,
    /// Probability in `[0, 1]` that an invocation message is lost.
    pub drop_prob: f64,
    /// Longest a partially-filled frame may wait for more pipelined calls.
    /// Only a frame carrying a call that reports company still to come ever
    /// waits at all, so plain synchronous calls are never delayed by this
    /// budget.
    pub batch_linger: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency: Duration::ZERO,
            jitter: Duration::ZERO,
            drop_prob: 0.0,
            batch_linger: Duration::from_micros(200),
        }
    }
}

impl NetConfig {
    /// A lossless network with the given one-way latency.
    pub fn with_latency(latency: Duration) -> Self {
        NetConfig {
            latency,
            ..Default::default()
        }
    }
}

/// Point-in-time snapshot of the network's counters.
///
/// Message and byte counts are hardware independent, so benchmark tables
/// report them alongside wall-clock time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// Wire messages sent (calls, replies, and object transfers).
    pub messages: u64,
    /// Payload bytes sent over the wire.
    pub bytes: u64,
    /// Invocation messages lost to injected drops.
    pub drops: u64,
    /// Cross-node invocations forwarded through proxy doors.
    pub calls_forwarded: u64,
    /// Door identifiers mapped to network form (exports).
    pub exports: u64,
    /// Proxy doors fabricated on receiving nodes.
    pub proxies_created: u64,
    /// Wire frames flushed by per-link batchers (each frame is one request
    /// hop, and — when any call produced a reply — one reply hop).
    pub batch_flushes: u64,
    /// Forwarded calls that shared their frame with at least one other call.
    pub calls_batched: u64,
    /// Forwarded calls that travelled in a frame of their own.
    pub calls_unbatched: u64,
}

impl NetStatsSnapshot {
    /// Component-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &NetStatsSnapshot) -> NetStatsSnapshot {
        NetStatsSnapshot {
            messages: self.messages.saturating_sub(earlier.messages),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            drops: self.drops.saturating_sub(earlier.drops),
            calls_forwarded: self.calls_forwarded.saturating_sub(earlier.calls_forwarded),
            exports: self.exports.saturating_sub(earlier.exports),
            proxies_created: self.proxies_created.saturating_sub(earlier.proxies_created),
            batch_flushes: self.batch_flushes.saturating_sub(earlier.batch_flushes),
            calls_batched: self.calls_batched.saturating_sub(earlier.calls_batched),
            calls_unbatched: self.calls_unbatched.saturating_sub(earlier.calls_unbatched),
        }
    }
}

/// Point-in-time snapshot of the socket transport's counters.
///
/// All zero unless the process has opened socket connections (the simulated
/// backend never touches these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SocketStatsSnapshot {
    /// Length-prefixed frames written to socket peers.
    pub frames_sent: u64,
    /// Length-prefixed frames read from socket peers.
    pub frames_received: u64,
    /// Frame payload bytes written (excluding the 4-byte length prefix).
    pub bytes_sent: u64,
    /// Frame payload bytes read (excluding the 4-byte length prefix).
    pub bytes_received: u64,
    /// Connections torn down (peer EOF, I/O error, malformed frame).
    pub disconnects: u64,
}

impl SocketStatsSnapshot {
    /// Component-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &SocketStatsSnapshot) -> SocketStatsSnapshot {
        SocketStatsSnapshot {
            frames_sent: self.frames_sent.saturating_sub(earlier.frames_sent),
            frames_received: self.frames_received.saturating_sub(earlier.frames_received),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            bytes_received: self.bytes_received.saturating_sub(earlier.bytes_received),
            disconnects: self.disconnects.saturating_sub(earlier.disconnects),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_inert() {
        let c = NetConfig::default();
        assert!(c.latency.is_zero());
        assert!(c.jitter.is_zero());
        assert_eq!(c.drop_prob, 0.0);
        // The linger budget exists by default but only ever delays a call
        // that says more are coming.
        assert!(!c.batch_linger.is_zero());
        assert_eq!(
            NetConfig::with_latency(Duration::from_millis(2))
                .latency
                .as_millis(),
            2
        );
    }

    #[test]
    fn snapshot_diff_saturates() {
        let a = NetStatsSnapshot {
            messages: 5,
            bytes: 100,
            ..Default::default()
        };
        let b = NetStatsSnapshot {
            messages: 9,
            bytes: 50,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.messages, 4);
        assert_eq!(d.bytes, 0); // Saturating, never negative.
    }
}
