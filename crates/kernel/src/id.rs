//! Identifier newtypes used throughout the simulated nucleus.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by integers this process minted itself (door tokens, slots,
/// domain and export counters) — never by a value a peer or caller chose,
/// which keeps SipHash so nobody outside can pick colliding keys.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The [`IdMap`] hasher: one widening multiply by a 64-bit odd constant with
/// the product's halves folded together, so counters of any stride spread
/// over both the bucket-index (low) and the tag (high) bits.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Identifies one simulated machine (one [`crate::Kernel`] instance).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u64);

impl NodeId {
    /// Returns the raw numeric value, mainly for logging and wire formats.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a `NodeId` from its raw value (used by network wire formats).
    pub fn from_raw(raw: u64) -> Self {
        NodeId(raw)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node:{}", self.0)
    }
}

/// Identifies a domain (a simulated address space) within one kernel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub(crate) u64);

impl DomainId {
    /// Returns the raw numeric value, mainly for logging.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "domain:{}", self.0)
    }
}

/// A door identifier: a per-domain capability handle for one door.
///
/// A `DoorId` is only meaningful inside the domain that owns it (like a file
/// descriptor). The kernel validates ownership on every operation, so a
/// forged or stale identifier is rejected with
/// [`DoorError::InvalidDoor`](crate::DoorError::InvalidDoor). Identifiers are
/// never reused: each issue gets a fresh slot number.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct DoorId {
    pub(crate) owner: DomainId,
    pub(crate) slot: u64,
}

impl DoorId {
    /// The domain this identifier belongs to.
    pub fn owner(self) -> DomainId {
        self.owner
    }

    /// The slot number within the owner's door table (for logging).
    pub fn slot(self) -> u64 {
        self.slot
    }
}

impl fmt::Debug for DoorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "door:{}.{}", self.owner.0, self.slot)
    }
}

/// Identifies a shared-memory region within one kernel.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShmId(pub(crate) u64);

impl ShmId {
    /// Returns the raw numeric value for embedding in message payloads.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a `ShmId` from its raw value.
    pub fn from_raw(raw: u64) -> Self {
        ShmId(raw)
    }
}

impl fmt::Debug for ShmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shm:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_roundtrips() {
        assert_eq!(NodeId::from_raw(7).raw(), 7);
        assert_eq!(ShmId::from_raw(9).raw(), 9);
    }

    #[test]
    fn id_hasher_spreads_counters_and_strides() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IdHasher>::default();
        for stride in [1u64, 2, 16, 1024, 1 << 16] {
            // 224 keys of one stride into 256 buckets: a random function
            // fills ~150 of them and uses every one of the 128 tags.
            let low: std::collections::HashSet<u64> = (1..225u64)
                .map(|i| build.hash_one(DomainId(i * stride)) & 0xff)
                .collect();
            let top: std::collections::HashSet<u64> = (1..225u64)
                .map(|i| build.hash_one(i * stride) >> 57)
                .collect();
            assert!(low.len() > 128, "stride {stride}: {} buckets", low.len());
            assert!(top.len() > 64, "stride {stride}: {} tags", top.len());
        }
    }

    #[test]
    fn debug_formats_are_compact() {
        let d = DoorId {
            owner: DomainId(3),
            slot: 12,
        };
        assert_eq!(format!("{d:?}"), "door:3.12");
        assert_eq!(format!("{:?}", NodeId(1)), "node:1");
        assert_eq!(format!("{:?}", DomainId(2)), "domain:2");
        assert_eq!(format!("{:?}", ShmId(4)), "shm:4");
    }
}
