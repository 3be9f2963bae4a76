//! The three interfaces the workloads call, each with the benchmark's own
//! servant, its seeded op table and its client-side model.
//!
//! The servants are the benchmark's because the ladder must call *the same
//! servant object* at every rung, from the bare trait method up to a stub
//! in another process, and `spring-services` keeps its servants private.
//! They implement the public generated servant traits, so everything above
//! the trait method — skeleton, subcontracts, kernel, net — is the system's
//! own code.
//!
//! An op table is a fixed cycle of operations drawn from `--seed`. Its
//! start state equals its end state, so once the start state is populated
//! the expected reply of every position is known in advance and repeats on
//! every cycle: checking a reply is one comparison against the table, and
//! the timed loop generates nothing.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use spring_services::{fs, kv};
use subcontract::{Dispatch, SpringObj, TypeInfo};

use crate::idl::flatbench;
use crate::rng::Rng;

/// One interface as the benchmark drives it.
pub trait Service: Send + Sync + 'static {
    /// The generated client stub.
    type Stub: Send + Sync;
    /// One table entry: the operation and what its reply must be.
    type Op: Send + Sync;
    /// Owned arguments, as a skeleton hands them to the servant.
    type Owned;
    /// A decoded reply.
    type Out;

    fn type_info() -> &'static TypeInfo;
    /// A fresh generated skeleton around the (shared) servant.
    fn skeleton(&self) -> Arc<dyn Dispatch>;
    fn narrow(obj: SpringObj) -> subcontract::Result<Self::Stub>;
    fn obj(stub: &Self::Stub) -> &SpringObj;

    /// Builds the servant's arguments (outside any timed region).
    fn own(&self, op: &Self::Op) -> Self::Owned;
    /// The bare servant trait method.
    fn call_servant(&self, owned: Self::Owned) -> Self::Out;
    /// The generated client stub.
    fn call_stub(&self, stub: &Self::Stub, op: &Self::Op) -> Self::Out;
    /// Whether `out` is the reply the model expects at this table position.
    fn ok(&self, op: &Self::Op, out: &Self::Out) -> bool;
    /// Application bytes the op moves (arguments plus results), for the
    /// wire-overhead share.
    fn payload_bytes(&self, op: &Self::Op) -> u64;
}

// ---------------------------------------------------------------- ping

/// Servant behind the flat null-call interface.
#[derive(Debug, Default)]
pub struct FlatServant;

impl flatbench::FlatPingServant for FlatServant {
    fn ping(&self, token: u64) -> Result<u64, flatbench::FlatPingError> {
        Ok(token.wrapping_add(1))
    }

    fn echo_sample(
        &self,
        s: flatbench::Sample,
    ) -> Result<flatbench::Sample, flatbench::FlatPingError> {
        Ok(s)
    }
}

pub enum PingOp {
    Ping(u64),
    /// Index into the service's sample pool.
    Echo(u32),
}

pub enum PingOwned {
    Ping(u64),
    Echo(flatbench::Sample),
}

pub enum PingOut {
    Token(u64),
    Sample(flatbench::Sample),
    Failed,
}

pub struct PingService {
    servant: Arc<FlatServant>,
    samples: Vec<flatbench::Sample>,
}

const PING_SAMPLES: usize = 64;
const PING_TABLE: usize = 1024;

impl PingService {
    pub fn new(seed: u64) -> PingService {
        let mut rng = Rng::new(seed, 0x5A);
        let modes = [
            flatbench::Mode::Idle,
            flatbench::Mode::Active,
            flatbench::Mode::Draining,
        ];
        let samples = (0..PING_SAMPLES)
            .map(|i| flatbench::Sample {
                when: flatbench::Stamp {
                    secs: rng.next_u64() >> 20,
                    nanos: (rng.next_u64() % 1_000_000_000) as u32,
                },
                a: rng.next_u64(),
                b: rng.next_u64(),
                c: rng.next_u64(),
                d: rng.next_u64(),
                seq: i as u32,
                kind: rng.next_u64() as u8,
                urgent: rng.next_u64() & 1 == 1,
                m: modes[rng.below(3)],
            })
            .collect();
        PingService {
            servant: Arc::new(FlatServant),
            samples,
        }
    }

    /// `ping` on even positions, `echo_sample` on odd ones; with
    /// `echo: false` every position is the null `ping`.
    pub fn table(&self, seed: u64, echo: bool) -> Vec<PingOp> {
        let mut rng = Rng::new(seed, 0x5B);
        (0..PING_TABLE)
            .map(|i| {
                if echo && i % 2 == 1 {
                    PingOp::Echo(rng.below(PING_SAMPLES) as u32)
                } else {
                    PingOp::Ping(rng.next_u64())
                }
            })
            .collect()
    }
}

impl Service for PingService {
    type Stub = flatbench::FlatPing;
    type Op = PingOp;
    type Owned = PingOwned;
    type Out = PingOut;

    fn type_info() -> &'static TypeInfo {
        &flatbench::FLAT_PING_TYPE
    }

    fn skeleton(&self) -> Arc<dyn Dispatch> {
        flatbench::FlatPingSkeleton::new(self.servant.clone())
    }

    fn narrow(obj: SpringObj) -> subcontract::Result<Self::Stub> {
        flatbench::FlatPing::from_obj(obj)
    }

    fn obj(stub: &Self::Stub) -> &SpringObj {
        stub.obj()
    }

    fn own(&self, op: &PingOp) -> PingOwned {
        match op {
            PingOp::Ping(t) => PingOwned::Ping(*t),
            PingOp::Echo(i) => PingOwned::Echo(self.samples[*i as usize].clone()),
        }
    }

    fn call_servant(&self, owned: PingOwned) -> PingOut {
        use flatbench::FlatPingServant as _;
        match owned {
            PingOwned::Ping(t) => self.servant.ping(t).map_or(PingOut::Failed, PingOut::Token),
            PingOwned::Echo(s) => self
                .servant
                .echo_sample(s)
                .map_or(PingOut::Failed, PingOut::Sample),
        }
    }

    fn call_stub(&self, stub: &Self::Stub, op: &PingOp) -> PingOut {
        match op {
            PingOp::Ping(t) => stub.ping(*t).map_or(PingOut::Failed, PingOut::Token),
            PingOp::Echo(i) => stub
                .echo_sample(&self.samples[*i as usize])
                .map_or(PingOut::Failed, PingOut::Sample),
        }
    }

    fn ok(&self, op: &PingOp, out: &PingOut) -> bool {
        match (op, out) {
            (PingOp::Ping(t), PingOut::Token(r)) => *r == t.wrapping_add(1),
            (PingOp::Echo(i), PingOut::Sample(s)) => *s == self.samples[*i as usize],
            _ => false,
        }
    }

    fn payload_bytes(&self, op: &PingOp) -> u64 {
        match op {
            PingOp::Ping(_) => 16,
            PingOp::Echo(_) => 2 * flatbench::Sample::footprint() as u64,
        }
    }
}

// ------------------------------------------------- slots: file and bucket

/// The shared shape of the file and bucket tables: a set of slots (file
/// ranges, keys), each holding one payload out of a seeded pool.
pub enum SlotOp {
    /// Read slot `slot`; the reply must equal pool entry `expect`.
    Read { slot: u32, expect: u32 },
    /// Overwrite slot `slot` with pool entry `pool`.
    Write { slot: u32, pool: u32 },
}

pub enum SlotOut {
    Bytes(Vec<u8>),
    Unit,
    Failed,
}

/// Which table positions write.
#[derive(Clone, Copy, Debug)]
pub enum Mix {
    /// Each position writes with probability 1/n (10 → the 90/10 mix).
    OneIn(usize),
    /// Reads on even positions, writes on odd ones.
    Alternate,
}

/// Draws a cyclic table over `slots` (a subset of slot ids owned by one
/// caller) and returns it with the start state that makes it periodic.
pub fn slot_table(
    rng: &mut Rng,
    slots: &[u32],
    pool: usize,
    len: usize,
    mix: Mix,
) -> (Vec<SlotOp>, Vec<(u32, u32)>) {
    let draws: Vec<(bool, u32, u32)> = (0..len)
        .map(|i| {
            let write = match mix {
                Mix::OneIn(n) => rng.below(n) == 0,
                Mix::Alternate => i % 2 == 1,
            };
            (write, slots[rng.below(slots.len())], rng.below(pool) as u32)
        })
        .collect();
    // The state the cycle ends in is the state it must start in.
    let mut state: HashMap<u32, u32> = slots.iter().map(|&s| (s, rng.below(pool) as u32)).collect();
    for &(write, slot, pool) in &draws {
        if write {
            state.insert(slot, pool);
        }
    }
    let mut start: Vec<(u32, u32)> = state.iter().map(|(&s, &p)| (s, p)).collect();
    start.sort_unstable();
    let ops = draws
        .into_iter()
        .map(|(write, slot, pool)| {
            if write {
                state.insert(slot, pool);
                SlotOp::Write { slot, pool }
            } else {
                SlotOp::Read {
                    slot,
                    expect: state[&slot],
                }
            }
        })
        .collect();
    (ops, start)
}

/// Writes that establish a table's start state (run once during set-up).
pub fn populate_ops(start: &[(u32, u32)]) -> Vec<SlotOp> {
    start
        .iter()
        .map(|&(slot, pool)| SlotOp::Write { slot, pool })
        .collect()
}

fn slot_ok(pool: &[Vec<u8>], op: &SlotOp, out: &SlotOut) -> bool {
    match (op, out) {
        (SlotOp::Read { expect, .. }, SlotOut::Bytes(b)) => *b == pool[*expect as usize],
        (SlotOp::Write { .. }, SlotOut::Unit) => true,
        _ => false,
    }
}

fn seeded_pool(seed: u64, stream: u64, entries: usize, size: usize) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed, stream);
    (0..entries).map(|_| rng.bytes(size)).collect()
}

// ---------------------------------------------------------------- file

/// An in-memory `fs::file`: the same state shape as the file server's own
/// (private) servant — a growable byte vector under a mutex.
#[derive(Debug, Default)]
pub struct FileState {
    content: Mutex<Vec<u8>>,
}

fn io_err(reason: &str) -> fs::FileError {
    fs::FileError::IoError(fs::IoError {
        reason: reason.to_owned(),
    })
}

impl fs::FileServant for FileState {
    fn size(&self) -> Result<i64, fs::FileError> {
        Ok(self.content.lock().expect("file lock").len() as i64)
    }

    fn read(&self, offset: i64, count: i64) -> Result<Vec<u8>, fs::FileError> {
        let (Ok(offset), Ok(count)) = (usize::try_from(offset), usize::try_from(count)) else {
            return Err(io_err("negative offset or count"));
        };
        let content = self.content.lock().expect("file lock");
        let start = offset.min(content.len());
        let end = start.saturating_add(count).min(content.len());
        Ok(content[start..end].to_vec())
    }

    fn write(&self, offset: i64, data: Vec<u8>) -> Result<(), fs::FileError> {
        let Ok(offset) = usize::try_from(offset) else {
            return Err(io_err("negative offset"));
        };
        let Some(end) = offset.checked_add(data.len()) else {
            return Err(io_err("offset overflow"));
        };
        let mut content = self.content.lock().expect("file lock");
        if content.len() < end {
            content.resize(end, 0);
        }
        content[offset..end].copy_from_slice(&data);
        Ok(())
    }

    fn truncate(&self, new_size: i64) -> Result<(), fs::FileError> {
        let Ok(new_size) = usize::try_from(new_size) else {
            return Err(io_err("negative size"));
        };
        self.content.lock().expect("file lock").truncate(new_size);
        Ok(())
    }

    fn stat(&self) -> Result<fs::FileStat, fs::FileError> {
        Ok(fs::FileStat {
            size: self.size()?,
            version: 0,
            writable: true,
        })
    }

    fn version(&self) -> Result<i64, fs::FileError> {
        Ok(0)
    }
}

pub enum FileOwned {
    Read(i64, i64),
    Write(i64, Vec<u8>),
}

/// `fs::file` over fixed-size slots: slot `s` is the byte range
/// `[s * chunk, (s + 1) * chunk)`.
pub struct FileService {
    servant: Arc<FileState>,
    pool: Vec<Vec<u8>>,
    chunk: usize,
}

impl FileService {
    pub fn new(seed: u64, chunk: usize, pool_entries: usize) -> FileService {
        FileService {
            servant: Arc::new(FileState::default()),
            pool: seeded_pool(seed, 0xF1, pool_entries, chunk),
            chunk,
        }
    }

    pub fn servant(&self) -> Arc<FileState> {
        self.servant.clone()
    }

    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    pub fn pool(&self, i: u32) -> &[u8] {
        &self.pool[i as usize]
    }

    fn offset(&self, slot: u32) -> i64 {
        (slot as usize * self.chunk) as i64
    }
}

impl Service for FileService {
    type Stub = fs::File;
    type Op = SlotOp;
    type Owned = FileOwned;
    type Out = SlotOut;

    fn type_info() -> &'static TypeInfo {
        &fs::FILE_TYPE
    }

    fn skeleton(&self) -> Arc<dyn Dispatch> {
        fs::FileSkeleton::new(self.servant.clone())
    }

    fn narrow(obj: SpringObj) -> subcontract::Result<Self::Stub> {
        fs::File::from_obj(obj)
    }

    fn obj(stub: &Self::Stub) -> &SpringObj {
        stub.obj()
    }

    fn own(&self, op: &SlotOp) -> FileOwned {
        match *op {
            SlotOp::Read { slot, .. } => FileOwned::Read(self.offset(slot), self.chunk as i64),
            SlotOp::Write { slot, pool } => {
                FileOwned::Write(self.offset(slot), self.pool[pool as usize].clone())
            }
        }
    }

    fn call_servant(&self, owned: FileOwned) -> SlotOut {
        use fs::FileServant as _;
        match owned {
            FileOwned::Read(off, n) => self
                .servant
                .read(off, n)
                .map_or(SlotOut::Failed, SlotOut::Bytes),
            FileOwned::Write(off, data) => self
                .servant
                .write(off, data)
                .map_or(SlotOut::Failed, |()| SlotOut::Unit),
        }
    }

    fn call_stub(&self, stub: &fs::File, op: &SlotOp) -> SlotOut {
        match *op {
            SlotOp::Read { slot, .. } => stub
                .read(self.offset(slot), self.chunk as i64)
                .map_or(SlotOut::Failed, SlotOut::Bytes),
            SlotOp::Write { slot, pool } => stub
                .write(self.offset(slot), &self.pool[pool as usize])
                .map_or(SlotOut::Failed, |()| SlotOut::Unit),
        }
    }

    fn ok(&self, op: &SlotOp, out: &SlotOut) -> bool {
        slot_ok(&self.pool, op, out)
    }

    fn payload_bytes(&self, _op: &SlotOp) -> u64 {
        // offset + count/data either way; the chunk travels once.
        16 + self.chunk as u64
    }
}

// -------------------------------------------------------------- bucket

/// An in-memory `kv::bucket`: the same state shape as the kv store's own
/// (private) servant — a string-keyed map of byte values under a RwLock.
#[derive(Debug, Default)]
pub struct BucketState {
    entries: RwLock<HashMap<String, Vec<u8>>>,
}

fn kv_err(reason: String) -> kv::BucketError {
    kv::BucketError::KvError(kv::KvError { reason })
}

impl kv::BucketServant for BucketState {
    fn get_size(&self) -> Result<i64, kv::BucketError> {
        Ok(self.entries.read().expect("bucket lock").len() as i64)
    }

    fn get_mode(&self) -> Result<kv::Durability, kv::BucketError> {
        Ok(kv::Durability::VolatileStore)
    }

    fn set_mode(&self, _value: kv::Durability) -> Result<(), kv::BucketError> {
        Ok(())
    }

    fn get(&self, key: String) -> Result<Vec<u8>, kv::BucketError> {
        self.entries
            .read()
            .expect("bucket lock")
            .get(&key)
            .cloned()
            .ok_or_else(|| kv_err(format!("no such key {key:?}")))
    }

    fn put(&self, key: String, value: Vec<u8>) -> Result<(), kv::BucketError> {
        self.entries
            .write()
            .expect("bucket lock")
            .insert(key, value);
        Ok(())
    }

    fn remove_key(&self, key: String) -> Result<bool, kv::BucketError> {
        Ok(self
            .entries
            .write()
            .expect("bucket lock")
            .remove(&key)
            .is_some())
    }

    fn scan(&self, prefix: String) -> Result<Vec<kv::Entry>, kv::BucketError> {
        let entries = self.entries.read().expect("bucket lock");
        let mut found: Vec<kv::Entry> = entries
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(k, v)| kv::Entry {
                key: k.clone(),
                value: v.clone(),
                version: 0,
            })
            .collect();
        found.sort_by(|a, b| a.key.cmp(&b.key));
        Ok(found)
    }

    fn version_of(&self, key: String) -> Result<i64, kv::BucketError> {
        if self.entries.read().expect("bucket lock").contains_key(&key) {
            Ok(0)
        } else {
            Err(kv_err(format!("no such key {key:?}")))
        }
    }
}

pub enum KvOwned {
    Get(String),
    Put(String, Vec<u8>),
}

/// `kv::bucket` with slot `s` = key `s`.
pub struct KvService {
    servant: Arc<BucketState>,
    keys: Vec<String>,
    pool: Vec<Vec<u8>>,
}

pub const KV_KEYS: usize = 1024;
pub const KV_VALUE: usize = 1024;
const KV_POOL: usize = 64;

impl KvService {
    pub fn new(seed: u64) -> KvService {
        // Key names come from the seed too, so neither the hash-map layout
        // nor the key bytes on the wire are the same on every seed.
        let mut rng = Rng::new(seed, 0xB0);
        let keys = (0..KV_KEYS)
            .map(|i| format!("k{:04}-{:012x}", i, rng.next_u64() & 0xFFFF_FFFF_FFFF))
            .collect();
        KvService {
            servant: Arc::new(BucketState::default()),
            keys,
            pool: seeded_pool(seed, 0xB1, KV_POOL, KV_VALUE),
        }
    }

    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }
}

impl Service for KvService {
    type Stub = kv::Bucket;
    type Op = SlotOp;
    type Owned = KvOwned;
    type Out = SlotOut;

    fn type_info() -> &'static TypeInfo {
        &kv::BUCKET_TYPE
    }

    fn skeleton(&self) -> Arc<dyn Dispatch> {
        kv::BucketSkeleton::new(self.servant.clone())
    }

    fn narrow(obj: SpringObj) -> subcontract::Result<Self::Stub> {
        kv::Bucket::from_obj(obj)
    }

    fn obj(stub: &Self::Stub) -> &SpringObj {
        stub.obj()
    }

    fn own(&self, op: &SlotOp) -> KvOwned {
        match *op {
            SlotOp::Read { slot, .. } => KvOwned::Get(self.keys[slot as usize].clone()),
            SlotOp::Write { slot, pool } => KvOwned::Put(
                self.keys[slot as usize].clone(),
                self.pool[pool as usize].clone(),
            ),
        }
    }

    fn call_servant(&self, owned: KvOwned) -> SlotOut {
        use kv::BucketServant as _;
        match owned {
            KvOwned::Get(k) => self.servant.get(k).map_or(SlotOut::Failed, SlotOut::Bytes),
            KvOwned::Put(k, v) => self
                .servant
                .put(k, v)
                .map_or(SlotOut::Failed, |()| SlotOut::Unit),
        }
    }

    fn call_stub(&self, stub: &kv::Bucket, op: &SlotOp) -> SlotOut {
        match *op {
            SlotOp::Read { slot, .. } => stub
                .get(&self.keys[slot as usize])
                .map_or(SlotOut::Failed, SlotOut::Bytes),
            SlotOp::Write { slot, pool } => stub
                .put(&self.keys[slot as usize], &self.pool[pool as usize])
                .map_or(SlotOut::Failed, |()| SlotOut::Unit),
        }
    }

    fn ok(&self, op: &SlotOp, out: &SlotOut) -> bool {
        slot_ok(&self.pool, op, out)
    }

    fn payload_bytes(&self, op: &SlotOp) -> u64 {
        let slot = match *op {
            SlotOp::Read { slot, .. } | SlotOp::Write { slot, .. } => slot,
        };
        (self.keys[slot as usize].len() + KV_VALUE) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays a table twice against a plain model and checks that every
    /// read's expectation holds on both cycles: the table is periodic.
    #[test]
    fn slot_tables_are_periodic_from_their_start_state() {
        let mut rng = Rng::new(3, 9);
        let slots: Vec<u32> = (0..16).collect();
        let (ops, start) = slot_table(&mut rng, &slots, 8, 500, Mix::OneIn(10));
        assert_eq!(start.len(), 16);
        let mut state: HashMap<u32, u32> = start.iter().copied().collect();
        let mut writes = 0;
        for _cycle in 0..2 {
            for op in &ops {
                match *op {
                    SlotOp::Read { slot, expect } => assert_eq!(state[&slot], expect),
                    SlotOp::Write { slot, pool } => {
                        writes += 1;
                        state.insert(slot, pool);
                    }
                }
            }
        }
        assert!(writes > 0, "a 500-op 90/10 table holds writes");
    }

    #[test]
    fn the_seed_changes_inputs_and_nothing_else() {
        let a = KvService::new(1);
        let b = KvService::new(2);
        assert_eq!(a.keys.len(), b.keys.len());
        assert_ne!(a.keys[0], b.keys[0]);
        assert_ne!(a.pool[0], b.pool[0]);
        assert_eq!(KvService::new(1).keys[7], a.keys[7]);
    }

    #[test]
    fn servants_answer_like_the_model() {
        let svc = KvService::new(5);
        let put = SlotOp::Write { slot: 3, pool: 2 };
        let get = SlotOp::Read { slot: 3, expect: 2 };
        let out = svc.call_servant(svc.own(&put));
        assert!(svc.ok(&put, &out));
        let out = svc.call_servant(svc.own(&get));
        assert!(svc.ok(&get, &out));
        let wrong = SlotOp::Read { slot: 3, expect: 1 };
        assert!(!svc.ok(&wrong, &out), "a wrong value must not pass");

        let file = FileService::new(5, 256, 4);
        let w = SlotOp::Write { slot: 1, pool: 3 };
        let r = SlotOp::Read { slot: 1, expect: 3 };
        assert!(file.ok(&w, &file.call_servant(file.own(&w))));
        assert!(file.ok(&r, &file.call_servant(file.own(&r))));
    }
}
