//! The seven workloads: which interface, which topology, which op mix.

use crate::bench::{Bench, Replica, ServiceBench, Shaped};
use crate::drive::{block_for, BLOCK_LOCAL, BLOCK_UDS};
use crate::rng::Rng;
use crate::service::{
    populate_ops, slot_table, FileService, KvService, Mix, PingService, SlotOp, KV_KEYS,
};
use crate::topo::{Local, Sim, Uds};

/// Positions in a kv caller's table.
const KV_TABLE: usize = 4096;
/// The bulk file: 16 slots of 64 KiB = 1 MiB.
const BULK_CHUNK: usize = 64 * 1024;
const BULK_SLOTS: u32 = 16;
const BULK_POOL: usize = 8;
const BULK_TABLE: usize = 256;

fn ping(seed: u64, echo: bool) -> Shaped<PingService> {
    let svc = PingService::new(seed);
    let table = svc.table(seed, echo);
    Shaped {
        svc,
        tables: vec![table],
        populate: Vec::new(),
    }
}

/// The 90 % `get` / 10 % `put` mix over 1024 keys of 1 KiB, the keys split
/// evenly among `callers` so each caller's model is its own.
fn kv(seed: u64, callers: u32) -> Shaped<KvService> {
    let svc = KvService::new(seed);
    let mut tables = Vec::new();
    let mut populate: Vec<SlotOp> = Vec::new();
    for c in 0..callers {
        let slots: Vec<u32> = (0..KV_KEYS as u32).filter(|k| k % callers == c).collect();
        let mut rng = Rng::new(seed, 0xB2 + u64::from(c));
        let (ops, start) = slot_table(&mut rng, &slots, svc.pool_len(), KV_TABLE, Mix::OneIn(10));
        tables.push(ops);
        populate.extend(populate_ops(&start));
    }
    Shaped {
        svc,
        tables,
        populate,
    }
}

/// Alternating 64 KiB `read` and `write` at seeded slots of a 1 MiB file.
fn bulk(seed: u64) -> Shaped<FileService> {
    let svc = FileService::new(seed, BULK_CHUNK, BULK_POOL);
    let slots: Vec<u32> = (0..BULK_SLOTS).collect();
    let mut rng = Rng::new(seed, 0xF2);
    let (ops, start) = slot_table(&mut rng, &slots, svc.pool_len(), BULK_TABLE, Mix::Alternate);
    Shaped {
        svc,
        tables: vec![ops],
        populate: populate_ops(&start),
    }
}

/// The in-process stand-in for a cross-process workload's servant: the
/// same service from the same seed, so the same keys and payloads.
fn replica<S: crate::service::Service>(shaped: Shaped<S>) -> Replica<S> {
    Replica {
        svc: shaped.svc,
        populate: shaped.populate,
    }
}

/// Sets one instance of `workload` up, ready for its first timed call:
/// topology, serving process, population and warm-up.
pub fn build(workload: &str, seed: u64) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        "null_local" => Box::new(ServiceBench::build(
            "ping",
            BLOCK_LOCAL,
            Local::new(),
            ping(seed, true),
            None,
            seed,
        )?),
        "scmix_local" => Box::new(crate::scmix::Scmix::build(seed)?),
        "kv_sim" => Box::new(ServiceBench::build(
            "kv",
            BLOCK_LOCAL,
            Sim::new(),
            kv(seed, 1),
            None,
            seed,
        )?),
        "objpass_sim" => Box::new(crate::objpass::Objpass::build(seed)?),
        "null_uds" => Box::new(ServiceBench::build(
            "ping",
            BLOCK_UDS,
            Uds::new()?,
            ping(seed, false),
            Some(|seed| replica(ping(seed, false))),
            seed,
        )?),
        "kv_uds" => Box::new(ServiceBench::build(
            "kv",
            BLOCK_UDS,
            Uds::new()?,
            kv(seed, 2),
            Some(|seed| replica(kv(seed, 2))),
            seed,
        )?),
        "bulk_sim" => Box::new(ServiceBench::build(
            "file",
            block_for(BULK_CHUNK as u64),
            Sim::new(),
            bulk(seed),
            None,
            seed,
        )?),
        other => {
            let known: Vec<&str> = crate::spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {other:?}; known: {}",
                known.join(" ")
            ));
        }
    })
}
