//! `scmix_local`: the same `fs::file` servant behind one object per paper
//! subcontract, read round-robin — "any stub works with any subcontract".

use std::any::Any;
use std::cell::Cell;
use std::sync::Arc;

use spring_kernel::Kernel;
use spring_naming::{NameClient, NameServer, NAMING_CONTEXT_TYPE};
use spring_services::{file_cache_manager, fs};
use spring_subcontracts::{
    CacheManager, Caching, ClusterServer, Reconnectable, ReplicaGroup, RepliconServer, Shmem,
    Simplex, Singleton,
};
use subcontract::{
    ship_object, Dispatch, DomainCtx, KernelTransport, ServerSubcontract, SpringObj,
};

use crate::bench::{
    add, local_counts, simplex_ladder, simplex_metrics, Bench, Counts, Ladder, Plan, Runner,
    WARMUP_CALLS,
};
use crate::drive::{drive, Rec, Rung, Stop};
use crate::host::Calibrator;
use crate::rng::Rng;
use crate::service::{FileService, SlotOp, SlotOut};
use crate::topo::{ctx_on, live_ids};

/// The seven subcontracts of the paper, in table order.
pub const MEMBERS: [&str; 7] = [
    "singleton",
    "simplex",
    "cluster",
    "caching",
    "replicon",
    "reconnectable",
    "shmem",
];
/// Writes go through the caching member, so its cache is invalidated and
/// every other member (which reads the servant directly) sees the new
/// bytes at once; a write through any other member would leave the
/// incoherent cache stale, which the model would rightly count as wrong.
const CACHING: usize = 3;

const CHUNK: usize = 256;
const POOL: usize = 16;
/// Two reads per member per latency sample.
const BLOCK: usize = 14;
/// 128 blocks; every 256th position writes (7 writes per cycle).
const TABLE: usize = BLOCK * 128;
const WRITE_EVERY: usize = 256;

enum MixOp {
    Read { member: u8, expect: u32 },
    Write { pool: u32 },
}

struct MixRung<'a> {
    svc: &'a FileService,
    members: &'a [fs::File],
    table: &'a [MixOp],
}

fn read(file: &fs::File) -> SlotOut {
    file.read(0, CHUNK as i64)
        .map_or(SlotOut::Failed, SlotOut::Bytes)
}

fn write(svc: &FileService, file: &fs::File, pool: u32) -> SlotOut {
    file.write(0, svc.pool(pool))
        .map_or(SlotOut::Failed, |()| SlotOut::Unit)
}

impl Rung for MixRung<'_> {
    type Prep = ();
    type Out = SlotOut;

    fn len(&self) -> usize {
        self.table.len()
    }
    fn prep(&self, _i: usize) {}
    fn run(&self, i: usize, (): ()) -> SlotOut {
        match self.table[i] {
            MixOp::Read { member, .. } => read(&self.members[member as usize]),
            MixOp::Write { pool } => write(self.svc, &self.members[CACHING], pool),
        }
    }
    fn ok(&self, i: usize, out: SlotOut) -> bool {
        match (&self.table[i], out) {
            (MixOp::Read { expect, .. }, SlotOut::Bytes(b)) => b == self.svc.pool(*expect),
            (MixOp::Write { .. }, SlotOut::Unit) => true,
            _ => false,
        }
    }
}

/// One member read over and over: its `call_ns`.
struct MemberRung<'a> {
    svc: &'a FileService,
    file: &'a fs::File,
    expect: u32,
}

impl Rung for MemberRung<'_> {
    type Prep = ();
    type Out = SlotOut;

    fn len(&self) -> usize {
        BLOCK
    }
    fn prep(&self, _i: usize) {}
    fn run(&self, _i: usize, (): ()) -> SlotOut {
        read(self.file)
    }
    fn ok(&self, _i: usize, out: SlotOut) -> bool {
        matches!(out, SlotOut::Bytes(b) if b == self.svc.pool(self.expect))
    }
}

pub struct Scmix {
    svc: FileService,
    table: Vec<MixOp>,
    cursor: Cell<usize>,
    /// One `fs::file` stub per entry of [`MEMBERS`], all in the client
    /// domain, all reaching the same servant.
    members: Vec<fs::File>,
    manager: Arc<CacheManager>,
    kernel: Kernel,
    server: Arc<DomainCtx>,
    client: Arc<DomainCtx>,
    /// Server-side pieces that must outlive the members (cluster server,
    /// replica group, name server).
    _keep: Vec<Box<dyn Any>>,
}

impl Scmix {
    pub fn build(seed: u64) -> Result<Scmix, String> {
        let err = |what: &'static str| move |e: subcontract::SpringError| format!("{what}: {e}");
        let kernel = Kernel::new("bench");
        let server = ctx_on(&kernel, "server");
        let client = ctx_on(&kernel, "client");
        let mgr_ctx = ctx_on(&kernel, "cache-manager");
        let ns_ctx = ctx_on(&kernel, "name-server");

        // Machine-local naming: the caching subcontract resolves its cache
        // manager there when the object is unmarshalled.
        let ns = NameServer::new(&ns_ctx);
        let names_in = |ctx: &Arc<DomainCtx>| -> Result<NameClient, String> {
            let root = ns.root_object().map_err(err("naming root"))?;
            ship_object(&KernelTransport, root, ctx, &NAMING_CONTEXT_TYPE)
                .and_then(NameClient::from_obj)
                .map_err(err("ship naming root"))
        };
        let manager = file_cache_manager(&mgr_ctx);
        names_in(&mgr_ctx)?
            .bind(
                "cache_manager",
                &manager.export().map_err(err("export manager"))?,
            )
            .map_err(err("bind manager"))?;
        client.set_resolver(Arc::new(names_in(&client)?));
        server.set_resolver(Arc::new(names_in(&server)?));

        let svc = FileService::new(seed, CHUNK, POOL);
        let skel = || -> Arc<dyn Dispatch> { fs::FileSkeleton::new(svc.servant()) };
        let mut keep: Vec<Box<dyn Any>> = Vec::new();
        let cluster = ClusterServer::new(&server).map_err(err("cluster server"))?;
        let group = ReplicaGroup::new();
        for i in 0..3 {
            let ctx = ctx_on(&kernel, &format!("replica-{i}"));
            let replica = RepliconServer::new(&ctx, skel()).map_err(err("replica"))?;
            group.add(replica).map_err(err("add replica"))?;
        }
        let exported: [subcontract::Result<SpringObj>; 7] = [
            Singleton.export(&server, skel()),
            Simplex.export(&server, skel()),
            cluster.export(skel()),
            Caching::export(&server, skel(), "cache_manager"),
            group.object_for(&server),
            Reconnectable::export(&server, skel(), "bench-file"),
            Shmem::export(&server, skel(), Shmem::DEFAULT_REGION),
        ];
        let mut members = Vec::new();
        for (name, obj) in MEMBERS.iter().zip(exported) {
            let obj = obj.map_err(|e| format!("export via {name}: {e}"))?;
            let file = ship_object(&KernelTransport, obj, &client, &fs::FILE_TYPE)
                .and_then(fs::File::from_obj)
                .map_err(|e| format!("ship {name} object: {e}"))?;
            members.push(file);
        }
        keep.push(Box::new(cluster));
        keep.push(Box::new(group));
        keep.push(Box::new(ns));

        // The table: members in turn, a write at every 256th position; the
        // state it ends in is the state it starts in.
        let mut rng = Rng::new(seed, 0x5C);
        let writes: Vec<u32> = (0..TABLE / WRITE_EVERY)
            .map(|_| rng.below(POOL) as u32)
            .collect();
        let mut state = *writes.last().expect("the table holds writes");
        let start = state;
        let table: Vec<MixOp> = (0..TABLE)
            .map(|p| {
                if p % WRITE_EVERY == WRITE_EVERY - 1 {
                    state = writes[p / WRITE_EVERY];
                    MixOp::Write { pool: state }
                } else {
                    MixOp::Read {
                        member: (p % MEMBERS.len()) as u8,
                        expect: state,
                    }
                }
            })
            .collect();

        let mut bench = Scmix {
            svc,
            table,
            cursor: Cell::new(0),
            members,
            manager,
            kernel,
            server,
            client,
            _keep: keep,
        };
        bench.set_state(start)?;
        let warm = bench.round(Stop::Calls(WARMUP_CALLS), false);
        if warm.failed > 0 {
            return Err(format!("warm-up: {} wrong replies", warm.failed));
        }
        Ok(bench)
    }

    /// Makes pool entry `pool` the file's content (through the caching
    /// member, like every write).
    fn set_state(&self, pool: u32) -> Result<(), String> {
        match write(&self.svc, &self.members[CACHING], pool) {
            SlotOut::Unit => Ok(()),
            _ => Err("write through the caching member failed".into()),
        }
    }

    /// The content the table expects at `cursor`, unless a write comes
    /// first anyway.
    fn state_at(&self, cursor: usize) -> Option<u32> {
        let ahead = self.table[cursor..].iter().chain(&self.table[..cursor]);
        match ahead.take(WRITE_EVERY).next()? {
            MixOp::Read { expect, .. } => Some(*expect),
            MixOp::Write { .. } => None,
        }
    }

    fn mix(&self, stop: Stop, spans: bool) -> Rec {
        let rung = MixRung {
            svc: &self.svc,
            members: &self.members,
            table: &self.table,
        };
        let mut c = self.cursor.get();
        let rec = drive(&rung, &mut c, BLOCK, stop, spans);
        self.cursor.set(c);
        rec
    }
}

impl Bench for Scmix {
    fn block(&self) -> usize {
        BLOCK
    }

    fn round(&mut self, stop: Stop, spans: bool) -> Rec {
        self.mix(stop, spans)
    }

    fn pids(&self) -> Vec<u32> {
        vec![std::process::id()]
    }

    fn live_ids(&self) -> Result<i64, String> {
        Ok(live_ids(&self.kernel))
    }

    fn cycle(&self) -> u64 {
        TABLE as u64
    }

    fn cycle_payload(&self) -> u64 {
        (TABLE * (CHUNK + 16)) as u64
    }

    fn counts(&self) -> Result<Counts, String> {
        let mut counts = Counts::new();
        local_counts(&mut counts, std::slice::from_ref(&self.kernel));
        let stats = self.manager.stats();
        add(&mut counts, "cache_hits", stats.hits());
        add(&mut counts, "cache_misses", stats.misses());
        Ok(counts)
    }

    fn trace(&self, on: bool) -> Result<(), String> {
        spring_trace::reset();
        spring_trace::set_enabled(on);
        Ok(())
    }

    /// The simplex member's own ladder (servant to stub, reads only), then
    /// each member's stub on its own, then the mix itself.
    fn ladder(&mut self, plan: Plan, cal: &Calibrator) -> Result<Ladder, String> {
        // Fourteen rungs instead of at most eight: half the slices each.
        let plan = Plan {
            passes: (plan.passes / 2).max(1),
            ..plan
        };
        // While the single-member rungs run the file holds pool entry 0;
        // the mix rung swaps its own expected content in and out.
        const HELD: u32 = 0;
        self.set_state(HELD)?;
        let this = &*self;
        let sub_table: Vec<SlotOp> = (0..BLOCK)
            .map(|_| SlotOp::Read {
                slot: 0,
                expect: HELD,
            })
            .collect();
        let member_rungs: Vec<MemberRung<'_>> = this
            .members
            .iter()
            .map(|file| MemberRung {
                svc: &this.svc,
                file,
                expect: HELD,
            })
            .collect();
        let mut member_runs: Vec<_> = member_rungs
            .iter()
            .map(|rung| move |stop, spans| drive(rung, &mut 0, BLOCK, stop, spans))
            .collect();
        let mut mix = |stop, spans| {
            let swapped_in = this
                .state_at(this.cursor.get())
                .map_or(Ok(()), |s| this.set_state(s));
            let rec = this.mix(stop, spans);
            let swapped_out = this.set_state(HELD);
            if swapped_in.is_err() || swapped_out.is_err() {
                // Surfaces as a failed rung rather than a panic.
                return Rec {
                    attempted: 1,
                    failed: 1,
                    ..Rec::default()
                };
            }
            rec
        };
        let mut upper: Vec<Runner<'_>> = MEMBERS
            .iter()
            .zip(member_runs.iter_mut())
            .map(|(name, run)| (*name, run as &mut dyn FnMut(Stop, bool) -> Rec))
            .collect();
        upper.push(("mix", &mut mix));
        let rungs = simplex_ladder(
            &this.svc,
            &sub_table,
            &this.server,
            &this.client,
            &Cell::new(0),
            crate::drive::BLOCK_LOCAL,
            true,
            &mut upper,
            plan,
            cal,
        )?;
        drop(upper);
        if let Some(s) = this.state_at(this.cursor.get()) {
            this.set_state(s)?;
        }

        let mut metrics = simplex_metrics(&rungs);
        const CALL_NS: [&str; 7] = [
            "subcontracts.singleton.call_ns",
            "subcontracts.simplex.call_ns",
            "subcontracts.cluster.call_ns",
            "subcontracts.caching.call_ns",
            "subcontracts.replicon.call_ns",
            "subcontracts.reconnectable.call_ns",
            "subcontracts.shmem.call_ns",
        ];
        for (member, metric) in MEMBERS.iter().zip(CALL_NS) {
            let rung = rungs
                .iter()
                .find(|r| r.name == *member)
                .ok_or("member rung missing")?;
            metrics.push((metric, rung.p50_ns));
        }
        Ok(Ladder { rungs, metrics })
    }
}
