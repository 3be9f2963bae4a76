//! `objpass_sim`: resolve a `kv::bucket` through the name service across
//! the simulated network, call `size()` on what arrives, drop it — the
//! paper's object transmission (E2) beside the other workloads' calls.
//!
//! The services here are the repo's own (`spring-naming`'s name server,
//! `spring-services`' kv store): nothing below a stub is called, so their
//! private servants are no obstacle.

use std::cell::Cell;
use std::sync::Arc;

use spring_buf::CommBuffer;
use spring_kernel::{CallCtx, DoorError, DoorHandler, Message};
use spring_naming::{NameClient, NameServer, NAMING_CONTEXT_TYPE};
use spring_services::{kv, KvStore};
use subcontract::{
    ship_object, ship_object_copy, unmarshal_object, KernelTransport, SpringObj, Transport,
};

use crate::bench::{
    interleave, local_counts, net_counts, Bench, Counts, Ladder, Plan, Runner, WARMUP_CALLS,
};
use crate::drive::{drive, Rec, Rung, Stop, BLOCK_LOCAL};
use crate::host::Calibrator;
use crate::rng::Rng;
use crate::topo::{ctx_on, live_ids, Sim, Topo};

const BUCKETS: usize = 64;
const TABLE: usize = 256;

pub struct Objpass {
    /// Table position → bucket index.
    table: Vec<u32>,
    cursor: Cell<usize>,
    /// `buckets/b<i>`, and how many entries bucket `i` holds.
    names: Vec<String>,
    sizes: Vec<i64>,
    /// The name service's root context, held in the client domain.
    resolver: NameClient,
    /// The bucket objects in the server's domain (what the name service
    /// hands out copies of), and one already on the client's node.
    local: Vec<kv::Bucket>,
    far: kv::Bucket,
    _store: (Arc<KvStore>, kv::Store, Arc<NameServer>),
    sim: Sim,
}

impl Objpass {
    pub fn build(seed: u64) -> Result<Objpass, String> {
        let err = |what: &'static str| move |e: subcontract::SpringError| format!("{what}: {e}");
        let sim = Sim::new();
        let ns_ctx = ctx_on(&sim.server_kernel, "name-server");
        let ns = NameServer::new(&ns_ctx);
        let root = || ns.root_object().map_err(err("naming root"));
        let server_names =
            ship_object(&KernelTransport, root()?, &sim.server, &NAMING_CONTEXT_TYPE)
                .and_then(NameClient::from_obj)
                .map_err(err("naming root to server"))?;
        let dir = server_names
            .create_context("buckets")
            .map_err(err("create context"))?;

        let store = KvStore::new(&sim.server);
        let store_stub = store.export().map_err(err("export store"))?;
        let mut rng = Rng::new(seed, 0x0B);
        let value = rng.bytes(64);
        let (mut names, mut sizes, mut local) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..BUCKETS {
            let bucket = store_stub
                .open_bucket(&format!("b{i}"))
                .map_err(|e| format!("open bucket: {e}"))?;
            let size = 1 + rng.below(8);
            for k in 0..size {
                bucket
                    .put(&format!("k{k}"), &value)
                    .map_err(|e| format!("fill bucket: {e}"))?;
            }
            dir.bind(&format!("b{i}"), bucket.obj())
                .map_err(err("bind bucket"))?;
            names.push(format!("buckets/b{i}"));
            sizes.push(size as i64);
            local.push(bucket);
        }
        let resolver = ship_object(&*sim.net, root()?, &sim.client, &NAMING_CONTEXT_TYPE)
            .and_then(NameClient::from_obj)
            .map_err(err("naming root to client"))?;
        let far = resolver
            .resolve(&names[0], &kv::BUCKET_TYPE)
            .and_then(kv::Bucket::from_obj)
            .map_err(err("resolve held bucket"))?;
        let table = (0..TABLE).map(|_| rng.below(BUCKETS) as u32).collect();

        let mut bench = Objpass {
            table,
            cursor: Cell::new(0),
            names,
            sizes,
            resolver,
            local,
            far,
            _store: (store, store_stub, ns),
            sim,
        };
        let warm = bench.round(Stop::Calls(WARMUP_CALLS), false);
        if warm.failed > 0 {
            return Err(format!("warm-up: {} wrong replies", warm.failed));
        }
        Ok(bench)
    }

    fn pass(&self, stop: Stop, spans: bool) -> Rec {
        let mut c = self.cursor.get();
        let rec = drive(&Full(self), &mut c, BLOCK_LOCAL, stop, spans);
        self.cursor.set(c);
        rec
    }
}

/// The workload's own operation: resolve, narrow, `size()`, drop.
struct Full<'a>(&'a Objpass);

impl Rung for Full<'_> {
    type Prep = ();
    type Out = Option<i64>;

    fn len(&self) -> usize {
        self.0.table.len()
    }
    fn prep(&self, _i: usize) {}
    fn run(&self, i: usize, (): ()) -> Option<i64> {
        let name = &self.0.names[self.0.table[i] as usize];
        let obj = self.0.resolver.resolve(name, &kv::BUCKET_TYPE).ok()?;
        let bucket = kv::Bucket::from_obj(obj).ok()?;
        bucket.get_size().ok()
        // `bucket` is dropped here, inside the timed region: consuming the
        // object is part of passing it.
    }
    fn ok(&self, i: usize, out: Option<i64>) -> bool {
        out == Some(self.0.sizes[self.0.table[i] as usize])
    }
}

/// `size()` on a bucket that already arrived: the plain call the full
/// operation contains.
struct SizeCall<'a>(&'a Objpass);

impl Rung for SizeCall<'_> {
    type Prep = ();
    type Out = Option<i64>;

    fn len(&self) -> usize {
        1
    }
    fn prep(&self, _i: usize) {}
    fn run(&self, _i: usize, (): ()) -> Option<i64> {
        self.0.far.get_size().ok()
    }
    fn ok(&self, _i: usize, out: Option<i64>) -> bool {
        out == Some(self.0.sizes[0])
    }
}

/// Copy-ship a bucket object to another domain and drop what arrives:
/// marshal, move the identifiers, unmarshal, consume — over plain kernel
/// transfers or over the network.
struct Ship<'a> {
    bench: &'a Objpass,
    transport: &'a dyn Transport,
    to: &'a Arc<subcontract::DomainCtx>,
}

impl Rung for Ship<'_> {
    type Prep = ();
    type Out = bool;

    fn len(&self) -> usize {
        self.bench.local.len()
    }
    fn prep(&self, _i: usize) {}
    fn run(&self, i: usize, (): ()) -> bool {
        let obj = self.bench.local[i].obj();
        ship_object_copy(self.transport, obj, self.to, &kv::BUCKET_TYPE).is_ok()
    }
    fn ok(&self, _i: usize, out: bool) -> bool {
        out
    }
}

/// `marshal_copy` alone; the identifiers it produced are deleted after
/// the clock stops.
struct Marshal<'a>(&'a Objpass);

impl Rung for Marshal<'_> {
    type Prep = ();
    type Out = Option<CommBuffer>;

    fn len(&self) -> usize {
        self.0.local.len()
    }
    fn prep(&self, _i: usize) {}
    fn run(&self, i: usize, (): ()) -> Option<CommBuffer> {
        let mut buf = CommBuffer::pooled();
        self.0.local[i].obj().marshal_copy(&mut buf).ok()?;
        Some(buf)
    }
    fn ok(&self, _i: usize, out: Option<CommBuffer>) -> bool {
        let Some(buf) = out else { return false };
        let doors = buf.into_message().doors;
        let some = !doors.is_empty();
        for d in doors {
            let _ = self.0.sim.server.domain().delete_door(d);
        }
        some
    }
}

/// `unmarshal_object` alone, on a message already moved to the receiving
/// domain; the object it fabricates is consumed after the clock stops.
struct Unmarshal<'a>(&'a Objpass);

impl Rung for Unmarshal<'_> {
    type Prep = Option<CommBuffer>;
    type Out = Option<SpringObj>;

    fn len(&self) -> usize {
        self.0.local.len()
    }
    fn prep(&self, i: usize) -> Option<CommBuffer> {
        let sim = &self.0.sim;
        let mut buf = CommBuffer::pooled();
        self.0.local[i].obj().marshal_copy(&mut buf).ok()?;
        let msg = KernelTransport
            .ship(sim.server.domain(), sim.near.domain(), buf.into_message())
            .ok()?;
        Some(CommBuffer::from_message(msg))
    }
    fn run(&self, _i: usize, buf: Option<CommBuffer>) -> Option<SpringObj> {
        unmarshal_object(&self.0.sim.near, &kv::BUCKET_TYPE, &mut buf?).ok()
    }
    fn ok(&self, _i: usize, out: Option<SpringObj>) -> bool {
        out.is_some()
    }
}

struct NullHandler;

impl DoorHandler for NullHandler {
    fn invoke(&self, _ctx: &CallCtx, _msg: Message) -> Result<Message, DoorError> {
        Ok(Message::new())
    }
}

/// A door's life in the kernel's tables: create, transfer to another
/// domain, copy there, delete both identifiers (the door dies with the
/// last one).
struct Lifecycle<'a>(&'a Objpass);

impl Rung for Lifecycle<'_> {
    type Prep = Arc<NullHandler>;
    type Out = bool;

    fn len(&self) -> usize {
        1
    }
    fn prep(&self, _i: usize) -> Arc<NullHandler> {
        Arc::new(NullHandler)
    }
    fn run(&self, _i: usize, handler: Arc<NullHandler>) -> bool {
        let (server, near) = (self.0.sim.server.domain(), self.0.sim.near.domain());
        let life = || -> Result<(), DoorError> {
            let door = server.create_door(handler)?;
            let moved = server.transfer_door(door, near)?;
            let copy = near.copy_door(moved)?;
            near.delete_door(copy)?;
            near.delete_door(moved)
        };
        life().is_ok()
    }
    fn ok(&self, _i: usize, out: bool) -> bool {
        out
    }
}

impl Bench for Objpass {
    fn block(&self) -> usize {
        BLOCK_LOCAL
    }

    fn round(&mut self, stop: Stop, spans: bool) -> Rec {
        self.pass(stop, spans)
    }

    fn pids(&self) -> Vec<u32> {
        vec![std::process::id()]
    }

    fn live_ids(&self) -> Result<i64, String> {
        Ok(self.sim.kernels().iter().map(live_ids).sum())
    }

    fn cycle(&self) -> u64 {
        TABLE as u64
    }

    fn cycle_payload(&self) -> u64 {
        // A name goes out and a size comes back; everything else on the
        // wire is the price of passing the object.
        self.table
            .iter()
            .map(|&b| self.names[b as usize].len() as u64 + 8)
            .sum()
    }

    fn counts(&self) -> Result<Counts, String> {
        let mut counts = Counts::new();
        local_counts(&mut counts, &self.sim.kernels());
        net_counts(&mut counts, &self.sim.net);
        Ok(counts)
    }

    fn trace(&self, on: bool) -> Result<(), String> {
        spring_trace::reset();
        spring_trace::set_enabled(on);
        Ok(())
    }

    /// Not a call ladder but an object-passing one: what a door costs the
    /// kernel's tables, what marshal and unmarshal cost, what crossing the
    /// network adds to a shipped object, and what the name service adds
    /// to that.
    fn ladder(&mut self, plan: Plan, cal: &Calibrator) -> Result<Ladder, String> {
        let this = &*self;
        fn at<'a, R: Rung + 'a>(rung: R) -> impl FnMut(Stop, bool) -> Rec + 'a {
            let mut cursor = 0;
            move |stop, spans| drive(&rung, &mut cursor, BLOCK_LOCAL, stop, spans)
        }
        let mut lifecycle = at(Lifecycle(this));
        let mut marshal = at(Marshal(this));
        let mut unmarshal = at(Unmarshal(this));
        let mut ship_kernel = at(Ship {
            bench: this,
            transport: &KernelTransport,
            to: &this.sim.near,
        });
        let mut ship_net = at(Ship {
            bench: this,
            transport: &*this.sim.net,
            to: &this.sim.client,
        });
        let mut size_call = at(SizeCall(this));
        let mut full = |stop, spans| this.pass(stop, spans);
        let rungs: &mut [Runner<'_>] = &mut [
            ("door_lifecycle", &mut lifecycle),
            ("marshal", &mut marshal),
            ("unmarshal", &mut unmarshal),
            ("ship_kernel", &mut ship_kernel),
            ("ship_net", &mut ship_net),
            ("size_call", &mut size_call),
            ("objpass", &mut full),
        ];
        let rungs = interleave(cal, plan, rungs)?;
        let p50 = |name: &str| {
            rungs
                .iter()
                .find(|r| r.name == name)
                .map_or(0.0, |r| r.p50_ns)
        };
        let metrics = vec![
            ("kernel.door_lifecycle_ns", p50("door_lifecycle")),
            ("core.marshal_ns", p50("marshal")),
            ("core.unmarshal_ns", p50("unmarshal")),
            ("net.export_proxy_ns", p50("ship_net") - p50("ship_kernel")),
            (
                "naming.resolve_self_ns",
                p50("objpass") - p50("ship_net") - p50("size_call"),
            ),
        ];
        Ok(Ladder { rungs, metrics })
    }
}
