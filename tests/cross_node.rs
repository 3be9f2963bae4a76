//! Cross-machine behaviour under fault injection: caching wins, replicon
//! failover over partitions, reconnection through the real name service,
//! and pipelined traffic that steers no link but its own.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use spring::buf::CommBuffer;
use spring::core::{encode_ok, ship_object, Dispatch, DomainCtx, ServerCtx, TypeInfo, OBJECT_TYPE};
use spring::kernel::{CallCtx, Kernel, Message};
use spring::naming::{NameClient, NameServer, NAMING_CONTEXT_TYPE};
use spring::net::{NetConfig, Network};
use spring::services::{file_cache_manager, fs, FileServer, ReplicatedFileGroup};
use spring::subcontracts::{register_standard, Pipeline, Reconnectable, RetryPolicy};

fn ctx_on(kernel: &Kernel, name: &str) -> Arc<DomainCtx> {
    let ctx = DomainCtx::new(kernel.create_domain(name));
    register_standard(&ctx);
    spring::services::register_fs_types(&ctx);
    ctx
}

#[test]
fn caching_avoids_network_traffic() {
    let net = Network::new(NetConfig::default());
    let server_node = net.add_node("server");
    let client_node = net.add_node("client");

    let server_ctx = ctx_on(server_node.kernel(), "fileserver");
    let client_ctx = ctx_on(client_node.kernel(), "client");
    let mgr_ctx = ctx_on(client_node.kernel(), "manager");
    let ns_ctx = ctx_on(client_node.kernel(), "naming");

    let ns = NameServer::new(&ns_ctx);
    let manager = file_cache_manager(&mgr_ctx);
    let mgr_names = NameClient::from_obj(
        ship_object(
            &*net,
            ns.root_object().unwrap(),
            &mgr_ctx,
            &NAMING_CONTEXT_TYPE,
        )
        .unwrap(),
    )
    .unwrap();
    mgr_names
        .bind("cache_manager", &manager.export().unwrap())
        .unwrap();
    let client_names = NameClient::from_obj(
        ship_object(
            &*net,
            ns.root_object().unwrap(),
            &client_ctx,
            &NAMING_CONTEXT_TYPE,
        )
        .unwrap(),
    )
    .unwrap();
    client_ctx.set_resolver(Arc::new(client_names));

    let fileserver = FileServer::new(&server_ctx, "cache_manager");
    fileserver.put("data", b"highly cacheable");
    let cached = fs::CacheableFile::from_obj(
        ship_object(
            &*net,
            fileserver.export_cacheable("data").unwrap(),
            &client_ctx,
            &fs::CACHEABLE_FILE_TYPE,
        )
        .unwrap(),
    )
    .unwrap();

    // First read crosses the wire; the rest are answered on-machine.
    let before = net.stats();
    for _ in 0..20 {
        assert_eq!(cached.read(0, 6).unwrap(), b"highly");
    }
    let delta = net.stats().since(&before);
    assert_eq!(
        delta.calls_forwarded, 1,
        "only the cache miss crossed the network"
    );
    assert_eq!(manager.stats().hits(), 19);

    // Versus an uncached file: every read crosses.
    fileserver.put("raw", b"not cached");
    let raw = fs::File::from_obj(
        ship_object(
            &*net,
            fileserver.export_file("raw").unwrap(),
            &client_ctx,
            &fs::FILE_TYPE,
        )
        .unwrap(),
    )
    .unwrap();
    let before = net.stats();
    for _ in 0..20 {
        assert_eq!(raw.read(0, 3).unwrap(), b"not");
    }
    assert_eq!(net.stats().since(&before).calls_forwarded, 20);
}

#[test]
fn replicon_survives_partition_then_crash() {
    let net = Network::new(NetConfig::default());
    let nodes: Vec<_> = (0..3).map(|i| net.add_node(format!("r{i}"))).collect();
    let client_node = net.add_node("client");

    let replica_ctxs: Vec<Arc<DomainCtx>> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| ctx_on(n.kernel(), &format!("replica-{i}")))
        .collect();
    let client_ctx = ctx_on(client_node.kernel(), "client");

    let group =
        ReplicatedFileGroup::build_with_transport(&replica_ctxs, b"alpha", net.clone()).unwrap();
    let f = group.object_for(&client_ctx).unwrap();
    assert_eq!(f.read(0, 5).unwrap(), b"alpha");

    // Partition the client from the first replica's machine: invoke fails
    // over to a reachable one without dropping the call.
    net.partition(client_node.id(), nodes[0].id());
    assert_eq!(f.read(0, 5).unwrap(), b"alpha");
    net.heal_all();

    // Now crash a machine outright; group management removes it and the
    // reply piggyback refreshes the client's door set.
    group.crash_replica(1).unwrap();
    f.write(0, b"bravo").unwrap();
    assert_eq!(group.replica_content(0), b"bravo");
    assert_eq!(group.replica_content(2), b"bravo");
}

#[test]
fn reconnect_through_real_naming_across_machines() {
    let net = Network::new(NetConfig::default());
    let server_node = net.add_node("server");
    let client_node = net.add_node("client");
    let ns_node = net.add_node("naming");

    let policy = RetryPolicy {
        max_attempts: 20,
        interval: Duration::from_millis(2),
        ..RetryPolicy::default()
    };
    let make_ctx = |kernel: &Kernel, name: &str| {
        let ctx = ctx_on(kernel, name);
        ctx.register_subcontract(Reconnectable::with_policy(policy));
        ctx
    };

    let ns_ctx = make_ctx(ns_node.kernel(), "name-server");
    let ns = NameServer::new(&ns_ctx);

    // Generation 1 of a file service, reconnectable under "svc".
    let gen1 = make_ctx(server_node.kernel(), "server-gen1");
    let fileserver1 = FileServer::new(&gen1, "m");
    fileserver1.put("state", b"persistent");
    let disp = {
        // Reconnectable needs the skeleton; build one over the servant the
        // file server would use.
        struct Stateless(Arc<FileServer>);
        impl fs::FileServant for Stateless {
            fn size(&self) -> Result<i64, fs::FileError> {
                self.file().size()
            }
            fn read(&self, o: i64, c: i64) -> Result<Vec<u8>, fs::FileError> {
                self.file().read(o, c)
            }
            fn write(&self, o: i64, d: Vec<u8>) -> Result<(), fs::FileError> {
                self.file().write(o, &d)
            }
            fn truncate(&self, s: i64) -> Result<(), fs::FileError> {
                self.file().truncate(s)
            }
            fn stat(&self) -> Result<fs::FileStat, fs::FileError> {
                self.file().stat()
            }
            fn version(&self) -> Result<i64, fs::FileError> {
                self.file().version()
            }
        }
        impl Stateless {
            fn file(&self) -> fs::File {
                fs::File::from_obj(self.0.export_file("state").unwrap()).unwrap()
            }
        }
        fs::FileSkeleton::new(Arc::new(Stateless(fileserver1.clone())))
    };
    let obj = Reconnectable::export(&gen1, disp, "svc").unwrap();
    let gen1_names = NameClient::from_obj(
        ship_object(
            &*net,
            ns.root_object().unwrap(),
            &gen1,
            &NAMING_CONTEXT_TYPE,
        )
        .unwrap(),
    )
    .unwrap();
    gen1_names.bind("svc", &obj).unwrap();

    // Client on another machine.
    let client_ctx = make_ctx(client_node.kernel(), "client");
    let client_names = NameClient::from_obj(
        ship_object(
            &*net,
            ns.root_object().unwrap(),
            &client_ctx,
            &NAMING_CONTEXT_TYPE,
        )
        .unwrap(),
    )
    .unwrap();
    let f = fs::File::from_obj(client_names.resolve("svc", &fs::FILE_TYPE).unwrap()).unwrap();
    client_ctx.set_resolver(Arc::new(client_names));
    assert_eq!(f.read(0, 10).unwrap(), b"persistent");

    // Crash generation 1; restart generation 2 on the same machine and
    // re-bind the name.
    gen1.domain().crash();
    let gen2 = make_ctx(server_node.kernel(), "server-gen2");
    let servant2 = {
        struct Fixed;
        impl fs::FileServant for Fixed {
            fn size(&self) -> Result<i64, fs::FileError> {
                Ok(10)
            }
            fn read(&self, _o: i64, _c: i64) -> Result<Vec<u8>, fs::FileError> {
                Ok(b"persistent".to_vec())
            }
            fn write(&self, _o: i64, _d: Vec<u8>) -> Result<(), fs::FileError> {
                Ok(())
            }
            fn truncate(&self, _s: i64) -> Result<(), fs::FileError> {
                Ok(())
            }
            fn stat(&self) -> Result<fs::FileStat, fs::FileError> {
                Ok(fs::FileStat {
                    size: 10,
                    version: 1,
                    writable: true,
                })
            }
            fn version(&self) -> Result<i64, fs::FileError> {
                Ok(1)
            }
        }
        fs::FileSkeleton::new(Arc::new(Fixed))
    };
    let obj2 = Reconnectable::export(&gen2, servant2, "svc").unwrap();
    let gen2_names = NameClient::from_obj(
        ship_object(
            &*net,
            ns.root_object().unwrap(),
            &gen2,
            &NAMING_CONTEXT_TYPE,
        )
        .unwrap(),
    )
    .unwrap();
    gen2_names.unbind("svc").unwrap();
    gen2_names.bind_consume("svc", obj2).unwrap();

    // The client's next call reconnects across the network.
    assert_eq!(f.read(0, 10).unwrap(), b"persistent");
}

/// Holds every call until the test opens the gate, counting those inside.
#[derive(Default)]
struct Parking {
    /// (calls inside, gate open)
    state: Mutex<(usize, bool)>,
    changed: Condvar,
}

impl Parking {
    /// Blocks until `calls` are parked inside; panics after twenty seconds.
    fn await_parked(&self, calls: usize) {
        let state = self.state.lock().unwrap();
        let (state, timeout) = self
            .changed
            .wait_timeout_while(state, Duration::from_secs(20), |s| s.0 < calls)
            .unwrap();
        assert!(!timeout.timed_out(), "{} of {calls} calls parked", state.0);
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.changed.notify_all();
    }
}

impl Dispatch for Parking {
    fn type_info(&self) -> &'static TypeInfo {
        &OBJECT_TYPE
    }

    fn dispatch(
        &self,
        _sctx: &ServerCtx,
        _op: u32,
        _args: &mut CommBuffer,
        reply: &mut CommBuffer,
    ) -> spring::core::Result<()> {
        let mut state = self.state.lock().unwrap();
        state.0 += 1;
        self.changed.notify_all();
        let _open = self.changed.wait_while(state, |s| !s.1).unwrap();
        encode_ok(reply);
        Ok(())
    }
}

/// Pipelined calls outstanding on one link are that link's business alone.
/// With two `invoke_async` calls held in a servant, a plain call on another
/// link of the same network, and one on a different network altogether,
/// leave at once in frames of their own — although both networks would let
/// a frame that expects company linger five seconds.
#[test]
fn pipelined_calls_in_flight_delay_no_plain_call_elsewhere() {
    fn slow() -> NetConfig {
        NetConfig {
            batch_linger: Duration::from_secs(5),
            ..NetConfig::default()
        }
    }
    /// Makes one plain call from a fresh domain on `client` to an echo door
    /// served on `server` and checks it left at once, in a frame of its own.
    fn assert_plain_call_is_prompt_and_alone(
        net: &Network,
        server: &spring::net::Node,
        client: &spring::net::Node,
        on: &str,
    ) {
        let serving = server.kernel().create_domain("echo");
        let calling = client.kernel().create_domain("plain-caller");
        let door = serving
            .create_door(Arc::new(|_: &CallCtx, msg: Message| Ok(msg)))
            .unwrap();
        let shipped = Message {
            doors: vec![door],
            ..Message::default()
        };
        let proxy = net.ship_message(&serving, &calling, shipped).unwrap().doors[0];

        let before = net.stats();
        let asked = Instant::now();
        calling.call(proxy, Message::new()).unwrap();
        let took = asked.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "a plain call on {on} waited {took:?} for pipelined traffic that is not its own",
        );
        let delta = net.stats().since(&before);
        assert_eq!(
            (delta.calls_unbatched, delta.calls_batched),
            (1, 0),
            "the plain call on {on} rides a frame of its own",
        );
    }

    let busy = Network::new(slow());
    let server_node = busy.add_node("server");
    let client_node = busy.add_node("client");
    let bystander_node = busy.add_node("bystander");
    let server_ctx = ctx_on(server_node.kernel(), "parking");
    let client_ctx = ctx_on(client_node.kernel(), "pipeliner");

    let parking = Arc::new(Parking::default());
    let obj = Pipeline::export(&server_ctx, parking.clone()).unwrap();
    let client_obj = ship_object(&*busy, obj, &client_ctx, &OBJECT_TYPE).unwrap();
    // One at a time, so each call rides its own frame: the simulated
    // transport runs a frame's calls one after the other and the servant
    // would never see the second of two that shared one.
    let promises: Vec<_> = (1..=2)
        .map(|parked| {
            let call = client_obj.start_call(1).unwrap();
            let promise = Pipeline::invoke_async(&client_obj, call).unwrap();
            parking.await_parked(parked);
            promise
        })
        .collect();

    assert_plain_call_is_prompt_and_alone(
        &busy,
        &bystander_node,
        &client_node,
        "a second link of the pipelining network",
    );
    let quiet = Network::new(slow());
    let (a, b) = (quiet.add_node("a"), quiet.add_node("b"));
    assert_plain_call_is_prompt_and_alone(&quiet, &b, &a, "a second network");

    parking.open();
    for promise in promises {
        promise.wait().unwrap();
    }
}
