//! Shmem subcontract (§5.1.4): arguments marshalled directly into shared
//! memory, avoiding the kernel's cross-domain payload copy.

mod common;

use common::{ctx_on, ship, CounterClient, CounterServant, COUNTER_TYPE};
use spring_kernel::Kernel;
use spring_subcontracts::Shmem;

#[test]
fn calls_work_through_shared_memory() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let client = ctx_on(&kernel, "client");

    let obj = Shmem::export(&server, CounterServant::new(10), 4096).unwrap();
    let c = CounterClient(ship(obj, &client, &COUNTER_TYPE).unwrap());
    assert_eq!(c.get().unwrap(), 10);
    assert_eq!(c.add(5).unwrap(), 15);
    assert_eq!(c.echo(b"shared!").unwrap(), b"shared!");
}

#[test]
fn payload_bytes_skip_the_kernel_copy() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let client = ctx_on(&kernel, "client");

    let payload = vec![0xAB; 64 * 1024];

    // Baseline: the same payload through simplex is copied by the kernel.
    let simplex_obj = subcontract::ServerSubcontract::export(
        &*spring_subcontracts::Simplex::new(),
        &server,
        CounterServant::new(0),
    )
    .unwrap();
    let simplex = CounterClient(ship(simplex_obj, &client, &COUNTER_TYPE).unwrap());
    let before = kernel.stats();
    simplex.echo(&payload).unwrap();
    let simplex_copied = kernel.stats().since(&before).bytes_copied;

    let shmem_obj = Shmem::export(&server, CounterServant::new(0), 256 * 1024).unwrap();
    let shm = CounterClient(ship(shmem_obj, &client, &COUNTER_TYPE).unwrap());
    let before = kernel.stats();
    shm.echo(&payload).unwrap();
    let shm_copied = kernel.stats().since(&before).bytes_copied;

    // The shmem request payload crossed without a copy; only the small
    // descriptor and the (echoed) reply bytes were copied. Simplex copies
    // the payload in both directions.
    assert!(simplex_copied > 2 * payload.len() as u64);
    assert!(
        shm_copied <= payload.len() as u64 + 1024,
        "shm {shm_copied} vs simplex {simplex_copied}"
    );
}

#[test]
fn each_client_gets_its_own_region() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let a = ctx_on(&kernel, "a");
    let b = ctx_on(&kernel, "b");

    let obj = Shmem::export(&server, CounterServant::new(0), 1024).unwrap();
    let ca = CounterClient(common::ship_copy(&obj, &a, &COUNTER_TYPE).unwrap());
    let cb = CounterClient(common::ship_copy(&obj, &b, &COUNTER_TYPE).unwrap());

    // Interleaved calls from both clients do not trample each other.
    assert_eq!(ca.add(1).unwrap(), 1);
    assert_eq!(cb.add(2).unwrap(), 3);
    assert_eq!(ca.echo(b"aaa").unwrap(), b"aaa");
    assert_eq!(cb.echo(b"bbb").unwrap(), b"bbb");
}

#[test]
fn consume_destroys_region_and_door() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let client = ctx_on(&kernel, "client");

    let obj = Shmem::export(&server, CounterServant::new(0), 512).unwrap();
    let obj = ship(obj, &client, &COUNTER_TYPE).unwrap();
    let before = kernel.stats();
    obj.consume().unwrap();
    let delta = kernel.stats().since(&before);
    assert_eq!(delta.ids_deleted, 1);
}

#[test]
fn marshal_roundtrip_recreates_region() {
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let a = ctx_on(&kernel, "a");
    let b = ctx_on(&kernel, "b");

    let obj = Shmem::export(&server, CounterServant::new(1), 2048).unwrap();
    let obj = ship(obj, &a, &COUNTER_TYPE).unwrap();
    let obj = ship(obj, &b, &COUNTER_TYPE).unwrap();
    let c = CounterClient(obj);
    assert_eq!(c.add(1).unwrap(), 2);
}

#[test]
fn a_marshalled_region_size_is_bounded_before_anything_is_allocated() {
    // The size after the door is the sender's claim. A form claiming 2^40
    // bytes (or none) must be refused with a typed error — not answered
    // with a terabyte allocation — and the door that landed released.
    use spring_buf::{BufError, CommBuffer};
    use subcontract::SpringError;

    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let keeper = Shmem::export(&server, CounterServant::new(0), 4096).unwrap();
    let baseline = common::live(&kernel);

    for claimed in [1u64 << 40, Shmem::MAX_REGION as u64 + 1, 0] {
        let mut buf = CommBuffer::new();
        keeper.marshal_copy(&mut buf).unwrap();
        let mut msg = buf.into_message();
        let size_at = msg.bytes.len() - 8;
        assert_eq!(msg.bytes[size_at..], 4096u64.to_le_bytes());
        msg.bytes[size_at..].copy_from_slice(&claimed.to_le_bytes());

        let mut buf = CommBuffer::from_message(msg);
        match subcontract::unmarshal_object(&server, &COUNTER_TYPE, &mut buf) {
            Err(SpringError::Buf(BufError::LengthOverrun { claimed: c, limit })) => {
                assert_eq!((c, limit), (claimed, Shmem::MAX_REGION as u64));
            }
            other => panic!("claimed {claimed}: {other:?}"),
        }
        assert_eq!(buf.drain_doors(), [], "the door was read, then released");
        assert_eq!(common::live(&kernel), baseline);
    }
    // An export is held to the same bound, before it creates its door.
    assert!(Shmem::export(&server, CounterServant::new(0), Shmem::MAX_REGION + 1).is_err());
    assert_eq!(common::live(&kernel), baseline);
    assert_eq!(CounterClient(keeper).get().unwrap(), 0);
}

#[test]
fn large_payload_grows_region() {
    // Marshalling past the advertised region size must still work: the
    // mapping grows and publishes back.
    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let client = ctx_on(&kernel, "client");

    let obj = Shmem::export(&server, CounterServant::new(0), 64).unwrap();
    let c = CounterClient(ship(obj, &client, &COUNTER_TYPE).unwrap());
    let big = vec![7u8; 10_000];
    assert_eq!(c.echo(&big).unwrap(), big);
}

#[test]
fn concurrent_calls_on_one_shmem_object_are_rejected_cleanly() {
    // A shmem object's region admits one in-flight call; a concurrent
    // caller gets a clean error, never corruption (documented limitation —
    // use one object per thread, or copy the object).
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    struct Slow;
    impl subcontract::Dispatch for Slow {
        fn type_info(&self) -> &'static subcontract::TypeInfo {
            &COUNTER_TYPE
        }
        fn dispatch(
            &self,
            _sctx: &subcontract::ServerCtx,
            _op: u32,
            _args: &mut spring_buf::CommBuffer,
            reply: &mut spring_buf::CommBuffer,
        ) -> subcontract::Result<()> {
            std::thread::sleep(std::time::Duration::from_millis(20));
            subcontract::encode_ok(reply);
            reply.put_i64(0);
            Ok(())
        }
    }

    let kernel = Kernel::new("t");
    let server = ctx_on(&kernel, "server");
    let obj = Shmem::export(&server, std::sync::Arc::new(Slow), 1024).unwrap();
    let obj = std::sync::Arc::new(obj);

    let barrier = std::sync::Arc::new(Barrier::new(2));
    let failures = std::sync::Arc::new(AtomicU64::new(0));
    let mut joins = Vec::new();
    for _ in 0..2 {
        let obj = obj.clone();
        let barrier = barrier.clone();
        let failures = failures.clone();
        joins.push(std::thread::spawn(move || {
            barrier.wait();
            match obj.start_call(common::OP_GET) {
                Ok(call) => {
                    let _ = obj.invoke(call);
                }
                Err(_) => {
                    failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    // At most one loser, and it failed at start_call (the region was busy).
    assert!(failures.load(Ordering::Relaxed) <= 1);
}
