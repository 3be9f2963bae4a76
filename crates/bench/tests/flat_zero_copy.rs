//! Proof that fixed-shape unmarshal is zero-copy on the two transports the
//! flat wire format targets.
//!
//! * Same-domain (D2) delivery: the kernel moves the frame by ownership
//!   transfer, so a full generated-stub round trip copies **zero** payload
//!   bytes (`bytes_copied` stays flat) and performs zero decode copies
//!   (`spring_buf::flat::decode_bytes_copied` stays flat). With the buffer
//!   pool warm it also performs zero heap allocations, which the counting
//!   global allocator below enforces (and is why this suite lives alone in
//!   its own integration-test binary).
//! * Shmem transport: argument frames cross in shared memory and are
//!   flat-decoded in place; only the 16-byte region descriptor and the
//!   small reply ride the kernel's copying path, independent of payload
//!   size. The descriptor's backing comes from the pool, so a warm call
//!   allocates nothing here either.
//!
//! The allocation count is scoped to the measuring thread; the copy
//! counters are process-global, so the tests serialize on one mutex.

use std::sync::Mutex;

use spring_bench::fixtures::{flat_ping_same_domain, flat_ping_shmem, sample_fixture};
use spring_bench::flatbench::Sample;
use spring_buf::flat::decode_bytes_copied;
use spring_kernel::Kernel;

mod common;

#[global_allocator]
static ALLOCATOR: common::CountingAlloc = common::CountingAlloc;

/// Serializes the tests: both read process-global counters.
static SERIAL: Mutex<()> = Mutex::new(());

const CALLS: u64 = 1_000;

#[test]
fn same_domain_flat_round_trip_copies_and_allocates_nothing() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let kernel = Kernel::new("flat-d2");
    let flat = flat_ping_same_domain(&kernel);
    let sample = sample_fixture();

    // Behavior first: the frame survives encode -> D2 -> flat decode on
    // both the argument and the result leg.
    assert_eq!(flat.ping(41).unwrap(), 42);
    assert_eq!(flat.echo_sample(&sample).unwrap(), sample);

    // Warm the thread-local buffer pool.
    for _ in 0..100 {
        let _ = flat.echo_sample(&sample).unwrap();
    }

    let before = kernel.stats();
    let decode_before = decode_bytes_copied();
    let allocs_delta = common::allocations_in(|| {
        for _ in 0..CALLS {
            let _ = flat.echo_sample(&sample).unwrap();
        }
    });
    let delta = kernel.stats().since(&before);
    let decode_delta = decode_bytes_copied() - decode_before;

    assert_eq!(
        delta.bytes_copied, 0,
        "same-domain delivery must not copy payload bytes"
    );
    assert!(
        delta.local_deliveries >= CALLS,
        "calls should take the D2 path (saw {} local deliveries)",
        delta.local_deliveries
    );
    assert_eq!(
        decode_delta, 0,
        "flat decode must not copy out of the frame (copied {decode_delta} bytes)"
    );
    assert_eq!(
        allocs_delta, 0,
        "steady-state flat calls allocated {allocs_delta} times"
    );
}

#[test]
fn shmem_flat_arguments_cross_without_payload_copies() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let kernel = Kernel::new("flat-shm");
    let flat = flat_ping_shmem(&kernel, 4096);
    let sample = sample_fixture();

    flat.sink_sample(&sample).unwrap();
    for _ in 0..50 {
        flat.sink_sample(&sample).unwrap();
    }

    let before = kernel.stats();
    let decode_before = decode_bytes_copied();
    let allocs_delta = common::allocations_in(|| {
        for _ in 0..CALLS {
            flat.sink_sample(&sample).unwrap();
        }
    });
    let delta = kernel.stats().since(&before);
    let decode_delta = decode_bytes_copied() - decode_before;

    assert_eq!(
        decode_delta, 0,
        "shmem flat decode must read the region in place (copied {decode_delta} bytes)"
    );
    // Each call marshals a footprint-sized frame into the region; if those
    // bytes rode the kernel's copying path the per-call copy cost would be
    // at least the footprint. Only the descriptor + reply may be copied.
    // The descriptor comes from the buffer pool and the buffer holds the
    // mapped region in place: a warm call allocates nothing.
    assert_eq!(
        allocs_delta, 0,
        "steady-state shmem calls allocated {allocs_delta} times"
    );
    let footprint = Sample::footprint() as u64;
    assert!(
        delta.bytes_copied < CALLS * footprint,
        "argument frames were copied by the kernel ({} bytes over {} calls, footprint {})",
        delta.bytes_copied,
        CALLS,
        footprint
    );
}
