//! Round-trip and capability-slot tests, including property-based coverage.

use std::sync::Arc;

use proptest::prelude::*;
use spring_buf::{BufError, CommBuffer};
use spring_kernel::{CallCtx, DoorError, Kernel, Message};

fn echo_handler() -> Arc<dyn spring_kernel::DoorHandler> {
    Arc::new(|_ctx: &CallCtx, msg: Message| -> Result<Message, DoorError> { Ok(msg) })
}

#[test]
fn doors_travel_out_of_band() {
    let kernel = Kernel::new("buf-test");
    let server = kernel.create_domain("server");
    let a = server.create_door(echo_handler()).unwrap();
    let b = server.create_door(echo_handler()).unwrap();

    let mut buf = CommBuffer::new();
    buf.put_string("pre");
    buf.put_door(a);
    buf.put_u32(5);
    buf.put_door(b);

    let msg = buf.into_message();
    // The byte stream holds only slot indices; the identifiers are in the
    // capability vector.
    assert_eq!(msg.doors.len(), 2);

    let mut r = CommBuffer::from_message(msg);
    assert_eq!(r.get_string().unwrap(), "pre");
    let ra = r.get_door().unwrap();
    assert_eq!(r.get_u32().unwrap(), 5);
    let rb = r.get_door().unwrap();
    assert_eq!(ra, a);
    assert_eq!(rb, b);
}

#[test]
fn door_slot_cannot_be_taken_twice() {
    let kernel = Kernel::new("buf-test");
    let server = kernel.create_domain("server");
    let a = server.create_door(echo_handler()).unwrap();

    let mut buf = CommBuffer::new();
    buf.put_door(a);
    buf.put_u32(0); // Another index pointing at slot 0.

    let mut r = CommBuffer::from_message(buf.into_message());
    r.get_door().unwrap();
    assert_eq!(r.get_door().unwrap_err(), BufError::InvalidDoorSlot(0));
}

#[test]
fn out_of_range_slot_rejected() {
    let mut buf = CommBuffer::new();
    buf.put_u32(3); // Slot index with no capability vector.
    let mut r = CommBuffer::from_message(buf.into_message());
    assert_eq!(r.get_door().unwrap_err(), BufError::InvalidDoorSlot(3));
}

#[test]
fn drain_doors_returns_unconsumed() {
    let kernel = Kernel::new("buf-test");
    let server = kernel.create_domain("server");
    let a = server.create_door(echo_handler()).unwrap();
    let b = server.create_door(echo_handler()).unwrap();

    let mut buf = CommBuffer::new();
    buf.put_door(a);
    buf.put_door(b);
    let mut r = CommBuffer::from_message(buf.into_message());
    r.get_door().unwrap();
    let leftover = r.drain_doors();
    assert_eq!(leftover, vec![b]);
    // Draining twice yields nothing.
    assert!(r.drain_doors().is_empty());
}

#[test]
fn shm_redirect_roundtrip() {
    let kernel = Kernel::new("buf-test");
    let region = kernel.create_shm(256);

    let mut buf = CommBuffer::new();
    buf.redirect_to_shm(region.map_mut().unwrap()).unwrap();
    assert!(buf.is_shm_backed());
    buf.put_string("in shared memory");
    buf.put_u64(99);

    let (mapped, len, caps) = buf.take_shm().unwrap();
    assert!(len > 0);
    assert!(caps.is_empty());
    drop(mapped); // Publishes to the region.

    let mut r = CommBuffer::from_shm(region.map_mut().unwrap(), Vec::new());
    assert_eq!(r.get_string().unwrap(), "in shared memory");
    assert_eq!(r.get_u64().unwrap(), 99);
}

#[test]
fn shm_redirect_preserves_prefix() {
    let kernel = Kernel::new("buf-test");
    let region = kernel.create_shm(64);

    let mut buf = CommBuffer::new();
    buf.put_u32(7); // Written before the redirect.
    buf.redirect_to_shm(region.map_mut().unwrap()).unwrap();
    buf.put_u32(8);
    let (mapped, _, _) = buf.take_shm().unwrap();
    drop(mapped);

    let mut r = CommBuffer::from_shm(region.map_mut().unwrap(), Vec::new());
    assert_eq!(r.get_u32().unwrap(), 7);
    assert_eq!(r.get_u32().unwrap(), 8);
}

#[test]
fn shm_buffer_dropped_without_take_shm_publishes_and_unmaps() {
    // A marshal that fails after the preamble drops the call buffer while
    // it is still redirected: the region gets its storage back.
    let kernel = Kernel::new("buf-test");
    let region = kernel.create_shm(64);

    let mut buf = CommBuffer::new();
    buf.redirect_to_shm(region.map_mut().unwrap()).unwrap();
    buf.put_u64(0x0123_4567_89AB_CDEF);
    drop(buf);

    let word = region
        .with(|d| u64::from_le_bytes(d[..8].try_into().unwrap()))
        .unwrap();
    assert_eq!(word, 0x0123_4567_89AB_CDEF);
    let mut r = CommBuffer::from_shm(region.map_mut().unwrap(), Vec::new());
    assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
}

#[test]
fn shm_decode_buffer_dropped_after_reading_unmaps() {
    let kernel = Kernel::new("buf-test");
    let region = kernel.create_shm(64);
    {
        let mut m = region.map_mut().unwrap();
        m.clear();
        m.extend_from_slice(&[1, 2, 3, 4]);
    }

    let mut r = CommBuffer::from_shm(region.map_mut().unwrap(), Vec::new());
    assert_eq!(region.with(|_| ()).unwrap_err(), DoorError::InvalidShm);
    assert_eq!(r.get_u32().unwrap(), u32::from_le_bytes([1, 2, 3, 4]));
    drop(r);

    assert_eq!(region.with(|d| d.to_vec()).unwrap(), vec![1, 2, 3, 4]);
    let again = region.map_mut().unwrap();
    assert_eq!(&again[..], &[1, 2, 3, 4]);
}

#[test]
fn wrong_backing_errors() {
    let buf = CommBuffer::new();
    assert_eq!(
        buf.take_shm().map(|_| ()).unwrap_err(),
        BufError::WrongBacking
    );

    let kernel = Kernel::new("buf-test");
    let region = kernel.create_shm(16);
    let mut buf = CommBuffer::new();
    buf.redirect_to_shm(region.map_mut().unwrap()).unwrap();
    let second = kernel.create_shm(16);
    assert_eq!(
        buf.redirect_to_shm(second.map_mut().unwrap()).unwrap_err(),
        BufError::WrongBacking
    );
}

/// A value we can marshal, for property tests.
#[derive(Clone, Debug, PartialEq)]
enum Val {
    U8(u8),
    U16(u16),
    U32(u32),
    U64(u64),
    I32(i32),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
    Bytes(Vec<u8>),
}

fn val_strategy() -> impl Strategy<Value = Val> {
    prop_oneof![
        any::<u8>().prop_map(Val::U8),
        any::<u16>().prop_map(Val::U16),
        any::<u32>().prop_map(Val::U32),
        any::<u64>().prop_map(Val::U64),
        any::<i32>().prop_map(Val::I32),
        any::<i64>().prop_map(Val::I64),
        any::<f64>()
            .prop_filter("NaN compares unequal", |f| !f.is_nan())
            .prop_map(Val::F64),
        any::<bool>().prop_map(Val::Bool),
        ".{0,40}".prop_map(Val::Str),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Val::Bytes),
    ]
}

proptest! {
    #[test]
    fn arbitrary_value_sequences_roundtrip(vals in proptest::collection::vec(val_strategy(), 0..32)) {
        let mut buf = CommBuffer::new();
        for v in &vals {
            match v {
                Val::U8(x) => buf.put_u8(*x),
                Val::U16(x) => buf.put_u16(*x),
                Val::U32(x) => buf.put_u32(*x),
                Val::U64(x) => buf.put_u64(*x),
                Val::I32(x) => buf.put_i32(*x),
                Val::I64(x) => buf.put_i64(*x),
                Val::F64(x) => buf.put_f64(*x),
                Val::Bool(x) => buf.put_bool(*x),
                Val::Str(s) => buf.put_string(s),
                Val::Bytes(b) => buf.put_bytes(b),
            }
        }
        let mut r = CommBuffer::from_message(buf.into_message());
        for v in &vals {
            let got = match v {
                Val::U8(_) => Val::U8(r.get_u8().unwrap()),
                Val::U16(_) => Val::U16(r.get_u16().unwrap()),
                Val::U32(_) => Val::U32(r.get_u32().unwrap()),
                Val::U64(_) => Val::U64(r.get_u64().unwrap()),
                Val::I32(_) => Val::I32(r.get_i32().unwrap()),
                Val::I64(_) => Val::I64(r.get_i64().unwrap()),
                Val::F64(_) => Val::F64(r.get_f64().unwrap()),
                Val::Bool(_) => Val::Bool(r.get_bool().unwrap()),
                Val::Str(_) => Val::Str(r.get_string().unwrap()),
                Val::Bytes(_) => Val::Bytes(r.get_bytes().unwrap()),
            };
            prop_assert_eq!(&got, v);
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn door_slots_roundtrip_under_arbitrary_interleavings(
        plan in proptest::collection::vec(
            prop_oneof![
                Just(0u8), // A door slot.
                Just(1u8), // A u64.
                Just(2u8), // A string.
                Just(3u8), // A byte blob.
            ],
            0..24,
        )
    ) {
        let kernel = Kernel::new("buf-prop");
        let server = kernel.create_domain("server");
        let mut buf = CommBuffer::new();
        let mut doors = Vec::new();
        for (i, kind) in plan.iter().enumerate() {
            match kind {
                0 => {
                    let d = server.create_door(echo_handler()).unwrap();
                    buf.put_door(d);
                    doors.push(d);
                }
                1 => buf.put_u64(i as u64),
                2 => buf.put_string(&format!("s{i}")),
                _ => buf.put_bytes(&[i as u8; 5]),
            }
        }
        let mut r = CommBuffer::from_message(buf.into_message());
        let mut seen = Vec::new();
        for (i, kind) in plan.iter().enumerate() {
            match kind {
                0 => seen.push(r.get_door().unwrap()),
                1 => prop_assert_eq!(r.get_u64().unwrap(), i as u64),
                2 => prop_assert_eq!(r.get_string().unwrap(), format!("s{i}")),
                _ => prop_assert_eq!(r.get_bytes().unwrap(), vec![i as u8; 5]),
            }
        }
        // Every identifier came back, in order, exactly once.
        prop_assert_eq!(seen, doors);
        prop_assert!(r.drain_doors().is_empty());
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Try to decode several types at every prefix of arbitrary bytes;
        // all failures must be clean errors, never panics.
        let mut r = CommBuffer::from_message(Message::from_bytes(bytes));
        loop {
            let before = r.read_pos();
            let _ = r.get_string();
            let _ = r.get_bool();
            let _ = r.get_u64();
            let _ = r.get_door();
            if r.read_pos() == before || r.remaining() == 0 {
                break;
            }
        }
    }
}
