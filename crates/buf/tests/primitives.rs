//! The primitive put/get path against a reference encoder written here:
//! every primitive at every starting misalignment, on a heap buffer and on
//! one redirected to shared memory, compared byte for byte; and every
//! truncation of an encoded stream decoding to a typed error.

use spring_buf::{BufError, CommBuffer};
use spring_kernel::{Kernel, Message};

/// One value of every primitive kind the buffer marshals.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Prim {
    U8(u8),
    U16(u16),
    U32(u32),
    U64(u64),
    I8(i8),
    I16(i16),
    I32(i32),
    I64(i64),
    F32(f32),
    F64(f64),
    Bool(bool),
}

const PRIMS: [Prim; 11] = [
    Prim::U8(0xA1),
    Prim::U16(0xB1B2),
    Prim::U32(0xC1C2_C3C4),
    Prim::U64(0xD1D2_D3D4_D5D6_D7D8),
    Prim::I8(-2),
    Prim::I16(-3_000),
    Prim::I32(-4_000_000),
    Prim::I64(-5_000_000_000_000),
    Prim::F32(6.5),
    Prim::F64(-7.25),
    Prim::Bool(true),
];

impl Prim {
    fn put(self, b: &mut CommBuffer) {
        match self {
            Prim::U8(v) => b.put_u8(v),
            Prim::U16(v) => b.put_u16(v),
            Prim::U32(v) => b.put_u32(v),
            Prim::U64(v) => b.put_u64(v),
            Prim::I8(v) => b.put_i8(v),
            Prim::I16(v) => b.put_i16(v),
            Prim::I32(v) => b.put_i32(v),
            Prim::I64(v) => b.put_i64(v),
            Prim::F32(v) => b.put_f32(v),
            Prim::F64(v) => b.put_f64(v),
            Prim::Bool(v) => b.put_bool(v),
        }
    }

    /// Reads a value of the same kind as `self`.
    fn get(self, b: &mut CommBuffer) -> Result<Prim, BufError> {
        Ok(match self {
            Prim::U8(_) => Prim::U8(b.get_u8()?),
            Prim::U16(_) => Prim::U16(b.get_u16()?),
            Prim::U32(_) => Prim::U32(b.get_u32()?),
            Prim::U64(_) => Prim::U64(b.get_u64()?),
            Prim::I8(_) => Prim::I8(b.get_i8()?),
            Prim::I16(_) => Prim::I16(b.get_i16()?),
            Prim::I32(_) => Prim::I32(b.get_i32()?),
            Prim::I64(_) => Prim::I64(b.get_i64()?),
            Prim::F32(_) => Prim::F32(b.get_f32()?),
            Prim::F64(_) => Prim::F64(b.get_f64()?),
            Prim::Bool(_) => Prim::Bool(b.get_bool()?),
        })
    }

    /// The reference encoding: zero padding to the value's size, then its
    /// little-endian bytes.
    fn reference(self, out: &mut Vec<u8>) {
        let le: Vec<u8> = match self {
            Prim::U8(v) => v.to_le_bytes().to_vec(),
            Prim::U16(v) => v.to_le_bytes().to_vec(),
            Prim::U32(v) => v.to_le_bytes().to_vec(),
            Prim::U64(v) => v.to_le_bytes().to_vec(),
            Prim::I8(v) => v.to_le_bytes().to_vec(),
            Prim::I16(v) => v.to_le_bytes().to_vec(),
            Prim::I32(v) => v.to_le_bytes().to_vec(),
            Prim::I64(v) => v.to_le_bytes().to_vec(),
            Prim::F32(v) => v.to_bits().to_le_bytes().to_vec(),
            Prim::F64(v) => v.to_bits().to_le_bytes().to_vec(),
            Prim::Bool(v) => vec![v as u8],
        };
        while !out.len().is_multiple_of(le.len()) {
            out.push(0);
        }
        out.extend_from_slice(&le);
    }
}

/// `lead` filler bytes, the value, one trailing marker byte.
fn write(b: &mut CommBuffer, lead: usize, p: Prim) {
    for i in 0..lead {
        b.put_u8(0xF0 | i as u8);
    }
    p.put(b);
    b.put_u8(0x5A);
}

fn expected(lead: usize, p: Prim) -> Vec<u8> {
    let mut out: Vec<u8> = (0..lead).map(|i| 0xF0 | i as u8).collect();
    p.reference(&mut out);
    out.push(0x5A);
    out
}

fn read_back(r: &mut CommBuffer, lead: usize, p: Prim) {
    for i in 0..lead {
        assert_eq!(r.get_u8().unwrap(), 0xF0 | i as u8);
    }
    assert_eq!(p.get(r).unwrap(), p, "{p:?} after {lead} bytes");
    assert_eq!(r.get_u8().unwrap(), 0x5A);
    assert_eq!(r.remaining(), 0);
}

#[test]
fn every_primitive_at_every_misalignment_on_the_heap() {
    for p in PRIMS {
        for lead in 0..8 {
            // A pooled buffer, as a stub's: the pad must be zeros even when
            // the reused backing held other bytes before.
            let mut dirty = CommBuffer::pooled();
            dirty.put_raw(&[0xEE; 32]);
            drop(dirty);
            let mut b = CommBuffer::pooled();
            write(&mut b, lead, p);
            let msg = b.into_message();
            assert_eq!(msg.bytes, expected(lead, p), "{p:?} after {lead} bytes");
            read_back(&mut CommBuffer::from_message(msg), lead, p);
        }
    }
}

#[test]
fn every_primitive_at_every_misalignment_in_shared_memory() {
    let kernel = Kernel::new("buf-prims");
    for p in PRIMS {
        for lead in 0..8 {
            // Small enough that the larger cases outgrow the region.
            let region = kernel.create_shm(8);
            region.map_mut().unwrap().fill(0xEE);
            let mut b = CommBuffer::new();
            b.redirect_to_shm(region.map_mut().unwrap()).unwrap();
            write(&mut b, lead, p);
            let (mapped, len, caps) = b.take_shm().unwrap();
            assert!(caps.is_empty());
            assert_eq!(&mapped[..len], expected(lead, p), "{p:?} after {lead}");
            drop(mapped); // Publishes.
            assert_eq!(
                region.with(|data| data[..len].to_vec()).unwrap(),
                expected(lead, p)
            );
            let mut r = CommBuffer::from_shm(region.map_mut().unwrap(), Vec::new());
            read_back(&mut r, lead, p);
            drop(r);
            // The reader gave the region its bytes back.
            assert_eq!(region.with(|data| data.len()).unwrap(), len);
        }
    }
}

#[test]
fn bytes_written_before_a_redirect_keep_their_alignment() {
    let kernel = Kernel::new("buf-prims");
    for lead in 0..8 {
        let region = kernel.create_shm(64);
        let mut b = CommBuffer::new();
        for i in 0..lead {
            b.put_u8(0xF0 | i as u8);
        }
        b.redirect_to_shm(region.map_mut().unwrap()).unwrap();
        Prim::U64(9).put(&mut b);
        b.put_u8(0x5A);
        let (mapped, len, _) = b.take_shm().unwrap();
        assert_eq!(&mapped[..len], expected(lead, Prim::U64(9)));
    }
}

/// Every primitive, then the two length-prefixed kinds.
fn encode_all() -> Vec<u8> {
    let mut b = CommBuffer::new();
    for p in PRIMS {
        b.put_u8(1); // Keeps most values misaligned.
        p.put(&mut b);
    }
    b.put_string("truncate me");
    b.put_bytes(&[7; 9]);
    b.into_message().bytes
}

fn decode_all(r: &mut CommBuffer) -> Result<(), BufError> {
    for p in PRIMS {
        r.get_u8()?;
        assert_eq!(p.get(r)?, p);
    }
    assert_eq!(r.get_string()?, "truncate me");
    assert_eq!(r.get_bytes()?, vec![7; 9]);
    Ok(())
}

#[test]
fn truncation_at_every_offset_is_a_typed_error() {
    let full = encode_all();
    decode_all(&mut CommBuffer::from_message(Message::from_bytes(
        full.clone(),
    )))
    .unwrap();
    for cut in 0..full.len() {
        let mut r = CommBuffer::from_message(Message::from_bytes(full[..cut].to_vec()));
        match decode_all(&mut r) {
            Err(BufError::OutOfData { needed, remaining }) => {
                assert!(needed > remaining, "cut {cut}: {needed} <= {remaining}")
            }
            Err(BufError::LengthOverrun { claimed, limit }) => {
                assert!(claimed > limit, "cut {cut}: {claimed} <= {limit}")
            }
            other => panic!("cut {cut} of {}: {other:?}", full.len()),
        }
        // The cursor never passes the end, whatever failed.
        assert!(r.read_pos() <= cut);
        // Aligned and whole-frame reads past the cut fail the same way.
        let mut r = CommBuffer::from_message(Message::from_bytes(full[..cut].to_vec()));
        r.get_raw(cut).unwrap();
        assert!(matches!(r.get_u8(), Err(BufError::OutOfData { .. })));
        assert!(matches!(r.get_raw(1), Err(BufError::OutOfData { .. })));
        if !cut.is_multiple_of(8) {
            assert!(matches!(r.skip_align8(), Err(BufError::OutOfData { .. })));
            assert!(matches!(
                r.flat_remaining(),
                Err(BufError::OutOfData { .. })
            ));
        }
    }
}
