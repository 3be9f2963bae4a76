//! The blessed fixture snapshot is valid Rust: `golden.rs` compares it as
//! text, this target compiles it against the runtime the generated code
//! targets, so a construct only the fixture exercises must type-check too.
//! The tests below drive a few of its flat-layout items.

// Machine-written code is kept simple and regular rather than idiomatic;
// style lints are waived for it, as in the workspace's generated modules.
// A sequence of scalars encodes each element as `put_*((*__it))`.
#[allow(clippy::all, dead_code, unused_parens)]
mod fixture {
    include!("golden/fixture.rs");
}

use fixture::geo::{Point, Prims, Tagged, TaggedView};
use fixture::{Inner, Level};
use spring_buf::CommBuffer;

fn tagged() -> Tagged {
    Tagged {
        origin: Inner {
            stamp: 0x0102_0304_0506_0708,
            kind: 9,
        },
        at: Point {
            x: 1.5,
            y: -2.5,
            type_: -7,
        },
        lvl: Level::High,
    }
}

#[test]
fn a_flat_struct_reads_in_place_at_its_offsets() {
    let value = tagged();
    let mut buf = CommBuffer::pooled();
    value.idl_encode(&mut buf);
    let bytes = buf.flat_remaining().unwrap();
    assert_eq!(bytes.len(), Tagged::footprint());
    let view = TaggedView::new(bytes).unwrap();
    assert_eq!(view.origin().stamp(), value.origin.stamp);
    assert_eq!(view.at().type_(), -7);
    assert_eq!(view.lvl(), Level::High);
    assert_eq!(view.to_owned(), value);
}

#[test]
fn a_flat_struct_round_trips_through_the_copying_decoder() {
    let value = Prims {
        b: true,
        o: 1,
        s: -2,
        us: 3,
        l: -4,
        ul: 5,
        ll: -6,
        ull: 7,
        f: 8.5,
        d: -9.25,
    };
    let mut buf = CommBuffer::pooled();
    value.idl_encode(&mut buf);
    assert_eq!(buf.len(), Prims::footprint());
    assert_eq!(Prims::idl_decode(&mut buf).unwrap(), value);
}

#[test]
fn validate_rejects_a_bad_tag_and_a_short_frame() {
    let mut buf = CommBuffer::pooled();
    tagged().idl_encode(&mut buf);
    let mut bytes = buf.flat_remaining().unwrap().to_vec();
    assert!(Tagged::validate(&bytes[..bytes.len() - 1]).is_err());
    bytes[36] = 2;
    assert!(Tagged::validate(&bytes).is_err());
}
