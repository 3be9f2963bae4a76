//! Flat wire-format support: validate-then-cast decoding without copies.
//!
//! The IDL compiler emits, for every *fixed-shape* message type (all fields
//! primitives, enums, or nested fixed-shape structs), a `footprint()` size
//! function, a `validate(&[u8])` bounds-and-tags checker, and a borrowing
//! `*View` type whose accessors read fields straight out of the frame. The
//! contract is **validate then cast**: `validate` performs the single bounds
//! check and every tag check up front; after it succeeds, the view's
//! accessors are infallible and perform zero payload copies.
//!
//! The helpers here are the tiny runtime the generated code leans on. All
//! reads go through [`u64::from_le_bytes`]-style fixed-size loads, which
//! compile to single memory operations and are independent of the frame's
//! address alignment — the pool's 8-byte alignment guarantee
//! (`spring_kernel::pool::PAYLOAD_ALIGN`) makes whole-frame casts sound,
//! but field reads never rely on it.
//!
//! Offsets within a flat frame follow the buffer's CDR-like discipline:
//! each value is aligned to `min(size, 8)` **relative to the frame start**,
//! and every frame starts at an 8-byte-aligned buffer offset (writers call
//! [`crate::CommBuffer::align8`] first), so relative and absolute padding
//! agree and offsets are compile-time constants.

use std::fmt;

use spring_kernel::tally::{Slot, Tally};

/// Flat frames start at buffer offsets aligned to this many bytes.
pub const FLAT_ALIGN: usize = 8;

/// Rounds `offset` up to the next multiple of `align` (a power of two).
pub const fn align_up(offset: usize, align: usize) -> usize {
    (offset + align - 1) & !(align - 1)
}

/// A typed rejection from a flat-frame `validate`.
///
/// Decoding is fully defensive: a malformed, truncated, or over-length
/// frame must produce one of these errors, never a panic or an
/// out-of-bounds read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The frame is shorter than the type's footprint.
    Truncated {
        /// Bytes the footprint requires.
        needed: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The frame is longer than the type's footprint (fixed-shape frames
    /// are exact; trailing bytes indicate corruption or a stub mismatch).
    OverLength {
        /// Bytes the footprint requires.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// An enum discriminant at `offset` is out of range.
    BadTag {
        /// Byte offset of the discriminant within the frame.
        offset: usize,
        /// The rejected discriminant.
        value: u32,
    },
    /// A boolean byte at `offset` is neither 0 nor 1.
    BadBool {
        /// Byte offset of the boolean within the frame.
        offset: usize,
        /// The rejected byte.
        value: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, actual } => {
                write!(
                    f,
                    "flat frame truncated: need {needed} bytes, have {actual}"
                )
            }
            WireError::OverLength { expected, actual } => {
                write!(
                    f,
                    "flat frame over-length: expected {expected} bytes, have {actual}"
                )
            }
            WireError::BadTag { offset, value } => {
                write!(f, "invalid enum tag {value} at frame offset {offset}")
            }
            WireError::BadBool { offset, value } => {
                write!(
                    f,
                    "invalid boolean byte {value:#x} at frame offset {offset}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Checks that a frame's length matches a footprint exactly.
#[inline]
pub fn check_len(bytes: &[u8], footprint: usize) -> Result<(), WireError> {
    if bytes.len() < footprint {
        Err(WireError::Truncated {
            needed: footprint,
            actual: bytes.len(),
        })
    } else if bytes.len() > footprint {
        Err(WireError::OverLength {
            expected: footprint,
            actual: bytes.len(),
        })
    } else {
        Ok(())
    }
}

/// Checks an enum discriminant against its variant count.
#[inline]
pub fn check_tag(bytes: &[u8], offset: usize, variants: u32) -> Result<(), WireError> {
    let value = get_u32(bytes, offset);
    if value < variants {
        Ok(())
    } else {
        Err(WireError::BadTag { offset, value })
    }
}

/// Checks a boolean byte.
#[inline]
pub fn check_bool(bytes: &[u8], offset: usize) -> Result<(), WireError> {
    match bytes[offset] {
        0 | 1 => Ok(()),
        value => Err(WireError::BadBool { offset, value }),
    }
}

macro_rules! flat_reads {
    ($($name:ident, $ty:ty);* $(;)?) => {
        $(
            #[doc = concat!("Reads the `", stringify!($ty),
                "` at `offset` of a validated frame (little-endian).")]
            #[inline]
            pub fn $name(bytes: &[u8], offset: usize) -> $ty {
                const N: usize = std::mem::size_of::<$ty>();
                let mut arr = [0u8; N];
                arr.copy_from_slice(&bytes[offset..offset + N]);
                <$ty>::from_le_bytes(arr)
            }
        )*
    };
}

flat_reads! {
    get_u8, u8;
    get_u16, u16;
    get_u32, u32;
    get_u64, u64;
    get_i8, i8;
    get_i16, i16;
    get_i32, i32;
    get_i64, i64;
}

/// Reads the `f32` at `offset` of a validated frame.
#[inline]
pub fn get_f32(bytes: &[u8], offset: usize) -> f32 {
    f32::from_bits(get_u32(bytes, offset))
}

/// Reads the `f64` at `offset` of a validated frame.
#[inline]
pub fn get_f64(bytes: &[u8], offset: usize) -> f64 {
    f64::from_bits(get_u64(bytes, offset))
}

/// Reads the boolean at `offset` of a validated frame.
#[inline]
pub fn get_bool(bytes: &[u8], offset: usize) -> bool {
    bytes[offset] != 0
}

/// Payload bytes copied out of buffers by the *copying* decode path
/// (`get_bytes`, `get_string`, `get_raw`).
///
/// The flat path's whole point is that this count does not move: tests
/// proving "zero payload copies" diff it around a call sequence. It is kept
/// like the pool's counts (`spring_kernel::pool`, *Counter scope*): each
/// decoding thread bumps cells of its own, the reader sums all threads', so
/// a diff is only meaningful with nothing else decoding in the process.
static DECODE_BYTES_COPIED: Tally<1> = Tally::new();

thread_local! {
    static DECODED_HERE: Slot<1> = DECODE_BYTES_COPIED.register();
}

/// Counts `n` bytes copied out of a buffer by a decoder that read them in
/// place first ([`crate::CommBuffer::get_str`], then a copy).
#[inline]
pub fn note_decode_copy(n: usize) {
    // A decode that runs while its thread's locals are being torn down goes
    // uncounted rather than panicking.
    let _ = DECODED_HERE.try_with(|here| here.add(0, n as u64));
}

/// Process-wide count of payload bytes copied by owned decoders since start.
pub fn decode_bytes_copied() -> u64 {
    DECODE_BYTES_COPIED.read()[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_rounds() {
        assert_eq!(align_up(0, 8), 0);
        assert_eq!(align_up(1, 8), 8);
        assert_eq!(align_up(8, 8), 8);
        assert_eq!(align_up(9, 4), 12);
        assert_eq!(align_up(13, 1), 13);
    }

    #[test]
    fn check_len_exact() {
        assert_eq!(check_len(&[0; 4], 4), Ok(()));
        assert_eq!(
            check_len(&[0; 3], 4),
            Err(WireError::Truncated {
                needed: 4,
                actual: 3
            })
        );
        assert_eq!(
            check_len(&[0; 5], 4),
            Err(WireError::OverLength {
                expected: 4,
                actual: 5
            })
        );
    }

    #[test]
    fn tag_and_bool_checks() {
        let frame = [2u8, 0, 0, 0, 1, 7];
        assert_eq!(check_tag(&frame, 0, 3), Ok(()));
        assert_eq!(
            check_tag(&frame, 0, 2),
            Err(WireError::BadTag {
                offset: 0,
                value: 2
            })
        );
        assert_eq!(check_bool(&frame, 4), Ok(()));
        assert_eq!(
            check_bool(&frame, 5),
            Err(WireError::BadBool {
                offset: 5,
                value: 7
            })
        );
    }

    #[test]
    fn reads_are_little_endian() {
        let frame = [0x78, 0x56, 0x34, 0x12, 0xff, 0, 0, 0];
        assert_eq!(get_u32(&frame, 0), 0x1234_5678);
        assert_eq!(get_u8(&frame, 4), 0xff);
        assert_eq!(get_i8(&frame, 4), -1);
        assert_eq!(get_u64(&frame, 0), 0x0000_00ff_1234_5678);
        assert!(get_bool(&frame, 4));
        assert!(!get_bool(&frame, 5));
    }

    #[test]
    fn display_mentions_offsets() {
        let s = WireError::BadTag {
            offset: 12,
            value: 9,
        }
        .to_string();
        assert!(s.contains("12") && s.contains('9'));
        let s = WireError::Truncated {
            needed: 8,
            actual: 2,
        }
        .to_string();
        assert!(s.contains('8') && s.contains('2'));
    }
}
