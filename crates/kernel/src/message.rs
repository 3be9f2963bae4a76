//! The unit of transfer between domains.

use spring_trace::TraceCtx;

use crate::callid::CallId;
use crate::id::DoorId;

/// A message crossing a domain boundary: opaque bytes plus door identifiers.
///
/// Door identifiers are carried out-of-band from the byte payload, exactly as
/// in Spring: the kernel must see every identifier so it can translate it
/// into the receiving domain's door table. Marshalled byte streams reference
/// identifiers by their index in [`Message::doors`].
///
/// Transfer semantics: when a message is sent through a door call, every
/// identifier it carries is *moved* to the receiver — the sender's handle is
/// deleted and a fresh handle is issued in the receiving domain. A sender
/// that wants to retain access must copy the identifier first
/// ([`crate::Domain::copy_door`]), which is precisely the distinction the
/// paper draws between transmitting an object and copying it (§3.2).
#[derive(Debug, Default)]
pub struct Message {
    /// Opaque payload bytes (physically copied across the domain boundary).
    pub bytes: Vec<u8>,
    /// Door identifiers transferred with the message, in slot order.
    pub doors: Vec<DoorId>,
    /// Piggybacked trace context (on a socket, sent only when set), carried in the
    /// envelope next to the out-of-band door identifiers — the same channel
    /// subcontracts use for their own dialogue (§5) — so propagation never
    /// touches the payload and stubs stay oblivious (§9.1).
    /// [`TraceCtx::NONE`] when tracing is disabled.
    pub trace: TraceCtx,
    /// Piggybacked call identity (on a socket, sent only when set) for at-most-once
    /// invocation: retrying subcontracts stamp every attempt of one logical
    /// call with the same nonce so the server's reply cache can return the
    /// original reply instead of re-executing. [`CallId::NONE`] — the
    /// common case — costs nothing on the fast path.
    pub call: CallId,
}

impl Message {
    /// Creates an empty message.
    pub fn new() -> Self {
        Message::default()
    }

    /// Creates a message carrying only bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Message {
            bytes,
            ..Message::default()
        }
    }

    /// Total payload size in bytes (door identifiers are not counted; the
    /// kernel transfers them without copying payload).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Returns true when the byte payload is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Length-prefixed framing over byte streams.
///
/// The socket transports carry wire messages over TCP and Unix-domain
/// sockets as frames: a little-endian `u32` byte count followed by exactly
/// that many payload bytes. These helpers own the prefix discipline so
/// every reader in the system enforces the same three rules:
///
/// * a declared length above [`framing::MAX_FRAME_LEN`] is rejected before
///   a single payload byte is read (a corrupt or hostile prefix must not
///   drive an unbounded allocation);
/// * a stream that ends mid-frame reports *how many* bytes arrived against
///   the declared count ([`framing::FrameReadError::Truncated`]), never a
///   bare EOF — the transport maps this onto the typed wire-error taxonomy;
/// * a stream that ends cleanly *between* frames is a normal shutdown
///   ([`framing::FrameReadError::Closed`]), not an error to report.
pub mod framing {
    use std::fmt;
    use std::io::{self, Read};

    /// Largest frame a reader will accept. Generous next to the batching
    /// budget (a frame coalesces at most 256 KiB of payload),
    /// but small enough that a garbage length prefix cannot make the
    /// reader allocate gigabytes.
    pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

    /// Why a frame read stopped.
    #[derive(Debug)]
    pub enum FrameReadError {
        /// The stream ended cleanly on a frame boundary: the peer shut the
        /// connection down without leaving a partial frame behind.
        Closed,
        /// The declared length prefix exceeds [`MAX_FRAME_LEN`].
        Oversized {
            /// The length the prefix declared.
            declared: usize,
            /// The largest length this reader accepts.
            max: usize,
        },
        /// The stream ended before the declared byte count arrived — the
        /// length prefix disagrees with the bytes actually received.
        Truncated {
            /// The length the prefix declared.
            declared: usize,
            /// Payload bytes that actually arrived before EOF.
            received: usize,
        },
        /// The underlying stream failed.
        Io(io::Error),
    }

    impl fmt::Display for FrameReadError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                FrameReadError::Closed => write!(f, "stream closed on a frame boundary"),
                FrameReadError::Oversized { declared, max } => {
                    write!(f, "frame declares {declared} bytes, over the {max} cap")
                }
                FrameReadError::Truncated { declared, received } => {
                    write!(f, "frame declares {declared} bytes, got {received}")
                }
                FrameReadError::Io(e) => write!(f, "frame read failed: {e}"),
            }
        }
    }

    impl std::error::Error for FrameReadError {}

    /// Reads one frame into `buf` (cleared and reused, so a steady-state
    /// reader recycles one allocation). Returns the payload length.
    ///
    /// The declared length is validated before any payload is read, and a
    /// short read reports the exact received count — the caller never sees
    /// a buffer that silently disagrees with its prefix. The buffer grows
    /// as bytes arrive, never further ahead of them than it already
    /// reached or than twice what has arrived: a peer that declares a large
    /// frame and goes silent costs the reader what it sent, not what it
    /// claimed.
    pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<usize, FrameReadError> {
        let mut prefix = [0u8; 4];
        // Hand-rolled read_exact for the prefix: zero bytes then EOF is a
        // clean close, EOF mid-prefix is a truncated (unknowable-length)
        // frame.
        let mut got = 0;
        while got < prefix.len() {
            match r.read(&mut prefix[got..]) {
                Ok(0) => {
                    if got == 0 {
                        return Err(FrameReadError::Closed);
                    }
                    return Err(FrameReadError::Truncated {
                        declared: 0,
                        received: got,
                    });
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameReadError::Io(e)),
            }
        }
        let declared = u32::from_le_bytes(prefix) as usize;
        if declared > MAX_FRAME_LEN {
            return Err(FrameReadError::Oversized {
                declared,
                max: MAX_FRAME_LEN,
            });
        }
        buf.clear();
        let mut received = 0;
        while received < declared {
            if received == buf.len() {
                let reach = buf.capacity().max(2 * received).max(prefix.len());
                buf.resize(declared.min(reach), 0);
            }
            match r.read(&mut buf[received..]) {
                Ok(0) => {
                    return Err(FrameReadError::Truncated { declared, received });
                }
                Ok(n) => received += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameReadError::Io(e)),
            }
        }
        Ok(declared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let m = Message::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        let m = Message::from_bytes(vec![1, 2]);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert!(m.doors.is_empty());
    }

    /// One frame as it crosses the wire: the length prefix, then the payload.
    fn frame(payload: &[u8]) -> Vec<u8> {
        [&(payload.len() as u32).to_le_bytes()[..], payload].concat()
    }

    #[test]
    fn framing_round_trip() {
        let wire = [frame(b"hello"), frame(b""), frame(&[7u8; 1000])].concat();
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert_eq!(framing::read_frame(&mut r, &mut buf).unwrap(), 5);
        assert_eq!(&buf[..], b"hello");
        assert_eq!(framing::read_frame(&mut r, &mut buf).unwrap(), 0);
        assert_eq!(framing::read_frame(&mut r, &mut buf).unwrap(), 1000);
        assert_eq!(buf, [7u8; 1000]);
        assert!(matches!(
            framing::read_frame(&mut r, &mut buf),
            Err(framing::FrameReadError::Closed)
        ));
    }

    #[test]
    fn framing_rejects_truncated_payload() {
        let mut wire = frame(&[1, 2, 3, 4, 5, 6, 7, 8]);
        wire.truncate(wire.len() - 3); // cut the stream mid-payload
        let mut r = &wire[..];
        let mut buf = Vec::new();
        match framing::read_frame(&mut r, &mut buf) {
            Err(framing::FrameReadError::Truncated { declared, received }) => {
                assert_eq!(declared, 8);
                assert_eq!(received, 5);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    /// A prefix declaring the largest frame allowed, then ten bytes and
    /// EOF: the reader reports what arrived and never reserved, let alone
    /// zeroed, the 64 MiB it was promised.
    #[test]
    fn framing_grows_the_buffer_as_bytes_arrive() {
        let mut wire = (framing::MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[9; 10]);
        let mut r = &wire[..];
        let mut buf = Vec::new();
        match framing::read_frame(&mut r, &mut buf) {
            Err(framing::FrameReadError::Truncated { declared, received }) => {
                assert_eq!(declared, framing::MAX_FRAME_LEN);
                assert_eq!(received, 10);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        assert!(buf.capacity() < crate::pool::MAX_RETAINED_CAPACITY);
    }

    /// A reader that counts the `read` calls reaching it.
    struct Counted<'a> {
        bytes: &'a [u8],
        reads: usize,
    }

    impl std::io::Read for Counted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.bytes.read(buf)
        }
    }

    /// Behind a call socket's `BufReader` (8 KiB), a frame that fits the
    /// buffer — prefix and body together — costs one underlying `read`, and
    /// a larger one more: the prefix and the body are two reads of the
    /// buffer, not of the socket.
    #[test]
    fn a_frame_that_fits_the_read_buffer_costs_one_read() {
        for (len, fits) in [
            (0, true),
            (8, true),
            (1024, true),
            (8000, true),
            (16 << 10, false),
        ] {
            let wire = frame(&vec![3u8; len]);
            let counted = Counted {
                bytes: &wire,
                reads: 0,
            };
            let mut r = std::io::BufReader::new(counted);
            let mut buf = Vec::new();
            assert_eq!(framing::read_frame(&mut r, &mut buf).unwrap(), len);
            let reads = r.get_ref().reads;
            assert_eq!(reads == 1, fits, "a {len}-byte frame took {reads} reads");
        }
    }

    #[test]
    fn framing_rejects_truncated_prefix() {
        let wire = [42u8, 0]; // two of the four prefix bytes
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert!(matches!(
            framing::read_frame(&mut r, &mut buf),
            Err(framing::FrameReadError::Truncated { .. })
        ));
    }

    #[test]
    fn framing_rejects_oversized_declared_length() {
        let wire = u32::MAX.to_le_bytes();
        let mut r = &wire[..];
        let mut buf = Vec::new();
        match framing::read_frame(&mut r, &mut buf) {
            Err(framing::FrameReadError::Oversized { declared, max }) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(max, framing::MAX_FRAME_LEN);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        // Nothing was allocated for the bogus length.
        assert!(buf.capacity() < framing::MAX_FRAME_LEN);
    }
}
