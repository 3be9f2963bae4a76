//! The unit of transfer between domains.

use spring_trace::TraceCtx;

use crate::callid::CallId;
use crate::error::DoorError;
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

// Values of up to 128 bytes move as inline copies on x86-64; larger ones call `memcpy`.
const _: () = assert!(size_of::<Message>() <= 88);
const _: () = assert!(size_of::<Result<Message, DoorError>>() <= 88);

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
}
