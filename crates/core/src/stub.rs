//! Wire conventions shared by generated stubs and skeletons.
//!
//! A call buffer is laid out as `[subcontract control][op: u32][arguments]`;
//! a reply buffer as `[subcontract control][status: u8][payload]`. The
//! control regions belong to the subcontract pair (client writes via
//! `invoke_preamble`/`invoke`, server strips and re-adds them), so stubs and
//! skeletons only ever see the portion starting at `op`/`status` — this is
//! what keeps stubs fully independent of subcontracts (§9.1).

use spring_buf::CommBuffer;

use crate::error::{Result, SpringError};

/// Reply status: the operation succeeded; results follow.
pub const STATUS_OK: u8 = 0;
/// Reply status: a declared user exception follows (name, then fields).
pub const STATUS_USER_EXN: u8 = 1;
/// Reply status: a system-level error string follows.
pub const STATUS_SYSTEM: u8 = 2;
/// Reply status: the operation number was not recognized.
pub const STATUS_UNKNOWN_OP: u8 = 3;
/// Reply status: the server's admission controller shed the call under
/// overload; the measured queue delay (u64 nanoseconds) follows.
pub const STATUS_OVERLOADED: u8 = 4;

/// Decoded reply disposition, produced by [`decode_reply_status`].
#[derive(Debug)]
pub enum ReplyStatus {
    /// Success; the stub should unmarshal results.
    Ok,
    /// A user exception with the given name; the stub should decode the
    /// exception body if it knows the name.
    UserException(String),
}

/// Reads the status byte (and error payloads) from a reply buffer.
///
/// System-level failures are converted to `Err` directly; user exceptions
/// are returned for the generated stub to decode, since only it knows the
/// exception types its operation declares.
#[inline]
pub fn decode_reply_status(reply: &mut CommBuffer) -> Result<ReplyStatus> {
    match reply.get_u8()? {
        STATUS_OK => Ok(ReplyStatus::Ok),
        other => decode_not_ok(other, reply),
    }
}

/// Every status but success, out of line: an inlined
/// [`decode_reply_status`] is the byte read and one compare.
fn decode_not_ok(status: u8, reply: &mut CommBuffer) -> Result<ReplyStatus> {
    match status {
        STATUS_USER_EXN => Ok(ReplyStatus::UserException(reply.get_string()?)),
        STATUS_SYSTEM => Err(SpringError::Remote(reply.get_string()?)),
        STATUS_UNKNOWN_OP => Err(SpringError::UnknownOp(reply.get_u32()?)),
        STATUS_OVERLOADED => Err(SpringError::Overloaded {
            queue_ns: reply.get_u64()?,
        }),
        other => Err(SpringError::Remote(format!("invalid reply status {other}"))),
    }
}

/// Writes a success status; the skeleton marshals results afterwards.
#[inline]
pub fn encode_ok(reply: &mut CommBuffer) {
    reply.put_u8(STATUS_OK);
}

/// Writes a user exception header; the skeleton marshals the exception
/// fields afterwards.
pub fn encode_user_exception(reply: &mut CommBuffer, name: &str) {
    reply.put_u8(STATUS_USER_EXN);
    reply.put_string(name);
}

/// Writes a system-level error reply.
pub fn encode_system_error(reply: &mut CommBuffer, message: &str) {
    reply.put_u8(STATUS_SYSTEM);
    reply.put_string(message);
}

/// Writes an unknown-operation reply.
pub fn encode_unknown_op(reply: &mut CommBuffer, op: u32) {
    reply.put_u8(STATUS_UNKNOWN_OP);
    reply.put_u32(op);
}

/// Writes an overload-shed reply carrying the queue delay the admission
/// controller measured. Every stub decodes it into
/// [`SpringError::Overloaded`] through [`decode_reply_status`], so shedding
/// is typed end to end without per-interface exception declarations.
pub fn encode_overloaded(reply: &mut CommBuffer, queue_ns: u64) {
    reply.put_u8(STATUS_OVERLOADED);
    reply.put_u64(queue_ns);
}

/// Computes the 32-bit operation number for an operation name (FNV-1a).
///
/// The IDL compiler verifies that no two operations of an interface (across
/// its full inherited method set) collide.
///
/// # Examples
///
/// ```
/// use subcontract::op_hash;
///
/// const READ: u32 = op_hash("read");
/// assert_eq!(READ, op_hash("read"));
/// assert_ne!(READ, op_hash("write"));
/// ```
pub const fn op_hash(name: &str) -> u32 {
    let bytes = name.as_bytes();
    let mut hash: u32 = 0x811c_9dc5;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u32;
        hash = hash.wrapping_mul(0x0100_0193);
        i += 1;
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_roundtrip_ok() {
        let mut reply = CommBuffer::new();
        encode_ok(&mut reply);
        reply.put_u32(7);
        assert!(matches!(
            decode_reply_status(&mut reply).unwrap(),
            ReplyStatus::Ok
        ));
        assert_eq!(reply.get_u32().unwrap(), 7);
    }

    #[test]
    fn status_roundtrip_user_exception() {
        let mut reply = CommBuffer::new();
        encode_user_exception(&mut reply, "io_error");
        reply.put_string("disk on fire");
        match decode_reply_status(&mut reply).unwrap() {
            ReplyStatus::UserException(name) => assert_eq!(name, "io_error"),
            _ => panic!("expected user exception"),
        }
        assert_eq!(reply.get_string().unwrap(), "disk on fire");
    }

    #[test]
    fn status_roundtrip_system() {
        let mut reply = CommBuffer::new();
        encode_system_error(&mut reply, "kaboom");
        assert_eq!(
            decode_reply_status(&mut reply).unwrap_err(),
            SpringError::Remote("kaboom".into())
        );
    }

    #[test]
    fn status_roundtrip_unknown_op() {
        let mut reply = CommBuffer::new();
        encode_unknown_op(&mut reply, 0xDEAD);
        assert_eq!(
            decode_reply_status(&mut reply).unwrap_err(),
            SpringError::UnknownOp(0xDEAD)
        );
    }

    #[test]
    fn status_roundtrip_overloaded() {
        let mut reply = CommBuffer::new();
        encode_overloaded(&mut reply, 123_456);
        assert_eq!(
            decode_reply_status(&mut reply).unwrap_err(),
            SpringError::Overloaded { queue_ns: 123_456 }
        );
    }

    #[test]
    fn overloaded_is_not_a_comm_failure() {
        // Retrying subcontracts must not treat shedding as a link failure
        // and hammer an overloaded server with failover attempts.
        assert!(!SpringError::Overloaded { queue_ns: 1 }.is_comm_failure());
    }

    #[test]
    fn garbage_status_rejected() {
        let mut reply = CommBuffer::new();
        reply.put_u8(99);
        assert!(matches!(
            decode_reply_status(&mut reply).unwrap_err(),
            SpringError::Remote(_)
        ));
    }

    #[test]
    fn op_hash_is_stable_and_distinct() {
        assert_eq!(op_hash("read"), op_hash("read"));
        assert_ne!(op_hash("read"), op_hash("write"));
        assert_ne!(op_hash("size"), op_hash("version"));
    }
}
