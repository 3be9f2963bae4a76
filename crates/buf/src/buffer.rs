//! The communication buffer implementation.

use std::fmt;
use std::mem;

use spring_kernel::{pool, CallId, DoorId, MappedShm, Message};
use spring_trace::TraceCtx;

use crate::error::BufError;

/// A marshalling buffer: an aligned byte stream plus a capability vector.
///
/// Values are written with `put_*` methods and read back in the same order
/// with the matching `get_*` methods. Primitives are little-endian and
/// aligned to their natural alignment (capped at 8), mirroring CDR.
///
/// The same buffer type serves as call buffer, reply buffer, and marshalled
/// object container — exactly as in the paper, where subcontract operations
/// all traffic in "communication buffers".
pub struct CommBuffer {
    /// The byte stream, wherever it lives: one plain vector, so the put and
    /// get paths never ask which backing they are on.
    bytes: Vec<u8>,
    /// `Some` while `bytes` is a mapped shared-memory region's storage (the
    /// mapping then holds the set-aside heap vector in its place): bytes
    /// written are visible to the server without a kernel copy. Every way
    /// out of that state ([`CommBuffer::take_shm`], drop) swaps the storage
    /// back before the mapping is released.
    shm: Option<MappedShm>,
    /// Read cursor into the byte stream.
    rpos: usize,
    /// Out-of-band door identifiers, in slot order.
    caps: Vec<DoorId>,
    /// Bitset (64 slots per word) of capability slots consumed by
    /// `get_door`. Allocated lazily on first consumption, so buffers that
    /// carry no capabilities — the common case — never touch it.
    consumed: Vec<u64>,
    /// Trace context riding the envelope: captured from the incoming
    /// [`Message`] by [`CommBuffer::from_message`] and re-emitted by
    /// [`CommBuffer::into_message`], so decode → re-marshal paths (the
    /// network proxies) keep the trace connected without payload changes.
    trace: TraceCtx,
    /// Call identity riding the envelope, preserved across decode →
    /// re-marshal exactly like `trace`, so pass-through paths (the caching
    /// servant, proxies) keep at-most-once retries deduplicatable.
    call: CallId,
}

impl Default for CommBuffer {
    fn default() -> Self {
        Self::new()
    }
}

macro_rules! prim_impls {
    ($($put:ident, $get:ident, $ty:ty);* $(;)?) => {
        $(
            #[doc = concat!("Appends a `", stringify!($ty), "` (aligned, little-endian).")]
            #[inline]
            pub fn $put(&mut self, v: $ty) {
                self.put_aligned(v.to_le_bytes());
            }

            #[doc = concat!("Reads the next `", stringify!($ty), "`.")]
            #[inline]
            pub fn $get(&mut self) -> Result<$ty, BufError> {
                Ok(<$ty>::from_le_bytes(self.get_aligned()?))
            }
        )*
    };
}

impl CommBuffer {
    /// Creates an empty heap-backed buffer.
    pub fn new() -> Self {
        CommBuffer {
            bytes: Vec::new(),
            shm: None,
            rpos: 0,
            caps: Vec::new(),
            consumed: Vec::new(),
            trace: TraceCtx::NONE,
            call: CallId::NONE,
        }
    }

    /// Creates an empty heap-backed buffer with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        CommBuffer {
            bytes: Vec::with_capacity(n),
            shm: None,
            rpos: 0,
            caps: Vec::new(),
            consumed: Vec::new(),
            trace: TraceCtx::NONE,
            call: CallId::NONE,
        }
    }

    /// Creates an empty heap-backed buffer whose backing comes from the
    /// per-thread buffer pool. Dropping any heap-backed buffer returns its
    /// backing to the pool, so the marshal → send → decode → drop cycle of
    /// a door call reuses the same allocations in steady state.
    #[inline]
    pub fn pooled() -> Self {
        CommBuffer {
            bytes: pool::take(0),
            shm: None,
            rpos: 0,
            caps: Vec::new(),
            consumed: Vec::new(),
            trace: TraceCtx::NONE,
            call: CallId::NONE,
        }
    }

    /// Wraps a received kernel message for decoding.
    #[inline]
    pub fn from_message(msg: Message) -> Self {
        CommBuffer {
            bytes: msg.bytes,
            shm: None,
            rpos: 0,
            caps: msg.doors,
            consumed: Vec::new(),
            trace: msg.trace,
            call: msg.call,
        }
    }

    /// Converts the buffer into a kernel message for transmission.
    ///
    /// # Panics
    ///
    /// Panics if the buffer was redirected to shared memory; use
    /// [`CommBuffer::take_shm`] on that path instead.
    #[inline]
    pub fn into_message(mut self) -> Message {
        assert!(
            self.shm.is_none(),
            "shm-backed buffer cannot become a heap message"
        );
        Message {
            bytes: mem::take(&mut self.bytes),
            doors: mem::take(&mut self.caps),
            trace: self.trace,
            call: self.call,
        }
    }

    /// Redirects marshalling into a mapped shared-memory region.
    ///
    /// Bytes already written are carried over into the region (normally none:
    /// `invoke_preamble` runs before any argument marshalling, §5.1.4). The
    /// region's previous contents beyond the carried-over bytes are cleared.
    pub fn redirect_to_shm(&mut self, mut mapped: MappedShm) -> Result<(), BufError> {
        if self.shm.is_some() {
            return Err(BufError::WrongBacking);
        }
        mapped.clear();
        mapped.extend_from_slice(&self.bytes);
        mem::swap(&mut self.bytes, &mut *mapped);
        self.shm = Some(mapped);
        Ok(())
    }

    /// Gives the region its storage back (taking the set-aside heap vector
    /// in exchange) and returns the mapping, if there is one.
    fn unmap(&mut self) -> Option<MappedShm> {
        let mut mapped = self.shm.take()?;
        mem::swap(&mut self.bytes, &mut *mapped);
        Some(mapped)
    }

    /// Detaches the shared-memory mapping, returning it together with the
    /// number of marshalled bytes and the capability vector. Dropping the
    /// returned mapping publishes the bytes to the region.
    pub fn take_shm(mut self) -> Result<(MappedShm, usize, Vec<DoorId>), BufError> {
        let mapped = self.unmap().ok_or(BufError::WrongBacking)?;
        let len = mapped.len();
        Ok((mapped, len, mem::take(&mut self.caps)))
    }

    /// Builds a decoding buffer over a mapped shared-memory region, with
    /// capabilities delivered out-of-band by the kernel message.
    pub fn from_shm(mut mapped: MappedShm, caps: Vec<DoorId>) -> Self {
        CommBuffer {
            bytes: mem::take(&mut *mapped),
            shm: Some(mapped),
            rpos: 0,
            caps,
            consumed: Vec::new(),
            trace: TraceCtx::NONE,
            call: CallId::NONE,
        }
    }

    /// The envelope trace context this buffer carries.
    pub fn trace(&self) -> TraceCtx {
        self.trace
    }

    /// Sets the envelope trace context emitted by
    /// [`CommBuffer::into_message`].
    pub fn set_trace(&mut self, trace: TraceCtx) {
        self.trace = trace;
    }

    /// The envelope call identity this buffer carries.
    pub fn call(&self) -> CallId {
        self.call
    }

    /// Sets the envelope call identity emitted by
    /// [`CommBuffer::into_message`].
    pub fn set_call(&mut self, call: CallId) {
        self.call = call;
    }

    /// Returns true when the backing store is a shared-memory mapping.
    pub fn is_shm_backed(&self) -> bool {
        self.shm.is_some()
    }

    /// Total bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Returns true when no bytes have been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Bytes not yet consumed by the read cursor.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.rpos)
    }

    /// Number of capability slots carried by this buffer.
    pub fn door_count(&self) -> usize {
        self.caps.len()
    }

    /// Zero-fills the write position up to a multiple of `align` (a power
    /// of two, at most 8).
    #[inline]
    fn align(&mut self, align: usize) {
        let len = self.bytes.len();
        let pad = len.wrapping_neg() & (align - 1);
        if pad != 0 {
            // A fixed-size store and a length adjustment rather than a
            // `pad`-sized fill, which would compile to a `memset` call.
            self.bytes.extend_from_slice(&[0; 8]);
            self.bytes.truncate(len + pad);
        }
    }

    /// Appends one primitive's `N` little-endian bytes at its natural
    /// alignment (`N` is 1, 2, 4 or 8).
    #[inline]
    fn put_aligned<const N: usize>(&mut self, bytes: [u8; N]) {
        self.align(N);
        self.bytes.extend_from_slice(&bytes);
    }

    /// Reads one primitive's `N` bytes from its natural alignment.
    #[inline]
    fn get_aligned<const N: usize>(&mut self) -> Result<[u8; N], BufError> {
        let start = self.rpos + (self.rpos.wrapping_neg() & (N - 1));
        match self.bytes.get(start..start + N) {
            Some(raw) => {
                self.rpos = start + N;
                Ok(raw.try_into().expect("slice of N bytes"))
            }
            None => Err(self.short_read(N, N)),
        }
    }

    /// The failed read of `n` bytes at alignment `align`, out of line so
    /// that the readers inline as a bounds check and a load. What it leaves
    /// behind is what reading in two steps would: a cursor that stops short
    /// of padding it cannot skip, and otherwise sits after the padding.
    #[cold]
    #[inline(never)]
    fn short_read(&mut self, align: usize, n: usize) -> BufError {
        let pad = self.rpos.wrapping_neg() & (align - 1);
        let needed = if self.remaining() < pad {
            pad
        } else {
            self.rpos += pad;
            n
        };
        BufError::OutOfData {
            needed,
            remaining: self.remaining(),
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&[u8], BufError> {
        if self.remaining() < n {
            return Err(self.short_read(1, n));
        }
        let start = self.rpos;
        self.rpos += n;
        Ok(&self.bytes[start..start + n])
    }

    /// Pads the write position to an 8-byte boundary (zero fill).
    ///
    /// Flat (fixed-shape) frames are written starting at an 8-byte-aligned
    /// buffer offset so that the per-type constant field offsets computed by
    /// the IDL compiler — which are relative to the frame start — coincide
    /// with the absolute padding the aligned `put_*` methods insert.
    #[inline]
    pub fn align8(&mut self) {
        self.align(8);
    }

    /// Pads the read cursor to an 8-byte boundary, mirroring
    /// [`CommBuffer::align8`].
    #[inline]
    pub fn skip_align8(&mut self) -> Result<(), BufError> {
        let pad = self.rpos.wrapping_neg() & 7;
        if self.remaining() < pad {
            return Err(self.short_read(8, 0));
        }
        self.rpos += pad;
        Ok(())
    }

    /// Aligns the read cursor to 8 bytes and consumes *all* remaining bytes,
    /// returning them as one borrowed slice — the zero-copy entry point for
    /// flat-frame decoding (validate-then-cast; see `spring_buf::flat`).
    ///
    /// The caller validates the slice against a type's footprint and then
    /// reads fields in place; no payload bytes are copied out of the buffer.
    #[inline]
    pub fn flat_remaining(&mut self) -> Result<&[u8], BufError> {
        self.skip_align8()?;
        // Pooled and shm backings are 8-byte aligned (see
        // `spring_kernel::pool::PAYLOAD_ALIGN`), so an 8-aligned cursor means
        // the frame itself starts on an 8-byte address boundary. Flat reads
        // do not rely on this (they use unaligned-safe loads), but the
        // invariant is what makes whole-frame casts sound, so check it.
        #[cfg(debug_assertions)]
        {
            if !self.bytes.is_empty() {
                debug_assert_eq!(
                    self.bytes.as_ptr() as usize % crate::flat::FLAT_ALIGN,
                    0,
                    "buffer backing lost its 8-byte alignment guarantee"
                );
            }
        }
        let n = self.remaining();
        self.take(n)
    }

    prim_impls! {
        put_u8, get_u8, u8;
        put_u16, get_u16, u16;
        put_u32, get_u32, u32;
        put_u64, get_u64, u64;
        put_i8, get_i8, i8;
        put_i16, get_i16, i16;
        put_i32, get_i32, i32;
        put_i64, get_i64, i64;
    }

    /// Appends an `f32`.
    #[inline]
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Reads the next `f32`.
    #[inline]
    pub fn get_f32(&mut self) -> Result<f32, BufError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Appends an `f64`.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Reads the next `f64`.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, BufError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Appends a boolean as a single byte.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Reads the next boolean, rejecting bytes other than 0 or 1.
    #[inline]
    pub fn get_bool(&mut self) -> Result<bool, BufError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(BufError::InvalidBool(b)),
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_string(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.bytes.extend_from_slice(s.as_bytes());
    }

    /// Reads the next length-prefixed UTF-8 string.
    pub fn get_string(&mut self) -> Result<String, BufError> {
        let len = self.get_u32()? as usize;
        if len > self.remaining() {
            return Err(BufError::LengthOverrun {
                claimed: len as u64,
                limit: self.remaining() as u64,
            });
        }
        let raw = self.take(len)?;
        crate::flat::note_decode_copy(raw.len());
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| BufError::InvalidUtf8)
    }

    /// Appends a length-prefixed byte sequence (IDL `sequence<octet>`).
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.bytes.extend_from_slice(b);
    }

    /// Reads the next length-prefixed byte sequence.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, BufError> {
        let len = self.get_u32()? as usize;
        if len > self.remaining() {
            return Err(BufError::LengthOverrun {
                claimed: len as u64,
                limit: self.remaining() as u64,
            });
        }
        let raw = self.take(len)?;
        crate::flat::note_decode_copy(raw.len());
        Ok(raw.to_vec())
    }

    /// Appends raw bytes with no length prefix (caller manages framing).
    pub fn put_raw(&mut self, b: &[u8]) {
        self.bytes.extend_from_slice(b);
    }

    /// Reads `n` raw bytes with no length prefix.
    pub fn get_raw(&mut self, n: usize) -> Result<Vec<u8>, BufError> {
        let raw = self.take(n)?;
        crate::flat::note_decode_copy(raw.len());
        Ok(raw.to_vec())
    }

    /// Writes a sequence length prefix, for use with per-element `put_*`.
    pub fn put_seq_len(&mut self, n: usize) {
        self.put_u32(n as u32);
    }

    /// Reads a sequence length prefix, rejecting counts that could not
    /// possibly fit in the remaining bytes (each element needs at least
    /// `min_elem_size` bytes). Guards decoders against hostile lengths.
    pub fn get_seq_len(&mut self, min_elem_size: usize) -> Result<usize, BufError> {
        let n = self.get_u32()? as usize;
        let limit = self.remaining() / min_elem_size.max(1);
        if n > limit {
            return Err(BufError::LengthOverrun {
                claimed: n as u64,
                limit: limit as u64,
            });
        }
        Ok(n)
    }

    /// Attaches a door identifier to the message's capability vector and
    /// writes its slot index into the byte stream.
    pub fn put_door(&mut self, id: DoorId) {
        let slot = self.caps.len() as u32;
        self.caps.push(id);
        self.put_u32(slot);
    }

    fn is_consumed(&self, idx: usize) -> bool {
        self.consumed
            .get(idx / 64)
            .is_some_and(|w| w & (1u64 << (idx % 64)) != 0)
    }

    fn mark_consumed(&mut self, idx: usize) {
        let word = idx / 64;
        if self.consumed.len() <= word {
            self.consumed.resize(word + 1, 0);
        }
        self.consumed[word] |= 1u64 << (idx % 64);
    }

    /// Reads a door slot index and takes the identifier from the capability
    /// vector. Each slot may be taken only once (identifiers move).
    pub fn get_door(&mut self) -> Result<DoorId, BufError> {
        let slot = self.get_u32()?;
        let idx = slot as usize;
        if idx >= self.caps.len() || self.is_consumed(idx) {
            return Err(BufError::InvalidDoorSlot(slot));
        }
        self.mark_consumed(idx);
        Ok(self.caps[idx])
    }

    /// Peeks at the `u64` at the current read position without consuming it
    /// (how a subcontract's unmarshal "takes a peek at the expected
    /// subcontract identifier in the communications buffer", §6.1).
    pub fn peek_u64(&self) -> Result<u64, BufError> {
        let align_pad = (8 - (self.rpos % 8)) % 8;
        let start = self.rpos + align_pad;
        let bytes = &self.bytes;
        if start + 8 > bytes.len() {
            return Err(BufError::OutOfData {
                needed: align_pad + 8,
                remaining: self.remaining(),
            });
        }
        let mut arr = [0u8; 8];
        arr.copy_from_slice(&bytes[start..start + 8]);
        Ok(u64::from_le_bytes(arr))
    }

    /// Peeks at the `u32` at the current read position without consuming it.
    pub fn peek_u32(&self) -> Result<u32, BufError> {
        let align_pad = (4 - (self.rpos % 4)) % 4;
        let start = self.rpos + align_pad;
        let bytes = &self.bytes;
        if start + 4 > bytes.len() {
            return Err(BufError::OutOfData {
                needed: align_pad + 4,
                remaining: self.remaining(),
            });
        }
        let mut arr = [0u8; 4];
        arr.copy_from_slice(&bytes[start..start + 4]);
        Ok(u32::from_le_bytes(arr))
    }

    /// Removes and returns all unconsumed door identifiers, for cleanup
    /// paths that must not leak capabilities.
    pub fn drain_doors(&mut self) -> Vec<DoorId> {
        let mut out = Vec::new();
        for i in 0..self.caps.len() {
            if !self.is_consumed(i) {
                self.mark_consumed(i);
                out.push(self.caps[i]);
            }
        }
        out
    }

    /// Current read offset in bytes (diagnostics).
    pub fn read_pos(&self) -> usize {
        self.rpos
    }
}

impl Drop for CommBuffer {
    #[inline]
    fn drop(&mut self) {
        if self.shm.is_some() {
            // Dropping the mapping publishes the region's bytes.
            drop(self.unmap());
        }
        // Return the heap vector to the per-thread pool. `into_message`
        // leaves an empty (capacity 0) one behind, which the pool ignores.
        pool::give(mem::take(&mut self.bytes));
    }
}

impl fmt::Debug for CommBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CommBuffer({} bytes, rpos {}, {} caps{})",
            self.len(),
            self.rpos,
            self.caps.len(),
            if self.is_shm_backed() { ", shm" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip_with_alignment() {
        let mut b = CommBuffer::new();
        b.put_u8(1);
        b.put_u64(2); // Forces 7 bytes of padding.
        b.put_u16(3);
        b.put_i32(-4);
        b.put_f64(2.5);
        b.put_bool(true);
        b.put_i8(-1);

        assert_eq!(b.get_u8().unwrap(), 1);
        assert_eq!(b.get_u64().unwrap(), 2);
        assert_eq!(b.get_u16().unwrap(), 3);
        assert_eq!(b.get_i32().unwrap(), -4);
        assert_eq!(b.get_f64().unwrap(), 2.5);
        assert!(b.get_bool().unwrap());
        assert_eq!(b.get_i8().unwrap(), -1);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn strings_and_bytes() {
        let mut b = CommBuffer::new();
        b.put_string("héllo");
        b.put_bytes(&[1, 2, 3]);
        b.put_string("");
        assert_eq!(b.get_string().unwrap(), "héllo");
        assert_eq!(b.get_bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(b.get_string().unwrap(), "");
    }

    #[test]
    fn truncated_reads_fail_cleanly() {
        let mut b = CommBuffer::new();
        b.put_u32(0xFFFF_FFFF); // Looks like a huge length prefix.
        let mut r = CommBuffer::from_message(b.into_message());
        assert!(matches!(
            r.get_string().unwrap_err(),
            BufError::LengthOverrun { .. }
        ));

        let mut empty = CommBuffer::new();
        assert!(matches!(
            empty.get_u64().unwrap_err(),
            BufError::OutOfData { .. }
        ));
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut b = CommBuffer::new();
        b.put_u8(7);
        assert_eq!(b.get_bool().unwrap_err(), BufError::InvalidBool(7));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut b = CommBuffer::new();
        b.put_u64(42);
        b.put_u64(43);
        assert_eq!(b.peek_u64().unwrap(), 42);
        assert_eq!(b.peek_u64().unwrap(), 42);
        assert_eq!(b.get_u64().unwrap(), 42);
        assert_eq!(b.peek_u64().unwrap(), 43);
    }

    #[test]
    fn peek_respects_alignment() {
        let mut b = CommBuffer::new();
        b.put_u8(9);
        b.put_u64(77);
        assert_eq!(b.get_u8().unwrap(), 9);
        // rpos is 1; the u64 sits at offset 8.
        assert_eq!(b.peek_u64().unwrap(), 77);
        assert_eq!(b.get_u64().unwrap(), 77);
    }

    #[test]
    fn peek_u32_respects_alignment_and_does_not_consume() {
        let mut b = CommBuffer::new();
        b.put_u8(1);
        b.put_u32(55);
        assert_eq!(b.get_u8().unwrap(), 1);
        assert_eq!(b.peek_u32().unwrap(), 55);
        assert_eq!(b.peek_u32().unwrap(), 55);
        assert_eq!(b.get_u32().unwrap(), 55);
        assert!(matches!(
            b.peek_u32().unwrap_err(),
            BufError::OutOfData { .. }
        ));
    }

    #[test]
    fn seq_len_guard() {
        let mut b = CommBuffer::new();
        b.put_seq_len(1000);
        let mut r = CommBuffer::from_message(b.into_message());
        assert!(matches!(
            r.get_seq_len(4).unwrap_err(),
            BufError::LengthOverrun { .. }
        ));
    }

    #[test]
    fn dropped_buffer_backing_returns_to_pool() {
        // Seed this thread's pool by dropping a buffer with real capacity…
        let mut b = CommBuffer::with_capacity(64);
        b.put_u64(1);
        drop(b);
        // …then a pooled buffer on the same thread must score a hit.
        let h0 = pool::counters().hits;
        let p = CommBuffer::pooled();
        let h1 = pool::counters().hits;
        assert!(h1 > h0);
        drop(p);
    }

    #[test]
    fn flat_remaining_aligns_and_borrows_everything() {
        let mut b = CommBuffer::new();
        b.put_u8(0xCC); // Simulated control/status byte before the frame.
        b.align8();
        b.put_u64(0x1122_3344_5566_7788);
        b.put_u32(9);
        let mut r = CommBuffer::from_message(b.into_message());
        assert_eq!(r.get_u8().unwrap(), 0xCC);
        let frame = r.flat_remaining().unwrap();
        assert_eq!(frame.len(), 12);
        assert_eq!(crate::flat::get_u64(frame, 0), 0x1122_3344_5566_7788);
        assert_eq!(crate::flat::get_u32(frame, 8), 9);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn flat_remaining_truncation_is_an_error_not_a_panic() {
        // One byte, cursor at 0: aligning to 8 needs 7 pad bytes that do
        // not exist.
        let mut b = CommBuffer::new();
        b.put_u8(1);
        let mut r = CommBuffer::from_message(b.into_message());
        assert_eq!(r.get_u8().unwrap(), 1);
        // Cursor at 1, nothing left: align pad exceeds remaining.
        assert!(matches!(
            r.flat_remaining().unwrap_err(),
            BufError::OutOfData { .. }
        ));
    }

    #[test]
    fn decode_copy_counter_moves_only_on_owned_decodes() {
        let mut b = CommBuffer::new();
        b.put_u64(7);
        b.put_bytes(&[1, 2, 3, 4]);
        b.put_string("hey");
        let mut r = CommBuffer::from_message(b.into_message());
        let before = crate::flat::decode_bytes_copied();
        r.get_u64().unwrap(); // Primitive: not a payload copy.
        assert_eq!(crate::flat::decode_bytes_copied(), before);
        r.get_bytes().unwrap();
        assert_eq!(crate::flat::decode_bytes_copied(), before + 4);
        r.get_string().unwrap();
        assert_eq!(crate::flat::decode_bytes_copied(), before + 7);
    }

    #[test]
    fn empty_and_len() {
        let b = CommBuffer::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.remaining(), 0);
        let d = CommBuffer::default();
        assert!(d.is_empty());
    }
}
