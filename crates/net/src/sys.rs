//! The few system calls the socket backend needs that `std` does not wrap:
//! `sendmsg`/`recvmsg` carrying descriptors (`SCM_RIGHTS`) and `poll`.
//! They are declared here from the C library every Linux Rust binary
//! already links, with their structures laid out as 64-bit Linux lays them
//! out (each size pinned at compile time), and exposed as safe functions
//! over borrowed and owned descriptors. This is the crate's only `unsafe`.

use std::ffi::c_void;
use std::io::{self, IoSlice, IoSliceMut};
use std::mem::{self, size_of};
use std::os::fd::{AsRawFd, BorrowedFd, FromRawFd, OwnedFd, RawFd};
use std::ptr;

/// `open(2)` flag: the descriptor's writes fail with `EAGAIN` rather than
/// block.
pub(crate) const O_NONBLOCK: i32 = 0o4000;

const SOL_SOCKET: i32 = 1;
const SCM_RIGHTS: i32 = 1;
const MSG_CTRUNC: i32 = 0x8;
const MSG_NOSIGNAL: i32 = 0x4000;
const MSG_CMSG_CLOEXEC: i32 = 0x4000_0000;
const POLLIN: i16 = 0x1;

/// Most descriptors one message may carry here: a HELLO carries two, and a
/// sender that attaches more than fit is refused whole.
const MAX_FDS: usize = 4;

#[repr(C)]
struct MsgHdr {
    name: *mut u8,
    namelen: u32,
    iov: *mut c_void,
    iovlen: usize,
    control: *mut u8,
    controllen: usize,
    flags: i32,
}

#[repr(C)]
struct CmsgHdr {
    len: usize,
    level: i32,
    kind: i32,
}

#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const _: () = assert!(size_of::<MsgHdr>() == 56);
const _: () = assert!(size_of::<CmsgHdr>() == 16);
const _: () = assert!(size_of::<PollFd>() == 8);
// `IoSlice` and `IoSliceMut` are ABI-compatible with `struct iovec`.
const _: () = assert!(size_of::<IoSlice<'static>>() == 16);
const _: () = assert!(size_of::<IoSliceMut<'static>>() == 16);

extern "C" {
    fn sendmsg(fd: RawFd, msg: *const MsgHdr, flags: i32) -> isize;
    fn recvmsg(fd: RawFd, msg: *mut MsgHdr, flags: i32) -> isize;
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

/// `CMSG_SPACE` for `MAX_FDS` descriptors, in `u64`s so the buffer is
/// aligned as a `cmsghdr` must be.
const CONTROL_WORDS: usize = (size_of::<CmsgHdr>() + MAX_FDS * size_of::<RawFd>()).div_ceil(8);

/// Sends `bytes` on the stream socket `sock` in one `sendmsg` that carries
/// `fds` (at most four); returns how many bytes went out.
pub fn send_with_fds(
    sock: BorrowedFd<'_>,
    bytes: &[u8],
    fds: &[BorrowedFd<'_>],
) -> io::Result<usize> {
    if fds.len() > MAX_FDS {
        return Err(io::ErrorKind::InvalidInput.into());
    }
    let mut control = [0u64; CONTROL_WORDS];
    let data_len = mem::size_of_val(fds);
    let header = CmsgHdr {
        len: size_of::<CmsgHdr>() + data_len,
        level: SOL_SOCKET,
        kind: SCM_RIGHTS,
    };
    // SAFETY: `control` is aligned for and large enough to hold a header
    // followed by `MAX_FDS` descriptors, and the writes stay inside it.
    unsafe {
        let base = control.as_mut_ptr().cast::<u8>();
        ptr::write(base.cast::<CmsgHdr>(), header);
        let data = base.add(size_of::<CmsgHdr>()).cast::<RawFd>();
        for (i, fd) in fds.iter().enumerate() {
            ptr::write(data.add(i), fd.as_raw_fd());
        }
    }
    let iov = [IoSlice::new(bytes)];
    let msg = MsgHdr {
        name: ptr::null_mut(),
        namelen: 0,
        iov: iov.as_ptr().cast_mut().cast(),
        iovlen: iov.len(),
        control: if fds.is_empty() {
            ptr::null_mut()
        } else {
            control.as_mut_ptr().cast()
        },
        controllen: if fds.is_empty() {
            0
        } else {
            (size_of::<CmsgHdr>() + data_len).next_multiple_of(8)
        },
        flags: 0,
    };
    // SAFETY: every pointer in `msg` points into a live local for the call.
    let sent = unsafe { sendmsg(sock.as_raw_fd(), &msg, MSG_NOSIGNAL) };
    if sent < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(sent as usize)
}

/// Receives into `buf` with one `recvmsg` on the stream socket `sock`,
/// taking ownership of every descriptor that came with the bytes (close on
/// exec). Returns how many bytes arrived and the descriptors. A message that
/// carried more descriptors than [`MAX_FDS`] fails, and the descriptors
/// that did arrive are closed.
pub(crate) fn recv_with_fds(
    sock: BorrowedFd<'_>,
    buf: &mut [u8],
) -> io::Result<(usize, Vec<OwnedFd>)> {
    let mut control = [0u64; CONTROL_WORDS];
    let mut iov = [IoSliceMut::new(buf)];
    let mut msg = MsgHdr {
        name: ptr::null_mut(),
        namelen: 0,
        iov: iov.as_mut_ptr().cast(),
        iovlen: iov.len(),
        control: control.as_mut_ptr().cast(),
        controllen: mem::size_of_val(&control),
        flags: 0,
    };
    // SAFETY: the kernel writes at most `buf.len()` bytes through the one
    // iovec, which borrows `buf` mutably, and at most `controllen` bytes of
    // control data into `control`.
    let got = unsafe { recvmsg(sock.as_raw_fd(), &mut msg, MSG_CMSG_CLOEXEC) };
    if got < 0 {
        return Err(io::Error::last_os_error());
    }
    let mut fds = Vec::new();
    let mut at = 0;
    let filled = msg.controllen.min(mem::size_of_val(&control));
    let base = control.as_ptr().cast::<u8>();
    while at + size_of::<CmsgHdr>() <= filled {
        // SAFETY: a whole header lies inside the filled, aligned control
        // buffer (`at` advances in multiples of 8).
        let header = unsafe { ptr::read(base.add(at).cast::<CmsgHdr>()) };
        if header.len < size_of::<CmsgHdr>() || at + header.len > filled {
            break;
        }
        if (header.level, header.kind) == (SOL_SOCKET, SCM_RIGHTS) {
            let n = (header.len - size_of::<CmsgHdr>()) / size_of::<RawFd>();
            for i in 0..n {
                // SAFETY: the descriptor lies inside this header's data,
                // and the kernel just installed it for us alone.
                let fd = unsafe {
                    let data = base.add(at + size_of::<CmsgHdr>()).cast::<RawFd>();
                    OwnedFd::from_raw_fd(ptr::read_unaligned(data.add(i)))
                };
                fds.push(fd);
            }
        }
        at += header.len.next_multiple_of(8);
    }
    if msg.flags & MSG_CTRUNC != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("more than {MAX_FDS} descriptors attached"),
        ));
    }
    Ok((got as usize, fds))
}

/// Waits at most `timeout_ms` milliseconds for `fd` to be readable (or
/// closed, or in error: whatever a `read` would then return). `false` if
/// the time ran out first or a signal cut the wait short.
pub(crate) fn readable_within(fd: BorrowedFd<'_>, timeout_ms: i32) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd: fd.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    // SAFETY: one live `pollfd`, and `nfds` says one.
    let ready = unsafe { poll(&mut pfd, 1, timeout_ms) };
    if ready < 0 {
        let e = io::Error::last_os_error();
        return match e.kind() {
            io::ErrorKind::Interrupted => Ok(false),
            _ => Err(e),
        };
    }
    Ok(ready > 0)
}
