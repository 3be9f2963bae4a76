//! What the benchmark reads from the host: a calibration kernel, CPU time
//! and peak memory of a process.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const CAL_OPS: u64 = 20_000;
const CAL_REPS: usize = 8;
const CAL_BUF: usize = 4096;

static CAL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The calibration kernel: a fixed number of iterations of the things a
/// door call is made of — a small buffer copy, an integer hash, a
/// data-dependent branch, an atomic counter bump, an uncontended lock
/// round trip and a small heap allocation. The op count is fixed, so only
/// the host's speed moves the reading.
///
/// The mix matters. On the shared 2-vCPU host this was sized on, the cost
/// of locked instructions and allocator calls moved between discrete
/// levels up to 40 % apart for seconds at a time, and the call path — which
/// is mostly reference counts, locks and counters — moved with it, while a
/// pure ALU loop or a cache-resident pointer chase moved by 4 %. A kernel
/// that does not contain what the workload contains does not track it.
pub struct Calibrator {
    buf: std::cell::RefCell<(Box<[u8; CAL_BUF]>, Vec<u8>)>,
    lock: Mutex<u64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            buf: std::cell::RefCell::new((Box::new([7u8; CAL_BUF]), Vec::with_capacity(64))),
            lock: Mutex::new(0),
        }
    }

    fn once(&self) -> f64 {
        let mut guard = self.buf.borrow_mut();
        let (buf, scratch) = &mut *guard;
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        let start = Instant::now();
        for i in 0..CAL_OPS {
            let off = (h >> 7) as usize % (CAL_BUF - 64);
            scratch.clear();
            scratch.extend_from_slice(&buf[off..off + 64]);
            let word = u64::from_le_bytes(scratch[8..16].try_into().expect("8 bytes"));
            h = (h ^ word).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h ^= h >> 29;
            buf[off] = h as u8;
            if h & 3 == 0 {
                h = h.rotate_left(7) ^ i;
            }
            CAL_COUNTER.fetch_add(1, Ordering::Relaxed);
            *self.lock.lock().expect("calibration lock") ^= h;
            let boxed = black_box(Box::new([h; 4]));
            h ^= boxed[1];
        }
        let ns = start.elapsed().as_nanos() as f64;
        black_box(h);
        ns / CAL_OPS as f64
    }

    /// One ~4 ms reading in ns per op: the fastest of eight repetitions.
    /// A latency median ignores the stalls of a shared host, and so must
    /// the scale it is divided by.
    pub fn read(&self) -> f64 {
        (0..CAL_REPS)
            .map(|_| self.once())
            .fold(f64::INFINITY, f64::min)
    }
}

/// CPU time consumed by every thread of `pid`, in ns
/// (`/proc/<pid>/task/*/schedstat`, first field). Threads that have
/// already exited are not counted, which is why callers sample around
/// steady-state rounds rather than across set-up.
pub fn cpu_ns(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set (`VmHWM`) of `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

extern "C" {
    /// `sched_setaffinity(2)` from the C library every Linux Rust binary
    /// already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs online on the host, whatever this process's own affinity (which
/// `available_parallelism` would report, and which a pinned parent hands
/// down to its children): the highest id in `/sys/devices/system/cpu/online`
/// plus one.
pub fn online_cpus() -> usize {
    std::fs::read_to_string("/sys/devices/system/cpu/online")
        .ok()
        .and_then(|s| {
            s.trim()
                .split([',', '-'])
                .filter_map(|n| n.parse::<usize>().ok())
                .max()
        })
        .map_or(1, |max| max + 1)
}

/// Pins the calling thread, and every thread and process it starts
/// afterwards, to one CPU: the last one online (the first tends to take
/// the host's interrupts). The driving process calls this before it
/// does anything else, so callers, socket threads and the serving process
/// all share that CPU.
///
/// One CPU on purpose. Left to itself the scheduler starts the server next
/// to its parent and moves it to the other vCPU a second or two later; on
/// the 2-vCPU shared host this was sized on, a wake-up across vCPUs cost
/// 20–40 µs against 4 µs on the same one, so unpinned runs flipped between
/// a 12 µs and a 40 µs null call by chance, and with the two processes
/// pinned *apart* the hypervisor's wake-up latency was most of every
/// number (p99 of the bulk workload reached 13 ms). Sharing one CPU takes
/// the host's inter-processor wake-ups out of the measurement and leaves
/// the software path plus a context switch, which is what a change to this
/// repository can move. Does nothing on a single-CPU host; returns whether
/// the affinity was set.
pub fn pin() -> bool {
    let cpus = online_cpus();
    if cpus < 2 {
        return false;
    }
    let cpu = cpus - 1;
    let mut mask = [0u64; 16];
    if cpu >= 64 * mask.len() {
        return false;
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, properly aligned buffer of exactly
    // `size_of_val(&mask)` bytes for the duration of the call, pid 0 means
    // the calling thread, and the kernel only reads the buffer.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}
