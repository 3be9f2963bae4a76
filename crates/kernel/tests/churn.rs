//! Door lifetimes in distinct domains share no lock: a door lives only in
//! the tables of the domains that hold its identifiers, so creating,
//! copying and deleting doors in one domain never waits on another's.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use spring_kernel::{CallCtx, DoorError, DoorHandler, Kernel, Message};

const THREADS: u64 = 4;
const CYCLES: u64 = 20_000;

/// Counts the `unreferenced` notices of every door it serves.
struct Unrefs(AtomicU64);

impl DoorHandler for Unrefs {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        Ok(msg)
    }

    fn unreferenced(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn door_churn_in_distinct_domains_never_waits_on_a_lock() {
    let kernel = Kernel::new("churn");
    let handler = Arc::new(Unrefs(AtomicU64::new(0)));
    let domains: Vec<_> = (0..THREADS)
        .map(|t| kernel.create_domain(format!("churn-{t}")))
        .collect();
    let start = &Barrier::new(domains.len());
    let before = kernel.stats();
    std::thread::scope(|s| {
        for domain in &domains {
            let handler = &handler;
            s.spawn(move || {
                start.wait();
                for _ in 0..CYCLES {
                    let door = domain.create_door(handler.clone()).unwrap();
                    let copy = domain.copy_door(door).unwrap();
                    domain.delete_door(door).unwrap();
                    domain.delete_door(copy).unwrap();
                }
            });
        }
    });
    let churned = kernel.stats().since(&before);
    assert_eq!((churned.table_lock_waits, churned.shard_lock_waits), (0, 0));
    assert_eq!(churned.doors_created, THREADS * CYCLES);
    assert_eq!(handler.0.load(Ordering::Relaxed), THREADS * CYCLES);
    assert_eq!(kernel.live_doors(), 0);
    assert_eq!(kernel.audit(), Ok(()));
}
