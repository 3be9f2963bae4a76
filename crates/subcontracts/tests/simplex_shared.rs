//! One simplex object shared by many threads. Its representation sits
//! behind no lock — nothing changes it in place — so callers, a copier and
//! a consumer running side by side must agree on the servant's state and
//! leave no identifier behind.

mod common;

use std::sync::Barrier;
use std::thread;

use common::{ctx_on, live, ship, CounterClient, CounterServant, COUNTER_TYPE};
use spring_kernel::Kernel;
use spring_subcontracts::Simplex;
use subcontract::ServerSubcontract;

const CALLERS: usize = 8;
const CALLS: i64 = 500;
const COPIES: i64 = 200;

/// Eight threads add through `shared` while a ninth copies it, calls
/// through each copy and disposes of it three ways: an explicit consume, a
/// plain drop, and a trip to another domain (which, for an object on the
/// local path, is what first gives the copy a door).
fn hammer(kernel: &Kernel, shared: &CounterClient, servant: &CounterServant) {
    let elsewhere = ctx_on(kernel, "elsewhere");
    let baseline = live(kernel);
    let start_value = *servant.value.lock();
    let start = Barrier::new(CALLERS + 1);
    thread::scope(|s| {
        for _ in 0..CALLERS {
            s.spawn(|| {
                start.wait();
                for _ in 0..CALLS {
                    shared.add(1).unwrap();
                }
            });
        }
        s.spawn(|| {
            start.wait();
            for i in 0..COPIES {
                let copy = CounterClient(shared.0.copy().unwrap());
                copy.add(1).unwrap();
                match i % 3 {
                    0 => copy.0.consume().unwrap(),
                    1 => drop(copy),
                    _ => {
                        let moved = CounterClient(ship(copy.0, &elsewhere, &COUNTER_TYPE).unwrap());
                        moved.add(1).unwrap();
                        moved.0.consume().unwrap();
                    }
                }
            }
        });
    });
    let shipped = (0..COPIES).filter(|i| i % 3 == 2).count() as i64;
    assert_eq!(
        *servant.value.lock() - start_value,
        CALLERS as i64 * CALLS + COPIES + shipped
    );
    assert_eq!(shared.get().unwrap(), *servant.value.lock());
    assert_eq!(live(kernel), baseline, "identifiers or doors left behind");
}

#[test]
fn many_threads_share_an_object_exported_through_a_door() {
    let kernel = Kernel::new("simplex-shared");
    let server = ctx_on(&kernel, "server");
    let client = ctx_on(&kernel, "client");
    let before = live(&kernel);
    let servant = CounterServant::new(0);
    let obj = Simplex.export(&server, servant.clone()).unwrap();
    let shared = CounterClient(ship(obj, &client, &COUNTER_TYPE).unwrap());
    hammer(&kernel, &shared, &servant);
    shared.0.consume().unwrap();
    assert_eq!(live(&kernel), before);
}

#[test]
fn many_threads_share_an_object_on_the_local_path() {
    let kernel = Kernel::new("simplex-shared");
    let ctx = ctx_on(&kernel, "both");
    let before = live(&kernel);
    let servant = CounterServant::new(7);
    let shared = CounterClient(Simplex::export_local(&ctx, servant.clone()).unwrap());
    // No door yet, and none for the callers or the local copies.
    assert_eq!(live(&kernel), before);
    hammer(&kernel, &shared, &servant);
    shared.0.consume().unwrap();
    assert_eq!(live(&kernel), before);
}
