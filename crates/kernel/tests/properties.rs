//! Property-based tests: arbitrary sequences of door operations never panic
//! and preserve the kernel's accounting invariants.

use std::sync::Arc;

use proptest::prelude::*;
use spring_kernel::{CallCtx, Domain, DoorError, DoorHandler, DoorId, Kernel, Message};

struct Echo;

impl DoorHandler for Echo {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        Ok(msg)
    }
}

/// One step of the random workload.
#[derive(Clone, Debug)]
enum Op {
    CreateDoor { domain: usize },
    CopyDoor { pick: usize },
    DeleteDoor { pick: usize },
    TransferDoor { pick: usize, to: usize },
    Call { pick: usize, payload: u8 },
    CallWithDoor { pick: usize, send: usize },
    CallWithSameDoorTwice { pick: usize, send: usize },
    Revoke { pick: usize },
    Crash { domain: usize },
}

fn op_strategy(domains: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..domains).prop_map(|domain| Op::CreateDoor { domain }),
        any::<usize>().prop_map(|pick| Op::CopyDoor { pick }),
        any::<usize>().prop_map(|pick| Op::DeleteDoor { pick }),
        (any::<usize>(), 0..domains).prop_map(|(pick, to)| Op::TransferDoor { pick, to }),
        (any::<usize>(), any::<u8>()).prop_map(|(pick, payload)| Op::Call { pick, payload }),
        (any::<usize>(), any::<usize>()).prop_map(|(pick, send)| Op::CallWithDoor { pick, send }),
        (any::<usize>(), any::<usize>())
            .prop_map(|(pick, send)| Op::CallWithSameDoorTwice { pick, send }),
        any::<usize>().prop_map(|pick| Op::Revoke { pick }),
        (0..domains).prop_map(|domain| Op::Crash { domain }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_door_workload_is_sound(
        ops in proptest::collection::vec(op_strategy(4), 1..120),
    ) {
        let kernel = Kernel::new("prop");
        let domains: Vec<Domain> =
            (0..4).map(|i| kernel.create_domain(format!("d{i}"))).collect();
        // Identifiers we believe are live, with their owning domain index.
        let mut held: Vec<(usize, DoorId)> = Vec::new();

        for op in ops {
            match op {
                Op::CreateDoor { domain } => {
                    if let Ok(id) = domains[domain].create_door(Arc::new(Echo)) {
                        held.push((domain, id));
                    }
                }
                Op::CopyDoor { pick } => {
                    if held.is_empty() { continue; }
                    let (owner, id) = held[pick % held.len()];
                    if let Ok(copy) = domains[owner].copy_door(id) {
                        held.push((owner, copy));
                    }
                }
                Op::DeleteDoor { pick } => {
                    if held.is_empty() { continue; }
                    let idx = pick % held.len();
                    let (owner, id) = held[idx];
                    let _ = domains[owner].delete_door(id);
                    held.remove(idx);
                }
                Op::TransferDoor { pick, to } => {
                    if held.is_empty() { continue; }
                    let idx = pick % held.len();
                    let (owner, id) = held[idx];
                    match domains[owner].transfer_door(id, &domains[to]) {
                        Ok(new_id) => { held[idx] = (to, new_id); }
                        Err(_) => { held.remove(idx); }
                    }
                }
                Op::Call { pick, payload } => {
                    if held.is_empty() { continue; }
                    let (owner, id) = held[pick % held.len()];
                    let reply = domains[owner].call(id, Message::from_bytes(vec![payload]));
                    if let Ok(r) = reply {
                        prop_assert_eq!(r.bytes, vec![payload]);
                    }
                }
                Op::CallWithDoor { pick, send } => {
                    if held.len() < 2 { continue; }
                    let target_idx = pick % held.len();
                    let mut send_idx = send % held.len();
                    if send_idx == target_idx {
                        send_idx = (send_idx + 1) % held.len();
                    }
                    let (owner, id) = held[target_idx];
                    let (send_owner, send_id) = held[send_idx];
                    if owner != send_owner { continue; }
                    // The echo handler bounces the identifier back; on
                    // success the caller re-owns a fresh identifier.
                    let msg = Message { bytes: vec![], doors: vec![send_id], ..Message::default() };
                    match domains[owner].call(id, msg) {
                        Ok(reply) => {
                            prop_assert_eq!(reply.doors.len(), 1);
                            held[send_idx] = (owner, reply.doors[0]);
                        }
                        Err(_) => {
                            // Delivery may have failed before or after the
                            // identifier moved; forget it conservatively.
                            held.remove(send_idx);
                        }
                    }
                }
                Op::CallWithSameDoorTwice { pick, send } => {
                    if held.is_empty() { continue; }
                    let (owner, id) = held[pick % held.len()];
                    let (send_owner, send_id) = held[send % held.len()];
                    if owner != send_owner { continue; }
                    // One reference named twice never lands as two
                    // identifiers, and the refusal moves nothing.
                    let msg = Message {
                        bytes: vec![],
                        doors: vec![send_id, send_id],
                        ..Message::default()
                    };
                    prop_assert!(domains[owner].call(id, msg).is_err());
                    prop_assert!(domains[owner].door_is_valid(send_id));
                }
                Op::Revoke { pick } => {
                    if held.is_empty() { continue; }
                    let (owner, id) = held[pick % held.len()];
                    let _ = domains[owner].revoke_door(id);
                }
                Op::Crash { domain } => {
                    domains[domain].crash();
                    held.retain(|(owner, _)| *owner != domain);
                }
            }
            // After every step: refs of every live door == table entries
            // pointing at it, and no registry entry without a door.
            prop_assert_eq!(kernel.audit(), Ok(()));
        }

        // Accounting: issued - deleted covers at least what we still hold
        // (crashes delete in bulk; never negative).
        let stats = kernel.stats();
        prop_assert!(stats.ids_issued + stats.ids_transferred >= stats.ids_deleted);
        // Whatever we believe we hold is actually valid, and a door lives
        // exactly as long as some identifier for it does.
        for (owner, id) in &held {
            prop_assert!(
                domains[*owner].door_is_valid(*id),
                "identifier {:?} lost without the model noticing", id
            );
        }
        for d in &domains {
            d.crash();
        }
        prop_assert_eq!(kernel.live_doors(), 0);
        prop_assert_eq!(kernel.audit(), Ok(()));
        let stats = kernel.stats();
        prop_assert_eq!(stats.ids_issued, stats.ids_deleted);
        prop_assert_eq!(stats.unref_notifications, stats.doors_created);
    }
}
