//! The acceptance gate behind E15: with the admission controller shedding
//! low-priority calls past the queue-delay bound, the offered load at
//! which served p99 still meets the bound (the knee) must sit strictly
//! beyond the no-shedding arm's knee. The sweep is driven in multiples of
//! the host's own measured capacity, so the gate is machine-independent;
//! retries absorb the occasional CI host that stalls an entire round.

use spring_bench::report::{Scale, EXPERIMENTS};

#[test]
fn shedding_moves_the_p99_knee_to_a_strictly_higher_offered_load() {
    let e15 = EXPERIMENTS.iter().find(|e| e.id == "e15").unwrap();
    let mut last = (0.0, 0.0);
    for attempt in 0..3 {
        let table = (e15.run)(Scale::Smoke);
        let noshed = table.get("knee_x_no_shed").unwrap();
        let shed = table.get("knee_x_shed").unwrap();
        if shed > noshed {
            return;
        }
        eprintln!("attempt {attempt}: shed knee {shed:.1}x vs no-shed knee {noshed:.1}x, retrying");
        last = (shed, noshed);
    }
    panic!(
        "overload shedding did not move the knee: shed arm {:.1}x capacity vs no-shed {:.1}x",
        last.0, last.1
    );
}
