//! An exhaustive interleaving explorer for the workspace's I/O-free cores.
//!
//! A [`Model`] is one core together with what its shell does around it —
//! threads, locks, condvars, clocks and peers — reduced to events. A
//! [`Scenario`] names a start state and a depth. [`explore`] runs every
//! interleaving of the events to that depth, depth first, remembering each
//! state it has seen (by hash) with the depth it had left, and calls
//! [`Model::check`] after every step. A violation is searched again at
//! ever smaller depths until no shorter path reaches one, and [`run`] prints
//! that shortest path as a `#[test]` that [`replay`]s it step by step.
//!
//! The crate is a dev-dependency only: no shipped code links it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// A world around one core: its state, the events enabled in it, and the
/// invariants every step must keep.
pub trait Model: Clone + Hash {
    /// One step of the world.
    type Event: Copy + Debug + PartialEq;

    /// The events enabled in this state, in a fixed order.
    fn events(&self) -> Vec<Self::Event>;

    /// Takes one enabled step. An error is a violation the step itself ran
    /// into.
    fn apply(&mut self, ev: Self::Event) -> Result<(), String>;

    /// Checks every invariant after `ev` took `prev` to `self`.
    fn check(&self, prev: &Self, ev: Self::Event) -> Result<(), String>;
}

/// What [`explore`] runs: a named start state and how deep to go.
pub trait Scenario {
    /// The world the scenario starts.
    type Model: Model;

    /// The scenario's name. A counterexample is written as a test named
    /// after it that replays the constant of the same name in upper case.
    fn name(&self) -> &'static str;

    /// How many steps every interleaving runs.
    fn depth(&self) -> usize;

    /// The world before the first step.
    fn start(&self) -> Self::Model;
}

/// `depth` in an optimised build; three steps less in a debug build, which
/// runs some ten times slower (CI runs the full depth in release).
pub const fn deep(depth: usize) -> usize {
    if cfg!(debug_assertions) {
        depth - 3
    } else {
        depth
    }
}

/// What one exploration saw.
#[derive(Debug)]
pub struct Report {
    /// Distinct states reached.
    pub states: usize,
    /// Steps taken, revisits included.
    pub steps: usize,
    /// The longest path run.
    pub depth: usize,
}

/// A violation: the event path that reaches it, and why.
pub type Violation<E> = (Vec<E>, String);

/// Explores every interleaving of `scn` to its depth. On a violation,
/// returns the shortest event path to one and why.
pub fn explore<S: Scenario>(scn: &S) -> Result<Report, Violation<<S::Model as Model>::Event>> {
    let start = scn.start();
    let mut shortest = match search(&start, scn.depth()) {
        Ok(report) => return Ok(report),
        Err(violation) => violation,
    };
    // Depth first finds some path; the shortest one is the one to read.
    while let Err(shorter) = search(&start, shortest.0.len() - 1) {
        shortest = shorter;
    }
    Err(shortest)
}

fn search<M: Model>(start: &M, depth: usize) -> Result<Report, Violation<M::Event>> {
    let mut report = Report {
        states: 0,
        steps: 0,
        depth: 0,
    };
    let (mut seen, mut path) = (HashMap::new(), Vec::new());
    dfs(start, depth, &mut seen, &mut path, &mut report)?;
    Ok(report)
}

fn fingerprint<M: Hash>(w: &M) -> u64 {
    let mut h = DefaultHasher::new();
    w.hash(&mut h);
    h.finish()
}

fn dfs<M: Model>(
    w: &M,
    depth: usize,
    seen: &mut HashMap<u64, usize>,
    path: &mut Vec<M::Event>,
    report: &mut Report,
) -> Result<(), Violation<M::Event>> {
    let left = depth - path.len();
    let fingerprint = fingerprint(w);
    match seen.get(&fingerprint) {
        Some(&had) if had >= left => return Ok(()),
        _ => seen.insert(fingerprint, left),
    };
    report.states = seen.len();
    report.depth = report.depth.max(path.len());
    if left == 0 {
        return Ok(());
    }
    for ev in w.events() {
        let mut next = w.clone();
        path.push(ev);
        report.steps += 1;
        if let Err(why) = next.apply(ev).and_then(|()| next.check(w, ev)) {
            return Err((path.clone(), why));
        }
        dfs(&next, depth, seen, path, report)?;
        path.pop();
    }
    Ok(())
}

/// Replays `path` from `scn`'s start, checking every invariant after every
/// step, and returns the world it reaches; panics on an event that is not
/// enabled or on a violation.
pub fn replay<S: Scenario>(scn: &S, path: &[<S::Model as Model>::Event]) -> S::Model {
    let mut w = scn.start();
    for (i, &ev) in path.iter().enumerate() {
        assert!(w.events().contains(&ev), "step {i}: {ev:?} is not enabled");
        let prev = w.clone();
        if let Err(why) = w.apply(ev).and_then(|()| w.check(&prev, ev)) {
            panic!("step {i}: {ev:?}: {why}");
        }
    }
    w
}

/// Explores `scn` and prints what it saw. On a violation, writes the
/// shortest path as a unit test to `target/explorer/<scenario>.rs` — paste
/// it into the model's `tests` module to replay it — and fails with it.
pub fn run<S: Scenario>(scn: &S) -> Report {
    let started = Instant::now();
    match explore(scn) {
        Ok(report) => {
            println!(
                "{}: {} states, {} steps, depth {} in {:.1?}",
                scn.name(),
                report.states,
                report.steps,
                report.depth,
                started.elapsed()
            );
            report
        }
        Err((path, why)) => {
            let events: Vec<String> = path.iter().map(|ev| format!("{ev:?}")).collect();
            let test = format!(
                "// {why}\n#[test]\nfn {name}_counterexample() {{\n    replay(&{scenario}, &[{events}]);\n}}\n",
                name = scn.name(),
                scenario = scn.name().to_uppercase(),
                events = events.join(", "),
            );
            let dir =
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/explorer");
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(dir.join(format!("{}.rs", scn.name())), &test);
            panic!(
                "{}: {} steps to a violation:\n{test}",
                scn.name(),
                path.len()
            );
        }
    }
}
