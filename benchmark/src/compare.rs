//! `benchmark compare A.json B.json`: applies the declared bounds to two
//! suite files (A the parent, B the change), one row per workload.

use spring_trace::json::Json;

use crate::est::spread;
use crate::{spec, Args};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs of one side spread wider than the bound, so a difference
    /// of that size cannot be told from noise.
    Unresolved,
}

/// Judges one metric on one workload. `a` and `b` hold every run's value;
/// medians are compared, and `bound` is a share of A's median.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let med = |v: &[f64]| crate::est::median(&mut v.to_vec());
    let (ma, mb) = (med(a), med(b));
    // Signed worsening as a share of the parent's median.
    let worse_by =
        if higher_is_better { ma - mb } else { mb - ma } / ma.abs().max(f64::MIN_POSITIVE);
    let noisy = [a, b].iter().any(|v| v.len() >= 2 && spread(v) > bound);
    let is_better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    // Every run of one side beats every run of the other.
    let dominates =
        |x: &[f64], y: &[f64]| x.iter().all(|&xv| y.iter().all(|&yv| is_better(xv, yv)));
    if worse_by > bound {
        if noisy && !dominates(a, b) {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if worse_by < -bound {
        if noisy && !dominates(b, a) {
            Verdict::Unresolved
        } else {
            Verdict::Better
        }
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

fn values(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(metric)?;
    let all: Vec<f64> = m
        .get("values")?
        .as_arr()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    (!all.is_empty()).then_some(all)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn run(args: &Args) -> Result<bool, String> {
    let (Some(pa), Some(pb)) = (args.positional(0), args.positional(1)) else {
        return Err("usage: benchmark compare A.json B.json".into());
    };
    let (a, b) = (load(pa)?, load(pb)?);
    for (doc, path) in [(&a, pa), (&b, pb)] {
        if doc.get("smoke") == Some(&Json::Bool(true)) {
            println!("note: {path} is a smoke run; its numbers are not fit for comparison");
        }
    }

    print!("{:<14}", "workload");
    for m in &spec::END_TO_END {
        print!(" {:>24}", m.name);
    }
    println!();
    let mut any_worse = false;
    for w in &spec::WORKLOADS {
        print!("{:<14}", w.name);
        for m in &spec::END_TO_END {
            let cell = match (values(&a, w.name, m.name), values(&b, w.name, m.name)) {
                (Some(va), Some(vb)) => {
                    let verdict = judge(&va, &vb, m.higher, m.bound);
                    any_worse |= verdict == Verdict::Worse;
                    let (ma, mb) = (
                        crate::est::median(&mut va.clone()),
                        crate::est::median(&mut vb.clone()),
                    );
                    format!(
                        "{} {:+.1}%",
                        match verdict {
                            Verdict::Better => "better",
                            Verdict::Same => "same",
                            Verdict::Worse => "WORSE",
                            Verdict::Unresolved => "unresolved",
                        },
                        (mb - ma) / ma * 100.0
                    )
                }
                _ => "missing".to_owned(),
            };
            print!(" {cell:>24}");
        }
        println!();
    }
    println!(
        "bounds (share of A's median): {}",
        spec::END_TO_END
            .iter()
            .map(|m| format!("{} {}", m.name, m.bound))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_runs_are_judged_by_the_bound_alone() {
        assert_eq!(judge(&[10.0], &[10.5], false, 0.10), Verdict::Same);
        assert_eq!(judge(&[10.0], &[11.5], false, 0.10), Verdict::Worse);
        assert_eq!(judge(&[10.0], &[8.0], false, 0.10), Verdict::Better);
        // Direction: a rate that falls is worse.
        assert_eq!(judge(&[1000.0], &[800.0], true, 0.12), Verdict::Worse);
        assert_eq!(judge(&[1000.0], &[1200.0], true, 0.12), Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_agrees() {
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        // Medians within the bound, but the parent's own runs spread 30 %.
        assert_eq!(judge(&noisy, &[10.2; 5], false, 0.10), Verdict::Unresolved);
        // Worse by median and not every run worse: cannot tell.
        assert_eq!(
            judge(&noisy, &[11.5, 11.9, 11.6, 11.7, 11.8], false, 0.10),
            Verdict::Unresolved
        );
        // Every run of B slower than every run of A: worse despite spread.
        assert_eq!(judge(&noisy, &[13.0; 5], false, 0.10), Verdict::Worse);
        assert_eq!(judge(&noisy, &[7.0; 5], false, 0.10), Verdict::Better);
        // Tight runs on both sides resolve normally.
        let tight = [10.0, 10.1, 9.9, 10.05, 9.95];
        assert_eq!(judge(&tight, &[10.2; 5], false, 0.10), Verdict::Same);
    }
}
