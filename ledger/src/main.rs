//! The ledger: one benchmark for the whole reproduction, driven through
//! the public `cluster::World` API.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's world, then repeats run → checkpoint → run → roll
//! back for `--seconds` of wall time and prints the metrics. With
//! `--trace 0` those are the end-to-end metrics; with `--trace 1` the run
//! spends half its budget untraced and half traced, replays the committed
//! images and the guest program through each layer, and prints the
//! per-layer metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A detail report (stamps,
//! sample counts, first-epoch digest, and the spans of a traced run) goes
//! to `ledger/out/`. See `ledger/README.md`.

mod json;
mod metrics;
mod reference;
mod replay;
mod run;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use json::Value;
use metrics::{Decl, Values, END_TO_END, PER_LAYER};
use run::{setup, Runner};
use spans::Recorder;
use workloads::Spec;

const USAGE: &str =
    "usage: ledger --workload <slm-stw|slm-dedup-cow|stream|compute> --seed <n> --seconds <s> --trace <0|1>";

/// Epochs a traced run keeps for the layer replay.
const REPLAY_EPOCHS: usize = 3;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one invocation measured and checked.
struct Outcome {
    values: Values,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    report: Value,
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit the checkout was taken from, when it is a git work tree.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{r}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn measure(args: &Args) -> Result<Outcome, String> {
    let cpus = host_cpus();
    let spec = Spec::new(&args.workload, args.seed, cpus)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let mut rec = Recorder::new(false);
    let (world, setup_s) = setup(&spec, &mut rec)?;
    let mut runner = Runner::new(&spec, world, args.seed, &mut rec)?;
    let budget_ns = args.seconds * 1_000_000_000;

    let (values, check_problems) = if args.trace {
        // Same world, same loop: first untraced, then traced, so the
        // trace's overhead shows as the difference of the two halves.
        let untraced = runner.cycles(&mut rec, budget_ns / 2);
        rec.set_tracing(true);
        runner.keep_epochs = REPLAY_EPOCHS;
        let traced = runner.cycles(&mut rec, budget_ns / 2);
        rec.set_tracing(false);
        runner.settle(&mut rec);
        let replay = replay::replay(
            &runner.kept,
            spec.first_program(),
            spec.params.store.threads,
            &rec,
        );
        let v = metrics::per_layer(&traced, &untraced, &rec.self_time_by_name(), &replay);
        (v, replay.problems)
    } else {
        let s = runner.cycles(&mut rec, budget_ns);
        runner.settle(&mut rec);
        let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        let v = metrics::end_to_end(&s, &setup_s, rss);
        let outside = spec
            .bands
            .iter()
            .filter(|&&(name, lo, hi)| !v.values.get(name).is_some_and(|x| (lo..=hi).contains(x)))
            .map(|&(name, lo, hi)| format!("{name} outside its band [{lo}, {hi}]"))
            .collect();
        (v, outside)
    };

    let mut problems = runner.problems.clone();
    problems.extend(check_problems);
    let report = Value::obj([
        ("workload", Value::str(spec.name)),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds as f64)),
        ("trace", Value::Bool(args.trace)),
        ("host_cpus", Value::Num(cpus as f64)),
        (
            "store_threads",
            Value::Num(spec.params.store.threads as f64),
        ),
        ("git_rev", Value::str(git_rev())),
        ("profile", Value::str("release")),
        (
            "first_epoch_digest",
            Value::str(format!("{:#018x}", runner.base_digest)),
        ),
        (
            "pinned_first_epoch_digest",
            Value::str(format!("{:#018x}", spec.first_epoch_digest)),
        ),
        ("attempted", Value::Num(runner.attempted as f64)),
        ("failed", Value::Num(runner.failed as f64)),
        (
            "problems",
            Value::Arr(problems.iter().map(|p| Value::str(p.clone())).collect()),
        ),
        (
            "details",
            Value::Arr(
                values
                    .details
                    .iter()
                    .map(|d| Value::str(d.clone()))
                    .collect(),
            ),
        ),
        ("spans", rec.to_json()),
    ]);
    Ok(Outcome {
        values,
        attempted: runner.attempted,
        failed: runner.failed,
        problems,
        report,
    })
}

/// The result line: every declared metric, by name and unit.
fn result_line(o: &Outcome, decls: &[Decl]) -> (Value, bool) {
    let mut ok = o.failed == 0 && o.problems.is_empty();
    let metrics = decls
        .iter()
        .map(|d| {
            let x = o.values.values.get(d.name).copied().unwrap_or(f64::NAN);
            ok &= x.is_finite();
            let v = Value::obj([
                ("value", Value::Num(if x.is_finite() { x } else { 0.0 })),
                ("unit", Value::str(d.unit)),
            ]);
            (d.name, v)
        })
        .collect::<Vec<_>>();
    let line = Value::obj([
        ("correct", Value::Bool(ok)),
        ("attempted", Value::Num(o.attempted.max(1) as f64)),
        ("failed", Value::Num(o.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ]);
    (line, ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("ledger: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    let outcome = match measure(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(1);
        }
    };
    let decls = if args.trace { PER_LAYER } else { END_TO_END };
    let (line, ok) = result_line(&outcome, decls);

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!(
        "{dir}/{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, format!("{}\n", outcome.report)))
    {
        eprintln!("ledger: cannot write {path}: {e}");
    }
    if let Value::Obj(stamps) = &outcome.report {
        let head: Vec<String> = stamps
            .iter()
            .filter(|(k, _)| !matches!(k.as_str(), "problems" | "details" | "spans"))
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("# {}", head.join(" "));
    }
    for d in decls {
        let x = outcome
            .values
            .values
            .get(d.name)
            .copied()
            .unwrap_or(f64::NAN);
        let bound = d
            .bound
            .map_or(String::new(), |b| format!(", regression bound {b}"));
        println!(
            "# {} = {x} {} ({} is better{bound})",
            d.name, d.unit, d.better
        );
    }
    for d in &outcome.values.details {
        println!("# {d}");
    }
    for p in &outcome.problems {
        println!("# FAILED: {p}");
    }
    if !ok {
        eprintln!("ledger: outputs failed their checks (see {path})");
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        assert_eq!(
            args("--workload stream --seed 7 --seconds 3 --trace 1"),
            Ok(Args {
                workload: "stream".into(),
                seed: 7,
                seconds: 3,
                trace: true,
            })
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload stream --seed x --seconds 1 --trace 0",
            "--workload stream --seed 1 --seconds 1 --trace 2",
            "--workload stream --seed 1 --seconds 1",
            "--workload stream --seed 1 --seconds 1 --trace",
            "--bogus 1",
        ] {
            assert!(args(bad).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn benchmark_json_round_trips_and_matches_the_declarations() {
        let text = include_str!("../../BENCHMARK.json");
        let v = json::parse(text).expect("BENCHMARK.json parses");
        assert_eq!(json::parse(&v.to_string()), Ok(v.clone()), "round trip");
        let Value::Obj(top) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names: Vec<&str> = match v.get("workloads") {
            Some(Value::Arr(ws)) => ws
                .iter()
                .filter_map(|w| match w.get("name") {
                    Some(Value::Str(s)) => Some(s.as_str()),
                    _ => None,
                })
                .collect(),
            _ => panic!("workloads missing"),
        };
        assert_eq!(names, workloads::NAMES);
        for (key, decls) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Arr(ms)) = v.get(key) else {
                panic!("{key} missing")
            };
            assert_eq!(ms.len(), decls.len(), "{key}");
            for (m, d) in ms.iter().zip(decls) {
                let mut want = vec![
                    ("name", Value::str(d.name)),
                    ("unit", Value::str(d.unit)),
                    ("better", Value::str(d.better)),
                ];
                if let Some(b) = d.bound {
                    want.push(("bound", Value::Num(b)));
                }
                assert_eq!(*m, Value::obj(want), "{key} entry for {}", d.name);
            }
        }
    }

    /// Every workload emits every metric it declares, in both modes, and
    /// passes its own checks. Slow in a debug build: run with `--release`.
    #[test]
    fn every_workload_emits_every_declared_metric() {
        for name in workloads::NAMES {
            for trace in [false, true] {
                let a = Args {
                    workload: name.into(),
                    seed: 1,
                    seconds: 1,
                    trace,
                };
                let o = measure(&a).expect("workload runs");
                let decls = if trace { PER_LAYER } else { END_TO_END };
                let mut got: Vec<&str> = o.values.values.keys().copied().collect();
                let mut want: Vec<&str> = decls.iter().map(|d| d.name).collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{name} trace={trace}");
                let (_, ok) = result_line(&o, decls);
                assert!(ok, "{name} trace={trace} failed: {:?}", o.problems);
            }
        }
    }
}
