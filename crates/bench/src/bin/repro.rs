//! Regenerates every table of `EXPERIMENTS.md` and checks it twice: each
//! row asserts the paper's band (the meaning), and each rendered table
//! must appear byte for byte in its `EXPERIMENTS.md` section (the drift
//! detector: the simulation is deterministic, so a value that moves is a
//! behaviour change, and a hand-edited table cannot drift from the code).
//!
//! `cargo run --release -p bench --bin repro` takes no flags. It runs
//! every row, prints every table, and exits 1 if a row leaves its band or
//! renders a line its section lacks, naming the row and that line. It
//! writes no file.

use std::cmp::Reverse;
use std::ops::RangeInclusive;
use std::process::ExitCode;

use baseline::{LoggingCosts, LoggingReport, MessageProfile};
use bench::ablation::{run_ablation, AblationPoint};
use bench::compare::{run_compare, ComparePoint};
use bench::cow::{run_cow_sweep, CowRow};
use bench::dedup::{run_dedup_sweep, DedupRow};
use bench::fig5::{run_fig5, run_restart_sweep, run_scalability, Fig5Point};
use bench::fig6::{received_bytes, run_fig6, streaming_job, Fig6Run, Fig6Sample};
use bench::overhead::{run_overhead, OverheadReport};
use bench::recovery::{run_recovery_sweep, RecoveryRow};
use bench::replication::{run_replication_sweep, ReplicationRow};
use bench::util::{local_save, mean_std_micros, mean_std_secs};
use cluster::{ClusterParams, OpReport, World};
use cruz::proto::ProtocolMode::{Blocking, Optimized};
use des::SimDuration;
use workloads::ComputeConfig;

/// The pin file: every table a row renders must appear in it verbatim.
const PINS: &str = include_str!("../../../../EXPERIMENTS.md");

const MIB: u64 = 1024 * 1024;
const INF: f64 = f64::INFINITY;

/// One experiment of the registry: what it runs, what it prints, and the
/// paper band its numbers must fall in.
trait Row: Sized {
    /// The `EXPERIMENTS.md` sections this row pins, one per rendered
    /// block, in render order.
    const IDS: &'static [&'static str];
    /// The paper's claim, as the band check encodes it.
    const CLAIM: &'static str;
    /// Runs the simulation through the `bench` modules.
    fn run() -> Self;
    /// One markdown block per id in [`Row::IDS`].
    fn render(&self) -> Vec<String>;
    /// Checks the measured values against the paper's band.
    fn check(&self) -> Result<(), String>;
}

/// The registry, in `EXPERIMENTS.md` order.
const ROWS: &[fn() -> Result<(), String>] = &[
    report::<Fig5>,
    report::<Fig6>,
    report::<Overhead>,
    report::<Restart>,
    report::<Compare>,
    report::<Ablation>,
    report::<Migration>,
    report::<Dedup>,
    report::<Scalability>,
    report::<Cow>,
    report::<Recovery>,
    report::<Replication>,
];

fn main() -> ExitCode {
    let failed = ROWS.iter().filter_map(|row| row().err()).count();
    if failed == 0 {
        return ExitCode::SUCCESS;
    }
    eprintln!("repro: {failed} of {} rows failed", ROWS.len());
    ExitCode::FAILURE
}

/// Runs one row, prints its tables, and checks its band and its pins.
fn report<R: Row>() -> Result<(), String> {
    let name = R::IDS.join("+");
    println!("## {name}: {}\n", R::CLAIM);
    let row = R::run();
    let blocks = row.render();
    assert_eq!(blocks.len(), R::IDS.len(), "{name}: one block per id");
    blocks.iter().for_each(|b| println!("{b}\n"));
    let mut pins = R::IDS.iter().zip(&blocks);
    let verdict = row
        .check()
        .and_then(|()| pins.try_for_each(|(id, b)| pinned(id, b)));
    verdict.inspect_err(|e| eprintln!("repro: {name}: {e}"))
}

/// Checks that `block` is a whole paragraph of section `id` of the pin
/// file, line for line. On a mismatch it aligns the block where most of
/// its lines match and names the first line that differs there.
fn pinned(id: &str, block: &str) -> Result<(), String> {
    let head = format!("## {id} ");
    let mut lines = PINS.lines().enumerate();
    let Some((start, _)) = lines.find(|(_, l)| l.starts_with(&head)) else {
        return Err(format!("EXPERIMENTS.md has no `{head}` section"));
    };
    let section: Vec<_> = lines.take_while(|(_, l)| !l.starts_with("## ")).collect();
    let want: Vec<&str> = [""].into_iter().chain(block.lines()).chain([""]).collect();
    let differs = |at: usize, i: usize| section.get(at + i).map(|l| l.1) != Some(want[i]);
    let hits = |at: usize| (0..want.len()).filter(|&i| !differs(at, i)).count();
    let at = (0..section.len()).max_by_key(|&at| (hits(at), Reverse(at)));
    let at = at.unwrap_or(0);
    let Some(i) = (0..want.len()).find(|&i| differs(at, i)) else {
        return Ok(());
    };
    let (line, pinned) = section.get(at + i).copied().unwrap_or((start, ""));
    let line = line + 1;
    let measured = want[i];
    Err(format!(
        "EXPERIMENTS.md:{line} differs from the run\n  pinned:   {pinned}\n  measured: {measured}"
    ))
}

/// Returns `Err(message)` from the enclosing check unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($msg)+));
        }
    };
}

/// `Err` naming `what` unless `x` lies in `band`.
fn within(what: &str, x: f64, band: RangeInclusive<f64>) -> Result<(), String> {
    ensure!(band.contains(&x), "{what} is {x:.4}, outside {band:?}");
    Ok(())
}

/// A markdown table: the header row as it reads in `EXPERIMENTS.md`,
/// then one formatted line per row.
fn table(header: &str, rows: impl IntoIterator<Item = String>) -> String {
    let rule = "---|".repeat(header.matches('|').count() - 1);
    let rows: String = rows.into_iter().map(|r| format!("\n{r}")).collect();
    format!("{header}\n|{rule}{rows}")
}

/// `x` at `max` decimals, with trailing zeros dropped down to `min`.
fn trim(x: f64, max: usize, min: usize) -> String {
    let mut s = format!("{x:.max$}");
    let keep = s.len() - max + min - usize::from(min == 0 && max > 0);
    while s.len() > keep && (s.ends_with('0') || s.ends_with('.')) {
        s.pop();
    }
    s
}

/// `x` at `decimals` decimals, its integer digits grouped by spaces.
fn grouped(x: f64, decimals: usize) -> String {
    let s = format!("{x:.decimals$}");
    let int = s.find('.').unwrap_or(s.len());
    let mut out = String::new();
    for (i, c) in s.char_indices() {
        if i > 0 && i < int && (int - i) % 3 == 0 {
            out.push(' ');
        }
        out.push(c);
    }
    out
}

/// A duration at three significant digits: µs below 1 ms, else ms.
fn short(d: SimDuration) -> String {
    match d.as_micros_f64() {
        us if us < 1e3 => format!("{us:.0} µs"),
        us if us < 1e4 => format!("{:.2} ms", us / 1e3),
        us if us < 1e5 => format!("{:.1} ms", us / 1e3),
        us => format!("{:.0} ms", us / 1e3),
    }
}

fn ms(d: SimDuration) -> f64 {
    d.as_micros_f64() / 1e3
}

fn latency(r: &OpReport) -> SimDuration {
    r.stats.checkpoint_latency().expect("operation completed")
}

fn overhead(r: &OpReport) -> SimDuration {
    r.coordination_overhead().expect("operation completed")
}

/// E1 + E2: one Fig. 5 sweep, N = 2..=8, three checkpoints each. The
/// tables list the even sizes; the checks cover every N.
struct Fig5(Vec<Fig5Point>);

impl Row for Fig5 {
    const IDS: &'static [&'static str] = &["E1", "E2"];
    const CLAIM: &'static str = "latency ≈1 s flat in N; overhead 350–550 µs, linear";
    fn run() -> Self {
        let interval = SimDuration::from_secs(2);
        Fig5((2..=8).map(|n| run_fig5(n, 3, interval)).collect())
    }
    fn render(&self) -> Vec<String> {
        let header = "| nodes | paper | measured (±σ) |";
        let papers = [(2, "350"), (4, "400"), (6, "450–500"), (8, "550")];
        let e1 = papers.map(|(n, _)| {
            let (mean, std) = mean_std_secs(&self.0[n - 2].latencies());
            format!("| {n} | ≈1 s | {mean:.3} s (±{}) |", trim(std, 4, 3))
        });
        let e2 = papers.map(|(n, paper)| {
            let (mean, std) = mean_std_micros(&self.0[n - 2].overheads());
            format!("| {n} | ≈{paper} µs | {mean:.0} µs (±{std:.0}) |")
        });
        vec![table(header, e1), table(header, e2)]
    }
    fn check(&self) -> Result<(), String> {
        let all = self.0.iter().flat_map(|p| p.latencies());
        let secs: Vec<f64> = all.map(|d| d.as_secs_f64()).collect();
        let lo = secs.iter().copied().fold(f64::MAX, f64::min);
        let hi = secs.iter().copied().fold(0.0, f64::max);
        within("the Fig. 5(a) minimum (s)", lo, 0.9..=1.1)?;
        within("the Fig. 5(a) maximum (s)", hi, 0.9..=1.1)?;
        within("the Fig. 5(a) spread max/min", hi / lo, 1.0..=1.01)?;
        let overheads = self.0.iter().map(|p| mean_std_micros(&p.overheads()).0);
        let us: Vec<f64> = overheads.collect();
        for x in &us {
            within("a Fig. 5(b) overhead (µs)", *x, 300.0..=600.0)?;
        }
        for w in us.windows(2) {
            within("a Fig. 5(b) step per node (µs)", w[1] - w[0], 25.0..=60.0)?;
        }
        Ok(())
    }
}

/// E3 + E9: Fig. 6's stream across one checkpoint, at four state sizes;
/// E3 is the 10 MiB run.
struct Fig6(Vec<(u64, Fig6Run)>);

impl Fig6 {
    /// The 10 MiB run, its peak pre-checkpoint rate, and its peak rate
    /// over samples whose whole 10 ms window lies in the local save — which
    /// starts a little after the checkpoint, so a window opening at t = 0
    /// would still hold the pre-freeze tail.
    fn e3(&self) -> (&Fig6Run, f64, f64) {
        let run = &self.0[2].1;
        let peak = |from: f64, to: f64| {
            let s = run.samples.iter().filter(|s| (from..=to).contains(&s.t_ms));
            s.map(|s| s.rate_mbps).fold(0.0, f64::max)
        };
        let (start, end) = (run.save_start_ms, run.save_start_ms + run.checkpoint_ms);
        (run, peak(f64::MIN, 0.0), peak(start + 10.0, end))
    }
}

impl Row for Fig6 {
    const IDS: &'static [&'static str] = &["E3", "E9"];
    const CLAIM: &'static str = "the stream stops for the save and resumes on TCP's backoff";
    fn run() -> Self {
        let run = |mib| (mib, run_fig6(mib * MIB, 700));
        Fig6([1, 4, 10, 20].map(run).to_vec())
    }
    fn render(&self) -> Vec<String> {
        let (run, steady, during) = self.e3();
        let window = trim(run.checkpoint_ms, 1, 0);
        let after = |rate: f64| {
            let late = |s: &&Fig6Sample| s.t_ms > run.checkpoint_ms && s.rate_mbps >= rate;
            let t = run.samples.iter().find(late).expect("the stream recovers");
            format!("{:.0} ms", t.t_ms)
        };
        let (resumed, full) = (after(f64::MIN_POSITIVE), after(0.99 * steady));
        let e3 = [
            format!("| steady rate | — (GigE line rate) | {steady:.0} Mb/s |"),
            format!("| rate during checkpoint | 0 | {during:.0} |"),
            format!("| checkpoint window | ≈120 ms | {window} ms |"),
            format!(
                "| drain pulse | short pulse as buffered data is consumed | \
                {:.1} KiB read in the checkpoint's first 10 ms (at blackout onset) |",
                run.pulse_bytes as f64 / 1024.0
            ),
            format!(
                "| sender resumes | ≈100 ms after the window (TCP backoff) | \
                at t≈{resumed} (the 200 ms min-RTO), full rate by {full} |"
            ),
        ];
        let e9 = self.0.iter().map(|(mib, run)| {
            let blackout = trim(run.checkpoint_ms, 1, 0);
            let back = run.recovery_ms.expect("the stream recovers");
            format!("| {mib} | {blackout} ms | {} ms |", trim(back, 1, 0))
        });
        let e9 = table("| state (MiB) | blackout | stream recovery |", e9);
        vec![table("| feature | paper | measured |", e3), e9]
    }
    fn check(&self) -> Result<(), String> {
        let (run, steady, during) = self.e3();
        let window = run.checkpoint_ms;
        within("the blackout (ms)", window, 100.0..=140.0)?;
        within("the blackout's rate / steady", during / steady, 0.0..=0.2)?;
        ensure!(run.pulse_bytes > 0, "no drain pulse at blackout onset");
        let back = run.recovery_ms.map_or(INF, |t| t - window);
        within("the recovery after the window (ms)", back, 50.0..=150.0)?;
        // TCP's backoff quantizes the recovery: a blackout under the first
        // 200 ms RTO recovers at the same instant, a longer one later.
        let first = self.0[0].1.recovery_ms;
        for (mib, run) in &self.0 {
            let (blackout, rec) = (run.checkpoint_ms, run.recovery_ms);
            ensure!(rec > Some(blackout), "{mib} MiB recovers at {rec:?} ms");
            let quantized = (rec == first) == (blackout < 200.0);
            ensure!(quantized, "{mib} MiB recovers at {rec:?} ms");
        }
        Ok(())
    }
}

/// E4: the compute loop bare and inside a pod, at four syscall densities.
struct Overhead(Vec<(u64, OverheadReport)>);

impl Row for Overhead {
    const IDS: &'static [&'static str] = &["E4"];
    const CLAIM: &'static str = "pod virtualization costs < 0.5 % for compute-bound work";
    fn run() -> Self {
        let loops = [(200, 50_000), (500, 10_000), (2_000, 2_000), (10_000, 200)];
        // The inner loop is ~4 instructions per iteration plus loop overhead.
        let run = |(outer, inner)| (inner * 4 + 6, run_overhead(ComputeConfig { outer, inner }));
        Overhead(loops.map(run).to_vec())
    }
    fn render(&self) -> Vec<String> {
        let rows = self.0.iter().map(|(ips, rep)| {
            let (k, pct) = (trim(*ips as f64 / 1e3, 1, 0), rep.overhead_percent());
            let digits = if pct < 1.0 { 3 } else { 2 };
            format!("| {k} k | {pct:.digits$} % |")
        });
        vec![table("| guest instr / syscall | overhead |", rows)]
    }
    fn check(&self) -> Result<(), String> {
        // Compute-bound work runs tens of thousands of instructions per syscall.
        for (ips, rep) in &self.0 {
            let cap = if *ips >= 40_000 { 0.5 } else { INF };
            within("the overhead (%)", rep.overhead_percent(), 1e-9..=cap)?;
        }
        Ok(())
    }
}

/// E5: checkpoint, crash, and restart onto fresh nodes.
struct Restart(Vec<(usize, (OpReport, OpReport))>);

impl Row for Restart {
    const IDS: &'static [&'static str] = &["E5"];
    const CLAIM: &'static str = "restart performs like checkpoint";
    fn run() -> Self {
        let run = |n| (n, run_restart_sweep(n));
        Restart([2, 4, 8].map(run).to_vec())
    }
    fn render(&self) -> Vec<String> {
        let rows = self.0.iter().map(|(n, (ck, rs))| {
            let [ckl, rsl] = [ck, rs].map(|r| latency(r).as_secs_f64());
            let [cko, rso] = [ck, rs].map(|r| overhead(r).as_micros_f64());
            format!("| {n} | {ckl:.3} s | {rsl:.3} s | {cko:.0} µs | {rso:.0} µs |")
        });
        let header = "| nodes | checkpoint | restart | ckpt overhead | restart overhead |";
        vec![table(header, rows)]
    }
    fn check(&self) -> Result<(), String> {
        for (_, (ck, rs)) in &self.0 {
            let ratio = ms(latency(rs)) / ms(latency(ck));
            within("restart/checkpoint latency", ratio, 0.99..=1.01)?;
            let gap = ms(overhead(rs)) - ms(overhead(ck));
            within("restart − checkpoint overhead (ms)", gap, -0.005..=0.005)?;
        }
        Ok(())
    }
}

const GIGABIT: &str = " (≈ gigabit stream)";

/// E6 + E13: Cruz against the flush-based and message-logging baselines.
struct Compare(Vec<ComparePoint>, Vec<(f64, LoggingReport)>);

impl Row for Compare {
    const IDS: &'static [&'static str] = &["E6", "E13"];
    const CLAIM: &'static str = "O(N) against a flush's O(N²); logging cannot keep up";
    fn run() -> Self {
        let flush = [2, 4, 8, 12, 16].map(|n| run_compare(n, 64 * 1024));
        let log = [1e3, 1e4, 4e4, 8e4].map(|msgs_per_sec| {
            let mean_msg_bytes = 1460;
            let msgs = MessageProfile {
                msgs_per_sec,
                mean_msg_bytes,
            };
            (msgs_per_sec, msgs.evaluate(&LoggingCosts::default()))
        });
        Compare(flush.to_vec(), log.to_vec())
    }
    fn render(&self) -> Vec<String> {
        let e6 = self.0.iter().map(|p| {
            let (n, cruz, flush) = (p.nodes, p.cruz_msgs, p.flush_msgs);
            let (cruz_us, flush_us) = (short(p.cruz_overhead), short(p.flush_overhead));
            format!("| {n} | {cruz} | {cruz_us} | {flush} | {flush_us} |")
        });
        let e13 = self.1.iter().map(|(rate, r)| {
            let gigabit = if *rate < 8e4 { "" } else { GIGABIT };
            let slowdown = match r.utilization {
                u if u >= 1.0 => "log saturated".into(),
                _ => format!("{:.2}×", r.slowdown),
            };
            let (rate, mbps) = (grouped(*rate, 0), r.log_bytes_per_sec / 1e6);
            format!("| {rate}{gigabit} | {mbps:.1} MB/s | {slowdown} |")
        });
        let header = "| nodes | Cruz msgs | Cruz overhead | flush msgs | flush overhead |";
        let e13 = table("| msgs/s | log volume | slowdown |", e13);
        vec![table(header, e6), e13]
    }
    fn check(&self) -> Result<(), String> {
        for p in &self.0 {
            let n = p.nodes as u64;
            ensure!(p.cruz_msgs == 4 * n, "Cruz sent {} at N = {n}", p.cruz_msgs);
            ensure!(p.flush_msgs >= n * (n - 1), "a flush sent {}", p.flush_msgs);
            let ratio = ms(p.flush_overhead) / ms(p.cruz_overhead);
            let floor = if n < 16 { 1.0 } else { 10.0 };
            within("flush/Cruz overhead", ratio, floor..=INF)?;
        }
        let (light, heavy) = (&self.1[0].1, &self.1[3].1);
        within("1 000 msgs/s slowdown", light.slowdown, 1.0..=1.05)?;
        within("80 000 msgs/s log load", heavy.utilization, 1.0..=INF)
    }
}

/// E7 + E10: per-node blocked time under blocking and optimized
/// coordination, without and with COW.
struct Ablation([AblationPoint; 4]);

impl Row for Ablation {
    const IDS: &'static [&'static str] = &["E7", "E10"];
    const CLAIM: &'static str = "Fig. 4 frees fast savers early; COW cuts every blackout";
    fn run() -> Self {
        let modes = [Blocking, Optimized];
        let runs = [false, true].map(|cow| modes.map(|mode| run_ablation(mode, 4, cow)));
        let [[blocking, optimized], [blocking_cow, optimized_cow]] = runs;
        Ablation([blocking, optimized, blocking_cow, optimized_cow])
    }
    fn render(&self) -> Vec<String> {
        let header = "| protocol | node0 blocked | node1 | node2 | node3 |";
        let row = |(label, p): (&&str, &AblationPoint)| {
            let cells = p.blocked.iter().map(|b| format!(" {:.1} ms |", ms(b.1)));
            format!("| {label} |{}", cells.collect::<String>())
        };
        let e7 = ["Blocking (Fig. 2)", "Optimized (Fig. 4)"];
        let e10 = ["Blocking", "Optimized", "Blocking + COW", "Optimized + COW"];
        let [e7, e10] = [&e7[..], &e10].map(|l| table(header, l.iter().zip(&self.0).map(row)));
        vec![e7, e10]
    }
    fn check(&self) -> Result<(), String> {
        let [blocking, optimized, blocking_cow, optimized_cow] = &self.0;
        let node = |p: &AblationPoint, i: usize| ms(p.blocked[i].1);
        let share = |p, q, i| node(p, i) / node(q, i);
        let fig4 = [0, 3].map(|i| share(optimized, blocking, i));
        within("Fig. 4 node-0 share", fig4[0], 0.0..=0.5)?;
        within("Fig. 4 slowest-node share", fig4[1], 0.8..=1.2)?;
        let latency = ms(optimized.latency) / ms(blocking.latency);
        within("Fig. 4 latency share", latency, 0.99..=1.01)?;
        let cow = share(blocking_cow, blocking, 3).max(share(optimized_cow, optimized, 3));
        within("COW slowest-node share", cow, 0.0..=0.25)?;
        within("COW node-0 block (ms)", node(optimized_cow, 0), 0.0..=1.0)
    }
}

/// E8: live-migrate the receiver of a maximum-rate stream; `.1` is the
/// bytes received before the migration and in the 1.2 s after it, `.2`
/// the time to the first byte delivered after it.
struct Migration(usize, [u64; 2], Option<SimDuration>);

impl Row for Migration {
    const IDS: &'static [&'static str] = &["E8"];
    const CLAIM: &'static str = "a migrated pod keeps its TCP connection";
    fn run() -> Self {
        let (spec, _) = streaming_job(10 * MIB);
        let mut w = World::new(4, ClusterParams::default());
        w.launch_job(&spec).expect("launch");
        w.run_for(SimDuration::from_millis(300));
        let (t0, before) = (w.now, received_bytes(&w));
        w.migrate_pod("stream", "receiver", 2).expect("migrate");
        let (mut pause, mut last) = (None, before);
        for step in 1..=600 {
            w.run_for(SimDuration::from_millis(2));
            let now = received_bytes(&w);
            if pause.is_none() && now > last && step > 2 {
                pause = Some(w.now.duration_since(t0));
            }
            last = now;
        }
        let job = w.job("stream").expect("the job runs");
        let node = job.placement("receiver").expect("placed").node;
        Migration(node, [before, last - before], pause)
    }
    fn render(&self) -> Vec<String> {
        let Migration(node, bytes, pause) = self;
        let pause = pause.map_or("none".into(), |d| trim(ms(d), 1, 0) + " ms");
        let [before, after] = bytes.map(|b| grouped(b as f64, 0));
        let rows = [
            format!("| receiver host | node 1 → node {node} |"),
            format!("| delivery pause | {pause} |"),
            format!("| bytes delivered before the migration | {before} |"),
            format!("| bytes delivered in the 1.2 s after it | {after} |"),
        ];
        vec![table("| quantity | measured |", rows)]
    }
    fn check(&self) -> Result<(), String> {
        let Migration(node, bytes, pause) = self;
        let followed = *node == 2 && bytes[1] > 0;
        ensure!(followed, "the stream died with the migration");
        within("the pause (ms)", pause.map_or(INF, ms), 0.0..=600.0)
    }
}

/// E11 + E14: the slm ring on the plain, dedup and dedup+lz stores.
struct Dedup(Vec<DedupRow>);

impl Dedup {
    /// How many times fewer bytes a steady dedup+lz epoch writes than plain.
    fn reduction(&self) -> f64 {
        self.0[0].steady_epoch_bytes as f64 / self.0[2].steady_epoch_bytes.max(1) as f64
    }
}

impl Row for Dedup {
    const IDS: &'static [&'static str] = &["E11", "E14"];
    const CLAIM: &'static str = "saving only what changed writes a fraction of each image";
    fn run() -> Self {
        Dedup(run_dedup_sweep(2, 8 * MIB, 4))
    }
    fn render(&self) -> Vec<String> {
        let reduction = self.reduction();
        let e11 = format!("dedup+lz steady-state write reduction vs plain: **{reduction:.1}×**");
        let rows = self.0.iter().map(|r| {
            let mib = |b: u64| b as f64 / MIB as f64;
            let (first, restart) = (mib(r.first_epoch_bytes), mib(r.restart_bytes));
            let steady = grouped(r.steady_epoch_bytes as f64 / 1024.0, 0);
            let lat = [r.first_latency, r.steady_latency, r.restart_latency];
            let [first_s, steady_s, restart_s] = lat.map(|d| d.as_secs_f64());
            format!(
                "| {} | {first:.2} MiB | {steady} KiB | {first_s:.3} s | {steady_s:.3} s | \
                {restart:.2} MiB | {restart_s:.3} s |",
                r.label
            )
        });
        let header = "| store | first epoch | steady epoch | first lat | steady lat | \
            restart read | restart lat |";
        vec![e11, table(header, rows)]
    }
    fn check(&self) -> Result<(), String> {
        let plain = &self.0[0];
        for r in &self.0 {
            let same = r.image_digest == plain.image_digest;
            ensure!(r.progressed && same, "{}: the restart diverges", r.label);
        }
        let faster = self.0[2].steady_latency < plain.steady_latency;
        ensure!(faster, "dedup+lz checkpoints no faster than plain");
        within("dedup+lz write reduction", self.reduction(), 5.0..=INF)
    }
}

/// E12: coordination overhead against the local save, far past 8 nodes.
struct Scalability(Vec<(usize, OpReport)>);

impl Row for Scalability {
    const IDS: &'static [&'static str] = &["E12"];
    const CLAIM: &'static str = "overhead stays small next to the save at many nodes";
    fn run() -> Self {
        Scalability([8, 16, 32].map(|n| (n, run_scalability(n))).to_vec())
    }
    fn render(&self) -> Vec<String> {
        let rows = self.0.iter().map(|(n, rep)| {
            let (ovh, save) = (overhead(rep), local_save(rep));
            let ratio = ms(ovh) / ms(save) * 100.0;
            format!("| {n} | {} | {} | {ratio:.1} % |", short(ovh), short(save))
        });
        vec![table("| nodes | overhead | local save | ratio |", rows)]
    }
    fn check(&self) -> Result<(), String> {
        let save = ms(local_save(&self.0[0].1));
        for (_, rep) in &self.0 {
            let (ovh, s) = (ms(overhead(rep)), ms(local_save(rep)));
            within("overhead / local save", ovh / s, 0.0..=0.1)?;
            within("the local save / N = 8's", s / save, 0.99..=1.01)?;
        }
        Ok(())
    }
}

/// E15: freeze and copy traffic under stop-the-world, writeback and COW.
struct Cow(Vec<CowRow>);

impl Row for Cow {
    const IDS: &'static [&'static str] = &["E15"];
    const CLAIM: &'static str = "copy-on-write moves the disk out of the freeze";
    fn run() -> Self {
        Cow(run_cow_sweep(2, 8 * MIB, 5))
    }
    fn render(&self) -> Vec<String> {
        let freeze = |d: SimDuration| match ms(d) {
            x if x < 1.0 => format!("{x:.3} ms"),
            x if x < 10.0 => format!("{x:.2} ms"),
            x => format!("{} ms", grouped(x, 1)),
        };
        let labels = ["stop-the-world", "stw + §5.2 writeback", "cow"];
        let rows = labels.iter().zip(&self.0).map(|(label, r)| {
            let (p50, p99) = (freeze(r.p50_freeze()), freeze(r.p99_freeze()));
            let latency = r.mean_epoch_latency().as_secs_f64();
            let copies = match r.extra_copy_bytes {
                0 => "0".into(),
                b => grouped(b as f64 / 1024.0, 0) + " KiB",
            };
            format!("| {label} | {p50} | {p99} | {latency:.3} s | {copies} |")
        });
        let header = "| capture | p50 freeze | p99 freeze | epoch latency | extra copies |";
        vec![table(header, rows)]
    }
    fn check(&self) -> Result<(), String> {
        let [stw, wb, cow] = [0, 1, 2].map(|i| &self.0[i]);
        let speedup = ms(stw.p50_freeze()) / ms(cow.p50_freeze()).max(1e-9);
        within("COW's p50 freeze reduction", speedup, 5.0..=INF)?;
        let ladder = cow.p50_freeze() <= wb.p50_freeze() && wb.p50_freeze() < stw.p50_freeze();
        ensure!(ladder, "the freezes do not shrink stw > writeback ≥ cow");
        let same = [wb, cow].iter().all(|r| r.image_digest == stw.image_digest);
        ensure!(same, "the capture modes' images diverge");
        let copies = (stw.extra_copy_bytes, cow.extra_copy_bytes);
        ensure!(copies.0 == 0 && copies.1 > 0, "pre-image copies {copies:?}");
        Ok(())
    }
}

/// E16: detection and repair time against the heartbeat interval.
struct Recovery(Vec<RecoveryRow>);

impl Row for Recovery {
    const IDS: &'static [&'static str] = &["E16"];
    const CLAIM: &'static str = "a crash is detected within a heartbeat round, rolled back";
    fn run() -> Self {
        let intervals = [5, 20, 80].map(SimDuration::from_millis);
        Recovery(run_recovery_sweep(&intervals, 7))
    }
    fn render(&self) -> Vec<String> {
        let rows = self.0.iter().map(|r| {
            let [hb, to] = [r.heartbeat_interval, r.heartbeat_timeout].map(|d| trim(ms(d), 1, 0));
            let [detect, mttr] = [r.detection, r.mttr].map(ms);
            format!("| {hb} ms | {to} ms | {detect:.2} ms | {mttr:.2} ms |")
        });
        let header = "| heartbeat interval | timeout | detection latency | MTTR |";
        vec![table(header, rows)]
    }
    fn check(&self) -> Result<(), String> {
        for w in self.0.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let monotone = a.detection <= b.detection && a.mttr <= b.mttr;
            ensure!(monotone, "recovery is faster at {}", b.heartbeat_interval);
            let same = (a.image_digest, a.rollback_epoch) == (b.image_digest, b.rollback_epoch);
            ensure!(same, "the rollback diverges at {}", b.heartbeat_interval);
        }
        for r in &self.0 {
            let round = r.heartbeat_interval + r.heartbeat_timeout + SimDuration::from_millis(1);
            let bounded = r.detection <= round && r.detection <= r.mttr;
            ensure!(bounded, "detection takes {}", r.detection);
        }
        Ok(())
    }
}

/// E19: k−1 of k replica stores killed mid-checkpoint.
struct Replication(Vec<ReplicationRow>);

impl Replication {
    /// Stored bytes against the unreplicated store's.
    fn amplification(&self, r: &ReplicationRow) -> f64 {
        r.stored_bytes as f64 / self.0[0].stored_bytes as f64
    }
}

impl Row for Replication {
    const IDS: &'static [&'static str] = &["E19"];
    const CLAIM: &'static str = "a job heals with k−1 of k stores lost, at ≈2k storage";
    fn run() -> Self {
        Replication(run_replication_sweep(&[1, 2, 3, 5], 7))
    }
    fn render(&self) -> Vec<String> {
        // A point that does not heal panics in the run, so each row restored.
        let rows = self.0.iter().map(|r| {
            let (k, killed, scrubbed) = (r.k, r.replicas_killed, r.scrubbed);
            let [detect, mttr] = [r.detection, r.mttr].map(ms);
            let (stored, amp) = (grouped(r.stored_bytes as f64, 0), self.amplification(r));
            format!(
                "| {k} | {killed} | ok | {detect:.3} ms | {mttr:.3} ms | {scrubbed} | \
                {stored} | {amp:.3}× |"
            )
        });
        let header = "| k | replicas killed | restore | detect | MTTR | scrubbed | \
            stored bytes | write amp vs k=1 |";
        vec![table(header, rows)]
    }
    fn check(&self) -> Result<(), String> {
        for r in &self.0 {
            let k = r.k;
            let same = r.image_digest == self.0[0].image_digest;
            let healed = r.replicas_killed == k - 1 && same;
            ensure!(healed, "k = {k} did not heal to the same images");
            // Each replica costs a store tree plus an operation log that the
            // post-heal compaction shrinks to about one tree's bytes: ≈2k.
            // Above 2.2k, compaction stopped firing.
            let floor = if k == 1 { 1.0 } else { 1.9 };
            let per_replica = self.amplification(r) / k as f64;
            within("amplification per replica", per_replica, floor..=2.2)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_render_as_the_tables_write_them() {
        assert_eq!(trim(0.0, 4, 3), "0.000");
        assert_eq!(trim(0.0005, 4, 3), "0.0005");
        assert_eq!(trim(117.0, 1, 0), "117");
        assert_eq!(trim(227.5, 1, 0), "227.5");
        assert_eq!(grouped(1016.4, 1), "1 016.4");
        assert_eq!(grouped(178_604.0, 0), "178 604");
        assert_eq!(grouped(415.0, 0), "415");
        assert_eq!(short(SimDuration::from_nanos(725_800)), "726 µs");
        assert_eq!(short(SimDuration::from_nanos(1_845_400)), "1.85 ms");
        assert_eq!(short(SimDuration::from_micros(16_200)), "16.2 ms");
        assert_eq!(short(SimDuration::from_micros(117_000)), "117 ms");
    }

    /// The first table of section `id`, as `EXPERIMENTS.md` has it.
    fn first_table(id: &str) -> (usize, String) {
        let head = PINS
            .lines()
            .position(|l| l.starts_with(&format!("## {id} ")));
        let mut lines = PINS.lines().enumerate().skip(head.expect("section") + 1);
        let (at, _) = lines.find(|(_, l)| l.starts_with('|')).expect("a table");
        let rows = PINS.lines().skip(at).take_while(|l| l.starts_with('|'));
        (at + 1, rows.collect::<Vec<_>>().join("\n"))
    }

    #[test]
    fn a_pinned_block_is_a_whole_paragraph_of_its_section() {
        let (line, e4) = first_table("E4");
        assert_eq!(pinned("E4", &e4), Ok(()));
        assert!(pinned("E3", &e4).is_err(), "another section's table");
        let (head, _) = e4.rsplit_once('\n').expect("rows");
        let err = pinned("E4", head).expect_err("a table missing its last row");
        assert!(
            err.contains("measured: \n") || err.ends_with("measured: "),
            "{err}"
        );
        let edited = e4.replacen(" %", "1 %", 2);
        let err = pinned("E4", &edited).expect_err("an edited cell");
        assert!(
            err.starts_with(&format!("EXPERIMENTS.md:{} ", line + 2)),
            "{err}"
        );
    }
}
