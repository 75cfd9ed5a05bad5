//! The metrics the ledger declares, and how each is computed from a run.
//!
//! `BENCHMARK.json` lists the same names, units, directions and bounds; a
//! test keeps the two in step.

use std::collections::BTreeMap;

use crate::replay::Replay;
use crate::run::Samples;
use crate::stats::{highest_supported_percentile, median, quartiles};

/// A declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: &[Decl] = &[
    // Wall times in `ref` units: each phase's wall time over the reference
    // kernel's, timed around it (see `reference`). On a shared host, raw wall
    // times of identical runs drift by up to half; these do not.
    e2e("cycle_cost_p50", "ref", "lower", 0.25),
    e2e("exec_sim_ms_per_ref", "sim_ms/ref", "higher", 0.25),
    e2e("ckpt_cost_p50", "ref", "lower", 0.25),
    e2e("restart_cost_p50", "ref", "lower", 0.25),
    // Raw wall seconds, so its bound sits at the ceiling.
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
    e2e("stored_bytes_per_image_byte", "ratio", "lower", 0.05),
    // Simulated time: deterministic for a configuration, so identical run
    // to run (the paper's numbers, which must not drift).
    e2e("sim_ckpt_latency_ms", "sim_ms", "lower", 0.05),
    e2e("sim_coord_overhead_us", "sim_us", "lower", 0.05),
    e2e("sim_freeze_ms_p50", "sim_ms", "lower", 0.05),
    e2e("sim_restart_latency_ms", "sim_ms", "lower", 0.05),
];

/// Single layers; measured by the traced run and its layer replay.
pub const PER_LAYER: &[Decl] = &[
    layer("zap.encode_mb_per_s", "MB/s", "higher"),
    layer("zap.decode_mb_per_s", "MB/s", "higher"),
    layer("store.put_mb_per_s", "MB/s", "higher"),
    layer("store.get_mb_per_s", "MB/s", "higher"),
    layer("chunk.id_mb_per_s", "MB/s", "higher"),
    layer("chunk.encode_mb_per_s", "MB/s", "higher"),
    layer("chunk.decode_mb_per_s", "MB/s", "higher"),
    layer("store.prepare_mb_per_s", "MB/s", "higher"),
    layer("store.prepare_hinted_mb_per_s", "MB/s", "higher"),
    layer("pagecache.hit_ratio", "ratio", "higher"),
    layer("store.novel_ratio", "ratio", "lower"),
    layer("replog.put_mb_per_s", "MB/s", "higher"),
    layer("replog.get_mb_per_s", "MB/s", "higher"),
    layer("replog.write_amp", "ratio", "lower"),
    layer("drain.cow_copied_bytes", "bytes", "lower"),
    layer("simcpu.instr_per_s", "1/s", "higher"),
    layer("des.events", "count", "lower"),
    layer("des.events_per_s", "1/s", "higher"),
    layer("simnet.tcp_mb_per_s", "MB/s", "higher"),
    layer("cluster.exec_share", "ratio", "higher"),
    layer("cluster.ckpt_share", "ratio", "lower"),
    layer("cluster.restart_share", "ratio", "lower"),
    layer("trace.run_wall_s", "s", "lower"),
    layer("trace.untraced_run_wall_s", "s", "lower"),
    layer("host.ref_ms_p50", "ms", "lower"),
];

/// Metric values of one run, with a line per metric saying how it was
/// formed (sample count, spread, base of a ratio).
#[derive(Debug, Default)]
pub struct Values {
    pub values: BTreeMap<&'static str, f64>,
    pub details: Vec<String>,
}

impl Values {
    fn put(&mut self, name: &'static str, value: f64, detail: String) {
        self.values.insert(name, value);
        self.details.push(format!("{name}: {detail}"));
    }

    /// The median of `xs / scale`, with its sample count, quartiles and
    /// the highest percentile the count supports.
    fn timing(&mut self, name: &'static str, xs: &[f64], scale: f64) {
        let scaled: Vec<f64> = xs.iter().map(|x| x / scale).collect();
        let tail = match highest_supported_percentile(scaled.len()) {
            Some(p) => format!("p{p} is the highest percentile with >=10 samples beyond it"),
            None => "no percentile has >=10 samples beyond it".to_string(),
        };
        let iqr =
            quartiles(&scaled).map_or(String::new(), |(q1, q3)| format!(", q1 {q1}, q3 {q3}"));
        self.put(
            name,
            median(&scaled).unwrap_or(f64::NAN),
            format!("median of n={}{iqr}; {tail}", scaled.len()),
        );
    }

    /// The raw wall times behind the `ref` units, for the detail report.
    fn wall(&mut self, s: &Samples) {
        let ms = |xs: &[f64]| median(xs).map_or(f64::NAN, |m| m / 1e6);
        self.details.push(format!(
            "wall medians: cycle {} ms, checkpoint {} ms, rollback {} ms, reference {} ms; \
             running: {} simulated s per wall s",
            ms(&s.cycle_ns),
            ms(&s.ckpt_ns),
            ms(&s.restart_ns),
            ms(&s.ref_ns),
            s.exec_sim_ns as f64 / s.exec_wall_ns as f64,
        ));
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(s: &Samples, setup_s: &[f64], peak_rss_mb: f64) -> Values {
    let mut v = Values::default();
    v.timing("cycle_cost_p50", &s.cycle_cost, 1.0);
    // A ratio of totals, not a median of per-run ratios: the stream's runs
    // alternate between two gaps of different content, and a median would
    // flip between the two kinds from one run to the next.
    v.put(
        "exec_sim_ms_per_ref",
        s.exec_sim_ns as f64 / 1e6 / s.exec_cost,
        format!(
            "{} simulated ns over {} ref of running ({} wall ns)",
            s.exec_sim_ns, s.exec_cost, s.exec_wall_ns
        ),
    );
    v.timing("ckpt_cost_p50", &s.ckpt_cost, 1.0);
    v.timing("restart_cost_p50", &s.restart_cost, 1.0);
    v.wall(s);
    v.timing("setup_s", setup_s, 1.0);
    v.put("peak_rss_mb", peak_rss_mb, "VmHWM at exit".into());
    v.timing("stored_bytes_per_image_byte", &s.stored_ratio, 1.0);
    v.timing("sim_ckpt_latency_ms", &s.sim_ckpt_ns, 1e6);
    v.timing("sim_coord_overhead_us", &s.sim_overhead_ns, 1e3);
    v.timing("sim_freeze_ms_p50", &s.sim_freeze_ns, 1e6);
    v.timing("sim_restart_latency_ms", &s.sim_restart_ns, 1e6);
    v
}

/// The per-layer metrics of a traced run: the traced stretch `s`, the
/// untraced stretch before it (for the tracing overhead), span self times
/// and the layer replay.
pub fn per_layer(
    s: &Samples,
    untraced: &Samples,
    self_ns: &BTreeMap<&'static str, u64>,
    replay: &Replay,
) -> Values {
    let mut v = Values {
        values: replay.metrics.clone(),
        details: replay.notes.clone(),
    };
    let n = s.cow_copied.len().max(1) as f64;
    v.put(
        "drain.cow_copied_bytes",
        s.cow_copied.iter().sum::<f64>() / n,
        format!("mean over {} checkpoints", s.cow_copied.len()),
    );
    let exec_s = s.exec_wall_ns as f64 / 1e9;
    v.put(
        "des.events",
        s.exec_events as f64,
        format!("events in {exec_s} wall s of execution"),
    );
    v.put(
        "des.events_per_s",
        s.exec_events as f64 / exec_s,
        format!("{} events / {exec_s} s", s.exec_events),
    );
    v.put(
        "simnet.tcp_mb_per_s",
        s.tcp_bytes as f64 / exec_s / 1e6,
        format!("{} guest TCP bytes / {exec_s} s", s.tcp_bytes),
    );
    let phases: u64 = ["exec", "ckpt", "restart"]
        .iter()
        .map(|p| self_ns.get(p).copied().unwrap_or(0))
        .sum();
    for (phase, name) in [
        ("exec", "cluster.exec_share"),
        ("ckpt", "cluster.ckpt_share"),
        ("restart", "cluster.restart_share"),
    ] {
        let ns = self_ns.get(phase).copied().unwrap_or(0);
        v.put(
            name,
            ns as f64 / phases.max(1) as f64,
            format!("{ns} of {phases} self ns"),
        );
    }
    v.timing("trace.run_wall_s", &s.cycle_ns, 1e9);
    v.timing("trace.untraced_run_wall_s", &untraced.cycle_ns, 1e9);
    v.timing("host.ref_ms_p50", &s.ref_ns, 1e6);
    v.wall(s);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_stay_in_the_allowed_alphabet() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                d.unit
            );
            assert!(matches!(d.better, "higher" | "lower"));
        }
        for d in END_TO_END {
            assert!(d.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", d.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s declared");
        assert!(
            END_TO_END.iter().all(|d| d.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(valid_name("a.b-c_1") && !valid_name("bad name") && !valid_name(".x"));
    }
}
