//! The run: set-up repeats, the closed load loop, and turning what a run
//! recorded into the metrics of `metrics.rs`.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use galo_core::{KnowledgeBase, ServingTier};

use crate::calls::{Calls, Counters};
use crate::metrics::Values;
use crate::stats::{median, Samples, Sorted, Windows};
use crate::trace::{roots, self_times, Span, Tracer};
use crate::workloads::Tally;

/// Set-ups per measured run at least; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// A run repeats a set-up beyond [`SETUPS`], up to [`SETUPS_MAX`]
/// times, until the set-ups together took this long, so that a set-up of
/// a tenth of a second is still timed over seconds: its time moves
/// between two levels about 1.4× apart every second or so.
const SETUP_SPAN_S: f64 = 3.0;
const SETUPS_MAX: usize = 40;
/// Spans a traced run keeps at most.
pub const SPAN_CAP: usize = 400_000;
/// Spans after which a traced run's load loop stops tracing, leaving
/// room for the oracles' spans.
const LOOP_SPAN_CAP: usize = SPAN_CAP * 3 / 4;
/// Time windows per measured run (see [`Windows::median`]).
pub const WINDOWS: f64 = 20.0;
/// Samples a window needs for its median to count.
const WINDOW_MIN: u64 = 20;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Private scratch directory for durable knowledge bases, inside the
    /// checkout; removed when the run ends.
    pub scratch: PathBuf,
    pub tracer: Tracer,
    /// The load loop's current time window.
    window: Cell<usize>,
}

/// What one workload run recorded.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Vec<f64>,
    /// Operation latencies with tracing off, by window.
    pub op: Windows,
    /// Latencies of the operations a traced run traced.
    pub op_traced: Samples,
    /// Serve latencies, by window.
    pub serve: Windows,
    pub reopen_ms: Vec<f64>,
    pub disk_bytes_per_tpl: f64,
    /// Rewrite quality on the reference queries (see
    /// [`crate::workloads::judge_reference`]).
    pub quality: Tally,
    /// Per-layer values only the workload can read (storage counters).
    pub layer: Values,
    /// Workload characterization, printed with every run.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }
}

/// Outcome of one operation.
pub enum Step {
    Done,
    Failed(String),
    /// The input stream is exhausted.
    Stop,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, traced: bool, scratch: PathBuf) -> Self {
        Ctx {
            seed,
            seconds,
            traced,
            scratch,
            tracer: Tracer::new(traced, SPAN_CAP),
            window: Cell::new(0),
        }
    }

    /// The load loop's current time window.
    pub fn window(&self) -> usize {
        self.window.get()
    }

    /// A fresh directory under the run's scratch directory.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.scratch.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Run `setup` [`SETUPS`] times or more (see [`SETUP_SPAN_S`]; once
    /// when traced), timing each, and keep the last result.
    pub fn setup<T>(
        &self,
        out: &mut Outcome,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let (min, max) = if self.traced {
            (1, 1)
        } else {
            (SETUPS, SETUPS_MAX)
        };
        let mut last = None;
        while out.setup_s.len() < min
            || (out.setup_s.len() < max && out.setup_s.iter().sum::<f64>() < SETUP_SPAN_S)
        {
            // Drop the previous result first so set-ups do not overlap.
            drop(last.take());
            let t0 = Instant::now();
            let v = self.tracer.span("bench.setup", &mut setup)?;
            out.setup_s.push(t0.elapsed().as_secs_f64());
            last = Some(v);
        }
        Ok(last.expect("at least one set-up"))
    }

    /// The closed load loop: one caller, each operation issued when the
    /// previous one returned, for `--seconds`. A traced run traces every
    /// other operation, so traced and untraced operations see the same
    /// inputs and the same warmth, and their medians give the tracing
    /// overhead; once the span buffer is three-quarters full it traces
    /// no more.
    pub fn measure(&self, calls: &Calls, out: &mut Outcome, op: impl FnMut(u64) -> Step) {
        self.measure_between(calls, out, op, |_| {});
    }

    /// [`Ctx::measure`], also calling `between` once with each window's
    /// index, when the window starts, outside the timed operations, so
    /// that a slower measurement can be spread over the whole run. When a
    /// call outlasts a window, the next window's call follows at once, so
    /// every run makes one call per window.
    pub fn measure_between(
        &self,
        calls: &Calls,
        out: &mut Outcome,
        mut op: impl FnMut(u64) -> Step,
        mut between: impl FnMut(usize),
    ) {
        let start = Instant::now();
        let window_s = self.seconds / WINDOWS;
        let mut lat = Windows::default();
        let mut traced = Samples::default();
        let mut i = 0u64;
        let mut due = 0;
        loop {
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= self.seconds {
                break;
            }
            self.window.set((elapsed / window_s) as usize);
            while due <= self.window() {
                self.tracer.set_enabled(self.traced);
                between(due);
                due += 1;
            }
            let trace_this =
                self.traced && i.is_multiple_of(2) && self.tracer.len() < LOOP_SPAN_CAP;
            self.tracer.set_enabled(trace_this);
            self.tracer.set_op(i);
            let replay0 = calls.ctr.borrow().replay_total_ns;
            let t0 = Instant::now();
            let step = self.tracer.span("bench.op", || op(i));
            let ns = t0.elapsed().as_nanos() as u64;
            // Replays are attribution the benchmark adds, not the op's.
            let ns = ns.saturating_sub(calls.ctr.borrow().replay_total_ns - replay0);
            match step {
                Step::Done => {}
                Step::Failed(why) => {
                    out.failed += 1;
                    if out.failed <= 5 {
                        eprintln!("op {i} failed: {why}");
                    }
                }
                Step::Stop => break,
            }
            out.attempted += 1;
            if trace_this {
                traced.push(ns);
            } else {
                lat.push(self.window(), ns);
            }
            i += 1;
        }
        out.op = lat;
        out.op_traced = traced;
        self.tracer.set_enabled(self.traced);
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of all files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Storage counters of a durable knowledge base, as per-layer values.
pub fn storage_layer(kb: &KnowledgeBase, dir: &Path, writes: u64, out: &mut Outcome) {
    let pressures = kb.storage_pressures();
    let wal_bytes: u64 = pressures.iter().map(|p| p.wal_bytes).sum();
    let wal_records: u64 = pressures.iter().map(|p| p.wal_records).sum();
    let failed: u64 = pressures.iter().map(|p| p.compactions_failed).sum();
    out.layer.insert(
        "persist.wal_bytes_per_write",
        if writes == 0 {
            0.0
        } else {
            wal_bytes as f64 / writes as f64
        },
    );
    out.layer
        .insert("persist.wal_records_at_close", wal_records as f64);
    out.layer
        .insert("persist.disk_bytes", dir_bytes(dir) as f64);
    let triples: Vec<f64> = kb
        .shard_stats()
        .unwrap_or_default()
        .iter()
        .map(|s| s.triples as f64)
        .collect();
    let mean = triples.iter().sum::<f64>() / triples.len().max(1) as f64;
    let max = triples.iter().copied().fold(0.0, f64::max);
    out.layer.insert(
        "shard.triples_max_over_mean",
        if mean > 0.0 { max / mean } else { 0.0 },
    );
    let (folds, compactor_failed) = kb
        .compactor_stats()
        .map_or((0, 0), |s| (s.compacted(), s.failed()));
    out.layer.insert("policy.folds", folds as f64);
    out.layer
        .insert("policy.folds_failed", (compactor_failed + failed) as f64);
}

/// Cache counters of the serving tiers.
pub fn cache_layer(tiers: &[&ServingTier], out: &mut Outcome) {
    let (mut stale, mut evictions) = (0, 0);
    for t in tiers {
        let c = t.cache().counters();
        stale += c.stale_drops;
        evictions += c.evictions;
    }
    out.layer.insert("serving.stale_drops", stale as f64);
    out.layer.insert("serving.evictions", evictions as f64);
}

/// The end-to-end metrics of a run without tracing.
pub fn end_to_end(out: &Outcome, c: &Counters) -> Values {
    let mut v = Values::new();
    v.insert("setup_s", median(&out.setup_s));
    v.insert("op_p50_us", out.op.median(WINDOW_MIN, Sorted::p50) / 1e3);
    v.insert("ops_s", out.op.median(WINDOW_MIN, |s| 1e9 / s.mean()));
    v.insert(
        "serve_p50_us",
        out.serve.median(WINDOW_MIN, Sorted::p50) / 1e3,
    );
    v.insert("learn_subq_s", learn_rate(c));
    v.insert("reopen_ms", median(&out.reopen_ms));
    v.insert("disk_bytes_per_tpl", out.disk_bytes_per_tpl);
    let n = out.quality.n.max(1) as f64;
    v.insert("improved_frac", out.quality.improved as f64 / n);
    v.insert("regressed_frac", out.quality.regressed as f64 / n);
    v.insert("peak_rss_mb", peak_rss_mb());
    v.insert(
        "ok_frac",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    v
}

/// Unique sub-queries analysed per wall second of learning, per
/// learning round (both workloads, one after the other); the median
/// over the rounds.
fn learn_rate(c: &Counters) -> f64 {
    let rates: Vec<f64> = c
        .learned
        .chunks(2)
        .map(|round| {
            let unique: usize = round.iter().map(|(_, _, r)| r.subqueries_unique).sum();
            let secs: f64 = round.iter().map(|(_, s, _)| s).sum();
            unique as f64 / secs.max(1e-9)
        })
        .collect();
    median(&rates)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The per-layer metrics of a traced run.
pub fn per_layer(out: &Outcome, c: &Counters, spans: &[Span]) -> Values {
    let mut by_name: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        by_name.entry(s.name).or_default().push(s.duration_ns());
    }
    let sorted = |name: &str| Sorted::from_ns(by_name.get(name).cloned().unwrap_or_default());
    let mut v = Values::new();
    let mut lat =
        |key_p50: &'static str, key_tail: Option<&'static str>, span: &str, unit_ns: f64| {
            let s = sorted(span);
            v.insert(key_p50, s.p50() / unit_ns);
            if let Some(k) = key_tail {
                v.insert(k, s.tail().1 / unit_ns);
            }
        };
    lat(
        "sql.parse_us_p50",
        Some("sql.parse_us_p99"),
        "sql.parse",
        1e3,
    );
    lat(
        "optimizer.plan_ms_p50",
        Some("optimizer.plan_ms_p99"),
        "optimizer.plan",
        1e6,
    );
    lat(
        "optimizer.replan_ms_p50",
        Some("optimizer.replan_ms_p99"),
        "optimizer.replan",
        1e6,
    );
    lat(
        "executor.sim_us_p50",
        Some("executor.sim_us_p99"),
        "executor.sim",
        1e3,
    );
    lat(
        "serving.hit_us_p50",
        Some("serving.hit_us_p99"),
        "serving.hit",
        1e3,
    );
    lat(
        "serving.miss_us_p50",
        Some("serving.miss_us_p99"),
        "serving.miss",
        1e3,
    );
    lat(
        "matching.fingerprint_us_p50",
        None,
        "matching.fingerprint",
        1e3,
    );
    lat(
        "matching.compile_us_p50",
        Some("matching.compile_us_p99"),
        "matching.compile",
        1e3,
    );
    lat(
        "matching.match_us_p50",
        Some("matching.match_us_p99"),
        "matching.match",
        1e3,
    );
    lat(
        "kb.insert_us_p50",
        Some("kb.insert_us_p99"),
        "kb.insert",
        1e3,
    );
    lat(
        "kb.remove_us_p50",
        Some("kb.remove_us_p99"),
        "kb.remove",
        1e3,
    );
    lat("persist.reopen_ms_p50", None, "persist.reopen", 1e6);
    lat("policy.compact_ms", None, "policy.compact", 1e6);

    // Self time per layer, as a share of the measured operations' wall
    // time (the trees under `bench.op`).
    let selfs = self_times(spans);
    let root = roots(spans);
    let mut layer_self: BTreeMap<&str, u64> = BTreeMap::new();
    let mut op_wall = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if spans[root[i]].name != "bench.op" {
            continue;
        }
        if s.parent.is_none() {
            op_wall += s.duration_ns();
        }
        *layer_self.entry(s.layer()).or_default() += selfs[i];
    }
    for (layer, key) in [
        ("sql", "sql.self_share"),
        ("optimizer", "optimizer.self_share"),
        ("executor", "executor.self_share"),
        ("serving", "serving.self_share"),
        ("kb", "kb.self_share"),
        ("persist", "persist.self_share"),
        ("policy", "policy.self_share"),
        ("learning", "learning.self_share"),
        ("bench", "bench.self_share"),
    ] {
        v.insert(
            key,
            ratio(layer_self.get(layer).copied().unwrap_or(0), op_wall),
        );
    }

    v.insert(
        "optimizer.guidelines_honored_frac",
        ratio(c.honored, c.guidelines),
    );
    let machine_ms: f64 = c
        .learned
        .iter()
        .map(|(_, _, r)| r.simulated_machine_ms)
        .sum();
    v.insert("executor.sim_machine_min", machine_ms / 60_000.0);

    v.insert("serving.hit_frac", ratio(c.hits, c.serves));
    v.insert("serving.unvalidated_frac", ratio(c.unvalidated, c.serves));
    v.insert(
        "matching.probes_per_miss",
        ratio(c.probes_executed, c.misses),
    );
    v.insert("matching.pruned_per_miss", ratio(c.probes_pruned, c.misses));
    v.insert(
        "matching.reused_frac",
        ratio(c.probes_reused, c.replay_segments),
    );
    v.insert(
        "matching.rewrites_per_probe",
        ratio(c.rewrites_on_miss, c.probes_executed),
    );
    v.insert("matching.miss_coverage", ratio(c.replay_ns, c.miss_ns));
    v.insert(
        "admission.considered_per_miss",
        ratio(c.considered, c.misses),
    );
    v.insert(
        "admission.reject_card_frac",
        ratio(c.rejects_card, c.considered),
    );
    v.insert(
        "admission.reject_scan_frac",
        ratio(c.rejects_scan, c.considered),
    );

    let learn_s = |src: &str| -> f64 {
        c.learned
            .iter()
            .filter(|(s, _, _)| s.name() == src)
            .map(|(_, secs, _)| secs)
            .sum()
    };
    v.insert("learning.tpcds_s", learn_s("tpcds"));
    v.insert("learning.client_s", learn_s("client"));
    let subq: Vec<u64> = c
        .learned
        .iter()
        .flat_map(|(_, _, r)| r.per_subquery_ms.iter().map(|ms| (ms * 1e6) as u64))
        .collect();
    let subq = Sorted::from_ns(subq);
    v.insert("learning.subq_ms_p50", subq.p50() / 1e6);
    v.insert("learning.subq_ms_p99", subq.tail().1 / 1e6);
    let total: usize = c.learned.iter().map(|(_, _, r)| r.subqueries_total).sum();
    let unique: usize = c.learned.iter().map(|(_, _, r)| r.subqueries_unique).sum();
    let templates: usize = c.learned.iter().map(|(_, _, r)| r.templates_learned).sum();
    v.insert("learning.unique_frac", ratio(unique as u64, total as u64));
    v.insert(
        "learning.template_yield",
        ratio(templates as u64, unique as u64),
    );
    v.insert("learning.templates", templates as f64);

    v.insert("bench.op_us_p99", out.op.all().tail().1 / 1e3);
    let untraced = out.op.all().p50();
    let traced = out.op_traced.sorted().p50();
    v.insert(
        "trace.overhead_frac",
        if untraced > 0.0 {
            traced / untraced - 1.0
        } else {
            0.0
        },
    );
    for (k, x) in &out.layer {
        v.insert(k, *x);
    }
    // Storage counters a workload without a compactor never set.
    for key in [
        "persist.wal_bytes_per_write",
        "persist.wal_records_at_close",
        "persist.disk_bytes",
        "shard.triples_max_over_mean",
        "policy.folds",
        "policy.folds_failed",
        "serving.stale_drops",
        "serving.evictions",
    ] {
        v.entry(key).or_insert(0.0);
    }
    v
}
