//! `reopt_sql`: the paper's online tier as a user sees it.
//!
//! Each operation takes one query as SQL text through `parse` →
//! `optimize` → `ServingTier::serve` → `optimize_with_guidelines` (when
//! rewrites matched) → `Simulator::run` of the original and final plans.
//! The knowledge base is learned from both workloads in set-up, made
//! durable and reopened. The stream is passes over the same queries, the
//! 215 base queries plus fresh variants, each pass in a new order.

use std::collections::HashMap;

use galo_core::{plan_fingerprint, Galo, MatchReport, ServingTier};
use galo_qgm::Qgm;
use galo_workloads::Workload;

use super::{
    disk_per_template, durability_probe, judge, learn_all, parse_workloads, reopen, self_template,
    Engines, PoolPlan, Tally, REFERENCE_TABLES,
};
use crate::bench::{cache_layer, Ctx, Outcome, Step};
use crate::calls::{rewrite_key, Calls};
use crate::inputs::{self, GenQuery, Schemas, Source};
use crate::stats::Windows;

/// Passes generated (the load loop stops at `--seconds` long before).
const PASSES: usize = 12;
/// Fresh variants beside the 215 base queries.
const VARIANTS: usize = 400;
/// Reopens per set-up.
const REOPENS: usize = 10;

struct Setup {
    passes: Vec<Vec<GenQuery>>,
    galo: Galo,
    dir: std::path::PathBuf,
}

/// What one operation produced, kept for the oracles.
struct Record {
    item: usize,
    original_fp: u64,
    report: MatchReport,
    final_plan: Option<Qgm>,
    original_ms: f64,
    final_ms: f64,
}

pub fn run(ctx: &Ctx, calls: &Calls, s: &Schemas, out: &mut Outcome) -> Result<(), String> {
    let eng = Engines::new(s);
    let mut reopen_ms = Vec::new();
    let setup = ctx.setup(out, || {
        let passes = inputs::reopt_passes(s, ctx.seed, PASSES, VARIANTS);
        let base = s.base();
        let workloads = parse_workloads(calls, s, &base.iter().collect::<Vec<_>>())?;
        let dir = ctx.fresh_dir("reopt_sql")?;
        let galo = calls.open_kb(&dir, false)?;
        learn_all(calls, &galo, &workloads);
        calls.compact(&galo.kb)?;
        let galo = reopen(calls, galo, &dir, false, REOPENS, &mut reopen_ms)?;
        Ok(Setup { passes, galo, dir })
    })?;
    out.reopen_ms = reopen_ms;
    out.disk_bytes_per_tpl = disk_per_template(&setup.galo, &setup.dir);
    let Setup { passes, galo, dir } = setup;
    let pass_len = passes[0].len();
    let stream: Vec<&GenQuery> = passes.iter().flatten().collect();

    let tiers =
        Source::ALL.map(|src| ServingTier::new(s.db(src), &galo.kb, galo.match_cfg.clone()));
    let mut records: Vec<Record> = Vec::new();
    let mut serve_ns = Windows::default();
    ctx.measure(calls, out, |i| {
        let i = i as usize;
        let Some(g) = stream.get(i) else {
            return Step::Stop;
        };
        match reoptimize(calls, s, &eng, &galo, &tiers, i, g) {
            Ok((r, ns)) => {
                serve_ns.push(ctx.window(), ns);
                records.push(r);
                Step::Done
            }
            Err(e) => Step::Failed(e),
        }
    });
    out.serve = serve_ns;

    let streamed = ctx.tracer.span("bench.verify", || {
        verify(calls, s, &galo, &stream, &records, out)
    })?;
    cache_layer(&[&tiers[0], &tiers[1]], out);
    drop(tiers);

    let reached = (out.attempted as usize).min(stream.len());
    let histogram = table_histogram(&stream[..reached]);
    out.note(format!(
        "reopt_sql: {} ops in {} whole passes of {pass_len} (215 base + {VARIANTS} variants); \
         distinct queries streamed: {streamed}; reference queries: {}; \
         table-count histogram {histogram}; KB {} templates; hit share {:.3}; writes 0",
        records.len(),
        records.len() / pass_len,
        out.quality,
        galo.kb.template_count(),
        {
            let c = calls.ctr.borrow();
            c.hits as f64 / c.serves.max(1) as f64
        },
    ));
    // Write-path oracle: publish and retract through the durable store.
    let probe: Vec<_> = stream
        .iter()
        .take(32)
        .enumerate()
        .filter_map(|(i, g)| {
            let db = s.db(g.source);
            let q = galo_sql::parse(db, &g.name, &g.sql).ok()?;
            let plan = eng.opt[g.source.index()].optimize(&q).ok()?;
            let p = PoolPlan {
                gen: (*g).clone(),
                query: q,
                fingerprint: plan_fingerprint(db, &plan, &galo.match_cfg),
                plan,
            };
            self_template(s, &p, format!("probe{i:04}")).ok()
        })
        .collect();
    let galo = ctx.tracer.span("bench.verify", || {
        durability_probe(calls, galo, &dir, false, &probe, out)
    })?;
    calls.close(galo);
    Ok(())
}

/// One operation: stream item `item`'s SQL text to simulated final plan.
/// Returns the record and the serve step's latency.
fn reoptimize(
    calls: &Calls,
    s: &Schemas,
    eng: &Engines,
    galo: &Galo,
    tiers: &[ServingTier; 2],
    item: usize,
    g: &GenQuery,
) -> Result<(Record, u64), String> {
    let src = g.source.index();
    let db = s.db(g.source);
    let q = calls.parse(db, &g.name, &g.sql)?;
    let plan = calls.optimize(&eng.opt[src], &q)?;
    let (served, ns) = calls.serve(&tiers[src], db, &galo.kb, &plan);
    let (original_ms, final_ms, final_plan) =
        judge(calls, eng, g.source, &q, &plan, &served.report)?;
    let record = Record {
        item,
        original_fp: served.fingerprint,
        report: served.report,
        final_plan,
        original_ms,
        final_ms,
    };
    Ok((record, ns))
}

/// Oracles and rewrite quality over the distinct queries streamed.
///
/// Each distinct query's first result must equal `Galo::reoptimize` on
/// the generator's own query: the same original plan (which also checks
/// the `parse(to_sql(q))` round trip), the same rewrites, the same final
/// plan and runtime. Every repeat must equal the first result.
fn verify(
    calls: &Calls,
    s: &Schemas,
    galo: &Galo,
    stream: &[&GenQuery],
    records: &[Record],
    out: &mut Outcome,
) -> Result<Tally, String> {
    let cfg = &galo.match_cfg;
    let mut streamed = Tally::default();
    let mut first: HashMap<&str, &Record> = HashMap::new();
    let mut oracle: [Workload; 2] = Source::ALL.map(|src| Workload {
        name: src.name().to_string(),
        db: s.db(src).clone(),
        queries: Vec::new(),
    });
    let mut firsts = Vec::new();
    for r in records {
        let g = stream[r.item];
        let db = s.db(g.source);
        let final_fp = |r: &Record| r.final_plan.as_ref().map(|p| plan_fingerprint(db, p, cfg));
        match first.get(g.name.as_str()) {
            Some(f) => {
                calls.check(
                    f.original_fp == r.original_fp
                        && final_fp(f) == final_fp(r)
                        && f.final_ms == r.final_ms
                        && rewrite_key(&f.report) == rewrite_key(&r.report),
                    || format!("{}: a repeat re-optimized differently", g.name),
                );
            }
            None => {
                first.insert(&g.name, r);
                let w = &mut oracle[g.source.index()];
                w.queries.push(g.query.clone());
                firsts.push((r, w.queries.len() - 1));
                let matched = !r.report.rewrites.is_empty();
                streamed.add(r.original_ms, r.final_ms, matched);
                if !g.name.contains("_v") && g.tables <= REFERENCE_TABLES {
                    out.quality.add(r.original_ms, r.final_ms, matched);
                }
            }
        }
    }
    for (r, idx) in firsts {
        let g = stream[r.item];
        let db = s.db(g.source);
        let w = &oracle[g.source.index()];
        let o = galo
            .reoptimize(w, idx)
            .map_err(|e| format!("Galo::reoptimize {}: {e:?}", g.name))?;
        let same = plan_fingerprint(db, &o.original, cfg) == r.original_fp
            && rewrite_key(&o.matched) == rewrite_key(&r.report)
            && o.reoptimized
                .as_ref()
                .map(|x| plan_fingerprint(db, &x.qgm, cfg))
                == r.final_plan.as_ref().map(|p| plan_fingerprint(db, p, cfg))
            && o.final_ms == r.final_ms
            && o.original_ms == r.original_ms;
        calls.check(same, || {
            format!("{}: composed loop != Galo::reoptimize", g.name)
        });
    }
    Ok(streamed)
}

/// Table-count histogram of the distinct queries of a stream prefix.
fn table_histogram(stream: &[&GenQuery]) -> String {
    let mut seen = std::collections::HashSet::new();
    let mut hist = std::collections::BTreeMap::new();
    for g in stream {
        if seen.insert(&g.name) {
            let bucket = match g.tables {
                0..=3 => "2-3",
                4..=6 => "4-6",
                7..=12 => "7-12",
                _ => "13+",
            };
            *hist.entry(bucket).or_insert(0usize) += 1;
        }
    }
    format!("{hist:?}")
}
