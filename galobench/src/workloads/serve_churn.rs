//! `serve_churn`: serving through a write-churning knowledge base.
//!
//! A seeded op stream from the repository's read-heavy scenario preset
//! (90% serves, 8% publishes, 2% retracts) runs over a pool of 1,024
//! distinct plans, twice the cache's 512 entries, against a durable
//! 2-shard knowledge base with the background `Compactor` under the
//! default `CompactionPolicy`. The knowledge base
//! holds the learned templates padded to 2,000; publishes and retracts
//! churn 256 template slots. Every write moves the epoch, so most serves
//! miss: compile, admission, SPARQL probe and instantiation. The WAL
//! flushes to the OS on every commit and never fsyncs (the default).
//! Measuring starts after a warm-up prefix of the stream, once the live
//! slot set has stopped growing.

use std::collections::HashSet;

use galo_core::{Galo, ServingTier, Template};
use galo_workloads::{Scenario, ScenarioOp};

use super::{
    build_pool, check_round_trip, check_served, disk_per_template, full_pool, judge,
    judge_reference, learn_all, parse_workloads, reopen, self_template, Engines, PoolPlan, Tally,
};
use crate::bench::{cache_layer, storage_layer, Ctx, Outcome, Step};
use crate::calls::Calls;
use crate::inputs::{self, Schemas, Source};
use crate::stats::Windows;

/// Distinct plans in the pool: twice the cache.
pub const POOL: usize = 1_024;
/// Template slots the writes churn.
const SLOTS: usize = 256;
/// Knowledge-base size before churn.
const TEMPLATES: usize = 2_000;
/// Scenario ops generated (the loop stops at `--seconds` first).
const OPS: usize = 400_000;
/// Scenario ops run before the measured loop: publishes outnumber
/// retracts, so the live slot set grows from empty until nearly every
/// slot is live, after about 4,300 ops; measuring starts past that.
const WARMUP: usize = 8_192;
const REOPENS: usize = 5;

struct Setup {
    pool: Vec<PoolPlan>,
    slots: Vec<Template>,
    scenario: Scenario,
    galo: Galo,
    dir: std::path::PathBuf,
}

pub fn run(ctx: &Ctx, calls: &Calls, s: &Schemas, out: &mut Outcome) -> Result<(), String> {
    let eng = Engines::new(s);
    let setup = ctx.setup(out, || {
        let candidates = inputs::pool_candidates(s, ctx.seed, 3, 2 * POOL);
        let pool = full_pool(build_pool(calls, s, &eng, candidates, POOL)?, POOL)?;
        let slots = (0..SLOTS)
            .map(|k| self_template(s, &pool[k * pool.len() / SLOTS], format!("churn{k:04}")))
            .collect::<Result<Vec<_>, _>>()?;
        let base = s.base();
        let workloads = parse_workloads(calls, s, &base.iter().collect::<Vec<_>>())?;
        let dir = ctx.fresh_dir("serve_churn")?;
        let galo = calls.open_kb(&dir, true)?;
        learn_all(calls, &galo, &workloads);
        let pad: Vec<_> = pool
            .iter()
            .filter(|p| p.gen.source == Source::Tpcds)
            .map(|p| p.query.clone())
            .collect();
        ctx.tracer.span("kb.inflate", || {
            galo_bench::inflate_kb(&galo.kb, s.db(Source::Tpcds), &pad, TEMPLATES)
        });
        let scenario = inputs::churn_scenario(ctx.seed, OPS, pool.len(), SLOTS);
        Ok(Setup {
            pool,
            slots,
            scenario,
            galo,
            dir,
        })
    })?;
    let Setup {
        pool,
        slots,
        scenario,
        galo,
        dir,
    } = setup;
    let initial = galo.kb.template_count();
    // Judged before the churn: the slots live at the end depend on the
    // seed, the reference judgement must not.
    out.quality = ctx
        .tracer
        .span("bench.verify", || judge_reference(calls, s, &eng, &galo))?;
    let tiers =
        Source::ALL.map(|src| ServingTier::new(s.db(src), &galo.kb, galo.match_cfg.clone()));
    let mut live: HashSet<usize> = HashSet::new();
    let mut serve_ns = Windows::default();
    let mut writes = 0u64;
    let mut served_plans: HashSet<usize> = HashSet::new();
    let mut apply = |op: &ScenarioOp, serve_ns: &mut Windows| -> Step {
        match *op {
            ScenarioOp::Serve { plan } => {
                let p = &pool[plan];
                let src = p.gen.source;
                let (_, ns) = calls.serve(&tiers[src.index()], s.db(src), &galo.kb, &p.plan);
                serve_ns.push(ctx.window(), ns);
                served_plans.insert(plan);
            }
            ScenarioOp::Publish { template, tenant } => {
                let mut tpl = slots[template].clone();
                tpl.source_workload = format!("tenant{tenant}");
                calls.insert(&galo.kb, &tpl);
                live.insert(template);
                writes += 1;
            }
            ScenarioOp::Retract { template } => {
                let iri = galo_core::vocab::template_iri(&slots[template].id);
                writes += 1;
                live.remove(&template);
                if !calls.remove(&galo.kb, iri.str_value()) {
                    return Step::Failed(format!("retract of live slot {template} found nothing"));
                }
            }
        }
        Step::Done
    };
    let (warmup, measured) = scenario.ops.split_at(WARMUP);
    ctx.tracer.span("bench.warmup", || {
        let mut discard = Windows::default();
        for op in warmup {
            if let Step::Failed(why) = apply(op, &mut discard) {
                calls.check(false, || format!("warm-up: {why}"));
            }
        }
    });
    let folds_now = || galo.kb.compactor_stats().map_or(0, |c| c.compacted());
    let folds_before = folds_now();
    let t0 = std::time::Instant::now();
    ctx.measure(calls, out, |i| match measured.get(i as usize) {
        Some(op) => apply(op, &mut serve_ns),
        None => Step::Stop,
    });
    let fold_rate = (folds_now() - folds_before) as f64 / t0.elapsed().as_secs_f64();
    out.serve = serve_ns;

    calls.check(galo.kb.template_count() == initial + live.len(), || {
        format!(
            "{} templates after churn, model says {}",
            galo.kb.template_count(),
            initial + live.len()
        )
    });
    let compactor = galo.kb.compactor_stats();
    let folds = compactor.as_ref().map_or(0, |c| c.compacted());
    calls.check(compactor.as_ref().is_some_and(|c| c.failed() == 0), || {
        "the compactor recorded failed folds".to_string()
    });
    let mut pooled = Tally::default();
    ctx.tracer.span("bench.verify", || -> Result<(), String> {
        for (k, p) in pool.iter().enumerate() {
            if !served_plans.contains(&k) {
                continue;
            }
            check_round_trip(calls, s, &eng, p)?;
            let report = check_served(calls, s, &galo, &tiers[p.gen.source.index()], p);
            let (o, f, _) = judge(calls, &eng, p.gen.source, &p.query, &p.plan, &report)?;
            pooled.add(o, f, !report.rewrites.is_empty());
        }
        Ok(())
    })?;
    cache_layer(&[&tiers[0], &tiers[1]], out);
    let (hits, serves) = {
        let c = calls.ctr.borrow();
        (c.hits, c.serves)
    };
    drop(tiers);
    storage_layer(&galo.kb, &dir, writes, out);
    out.disk_bytes_per_tpl = disk_per_template(&galo, &dir);
    let (n_serve, n_pub, n_ret) = scenario.counts();
    out.note(format!(
        "serve_churn: {} ops ({} writes, scenario mix {n_serve}/{n_pub}/{n_ret} serve/publish/retract); \
         {} distinct plans served of a {}-plan pool (cache 512 entries); hit share {:.3}; \
         pool at the end: {pooled}; reference queries: {}; KB {} templates ({} slots live); \
         compactor folds {folds} ({fold_rate:.1}/s while measuring)",
        out.attempted,
        writes,
        served_plans.len(),
        pool.len(),
        hits as f64 / serves.max(1) as f64,
        out.quality,
        galo.kb.template_count(),
        live.len(),
    ));
    let mut reopen_ms = Vec::new();
    let galo = ctx.tracer.span("bench.verify", || {
        reopen(calls, galo, &dir, true, REOPENS, &mut reopen_ms)
    })?;
    out.reopen_ms = reopen_ms;
    // A checkpoint after the last reopen, so the next open replays a
    // snapshot (and `compact()` is timed on a churned store).
    ctx.tracer
        .span("bench.verify", || calls.compact(&galo.kb))?;
    calls.close(galo);
    Ok(())
}
