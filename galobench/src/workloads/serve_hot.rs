//! `serve_hot`: read-only serving of a hot, Zipf-skewed plan pool.
//!
//! The pool (384 distinct pre-optimized plans) fits the default
//! `ProbeCache` (8 stripes × 64 = 512 entries), and the knowledge base
//! is at Exp-4 scale: the learned templates plus `inflate_kb` padding to
//! 1,000. After a warm-up pass every serve is a cache hit, so this
//! isolates the hit path: fingerprint, epoch load, stripe lock, clone.
//!
//! A reopen of the 1,000-template knowledge base takes ~0.2 s and a
//! learning round ~1 s, and both drift by ±15% over seconds. So a copy of
//! the knowledge base is reopened [`WINDOW_REOPENS`] times at the start of
//! every window of the serve loop, and every [`LEARN_EVERY`]th window
//! learns both workloads into a fresh durable knowledge base, outside the
//! timed serves: `reopen_ms` is the median of the windows' reopens, and
//! `learn_subq_s` the median of these and the set-ups' learning rounds.

use galo_core::{Galo, ServingTier};
use galo_workloads::Workload;

use super::{
    build_pool, check_round_trip, check_served, copy_dir, disk_per_template, durability_probe,
    full_pool, judge, judge_reference, learn_all, parse_workloads, reopen, self_template, Engines,
    Image, PoolPlan, Tally,
};
use crate::bench::{cache_layer, Ctx, Outcome, Step};
use crate::calls::Calls;
use crate::inputs::{self, Schemas, Source};

/// Distinct plans in the pool: three quarters of the cache.
pub const POOL: usize = 384;
/// Knowledge-base size after padding.
const TEMPLATES: usize = 1_000;
/// Pre-drawn Zipf draws, replayed cyclically.
const DRAWS: usize = 1 << 20;
/// An assumption, not taken from any trace: skewed, yet spread over
/// enough plans that the seed's choice of the hottest few does not set
/// the median (see the README).
const ZIPF_EXPONENT: f64 = 0.7;
/// Reopens of the copy at the start of each window of the serve loop.
const WINDOW_REOPENS: usize = 2;
/// Windows of the serve loop per extra learning round.
const LEARN_EVERY: usize = 4;

struct Setup {
    pool: Vec<PoolPlan>,
    draws: Vec<u32>,
    workloads: [Workload; 2],
    galo: Galo,
    dir: std::path::PathBuf,
}

pub fn run(ctx: &Ctx, calls: &Calls, s: &Schemas, out: &mut Outcome) -> Result<(), String> {
    let eng = Engines::new(s);
    let setup = ctx.setup(out, || {
        let candidates = inputs::pool_candidates(s, ctx.seed, 2, 2 * POOL);
        let pool = full_pool(build_pool(calls, s, &eng, candidates, POOL)?, POOL)?;
        let base = s.base();
        let workloads = parse_workloads(calls, s, &base.iter().collect::<Vec<_>>())?;
        let dir = ctx.fresh_dir("serve_hot")?;
        let galo = calls.open_kb(&dir, false)?;
        learn_all(calls, &galo, &workloads);
        let pad: Vec<_> = pool
            .iter()
            .filter(|p| p.gen.source == Source::Tpcds)
            .map(|p| p.query.clone())
            .collect();
        ctx.tracer.span("kb.inflate", || {
            galo_bench::inflate_kb(&galo.kb, s.db(Source::Tpcds), &pad, TEMPLATES)
        });
        calls.compact(&galo.kb)?;
        let galo = reopen(calls, galo, &dir, false, 1, &mut Vec::new())?;
        let draws = inputs::zipf_draws(ctx.seed, pool.len(), DRAWS, ZIPF_EXPONENT);
        Ok(Setup {
            pool,
            draws,
            workloads,
            galo,
            dir,
        })
    })?;
    out.disk_bytes_per_tpl = disk_per_template(&setup.galo, &setup.dir);
    let Setup {
        pool,
        draws,
        workloads,
        galo,
        dir,
    } = setup;
    let tiers =
        Source::ALL.map(|src| ServingTier::new(s.db(src), &galo.kb, galo.match_cfg.clone()));
    let serve = |calls: &Calls, p: &PoolPlan| {
        let src = p.gen.source;
        calls.serve(&tiers[src.index()], s.db(src), &galo.kb, &p.plan)
    };
    // Warm-up: one miss per plan fills the cache.
    ctx.tracer.span("bench.warmup", || {
        for p in &pool {
            serve(calls, p);
        }
    });
    // No write follows the set-up's compaction, so the files are at rest.
    let copy = ctx.fresh_dir("serve_hot_reopen")?;
    copy_dir(&dir, &copy)?;
    let image = Image::of(&galo);
    let mut reopen_ms = Vec::new();
    let mut serve_ns = crate::stats::Windows::default();
    ctx.measure_between(
        calls,
        out,
        |i| {
            let p = &pool[draws[i as usize % draws.len()] as usize];
            let (_, ns) = serve(calls, p);
            serve_ns.push(ctx.window(), ns);
            Step::Done
        },
        |w| {
            let mut between = || -> Result<(), String> {
                for _ in 0..WINDOW_REOPENS {
                    calls.close(image.reopen(calls, &copy, false, &mut reopen_ms)?);
                }
                if w % LEARN_EVERY == LEARN_EVERY / 2 {
                    let g = calls.open_kb(&ctx.fresh_dir("serve_hot_learn")?, false)?;
                    learn_all(calls, &g, &workloads);
                    calls.close(g);
                }
                Ok(())
            };
            if let Err(e) = between() {
                calls.check(false, || e);
            }
        },
    );
    out.serve = serve_ns;
    out.reopen_ms = reopen_ms;

    let mut pooled = Tally::default();
    ctx.tracer.span("bench.verify", || -> Result<(), String> {
        for p in &pool {
            check_round_trip(calls, s, &eng, p)?;
            let report = check_served(calls, s, &galo, &tiers[p.gen.source.index()], p);
            let (o, f, _) = judge(calls, &eng, p.gen.source, &p.query, &p.plan, &report)?;
            pooled.add(o, f, !report.rewrites.is_empty());
        }
        out.quality = judge_reference(calls, s, &eng, &galo)?;
        Ok(())
    })?;
    cache_layer(&[&tiers[0], &tiers[1]], out);
    let hit_share = {
        let c = calls.ctr.borrow();
        c.hits as f64 / c.serves.max(1) as f64
    };
    drop(tiers);
    out.note(format!(
        "serve_hot: {} serves over {} distinct plans (cache 512 entries), Zipf s={ZIPF_EXPONENT}; \
         hit share {hit_share:.4}; pool: {pooled}; reference queries: {}; KB {} templates; writes 0",
        out.attempted,
        pool.len(),
        out.quality,
        galo.kb.template_count(),
    ));
    let probe: Vec<_> = pool
        .iter()
        .take(32)
        .enumerate()
        .map(|(i, p)| self_template(s, p, format!("probe{i:04}")))
        .collect::<Result<_, _>>()?;
    let galo = ctx.tracer.span("bench.verify", || {
        durability_probe(calls, galo, &dir, false, &probe, out)
    })?;
    calls.close(galo);
    Ok(())
}
