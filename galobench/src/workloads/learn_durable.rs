//! `learn_durable`: GALO's offline half, with no serving load.
//!
//! Each operation is one learning cycle into a fresh durable 2-shard
//! knowledge base with the default background compactor: parse both
//! workloads plus the cycle's fresh variants, `learn_workload` each,
//! `compact()`, close, reopen, and check that the reopened knowledge base
//! holds every learned template with an unchanged `export()`. The cycle
//! ends by serving the cheap base queries and its variants from the
//! reopened knowledge base, the online tier's first look at what was
//! learned.

use std::path::PathBuf;

use galo_core::{Galo, ServingTier};

use super::{
    build_pool, check_round_trip, disk_per_template, durability_probe, judge, judge_reference,
    learn_all, parse_workloads, reopen, self_template, Engines, PoolPlan, Tally,
};
use crate::bench::{Ctx, Outcome, Step};
use crate::calls::Calls;
use crate::inputs::{self, GenQuery, Schemas, Source};
use crate::stats::{median, Windows};

/// Cycles generated (the loop stops at `--seconds` first).
const CYCLES: usize = 64;
/// Fresh variants each cycle adds to the 215 base queries.
const VARIANTS: usize = 24;
/// Reopens per cycle: one reopen of a small KB takes ~20 ms, too short
/// to time once.
const REOPENS: usize = 8;

struct Setup {
    cycles: Vec<Vec<GenQuery>>,
    base: Vec<GenQuery>,
    serve_set: Vec<PoolPlan>,
}

/// A cycle's reopened knowledge base and its directory.
struct Kept {
    galo: Galo,
    dir: PathBuf,
}

/// What the cycles share, and what they record.
struct Cycles<'a> {
    ctx: &'a Ctx,
    calls: &'a Calls<'a>,
    s: &'a Schemas,
    eng: &'a Engines<'a>,
    base: &'a [GenQuery],
    serve_set: &'a [PoolPlan],
    reopen_ms: Vec<f64>,
    disk: Vec<f64>,
    serve_ns: Windows,
    served: Tally,
}

pub fn run(ctx: &Ctx, calls: &Calls, s: &Schemas, out: &mut Outcome) -> Result<(), String> {
    let eng = Engines::new(s);
    let setup = ctx.setup(out, || {
        let cycles = inputs::learn_cycles(s, ctx.seed, CYCLES, VARIANTS);
        let base = s.base();
        let serve_set = build_pool(calls, s, &eng, s.cheap_base(6), usize::MAX)?;
        Ok(Setup {
            cycles,
            base,
            serve_set,
        })
    })?;
    let mut run = Cycles {
        ctx,
        calls,
        s,
        eng: &eng,
        base: &setup.base,
        serve_set: &setup.serve_set,
        reopen_ms: Vec::new(),
        disk: Vec::new(),
        serve_ns: Windows::default(),
        served: Tally::default(),
    };
    // The first cycle learns the base queries alone; its knowledge base
    // is kept to judge the reference queries on, so that judgement does
    // not depend on the seed.
    let mut first: Option<Kept> = None;
    let mut kept: Option<Kept> = None;
    ctx.measure(calls, out, |i| {
        let Some(variants) = setup.cycles.get(i as usize) else {
            return Step::Stop;
        };
        let (variants, dir) = if i == 0 {
            (&[][..], "learn_durable_base".to_string())
        } else {
            (&variants[..], format!("learn_durable_{}", i % 2))
        };
        match run.cycle(i, variants, &dir) {
            Ok(k) => {
                let slot = if i == 0 { &mut first } else { &mut kept };
                if let Some(old) = slot.replace(k) {
                    calls.close(old.galo);
                    let _ = std::fs::remove_dir_all(&old.dir);
                }
                Step::Done
            }
            Err(e) => Step::Failed(e),
        }
    });
    out.serve = run.serve_ns;
    out.reopen_ms = run.reopen_ms;
    out.disk_bytes_per_tpl = median(&run.disk);
    let served = run.served;
    let base_kb = first.ok_or("no learning cycle completed")?;
    ctx.tracer.span("bench.verify", || -> Result<(), String> {
        for p in &setup.serve_set {
            check_round_trip(calls, s, &eng, p)?;
        }
        out.quality = judge_reference(calls, s, &eng, &base_kb.galo)?;
        Ok(())
    })?;
    let Kept { galo, dir } = match kept {
        Some(k) => {
            calls.close(base_kb.galo);
            k
        }
        None => base_kb,
    };
    let c = calls.ctr.borrow();
    let unique: usize = c.learned.iter().map(|(_, _, r)| r.subqueries_unique).sum();
    let templates: usize = c.learned.iter().map(|(_, _, r)| r.templates_learned).sum();
    drop(c);
    out.note(format!(
        "learn_durable: {} cycles of 215 base + {VARIANTS} variants; {unique} unique sub-queries analysed, \
         {templates} templates published; last KB {} templates on 2 shards; served after reopen: {served}; \
         reference queries: {}; writes are learning's publishes only",
        out.attempted,
        galo.kb.template_count(),
        out.quality,
    ));
    let probe: Vec<_> = setup
        .serve_set
        .iter()
        .take(32)
        .enumerate()
        .map(|(i, p)| self_template(s, p, format!("probe{i:04}")))
        .collect::<Result<_, _>>()?;
    let galo = ctx.tracer.span("bench.verify", || {
        durability_probe(calls, galo, &dir, true, &probe, out)
    })?;
    calls.close(galo);
    Ok(())
}

impl Cycles<'_> {
    /// One learning cycle in scratch directory `dir`; returns its
    /// reopened knowledge base.
    fn cycle(&mut self, i: u64, variants: &[GenQuery], dir: &str) -> Result<Kept, String> {
        let (calls, s, eng) = (self.calls, self.s, self.eng);
        let dir = self.ctx.fresh_dir(dir)?;
        let galo = calls.open_kb(&dir, true)?;
        let queries: Vec<&GenQuery> = self.base.iter().chain(variants).collect();
        let workloads = parse_workloads(calls, s, &queries)?;
        let learned = learn_all(calls, &galo, &workloads);
        calls.compact(&galo.kb)?;
        calls.check(galo.kb.template_count() == learned.len(), || {
            format!(
                "cycle {i}: {} templates stored, {} learned",
                galo.kb.template_count(),
                learned.len()
            )
        });
        self.disk.push(disk_per_template(&galo, &dir));
        let galo = reopen(calls, galo, &dir, true, REOPENS, &mut self.reopen_ms)?;

        // Serve the cheap base queries and this cycle's variants three
        // times each (a miss, then two hits), and judge the rewrites
        // served.
        let mut plans: Vec<(Source, galo_sql::Query, galo_qgm::Qgm)> = self
            .serve_set
            .iter()
            .map(|p| (p.gen.source, p.query.clone(), p.plan.clone()))
            .collect();
        for g in variants {
            let q = workloads[g.source.index()]
                .queries
                .iter()
                .find(|q| q.name == g.name)
                .expect("every variant was parsed")
                .clone();
            let plan = calls.optimize(&eng.opt[g.source.index()], &q)?;
            plans.push((g.source, q, plan));
        }
        let tiers =
            Source::ALL.map(|src| ServingTier::new(s.db(src), &galo.kb, galo.match_cfg.clone()));
        for (src, q, plan) in &plans {
            let tier = &tiers[src.index()];
            let (first, ns) = calls.serve(tier, s.db(*src), &galo.kb, plan);
            self.serve_ns.push(self.ctx.window(), ns);
            for _ in 0..2 {
                let (_, ns) = calls.serve(tier, s.db(*src), &galo.kb, plan);
                self.serve_ns.push(self.ctx.window(), ns);
            }
            let (o, f, _) = judge(calls, eng, *src, q, plan, &first.report)?;
            self.served.add(o, f, !first.report.rewrites.is_empty());
        }
        drop(tiers);
        Ok(Kept { galo, dir })
    }
}
