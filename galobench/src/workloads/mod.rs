//! The four workloads and what they share: learning the knowledge base,
//! building plan pools, judging rewrite quality, and the oracles.

pub mod learn_durable;
pub mod reopt_sql;
pub mod serve_churn;
pub mod serve_hot;

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use galo_core::{plan_fingerprint, Galo, LearningConfig, MatchConfig, MatchReport, Template};
use galo_executor::Simulator;
use galo_optimizer::Optimizer;
use galo_qgm::{GuidelineDoc, Qgm};
use galo_sql::Query;
use galo_workloads::Workload;

use crate::bench::{dir_bytes, storage_layer, Outcome};
use crate::calls::{rewrite_key, Calls};
use crate::inputs::{GenQuery, Schemas, Source};

/// The learning configuration of every workload: the experiments' fast
/// sampling, at most 10 sub-queries per query, and one worker thread per
/// CPU.
pub fn learning_config() -> LearningConfig {
    LearningConfig {
        max_subqueries_per_query: 10,
        ..galo_bench::learning_config(true)
    }
}

/// Per-source optimizer and simulator.
pub struct Engines<'a> {
    pub opt: [Optimizer<'a>; 2],
    pub sim: [Simulator<'a>; 2],
}

impl<'a> Engines<'a> {
    pub fn new(s: &'a Schemas) -> Self {
        Engines {
            opt: Source::ALL.map(|src| Optimizer::new(s.db(src))),
            sim: Source::ALL.map(|src| Simulator::new(s.db(src))),
        }
    }
}

/// Parse generated SQL text into one workload per source.
pub fn parse_workloads(
    calls: &Calls,
    s: &Schemas,
    queries: &[&GenQuery],
) -> Result<[Workload; 2], String> {
    let mut out = Source::ALL.map(|src| Workload {
        name: src.name().to_string(),
        db: s.db(src).clone(),
        queries: Vec::new(),
    });
    for g in queries {
        let q = calls.parse(s.db(g.source), &g.name, &g.sql)?;
        out[g.source.index()].queries.push(q);
    }
    Ok(out)
}

/// Learn both parsed workloads into `galo`; returns the ids of the
/// templates learned.
pub fn learn_all(calls: &Calls, galo: &Galo, workloads: &[Workload; 2]) -> HashSet<String> {
    let cfg = learning_config();
    Source::ALL
        .iter()
        .flat_map(|&src| {
            calls
                .learn(galo, src, &workloads[src.index()], &cfg)
                .learned
        })
        .map(|t| t.template_id)
        .collect()
}

/// One plan of a pool: the generated query, its parsed form and plan.
pub struct PoolPlan {
    pub gen: GenQuery,
    pub query: Query,
    pub plan: Qgm,
    pub fingerprint: u64,
}

/// The first `want` candidates with distinct plan fingerprints (fewer
/// when the candidates run out).
pub fn build_pool(
    calls: &Calls,
    s: &Schemas,
    eng: &Engines,
    candidates: Vec<GenQuery>,
    want: usize,
) -> Result<Vec<PoolPlan>, String> {
    let cfg = MatchConfig::default();
    let mut seen = HashSet::new();
    let mut pool = Vec::new();
    for gen in candidates {
        if pool.len() == want {
            break;
        }
        let db = s.db(gen.source);
        let query = calls.parse(db, &gen.name, &gen.sql)?;
        let plan = calls.optimize(&eng.opt[gen.source.index()], &query)?;
        let fingerprint = plan_fingerprint(db, &plan, &cfg);
        if seen.insert(fingerprint) {
            pool.push(PoolPlan {
                gen,
                query,
                plan,
                fingerprint,
            });
        }
    }
    Ok(pool)
}

/// A pool of exactly `want` distinct plans, or an error.
pub fn full_pool(pool: Vec<PoolPlan>, want: usize) -> Result<Vec<PoolPlan>, String> {
    if pool.len() < want {
        return Err(format!("only {} distinct plans, {want} wanted", pool.len()));
    }
    Ok(pool)
}

/// Rewrite quality of one served query: the re-plan under the served
/// rewrites against the optimizer's plan, both simulated. Returns
/// `(original ms, final ms, final plan)`; no rewrites means no re-plan.
pub fn judge(
    calls: &Calls,
    eng: &Engines,
    src: Source,
    query: &Query,
    plan: &Qgm,
    report: &MatchReport,
) -> Result<(f64, f64, Option<Qgm>), String> {
    let i = src.index();
    let original = calls.simulate(&eng.sim[i], plan);
    if report.rewrites.is_empty() {
        return Ok((original, original, None));
    }
    let re = calls.replan(&eng.opt[i], query, &report.guideline_doc())?;
    let fin = calls.simulate(&eng.sim[i], &re.qgm);
    Ok((original, fin, Some(re.qgm)))
}

/// Rewrite quality over a set of judged queries.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub n: u64,
    /// Served at least one rewrite.
    pub matched: u64,
    /// Simulated faster, or slower, after the rewrite.
    pub improved: u64,
    pub regressed: u64,
}

impl Tally {
    pub fn add(&mut self, original_ms: f64, final_ms: f64, matched: bool) {
        self.n += 1;
        self.matched += matched as u64;
        if final_ms < original_ms {
            self.improved += 1;
        } else if final_ms > original_ms {
            self.regressed += 1;
        }
    }
}

impl std::fmt::Display for Tally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} of {} matched, {} improved, {} regressed",
            self.matched, self.n, self.improved, self.regressed
        )
    }
}

/// Tables a reference query has at most.
pub const REFERENCE_TABLES: usize = 8;

/// Rewrite quality on the reference queries: the base queries of both
/// workloads with at most [`REFERENCE_TABLES`] tables, each parsed,
/// planned, served from `galo`'s knowledge base and judged. The set is
/// the same for every seed, so the quality shares move only when GALO's
/// rewrites change.
pub fn judge_reference(
    calls: &Calls,
    s: &Schemas,
    eng: &Engines,
    galo: &Galo,
) -> Result<Tally, String> {
    let tiers = Source::ALL
        .map(|src| galo_core::ServingTier::new(s.db(src), &galo.kb, galo.match_cfg.clone()));
    let mut t = Tally::default();
    for g in s.cheap_base(REFERENCE_TABLES) {
        let db = s.db(g.source);
        let q = calls.parse(db, &g.name, &g.sql)?;
        let plan = calls.optimize(&eng.opt[g.source.index()], &q)?;
        let (served, _) = calls.serve(&tiers[g.source.index()], db, &galo.kb, &plan);
        let (o, f, _) = judge(calls, eng, g.source, &q, &plan, &served.report)?;
        t.add(o, f, !served.report.rewrites.is_empty());
    }
    Ok(t)
}

/// Oracle: the text the program received plans exactly like the
/// generator's own query (`parse(to_sql(q))` round trip).
pub fn check_round_trip(
    calls: &Calls,
    s: &Schemas,
    eng: &Engines,
    p: &PoolPlan,
) -> Result<(), String> {
    let db = s.db(p.gen.source);
    let plan = calls.optimize(&eng.opt[p.gen.source.index()], &p.gen.query)?;
    let fp = plan_fingerprint(db, &plan, &MatchConfig::default());
    calls.check(fp == p.fingerprint, || {
        format!("{}: parse(to_sql(q)) plans differently", p.gen.name)
    });
    Ok(())
}

/// Oracle: what the tier serves for `p` now equals a fresh `match_plan`
/// at the same epoch. Returns the served report.
pub fn check_served(
    calls: &Calls,
    s: &Schemas,
    galo: &Galo,
    tier: &galo_core::ServingTier,
    p: &PoolPlan,
) -> MatchReport {
    let db = s.db(p.gen.source);
    let (served, _) = calls.serve(tier, db, &galo.kb, &p.plan);
    let e0 = galo.kb.epoch();
    let fresh = galo_core::match_plan(db, &galo.kb, &p.plan, tier.config());
    if served.epoch == Some(e0) && galo.kb.epoch() == e0 {
        calls.check(rewrite_key(&fresh) == rewrite_key(&served.report), || {
            format!("{}: served rewrites differ from match_plan", p.gen.name)
        });
    }
    served.report
}

/// A template whose rewrite is the plan's own shape.
pub fn self_template(s: &Schemas, p: &PoolPlan, id: String) -> Result<Template, String> {
    let g = galo_qgm::guideline_from_plan(&p.plan, p.plan.root())
        .ok_or_else(|| format!("{}: plan has no guideline shape", p.gen.name))?;
    let doc = GuidelineDoc::new(vec![g]);
    Ok(galo_core::abstract_plan(
        s.db(p.gen.source),
        &p.plan,
        p.plan.root(),
        &doc,
        id,
    ))
}

/// Close a durable knowledge base and reopen it `times` times, timing
/// each reopen. Every reopen must recover the same export and template
/// count. Returns the last reopened instance.
pub fn reopen(
    calls: &Calls,
    galo: Galo,
    dir: &Path,
    compactor: bool,
    times: usize,
    reopen_ms: &mut Vec<f64>,
) -> Result<Galo, String> {
    let image = Image::of(&galo);
    calls.close(galo);
    let mut last = None;
    for _ in 0..times {
        if let Some(g) = last.take() {
            calls.close(g);
        }
        last = Some(image.reopen(calls, dir, compactor, reopen_ms)?);
    }
    last.ok_or_else(|| "reopen count must be positive".to_string())
}

/// What a reopen of a durable knowledge base must recover.
pub struct Image {
    export: String,
    count: usize,
}

impl Image {
    pub fn of(galo: &Galo) -> Self {
        Image {
            export: galo.kb.export(),
            count: galo.kb.template_count(),
        }
    }

    /// Open the knowledge base in `dir`, timing the open, and check that
    /// it holds this image.
    pub fn reopen(
        &self,
        calls: &Calls,
        dir: &Path,
        compactor: bool,
        reopen_ms: &mut Vec<f64>,
    ) -> Result<Galo, String> {
        let t0 = Instant::now();
        let g = calls.open_kb(dir, compactor)?;
        reopen_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        calls.check(g.kb.template_count() == self.count, || {
            format!(
                "reopen recovered {} templates, {} acknowledged",
                g.kb.template_count(),
                self.count
            )
        });
        calls.check(g.kb.export() == self.export, || {
            "reopen changed export()".to_string()
        });
        Ok(g)
    }
}

/// Copy the files under `from` into `to`, which must exist.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for e in entries {
        let e = e.map_err(|e| format!("read {}: {e}", from.display()))?;
        let target = to.join(e.file_name());
        if e.file_type().is_ok_and(|t| t.is_dir()) {
            std::fs::create_dir_all(&target)
                .map_err(|err| format!("create {}: {err}", target.display()))?;
            copy_dir(&e.path(), &target)?;
        } else {
            std::fs::copy(e.path(), &target)
                .map_err(|err| format!("copy to {}: {err}", target.display()))?;
        }
    }
    Ok(())
}

/// Bytes on disk per stored template.
pub fn disk_per_template(galo: &Galo, dir: &Path) -> f64 {
    dir_bytes(dir) as f64 / galo.kb.template_count().max(1) as f64
}

/// Oracle on the write path: publish `templates`, retract every other
/// one, close and reopen. The knowledge base must hold exactly the
/// acknowledged live set afterwards, with an unchanged export. The
/// storage counters are read before the close.
pub fn durability_probe(
    calls: &Calls,
    galo: Galo,
    dir: &Path,
    compactor: bool,
    templates: &[Template],
    out: &mut Outcome,
) -> Result<Galo, String> {
    let before = galo.kb.template_count();
    for t in templates {
        calls.insert(&galo.kb, t);
    }
    let mut retracted = 0;
    for t in templates.iter().step_by(2) {
        let iri = galo_core::vocab::template_iri(&t.id);
        calls.check(calls.remove(&galo.kb, iri.str_value()), || {
            format!("retract of published {} found nothing", t.id)
        });
        retracted += 1;
    }
    let expect = before + templates.len() - retracted;
    calls.check(galo.kb.template_count() == expect, || {
        format!(
            "after the write probe {} templates, {expect} expected",
            galo.kb.template_count()
        )
    });
    storage_layer(&galo.kb, dir, (templates.len() + retracted) as u64, out);
    let mut unused = Vec::new();
    reopen(calls, galo, dir, compactor, 1, &mut unused)
}
