//! Every call the benchmark makes into GALO, each wrapped in its span.
//!
//! The workloads drive the program only through these wrappers, so the
//! traced run sees each layer boundary: `sql` (`galo_sql::parse`),
//! `optimizer` (`Optimizer::optimize` and `optimize_with_guidelines`),
//! `executor` (`Simulator::run`), `serving` (`ServingTier::serve`),
//! `matching` (the miss replay below), `kb` (`insert`,
//! `remove_template`), `persist` (close and reopen of a durable store),
//! `policy` (`compact`) and `learning` (`Galo::learn`).
//!
//! On every serve miss of a traced run the wrapper replays
//! `plan_fingerprint` → `compile_plan` → `match_compiled` at the same
//! epoch. That attributes the miss stage by stage from outside, and its
//! rewrites must equal the served ones (a correctness oracle).

use std::cell::RefCell;
use std::path::Path;
use std::time::Instant;

use galo_catalog::Database;
use galo_core::{
    compile_plan, match_compiled, plan_fingerprint, Galo, KbBuilder, KnowledgeBase, LearningConfig,
    LearningReport, MatchReport, ServeOutcome, ServingTier, Template,
};
use galo_executor::Simulator;
use galo_optimizer::{Optimizer, ReoptResult};
use galo_qgm::{GuidelineDoc, Qgm};
use galo_sql::Query;
use galo_workloads::Workload;

use crate::inputs::Source;
use crate::trace::Tracer;

/// Counts gathered at the layer boundaries.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub serves: u64,
    pub hits: u64,
    pub unvalidated: u64,
    pub misses: u64,
    pub probes_executed: u64,
    pub probes_pruned: u64,
    pub probes_reused: u64,
    pub rewrites_on_miss: u64,
    pub considered: u64,
    pub rejects_card: u64,
    pub rejects_scan: u64,
    /// Serve-miss time, and the part of it the replay decomposition
    /// re-measured, for `matching.miss_coverage`.
    pub miss_ns: u64,
    pub replay_ns: u64,
    /// Replay time of every kind (misses and sampled hits), which the
    /// load loop takes out of a traced operation's latency.
    pub replay_total_ns: u64,
    pub replay_segments: u64,
    pub replays_skipped: u64,
    pub hit_replays: u64,
    pub guidelines: u64,
    pub honored: u64,
    pub learned: Vec<(Source, f64, LearningReport)>,
    pub oracle_failures: Vec<String>,
    pub oracle_checks: u64,
}

/// Sampled hits replayed per traced run, at most.
const HIT_REPLAYS: u64 = 2_000;
/// One hit in this many is replayed.
const HIT_REPLAY_EVERY: u64 = 64;

pub struct Calls<'t> {
    pub tr: &'t Tracer,
    pub ctr: RefCell<Counters>,
}

/// The rewrites a match produced, in comparable form.
pub fn rewrite_key(r: &MatchReport) -> Vec<(u32, String, String)> {
    r.rewrites
        .iter()
        .map(|w| {
            (
                w.segment_op_id,
                w.template_iri.clone(),
                format!("{:?}", w.guideline),
            )
        })
        .collect()
}

impl<'t> Calls<'t> {
    pub fn new(tr: &'t Tracer) -> Self {
        Calls {
            tr,
            ctr: RefCell::new(Counters::default()),
        }
    }

    /// Record one oracle comparison; `false` fails the run.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) -> bool {
        let mut c = self.ctr.borrow_mut();
        c.oracle_checks += 1;
        if !ok {
            c.oracle_failures.push(what());
        }
        ok
    }

    pub fn parse(&self, db: &Database, name: &str, sql: &str) -> Result<Query, String> {
        self.tr
            .span("sql.parse", || galo_sql::parse(db, name, sql))
            .map_err(|e| format!("parse {name}: {e:?}"))
    }

    pub fn optimize(&self, opt: &Optimizer, q: &Query) -> Result<Qgm, String> {
        self.tr
            .span("optimizer.plan", || opt.optimize(q))
            .map_err(|e| format!("optimize {}: {e:?}", q.name))
    }

    pub fn replan(
        &self,
        opt: &Optimizer,
        q: &Query,
        doc: &GuidelineDoc,
    ) -> Result<ReoptResult, String> {
        let r = self
            .tr
            .span("optimizer.replan", || opt.optimize_with_guidelines(q, doc))
            .map_err(|e| format!("replan {}: {e:?}", q.name))?;
        let mut c = self.ctr.borrow_mut();
        c.guidelines += r.outcome.honored.len() as u64;
        c.honored += r.outcome.honored.iter().filter(|&&h| h).count() as u64;
        Ok(r)
    }

    pub fn simulate(&self, sim: &Simulator, plan: &Qgm) -> f64 {
        self.tr
            .span("executor.sim", || sim.run(plan, true).elapsed_ms)
    }

    /// Serve one plan; returns the outcome and its latency in ns.
    pub fn serve(
        &self,
        tier: &ServingTier,
        db: &Database,
        kb: &KnowledgeBase,
        plan: &Qgm,
    ) -> (ServeOutcome, u64) {
        let t0 = Instant::now();
        let out = self.tr.span_as(
            || tier.serve(plan),
            |o| {
                if o.report.cache_hit {
                    "serving.hit"
                } else {
                    "serving.miss"
                }
            },
        );
        let ns = t0.elapsed().as_nanos() as u64;
        let replay = {
            let mut c = self.ctr.borrow_mut();
            c.serves += 1;
            if out.epoch.is_none() {
                c.unvalidated += 1;
            }
            if out.report.cache_hit {
                c.hits += 1;
                self.tr.enabled()
                    && c.hits.is_multiple_of(HIT_REPLAY_EVERY)
                    && c.hit_replays < HIT_REPLAYS
            } else {
                let r = &out.report;
                c.misses += 1;
                c.miss_ns += ns;
                c.probes_executed += r.probes_executed as u64;
                c.probes_pruned += r.probes_pruned as u64;
                c.probes_reused += r.probes_reused as u64;
                c.rewrites_on_miss += r.rewrites.len() as u64;
                c.considered += r.candidates_considered as u64;
                c.rejects_card += r.admission_rejects_card as u64;
                c.rejects_scan += r.admission_rejects_scan as u64;
                self.tr.enabled()
            }
        };
        if replay {
            self.replay(tier, db, kb, plan, &out);
        }
        (out, ns)
    }

    /// Re-run a served plan's matching stage by stage, as a detached
    /// root span, and compare its rewrites with the served ones when the
    /// knowledge base is still at the served epoch.
    fn replay(
        &self,
        tier: &ServingTier,
        db: &Database,
        kb: &KnowledgeBase,
        plan: &Qgm,
        out: &ServeOutcome,
    ) {
        let cfg = tier.config();
        let t0 = Instant::now();
        let e0 = kb.epoch();
        let (report, segments) = self.tr.span_root("matching.replay", || {
            let fp = self
                .tr
                .span("matching.fingerprint", || plan_fingerprint(db, plan, cfg));
            self.check(fp == out.fingerprint, || {
                format!(
                    "replayed fingerprint {fp:x} != served {:x}",
                    out.fingerprint
                )
            });
            let compiled = self
                .tr
                .span("matching.compile", || compile_plan(db, plan, cfg));
            let report = self
                .tr
                .span("matching.match", || match_compiled(db, kb, plan, &compiled));
            (report, compiled.segment_count())
        });
        let ns = t0.elapsed().as_nanos() as u64;
        let same_epoch = out.epoch == Some(e0) && kb.epoch() == e0;
        let mut c = self.ctr.borrow_mut();
        c.replay_total_ns += ns;
        if out.report.cache_hit {
            c.hit_replays += 1;
        } else {
            c.replay_ns += ns;
            c.replay_segments += segments as u64;
        }
        drop(c);
        if same_epoch {
            self.check(rewrite_key(&report) == rewrite_key(&out.report), || {
                format!("served rewrites differ from match_compiled at epoch {e0}")
            });
        } else {
            self.ctr.borrow_mut().replays_skipped += 1;
        }
    }

    pub fn insert(&self, kb: &KnowledgeBase, tpl: &Template) {
        self.tr.span("kb.insert", || kb.insert(tpl));
    }

    pub fn remove(&self, kb: &KnowledgeBase, iri: &str) -> bool {
        self.tr.span("kb.remove", || kb.remove_template(iri))
    }

    pub fn compact(&self, kb: &KnowledgeBase) -> Result<(), String> {
        self.tr
            .span("policy.compact", || kb.compact())
            .map_err(|e| format!("compact: {e}"))
    }

    /// Learn one workload into `galo`.
    pub fn learn(
        &self,
        galo: &Galo,
        source: Source,
        w: &Workload,
        cfg: &LearningConfig,
    ) -> LearningReport {
        let t0 = Instant::now();
        let report = self.tr.span("learning.learn", || galo.learn(w, cfg));
        let s = t0.elapsed().as_secs_f64();
        self.ctr
            .borrow_mut()
            .learned
            .push((source, s, report.clone()));
        report
    }

    /// Open (or reopen) a durable 2-shard knowledge base under `dir`,
    /// with the default background compactor when `compactor` is set.
    pub fn open_kb(&self, dir: &Path, compactor: bool) -> Result<Galo, String> {
        self.tr
            .span("persist.reopen", || {
                let mut b = KbBuilder::new().durable_dir(dir).shards(2);
                if compactor {
                    b = b.compaction_policy(galo_rdf::CompactionPolicy::default());
                }
                b.build_galo()
            })
            .map_err(|e| format!("open durable KB: {e:?}"))
    }

    /// Close a knowledge base (joins its compactor, flushes its logs).
    pub fn close(&self, galo: Galo) {
        self.tr.span("persist.close", || drop(galo));
    }
}
