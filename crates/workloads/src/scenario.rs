//! Schema-driven scenario generator for storage-policy evaluation.
//!
//! A *scenario* is a deterministic operation stream over the knowledge
//! base — the storage-facing counterpart of the query workloads in
//! [`tpcds`](crate::tpcds) and [`client`](crate::client). Where those
//! describe *what* is asked, a scenario describes the *op mix* the KB
//! endures while serving: reads (`serve`), template publications
//! (`publish`) and retractions (`retract`), interleaved per a weighted
//! mix and drawn from bounded pools so the same spec replays bit-for-bit
//! from its seed.
//!
//! Three presets cover the regimes the background compactor must handle:
//!
//! * [`ScenarioSpec::read_heavy`] — the serving tier's steady state:
//!   almost all serves, a trickle of publishes. WAL pressure grows
//!   slowly; the compactor's *idle folding* should absorb it.
//! * [`ScenarioSpec::churn_heavy`] — an off-peak learning run with
//!   aggressive re-learning: publish/retract dominate, the WAL grows
//!   fast, and folding on the write path would repeatedly stall it.
//! * [`ScenarioSpec::mixed_tenant`] — several workloads publishing and
//!   retracting concurrently with serving, the multi-tenant shape the
//!   paper's shared knowledge base implies (§4).
//!
//! Scenarios render to a line-oriented text form ([`Scenario::render`] /
//! [`Scenario::parse`]) so a bench artifact can embed exactly what it
//! replayed.
//!
//! Validity invariant: a generated `retract` always targets a slot that
//! is published at that point of the stream (the generator tracks the
//! live set and converts impossible retracts into publishes), so a
//! replay never issues a no-op retraction and the op counts are honest.

use std::fmt::Write as _;

/// One operation of a scenario stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioOp {
    /// Serve plan `plan` (an index into the replayer's plan pool).
    Serve { plan: usize },
    /// Publish template slot `template`, tagged as tenant `tenant`.
    Publish { template: usize, tenant: usize },
    /// Retract template slot `template` (published at this point).
    Retract { template: usize },
}

/// Relative weights of the three op kinds. Zero is legal for any weight;
/// at least one must be positive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    pub serve: u32,
    pub publish: u32,
    pub retract: u32,
}

impl OpMix {
    fn total(&self) -> u64 {
        self.serve as u64 + self.publish as u64 + self.retract as u64
    }
}

/// The schema of a scenario: pools, mix and seed. Generation is a pure
/// function of this struct — equal specs yield equal op streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Scenario name (carried into bench labels and the rendered form).
    pub name: String,
    /// Number of operations to generate.
    pub ops: usize,
    /// Weighted op mix.
    pub mix: OpMix,
    /// Size of the plan pool serves cycle over.
    pub plans: usize,
    /// Size of the template slot pool publishes/retracts draw from.
    pub templates: usize,
    /// Number of tenants (workload tags) publications rotate through.
    pub tenants: usize,
    /// Generator seed.
    pub seed: u64,
}

impl ScenarioSpec {
    /// Serving steady state: ~90% serves, sparse publishes, rare
    /// retractions.
    pub fn read_heavy(ops: usize, seed: u64) -> Self {
        ScenarioSpec {
            name: "read_heavy".into(),
            ops,
            mix: OpMix {
                serve: 90,
                publish: 8,
                retract: 2,
            },
            plans: 32,
            templates: 64,
            tenants: 1,
            seed,
        }
    }

    /// Off-peak re-learning: publish/retract churn dominates, serves
    /// are the minority that must not stall behind checkpointing.
    pub fn churn_heavy(ops: usize, seed: u64) -> Self {
        ScenarioSpec {
            name: "churn_heavy".into(),
            ops,
            mix: OpMix {
                serve: 20,
                publish: 50,
                retract: 30,
            },
            plans: 16,
            templates: 48,
            tenants: 1,
            seed,
        }
    }

    /// Several workloads publishing and retracting while serving
    /// continues — the shared-KB multi-tenant shape.
    pub fn mixed_tenant(ops: usize, seed: u64) -> Self {
        ScenarioSpec {
            name: "mixed_tenant".into(),
            ops,
            mix: OpMix {
                serve: 50,
                publish: 30,
                retract: 20,
            },
            plans: 24,
            templates: 96,
            tenants: 4,
            seed,
        }
    }

    /// Generate the deterministic op stream this spec describes.
    ///
    /// # Panics
    ///
    /// When the spec is degenerate: zero total mix weight, an empty plan
    /// pool with a positive serve weight, or an empty template pool with
    /// a positive publish/retract weight.
    pub fn generate(&self) -> Scenario {
        assert!(self.mix.total() > 0, "op mix must have a positive weight");
        assert!(
            self.mix.serve == 0 || self.plans > 0,
            "serves need a non-empty plan pool"
        );
        assert!(
            self.mix.publish + self.mix.retract == 0 || self.templates > 0,
            "publishes/retracts need a non-empty template pool"
        );
        let mut rng = Xorshift::new(self.seed);
        let mut published = vec![false; self.templates];
        let mut live = 0usize;
        let mut ops = Vec::with_capacity(self.ops);
        for _ in 0..self.ops {
            let r = rng.next() % self.mix.total();
            let op = if r < self.mix.serve as u64 {
                ScenarioOp::Serve {
                    plan: rng.index(self.plans),
                }
            } else {
                // Publish and retract share the slot pool. A retract with
                // nothing live converts to a publish (never a no-op); a
                // publish prefers a free slot so churn is real churn, and
                // falls back to a live slot (an idempotent re-publish)
                // only when the whole pool is live.
                let retract = r >= (self.mix.serve + self.mix.publish) as u64 && live > 0;
                if retract {
                    let slot = Self::nth_with(&published, true, rng.index(live));
                    published[slot] = false;
                    live -= 1;
                    ScenarioOp::Retract { template: slot }
                } else {
                    let free = self.templates - live;
                    let slot = if free > 0 {
                        Self::nth_with(&published, false, rng.index(free))
                    } else {
                        Self::nth_with(&published, true, rng.index(live))
                    };
                    if !published[slot] {
                        published[slot] = true;
                        live += 1;
                    }
                    ScenarioOp::Publish {
                        template: slot,
                        tenant: rng.index(self.tenants.max(1)),
                    }
                }
            };
            ops.push(op);
        }
        Scenario {
            spec: self.clone(),
            ops,
        }
    }

    /// Index of the `n`-th slot (0-based) whose published flag equals
    /// `state`. Caller guarantees at least `n + 1` such slots exist.
    fn nth_with(published: &[bool], state: bool, n: usize) -> usize {
        published
            .iter()
            .enumerate()
            .filter(|(_, &p)| p == state)
            .nth(n)
            .expect("generator tracked the live count")
            .0
    }
}

/// A generated scenario: the spec plus its op stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    pub spec: ScenarioSpec,
    pub ops: Vec<ScenarioOp>,
}

const RENDER_HEADER: &str = "# galo-scenario v1";

impl Scenario {
    /// Operation counts `(serves, publishes, retracts)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for op in &self.ops {
            match op {
                ScenarioOp::Serve { .. } => c.0 += 1,
                ScenarioOp::Publish { .. } => c.1 += 1,
                ScenarioOp::Retract { .. } => c.2 += 1,
            }
        }
        c
    }

    /// Render to the line-oriented text form [`parse`](Self::parse)
    /// reads back. Round-trips exactly.
    pub fn render(&self) -> String {
        let s = &self.spec;
        let mut out = String::new();
        let _ = writeln!(out, "{RENDER_HEADER}");
        let _ = writeln!(out, "name {}", s.name);
        let _ = writeln!(out, "seed {}", s.seed);
        let _ = writeln!(
            out,
            "mix {} {} {}",
            s.mix.serve, s.mix.publish, s.mix.retract
        );
        let _ = writeln!(
            out,
            "pools plans={} templates={} tenants={}",
            s.plans, s.templates, s.tenants
        );
        for op in &self.ops {
            match op {
                ScenarioOp::Serve { plan } => {
                    let _ = writeln!(out, "op serve {plan}");
                }
                ScenarioOp::Publish { template, tenant } => {
                    let _ = writeln!(out, "op publish {template} {tenant}");
                }
                ScenarioOp::Retract { template } => {
                    let _ = writeln!(out, "op retract {template}");
                }
            }
        }
        out
    }

    /// Parse the text form produced by [`render`](Self::render).
    pub fn parse(text: &str) -> Result<Scenario, ScenarioParseError> {
        let err = |line: usize, what: &str| ScenarioParseError {
            line,
            what: what.to_string(),
        };
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, l)) if l.trim() == RENDER_HEADER => {}
            _ => return Err(err(1, "missing `# galo-scenario v1` header")),
        }
        let mut name = None;
        let mut seed = None;
        let mut mix = None;
        let mut pools = None;
        let mut ops = Vec::new();
        for (i, raw) in lines {
            let line = raw.trim();
            let lineno = i + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "name" => name = Some(rest.trim().to_string()),
                "seed" => {
                    seed = Some(
                        rest.trim()
                            .parse::<u64>()
                            .map_err(|_| err(lineno, "seed must be a u64"))?,
                    )
                }
                "mix" => {
                    let ws: Vec<u32> = rest
                        .split_whitespace()
                        .map(|w| w.parse::<u32>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| err(lineno, "mix weights must be u32"))?;
                    let [serve, publish, retract] = ws[..] else {
                        return Err(err(lineno, "mix takes exactly three weights"));
                    };
                    mix = Some(OpMix {
                        serve,
                        publish,
                        retract,
                    });
                }
                "pools" => {
                    let mut plans = None;
                    let mut templates = None;
                    let mut tenants = None;
                    for kv in rest.split_whitespace() {
                        let (k, v) = kv
                            .split_once('=')
                            .ok_or_else(|| err(lineno, "pools entries are key=value"))?;
                        let v: usize = v
                            .parse()
                            .map_err(|_| err(lineno, "pool sizes must be usize"))?;
                        match k {
                            "plans" => plans = Some(v),
                            "templates" => templates = Some(v),
                            "tenants" => tenants = Some(v),
                            _ => return Err(err(lineno, "unknown pool")),
                        }
                    }
                    match (plans, templates, tenants) {
                        (Some(p), Some(t), Some(n)) => pools = Some((p, t, n)),
                        _ => return Err(err(lineno, "pools needs plans, templates, tenants")),
                    }
                }
                "op" => {
                    let mut parts = rest.split_whitespace();
                    let kind = parts.next().ok_or_else(|| err(lineno, "op needs a kind"))?;
                    let mut num = |what: &str| -> Result<usize, ScenarioParseError> {
                        parts
                            .next()
                            .ok_or_else(|| err(lineno, what))?
                            .parse::<usize>()
                            .map_err(|_| err(lineno, what))
                    };
                    let op = match kind {
                        "serve" => ScenarioOp::Serve {
                            plan: num("serve needs a plan index")?,
                        },
                        "publish" => ScenarioOp::Publish {
                            template: num("publish needs a template slot")?,
                            tenant: num("publish needs a tenant")?,
                        },
                        "retract" => ScenarioOp::Retract {
                            template: num("retract needs a template slot")?,
                        },
                        _ => return Err(err(lineno, "unknown op kind")),
                    };
                    if parts.next().is_some() {
                        return Err(err(lineno, "trailing operands"));
                    }
                    ops.push(op);
                }
                _ => return Err(err(lineno, "unknown directive")),
            }
        }
        let name = name.ok_or_else(|| err(0, "missing `name`"))?;
        let seed = seed.ok_or_else(|| err(0, "missing `seed`"))?;
        let mix = mix.ok_or_else(|| err(0, "missing `mix`"))?;
        let (plans, templates, tenants) = pools.ok_or_else(|| err(0, "missing `pools`"))?;
        Ok(Scenario {
            spec: ScenarioSpec {
                name,
                ops: ops.len(),
                mix,
                plans,
                templates,
                tenants,
                seed,
            },
            ops,
        })
    }
}

/// A parse failure: the 1-based line (0 when a required directive never
/// appeared) and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioParseError {
    pub line: usize,
    pub what: String,
}

impl std::fmt::Display for ScenarioParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "scenario parse error: {}", self.what)
        } else {
            write!(
                f,
                "scenario parse error at line {}: {}",
                self.line, self.what
            )
        }
    }
}

impl std::error::Error for ScenarioParseError {}

/// xorshift64* — tiny, seedable, good enough for op mixing. The seed is
/// pre-scrambled (splitmix64 step) so small seeds don't correlate.
struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Xorshift((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform-enough index into `0..n` (`n > 0`).
    fn index(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = ScenarioSpec::churn_heavy(500, 42).generate();
        let b = ScenarioSpec::churn_heavy(500, 42).generate();
        assert_eq!(a, b);
        let c = ScenarioSpec::churn_heavy(500, 43).generate();
        assert_ne!(a.ops, c.ops, "different seeds should differ");
    }

    #[test]
    fn mix_ratios_are_roughly_honored() {
        let s = ScenarioSpec::read_heavy(2000, 7).generate();
        let (serves, publishes, retracts) = s.counts();
        assert_eq!(serves + publishes + retracts, 2000);
        // 90/8/2 split: serves clearly dominate.
        assert!(serves > 1600, "{serves}");
        assert!(publishes > retracts, "{publishes} vs {retracts}");
        let churn = ScenarioSpec::churn_heavy(2000, 7).generate();
        let (cs, cp, _) = churn.counts();
        assert!(cp > cs, "churn scenario should publish more than serve");
    }

    #[test]
    fn retracts_always_target_a_live_slot() {
        for seed in 0..5 {
            let s = ScenarioSpec::mixed_tenant(1000, seed).generate();
            let mut live = vec![false; s.spec.templates];
            for op in &s.ops {
                match *op {
                    ScenarioOp::Publish { template, tenant } => {
                        assert!(template < s.spec.templates);
                        assert!(tenant < s.spec.tenants);
                        live[template] = true;
                    }
                    ScenarioOp::Retract { template } => {
                        assert!(live[template], "retract of a dead slot (seed {seed})");
                        live[template] = false;
                    }
                    ScenarioOp::Serve { plan } => assert!(plan < s.spec.plans),
                }
            }
        }
    }

    #[test]
    fn mixed_tenant_uses_multiple_tenants() {
        let s = ScenarioSpec::mixed_tenant(1000, 1).generate();
        let tenants: std::collections::BTreeSet<usize> = s
            .ops
            .iter()
            .filter_map(|op| match op {
                ScenarioOp::Publish { tenant, .. } => Some(*tenant),
                _ => None,
            })
            .collect();
        assert!(tenants.len() > 1, "{tenants:?}");
    }

    #[test]
    fn render_parse_round_trips() {
        for spec in [
            ScenarioSpec::read_heavy(200, 9),
            ScenarioSpec::churn_heavy(200, 9),
            ScenarioSpec::mixed_tenant(200, 9),
        ] {
            let s = spec.generate();
            let parsed = Scenario::parse(&s.render()).unwrap();
            assert_eq!(parsed, s);
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Scenario::parse("").unwrap_err().what.contains("header"));
        let base = "# galo-scenario v1\nname x\nseed 1\nmix 1 1 1\n\
                    pools plans=1 templates=1 tenants=1\n";
        assert!(Scenario::parse(base).is_ok());
        for (bad, needle) in [
            ("op warp 3\n", "unknown op kind"),
            ("op serve\n", "plan index"),
            ("op publish 1\n", "tenant"),
            ("op serve 1 2\n", "trailing"),
            ("mix 1 2\n", "exactly three"),
            ("pools plans=1\n", "needs plans, templates, tenants"),
            ("seed -4\n", "u64"),
            ("frobnicate\n", "unknown directive"),
        ] {
            let text = format!("{base}{bad}");
            let e = Scenario::parse(&text).unwrap_err();
            assert!(e.what.contains(needle), "{bad:?} -> {e}");
            assert!(e.line > 0, "{e}");
        }
        // A required directive missing entirely reports line 0.
        let e = Scenario::parse("# galo-scenario v1\nname x\n").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.to_string().contains("missing"));
    }

    #[test]
    fn degenerate_specs_panic_loudly() {
        let zero_mix = ScenarioSpec {
            mix: OpMix {
                serve: 0,
                publish: 0,
                retract: 0,
            },
            ..ScenarioSpec::read_heavy(10, 1)
        };
        assert!(std::panic::catch_unwind(move || zero_mix.generate()).is_err());
        let no_plans = ScenarioSpec {
            plans: 0,
            ..ScenarioSpec::read_heavy(10, 1)
        };
        assert!(std::panic::catch_unwind(move || no_plans.generate()).is_err());
    }
}
