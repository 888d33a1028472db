//! Seeded input generation.
//!
//! Every input of every workload is a pure function of `--seed`: stream
//! order, fresh query variants (new constants and join graphs from the
//! workload generators driven by a seeded rng), Zipf draws and the
//! scenario op stream. The program only ever receives what is generated
//! here as SQL text (parsed by `galo_sql::parse` inside the measured
//! loop), or the plans and templates derived from that text.
//!
//! The generators' own `Query` values are kept beside the text for the
//! correctness oracles only (`parse(to_sql(q))` must plan like `q`, and
//! `Galo::reoptimize` runs on `q` itself).

use galo_catalog::Database;
use galo_sql::Query;
use galo_workloads::tpcds::FkEdge;
use galo_workloads::{client, tpcds, Scenario, ScenarioSpec, Workload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The schema a query runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Source {
    Tpcds,
    Client,
}

impl Source {
    pub const ALL: [Source; 2] = [Source::Tpcds, Source::Client];

    pub fn name(self) -> &'static str {
        match self {
            Source::Tpcds => "tpcds",
            Source::Client => "client",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One generated query.
#[derive(Debug, Clone)]
pub struct GenQuery {
    pub source: Source,
    pub name: String,
    /// The text the program receives.
    pub sql: String,
    pub tables: usize,
    /// The generator's query, for the oracles only.
    pub query: Query,
}

impl GenQuery {
    fn new(source: Source, db: &Database, name: String, query: Query) -> Self {
        GenQuery {
            source,
            sql: query.to_sql(db),
            tables: query.tables.len(),
            name,
            query,
        }
    }
}

/// The two workloads' schemas and base query sets.
pub struct Schemas {
    pub tpcds: Workload,
    pub client: Workload,
    edges: Vec<FkEdge>,
}

impl Default for Schemas {
    fn default() -> Self {
        Schemas {
            tpcds: tpcds::workload(),
            client: client::workload(),
            edges: tpcds::fk_edges(),
        }
    }
}

impl Schemas {
    pub fn workload(&self, s: Source) -> &Workload {
        match s {
            Source::Tpcds => &self.tpcds,
            Source::Client => &self.client,
        }
    }

    pub fn db(&self, s: Source) -> &Database {
        &self.workload(s).db
    }

    /// Both workloads' base queries (99 TPC-DS, 116 client).
    pub fn base(&self) -> Vec<GenQuery> {
        Source::ALL
            .iter()
            .flat_map(|&s| {
                let w = self.workload(s);
                w.queries
                    .iter()
                    .map(move |q| GenQuery::new(s, &w.db, q.name.clone(), q.clone()))
            })
            .collect()
    }

    /// Base queries of at most `max_tables` tables.
    pub fn cheap_base(&self, max_tables: usize) -> Vec<GenQuery> {
        let mut v = self.base();
        v.retain(|g| g.tables <= max_tables);
        v
    }
}

/// Fresh query variants: the problem kernels of both workloads with new
/// constants, plus small generated TPC-DS join graphs.
pub struct VariantGen {
    rng: StdRng,
    made: usize,
    /// Percent of variants that are generated join graphs, not kernels.
    generated_pct: u32,
}

impl VariantGen {
    pub fn new(seed: u64, stream: u64) -> Self {
        VariantGen {
            rng: StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            made: 0,
            generated_pct: 25,
        }
    }

    /// Kernel variants share plan shapes; a plan pool that must hold many
    /// distinct plans draws mostly generated join graphs.
    pub fn mostly_generated(mut self) -> Self {
        self.generated_pct = 80;
        self
    }

    pub fn next_query(&mut self, s: &Schemas) -> GenQuery {
        let n = self.made;
        self.made += 1;
        // The kind of each variant, and a generated graph's size, cycle
        // with its index so every stretch of variants has the same mix;
        // the seed picks constants and join graphs within each kind.
        let slot = (n % 20) as u32 * 5;
        let kernels = 100 - self.generated_pct;
        let rng = &mut self.rng;
        let (source, q) = if slot < kernels * 8 / 15 {
            let kernel = rng.gen_range(0..15usize);
            let q = tpcds::kernel_query(&s.tpcds.db, n, kernel, rng);
            (Source::Tpcds, q)
        } else if slot < kernels {
            let kernel = rng.gen_range(0..18usize);
            let q = client::client_kernel(&s.client.db, n, kernel, rng);
            (Source::Client, q)
        } else {
            let tables = 2 + n % 4;
            let q = tpcds::generate_query(&s.tpcds.db, &s.edges, n, tables, rng);
            (Source::Tpcds, q)
        };
        let name = format!("{}_v{n}", source.name());
        GenQuery::new(source, s.db(source), name, q)
    }

    pub fn take(&mut self, s: &Schemas, n: usize) -> Vec<GenQuery> {
        (0..n).map(|_| self.next_query(s)).collect()
    }
}

/// `reopt_sql`: passes over the stream. Every pass holds the same
/// queries, every base query plus `variants` fresh variants, each pass in
/// its own seeded order: the first pass meets each query cold, the later
/// ones repeat it.
pub fn reopt_passes(s: &Schemas, seed: u64, passes: usize, variants: usize) -> Vec<Vec<GenQuery>> {
    let mut queries = s.base();
    queries.extend(VariantGen::new(seed, 1).take(s, variants));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0001);
    (0..passes)
        .map(|_| {
            let mut pass = queries.clone();
            pass.shuffle(&mut rng);
            pass
        })
        .collect()
}

/// Candidate queries for a plan pool: the cheap base queries, then
/// fresh variants, in seeded order. The pool keeps the first candidates
/// with distinct plans.
pub fn pool_candidates(s: &Schemas, seed: u64, stream: u64, variants: usize) -> Vec<GenQuery> {
    let mut v = s.cheap_base(6);
    let mut rng = StdRng::seed_from_u64(seed ^ stream);
    v.shuffle(&mut rng);
    v.extend(
        VariantGen::new(seed, stream)
            .mostly_generated()
            .take(s, variants),
    );
    v
}

/// Zipf(`exponent`) draws over ranks `0..n`, each rank mapped to a pool
/// index by a seeded permutation.
pub fn zipf_draws(seed: u64, n: usize, draws: usize, exponent: f64) -> Vec<u32> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for rank in 1..=n {
        acc += 1.0 / (rank as f64).powf(exponent);
        cdf.push(acc);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x21BF_0003);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(&mut rng);
    (0..draws)
        .map(|_| {
            let u = rng.gen::<f64>() * acc;
            let rank = cdf.partition_point(|&c| c < u).min(n - 1);
            perm[rank]
        })
        .collect()
}

/// `serve_churn`'s op stream: the repository's read-heavy scenario preset
/// (`ScenarioSpec::read_heavy`: 90% serves, 8% publishes, 2% retracts)
/// over `plans` pooled plans and `templates` template slots.
pub fn churn_scenario(seed: u64, ops: usize, plans: usize, templates: usize) -> Scenario {
    ScenarioSpec {
        name: "serve_churn".into(),
        plans,
        templates,
        ..ScenarioSpec::read_heavy(ops, seed)
    }
    .generate()
}

/// `learn_durable`: the fresh variants each learning cycle adds to the
/// two base workloads.
pub fn learn_cycles(s: &Schemas, seed: u64, cycles: usize, variants: usize) -> Vec<Vec<GenQuery>> {
    let mut gen = VariantGen::new(seed, 4);
    (0..cycles).map(|_| gen.take(s, variants)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a run of each workload receives, as one byte string.
    fn all_inputs(s: &Schemas, seed: u64) -> String {
        let mut out = String::new();
        for pass in reopt_passes(s, seed, 2, 50) {
            for g in pass {
                out.push_str(&g.sql);
            }
        }
        for g in pool_candidates(s, seed, 2, 100) {
            out.push_str(&g.sql);
        }
        out.push_str(&format!("{:?}", zipf_draws(seed, 300, 1000, 1.0)));
        out.push_str(&churn_scenario(seed, 500, 1024, 64).render());
        for cycle in learn_cycles(s, seed, 2, 20) {
            for g in cycle {
                out.push_str(&g.sql);
            }
        }
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let s = Schemas::default();
        let a = all_inputs(&s, 1);
        assert_eq!(a, all_inputs(&s, 1));
        assert_ne!(a, all_inputs(&s, 2));
        // Each part moves with the seed on its own.
        assert_ne!(zipf_draws(1, 300, 1000, 1.0), zipf_draws(2, 300, 1000, 1.0));
        assert_ne!(
            churn_scenario(1, 500, 1024, 64),
            churn_scenario(2, 500, 1024, 64)
        );
        let sql = |v: Vec<GenQuery>| v.into_iter().map(|g| g.sql).collect::<Vec<_>>();
        assert_ne!(
            sql(VariantGen::new(1, 1).take(&s, 20)),
            sql(VariantGen::new(2, 1).take(&s, 20))
        );
    }

    #[test]
    fn passes_repeat_the_same_queries_in_new_orders() {
        let s = Schemas::default();
        let passes = reopt_passes(&s, 9, 3, 40);
        fn sorted(p: &[GenQuery]) -> Vec<&str> {
            let mut v: Vec<&str> = p.iter().map(|g| g.sql.as_str()).collect();
            v.sort_unstable();
            v
        }
        for p in &passes {
            assert_eq!(p.len(), 215 + 40);
            let base = p.iter().filter(|g| !g.name.contains("_v")).count();
            assert_eq!(base, 215);
            assert_eq!(sorted(p), sorted(&passes[0]));
        }
        assert_ne!(
            passes[0].iter().map(|g| &g.sql).collect::<Vec<_>>(),
            passes[1].iter().map(|g| &g.sql).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let d = zipf_draws(3, 200, 20_000, 1.0);
        assert!(d.iter().all(|&i| i < 200));
        let mut counts = vec![0usize; 200];
        for &i in &d {
            counts[i as usize] += 1;
        }
        counts.sort_unstable();
        // Rank 1 of Zipf(1) over 200 holds ~17% of the draws.
        assert!(counts[199] > 2_000, "hottest plan drew {}", counts[199]);
    }
}
