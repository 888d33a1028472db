//! Microbenchmarks for the substrates GALO sits on: the cost-based
//! optimizer, the random plan generator, the runtime simulator, the RDF
//! store and the SPARQL evaluator. These are ablation-style measurements
//! of the substrate design choices.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use galo_core::segment_to_sparql;
use galo_executor::Simulator;
use galo_optimizer::Optimizer;
use galo_rdf::{IndexedStore, Term, TripleStore};
use galo_workloads::tpcds;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_optimizer(c: &mut Criterion) {
    let w = tpcds::workload();
    let optimizer = Optimizer::new(&w.db);
    let mut group = c.benchmark_group("optimize");
    for (label, pred) in [
        (
            "small(<=4t)",
            Box::new(|n: usize| n <= 4) as Box<dyn Fn(usize) -> bool>,
        ),
        ("mid(8-10t)", Box::new(|n: usize| (8..=10).contains(&n))),
        ("wide(>=20t)", Box::new(|n: usize| n >= 20)),
    ] {
        let Some(query) = w.queries.iter().find(|q| pred(q.tables.len())) else {
            continue;
        };
        group.bench_with_input(BenchmarkId::from_parameter(label), query, |b, q| {
            b.iter(|| optimizer.optimize(q).expect("plans").len())
        });
    }
    group.finish();
}

fn bench_random_plans(c: &mut Criterion) {
    let w = tpcds::workload();
    let optimizer = Optimizer::new(&w.db);
    let query = w
        .queries
        .iter()
        .find(|q| q.tables.len() == 4)
        .unwrap_or(&w.queries[0]);
    c.bench_function("random_plan_generate_10", |b| {
        let gen = optimizer.random_plans(query);
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            gen.generate_distinct(10, &mut rng).len()
        })
    });
}

fn bench_simulator(c: &mut Criterion) {
    let w = tpcds::workload();
    let optimizer = Optimizer::new(&w.db);
    let sim = Simulator::new(&w.db);
    let plan = optimizer.optimize(&w.queries[0]).expect("plans");
    c.bench_function("simulate_run_warm", |b| {
        b.iter(|| sim.run(&plan, true).elapsed_ms)
    });
}

fn bench_rdf(c: &mut Criterion) {
    // Store insert + indexed scan.
    c.bench_function("rdf_insert_1000_triples", |b| {
        b.iter(|| {
            let mut st = IndexedStore::new();
            for i in 0..1000u32 {
                st.insert(
                    Term::iri(format!("http://galo/qep/pop/{i}")),
                    Term::iri("http://galo/qep/property/hasEstimateCardinality"),
                    Term::lit(format!("{}", i * 17)),
                );
            }
            st.len()
        })
    });

    // SPARQL generation + evaluation over a plan-shaped store.
    let w = tpcds::workload();
    let optimizer = Optimizer::new(&w.db);
    let plan = optimizer.optimize(&w.queries[0]).expect("plans");
    c.bench_function("segment_to_sparql", |b| {
        b.iter(|| segment_to_sparql(&w.db, &plan, plan.root()).len())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_optimizer, bench_random_plans, bench_simulator, bench_rdf
}
criterion_main!(benches);
