//! Ablation benchmarks for three design choices of the reproduction:
//!
//! * exhaustive DP vs greedy join enumeration (plan quality and time);
//! * bloom-filter hash joins on vs off;
//! * K-means run-cleaning vs naive averaging under anomaly noise.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use galo_core::score_runs;
use galo_executor::{db2batch, NoiseModel, Simulator};
use galo_optimizer::{Optimizer, PlannerConfig};
use galo_workloads::tpcds;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_dp_vs_greedy(c: &mut Criterion) {
    let w = tpcds::workload();
    let query = w
        .queries
        .iter()
        .filter(|q| q.tables.len() <= 10)
        .max_by_key(|q| q.tables.len())
        .expect("mid-size query exists");

    let mut group = c.benchmark_group("join_enumeration");
    for (label, dp_limit) in [("dp", 10usize), ("greedy", 1)] {
        let opt = Optimizer::with_config(
            &w.db,
            PlannerConfig {
                dp_unit_limit: dp_limit,
                enable_bloom: true,
            },
        );
        group.bench_with_input(BenchmarkId::from_parameter(label), query, |b, q| {
            b.iter(|| opt.optimize(q).expect("plans").est_cost())
        });
    }
    group.finish();

    // Quality side of the ablation (printed once, not timed): greedy never
    // beats DP on believed cost.
    let dp = Optimizer::with_config(
        &w.db,
        PlannerConfig {
            dp_unit_limit: 10,
            enable_bloom: true,
        },
    );
    let greedy = Optimizer::with_config(
        &w.db,
        PlannerConfig {
            dp_unit_limit: 1,
            enable_bloom: true,
        },
    );
    let (mut wins, mut ties, mut total) = (0usize, 0usize, 0usize);
    for q in w.queries.iter().filter(|q| q.tables.len() <= 9) {
        let (Ok(a), Ok(b)) = (dp.optimize(q), greedy.optimize(q)) else {
            continue;
        };
        total += 1;
        if a.est_cost() < b.est_cost() * 0.999 {
            wins += 1;
        } else {
            ties += 1;
        }
    }
    println!("[ablation] DP beats greedy on {wins}/{total} small queries (ties {ties})");
}

fn bench_bloom_ablation(c: &mut Criterion) {
    let w = tpcds::workload();
    // A selective star join is where the bloom filter matters.
    let query = w
        .queries
        .iter()
        .find(|q| q.tables.len() >= 3 && !q.locals.is_empty())
        .expect("predicated query exists");
    let sim = Simulator::new(&w.db);
    let mut group = c.benchmark_group("bloom_filter");
    for (label, bloom) in [("on", true), ("off", false)] {
        let opt = Optimizer::with_config(
            &w.db,
            PlannerConfig {
                dp_unit_limit: 10,
                enable_bloom: bloom,
            },
        );
        let plan = opt.optimize(query).expect("plans");
        group.bench_with_input(BenchmarkId::from_parameter(label), &plan, |b, p| {
            b.iter(|| sim.run(p, true).elapsed_ms)
        });
    }
    group.finish();
}

fn bench_ranking_ablation(c: &mut Criterion) {
    let w = tpcds::workload();
    let opt = Optimizer::new(&w.db);
    let plan = opt.optimize(&w.queries[0]).expect("plans");
    let noise = NoiseModel {
        anomaly_rate: 0.25,
        ..NoiseModel::default()
    };
    let runs = db2batch(&w.db, &plan, 12, &noise, &mut StdRng::seed_from_u64(5));

    let mut group = c.benchmark_group("run_ranking");
    group.bench_function("kmeans_cleaned", |b| {
        b.iter(|| score_runs(&runs).elapsed_ms)
    });
    group.bench_function("naive_mean", |b| {
        b.iter(|| runs.iter().map(|r| r.elapsed_ms).sum::<f64>() / runs.len() as f64)
    });
    group.finish();

    // Accuracy side (printed once): the cleaned estimate sits far closer
    // to the true steady-state runtime than the naive mean under anomalies.
    let truth = Simulator::new(&w.db).run(&plan, true).elapsed_ms;
    let cleaned = score_runs(&runs).elapsed_ms;
    let naive = runs.iter().map(|r| r.elapsed_ms).sum::<f64>() / runs.len() as f64;
    println!(
        "[ablation] truth {truth:.1} ms | kmeans-cleaned {cleaned:.1} ms (err {:.1}%) | naive {naive:.1} ms (err {:.1}%)",
        100.0 * (cleaned - truth).abs() / truth,
        100.0 * (naive - truth).abs() / truth,
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_dp_vs_greedy, bench_bloom_ablation, bench_ranking_ablation
}
criterion_main!(benches);
