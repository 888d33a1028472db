//! The GALO benchmark: four seeded workloads driven through the public
//! API, end-to-end metrics from untraced runs, per-layer metrics from
//! traced ones. See README.md in this directory.
//!
//! ```text
//! cargo run --release --manifest-path galobench/Cargo.toml -- \
//!     --workload reopt_sql --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. Lines
//! before it, starting with `#`, characterize the run's inputs.

mod bench;
mod calls;
mod inputs;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::{Ctx, Outcome};
use calls::Calls;
use inputs::Schemas;

const WORKLOADS: &[&str] = &["reopt_sql", "serve_hot", "serve_churn", "learn_durable"];

const USAGE: &str =
    "usage: galobench --workload <reopt_sql|serve_hot|serve_churn|learn_durable> --seed <n> --seconds <s> --trace <0|1>";

/// Scratch space for durable knowledge bases, relative to the checkout.
const SCRATCH: &str = ".bench_scratch";
/// Where traced runs write their spans, relative to the checkout.
const SPANS_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value}"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("galobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = Path::new(SCRATCH).join(format!("{}-{}", args.workload, std::process::id()));
    let result = run(&args, scratch.clone());
    let _ = std::fs::remove_dir_all(&scratch);
    // Leave no empty scratch root behind (fails harmlessly when another
    // run still uses it).
    let _ = std::fs::remove_dir(SCRATCH);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("galobench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, scratch: PathBuf) -> Result<String, String> {
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let ctx = Ctx::new(args.seed, args.seconds, args.trace, scratch);
    let calls = Calls::new(&ctx.tracer);
    let schemas = Schemas::default();
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "reopt_sql" => workloads::reopt_sql::run(&ctx, &calls, &schemas, &mut out)?,
        "serve_hot" => workloads::serve_hot::run(&ctx, &calls, &schemas, &mut out)?,
        "serve_churn" => workloads::serve_churn::run(&ctx, &calls, &schemas, &mut out)?,
        "learn_durable" => workloads::learn_durable::run(&ctx, &calls, &schemas, &mut out)?,
        other => return Err(format!("unknown workload {other}")),
    }
    ctx.tracer.set_enabled(false);
    if out.attempted == 0 {
        return Err("no operation completed".into());
    }

    let c = calls.ctr.borrow();
    // A wrong answer counts as a failed operation, and fails the run.
    let wrong = c.oracle_failures.len() as u64;
    for f in c.oracle_failures.iter().take(10) {
        eprintln!("oracle failed: {f}");
    }
    out.failed = (out.failed + wrong).min(out.attempted);
    let correct = wrong == 0;

    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for n in &out.notes {
        println!("# {n}");
    }
    let op = out.op.all();
    let serve = out.serve.all();
    println!(
        "# samples: {} ops (tail p{:.1}), {} serves (tail p{:.1}), hit share {:.4} of all {} serves; \
         oracle checks {} ({} replays skipped at a moved epoch); {} failed ops; cpus {}",
        out.op.count(),
        op.tail().0,
        out.serve.count(),
        serve.tail().0,
        c.hits as f64 / c.serves.max(1) as f64,
        c.serves,
        c.oracle_checks,
        c.replays_skipped,
        out.failed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let (table, values) = if args.trace {
        let spans = ctx.tracer.take_spans();
        std::fs::create_dir_all(SPANS_DIR).map_err(|e| format!("create {SPANS_DIR}: {e}"))?;
        let path =
            Path::new(SPANS_DIR).join(format!("{}-seed{}.spans.tsv", args.workload, args.seed));
        trace::write_spans(&path, &spans).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("# {} spans written to {}", spans.len(), path.display());
        (metrics::PER_LAYER, bench::per_layer(&out, &c, &spans))
    } else {
        (metrics::END_TO_END, bench::end_to_end(&out, &c))
    };
    Ok(metrics::result_line(
        correct,
        out.attempted,
        out.failed,
        table,
        &values,
    ))
}
