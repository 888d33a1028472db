//! Metric names, units and the result line.
//!
//! The two tables below are the benchmark's output contract: a run
//! without tracing prints every end-to-end metric, a traced run every
//! per-layer metric, each under exactly these names and units (a test
//! holds `BENCHMARK.json` to the same tables).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them; `op` is the workload's unit of work (see
/// the README).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_us", "us"),
    ("ops_s", "1/s"),
    ("serve_p50_us", "us"),
    ("learn_subq_s", "1/s"),
    ("reopen_ms", "ms"),
    ("disk_bytes_per_tpl", "B"),
    ("improved_frac", "frac"),
    ("regressed_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sql.parse_us_p50", "us"),
    ("sql.parse_us_p99", "us"),
    ("sql.self_share", "frac"),
    ("optimizer.plan_ms_p50", "ms"),
    ("optimizer.plan_ms_p99", "ms"),
    ("optimizer.replan_ms_p50", "ms"),
    ("optimizer.replan_ms_p99", "ms"),
    ("optimizer.self_share", "frac"),
    ("optimizer.guidelines_honored_frac", "frac"),
    ("executor.sim_us_p50", "us"),
    ("executor.sim_us_p99", "us"),
    ("executor.self_share", "frac"),
    ("executor.sim_machine_min", "min"),
    ("serving.hit_us_p50", "us"),
    ("serving.hit_us_p99", "us"),
    ("serving.miss_us_p50", "us"),
    ("serving.miss_us_p99", "us"),
    ("serving.self_share", "frac"),
    ("serving.hit_frac", "frac"),
    ("serving.stale_drops", "count"),
    ("serving.evictions", "count"),
    ("serving.unvalidated_frac", "frac"),
    ("matching.fingerprint_us_p50", "us"),
    ("matching.compile_us_p50", "us"),
    ("matching.compile_us_p99", "us"),
    ("matching.match_us_p50", "us"),
    ("matching.match_us_p99", "us"),
    ("matching.probes_per_miss", "count"),
    ("matching.pruned_per_miss", "count"),
    ("matching.reused_frac", "frac"),
    ("matching.rewrites_per_probe", "count"),
    ("matching.miss_coverage", "frac"),
    ("admission.considered_per_miss", "count"),
    ("admission.reject_card_frac", "frac"),
    ("admission.reject_scan_frac", "frac"),
    ("kb.insert_us_p50", "us"),
    ("kb.insert_us_p99", "us"),
    ("kb.remove_us_p50", "us"),
    ("kb.remove_us_p99", "us"),
    ("kb.self_share", "frac"),
    ("persist.reopen_ms_p50", "ms"),
    ("persist.wal_bytes_per_write", "B"),
    ("persist.wal_records_at_close", "count"),
    ("persist.disk_bytes", "B"),
    ("persist.self_share", "frac"),
    ("shard.triples_max_over_mean", "ratio"),
    ("policy.folds", "count"),
    ("policy.folds_failed", "count"),
    ("policy.compact_ms", "ms"),
    ("policy.self_share", "frac"),
    ("learning.tpcds_s", "s"),
    ("learning.client_s", "s"),
    ("learning.subq_ms_p50", "ms"),
    ("learning.subq_ms_p99", "ms"),
    ("learning.unique_frac", "frac"),
    ("learning.template_yield", "frac"),
    ("learning.templates", "count"),
    ("learning.self_share", "frac"),
    ("bench.op_us_p99", "us"),
    ("bench.self_share", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// The metrics one run reports.
pub type Values = BTreeMap<&'static str, f64>;

/// Escape a string for a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number keeping every digit Rust prints (the shortest
/// representation that reads back as the same `f64`).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line. `table` is the set the run must report; a name
/// missing from `values` is a bug in the benchmark.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &Values,
) -> String {
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let v = values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not computed"));
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(*v),
            json_str(unit)
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} used twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    /// The `(name, unit)` pairs of one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("section {section}"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section ends")];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\"")).expect(key) + key.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("string value") + 1;
            let close = rest[open..].find('"').expect("string end");
            rest[open..open + close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(END_TO_END));
        assert_eq!(declared("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_has_every_metric_in_order() {
        let mut values = Values::new();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            values.insert(name, i as f64 + 0.125);
        }
        let line = result_line(true, 10, 0, END_TO_END, &values);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}"));
        let mut last = 0;
        for (name, _) in END_TO_END {
            let at = line.find(&format!("\"{name}\"")).expect(name);
            assert!(at > last);
            last = at;
        }
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
