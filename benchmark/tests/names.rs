//! `BENCHMARK.json` and the benchmark say the same thing: the workloads
//! and metrics a `--quick` run emits are exactly those the contract file
//! lists, in both directions, well-formed and finite.

use mknn_benchmark::metrics::{END_TO_END, PER_LAYER};
use mknn_benchmark::report::Report;
use mknn_benchmark::workloads::{Scale, WORKLOADS};
use mknn_benchmark::{timed, traced, RUN_SECONDS};
use mknn_util::Json;
use std::collections::BTreeSet;

fn contract() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn rows<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.field(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|e| panic!("BENCHMARK.json {key}: {e}"))
}

fn text<'a>(row: &'a Json, key: &str) -> &'a str {
    row.field(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|e| panic!("BENCHMARK.json row {}: {e}", row.render()))
}

/// The keys of a JSON object, in order.
fn keys(obj: &Json) -> Vec<&str> {
    obj.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn catalogue_and_contract_file_agree() {
    let doc = contract();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.field("run_seconds").unwrap().as_f64().unwrap(),
        RUN_SECONDS
    );
    assert_eq!(
        doc.field("paths").unwrap().render(),
        r#"["benchmark"]"#,
        "the benchmark lives in benchmark/ and nowhere else"
    );

    let listed: Vec<_> = rows(&doc, "workloads")
        .iter()
        .map(|r| (text(r, "name"), text(r, "why")))
        .collect();
    let ours: Vec<_> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(listed, ours);

    let listed: Vec<_> = rows(&doc, "end_to_end")
        .iter()
        .map(|r| {
            assert_eq!(keys(r), ["name", "unit", "better", "bound"]);
            let bound = r.field("bound").unwrap().as_f64().unwrap();
            (text(r, "name"), text(r, "unit"), text(r, "better"), bound)
        })
        .collect();
    let ours: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better.label(), m.bound))
        .collect();
    assert_eq!(listed, ours);

    let listed: Vec<_> = rows(&doc, "per_layer")
        .iter()
        .map(|r| {
            assert_eq!(keys(r), ["name", "unit", "better"]);
            (text(r, "name"), text(r, "unit"), text(r, "better"))
        })
        .collect();
    let ours: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, m.better.label()))
        .collect();
    assert_eq!(listed, ours);
}

#[test]
fn names_units_and_bounds_are_well_formed() {
    let mut seen = BTreeSet::new();
    for w in WORKLOADS {
        assert!(is_name(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        assert!(seen.insert(w.name), "{} is used twice", w.name);
    }
    for m in END_TO_END {
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        assert!(seen.insert(m.name), "{} is used twice", m.name);
    }
    for m in PER_LAYER {
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
        assert!(seen.insert(m.name), "{} is used twice", m.name);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better.label()), ("s", "lower"));
    let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, widest, "set-up time gets the largest bound");
}

/// What a run emitted must be the listed names, in order, all finite, under
/// a result line of exactly the contract's four keys.
fn assert_emits(report: &Report, listed: &[&str]) {
    assert!(report.correct, "{:?}", report.info);
    assert!(report.attempted >= 1);
    let result = report.result_json();
    assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(keys(result.field("metrics").unwrap()), listed);
    for &(name, value) in &report.metrics {
        assert!(value.is_finite(), "{name} = {value}");
    }
}

#[test]
fn quick_runs_emit_exactly_the_listed_metrics() {
    let end_to_end: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
    let per_layer: Vec<_> = PER_LAYER.iter().map(|m| m.name).collect();
    for w in WORKLOADS {
        let timed = timed::run(w, 42, 0.0, Scale::QUICK);
        assert_emits(&timed, &end_to_end);
        for m in END_TO_END {
            let value = timed.metrics.iter().find(|(n, _)| *n == m.name).unwrap().1;
            assert!(value > 0.0, "{} on {} must never be 0", m.name, w.name);
        }
        let traced = traced::run(w, 42, 0.0, Scale::QUICK);
        assert_emits(&traced, &per_layer);
        // Same seed, same counted window: the two runs saw the same episode.
        let digest = |r: &Report| {
            let (_, d) = r.info.iter().find(|(k, _)| *k == "metrics_digest").unwrap();
            d.clone()
        };
        assert_eq!(digest(&timed), digest(&traced), "{}", w.name);
    }
}
