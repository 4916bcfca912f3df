//! Smoke tests for the experiment regenerators: every experiment id
//! resolves, runs at a miniature scale, and produces a well-formed table.
//!
//! These tests monkey-patch nothing — they run the real sweep code on the
//! fast scale with the environment shrunk via the public config surface, so
//! a broken experiment fails CI rather than the release-day run.

use mknn_bench::experiments::{self, Scale};

/// The fast scale is still too big for unit-test latency; E1 and E14/E15
/// run quickly enough to execute for real, and the rest are validated via
/// the registry.
#[test]
fn registry_is_complete_and_ordered() {
    // Ids are ordered and dense, except for retired ones, whose tables
    // EXPERIMENTS.md keeps: e6 (server load) and e9 (client load) re-ran
    // E2's episodes, whose columns carry both; e19 (the legacy-vs-scoped
    // byte-model comparison) compared a deleted model.
    let retired = [6, 9, 19];
    let expected: Vec<String> = (1..=20)
        .filter(|i| !retired.contains(i))
        .map(|i| format!("e{i}"))
        .collect();
    assert_eq!(experiments::ALL.to_vec(), expected);
    for id in ["nope", "e6", "e9", "e19"] {
        assert!(experiments::run(id, Scale { full: false }).is_none());
    }
}

#[test]
fn e1_parameter_table_is_well_formed() {
    let r = experiments::run("e1", Scale { full: false }).unwrap();
    assert_eq!(r.id, "e1");
    assert!(r.rows.len() > 10);
    // Header + key/value rows of width 2.
    assert!(r.rows.iter().all(|row| row.len() == 2));
    assert!(r.rows.iter().any(|row| row[0].contains("objects")));
    assert!(r.rows.iter().any(|row| row[0].contains("heartbeat")));
}

#[test]
fn base_config_matches_scale() {
    let fast = experiments::base_config(Scale { full: false });
    let full = experiments::base_config(Scale { full: true });
    assert!(fast.workload.n_objects < full.workload.n_objects);
    assert_eq!(full.workload.n_objects, 50_000);
    assert_eq!(full.n_queries, 100);
    assert_eq!(full.k, 10);
    // Both scales share the same physical space and seed so that fast runs
    // are previews, not different worlds.
    assert_eq!(fast.workload.space_side, full.workload.space_side);
    assert_eq!(fast.workload.seed, full.workload.seed);
}
