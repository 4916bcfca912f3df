//! The `expt` binary's reading of its arguments: `--fault <JSON>`, the one
//! document the program reads, and the flags it refuses.

use std::process::{Command, Output};

const PLAN: &str = r#""up_loss":0.1,"down_loss":0.1,"up_dup":0.02,"down_dup":0.02,"delay_prob":0.2,"max_delay":2,"churn":0.002,"offline_min":2,"offline_max":6,"horizon":3"#;

fn smoke_under(fault: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_expt"))
        .args(["--seed", "42", "--method", "dknn-set", "--n", "200"])
        .args(["--ticks", "5", "--fault", fault])
        .output()
        .expect("expt runs")
}

#[test]
fn an_out_of_range_knob_exits_2_and_names_the_knob() {
    let doc = format!(
        "{{{}}}",
        PLAN.replace(r#""up_loss":0.1"#, r#""up_loss":1.5"#)
    );
    let out = smoke_under(&doc);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid FaultPlan: up_loss"), "stderr: {err}");
    assert!(out.stdout.is_empty());
}

#[test]
fn absent_crash_keys_read_as_zero() {
    let without = smoke_under(&format!("{{{PLAN}}}"));
    let zeros = format!(r#"{{{PLAN},"crash_count":0,"crash_min":0,"crash_max":0}}"#);
    let with = smoke_under(&zeros);
    assert!(without.status.success(), "{without:?}");
    assert!(with.status.success(), "{with:?}");
    assert!(!without.stdout.is_empty());
    assert_eq!(without.stdout, with.stdout);
}

/// A world smaller than a refresh's first probe zone, or than 1 m across:
/// every probe is capped at the world's diagonal, so every method runs to
/// the end, and the exact ones stay exact.
#[test]
fn small_worlds_run_every_method_to_the_end() {
    use mknn_util::json::Json;
    for space in ["50", "0.5"] {
        let out = Command::new(env!("CARGO_BIN_EXE_expt"))
            .args([
                "--seed", "42", "--space", space, "--n", "400", "--ticks", "20",
            ])
            .output()
            .expect("expt runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--space {space}: {err}");
        let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("JSON");
        let episodes = doc
            .field("episodes")
            .and_then(Json::as_arr)
            .expect("episodes");
        assert_eq!(episodes.len(), 6, "--space {space}");
        for ep in episodes {
            let method = ep.field("method").and_then(Json::as_str).expect("method");
            let checks: u64 = ep.parse_field("exact_checks").expect("exact_checks");
            let ok: u64 = ep.parse_field("exact_ok").expect("exact_ok");
            assert!(checks > 0, "--space {space}, {method}");
            if method != "periodic" {
                assert_eq!(ok, checks, "--space {space}, {method} is exact");
            }
        }
    }
}

/// `--seed` has one spelling: `--smoke` is refused like any other unknown
/// flag.
#[test]
fn the_smoke_alias_is_an_unknown_argument() {
    let out = Command::new(env!("CARGO_BIN_EXE_expt"))
        .args(["--smoke", "42"])
        .output()
        .expect("expt runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown argument: --smoke"), "stderr: {err}");
    assert!(out.stdout.is_empty());
}
