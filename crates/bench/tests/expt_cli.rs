//! The `expt` binary's reading of `--fault <JSON>`, the one document the
//! program reads.

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
