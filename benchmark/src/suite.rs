//! The whole set in one command: every workload timed and traced, each run
//! in a fresh process of this same binary (so `peak_rss_mb` is one
//! workload's, and a panic fails one run, not the report), gathered into
//! one JSON document. Also `--check-repeat`: the timed set twice on the
//! same tree, held against the benchmark's own bounds.

use crate::metrics::END_TO_END;
use crate::workloads::{Workload, WORKLOADS};
use mknn_util::Json;
use std::process::{Command, Stdio};

/// Why a run whose every step worked still fails.
pub const INCORRECT: &str = "a correctness check did not pass";

/// What the suite was asked to run.
#[derive(Debug, Clone, Copy)]
pub struct SuiteArgs {
    /// Workload seed (`WorkloadSpec::seed`).
    pub seed: u64,
    /// Seconds each run measures for.
    pub seconds: f64,
    /// `--quick`: a tenth of the population, 20 timed ticks, no time box.
    pub quick: bool,
}

/// One child run's two output lines, parsed.
struct ChildRun {
    info: Json,
    result: Json,
}

impl ChildRun {
    fn correct(&self) -> bool {
        self.result.get("correct") == Some(&Json::Bool(true))
    }

    fn metric(&self, name: &str) -> f64 {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(|v| v.as_f64().ok())
            .unwrap_or_else(|| panic!("child printed no metric {name}"))
    }

    /// Info and result merged into one object for the suite document.
    fn to_json(&self) -> Json {
        let fields = |j: &Json| j.as_obj().map(<[_]>::to_vec).unwrap_or_default();
        Json::Obj([fields(&self.info), fields(&self.result)].concat())
    }
}

/// Trimmed standard output of `cmd`, or `None` when it cannot run or fails.
fn capture(cmd: &mut Command) -> Option<String> {
    let out = cmd.stderr(Stdio::null()).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Runs one workload in a child process and parses what it printed.
fn run_child(w: &Workload, args: SuiteArgs, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: cannot start: {e}", w.name))?;
    if !out.status.success() {
        return Err(format!("{} (trace {trace}): {}", w.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let mut parse = |what: &str| {
        let line = lines.next().ok_or(format!("{}: no {what} line", w.name))?;
        Json::parse(line).map_err(|e| format!("{}: {what} line: {e}", w.name))
    };
    let result = parse("result")?;
    let info = parse("info")?;
    Ok(ChildRun { info, result })
}

/// Runs every workload timed and traced and prints one JSON document.
/// Fails when a run cannot be made or one of them was not correct.
pub fn run_all(args: SuiteArgs) -> Result<(), String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        let timed = run_child(w, args, false)?;
        let traced = run_child(w, args, true)?;
        all_correct &= timed.correct() && traced.correct();
        workloads.push(Json::object([
            ("name", Json::Str(w.name.to_string())),
            ("why", Json::Str(w.why.to_string())),
            ("timed", timed.to_json()),
            ("traced", traced.to_json()),
        ]));
    }
    let unknown = || "unknown".to_string();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Json::object([
        ("cores", Json::Int(cores as i64)),
        (
            "rustc",
            Json::Str(capture(Command::new("rustc").arg("-V")).unwrap_or_else(unknown)),
        ),
        (
            "commit",
            Json::Str(
                capture(Command::new("git").args(["rev-parse", "HEAD"])).unwrap_or_else(unknown),
            ),
        ),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Float(args.seconds)),
        ("quick", Json::Bool(args.quick)),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::Arr(workloads)),
    ]);
    println!("{}", doc.render_pretty());
    if all_correct {
        Ok(())
    } else {
        Err(INCORRECT.to_string())
    }
}

/// Runs the timed set twice and prints both columns. Fails unless set B
/// repeats set A: host-time metrics within their own bound, simulated
/// statistics and `metrics_digest` identical.
pub fn check_repeat(args: SuiteArgs) -> Result<(), String> {
    // A then B per workload, back to back: the host's speed drifts over
    // minutes, and the two runs being compared should share its mood.
    let mut pairs = Vec::new();
    for w in WORKLOADS {
        pairs.push((w, run_child(w, args, false)?, run_child(w, args, false)?));
    }
    let mut repeats = true;
    println!(
        "{:<17} {:<20} {:>16} {:>16} {:>8} {:>6}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for (w, a, b) in &pairs {
        repeats &= a.correct() && b.correct();
        for def in END_TO_END {
            let (va, vb) = (a.metric(def.name), b.metric(def.name));
            let diff = (vb - va).abs() / va.abs();
            let (ok, bound) = if def.simulated {
                (va == vb, "exact".to_string())
            } else {
                (diff <= def.bound, format!("{:.0}%", 100.0 * def.bound))
            };
            repeats &= ok;
            println!(
                "{:<17} {:<20} {va:>16.4} {vb:>16.4} {:>7.2}% {bound:>6}{}",
                w.name,
                def.name,
                100.0 * diff,
                if ok { "" } else { "  FAIL" }
            );
        }
        for key in ["metrics_digest", "simulated"] {
            let (va, vb) = (a.info.get(key), b.info.get(key));
            let ok = va.is_some() && va == vb;
            repeats &= ok;
            let render = |v: Option<&Json>| v.map_or("-".to_string(), Json::render);
            println!(
                "{:<17} {key:<20} {} | {}{}",
                w.name,
                render(va),
                render(vb),
                if ok { "" } else { "  FAIL" }
            );
        }
    }
    if repeats {
        println!("set B repeats set A");
        Ok(())
    } else {
        Err("set B does not repeat set A".to_string())
    }
}
