//! Experiment regenerator CLI.
//!
//! ```text
//! expt --exp e2                    # one experiment, fast scale
//! expt --exp all --full            # the whole suite at paper scale
//! expt --list                      # what exists
//! expt --seed 42                   # deterministic JSON smoke run (CI gate)
//! expt --seed 42 --method dknn-set # smoke run of one method only
//! expt --seed 42 --n 20000 --queries 100 --timing  # sized smoke + clocks
//! ```
//!
//! Each experiment prints its table and writes
//! `target/experiments/<id>.csv`. Episodes fan out over the worker pool
//! (`MKNN_THREADS` workers, default: all cores); output is identical at any
//! thread count. The `--seed` smoke mode runs one small episode per method
//! and prints the metrics as JSON; its output is byte-identical across runs
//! of the same seed (wall-clock fields are zeroed), which the verification
//! script uses as a determinism gate — including across thread counts.

use mknn_bench::experiments::{self, Scale};
use mknn_net::FaultPlan;
use mknn_sim::{render_table, write_csv, Method, SimConfig, Sweep, VerifyMode};
use std::path::PathBuf;

const USAGE: &str = "usage: expt --exp <id|all> [--full] | --list | --seed <n> [--method <name>] [--fault <none|chaos|crash|JSON>] [--shards <G>] [--n <objects>] [--queries <q>] [--ticks <t>] [--space <side>] [--threads <w>] [--timing]";

/// Smoke-mode workload overrides (each `None` keeps the
/// [`SimConfig::small`] default, so the CI golden shape is untouched).
#[derive(Default)]
struct SmokeOverrides {
    n_objects: Option<usize>,
    n_queries: Option<usize>,
    ticks: Option<u64>,
    space_side: Option<f64>,
    /// Server shards (G). `None` keeps the single-server default; G=1 is
    /// byte-identical to it (the golden gate diffs exactly that).
    shards: Option<u32>,
    /// Pin the intra-episode client pool to this many workers (overrides
    /// `MKNN_THREADS` for the client phase only). `None` keeps the
    /// environment-resolved default; metrics are byte-identical either way.
    client_threads: Option<usize>,
    /// Print per-episode wall-clock lines to stderr (stdout JSON stays
    /// clock-zeroed and byte-deterministic).
    timing: bool,
}

/// Parses the `--fault` argument: a named preset or an inline JSON
/// [`FaultPlan`] (validated on parse).
fn parse_fault(arg: &str) -> FaultPlan {
    match arg {
        "none" => FaultPlan::none(),
        "chaos" => FaultPlan::chaos(),
        "crash" => FaultPlan::crash(),
        json => mknn_util::from_str(json).unwrap_or_else(|e| {
            eprintln!("--fault wants `none`, `chaos`, `crash`, or a FaultPlan JSON object: {e}");
            std::process::exit(2);
        }),
    }
}

/// Runs a tiny verified episode of every standard method (or just the named
/// one) under `seed` and prints one JSON document. Everything
/// nondeterministic (wall-clock) is zeroed, so identical seeds must produce
/// identical bytes — with or without fault injection.
fn run_smoke(seed: u64, method: Option<&str>, fault: FaultPlan, over: &SmokeOverrides) {
    use mknn_util::json::{Json, ToJson};

    let mut cfg = SimConfig::small();
    cfg.workload.seed = seed;
    cfg.verify = VerifyMode::Record;
    cfg.fault = fault;
    if let Some(n) = over.n_objects {
        cfg.workload.n_objects = n;
    }
    if let Some(q) = over.n_queries {
        cfg.n_queries = q;
    }
    if let Some(t) = over.ticks {
        cfg.ticks = t;
    }
    if let Some(s) = over.space_side {
        cfg.workload.space_side = s;
    }
    if let Some(g) = over.shards {
        cfg.shards = g;
    }
    if let Some(t) = over.client_threads {
        cfg.client_threads = Some(t);
    }
    // Malformed shapes (`--n 0`, `--space 0`, NaN sides…) used to panic
    // deep inside episode setup; the typed validator turns them into
    // printable CLI errors.
    if let Err(e) = cfg.validate() {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    }
    let mut sweep = Sweep::over([("smoke", cfg.clone())]);
    if let Some(name) = method {
        let Some(m) = Method::parse(name, cfg.dknn_params()) else {
            eprintln!("unknown method `{name}`; the standard suite is:");
            for m in Method::standard_suite(cfg.dknn_params()) {
                eprintln!("  {}", m.name());
            }
            std::process::exit(2);
        };
        sweep = sweep.methods([m]);
    }
    let episodes: Vec<Json> = sweep
        .run()
        .into_iter()
        .map(|run| {
            if over.timing {
                // Wall-clock goes to stderr only — stdout must stay
                // byte-deterministic for the golden/determinism gates.
                eprintln!(
                    "timing: method={} proto={:.6} oracle={:.6}",
                    run.metrics.method, run.metrics.proto_seconds, run.metrics.oracle_seconds
                );
            }
            run.metrics.with_clock_zeroed().to_json()
        })
        .collect();
    let doc = Json::object([
        ("seed", seed.to_json()),
        ("config", cfg.to_json()),
        ("episodes", Json::Arr(episodes)),
    ]);
    println!("{}", doc.render_pretty());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut exp: Option<String> = None;
    let mut full = false;
    let mut list = false;
    let mut smoke_seed: Option<u64> = None;
    let mut method: Option<String> = None;
    let mut fault = FaultPlan::none();
    let mut fault_given = false;
    let mut over = SmokeOverrides::default();
    fn numeric<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
        args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} requires a number");
            std::process::exit(2);
        })
    }
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                i += 1;
                exp = args.get(i).cloned();
            }
            "--full" => full = true,
            "--list" => list = true,
            "--seed" => {
                i += 1;
                smoke_seed = Some(args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed requires an integer");
                    std::process::exit(2);
                }));
            }
            "--method" => {
                i += 1;
                method = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--method requires a method name (e.g. dknn-set)");
                    std::process::exit(2);
                }));
            }
            "--fault" => {
                i += 1;
                let arg = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!(
                        "--fault requires `none`, `chaos`, `crash`, or a FaultPlan JSON object"
                    );
                    std::process::exit(2);
                });
                fault = parse_fault(&arg);
                fault_given = true;
            }
            "--n" => {
                i += 1;
                over.n_objects = Some(numeric(&args, i, "--n"));
            }
            "--queries" => {
                i += 1;
                over.n_queries = Some(numeric(&args, i, "--queries"));
            }
            "--ticks" => {
                i += 1;
                over.ticks = Some(numeric(&args, i, "--ticks"));
            }
            "--space" => {
                i += 1;
                over.space_side = Some(numeric(&args, i, "--space"));
            }
            "--shards" => {
                i += 1;
                let g: u32 = numeric(&args, i, "--shards");
                if g == 0 {
                    eprintln!("--shards wants G >= 1");
                    std::process::exit(2);
                }
                over.shards = Some(g);
            }
            "--threads" => {
                i += 1;
                over.client_threads = Some(numeric(&args, i, "--threads"));
            }
            "--timing" => over.timing = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if list {
        println!("experiments:");
        for id in experiments::ALL {
            println!("  {id}");
        }
        println!("methods:");
        for m in Method::standard_suite(SimConfig::small().dknn_params()) {
            println!("  {}", m.name());
        }
        println!("fault presets (smoke mode): none, chaos, crash, or a FaultPlan JSON object");
        return;
    }
    if let Some(seed) = smoke_seed {
        run_smoke(seed, method.as_deref(), fault, &over);
        return;
    }
    if method.is_some() {
        eprintln!("--method only applies to the --seed smoke mode");
        std::process::exit(2);
    }
    if fault_given {
        eprintln!("--fault only applies to the --seed smoke mode (e16 sweeps faults itself)");
        std::process::exit(2);
    }
    if over.timing
        || over.n_objects.is_some()
        || over.n_queries.is_some()
        || over.ticks.is_some()
        || over.space_side.is_some()
        || over.shards.is_some()
        || over.client_threads.is_some()
    {
        eprintln!(
            "--n/--queries/--ticks/--space/--shards/--threads/--timing only apply to the --seed smoke mode"
        );
        std::process::exit(2);
    }
    let Some(exp) = exp else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let scale = Scale { full };
    let ids: Vec<String> = if exp == "all" {
        experiments::ALL.iter().map(|s| s.to_string()).collect()
    } else if experiments::ALL.contains(&exp.as_str()) {
        vec![exp]
    } else {
        eprintln!("unknown experiment `{exp}`; valid ids:");
        for id in experiments::ALL {
            eprintln!("  {id}");
        }
        std::process::exit(2);
    };
    let out_dir = PathBuf::from("target/experiments");
    for id in &ids {
        let started = std::time::Instant::now();
        let result = experiments::run(id, scale).expect("id validated above");
        println!("\n=== {} ===", result.title);
        print!("{}", render_table(&result.rows));
        let csv = out_dir.join(format!("{id}.csv"));
        if let Err(e) = write_csv(&csv, &result.rows) {
            eprintln!("warning: could not write {}: {e}", csv.display());
        } else {
            println!(
                "[written {} in {:.1}s elapsed / {:.1}s episode time]",
                csv.display(),
                started.elapsed().as_secs_f64(),
                result.episode_seconds
            );
        }
    }
}
