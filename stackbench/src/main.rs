//! Command line:
//!
//! ```text
//! stackbench --workload <boot-cold|boot-hot|snapshot-churn|all> [--seed N]
//!            [--seconds S] [--trace 0|1] [--spans FILE]
//! ```
//!
//! runs the workload(s) and prints, per workload, `#` lines of context
//! (configuration, input sizes, sample counts), one `name value unit`
//! line per metric, and one JSON result line — the last line of the
//! output for a single workload. `--spans FILE` also writes every span
//! of a traced run to FILE. `stackbench serve ...` hosts server roles
//! for a run; the benchmark starts these children itself.

use stackbench::report;
use stackbench::workloads::{self, Opts, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<(Vec<Workload>, Opts), String> {
    let mut workloads = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut spans_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let value = it.next().ok_or(format!("{a} needs a value"))?;
        match a.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => workloads = Some(vec![Workload::parse(value)?]),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--spans" => spans_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workloads = workloads.ok_or("--workload is required")?;
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let opts = Opts {
        workload: workloads[0],
        seed,
        seconds,
        trace,
        exe,
        work_dir: PathBuf::from(".bench_data").join(format!("stackbench-{}", std::process::id())),
        corrupt_one_read: false,
        spans_out,
    };
    Ok((workloads, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return match stackbench::cluster::serve(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("stackbench serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (workloads, mut opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("stackbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for w in workloads {
        opts.workload = w;
        let result = workloads::run(&opts);
        let _ = std::fs::remove_dir_all(&opts.work_dir);
        let _ = std::fs::remove_dir(".bench_data"); // only if empty
        let outcome = match result {
            Ok(o) => o,
            Err(e) => {
                eprintln!("stackbench {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        for note in &outcome.notes {
            println!("# {note}");
        }
        for m in &outcome.metrics {
            println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!("{}", report::json_line(&outcome));
        if !outcome.correct {
            eprintln!("stackbench {}: verification failed", w.name());
            all_correct = false;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
