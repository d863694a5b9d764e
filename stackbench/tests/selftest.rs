//! Self-tests of the benchmark: a tiny run of every workload emits
//! exactly the metrics `BENCHMARK.json` declares, with their units, and
//! a read with one flipped byte fails the run.

use stackbench::report::Outcome;
use stackbench::workloads::{run, Opts, Workload};
use std::path::PathBuf;

fn opts(workload: Workload, trace: bool, tag: &str) -> Opts {
    Opts {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        exe: PathBuf::from(env!("CARGO_BIN_EXE_stackbench")),
        work_dir: std::env::temp_dir().join(format!(
            "stackbench-selftest-{}-{tag}-{}",
            std::process::id(),
            workload.name()
        )),
        corrupt_one_read: false,
        spans_out: None,
    }
}

fn run_ok(o: &Opts) -> Outcome {
    let out = run(o).unwrap_or_else(|e| panic!("{} failed: {e}", o.workload.name()));
    let _ = std::fs::remove_dir_all(&o.work_dir);
    out
}

/// `(name, unit)` of every entry of the `section` array of
/// `BENCHMARK.json`, in order.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..start + text[start..].find(']').expect("array end")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn emitted(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in Workload::ALL {
        let out = run_ok(&opts(w, false, "e2e"));
        assert!(out.correct, "{}: verification failed", w.name());
        assert_eq!(out.failed, 0, "{}", w.name());
        assert!(out.attempted >= 1);
        assert_eq!(emitted(&out), end_to_end, "{}", w.name());
        for m in &out.metrics {
            assert!(m.value > 0.0, "{}: {} is {}", w.name(), m.name, m.value);
        }
        let out = run_ok(&opts(w, true, "traced"));
        assert!(out.correct, "{}: traced verification failed", w.name());
        assert_eq!(emitted(&out), per_layer, "{}", w.name());
    }
}

#[test]
fn a_flipped_byte_fails_the_run() {
    for w in [Workload::BootHot, Workload::SnapshotChurn] {
        let mut o = opts(w, false, "corrupt");
        o.corrupt_one_read = true;
        let out = run_ok(&o);
        assert!(
            !out.correct,
            "{}: a corrupted read went unnoticed",
            w.name()
        );
    }
}
