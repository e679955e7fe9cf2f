//! A reduced-size pass of every workload through the benchmark binary:
//! every metric is printed with its unit, a corrupted result is a failed
//! operation, and the exact metrics repeat for one seed.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["paper-rsb", "sweep-large", "cg-tcp", "adaptive-sim"];

const END_TO_END: [(&str, &str); 4] = [
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("vupdates_per_s", "1/s"),
    ("adaptive_efficiency", "ratio"),
];

const PER_LAYER: [(&str, &str); 22] = [
    ("locality.order_s", "s"),
    ("locality.cut_edges_p8", "count"),
    ("locality.relabel_s", "s"),
    ("inspector.setup_s", "s"),
    ("inspector.ghosts", "count"),
    ("inspector.send_volume", "count"),
    ("executor.iterate_s", "s"),
    ("executor.sweep_s", "s"),
    ("executor.exchange_s", "s"),
    ("executor.rank_imbalance", "ratio"),
    ("executor.gather_s", "s"),
    ("executor.kernel_s", "s"),
    ("executor.bytes_per_iter", "B"),
    ("balance.checks", "count"),
    ("balance.remaps", "count"),
    ("balance.check_s", "s"),
    ("onedim.moved_elements", "count"),
    ("core.checkpoint_s", "s"),
    ("core.checkpoint_bytes", "B"),
    ("core.reassemble_s", "s"),
    ("trace.unaccounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The last two stdout lines (workload facts, result) and the exit code.
fn bench(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "small"])
        .args(extra)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines = stdout.lines().rev();
    let result = lines.next().expect("a result line").to_string();
    let facts = lines.next().expect("a facts line").to_string();
    (facts, result, out.status.success())
}

/// The value of metric `name` in a line, if it is printed with `unit`.
fn value(line: &str, name: &str, unit: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let (num, rest) = rest.split_once(", \"unit\": \"")?;
    rest.starts_with(&format!("{unit}\"}}"))
        .then(|| num.parse().ok())?
}

fn benchmark_json() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root")
}

#[test]
fn benchmark_json_lists_these_metrics_and_workloads() {
    let json = benchmark_json();
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{w}\"")),
            "BENCHMARK.json lacks {w}"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for w in WORKLOADS {
        let (facts, result, ok) = bench(w, 3, false, &[]);
        assert!(ok, "{w}: {result}");
        assert!(
            result.starts_with("{\"correct\": true, \"attempted\": "),
            "{w}: {result}"
        );
        assert!(facts.contains("\"nproc\": "), "{w}: {facts}");
        for (name, unit) in END_TO_END {
            let v = value(&result, name, unit).unwrap_or_else(|| panic!("{w}: no {name} [{unit}]"));
            assert!(v.is_finite() && v > 0.0, "{w}: {name} = {v}");
        }
        let (_, traced, ok) = bench(w, 3, true, &[]);
        assert!(ok, "{w}: {traced}");
        for (name, unit) in PER_LAYER {
            assert!(
                value(&traced, name, unit).is_some(),
                "{w}: no {name} [{unit}]"
            );
        }
    }
}

#[test]
fn a_flipped_bit_is_a_failed_operation() {
    for w in WORKLOADS {
        let (_, result, ok) = bench(w, 4, false, &["--corrupt"]);
        assert!(!ok, "{w}: a corrupted run must not succeed");
        assert!(result.starts_with("{\"correct\": false"), "{w}: {result}");
        let attempted = result
            .split("\"attempted\": ")
            .nth(1)
            .and_then(|r| r.split(',').next());
        let failed = result
            .split("\"failed\": ")
            .nth(1)
            .and_then(|r| r.split(',').next());
        assert_eq!(attempted, failed, "{w}: every repetition fails: {result}");
        assert!(
            result.ends_with("\"metrics\": {}}"),
            "{w}: no numbers: {result}"
        );
    }
}

#[test]
fn exact_metrics_repeat_for_one_seed() {
    let twice = |w: &str, trace: bool| {
        let a = bench(w, 5, trace, &[]);
        let b = bench(w, 5, trace, &[]);
        assert!(a.2 && b.2, "{w} runs succeed");
        (a, b)
    };
    for w in WORKLOADS {
        let ((_, a, _), (_, b, _)) = twice(w, true);
        let cut = value(&a, "locality.cut_edges_p8", "count");
        assert!(cut.is_some_and(|c| c > 0.0), "{w}");
        assert_eq!(cut, value(&b, "locality.cut_edges_p8", "count"), "{w}");
    }
    let ((fa, a, _), (fb, b, _)) = twice("adaptive-sim", false);
    let eff = value(&a, "adaptive_efficiency", "ratio");
    assert!(eff.is_some());
    assert_eq!(eff, value(&b, "adaptive_efficiency", "ratio"));
    let makespan = value(&fa, "modeled_makespan_s", "s");
    assert!(makespan.is_some());
    assert_eq!(makespan, value(&fb, "modeled_makespan_s", "s"));
    let ((_, a, _), (_, b, _)) = twice("adaptive-sim", true);
    let remaps = value(&a, "balance.remaps", "count");
    assert!(remaps.is_some_and(|r| r > 0.0), "the load triggers remaps");
    assert_eq!(remaps, value(&b, "balance.remaps", "count"));
    let ((fa, _, _), (fb, _, _)) = twice("cg-tcp", false);
    let iters = value(&fa, "solver.cg_iters", "count");
    assert!(iters.is_some());
    assert_eq!(iters, value(&fb, "solver.cg_iters", "count"));
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "paper-rsb", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("run the benchmark");
        assert!(!out.status.success(), "{args:?} is refused");
        assert!(out.stdout.is_empty(), "{args:?} prints no result");
    }
}
