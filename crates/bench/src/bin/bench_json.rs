//! Merges one micro-bench run into the repo's machine-readable perf
//! trajectory file (`BENCH_phase3.json`), or audits it for regressions.
//!
//! Usage:
//!
//! - `bench-json <current-run.json>... <trajectory.json>` — merge mode.
//!   Each `<current-run.json>` is a flat `{"bench": mean_ns}` object:
//!   the vendored criterion shim writes one when `BENCH_JSON` is set,
//!   and `load-gen --json` writes its serving percentiles in the same
//!   shape. Multiple run files are concatenated into one `current`
//!   section (the section is *replaced*, not merged, so every
//!   producer's file must be passed in a single invocation). The
//!   trajectory file keeps a `baseline` section (seeded from the first
//!   recorded run and preserved afterwards — new benches are added to
//!   it on first sight), the freshest `current` section, and the
//!   derived `speedup` (baseline / current) per bench. `just
//!   bench-json` wires the steps together.
//! - `bench-json --check <trajectory.json>` — perf gate (`just
//!   perf-check`): fails when any previously-recorded benchmark's
//!   `current` exceeds `1.3 ×` its recorded `baseline`, or when a
//!   bench listed in [`IMPROVEMENT_FLOORS`] no longer shows its landed
//!   speedup over the baseline (CI runs it warn-only for now;
//!   single-core CI noise makes a hard gate premature).

use serde_json::Value;
use std::process::ExitCode;

/// A benchmark regresses when `current > baseline × REGRESSION_LIMIT`.
const REGRESSION_LIMIT: f64 = 1.3;

/// Landed optimizations the gate holds on to: `baseline / current`
/// must stay at or above the floor for each of these benches, so a
/// later change cannot quietly give the win back while staying inside
/// the ordinary regression limit.
const IMPROVEMENT_FLOORS: &[(&str, f64)] = &[
    // Batched decoder-head scoring through the panel-packed
    // shared-suffix kernels (measured 1.5–1.6× on the CI container).
    ("diffusion_sample_144_nodes", 1.5),
    // Cone-cache misses synthesized in place on reusable scratch, with
    // word-hashed CSE keys (medians of nine runs measured 3.6× and 3.4×
    // over the baseline; the floors sit at about three quarters of that).
    ("optimize_registers_oc_fifo_incremental", 2.7),
    ("batch_8_requests_private_cone_cache", 2.5),
];

fn read_object(path: &str) -> Option<Vec<(String, Value)>> {
    let text = std::fs::read_to_string(path).ok()?;
    match serde_json::from_str::<Value>(&text) {
        Ok(Value::Object(fields)) => Some(fields),
        _ => None,
    }
}

fn get<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_ns(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// `--check` mode: compares every bench's `current` against its
/// recorded `baseline` and fails on a >[`REGRESSION_LIMIT`]× slowdown.
fn check(path: &str) -> ExitCode {
    let Some(fields) = read_object(path) else {
        eprintln!("error: {path} is not a JSON trajectory object");
        return ExitCode::FAILURE;
    };
    let (Some(Value::Object(baseline)), Some(Value::Object(current))) =
        (get(&fields, "baseline"), get(&fields, "current"))
    else {
        eprintln!("error: {path} lacks baseline/current sections");
        return ExitCode::FAILURE;
    };
    let mut regressions = 0usize;
    let mut audited = 0usize;
    for (name, cur) in current {
        let (Some(cur), Some(base)) = (as_ns(cur), get(baseline, name).and_then(as_ns)) else {
            continue;
        };
        audited += 1;
        if base > 0.0 && cur > base * REGRESSION_LIMIT {
            regressions += 1;
            eprintln!(
                "REGRESSION {name}: {cur:.0} ns vs baseline {base:.0} ns ({:.2}x > {REGRESSION_LIMIT}x)",
                cur / base
            );
        }
    }
    // A recorded bench that vanished from the run (renamed, deleted,
    // crashed before reporting) must not silently pass the gate.
    for (name, _) in baseline {
        if get(current, name).and_then(as_ns).is_none() {
            regressions += 1;
            eprintln!("MISSING {name}: recorded in baseline but absent from the current run");
        }
    }
    // Landed step-changes must hold, not merely avoid regressing.
    for &(name, floor) in IMPROVEMENT_FLOORS {
        let (Some(base), Some(cur)) = (
            get(baseline, name).and_then(as_ns),
            get(current, name).and_then(as_ns),
        ) else {
            regressions += 1;
            eprintln!("MISSING {name}: an improvement floor is recorded but the bench is not");
            continue;
        };
        audited += 1;
        if cur <= 0.0 || base / cur < floor {
            regressions += 1;
            eprintln!(
                "IMPROVEMENT LOST {name}: {cur:.0} ns is {:.2}x vs baseline {base:.0} ns (floor {floor}x)",
                base / cur
            );
        }
    }
    if regressions > 0 {
        eprintln!("{regressions} perf-gate failure(s) across {audited} audited benchmarks (limit {REGRESSION_LIMIT}x)");
        return ExitCode::FAILURE;
    }
    println!("perf-check: {audited} benchmarks within {REGRESSION_LIMIT}x of baseline");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 3 && args[1] == "--check" {
        return check(&args[2]);
    }
    if args.len() < 3 {
        eprintln!("usage: bench-json <current-run.json>... <trajectory.json> | --check <trajectory.json>");
        return ExitCode::FAILURE;
    }
    let trajectory = args.last().expect("len checked above").clone();
    let mut current: Vec<(String, Value)> = Vec::new();
    for run in &args[1..args.len() - 1] {
        let Some(fields) = read_object(run) else {
            eprintln!("error: {run} is not a JSON object of bench results");
            return ExitCode::FAILURE;
        };
        for (name, ns) in fields {
            if get(&current, &name).is_some() {
                eprintln!("error: benchmark {name} appears in more than one run file");
                return ExitCode::FAILURE;
            }
            current.push((name, ns));
        }
    }

    // Preserve the recorded baseline; seed missing entries from the
    // current run so every bench always has a reference point.
    let mut baseline: Vec<(String, Value)> = read_object(&trajectory)
        .and_then(|fields| match get(&fields, "baseline") {
            Some(Value::Object(b)) => Some(b.clone()),
            _ => None,
        })
        .unwrap_or_default();
    for (name, ns) in &current {
        if get(&baseline, name).is_none() {
            baseline.push((name.clone(), ns.clone()));
        }
    }

    let mut speedup: Vec<(String, Value)> = Vec::new();
    for (name, ns) in &current {
        if let (Some(base), Some(cur)) = (get(&baseline, name).and_then(as_ns), as_ns(ns)) {
            if cur > 0.0 {
                let ratio = (base / cur * 100.0).round() / 100.0;
                speedup.push((name.clone(), Value::Float(ratio)));
            }
        }
    }

    let doc = Value::Object(vec![
        (
            "unit".to_string(),
            Value::Str("mean ns/iter (criterion shim, sample_size 10)".to_string()),
        ),
        ("baseline".to_string(), Value::Object(baseline)),
        ("current".to_string(), Value::Object(current)),
        ("speedup".to_string(), Value::Object(speedup)),
    ]);
    let text = match serde_json::to_string_pretty(&doc) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&trajectory, text + "\n") {
        eprintln!("error: cannot write {trajectory}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {trajectory}");
    ExitCode::SUCCESS
}
