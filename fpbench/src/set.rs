//! `fpbench run` and `fpbench compare`: a whole set of child runs, its
//! summary in `result.json`, and the verdict between two sets.

use crate::stats::{improvement, median, quartiles, verdict, Verdict, END_TO_END, PER_LAYER};
use crate::workload::WORKLOADS;
use fusedpack_telemetry::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn num(x: impl Into<f64>) -> Value {
    Value::Num(x.into())
}

/// What the children of one workload reported over a set.
#[derive(Default)]
struct Collected {
    attempted: f64,
    failed: f64,
    /// Per end-to-end metric, one median per untraced child.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// The traced child's per-layer metrics.
    layers: BTreeMap<String, f64>,
}

/// Run one child process of this executable and parse the JSON object on
/// the last line of its standard output.
fn child(args: &[String]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating fpbench: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    json::parse(last)
}

fn field(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing number {key:?}"))
}

fn entries(v: Option<&Value>) -> Result<&BTreeMap<String, Value>, String> {
    match v {
        Some(Value::Obj(m)) => Ok(m),
        _ => Err("expected a JSON object".into()),
    }
}

/// Rounds of a set; each visits every workload once.
const ROUNDS: usize = 3;

/// One set: [`ROUNDS`] rounds visiting every workload round-robin, one
/// untraced child per (workload, round), then one traced child per
/// workload that also writes `trace-<workload>.json` into `out`. Children
/// run `--seconds 0`: 3 warm-up and 3 measured reps each. Writes
/// `out/result.json`; returns whether every rep passed its checks.
pub fn run(seed: u64, out: &Path) -> Result<bool, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let mut sets: BTreeMap<&str, Collected> = BTreeMap::new();
    let args = |name: &str, trace: bool| {
        let mut a: Vec<String> = [
            "--workload",
            name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0",
            "--trace",
            if trace { "1" } else { "0" },
        ]
        .map(String::from)
        .to_vec();
        if trace {
            a.extend(["--out".to_string(), out.display().to_string()]);
        }
        a
    };
    for trace in [false, true] {
        for _ in 0..if trace { 1 } else { ROUNDS } {
            for spec in &WORKLOADS {
                let v = child(&args(spec.name, trace))?;
                let set = sets.entry(spec.name).or_default();
                set.attempted += field(&v, "attempted")?;
                set.failed += field(&v, "failed")?;
                for (name, m) in entries(v.get("metrics"))? {
                    let value = field(m, "value")?;
                    match END_TO_END.iter().find(|e| e.name == name) {
                        Some(e) => set.samples.entry(e.name).or_default().push(value),
                        None => {
                            set.layers.insert(name.clone(), value);
                        }
                    }
                }
            }
        }
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workloads = sets.iter().map(|(&name, set)| {
        let e2e = END_TO_END.iter().map(|m| {
            let xs = set.samples.get(m.name).cloned().unwrap_or_default();
            let (q1, q3) = quartiles(&xs);
            let entry = obj([
                ("unit", Value::Str(m.unit.into())),
                ("better", Value::Str(m.better.label().into())),
                ("bound", num(m.bound)),
                ("median", num(median(&mut xs.clone()))),
                ("iqr", num(q3 - q1)),
                ("n", num(xs.len() as f64)),
                ("samples", Value::Arr(xs.into_iter().map(num).collect())),
            ]);
            (m.name, entry)
        });
        let layers = PER_LAYER.iter().map(|m| {
            let value = set.layers.get(m.name).copied().unwrap_or(f64::NAN);
            let entry = obj([
                ("unit", Value::Str(m.unit.into())),
                ("better", Value::Str(m.better.label().into())),
                ("value", num(value)),
                ("moves", Value::Str(m.moves.into())),
            ]);
            (m.name, entry)
        });
        let why = WORKLOADS
            .iter()
            .find(|s| s.name == name)
            .map_or("", |s| s.why);
        let summary = obj([
            ("why", Value::Str(why.into())),
            ("attempted", num(set.attempted)),
            ("failed", num(set.failed)),
            ("fail_frac", num(set.failed / set.attempted.max(1.0))),
            ("end_to_end", obj(e2e)),
            ("per_layer", obj(layers)),
        ]);
        (name, summary)
    });
    let result = obj([
        ("seed", num(seed as f64)),
        ("rounds", num(ROUNDS as f64)),
        ("nproc", num(nproc as f64)),
        ("workloads", obj(workloads)),
    ]);
    let path = out.join("result.json");
    std::fs::write(&path, result.render())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    for (name, set) in &sets {
        println!(
            "\n{name}  (fail_frac {} = {} / {} reps)",
            set.failed / set.attempted.max(1.0),
            set.failed,
            set.attempted
        );
        for m in &END_TO_END {
            let xs = &set.samples[m.name];
            let (q1, q3) = quartiles(xs);
            println!(
                "  {:<28} {:>14.6} {:<9} IQR {:>12.6}  n={}",
                m.name,
                median(&mut xs.clone()),
                m.unit,
                q3 - q1,
                xs.len()
            );
        }
        for m in PER_LAYER {
            println!("  {:<28} {:>14.6} {}", m.name, set.layers[m.name], m.unit);
        }
    }
    println!("\nwrote {}", path.display());
    Ok(sets.values().all(|s| s.failed == 0.0))
}

fn load(path: &Path) -> Result<Value, String> {
    let file = if path.is_dir() {
        path.join("result.json")
    } else {
        path.to_path_buf()
    };
    let text =
        std::fs::read_to_string(&file).map_err(|e| format!("reading {}: {e}", file.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))
}

fn samples(workload: &Value, metric: &str) -> Vec<f64> {
    workload
        .get("end_to_end")
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("samples"))
        .and_then(Value::as_array)
        .map(|xs| xs.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Compare set `b` against baseline set `a`, one row per (workload,
/// end-to-end metric), then `fail_frac`, then any per-layer count that
/// differs. Returns false when any row is worse or unresolved.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (ra, rb) = (load(a)?, load(b)?);
    let (wa, wb) = (entries(ra.get("workloads"))?, entries(rb.get("workloads"))?);
    let mut ok = true;
    println!(
        "{:<12} {:<12} {:>14} {:>14} {:>12} {:>12} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "IQR A", "IQR B", "gain"
    );
    for (name, a) in wa {
        let Some(b) = wb.get(name) else {
            println!("{name:<12} missing from B");
            ok = false;
            continue;
        };
        for m in &END_TO_END {
            let (xa, xb) = (samples(a, m.name), samples(b, m.name));
            let v = verdict(&xa, &xb, m.better, m.bound);
            let iqr = |xs: &[f64]| {
                let (q1, q3) = quartiles(xs);
                q3 - q1
            };
            println!(
                "{name:<12} {:<12} {:>14.6} {:>14.6} {:>12.6} {:>12.6} {:>+7.2}%  {} (bound {}%)",
                m.name,
                median(&mut xa.clone()),
                median(&mut xb.clone()),
                iqr(&xa),
                iqr(&xb),
                improvement(&xa, &xb, m.better) * 100.0,
                v.label(),
                m.bound * 100.0
            );
            ok &= matches!(v, Verdict::Same | Verdict::Better);
        }
        let (fa, fb) = (field(a, "fail_frac")?, field(b, "fail_frac")?);
        println!(
            "{name:<12} {:<12} {fa:>14} {fb:>14}  {}",
            "fail_frac",
            if fb > fa { "worse" } else { "same" }
        );
        ok &= fb <= fa;
        let (la, lb) = (entries(a.get("per_layer"))?, entries(b.get("per_layer"))?);
        for m in PER_LAYER.iter().filter(|m| matches!(m.unit, "count" | "B")) {
            let value = |l: &BTreeMap<String, Value>| {
                l.get(m.name)
                    .and_then(|v| v.get("value"))
                    .and_then(Value::as_f64)
            };
            let (va, vb) = (value(la), value(lb));
            if va != vb {
                println!("{name:<12} {:<28} count changed: {va:?} -> {vb:?}", m.name);
            }
        }
    }
    Ok(ok)
}
