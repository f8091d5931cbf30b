//! `fpbench`: the end-to-end host-throughput benchmark of the simulator.
//!
//! Every number here is *host* time: how fast the reproduction runs, not
//! the virtual time it models (the goldens pin that). Each workload's
//! inputs are generated from `--seed` and handed to `ClusterBuilder`;
//! fpbench times its calls into each layer's public functions from the
//! outside, checks every output, and prints every metric by name with its
//! unit.
//!
//! ```text
//! fpbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! fpbench run [--seed N] [--out DIR]
//! fpbench compare A B
//! ```
//!
//! The first form is one measurement process. It prints one JSON object as
//! its last line: `correct`, `attempted` and `failed` reps, and `metrics`.
//! With `--trace 0` these are the end-to-end metrics; with `--trace 1` the
//! per-layer ledger (see [`stats`] for both lists and the end-to-end metric
//! each layer metric should move). `run` drives a whole set of such
//! processes and writes `result.json` plus one Chrome trace per workload.
//! `compare` judges set B against baseline set A.
//!
//! # Regime
//!
//! One process measures one (workload, seed). It runs 3 untimed warm-up
//! reps, then measured reps until `--seconds` have passed (at least 3).
//! A rep is generate → build → `Cluster::run` → check, on a fresh cluster,
//! bracketed by the host-speed [`yardstick`]. End-to-end metrics are
//! medians over the measured reps, so one slow rep does not move them, and
//! their times are scaled to nominal host speed, so a slow phase of the
//! host moves them less. Per-layer times are raw host time; the ledger's
//! `host.slowdown` converts them.
//!
//! The warm-up count is not arbitrary. On a 2-core host, `reproduce
//! chaos-topo --jobs 1` spent 1.74 s on its third cell against 0.78–0.95 s
//! on the others, and the process peaked at 2.2 GB. The cause is the
//! allocator, not the faults: the third `DataMode::Full` 512-rank cluster
//! built in one process took 1.0 s to set up instead of 0.11 s, and its
//! VmHWM jumped from 352 MB to 2,215 MB. `MemPool::new` allocates with
//! `vec![0u8; cap]`; once glibc's dynamic mmap threshold has risen past the
//! pool size, that memory comes from the heap and is zeroed by hand
//! instead of arriving as untouched zero pages. fpbench shows the same
//! step: in a halo-bytes process the first two builds take 0.12–0.18 s,
//! the third 1.37 s, and every later one about 0.31 s, with VmHWM at
//! 2,217 MB. Three warm-ups put every measured rep in that steady state,
//! the one a `reproduce` sweep runs in, so `setup_s` and `peak_rss_mb`
//! carry the effect and a fix shows.
//!
//! At `--seconds 10` a process runs 12–16 s (3–15 measured reps) on a
//! 2-vCPU host; ten seeds of all four workloads take about 9 minutes.
//!
//! Tracing is off for the end-to-end metrics. A `--trace 1` process runs
//! the same warm-ups and untraced reps for half of `--seconds`, then 3
//! reps under `Telemetry::enabled()`, then the layer replays of [`layers`].
//! `telemetry.overhead` is the traced `mpi.run_s` over the untraced one.
//! Its own phases (programs, build, run, verify, each replay) are spans in
//! a separate host-time timeline, written as `trace-<workload>.json` when
//! `--out` is given. The cluster's own timeline is only counted, by layer,
//! into `trace.*`: serve-flat alone records about 4M events per rep.

mod check;
mod layers;
mod set;
mod stats;
mod workload;
mod yardstick;

use check::{check, digest};
use fusedpack_datatype::CompiledLayout;
use fusedpack_gpu::PoolStats;
use fusedpack_mpi::RunReport;
use fusedpack_sim::Time;
use fusedpack_telemetry::json::{self, Value};
use fusedpack_telemetry::{chrome, Lane, Payload, Telemetry};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Meta, Scale, Spec};
use yardstick::Yardstick;

/// Untimed reps before measuring (see the module docs).
const WARMUP_REPS: usize = 3;
/// Fewest measured reps, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Reps recorded under telemetry in a `--trace 1` process.
const TRACED_REPS: usize = 3;

/// Host-time spans around fpbench's own phases, in a timeline of their own
/// (disabled unless tracing).
struct Spans {
    tele: Telemetry,
    origin: Instant,
}

impl Spans {
    /// Run `f`, returning its result and host seconds, recorded as a span.
    fn time<T>(&self, label: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        let ns = |d: std::time::Duration| Time(d.as_nanos() as u64);
        self.tele
            .span(Lane::Host, ns(start), ns(end), || Payload::Marker { label });
        (out, (end - start).as_secs_f64())
    }
}

/// One rep's host times and the counts its rates need. Only these are
/// kept per rep, so the process's memory does not grow with the number of
/// reps that fit in `--seconds`.
struct Rep {
    programs_s: f64,
    build_s: f64,
    run_s: f64,
    verify_s: f64,
    /// Host slowdown around this rep (see [`yardstick`]).
    slowdown: f64,
    events: u64,
    barrier_ns: u64,
    stall_ns: u64,
}

/// The latest rep's full results, for the ledger's counts (every count is
/// the same on each rep of a seed).
struct Last {
    report: RunReport,
    meta: Meta,
    pool: PoolStats,
    hop_bytes: u64,
    order_violations: u64,
}

/// One measurement process: a workload at a seed, and the tally of its
/// checked reps.
struct Bench {
    spec: &'static Spec,
    scale: Scale,
    seed: u64,
    spans: Spans,
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
    last: Option<Last>,
    yardstick: Yardstick,
}

impl Bench {
    fn rep(&mut self, telemetry: Option<&Telemetry>) -> Rep {
        let (spec, scale, seed) = (self.spec, self.scale, self.seed);
        let (before, _) = self.spans.time("yardstick", || self.yardstick.slowdown());
        let (inputs, programs_s) = self.spans.time("programs", || spec.inputs(scale, seed));
        let ((mut cluster, meta), build_s) =
            self.spans.time("build", || spec.build(inputs, telemetry));
        let (report, run_s) = self.spans.time("run", || cluster.run());
        let (after, _) = self.spans.time("yardstick", || self.yardstick.slowdown());
        let slowdown = (before + after) / 2.0;
        let (failures, verify_s) = self.spans.time("verify", || {
            let mut failures = check(spec, &meta, &cluster, &report);
            let d = digest(&report);
            match *self.digest.get_or_insert(d) {
                first if first != d => failures.push(format!(
                    "virtual-time digest {d:016x} differs from the set's first rep {first:016x}"
                )),
                _ => {}
            }
            failures
        });
        self.attempted += 1;
        eprintln!(
            "fpbench: {} rep {}: programs {programs_s:.4} s, build {build_s:.4} s, \
             run {run_s:.4} s, verify {verify_s:.4} s, host slowdown {slowdown:.3}",
            spec.name, self.attempted
        );
        if !failures.is_empty() {
            self.failed += 1;
            eprintln!(
                "fpbench: {} rep {} failed: {}",
                spec.name,
                self.attempted,
                failures.join("; ")
            );
        }
        let rep = Rep {
            programs_s,
            build_s,
            run_s,
            verify_s,
            slowdown,
            events: report.events_processed,
            barrier_ns: report.shard.barrier_wall_ns,
            stall_ns: report.shard.stall_wall_ns,
        };
        let hops = cluster.topo_hop_stats().unwrap_or_default();
        self.last = Some(Last {
            pool: cluster.staging_pool_stats(),
            hop_bytes: hops.iter().map(|h| h.bytes).sum(),
            order_violations: cluster.topo_order_violations().unwrap_or(0),
            report,
            meta,
        });
        rep
    }
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    stats::median(&mut reps.iter().map(f).collect::<Vec<_>>())
}

/// The process's peak resident set (VmHWM) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The seed-42 digest recorded in `baseline.json`, if any.
fn recorded_digest(workload: &str) -> Option<String> {
    let doc = json::parse(include_str!("../baseline.json")).ok()?;
    let d = doc.get("digest_seed42")?.get(workload)?.as_str()?;
    Some(d.to_string())
}

/// Everything one measurement process reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// `(name, value)` in the order of the metric table in use.
    metrics: Vec<(&'static str, f64)>,
}

/// One measurement process: warm up, measure for `seconds`, and report the
/// end-to-end metrics, or with `trace` the per-layer ledger.
fn measure(
    spec: &'static Spec,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<&PathBuf>,
) -> Result<Outcome, String> {
    let mut bench = Bench {
        spec,
        scale,
        seed,
        spans: Spans {
            tele: if trace {
                Telemetry::enabled()
            } else {
                Telemetry::disabled()
            },
            origin: Instant::now(),
        },
        attempted: 0,
        failed: 0,
        digest: None,
        last: None,
        yardstick: Yardstick::new(),
    };
    for _ in 0..WARMUP_REPS {
        bench.rep(None);
    }
    let budget = if trace { seconds / 2.0 } else { seconds };
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < budget {
        reps.push(bench.rep(None));
    }
    let digest = bench
        .digest
        .map(|d| format!("{d:016x}"))
        .unwrap_or_default();
    if seed == 42 && scale == Scale::Full {
        let recorded = recorded_digest(spec.name).unwrap_or_else(|| "none".into());
        let verdict = if recorded == digest {
            "match"
        } else {
            "MISMATCH (reported, not a failure)"
        };
        eprintln!(
            "fpbench: {} digest {digest}, recorded for seed 42: {recorded} — {verdict}",
            spec.name
        );
    } else {
        eprintln!("fpbench: {} seed {seed} digest {digest}", spec.name);
    }

    let metrics = if trace {
        ledger(&mut bench, &reps, out)?
    } else {
        let msgs = bench.last.as_ref().expect("measured reps").meta.msgs as f64;
        vec![
            (
                "msgs_per_s",
                median_of(&reps, |r| msgs * r.slowdown / r.run_s),
            ),
            (
                "setup_s",
                median_of(&reps, |r| (r.programs_s + r.build_s) / r.slowdown),
            ),
            ("peak_rss_mb", peak_rss_mb()?),
        ]
    };
    Ok(Outcome {
        attempted: bench.attempted,
        failed: bench.failed,
        metrics,
    })
}

/// The per-layer ledger of a `--trace 1` process, from its untraced reps,
/// its traced reps and the layer replays.
fn ledger(
    bench: &mut Bench,
    reps: &[Rep],
    out: Option<&PathBuf>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let run_s = median_of(reps, |r| r.run_s);
    let mut traced_run = Vec::new();
    let mut tele = Telemetry::disabled();
    for _ in 0..TRACED_REPS {
        // A fresh recorder per rep; the previous one is dropped here.
        tele = Telemetry::enabled();
        traced_run.push(bench.rep(Some(&tele)).run_s);
    }
    let snapshot = tele.snapshot();
    let census = layers::census(&snapshot);
    let (events, dropped) = (snapshot.events.len() as f64, snapshot.dropped as f64);
    // Free both timelines (about 800 MB each on serve-flat) before the
    // replays run.
    drop((tele, snapshot));

    let last = bench.last.as_ref().expect("measured reps");
    let (spec, seed, spans) = (bench.spec, bench.seed, &bench.spans);
    let (r, meta) = (&last.report, &last.meta);
    let layout = CompiledLayout::of(&meta.desc);
    let packed = layout.total_bytes(meta.count);
    let (hold_ns, _) = spans.time("replay.hold", || {
        layers::hold_ns(r.wheel.slab_high_water as usize, seed)
    });
    let (cycle_ns, _) = spans.time("replay.scheduler", || {
        layers::cycle_ns_per_req(&layout, meta.count, meta.batch, spec.adaptive)
    });
    let (compile_us, _) = spans.time("replay.compile", || layers::compile_us(&meta.desc));
    let ((pack_gbps, unpack_gbps), _) = spans.time("replay.pack", || {
        layers::pack_unpack_gbps(&layout, meta.count, seed)
    });
    let (net, _) = spans.time("replay.net", || {
        layers::net_replay(|| spec.topology(meta.nodes), &meta.pairs, packed)
    });
    if let Some(dir) = out {
        let path = dir.join(format!("trace-{}.json", spec.name));
        std::fs::write(&path, chrome::export(&spans.tele.snapshot()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    let sched =
        r.sched_stats
            .iter()
            .flatten()
            .fold(fusedpack_core::SchedStats::default(), |mut s, x| {
                s.enqueued += x.enqueued;
                s.kernels_launched += x.kernels_launched;
                s.requests_fused += x.requests_fused;
                s.flushes_sync += x.flushes_sync;
                s.flushes_threshold += x.flushes_threshold;
                s.flushes_pressure += x.flushes_pressure;
                s.threshold_adjusts += x.threshold_adjusts;
                s
            });
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let lc = &r.layout_cache;
    let f = &r.fabric;
    let bytes_moved = match spec.mode {
        fusedpack_gpu::DataMode::Full => 2 * meta.payload_bytes,
        fusedpack_gpu::DataMode::ModelOnly => 0,
    };
    let mut values: BTreeMap<&str, f64> = BTreeMap::from([
        ("workloads.programs_s", median_of(reps, |r| r.programs_s)),
        ("mpi.build_s", median_of(reps, |r| r.build_s)),
        ("mpi.run_s", run_s),
        ("mpi.kernels", r.kernels_launched.iter().sum::<u64>() as f64),
        ("mpi.wire_high_water", r.wire_high_water as f64),
        ("verify_s", median_of(reps, |r| r.verify_s)),
        ("sim.events", r.events_processed as f64),
        (
            "sim.events_per_s",
            median_of(reps, |x| x.events as f64 / x.run_s),
        ),
        ("sim.wheel.cascades", r.wheel.cascades as f64),
        ("sim.wheel.overflow_hits", r.wheel.overflow_hits as f64),
        ("sim.wheel.slots_drained", r.wheel.slots_drained as f64),
        ("sim.wheel.slab_high_water", r.wheel.slab_high_water as f64),
        ("sim.hold_ns", hold_ns),
        ("sim.shard.barriers", r.shard.barriers as f64),
        ("sim.shard.admitted", r.shard.admitted_msgs as f64),
        ("sim.shard.deferred", r.shard.deferred_transmits as f64),
        (
            "sim.shard.barrier_share",
            median_of(reps, |x| x.barrier_ns as f64 / 1e9 / x.run_s),
        ),
        (
            "sim.shard.stall_share",
            median_of(reps, |x| x.stall_ns as f64 / 1e9 / x.run_s),
        ),
        ("datatype.compile_us", compile_us),
        ("datatype.cache.hits", lc.hits() as f64),
        ("datatype.cache.misses", lc.misses() as f64),
        ("datatype.cache.hit_ratio", ratio(lc.hits(), lc.misses())),
        ("datatype.pack_GBps", pack_gbps),
        ("datatype.unpack_GBps", unpack_gbps),
        (
            "datatype.plan_class",
            layout.plan_for(meta.count).class().index() as f64,
        ),
        ("gpu.bytes_moved", bytes_moved as f64),
        ("gpu.pool.hits", last.pool.hits as f64),
        ("gpu.pool.misses", last.pool.misses as f64),
        (
            "gpu.pool.hit_ratio",
            ratio(last.pool.hits, last.pool.misses),
        ),
        ("core.enqueued", sched.enqueued as f64),
        ("core.fused_launches", sched.kernels_launched as f64),
        ("core.fusion_degree", sched.fusion_degree()),
        ("core.flushes_sync", sched.flushes_sync as f64),
        ("core.flushes_threshold", sched.flushes_threshold as f64),
        ("core.flushes_pressure", sched.flushes_pressure as f64),
        ("core.threshold_adjusts", sched.threshold_adjusts as f64),
        ("core.cycle_ns_per_req", cycle_ns),
        ("net.hop_bytes", last.hop_bytes as f64),
        ("net.order_violations", last.order_violations as f64),
        ("net.fabric.flaps", f.flaps as f64),
        ("net.fabric.degrades", f.degrades as f64),
        ("net.fabric.downs", f.downs as f64),
        ("net.fabric.reroutes", f.reroutes as f64),
        ("net.fabric.rail_failovers", f.rail_failovers as f64),
        ("net.fabric.disconnects", f.disconnects as f64),
        ("net.fabric.route_epoch", f.route_epoch as f64),
        ("net.resolve_cold_us", net.resolve_cold_us),
        ("net.resolve_warm_ns", net.resolve_warm_ns),
        ("net.transmit_ns", net.transmit_ns),
        ("host.slowdown", median_of(reps, |r| r.slowdown)),
        ("telemetry.overhead", stats::median(&mut traced_run) / run_s),
        ("telemetry.events", events),
        ("telemetry.dropped", dropped),
        ("telemetry.events_per_msg", events / meta.msgs as f64),
    ]);
    for (layer, n) in layers::Layer::ALL.iter().zip(census) {
        values.insert(layer.metric(), n as f64);
    }
    Ok(stats::PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name,
                values
                    .remove(m.name)
                    .expect("every per-layer metric is measured"),
            )
        })
        .collect())
}

/// The result line: `correct`, `attempted`, `failed`, and each metric with
/// its unit.
fn result_line(outcome: &Outcome, trace: bool) -> String {
    let unit = |name: &str| {
        let e2e = stats::END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.unit);
        let layer = stats::PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.unit);
        if trace { layer } else { e2e }.expect("metric is in its table")
    };
    let metrics = outcome.metrics.iter().map(|&(name, value)| {
        let entry = BTreeMap::from([
            ("value".to_string(), Value::Num(value)),
            ("unit".to_string(), Value::Str(unit(name).into())),
        ]);
        (name.to_string(), Value::Obj(entry))
    });
    Value::Obj(BTreeMap::from([
        ("correct".to_string(), Value::Bool(outcome.failed == 0)),
        (
            "attempted".to_string(),
            Value::Num(outcome.attempted as f64),
        ),
        ("failed".to_string(), Value::Num(outcome.failed as f64)),
        ("metrics".to_string(), Value::Obj(metrics.collect())),
    ]))
    .render()
}

const USAGE: &str = "usage:
  fpbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
  fpbench run [--seed N] [--out DIR]
  fpbench compare A B
workloads: serve-flat, halo-model, halo-bytes, halo-faults";

/// `--flag value` pairs after the subcommand.
fn flags(args: &[String]) -> Result<BTreeMap<&str, &str>, String> {
    if args.len() % 2 != 0 {
        return Err(format!("expected --flag value pairs, got {args:?}"));
    }
    args.chunks(2)
        .map(|kv| match kv[0].strip_prefix("--") {
            Some(k) => Ok((k, kv[1].as_str())),
            None => Err(format!("unexpected argument {:?}", kv[0])),
        })
        .collect()
}

fn parse<T: std::str::FromStr>(
    flags: &BTreeMap<&str, &str>,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        None => default.ok_or_else(|| format!("--{key} is required")),
    }
}

fn main_inner(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => set::compare(a.as_ref(), b.as_ref()),
            _ => Err("compare takes two result paths".into()),
        },
        Some("run") => {
            let f = flags(&args[1..])?;
            let known = ["seed", "out"];
            if let Some(k) = f.keys().find(|k| !known.contains(k)) {
                return Err(format!("unknown flag --{k}"));
            }
            set::run(
                parse(&f, "seed", Some(42))?,
                &parse(&f, "out", Some(PathBuf::from("fpbench-out")))?,
            )
        }
        _ => {
            let f = flags(args)?;
            let known = ["workload", "seed", "seconds", "trace", "out"];
            if let Some(k) = f.keys().find(|k| !known.contains(k)) {
                return Err(format!("unknown flag --{k}"));
            }
            let name: String = parse(&f, "workload", None)?;
            let spec = Spec::find(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
            let trace = match parse::<u8>(&f, "trace", Some(0))? {
                0 => false,
                1 => true,
                t => return Err(format!("--trace must be 0 or 1, got {t}")),
            };
            let seconds: f64 = parse(&f, "seconds", None)?;
            if !(0.0..=3600.0).contains(&seconds) {
                return Err(format!("--seconds out of range: {seconds}"));
            }
            let out = f.get("out").map(PathBuf::from);
            let outcome = measure(
                spec,
                Scale::Full,
                parse(&f, "seed", None)?,
                seconds,
                trace,
                out.as_ref(),
            )?;
            println!("{}", result_line(&outcome, trace));
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fpbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, shrunk, once through the checks in both modes: no
    /// rep fails and every metric of each table is reported.
    #[test]
    fn smoke_every_workload() {
        for spec in &workload::WORKLOADS {
            for trace in [false, true] {
                let outcome = measure(spec, Scale::Smoke, 42, 0.0, trace, None).expect("measures");
                assert_eq!(outcome.failed, 0, "{}", spec.name);
                let expected = if trace {
                    stats::PER_LAYER.len()
                } else {
                    stats::END_TO_END.len()
                };
                assert_eq!(outcome.metrics.len(), expected, "{}", spec.name);
                let line = json::parse(&result_line(&outcome, trace)).expect("valid JSON");
                assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            }
        }
    }

    /// `BENCHMARK.json` at the repository root lists exactly the metric
    /// tables this binary reports.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Value::as_array).expect(key).to_vec();
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), stats::END_TO_END.len());
        for (v, m) in e2e.iter().zip(&stats::END_TO_END) {
            assert_eq!(v.get("name").and_then(Value::as_str), Some(m.name));
            assert_eq!(v.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(
                v.get("better").and_then(Value::as_str),
                Some(m.better.label())
            );
            assert_eq!(v.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let layer = list("per_layer");
        assert_eq!(layer.len(), stats::PER_LAYER.len());
        for (v, m) in layer.iter().zip(stats::PER_LAYER) {
            assert_eq!(v.get("name").and_then(Value::as_str), Some(m.name));
            assert_eq!(v.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(
                v.get("better").and_then(Value::as_str),
                Some(m.better.label())
            );
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), workload::WORKLOADS.len());
        for (v, spec) in workloads.iter().zip(&workload::WORKLOADS) {
            assert_eq!(v.get("name").and_then(Value::as_str), Some(spec.name));
            assert_eq!(v.get("why").and_then(Value::as_str), Some(spec.why));
        }
    }
}
