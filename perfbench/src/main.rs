//! The repository's benchmark: four workloads from QASM bytes to report
//! bytes through the public entry points, each in its own child process.
//! See `perfbench/README.md` for the metrics and why each workload exists.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`).

mod arch;
mod layers;
mod serve;
mod stream;
mod trace;
mod util;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::time::Instant;
use tilt_report::Json;
use trace::{self_s, Trace};
use util::{median, num, nums, rel_iqr, text, ChildProc};

const WORKLOADS: [&str; 4] = [
    "arch_sweep",
    "serve_distinct",
    "serve_repeat",
    "stream_rcs_1m",
];

/// End-to-end metrics and their units, reported with tracing off.
const END_TO_END: [(&str, &str); 7] = [
    ("circuits_per_s", "1/s"),
    ("gates_per_s", "1/s"),
    ("first_output_ms", "ms"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics and their units, reported by the traced run. A
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("schedule.s", "s"),
    ("schedule.moves", "count"),
    ("schedule.move_distance", "ions"),
    ("schedule.ops", "count"),
    ("schedule.qft_share", "ratio"),
    ("route.s", "s"),
    ("route.swaps", "count"),
    ("route.opposing_ratio", "ratio"),
    ("decompose.s", "s"),
    ("decompose.native_gates", "count"),
    ("qasm.parse_s", "s"),
    ("qasm.bytes_per_s", "B/s"),
    ("qasm.stream_s", "s"),
    ("estimate.s", "s"),
    ("qccd.compile_s", "s"),
    ("qccd.transports", "count"),
    ("scale.compile_s", "s"),
    ("scale.epr_pairs", "count"),
    ("verify.s", "s"),
    ("verify.diagnostics", "count"),
    ("stabilizer.s", "s"),
    ("stabilizer.measurements", "count"),
    ("engine.run_s", "s"),
    ("service.self_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("stream.increments", "count"),
    ("stream.increment_gap_max_ms", "ms"),
    ("stream.compile_s", "s"),
    ("settle.stream_gates_per_s", "1/s"),
    ("settle.mono_gates_per_s", "1/s"),
    ("settle.stream_peak_rss_mb", "MB"),
    ("settle.mono_peak_rss_mb", "MB"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_ratio", "ratio"),
];

/// Timed rounds per run, each in a fresh child process. Set-up time is
/// the median over rounds and peak memory the mean: a process's
/// footprint and speed vary a little from process to process, and ten
/// rounds keep that mix steady from run to run. A stream pass
/// takes about two seconds and a process's first pass runs cold, so
/// `stream_rcs_1m` makes four rounds of two passes instead.
fn rounds(workload: &str) -> usize {
    if workload == "stream_rcs_1m" {
        4
    } else {
        10
    }
}

/// Settlement pairs (streaming and monolithic child each) per traced
/// `stream_rcs_1m` run.
const SETTLE_PAIRS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    eprintln!("       perfbench --smoke");
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => parsed.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) || parsed.seconds <= 0.0 {
        usage();
    }
    parsed
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--child") => child(&args[1..]),
        Some("--smoke") => smoke(),
        _ => {
            let args = parse_args(&args);
            let record = if args.trace {
                traced(&args)
            } else {
                timed(&args)
            };
            println!("{}", record.render());
        }
    }
}

/// Child-process entry points (see [`ChildProc`]).
fn child(args: &[String]) {
    let arg = |i: usize| args.get(i).cloned().unwrap_or_default();
    let seed = || arg(1).parse::<u64>().expect("child seed");
    let budget = || arg(2).parse::<f64>().expect("child budget");
    match arg(0).as_str() {
        "arch" => arch::child(seed(), budget()),
        "arch-trace" => arch::trace_child(seed()),
        "service" => serve::service_child(),
        "stream" => stream::child(seed(), budget()),
        "stream-trace" => stream::trace_child(seed(), Path::new(&arg(2))),
        "settle" => stream::settle_child(Path::new(&arg(1)), arg(2) == "mono"),
        other => panic!("unknown child `{other}`"),
    }
}

/// Spawns a measured child and times its set-up (spawn to `ready`).
fn timed_child(args: &[String]) -> Json {
    let t0 = Instant::now();
    let mut child = ChildProc::spawn(args, false);
    let line = child.line();
    assert_eq!(line, "ready", "child handshake");
    let setup_s = t0.elapsed().as_secs_f64();
    let result = child.finish();
    let setup_s = setup_s * num(&result, "setup_factor");
    result.set("setup_s", setup_s)
}

/// The timed run: end-to-end metrics with tracing off.
fn timed(args: &Args) -> Json {
    let n_rounds = rounds(&args.workload);
    let budget = args.seconds / n_rounds as f64;
    let mut seen = HashMap::new();
    let rounds: Vec<Json> = (0..n_rounds)
        .map(|_| {
            let child_args =
                |kind: &str| vec![kind.to_string(), args.seed.to_string(), budget.to_string()];
            match args.workload.as_str() {
                "arch_sweep" => timed_child(&child_args("arch")),
                "stream_rcs_1m" => timed_child(&child_args("stream")),
                "serve_distinct" => serve::round(true, args.seed, budget, &mut seen),
                _ => serve::round(false, args.seed, budget, &mut seen),
            }
        })
        .collect();

    let sum = |key: &str| rounds.iter().map(|r| num(r, key)).sum::<f64>();
    let pooled = |key: &str| {
        rounds
            .iter()
            .flat_map(|r| nums(r, key))
            .collect::<Vec<f64>>()
    };
    let per_round = |key: &str| rounds.iter().map(|r| num(r, key)).collect::<Vec<f64>>();
    let attempted = sum("attempted") as usize;
    let failed = sum("failed") as usize;
    // Outputs must be byte-identical across rounds (a deterministic
    // compiler); the serve rounds check this per request themselves.
    let digests: Vec<&str> = rounds
        .iter()
        .filter_map(|r| r.get("digest").and_then(Json::as_str))
        .collect();
    let digest_mismatch = digests.windows(2).filter(|w| w[0] != w[1]).count();
    let wrong = sum("wrong") as usize + digest_mismatch;
    // Throughput is the median over the rounds' units (a sweep, a pass,
    // or a block of responses), so a burst of interference on the host
    // moves it less than it would move a total.
    let (items, gates, unit_s) = (pooled("unit_items"), pooled("unit_gates"), pooled("unit_s"));
    let mut items_rate: Vec<f64> = items.iter().zip(&unit_s).map(|(n, s)| n / s).collect();
    let mut gates_rate: Vec<f64> = gates.iter().zip(&unit_s).map(|(n, s)| n / s).collect();
    let mut raw_rate: Vec<f64> = items
        .iter()
        .zip(pooled("raw_unit_s"))
        .map(|(n, s)| n / s)
        .collect();
    let mut first = pooled("first_output_ms");
    // Each round reports latency percentiles per unit (a round, a pass or
    // a block); the run reports their median.
    let samples = sum("latency_samples");
    let metrics = [
        median(&mut items_rate),
        median(&mut gates_rate),
        median(&mut first),
        median(&mut pooled("p50_ms")),
        median(&mut pooled("p99_ms")),
        per_round("peak_rss_mb").iter().sum::<f64>() / n_rounds as f64,
        median(&mut per_round("setup_s")),
    ];
    println!(
        "{}: {} rounds, {} threads, {attempted} items attempted, {failed} failed ({:.4} error rate), {wrong} wrong outputs",
        args.workload,
        n_rounds,
        util::pool_threads(),
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "{}: unscaled circuits/s {:.4}, host factor median {:.3}",
        args.workload,
        median(&mut raw_rate),
        median(&mut items_rate.clone()) / median(&mut raw_rate)
    );
    println!(
        "{}: {} throughput units, {} latency samples, {} first-output samples{}",
        args.workload,
        unit_s.len(),
        samples,
        first.len(),
        digests
            .first()
            .map_or(String::new(), |d| format!(", output digest {d}"))
    );
    if rounds.iter().any(|r| r.get("evictions").is_some()) {
        println!(
            "{}: cache evictions per round {:?}",
            args.workload,
            per_round("evictions")
        );
    }
    result(
        wrong,
        attempted,
        failed,
        END_TO_END.iter().zip(metrics).map(|(&(n, u), v)| (n, u, v)),
    )
}

/// The traced run: per-layer metrics.
fn traced(args: &Args) -> Json {
    let record = match args.workload.as_str() {
        "arch_sweep" => {
            ChildProc::spawn(&["arch-trace".into(), args.seed.to_string()], false).finish()
        }
        "serve_distinct" | "serve_repeat" => serve::traced(
            args.workload == "serve_distinct",
            args.seed,
            args.seconds / rounds(&args.workload) as f64,
        ),
        _ => traced_stream(args.seed),
    };
    let layers = record.get("layers").expect("trace record carries layers");
    let values = PER_LAYER
        .iter()
        .map(|&(n, u)| (n, u, layers.get(n).and_then(Json::as_f64).unwrap_or(0.0)));
    println!(
        "{}: traced run, {} threads",
        args.workload,
        util::pool_threads()
    );
    result(
        num(&record, "wrong") as usize,
        num(&record, "attempted") as usize,
        num(&record, "failed") as usize,
        values,
    )
}

/// The traced `stream_rcs_1m` run, plus the streaming-vs-monolithic
/// settlement: alternating child processes on the same file.
fn traced_stream(seed: u64) -> Json {
    let path = stream::input_path("trace");
    stream::write_input(seed, &path);
    let path_arg = path.to_string_lossy().to_string();
    let record = ChildProc::spawn(
        &["stream-trace".into(), seed.to_string(), path_arg.clone()],
        false,
    )
    .finish();
    // Per side: (gates/s, peak RSS) of each child; every child must
    // reach the same success estimate.
    let mut sides: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
    let mut bits = HashSet::new();
    for k in 0..SETTLE_PAIRS {
        let order = if k % 2 == 0 {
            ["stream", "mono"]
        } else {
            ["mono", "stream"]
        };
        for side in order {
            let r =
                ChildProc::spawn(&["settle".into(), path_arg.clone(), side.into()], false).finish();
            sides
                .entry(side)
                .or_default()
                .push((num(&r, "gates_per_s"), num(&r, "peak_rss_mb")));
            bits.insert(text(&r, "ln_success_bits").to_string());
        }
    }
    std::fs::remove_file(&path).expect("remove the QASM input");
    let mut layers = match record.get("layers") {
        Some(Json::Obj(entries)) => entries.clone(),
        _ => panic!("stream trace carries layers"),
    };
    let wrong = num(&record, "wrong") + if bits.len() == 1 { 0.0 } else { 1.0 };
    for (side, runs) in &sides {
        let mut gps: Vec<f64> = runs.iter().map(|r| r.0).collect();
        let mut rss: Vec<f64> = runs.iter().map(|r| r.1).collect();
        println!(
            "settlement {side}: gates/s median {:.0} (IQR {:.1}% of median), peak RSS median {:.1} MB (IQR {:.1}%), n = {}",
            median(&mut gps),
            100.0 * rel_iqr(&mut gps),
            median(&mut rss),
            100.0 * rel_iqr(&mut rss),
            gps.len()
        );
        layers.push((
            format!("settle.{side}_gates_per_s"),
            Json::Num(median(&mut gps)),
        ));
        layers.push((
            format!("settle.{side}_peak_rss_mb"),
            Json::Num(median(&mut rss)),
        ));
    }
    Json::object()
        .set(
            "attempted",
            num(&record, "attempted") + 2.0 * SETTLE_PAIRS as f64,
        )
        .set("failed", num(&record, "failed"))
        .set("wrong", wrong)
        .set("layers", Json::Obj(layers))
}

/// The standard layer metrics from a trace's spans and counters, merged
/// with the workload's own values.
pub fn layer_record(
    t: &Trace,
    times: &BTreeMap<&'static str, (f64, f64)>,
    mut layers: BTreeMap<&'static str, f64>,
    attempted: usize,
    failed: usize,
    wrong: usize,
) -> Json {
    for (metric, span) in [
        ("schedule.s", "schedule"),
        ("route.s", "route"),
        ("decompose.s", "decompose"),
        ("estimate.s", "estimate"),
        ("qccd.compile_s", "qccd.compile"),
        ("scale.compile_s", "scale.compile"),
        ("verify.s", "verify"),
        ("stabilizer.s", "stabilizer"),
    ] {
        layers.entry(metric).or_insert_with(|| self_s(times, span));
    }
    for counter in [
        "schedule.moves",
        "schedule.move_distance",
        "schedule.ops",
        "route.swaps",
        "decompose.native_gates",
        "qccd.transports",
        "scale.epr_pairs",
        "verify.diagnostics",
        "stabilizer.measurements",
    ] {
        layers.entry(counter).or_insert_with(|| t.counter(counter));
    }
    let swaps = t.counter("route.swaps");
    if swaps > 0.0 {
        layers.insert(
            "route.opposing_ratio",
            t.counter("route.opposing_swaps") / swaps,
        );
    }
    layer_values(layers, attempted, failed, wrong)
}

pub fn layer_values(
    layers: BTreeMap<&'static str, f64>,
    attempted: usize,
    failed: usize,
    wrong: usize,
) -> Json {
    let mut obj = Json::object();
    for (k, v) in layers {
        obj = obj.set(k, v);
    }
    Json::object()
        .set("attempted", attempted)
        .set("failed", failed)
        .set("wrong", wrong)
        .set("layers", obj)
}

/// The result line the benchmark contract defines.
fn result<'a>(
    wrong: usize,
    attempted: usize,
    failed: usize,
    metrics: impl IntoIterator<Item = (&'a str, &'a str, f64)>,
) -> Json {
    println!(
        "wrong_outputs {wrong}, error_rate {:.6}",
        failed as f64 / attempted.max(1) as f64
    );
    let mut obj = Json::object();
    for (name, unit, value) in metrics {
        obj = obj.set(name, Json::object().set("value", value).set("unit", unit));
    }
    Json::object()
        .set("correct", wrong == 0)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", obj)
}

/// Runs every workload briefly, traced and untraced, and checks that
/// every metric `BENCHMARK.json` names is emitted, with no failed item
/// and no wrong output. `serve_repeat` is run too, though
/// `BENCHMARK.json` does not list it (see the README).
fn smoke() {
    let contract = std::fs::read_to_string("BENCHMARK.json")
        .expect("run from the checkout root, beside BENCHMARK.json");
    let contract = Json::parse(&contract).expect("BENCHMARK.json is JSON");
    let names = |key: &str| -> Vec<String> {
        contract
            .get(key)
            .and_then(Json::as_array)
            .expect("BENCHMARK.json lists")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("named entry")
                    .to_string()
            })
            .collect()
    };
    let exe = std::env::current_exe().expect("locate the benchmark binary");
    let mut ok = true;
    for workload in WORKLOADS {
        for (trace, expect) in [("0", names("end_to_end")), ("1", names("per_layer"))] {
            let out = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "1",
                    "--seconds",
                    "1.5",
                    "--trace",
                    trace,
                ])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let record = Json::parse(last).unwrap_or(Json::Null);
            let metrics = record.get("metrics");
            let missing: Vec<&String> = expect
                .iter()
                .filter(|n| metrics.and_then(|m| m.get(n)).is_none())
                .collect();
            let good = out.status.success()
                && missing.is_empty()
                && record.get("correct") == Some(&Json::Bool(true))
                && record.get("failed").and_then(Json::as_f64) == Some(0.0);
            println!(
                "smoke {workload} trace={trace}: {}",
                if good { "ok" } else { "FAILED" }
            );
            if !good {
                println!("  missing metrics {missing:?}; last line {last}");
                ok = false;
            }
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
