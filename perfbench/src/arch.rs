//! `arch_sweep`: the paper-reproduction user. The six Table II circuits
//! go from QASM text through `Engine::run` under strict verification on
//! TILT (heads 16 and 32), on QCCD across the Fig. 8 trap sizes and on
//! an ELU array; two QEC memory experiments run on TILT with the
//! stabilizer simulator. Every report is rendered to JSON.

use crate::layers::{traced_run, Item, Qec, Target};
use crate::trace::{self_s, total_s, Trace};
use crate::util::{
    arr, calibrate, digest, emit, host_factor, median, peak_rss_mb, quantile, ready, render_report,
    Rng,
};
use bench::QCCD_TRAP_SIZES;
use std::collections::BTreeMap;
use std::time::Instant;
use tilt_benchmarks::qec::{repetition_code, surface_syndrome};
use tilt_benchmarks::{adder, bv, qaoa, qft, rcs, sqrt};
use tilt_circuit::qasm::{parse_qasm, to_qasm};
use tilt_circuit::Circuit;
use tilt_compiler::DeviceSpec;
use tilt_qccd::QccdSpec;
use tilt_report::Json;
use tilt_scale::ScaleSpec;

/// Surface-code patch of the memory experiment: d = 5, ten rounds.
const SURFACE: (usize, usize) = (5, 10);

/// Sweeps in a traced run; the per-row table sums them.
const TRACED_SWEEPS: usize = 5;

/// The sweep's items, in a fixed order. The seed draws the QAOA angles;
/// every other circuit is the paper's own. The gates, and so the work
/// per sweep, do not depend on the seed.
pub fn items(seed: u64) -> Vec<Item> {
    let circuits: [(&str, Circuit); 6] = [
        ("ADDER", adder::adder64()),
        ("BV", bv::bv64()),
        ("QAOA", qaoa::qaoa_maxcut(64, 20, Rng::new(seed).next_u64())),
        ("RCS", rcs::rcs64()),
        ("QFT", qft::qft64()),
        ("SQRT", sqrt::sqrt78()),
    ];
    let mut items = Vec::new();
    for (name, circuit) in &circuits {
        let n = circuit.n_qubits();
        let text = to_qasm(circuit);
        for head in [16, 32] {
            let spec = DeviceSpec::new(n, head).expect("valid tape");
            items.push(Item::new(
                format!("{name}/tilt{head}"),
                text.clone(),
                Target::Tilt(spec),
                None,
                true,
            ));
        }
        for ions in QCCD_TRAP_SIZES {
            let spec = QccdSpec::for_qubits(n, ions).expect("valid trap array");
            items.push(Item::new(
                format!("{name}/qccd{ions}"),
                text.clone(),
                Target::Qccd(spec),
                None,
                true,
            ));
        }
        let spec = ScaleSpec::new(34, 16).expect("valid ELU");
        items.push(Item::new(
            format!("{name}/elu34"),
            text.clone(),
            Target::Scaled(spec),
            None,
            true,
        ));
    }
    let rep = repetition_code(251, 10);
    let (d, rounds) = SURFACE;
    let surface = surface_syndrome(d, rounds);
    for (row, circuit, qec) in [
        ("REP251/tilt16", rep, Qec::Repetition),
        ("SURFACE5/tilt16", surface, Qec::Surface { d, rounds }),
    ] {
        let spec = DeviceSpec::new(circuit.n_qubits(), 16).expect("valid tape");
        items.push(Item::new(
            row.to_string(),
            to_qasm(&circuit),
            Target::Tilt(spec),
            Some(qec),
            true,
        ));
    }
    items
}

/// One item from QASM text to rendered report bytes.
fn run_item(item: &Item) -> Result<String, String> {
    let circuit = parse_qasm(&item.qasm).map_err(|e| e.to_string())?;
    let report = item.engine.run(&circuit).map_err(|e| e.to_string())?;
    if !item.report_ok(&report) {
        return Err(format!("{}: wrong output", item.row));
    }
    Ok(render_report(&report))
}

/// Timed round: set-up, then whole sweeps within `budget_s`.
pub fn child(seed: u64, budget_s: f64) {
    let setup_cal = calibrate();
    let items = items(seed);
    let input_gates: usize = items
        .iter()
        .map(|i| parse_qasm(&i.qasm).expect("generated QASM parses").len())
        .sum();
    // One untimed sweep lets lazy set-up finish; its outputs are the
    // reference the timed sweeps must reproduce byte for byte.
    let reference: Vec<Result<String, String>> = items.iter().map(run_item).collect();
    ready();

    // Per row (item), its latency in every sweep.
    let mut rows = vec![Vec::new(); items.len()];
    let (mut first_output, mut sweep_s, mut raw_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut cal = vec![calibrate()];
    let (mut attempted, mut failed, mut wrong) = (0usize, 0usize, 0usize);
    let start = Instant::now();
    // Whole sweeps only, ending as close to the budget as they can.
    while raw_s
        .last()
        .is_none_or(|last| start.elapsed().as_secs_f64() + last / 2.0 <= budget_s)
    {
        let mut lat = Vec::with_capacity(items.len());
        let sweep_start = Instant::now();
        for (i, item) in items.iter().enumerate() {
            let t0 = Instant::now();
            let out = run_item(item);
            lat.push(t0.elapsed().as_secs_f64() * 1e3);
            attempted += 1;
            match (&out, &reference[i]) {
                (Err(_), _) => failed += 1,
                (Ok(a), Ok(b)) if a == b => {}
                _ => wrong += 1,
            }
        }
        let secs = sweep_start.elapsed().as_secs_f64();
        cal.push(calibrate());
        let f = host_factor(cal[cal.len() - 2], cal[cal.len() - 1]);
        // The first item's latency is the time from sweep start to the
        // first rendered report.
        first_output.push(lat[0] * f);
        for (row, ms) in rows.iter_mut().zip(&lat) {
            row.push(ms * f);
        }
        sweep_s.push(secs * f);
        raw_s.push(secs);
    }
    let sweeps = sweep_s.len();
    // Latency percentiles are over the rows, each row's latency being its
    // median over the round's sweeps. The 56 rows form a few clusters of
    // similar latency and the median falls between two of them, so the
    // median is estimated by the mean of the rows between the 40th and
    // 60th percentiles, which does not jump from one cluster to the next.
    let mut row_ms: Vec<f64> = rows.iter_mut().map(|r| median(r)).collect();
    row_ms.sort_by(f64::total_cmp);
    let central = &row_ms[row_ms.len() * 2 / 5..row_ms.len() * 3 / 5];
    let p50 = central.iter().sum::<f64>() / central.len() as f64;
    let all: String = reference
        .iter()
        .map(|r| r.clone().unwrap_or_default())
        .collect();
    emit(
        &Json::object()
            .set("attempted", attempted)
            .set("failed", failed)
            .set("wrong", wrong)
            .set("unit_items", arr(&vec![items.len() as f64; sweeps]))
            .set("unit_gates", arr(&vec![input_gates as f64; sweeps]))
            .set("unit_s", arr(&sweep_s))
            .set("raw_unit_s", arr(&raw_s))
            .set("setup_factor", host_factor(setup_cal, cal[0]))
            .set("p50_ms", arr(&[p50]))
            .set("p99_ms", arr(&[quantile(&mut row_ms, 0.99)]))
            .set("latency_samples", attempted)
            .set("first_output_ms", arr(&first_output))
            .set("peak_rss_mb", peak_rss_mb())
            .set("digest", digest(all.as_bytes())),
    );
}

/// Traced round: every item once untraced and once traced; per-row
/// layer self times, per-layer totals and the trace's own checks.
pub fn trace_child(seed: u64) {
    let items = items(seed);
    // Warm-up, as in the timed rounds.
    for item in &items {
        let _ = run_item(item);
    }
    let mut t = Trace::new();
    let mut untraced = vec![0.0; items.len()];
    let mut traced_e2e = vec![0.0; items.len()];
    let (mut attempted, mut failed, mut wrong) = (0usize, 0usize, 0usize);
    let mut parse_bytes = 0usize;
    for _ in 0..TRACED_SWEEPS {
        for (i, item) in items.iter().enumerate() {
            attempted += 1;
            let t0 = Instant::now();
            let out = run_item(item);
            untraced[i] += t0.elapsed().as_secs_f64();
            if out.is_err() {
                failed += 1;
                continue;
            }
            // Spans of one item share the item's row index.
            t.item(i);
            let t0 = Instant::now();
            let (circuit, traced) = t.span("item", |t| {
                let circuit = t
                    .span("qasm.parse", |_| parse_qasm(&item.qasm))
                    .expect("generated QASM parses");
                let traced = traced_run(t, item, &circuit);
                (circuit, traced)
            });
            traced_e2e[i] += t0.elapsed().as_secs_f64();
            parse_bytes += item.qasm.len();
            let report = item.engine.run(&circuit).expect("item ran untraced");
            if !traced.matches(&report) || traced.diagnostics != 0 || !traced.qec_ok {
                wrong += 1;
            }
        }
    }

    // Per-row table: end-to-end, layer self times, schedule share of
    // the compile, trace coverage and overhead.
    println!(
        "arch_sweep trace, per row, summed over {TRACED_SWEEPS} sweeps (ms; share = schedule / (decompose + route + schedule)):"
    );
    println!(
        "{:<18} {:>9} {:>8} {:>8} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6} {:>7} {:>7}",
        "row",
        "e2e",
        "parse",
        "decomp",
        "route",
        "sched",
        "estim",
        "qccd",
        "scale",
        "verify",
        "share",
        "unacct",
        "ovhd"
    );
    let mut qft_sched = 0.0;
    let mut qft_compile = 0.0;
    for (i, item) in items.iter().enumerate() {
        let times = t.times(|k| k == i);
        let ms = |name| self_s(&times, name) * 1e3;
        let compile = ms("decompose") + ms("route") + ms("schedule");
        let share = if compile > 0.0 {
            ms("schedule") / compile
        } else {
            0.0
        };
        if item.row.starts_with("QFT/tilt") {
            qft_sched += ms("schedule");
            qft_compile += compile;
        }
        let e2e = total_s(&times, "item") * 1e3;
        println!(
            "{:<18} {:>9.3} {:>8.3} {:>8.3} {:>9.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>6.3} {:>7.4} {:>7.3}",
            item.row,
            e2e,
            ms("qasm.parse"),
            ms("decompose"),
            ms("route"),
            ms("schedule"),
            ms("estimate"),
            ms("qccd.compile"),
            ms("scale.compile"),
            ms("verify"),
            share,
            ms("item") / e2e,
            traced_e2e[i] / untraced[i],
        );
    }
    let times = t.times(|_| true);
    let e2e = total_s(&times, "item");
    let parse_s = self_s(&times, "qasm.parse");
    let mut layers = BTreeMap::new();
    layers.insert("qasm.parse_s", parse_s);
    layers.insert("qasm.bytes_per_s", parse_bytes as f64 / parse_s);
    layers.insert("engine.run_s", total_s(&times, "engine.run"));
    layers.insert("schedule.qft_share", qft_sched / qft_compile);
    layers.insert("trace.unaccounted_ratio", self_s(&times, "item") / e2e);
    layers.insert(
        "trace.overhead_ratio",
        traced_e2e.iter().sum::<f64>() / untraced.iter().sum::<f64>(),
    );
    emit(&crate::layer_record(
        &t, &times, layers, attempted, failed, wrong,
    ));
}
