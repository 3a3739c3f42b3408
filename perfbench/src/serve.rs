//! `serve_distinct` and `serve_repeat`: a TILT session (24-ion tape,
//! head 8) behind `Service::serve`, running in its own child process
//! and driven over OS pipes by a closed-loop load generator in this
//! process (one writer thread, one reader thread).

use crate::layers::{traced_run, Item, Target};
use crate::trace::{self_s, total_s, Trace};
use crate::util::{
    arr, calibrate, digest, emit, host_factor, num, peak_rss_mb, quantile, ChildProc, Rng,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, Write};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::Instant;
use tilt_benchmarks::extended::ghz;
use tilt_benchmarks::{bv, qaoa, qft};
use tilt_circuit::qasm::{parse_qasm, to_qasm};
use tilt_circuit::{Circuit, Gate, Qubit};
use tilt_compiler::DeviceSpec;
use tilt_engine::{Backend, Engine, Service, WireReport, DEFAULT_CACHE_CAPACITY};
use tilt_report::Json;

const IONS: usize = 24;
const HEAD: usize = 8;

/// Distinct circuits in the `serve_distinct` pool: more than the cache
/// holds, so cycling through the pool never hits.
pub const DISTINCT_POOL: usize = DEFAULT_CACHE_CAPACITY + DEFAULT_CACHE_CAPACITY / 4;
/// Probe requests in the `serve_distinct` pool.
const DISTINCT_PROBES: usize = 512;
/// The `serve_repeat` working set.
pub const REPEAT_POOL: usize = 64;
/// Every pool entry whose index is a multiple of this is checked field
/// for field against `Engine::run`.
const SAMPLE_EVERY: usize = 64;
/// Requests per measurement block (see [`closed_loop`]): at least ten
/// samples beyond each block's 99th percentile.
const DISTINCT_BLOCK: usize = 1024;
const REPEAT_BLOCK: usize = 4096;
/// Lone probe requests before each block.
const PROBES: usize = 4;

fn spec() -> DeviceSpec {
    DeviceSpec::new(IONS, HEAD).expect("valid tape")
}

/// The requests of a workload, as QASM payloads with their input gate
/// counts, all distinct. The loop cycles through the first `main`; the
/// rest, if any, are the probes.
pub struct Pool {
    pub entries: Vec<(String, usize)>,
    pub main: usize,
}

/// Builds the pool. `serve_distinct` probes are distinct QAOA-16
/// circuits of one shape, so every probe misses the cache yet costs the
/// same; `serve_repeat` probes come from the primed working set.
pub fn pool(distinct: bool, seed: u64) -> Pool {
    let mut rng = Rng::new(seed);
    let mut seen = HashSet::new();
    let mut entries = Vec::new();
    let mut fill = |size: usize, make: &mut dyn FnMut(&mut Rng) -> Circuit| {
        let target = entries.len() + size;
        while entries.len() < target {
            let circuit = make(&mut rng);
            let text = to_qasm(&circuit);
            if seen.insert(text.clone()) {
                entries.push((text, circuit.len()));
            }
        }
    };
    if distinct {
        fill(DISTINCT_POOL, &mut distinct_circuit);
        fill(DISTINCT_PROBES, &mut |rng| {
            qaoa::qaoa_maxcut(16, 2, rng.next_u64())
        });
        Pool {
            entries,
            main: DISTINCT_POOL,
        }
    } else {
        fill(REPEAT_POOL, &mut |rng| {
            qaoa::qaoa_maxcut(16, 4, rng.next_u64())
        });
        Pool {
            entries,
            main: REPEAT_POOL,
        }
    }
}

/// A seeded GHZ, BV, QAOA or QFT circuit of 12 to 24 qubits. GHZ and QFT
/// start from a seeded basis state, so the families have many members.
fn distinct_circuit(rng: &mut Rng) -> Circuit {
    let n = 12 + rng.below(13);
    let basis = |rng: &mut Rng, body: Circuit| {
        let flips = (0..n)
            .filter(|_| rng.below(2) == 1)
            .map(|q| Gate::X(Qubit(q)));
        Circuit::from_gates(
            n,
            flips
                .collect::<Vec<_>>()
                .into_iter()
                .chain(body.gates().iter().copied()),
        )
    };
    match rng.below(4) {
        0 => basis(rng, ghz(n)),
        1 => {
            let secret: Vec<bool> = (0..n - 1).map(|_| rng.below(2) == 1).collect();
            bv::bernstein_vazirani(n, &secret)
        }
        2 => qaoa::qaoa_maxcut(n, 2, rng.next_u64()),
        _ => basis(rng, qft::qft(n)),
    }
}

fn request_line(id: usize, qasm: &str) -> String {
    let mut line = Json::object().set("id", id).set("qasm", qasm).render();
    line.push('\n');
    line
}

/// The service process: the session, then the JSON-lines loop on
/// stdin/stdout until EOF, then its own accounting.
pub fn service_child() {
    let builder = Engine::builder().backend(Backend::Tilt(spec()));
    let mut service = Service::new(builder).expect("valid session");
    emit(&Json::object().set("window", service.window()));
    let summary = service
        .serve(std::io::stdin().lock(), std::io::stdout().lock(), None)
        .expect("serve over pipes");
    emit(
        &Json::object()
            .set("peak_rss_mb", peak_rss_mb())
            .set("errors", summary.stats.errors),
    );
}

/// A counting semaphore: the closed loop's outstanding-request budget.
struct Permits {
    free: Mutex<usize>,
    cv: Condvar,
}

impl Permits {
    fn acquire(&self, n: usize) {
        let mut free = self.free.lock().expect("permit lock");
        while *free < n {
            free = self.cv.wait(free).expect("permit lock");
        }
        *free -= n;
    }

    fn release(&self, n: usize) {
        *self.free.lock().expect("permit lock") += n;
        self.cv.notify_all();
    }
}

/// One answered request.
pub struct Response {
    /// Pool entry the request sent.
    pub index: usize,
    /// Measurement block (see [`closed_loop`]).
    pub block: usize,
    /// Sent alone to an idle service.
    pub probe: bool,
    /// Write-to-response-read latency.
    pub ms: f64,
    /// Response read, seconds from the loop's start.
    pub done_s: f64,
}

/// What one closed-loop phase measured.
#[derive(Default)]
pub struct LoopStats {
    pub responses: Vec<Response>,
    pub failed: usize,
    /// Per pool index: digest of the response bytes after the id.
    pub digests: Vec<(usize, String)>,
    /// Kept responses for the field-for-field check.
    pub samples: Vec<(usize, String)>,
    /// Per block: when its first non-probe request was sent (seconds
    /// from the loop's start), and the calibrations before and after it.
    pub block_start_s: Vec<f64>,
    pub cal_s: Vec<f64>,
}

impl LoopStats {
    fn latency_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.responses.iter().filter(|r| !r.probe).map(|r| r.ms)
    }
}

/// Drives `count` requests (or until `budget_s` passes, when given)
/// through the service, keeping `depth` outstanding. Request `k` sends
/// pool entry `k % pool.main`; a timed loop (`block` given) sends at
/// least `pool.main` requests.
///
/// With `block = Some(n)` the loop runs in blocks of `n` requests. Before
/// each block it waits until nothing is outstanding and sends
/// [`PROBES`] probe requests one at a time, each alone; their latency is
/// the interactive first-output time. Then it calibrates the host while
/// the service is idle, so nothing competes. A last calibration follows
/// the last block.
fn closed_loop(
    svc: &mut ChildProc,
    stdin: &mut std::process::ChildStdin,
    pool: &Pool,
    depth: usize,
    count: usize,
    budget_s: Option<f64>,
    block: Option<usize>,
) -> LoopStats {
    let permits = Permits {
        free: Mutex::new(depth),
        cv: Condvar::new(),
    };
    let permits = &permits;
    let (tx, rx) = mpsc::channel::<(usize, usize, bool, Instant)>();
    let lines: Vec<String> = pool
        .entries
        .iter()
        .enumerate()
        .map(|(i, (q, _))| request_line(i, q))
        .collect();
    let start = Instant::now();
    let stdout = svc.stdout();
    std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut st = LoopStats::default();
            let mut line = String::new();
            for (index, block, probe, sent) in rx {
                line.clear();
                let n = stdout.read_line(&mut line).expect("read response");
                assert!(n > 0, "service closed its output early");
                let now = Instant::now();
                st.responses.push(Response {
                    index,
                    block,
                    probe,
                    ms: (now - sent).as_secs_f64() * 1e3,
                    done_s: (now - start).as_secs_f64(),
                });
                if !line.contains("\"ok\":true") {
                    st.failed += 1;
                }
                let line = line.trim_end();
                if index % SAMPLE_EVERY == 0 {
                    st.samples.push((index, line.to_string()));
                }
                let body = line.split_once(',').map_or("", |(_, b)| b);
                st.digests.push((index, digest(body.as_bytes())));
                permits.release(1);
            }
            st
        });
        let probes = lines.len() - pool.main;
        // `probe` is the probe's number within its block.
        let mut send = |k: usize, b: usize, probe: Option<usize>| {
            let index = match probe {
                Some(p) if probes > 0 => pool.main + (b * PROBES + p) % probes,
                Some(p) => (k + p) % pool.main,
                None => k % pool.main,
            };
            tx.send((index, b, probe.is_some(), Instant::now()))
                .expect("reader alive");
            stdin
                .write_all(lines[index].as_bytes())
                .expect("write request");
            stdin.flush().expect("flush request");
        };
        let (mut cal_s, mut block_start_s) = (Vec::new(), Vec::new());
        // A timed loop sends the whole main pool at least once, so in
        // `serve_distinct` every round fills the cache and evicts.
        let floor = if block.is_some() { pool.main } else { 0 };
        let mut k = 0;
        while k < count
            && (k < floor || !budget_s.is_some_and(|b| start.elapsed().as_secs_f64() >= b))
        {
            if let Some(n) = block.filter(|n| k % n == 0) {
                permits.acquire(depth);
                // Holding every permit, each probe's response is the
                // only release, so the next probe waits for it.
                for p in 0..PROBES {
                    send(k, k / n, Some(p));
                    permits.acquire(1);
                }
                cal_s.push(calibrate());
                permits.release(depth);
                block_start_s.push(start.elapsed().as_secs_f64());
            }
            permits.acquire(1);
            send(k, block.map_or(0, |n| k / n), None);
            k += 1;
        }
        if block.is_some() {
            permits.acquire(depth);
            cal_s.push(calibrate());
        }
        drop(tx);
        let mut st = reader.join().expect("reader thread");
        st.cal_s = cal_s;
        st.block_start_s = block_start_s;
        st
    })
}

/// Requests the service's stats line (cache counters so far).
fn cache_stats(svc: &mut ChildProc, stdin: &mut std::process::ChildStdin) -> Json {
    stdin
        .write_all(b"{\"op\":\"stats\"}\n")
        .expect("write stats");
    stdin.flush().expect("flush stats");
    let line = svc.line();
    let json = Json::parse(&line).expect("stats response is JSON");
    json.get_path("stats.cache")
        .cloned()
        .expect("stats carry cache counters")
}

/// Field-for-field comparison of sampled responses with `Engine::run`
/// on the same circuit; returns the number that differ.
fn check_samples(pool: &Pool, samples: &[(usize, String)]) -> usize {
    let engine = Engine::tilt(spec());
    let mut checked = HashSet::new();
    let mut wrong = 0;
    for (index, line) in samples {
        if !checked.insert(*index) {
            continue;
        }
        let circuit = parse_qasm(&pool.entries[*index].0).expect("pool QASM parses");
        let w = WireReport::of(&engine.run(&circuit).expect("pool circuit compiles"));
        let got = Json::parse(line).expect("response is JSON");
        let fields: [(&str, Json); 12] = [
            ("id", Json::from(*index)),
            ("ok", Json::Bool(true)),
            ("backend", Json::from(w.backend.to_string())),
            ("swaps", Json::from(w.swaps)),
            ("opposing_swaps", Json::from(w.opposing_swaps)),
            ("moves", Json::from(w.moves)),
            ("move_distance", Json::from(w.move_distance)),
            ("native_gates", Json::from(w.native_gates)),
            ("native_two_qubit", Json::from(w.native_two_qubit)),
            ("epr_pairs", Json::from(w.epr_pairs)),
            ("ln_success", Json::from(w.ln_success)),
            ("exec_time_us", Json::from(w.exec_time_us)),
        ];
        let success_ok = got.get("success").and_then(Json::as_f64).map(f64::to_bits)
            == Some(w.success.to_bits());
        if !success_ok || fields.iter().any(|(k, v)| got.get(k) != Some(v)) {
            wrong += 1;
        }
    }
    wrong
}

/// Counts responses whose bytes differ from the first response to the
/// same pool entry (the compiler is deterministic); `seen` carries the
/// reference digests across rounds.
fn check_digests(stats: &LoopStats, seen: &mut HashMap<usize, String>) -> usize {
    stats
        .digests
        .iter()
        .filter(|(i, d)| seen.entry(*i).or_insert_with(|| d.clone()) != d)
        .count()
}

/// One timed round, measured from this process. Returns the round's
/// record for the aggregator.
pub fn round(distinct: bool, seed: u64, budget_s: f64, seen: &mut HashMap<usize, String>) -> Json {
    let setup_cal = calibrate();
    let t0 = Instant::now();
    let pool = pool(distinct, seed);
    let mut svc = ChildProc::spawn(&["service".to_string()], true);
    let mut stdin = svc.stdin();
    let hello = Json::parse(&svc.line()).expect("service handshake");
    let depth = num(&hello, "window") as usize;
    if !distinct {
        // Prime the working set: afterwards every request hits.
        let primed = closed_loop(&mut svc, &mut stdin, &pool, depth, pool.main, None, None);
        assert_eq!(primed.failed, 0, "priming requests succeed");
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let n = if distinct {
        DISTINCT_BLOCK
    } else {
        REPEAT_BLOCK
    };
    let st = closed_loop(
        &mut svc,
        &mut stdin,
        &pool,
        depth,
        usize::MAX,
        Some(budget_s),
        Some(n),
    );
    let cache = cache_stats(&mut svc, &mut stdin);
    drop(stdin);
    let summary = svc.finish();
    let mut wrong = check_samples(&pool, &st.samples) + check_digests(&st, seen);
    // Every timed request must take the path the workload names.
    let hits = num(&cache, "hits");
    let expect_hits = if distinct { 0 } else { st.responses.len() };
    if hits != expect_hits as f64 {
        wrong += 1;
    }

    // Per block: its requests' count, gates and span, scaled to the
    // reference host by the calibrations around it. A block cut short by
    // the end of the run counts when it is at least half full; the first
    // block always counts.
    let factors: Vec<f64> = st
        .cal_s
        .windows(2)
        .map(|w| host_factor(w[0], w[1]))
        .collect();
    // Per block: gates, end time and latencies.
    let mut blocks = vec![(0usize, 0.0f64, Vec::new()); st.block_start_s.len()];
    let mut first = Vec::new();
    for r in &st.responses {
        let f = factors[r.block];
        if r.probe {
            first.push(r.ms * f);
            continue;
        }
        let b = &mut blocks[r.block];
        b.0 += pool.entries[r.index].1;
        b.1 = b.1.max(r.done_s);
        b.2.push(r.ms * f);
    }
    // Latency percentiles are taken per block and reported as the median
    // over blocks, so a host stall in one block moves them little.
    let (mut unit_items, mut unit_gates, mut unit_s, mut raw_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for (b, (gates, end, latency)) in blocks.iter_mut().enumerate() {
        if !latency.is_empty() && (b == 0 || latency.len() * 2 >= n) {
            let secs = *end - st.block_start_s[b];
            unit_items.push(latency.len() as f64);
            unit_gates.push(*gates as f64);
            unit_s.push(secs * factors[b]);
            raw_s.push(secs);
            p50.push(quantile(latency, 0.5));
            p99.push(quantile(latency, 0.99));
        }
    }
    Json::object()
        .set("attempted", st.responses.len())
        .set("failed", st.failed + num(&summary, "errors") as usize)
        .set("wrong", wrong)
        .set("unit_items", arr(&unit_items))
        .set("unit_gates", arr(&unit_gates))
        .set("unit_s", arr(&unit_s))
        .set("raw_unit_s", arr(&raw_s))
        .set("p50_ms", arr(&p50))
        .set("p99_ms", arr(&p99))
        .set(
            "latency_samples",
            blocks.iter().map(|b| b.2.len()).sum::<usize>(),
        )
        .set("first_output_ms", arr(&first))
        .set("peak_rss_mb", num(&summary, "peak_rss_mb"))
        .set("setup_s", setup_s * host_factor(setup_cal, st.cal_s[0]))
        .set("evictions", num(&cache, "evictions"))
}

/// The traced run: cache counters from a timed-length loop, then a
/// session with one request outstanding, so each request's latency is
/// its own, and a replay of the requests the service compiled (parse
/// and the split engine run, with spans).
pub fn traced(distinct: bool, seed: u64, budget_s: f64) -> Json {
    let pool = pool(distinct, seed);
    let mut seen = HashMap::new();

    // Cache counters over a loop as long as a timed round.
    let mut svc = ChildProc::spawn(&["service".to_string()], true);
    let mut stdin = svc.stdin();
    let hello = Json::parse(&svc.line()).expect("service handshake");
    let depth = num(&hello, "window") as usize;
    let mut wrong = 0;
    if !distinct {
        closed_loop(&mut svc, &mut stdin, &pool, depth, pool.main, None, None);
    }
    let st = closed_loop(
        &mut svc,
        &mut stdin,
        &pool,
        depth,
        usize::MAX,
        Some(budget_s),
        None,
    );
    wrong += check_digests(&st, &mut seen);
    let cache = cache_stats(&mut svc, &mut stdin);
    drop(stdin);
    svc.finish();

    // One request at a time: priming (repeat) and 512 requests.
    let mut svc = ChildProc::spawn(&["service".to_string()], true);
    let mut stdin = svc.stdin();
    svc.line();
    let mut e2e_s = 0.0;
    let mut compiled: Vec<usize> = Vec::new();
    if !distinct {
        let primed = closed_loop(&mut svc, &mut stdin, &pool, 1, pool.main, None, None);
        e2e_s += primed.latency_ms().sum::<f64>() / 1e3;
        compiled.extend(0..pool.main);
    }
    let solo = closed_loop(&mut svc, &mut stdin, &pool, 1, 512, None, None);
    e2e_s += solo.latency_ms().sum::<f64>() / 1e3;
    if distinct {
        compiled.extend(0..512);
    }
    wrong += check_digests(&solo, &mut seen) + check_samples(&pool, &solo.samples);
    let failed = st.failed + solo.failed;
    drop(stdin);
    svc.finish();

    // Replay what the service compiled: untraced, then traced.
    let item = Item::new(
        "serve".into(),
        String::new(),
        Target::Tilt(spec()),
        None,
        false,
    );
    let mut untraced_s = 0.0;
    let mut t = Trace::new();
    let mut parse_bytes = 0;
    for &i in &compiled {
        let t0 = Instant::now();
        let circuit = parse_qasm(&pool.entries[i].0).expect("pool QASM parses");
        let report = item.engine.run(&circuit).expect("pool circuit compiles");
        untraced_s += t0.elapsed().as_secs_f64();
        t.item(i);
        let circuit = t
            .span("qasm.parse", |_| parse_qasm(&pool.entries[i].0))
            .expect("pool QASM parses");
        parse_bytes += pool.entries[i].0.len();
        if !traced_run(&mut t, &item, &circuit).matches(&report) {
            wrong += 1;
        }
    }
    let times = t.times(|_| true);
    let parse_s = self_s(&times, "qasm.parse");
    let run_s = total_s(&times, "engine.run");
    let self_time = e2e_s - parse_s - run_s;
    let hits = num(&cache, "hits");
    let misses = num(&cache, "misses");
    let mut layers = BTreeMap::new();
    layers.insert("qasm.parse_s", parse_s);
    layers.insert("qasm.bytes_per_s", parse_bytes as f64 / parse_s);
    layers.insert("engine.run_s", run_s);
    layers.insert("service.self_s", self_time);
    layers.insert("cache.hits", hits);
    layers.insert("cache.misses", misses);
    layers.insert("cache.evictions", num(&cache, "evictions"));
    layers.insert("cache.hit_ratio", hits / (hits + misses));
    layers.insert("trace.unaccounted_ratio", self_time / e2e_s);
    layers.insert("trace.overhead_ratio", (parse_s + run_s) / untraced_s);
    println!(
        "{} trace: {} requests one at a time, {:.3} s end to end = parse {:.3} s + engine.run {:.3} s + service self {:.3} s",
        if distinct { "serve_distinct" } else { "serve_repeat" },
        solo.responses.len() + if distinct { 0 } else { pool.main },
        e2e_s,
        parse_s,
        run_s,
        self_time
    );
    crate::layer_record(
        &t,
        &times,
        layers,
        st.responses.len() + solo.responses.len(),
        failed,
        wrong,
    )
}
