//! Small shared pieces: seeded randomness, quantiles, peak memory,
//! output digests, report rendering and the child-process protocol.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use tilt_engine::{RunReport, WireReport};
use tilt_hash::Hasher;
use tilt_report::Json;

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Linear-interpolated quantile of `values` (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile range as a share of the median.
pub fn rel_iqr(values: &mut [f64]) -> f64 {
    let m = median(values);
    (quantile(values, 0.75) - quantile(values, 0.25)) / m
}

/// This process's peak resident set (`VmHWM`) in MB. Every workload
/// runs in its own child process, so this is the workload's own peak.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hex digest of some output bytes.
pub fn digest(bytes: &[u8]) -> String {
    Hasher::new().write_bytes(bytes).digest().to_hex()
}

/// Renders a run report as the benchmark's output bytes: the wire fields
/// of a service response (minus the request id), which are deterministic
/// for a deterministic compiler.
pub fn render_report(report: &RunReport) -> String {
    let w = WireReport::of(report);
    let mut json = Json::object()
        .set("backend", w.backend.to_string())
        .set("swaps", w.swaps)
        .set("opposing_swaps", w.opposing_swaps)
        .set("moves", w.moves)
        .set("move_distance", w.move_distance)
        .set("native_gates", w.native_gates)
        .set("native_two_qubit", w.native_two_qubit)
        .set("epr_pairs", w.epr_pairs)
        .set("ln_success", w.ln_success)
        .set("success", w.success)
        .set("exec_time_us", w.exec_time_us);
    if let Some(sim) = &w.sim {
        json = json.set(
            "sim",
            Json::object()
                .set("simulator", sim.simulator.to_string())
                .set("bitstring", sim.bitstring.as_str())
                .set("measurements", sim.measurements),
        );
    }
    json.render()
}

/// Scratch directory for temporary inputs, inside the benchmark's own
/// directory of the checkout.
pub fn tmp_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tmp");
    std::fs::create_dir_all(&dir).expect("create the benchmark's tmp directory");
    dir
}

/// Pool threads for every child: one per available core, fixed through
/// `RAYON_NUM_THREADS` so results record the count they ran with.
pub fn pool_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A running child process of this same binary, speaking the line
/// protocol: the child prints `ready` when its set-up is done, then one
/// JSON result line.
pub struct ChildProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl ChildProc {
    pub fn spawn(args: &[String], piped_stdin: bool) -> ChildProc {
        let exe = std::env::current_exe().expect("locate the benchmark binary");
        let mut child = Command::new(exe)
            .arg("--child")
            .args(args)
            .env("RAYON_NUM_THREADS", pool_threads().to_string())
            .stdin(if piped_stdin {
                Stdio::piped()
            } else {
                Stdio::null()
            })
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn a benchmark child process");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        ChildProc { child, stdout }
    }

    pub fn stdin(&mut self) -> std::process::ChildStdin {
        self.child.stdin.take().expect("piped stdin")
    }

    pub fn stdout(&mut self) -> &mut BufReader<ChildStdout> {
        &mut self.stdout
    }

    /// The next protocol line; panics if the child ended early.
    pub fn line(&mut self) -> String {
        let mut line = String::new();
        let n = self.stdout.read_line(&mut line).expect("read child output");
        assert!(n > 0, "benchmark child exited before its result");
        line.trim_end().to_string()
    }

    /// Reads the child's remaining output, waits for it to exit, and
    /// returns its last line, the JSON result; earlier lines are the
    /// child's report and are passed through.
    pub fn finish(mut self) -> Json {
        let mut lines: Vec<String> = (&mut self.stdout)
            .lines()
            .map(|l| l.expect("read child output"))
            .collect();
        let status = self.child.wait().expect("wait for benchmark child");
        assert!(status.success(), "benchmark child failed: {status}");
        let last = lines.pop().expect("benchmark child printed its result");
        for line in lines {
            println!("{line}");
        }
        Json::parse(&last).expect("child result is JSON")
    }
}

/// Prints the child's result line and flushes, ending the protocol.
pub fn emit(result: &Json) {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{}", result.render()).expect("write result");
    out.flush().expect("flush result");
}

/// Signals the parent that set-up is complete.
pub fn ready() {
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready").expect("write ready");
    out.flush().expect("flush ready");
}

pub fn num(json: &Json, key: &str) -> f64 {
    json.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("child result lacks `{key}`"))
}

pub fn nums(json: &Json, key: &str) -> Vec<f64> {
    json.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("child result lacks `{key}`"))
        .iter()
        .map(|v| v.as_f64().expect("numeric sample"))
        .collect()
}

pub fn text<'a>(json: &'a Json, key: &str) -> &'a str {
    json.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("child result lacks `{key}`"))
}

pub fn arr(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// What [`calibrate`] takes on the reference host, in seconds.
pub const CAL_REF_S: f64 = 0.03;

/// Seconds taken by a fixed amount of work written here, independent of
/// the code under test: sorting, and hashing and dependent loads over a
/// few MB, a working set like the compiler's.
///
/// The benchmark host's speed drifts by tens of percent over seconds
/// (other tenants share its cores). Every measured time is scaled by
/// [`host_factor`] of the calibrations taken right before and after it,
/// in the same process, so reported times are reference-host times and
/// move with the program rather than with the host.
pub fn calibrate() -> f64 {
    type Fixed = std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>;
    let t0 = std::time::Instant::now();
    let mut rng = Rng::new(7);
    let n = 1 << 18;
    let mut v: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    v.sort_unstable();
    let mut map = std::collections::HashMap::with_hasher(Fixed::default());
    for (i, x) in v.iter().enumerate().step_by(2) {
        map.insert(x % 1_000_003, i);
    }
    let (mut acc, mut idx) = (0usize, 0usize);
    for _ in 0..1 << 17 {
        idx = (v[idx % n] as usize ^ acc) % n;
        acc = acc.wrapping_add(map.get(&(v[idx] % 1_000_003)).copied().unwrap_or(1));
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Scale from measured to reference-host time for work done between
/// calibrations taking `before` and `after` seconds.
pub fn host_factor(before: f64, after: f64) -> f64 {
    2.0 * CAL_REF_S / (before + after)
}
