//! Integration pins for the `tilt serve` wire protocol.
//!
//! The acceptance bar for the service: responses byte-identical to
//! [`Engine::run`] on the same circuits (program text, `ln_success`,
//! `exec_time_us` — the JSON writer renders `f64` shortest-round-trip,
//! so exact bit equality survives the wire), ≥ 1000 streamed requests
//! through one service with window-sized (not batch-sized) buffering,
//! and structured error responses for every per-request failure mode.

use std::io::Cursor;
use tilt::circuit::qasm;
use tilt::compiler::DeviceSpec;
use tilt::engine::{Backend, Engine, Service, ShutdownCause};
use tilt::report::Json;

const IONS: usize = 8;
const HEAD: usize = 4;

fn builder() -> tilt::engine::EngineBuilder {
    Engine::builder().backend(Backend::Tilt(DeviceSpec::new(IONS, HEAD).unwrap()))
}

/// The k-th workload circuit as QASM (mixed shapes, all ≤ 8 qubits).
fn workload_qasm(k: usize) -> String {
    match k % 3 {
        0 => format!(
            "qreg q[8];\nh q[0];\ncx q[0], q[{}];\ncx q[1], q[{}];\n",
            1 + k % 7,
            2 + k % 6
        ),
        1 => format!("qreg q[8];\ncx q[{}], q[7];\nmeasure q[7];\n", k % 7),
        _ => format!("qreg q[6];\nh q[2];\ncp(0.{}) q[0], q[5];\n", 1 + k % 8),
    }
}

fn drive(service: &mut Service, input: String) -> (Vec<Json>, tilt::engine::ServiceSummary) {
    let mut out = Vec::new();
    let summary = service.serve(Cursor::new(input), &mut out, None).unwrap();
    let text = String::from_utf8(out).unwrap();
    let responses = text
        .lines()
        .map(|l| Json::parse(l).expect("every response line parses"))
        .collect();
    (responses, summary)
}

#[test]
fn thousand_streamed_requests_match_engine_run_byte_for_byte() {
    const N: usize = 1000;
    const WINDOW: usize = 16;

    let mut input = String::new();
    for k in 0..N {
        let qasm_text = workload_qasm(k).replace('\n', "\\n");
        input.push_str(&format!(
            "{{\"id\":{k},\"qasm\":\"{qasm_text}\",\"emit_program\":true}}\n"
        ));
    }

    let mut service = Service::new(builder()).unwrap().with_window(WINDOW);
    let (responses, summary) = drive(&mut service, input);
    assert_eq!(responses.len(), N);
    assert_eq!(summary.cause, ShutdownCause::Eof);
    assert_eq!(summary.stats.served as usize, N);
    assert_eq!(summary.stats.errors, 0);
    // Bounded buffering: the high-water mark is the window, not the
    // thousand-request stream.
    assert!(
        summary.stats.max_in_flight <= WINDOW,
        "buffered {} requests with a window of {WINDOW}",
        summary.stats.max_in_flight
    );

    let engine = builder().build().unwrap();
    for (k, resp) in responses.iter().enumerate() {
        // Submission order survives the windowed fan-out.
        assert_eq!(resp.get("id").unwrap().as_f64(), Some(k as f64), "row {k}");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "row {k}: {resp:?}");

        let circuit = qasm::parse_qasm(&workload_qasm(k)).unwrap();
        let report = engine.run(&circuit).unwrap();
        // f64s render shortest-round-trip: parsing the wire value back
        // must reproduce the session-API bits exactly.
        assert_eq!(
            resp.get("ln_success").unwrap().as_f64(),
            Some(report.ln_success),
            "row {k}"
        );
        assert_eq!(
            resp.get("exec_time_us").unwrap().as_f64(),
            Some(report.exec_time_us),
            "row {k}"
        );
        assert_eq!(
            resp.get("program").unwrap().as_str(),
            Some(report.tilt_program().unwrap().to_string().as_str()),
            "row {k}: scheduled programs must be byte-identical"
        );
    }
}

#[test]
fn every_error_path_yields_a_structured_response_without_killing_the_loop() {
    let ok_line = "{\"id\":\"probe\",\"qasm\":\"qreg q[4];\\ncx q[0], q[3];\\n\"}";
    let cases: [(&str, &str); 6] = [
        ("{not json", "malformed request"),
        ("[1,2,3]", "must be a JSON object"),
        (
            "{\"id\":\"bad-qasm\",\"qasm\":\"qreg q[2];\\nwat q[0];\\n\"}",
            "unknown gate `wat`",
        ),
        (
            "{\"id\":\"wide\",\"qasm\":\"qreg q[40];\\ncx q[0], q[39];\\n\"}",
            "needs 40 qubits",
        ),
        (
            "{\"id\":\"backend\",\"qasm\":\"qreg q[2];\\ncx q[0], q[1];\\n\",\"backend\":\"ibm\"}",
            "unknown backend `ibm`",
        ),
        (
            "{\"id\":\"no-qasm\",\"op\":\"run\"}",
            "needs a string `qasm` field",
        ),
    ];

    // Interleave every failure with a healthy request so survival is
    // pinned after each one.
    let mut input = String::new();
    for (bad, _) in &cases {
        input.push_str(bad);
        input.push('\n');
        input.push_str(ok_line);
        input.push('\n');
    }

    let mut service = Service::new(builder()).unwrap();
    let (responses, summary) = drive(&mut service, input);
    assert_eq!(responses.len(), cases.len() * 2);
    for (i, (_, needle)) in cases.iter().enumerate() {
        let err = &responses[2 * i];
        let ok = &responses[2 * i + 1];
        assert_eq!(err.get("ok"), Some(&Json::Bool(false)), "case {i}: {err:?}");
        let error = err.get("error").expect("error responses carry an object");
        assert!(
            error.get("kind").unwrap().as_str().is_some(),
            "case {i}: {err:?}"
        );
        assert!(
            error
                .get("message")
                .unwrap()
                .as_str()
                .unwrap()
                .contains(needle),
            "case {i}: {err:?}"
        );
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)), "case {i}: {ok:?}");
    }
    assert_eq!(summary.stats.errors as usize, cases.len());
    assert_eq!(summary.stats.ok as usize, cases.len());
}

#[test]
fn mid_stream_eof_drains_buffered_requests_cleanly() {
    // Requests below the window size, input ending without shutdown —
    // and the final line truncated mid-object. The loop must answer
    // the buffered circuits, answer the torn line with an error, and
    // exit cleanly.
    let input = "{\"id\":0,\"qasm\":\"qreg q[4];\\ncx q[0], q[3];\\n\"}\n\
                 {\"id\":1,\"qasm\":\"qreg q[4];\\ncx q[1], q[2];\\n\"}\n\
                 {\"id\":2,\"qasm\":\"qreg q[4];\\ncx q"
        .to_string();
    let mut service = Service::new(builder()).unwrap().with_window(64);
    let (responses, summary) = drive(&mut service, input);
    assert_eq!(summary.cause, ShutdownCause::Eof);
    assert_eq!(responses.len(), 3);
    // The torn line errors *before* the buffered window flushes — but
    // the flush-on-error rule keeps submission order: 0, 1, then the
    // error for the torn 2.
    assert_eq!(responses[0].get("id").unwrap().as_f64(), Some(0.0));
    assert_eq!(responses[1].get("id").unwrap().as_f64(), Some(1.0));
    assert_eq!(responses[2].get("ok"), Some(&Json::Bool(false)));
}

#[test]
fn per_request_overrides_match_dedicated_engines() {
    // A request overriding the scheduler must equal a one-off engine
    // built the same way — and must not disturb its session neighbours.
    // Ping-pong traffic between the tape ends: the greedy scheduler
    // batches per zone, the naive one shuttles per gate — different
    // move counts, so the override is observable.
    let qasm_text = "qreg q[8];\ncx q[0], q[1];\ncx q[6], q[7];\ncx q[0], q[1];\ncx q[6], q[7];\ncx q[0], q[1];\ncx q[6], q[7];\n";
    let wire = qasm_text.replace('\n', "\\n");
    let input = format!(
        "{{\"id\":0,\"qasm\":\"{wire}\"}}\n{{\"id\":1,\"qasm\":\"{wire}\",\"scheduler\":\"naive\"}}\n{{\"id\":2,\"qasm\":\"{wire}\"}}\n"
    );
    let mut service = Service::new(builder()).unwrap();
    let (responses, _) = drive(&mut service, input);
    assert_eq!(responses.len(), 3);

    let circuit = qasm::parse_qasm(qasm_text).unwrap();
    let session = builder().build().unwrap().run(&circuit).unwrap();
    let naive = builder()
        .scheduler(tilt::compiler::SchedulerKind::NaiveNextGate)
        .build()
        .unwrap()
        .run(&circuit)
        .unwrap();
    assert_ne!(session.compile.move_count, naive.compile.move_count);
    for (resp, expect) in [
        (&responses[0], &session),
        (&responses[1], &naive),
        (&responses[2], &session),
    ] {
        assert_eq!(
            resp.get("moves").unwrap().as_f64(),
            Some(expect.compile.move_count as f64),
            "{resp:?}"
        );
        assert_eq!(
            resp.get("ln_success").unwrap().as_f64(),
            Some(expect.ln_success),
            "{resp:?}"
        );
    }
}

#[test]
fn hostile_qasm_is_rejected_and_the_connection_survives() {
    // Each hostile request used to abort the process (stack overflow,
    // a multi-terabyte allocation) or reach the compiler with a qubit
    // outside the register; each must now be an `invalid_request`, and
    // the healthy request after it must still be answered.
    let ok_line = "{\"id\":\"probe\",\"qasm\":\"qreg q[4];\\ncx q[0], q[3];\\n\"}";
    let parens = format!(
        "{{\"id\":\"parens\",\"qasm\":\"qreg q[1];\\nrx({}pi{}) q[0];\\n\"}}",
        "(".repeat(20_000),
        ")".repeat(20_000)
    );
    let minus = format!(
        "{{\"id\":\"minus\",\"qasm\":\"qreg q[1];\\nrx({}pi) q[0];\\n\"}}",
        "-".repeat(200_000)
    );
    let huge_measure =
        "{\"id\":\"huge\",\"qasm\":\"qreg q[100000000000];\\ncreg c[1];\\nmeasure q -> c;\\n\"}";
    let out_of_range = "{\"id\":\"range\",\"qasm\":\"qreg q[2];\\nmeasure q[5] -> c[0];\\n\"}";
    let streamed =
        "{\"id\":\"stream\",\"qasm\":\"qreg q[2];\\nmeasure q[5] -> c[0];\\n\",\"stream\":true}";
    let hostile = [
        parens.as_str(),
        minus.as_str(),
        huge_measure,
        out_of_range,
        streamed,
    ];
    let mut input = String::new();
    for bad in hostile {
        input.push_str(bad);
        input.push('\n');
        input.push_str(ok_line);
        input.push('\n');
    }

    let mut service = Service::new(builder()).unwrap();
    let (responses, summary) = drive(&mut service, input);
    assert_eq!(responses.len(), hostile.len() * 2);
    for (i, pair) in responses.chunks(2).enumerate() {
        let error = pair[0].get("error").expect("hostile requests fail");
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some("invalid_request"),
            "case {i}: {:?}",
            pair[0]
        );
        assert_eq!(
            pair[1].get("ok"),
            Some(&Json::Bool(true)),
            "case {i}: {:?}",
            pair[1]
        );
    }
    let message = |i: usize| {
        responses[2 * i]
            .get("error")
            .unwrap()
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    };
    assert!(message(0).contains("nested deeper"), "{}", message(0));
    assert!(message(1).contains("nested deeper"), "{}", message(1));
    assert!(
        message(2).contains("exceeds the parser limit"),
        "{}",
        message(2)
    );
    assert!(message(3).contains("outside qreg"), "{}", message(3));
    assert_eq!(summary.stats.errors as usize, hostile.len());
}
