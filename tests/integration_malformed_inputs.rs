//! Seeded malformed-input suite for the three file formats read through the
//! shared JSON reader: batch trace files (`trace_io::from_json`), streamed
//! trace files (`StreamingTraceReader`) and telemetry logs
//! (`telemetry::from_json`). User input must give a typed error, never a
//! panic or an abort:
//!
//! * every proper prefix of a valid document is an error;
//! * seeded byte mutations each give `Ok` or `Err` without panicking, and
//!   the batch and streamed trace readers agree on every mutated file;
//! * 200k nested `[` is an error, not a stack overflow;
//! * out-of-order arrivals are rejected by the streamed reader only.

use rubik::load::{ArrivalSource, StreamError, StreamingTraceReader, StreamingTraceWriter};
use rubik::sim::{RequestSpec, Trace};
use rubik::stats::DeterministicRng;
use rubik::telemetry::{
    self, EpochSample, RequestEvent, RequestEventKind, RequestTrace, ServerEvent, ServerEventKind,
    ServerSample, TraceLog,
};
use rubik::workloads::{trace_io, AppProfile, WorkloadGenerator};

const MUTATIONS: usize = 3_000;

fn sample_trace() -> Trace {
    WorkloadGenerator::new(AppProfile::masstree(), 7).steady_trace(0.5, 20)
}

fn sample_log() -> TraceLog {
    use RequestEventKind::*;
    let ev = |at, kind| RequestEvent { at, kind };
    let server_event = |at, server, kind| ServerEvent { at, server, kind };
    let sample = |queued, freq_mhz, power, down| ServerSample {
        queued,
        in_flight: 1,
        freq_mhz,
        power,
        down,
    };
    TraceLog {
        servers: 2,
        end: 1.5,
        requests: vec![
            RequestTrace {
                id: 0,
                arrival: 0.0,
                start: Some(0.125),
                completion: Some(0.25),
                server: Some(1),
                events: vec![
                    ev(
                        0.0,
                        Routed {
                            server: 0,
                            attempt: 1,
                        },
                    ),
                    ev(
                        0.05,
                        TimedOut {
                            server: 0,
                            attempt: 1,
                        },
                    ),
                    ev(0.05, Backoff { until: 0.1 }),
                    ev(
                        0.15,
                        Hedged {
                            server: 0,
                            attempt: 2,
                        },
                    ),
                    ev(0.25, HedgeWon { server: 1 }),
                    ev(0.25, HedgeCancelled { server: 0 }),
                ],
            },
            RequestTrace {
                id: (1 << 60) + 12345,
                arrival: 0.5,
                start: None,
                completion: None,
                server: None,
                events: vec![
                    ev(0.5, Migrated { from: 1, to: 0 }),
                    ev(0.75, Salvaged { server: 0 }),
                    ev(0.8, Requeued { from: 0, to: 1 }),
                    ev(1.0, Dropped { server: 1 }),
                ],
            },
        ],
        server_events: vec![
            server_event(0.2, 1, ServerEventKind::StraggleStart { slowdown: 2.5 }),
            server_event(0.4, 1, ServerEventKind::StraggleEnd),
            server_event(0.6, 1, ServerEventKind::FreqStuck { mhz: Some(1200) }),
            server_event(0.7, 0, ServerEventKind::Down),
            server_event(0.8, 1, ServerEventKind::FreqStuck { mhz: None }),
            server_event(0.9, 0, ServerEventKind::Up),
        ],
        epochs: vec![EpochSample {
            start: 0.0,
            end: 0.75,
            power: 12.5,
            queued: 3,
            in_flight: 2,
            completions: 1,
            retries: 1,
            timeouts: 1,
            per_server: vec![sample(1, 2400, 7.5, false), sample(2, 1200, 5.0, true)],
        }],
    }
}

/// Drains a streamed trace, returning its requests in file order.
fn stream(text: &str) -> Result<Vec<RequestSpec>, StreamError> {
    let mut reader = StreamingTraceReader::new(text.as_bytes())?;
    let requests = std::iter::from_fn(|| reader.next_arrival()).collect();
    reader.finish()?;
    Ok(requests)
}

/// One seeded edit: replace, insert or delete a byte, or repeat a span.
/// Replacement bytes are ASCII, so the text stays valid UTF-8 for the
/// `&str` parsers, and are drawn mostly from JSON's own alphabet so the
/// reader gets past the first few bytes.
fn mutate(valid: &str, rng: &mut DeterministicRng) -> String {
    const ALPHABET: &[u8] = b"{}[],:\"0123456789.-+eE tnrfu\\lsa";
    let mut bytes = valid.as_bytes().to_vec();
    for _ in 0..=rng.index(3) {
        let at = rng.index(bytes.len());
        let byte = if rng.bernoulli(0.8) {
            ALPHABET[rng.index(ALPHABET.len())]
        } else {
            rng.index(128) as u8
        };
        match rng.index(4) {
            0 => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 if bytes.len() > 1 => {
                bytes.remove(at);
            }
            _ => {
                let end = (at + 1 + rng.index(16)).min(bytes.len());
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
        }
    }
    String::from_utf8(bytes).expect("ASCII edits of an ASCII document")
}

#[test]
fn every_proper_prefix_is_an_error() {
    let trace = trace_io::to_json(&sample_trace());
    // The telemetry writer ends with a newline; dropping only trailing
    // whitespace leaves a complete document, so cut from the trimmed text.
    let log = telemetry::to_json(&sample_log());
    let log = log.trim_end();
    for end in 0..trace.len() {
        let prefix = &trace[..end];
        assert!(trace_io::from_json(prefix).is_err(), "batch: {prefix}");
        assert!(stream(prefix).is_err(), "streamed: {prefix}");
    }
    for end in 0..log.len() {
        assert!(
            telemetry::from_json(&log[..end]).is_err(),
            "{}",
            &log[..end]
        );
    }
    assert_eq!(trace_io::from_json(&trace).unwrap(), sample_trace());
    assert_eq!(stream(&trace).unwrap(), sample_trace().requests());
    assert_eq!(telemetry::from_json(log).unwrap(), sample_log());
}

#[test]
fn seeded_trace_mutations_never_panic_and_both_readers_agree() {
    let valid = trace_io::to_json(&sample_trace());
    let mut rng = DeterministicRng::new(0x5eed_7ace);
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..MUTATIONS {
        let text = mutate(&valid, &mut rng);
        match (trace_io::from_json(&text), stream(&text)) {
            // A time-ordered stream is already sorted, so the batch reader
            // (which sorts) sees the same requests in the same order.
            (Ok(batch), Ok(streamed)) => {
                assert_eq!(batch.requests(), &streamed[..], "{text}");
                accepted += 1;
            }
            (Ok(_), Err(e)) => {
                assert!(e.to_string().contains("out of order"), "{text}: {e}");
                accepted += 1;
            }
            (Err(_), Ok(_)) => panic!("only the batch reader rejected {text}"),
            (Err(_), Err(_)) => rejected += 1,
        }
    }
    // The edits must exercise both outcomes, or the suite shows nothing.
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} ok, {rejected} err"
    );
}

#[test]
fn seeded_telemetry_mutations_never_panic() {
    let valid = telemetry::to_json(&sample_log());
    let mut rng = DeterministicRng::new(0x7e1e_3e7a);
    let mut accepted = 0;
    for _ in 0..MUTATIONS {
        let text = mutate(&valid, &mut rng);
        if let Ok(log) = telemetry::from_json(&text) {
            // Whatever is accepted is a log the writer can reproduce.
            assert_eq!(
                telemetry::from_json(&telemetry::to_json(&log)).unwrap(),
                log
            );
            accepted += 1;
        }
    }
    assert!(accepted > 0 && accepted < MUTATIONS, "{accepted} accepted");
}

#[test]
fn deep_nesting_is_an_error_not_an_abort() {
    let deep = "[".repeat(200_000);
    assert!(trace_io::from_json(&deep).is_err());
    assert!(stream(&deep).is_err());
    assert!(telemetry::from_json(&deep).is_err());
    let nested = format!("{{\"requests\":[{deep}");
    assert!(trace_io::from_json(&nested).is_err());
    assert!(stream(&nested).is_err());
    assert!(telemetry::from_json(&format!("{{\"epochs\":{deep}")).is_err());
}

#[test]
fn out_of_order_arrivals_are_rejected_by_the_streamed_reader_only() {
    let mut requests = sample_trace().requests().to_vec();
    requests.swap(3, 4);
    let mut writer = StreamingTraceWriter::new(Vec::new()).unwrap();
    for r in &requests {
        writer.write(r).unwrap();
    }
    let text = String::from_utf8(writer.finish().unwrap()).unwrap();
    assert_eq!(trace_io::from_json(&text).unwrap(), sample_trace());
    let err = stream(&text).unwrap_err().to_string();
    assert!(err.contains("arrivals are out of order"), "{err}");
}
