//! Self-serialized JSON for [`TraceLog`]: writer and typed parser.
//!
//! The build environment is offline, so (like the vendored `criterion`)
//! serialization is hand-rolled: [`to_json`] emits a stable `rubik-trace-v1`
//! document and [`from_json`] reads it back through the workspace's one JSON
//! reader, [`rubik_sim::json::Reader`]. Floats are written with Rust's
//! shortest-roundtrip `{:?}` formatting and integers are parsed exactly, so
//! a write → read cycle is lossless (request ids above 2^53 included).

use std::fmt::{self, Write};

use rubik_sim::json::{JsonError, Reader};

use crate::event::{RequestEvent, RequestEventKind, ServerEvent, ServerEventKind};
use crate::fleet::{EpochSample, ServerSample};
use crate::log::{RequestTrace, TraceLog};

/// Format tag written into every document.
pub const FORMAT: &str = "rubik-trace-v1";

// ---------------------------------------------------------------------------
// Writer: straight into the output `String`, floats in their shortest
// round-trip `{:?}` form. Fixed text goes through `push_str` rather than
// into `write!` format strings: the formatter's per-piece dispatch made the
// export measurably slower on large logs.
// ---------------------------------------------------------------------------

/// Writes `Some(v)` as `v` (in `{:?}` form) and `None` as `null`.
fn write_opt<T: fmt::Debug>(out: &mut String, v: Option<T>) -> fmt::Result {
    match v {
        Some(v) => write!(out, "{v:?}"),
        None => out.write_str("null"),
    }
}

/// Writes `items` comma-separated, each on a new line if `lines`.
fn write_list<T>(
    out: &mut String,
    lines: bool,
    items: &[T],
    write: impl Fn(&mut String, &T) -> fmt::Result,
) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if lines {
            out.push('\n');
        }
        write(out, item)?;
    }
    Ok(())
}

fn write_request_event(out: &mut String, event: &RequestEvent) -> fmt::Result {
    use RequestEventKind::*;
    out.push_str("{\"at\":");
    write!(out, "{:?}", event.at)?;
    out.push_str(",\"kind\":");
    match event.kind {
        Routed { server, attempt } => {
            write!(out, r#""routed","server":{server},"attempt":{attempt}"#)
        }
        TimedOut { server, attempt } => {
            write!(out, r#""timed_out","server":{server},"attempt":{attempt}"#)
        }
        Backoff { until } => write!(out, r#""backoff","until":{until:?}"#),
        Salvaged { server } => write!(out, r#""salvaged","server":{server}"#),
        Requeued { from, to } => write!(out, r#""requeued","from":{from},"to":{to}"#),
        Migrated { from, to } => write!(out, r#""migrated","from":{from},"to":{to}"#),
        Dropped { server } => write!(out, r#""dropped","server":{server}"#),
        Hedged { server, attempt } => {
            write!(out, r#""hedged","server":{server},"attempt":{attempt}"#)
        }
        HedgeWon { server } => write!(out, r#""hedge_won","server":{server}"#),
        HedgeCancelled { server } => write!(out, r#""hedge_cancelled","server":{server}"#),
    }?;
    out.write_str("}")
}

fn write_server_event(out: &mut String, event: &ServerEvent) -> fmt::Result {
    use ServerEventKind::*;
    write!(
        out,
        "{{\"at\":{:?},\"server\":{},\"kind\":",
        event.at, event.server
    )?;
    match event.kind {
        Down => out.write_str(r#""down"}"#),
        Up => out.write_str(r#""up"}"#),
        StraggleStart { slowdown } => {
            write!(out, r#""straggle_start","slowdown":{slowdown:?}}}"#)
        }
        StraggleEnd => out.write_str(r#""straggle_end"}"#),
        FreqStuck { mhz } => {
            out.push_str(r#""freq_stuck","mhz":"#);
            write_opt(out, mhz)?;
            out.write_str("}")
        }
    }
}

fn write_request(out: &mut String, r: &RequestTrace) -> fmt::Result {
    write!(out, "{{\"id\":{},\"arrival\":{:?}", r.id, r.arrival)?;
    out.push_str(",\"start\":");
    write_opt(out, r.start)?;
    out.push_str(",\"completion\":");
    write_opt(out, r.completion)?;
    out.push_str(",\"server\":");
    write_opt(out, r.server)?;
    out.push_str(",\"events\":[");
    write_list(out, false, &r.events, write_request_event)?;
    out.write_str("]}")
}

fn write_epoch(out: &mut String, e: &EpochSample) -> fmt::Result {
    write!(
        out,
        r#"{{"start":{:?},"end":{:?},"power":{:?},"queued":{},"in_flight":{},"completions":{},"retries":{},"timeouts":{},"per_server":["#,
        e.start, e.end, e.power, e.queued, e.in_flight, e.completions, e.retries, e.timeouts
    )?;
    write_list(out, false, &e.per_server, |out, s| {
        write!(
            out,
            r#"{{"queued":{},"in_flight":{},"freq_mhz":{},"power":{:?},"down":{}}}"#,
            s.queued, s.in_flight, s.freq_mhz, s.power, s.down
        )
    })?;
    out.write_str("]}")
}

fn write_log(out: &mut String, log: &TraceLog) -> fmt::Result {
    write!(
        out,
        "{{\"format\":\"{FORMAT}\",\"servers\":{},\"end\":{:?},\n\"requests\":[",
        log.servers, log.end
    )?;
    write_list(out, true, &log.requests, write_request)?;
    out.write_str("],\n\"server_events\":[")?;
    write_list(out, true, &log.server_events, write_server_event)?;
    out.write_str("],\n\"epochs\":[")?;
    write_list(out, true, &log.epochs, write_epoch)?;
    out.write_str("]}\n")
}

/// Serialize a [`TraceLog`] as a `rubik-trace-v1` JSON document.
pub fn to_json(log: &TraceLog) -> String {
    let mut out = String::new();
    write_log(&mut out, log).expect("writing to a String cannot fail");
    out
}

// ---------------------------------------------------------------------------
// Parser: typed, on the shared pull reader, with the trace codec's
// strictness.
// ---------------------------------------------------------------------------

type Json<'a> = Reader<&'a [u8]>;

const LOG_FIELDS: [&str; 6] = [
    "format",
    "servers",
    "end",
    "requests",
    "server_events",
    "epochs",
];
const REQUEST_FIELDS: [&str; 6] = ["id", "arrival", "start", "completion", "server", "events"];
const EVENT_FIELDS: [&str; 7] = ["at", "kind", "server", "attempt", "until", "from", "to"];
const SERVER_EVENT_FIELDS: [&str; 5] = ["at", "server", "kind", "slowdown", "mhz"];
const EPOCH_FIELDS: [&str; 9] = [
    "start",
    "end",
    "power",
    "queued",
    "in_flight",
    "completions",
    "retries",
    "timeouts",
    "per_server",
];
const SAMPLE_FIELDS: [&str; 5] = ["queued", "in_flight", "freq_mhz", "power", "down"];

fn request_event(json: &mut Json) -> Result<RequestEvent, JsonError> {
    let (mut at, mut kind, mut until, mut ids) = (0.0, String::new(), 0.0, [0u32; 7]);
    let seen = json.object("event", &EVENT_FIELDS, |json, i| {
        match i {
            0 => at = json.f64()?,
            1 => kind = json.string()?.to_string(),
            4 => until = json.f64()?,
            _ => ids[i] = json.uint()?,
        }
        Ok(())
    })?;
    let [_, _, server, attempt, _, from, to] = ids;
    const ONE: &[&str] = &["at", "kind", "server"];
    const TWO: &[&str] = &["at", "kind", "server", "attempt"];
    const MOVE: &[&str] = &["at", "kind", "from", "to"];
    use RequestEventKind::*;
    let (kind, wanted) = match kind.as_str() {
        "routed" => (Routed { server, attempt }, TWO),
        "timed_out" => (TimedOut { server, attempt }, TWO),
        "backoff" => (Backoff { until }, &["at", "kind", "until"][..]),
        "salvaged" => (Salvaged { server }, ONE),
        "requeued" => (Requeued { from, to }, MOVE),
        "migrated" => (Migrated { from, to }, MOVE),
        "dropped" => (Dropped { server }, ONE),
        "hedged" => (Hedged { server, attempt }, TWO),
        "hedge_won" => (HedgeWon { server }, ONE),
        "hedge_cancelled" => (HedgeCancelled { server }, ONE),
        other => return Err(json.error(format!("unknown request event kind `{other}`"))),
    };
    json.check_fields("event", &EVENT_FIELDS, seen, wanted)?;
    Ok(RequestEvent { at, kind })
}

fn server_event(json: &mut Json) -> Result<ServerEvent, JsonError> {
    let (mut at, mut server, mut kind) = (0.0, 0, String::new());
    let (mut slowdown, mut mhz) = (0.0, None);
    let seen = json.object("server event", &SERVER_EVENT_FIELDS, |json, i| {
        match i {
            0 => at = json.f64()?,
            1 => server = json.uint()?,
            2 => kind = json.string()?.to_string(),
            3 => slowdown = json.f64()?,
            _ => mhz = json.opt(Reader::uint)?,
        }
        Ok(())
    })?;
    const BARE: &[&str] = &["at", "server", "kind"];
    use ServerEventKind::*;
    let (kind, wanted) = match kind.as_str() {
        "down" => (Down, BARE),
        "up" => (Up, BARE),
        "straggle_start" => (
            StraggleStart { slowdown },
            &["at", "server", "kind", "slowdown"][..],
        ),
        "straggle_end" => (StraggleEnd, BARE),
        "freq_stuck" => (FreqStuck { mhz }, &["at", "server", "kind", "mhz"][..]),
        other => return Err(json.error(format!("unknown server event kind `{other}`"))),
    };
    json.check_fields("server event", &SERVER_EVENT_FIELDS, seen, wanted)?;
    Ok(ServerEvent { at, server, kind })
}

fn request(json: &mut Json) -> Result<RequestTrace, JsonError> {
    let mut r = RequestTrace::default();
    let seen = json.object("request", &REQUEST_FIELDS, |json, i| {
        match i {
            0 => r.id = json.uint()?,
            1 => r.arrival = json.f64()?,
            2 => r.start = json.opt(Reader::f64)?,
            3 => r.completion = json.opt(Reader::f64)?,
            4 => r.server = json.opt(Reader::uint)?,
            _ => r.events = json.list("event", request_event)?,
        }
        Ok(())
    })?;
    json.check_fields("request", &REQUEST_FIELDS, seen, &REQUEST_FIELDS)?;
    Ok(r)
}

fn server_sample(json: &mut Json) -> Result<ServerSample, JsonError> {
    let mut s = ServerSample::default();
    let seen = json.object("per-server sample", &SAMPLE_FIELDS, |json, i| {
        match i {
            0 => s.queued = json.uint()?,
            1 => s.in_flight = json.uint()?,
            2 => s.freq_mhz = json.uint()?,
            3 => s.power = json.f64()?,
            _ => s.down = json.bool()?,
        }
        Ok(())
    })?;
    json.check_fields("per-server sample", &SAMPLE_FIELDS, seen, &SAMPLE_FIELDS)?;
    Ok(s)
}

fn epoch(json: &mut Json) -> Result<EpochSample, JsonError> {
    let mut e = EpochSample::default();
    let seen = json.object("epoch", &EPOCH_FIELDS, |json, i| {
        match i {
            0 => e.start = json.f64()?,
            1 => e.end = json.f64()?,
            2 => e.power = json.f64()?,
            3 => e.queued = json.uint()?,
            4 => e.in_flight = json.uint()?,
            5 => e.completions = json.uint()?,
            6 => e.retries = json.uint()?,
            7 => e.timeouts = json.uint()?,
            _ => e.per_server = json.list("per-server sample", server_sample)?,
        }
        Ok(())
    })?;
    json.check_fields("epoch", &EPOCH_FIELDS, seen, &EPOCH_FIELDS)?;
    Ok(e)
}

/// Parse a `rubik-trace-v1` JSON document back into a [`TraceLog`].
///
/// # Errors
///
/// Returns a [`JsonError`] if the text is not such a document: unknown,
/// duplicate and missing fields, non-finite numbers, fractional or
/// negative integers and trailing data are all rejected.
pub fn from_json(text: &str) -> Result<TraceLog, JsonError> {
    let json = &mut Reader::new(text.as_bytes());
    let mut log = TraceLog::default();
    let seen = json.object("log", &LOG_FIELDS, |json, i| {
        match i {
            0 => {
                let format = json.string()?;
                if format != FORMAT {
                    let message = format!("unsupported trace format `{format}`");
                    return Err(json.error(message));
                }
            }
            1 => log.servers = json.uint()?,
            2 => log.end = json.f64()?,
            3 => log.requests = json.list("request", request)?,
            4 => log.server_events = json.list("server event", server_event)?,
            _ => log.epochs = json.list("epoch", epoch)?,
        }
        Ok(())
    })?;
    json.check_fields("log", &LOG_FIELDS, seen, &LOG_FIELDS)?;
    json.end()?;
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> TraceLog {
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
                        RequestEvent {
                            at: 0.0,
                            kind: RequestEventKind::Routed {
                                server: 0,
                                attempt: 1,
                            },
                        },
                        RequestEvent {
                            at: 0.05,
                            kind: RequestEventKind::TimedOut {
                                server: 0,
                                attempt: 1,
                            },
                        },
                        RequestEvent {
                            at: 0.05,
                            kind: RequestEventKind::Backoff { until: 0.1 },
                        },
                        RequestEvent {
                            at: 0.1,
                            kind: RequestEventKind::Routed {
                                server: 1,
                                attempt: 2,
                            },
                        },
                        RequestEvent {
                            at: 0.15,
                            kind: RequestEventKind::Hedged {
                                server: 0,
                                attempt: 2,
                            },
                        },
                        RequestEvent {
                            at: 0.25,
                            kind: RequestEventKind::HedgeWon { server: 1 },
                        },
                        RequestEvent {
                            at: 0.25,
                            kind: RequestEventKind::HedgeCancelled { server: 0 },
                        },
                    ],
                },
                RequestTrace {
                    id: 3,
                    arrival: 0.5,
                    start: None,
                    completion: None,
                    server: None,
                    events: vec![
                        RequestEvent {
                            at: 0.5,
                            kind: RequestEventKind::Migrated { from: 1, to: 0 },
                        },
                        RequestEvent {
                            at: 0.75,
                            kind: RequestEventKind::Salvaged { server: 0 },
                        },
                        RequestEvent {
                            at: 0.8,
                            kind: RequestEventKind::Requeued { from: 0, to: 1 },
                        },
                        RequestEvent {
                            at: 1.0,
                            kind: RequestEventKind::Dropped { server: 1 },
                        },
                    ],
                },
            ],
            server_events: vec![
                ServerEvent {
                    at: 0.7,
                    server: 0,
                    kind: ServerEventKind::Down,
                },
                ServerEvent {
                    at: 0.9,
                    server: 0,
                    kind: ServerEventKind::Up,
                },
                ServerEvent {
                    at: 0.2,
                    server: 1,
                    kind: ServerEventKind::StraggleStart { slowdown: 2.5 },
                },
                ServerEvent {
                    at: 0.4,
                    server: 1,
                    kind: ServerEventKind::StraggleEnd,
                },
                ServerEvent {
                    at: 0.6,
                    server: 1,
                    kind: ServerEventKind::FreqStuck { mhz: Some(1200) },
                },
                ServerEvent {
                    at: 0.8,
                    server: 1,
                    kind: ServerEventKind::FreqStuck { mhz: None },
                },
            ],
            epochs: vec![EpochSample {
                start: 0.0,
                end: 0.75,
                power: 12.5,
                queued: 3,
                in_flight: 4,
                completions: 1,
                retries: 1,
                timeouts: 1,
                per_server: vec![
                    ServerSample {
                        queued: 1,
                        in_flight: 2,
                        freq_mhz: 2400,
                        power: 7.5,
                        down: false,
                    },
                    ServerSample {
                        queued: 2,
                        in_flight: 2,
                        freq_mhz: 1200,
                        power: 5.0,
                        down: true,
                    },
                ],
            }],
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let log = sample_log();
        let text = to_json(&log);
        let parsed = from_json(&text).expect("roundtrip parse");
        assert_eq!(parsed, log);
    }

    #[test]
    fn writer_output_is_stable() {
        // A second serialization of the same log is byte-identical — the
        // property golden trace fixtures rely on.
        let log = sample_log();
        assert_eq!(to_json(&log), to_json(&log));
    }

    #[test]
    fn rejects_foreign_formats() {
        let err = from_json("{\"format\":\"other\"}").unwrap_err();
        assert!(err.to_string().contains("unsupported trace format"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(from_json("").is_err());
        assert!(from_json("{\"format\":").is_err());
        assert!(from_json("[1, 2").is_err());
        assert!(from_json("{\"a\" 1}").is_err());
        let valid = to_json(&sample_log());
        let epoch = valid.find("{\"start\"").unwrap();
        for (text, needle) in [
            (format!("{valid} extra"), "trailing data"),
            (
                valid.replacen("{\"at\":0.0,", "{\"at\":0.0,\"at\":0.0,", 1),
                "duplicate event field \"at\"",
            ),
            (
                valid.replacen("\"servers\":2", "\"servers\":2,\"servers\":2", 1),
                "duplicate log field \"servers\"",
            ),
            (
                format!("{}\"bogus\":1,{}", &valid[..epoch + 1], &valid[epoch + 1..]),
                "unknown epoch field \"bogus\"",
            ),
            (
                valid.replacen("\"kind\":\"down\"", "\"kind\":\"down\",\"mhz\":null", 1),
                "unknown server event field \"mhz\"",
            ),
            (
                valid.replacen("\"until\":0.1", "\"until\":1e999", 1),
                "expected a finite number",
            ),
            (
                valid.replacen("\"power\":12.5", "\"power\":-1e999", 1),
                "expected a finite number",
            ),
            (
                valid.replacen(",\"attempt\":1", "", 1),
                "missing event field \"attempt\"",
            ),
            (
                valid.replacen("\"id\":3", "\"id\":3.0", 1),
                "expected a non-negative integer",
            ),
        ] {
            assert_ne!(text, valid, "{needle}: the edit must apply");
            let err = from_json(&text).expect_err(needle).to_string();
            assert!(err.contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn parser_handles_escapes_and_exponents() {
        let mut json = Reader::new(r#"{"s":"a\"b\\c","n":-1.5e-3}"#.as_bytes());
        let (mut s, mut n) = (String::new(), 0.0);
        let seen = json
            .object("test", &["s", "n"], |json, i| {
                match i {
                    0 => s = json.string()?.to_string(),
                    _ => n = json.f64()?,
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(seen, 0b11);
        assert_eq!(s, "a\"b\\c");
        assert_eq!(n, -1.5e-3);
    }

    #[test]
    fn large_ids_roundtrip_exactly() {
        // Ids above 2^53 would corrupt under an f64 round-trip.
        let mut log = sample_log();
        log.requests[1].id = (1 << 60) + 12345;
        let parsed = from_json(&to_json(&log)).unwrap();
        assert_eq!(parsed.requests[1].id, (1 << 60) + 12345);
        assert_eq!(parsed, log);
    }
}
