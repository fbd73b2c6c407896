//! Self-serialized JSON for [`TraceLog`] — writer and minimal parser.
//!
//! The build environment is offline, so (like the vendored `criterion`)
//! serialization is hand-rolled: [`to_json`] emits a stable `rubik-trace-v1`
//! document and [`from_json`] reads it back with a small recursive-descent
//! parser. Floats are written with Rust's shortest-roundtrip `{:?}`
//! formatting, so a write → read cycle is lossless.
//!
//! Request ids are carried as JSON numbers and parsed through `f64`, which
//! is exact for ids below 2^53 — far beyond any trace this crate produces.

use std::fmt::Write;

use crate::event::{RequestEvent, RequestEventKind, ServerEvent, ServerEventKind};
use crate::fleet::{EpochSample, ServerSample};
use crate::log::{RequestTrace, TraceLog};

/// Format tag written into every document.
pub const FORMAT: &str = "rubik-trace-v1";

// ---------------------------------------------------------------------------
// Writer. Each field goes through `write!` straight into the output
// `String`. Writing to a `String` cannot fail, so the `fmt::Result` is
// dropped.
// ---------------------------------------------------------------------------

fn push_f64(out: &mut String, v: f64) {
    debug_assert!(v.is_finite(), "trace times and powers are finite");
    let _ = write!(out, "{v:?}");
}

fn push_request_event(out: &mut String, event: &RequestEvent) {
    out.push_str("{\"at\":");
    push_f64(out, event.at);
    match event.kind {
        RequestEventKind::Routed { server, attempt } => {
            let _ = write!(
                out,
                ",\"kind\":\"routed\",\"server\":{server},\"attempt\":{attempt}"
            );
        }
        RequestEventKind::TimedOut { server, attempt } => {
            let _ = write!(
                out,
                ",\"kind\":\"timed_out\",\"server\":{server},\"attempt\":{attempt}"
            );
        }
        RequestEventKind::Backoff { until } => {
            out.push_str(",\"kind\":\"backoff\",\"until\":");
            push_f64(out, until);
        }
        RequestEventKind::Salvaged { server } => {
            let _ = write!(out, ",\"kind\":\"salvaged\",\"server\":{server}");
        }
        RequestEventKind::Requeued { from, to } => {
            let _ = write!(out, ",\"kind\":\"requeued\",\"from\":{from},\"to\":{to}");
        }
        RequestEventKind::Migrated { from, to } => {
            let _ = write!(out, ",\"kind\":\"migrated\",\"from\":{from},\"to\":{to}");
        }
        RequestEventKind::Dropped { server } => {
            let _ = write!(out, ",\"kind\":\"dropped\",\"server\":{server}");
        }
        RequestEventKind::Hedged { server, attempt } => {
            let _ = write!(
                out,
                ",\"kind\":\"hedged\",\"server\":{server},\"attempt\":{attempt}"
            );
        }
        RequestEventKind::HedgeWon { server } => {
            let _ = write!(out, ",\"kind\":\"hedge_won\",\"server\":{server}");
        }
        RequestEventKind::HedgeCancelled { server } => {
            let _ = write!(out, ",\"kind\":\"hedge_cancelled\",\"server\":{server}");
        }
    }
    out.push('}');
}

fn push_server_event(out: &mut String, event: &ServerEvent) {
    out.push_str("{\"at\":");
    push_f64(out, event.at);
    let _ = write!(out, ",\"server\":{}", event.server);
    match event.kind {
        ServerEventKind::Down => out.push_str(",\"kind\":\"down\""),
        ServerEventKind::Up => out.push_str(",\"kind\":\"up\""),
        ServerEventKind::StraggleStart { slowdown } => {
            out.push_str(",\"kind\":\"straggle_start\",\"slowdown\":");
            push_f64(out, slowdown);
        }
        ServerEventKind::StraggleEnd => out.push_str(",\"kind\":\"straggle_end\""),
        ServerEventKind::FreqStuck { mhz } => {
            out.push_str(",\"kind\":\"freq_stuck\",\"mhz\":");
            match mhz {
                Some(mhz) => {
                    let _ = write!(out, "{mhz}");
                }
                None => out.push_str("null"),
            }
        }
    }
    out.push('}');
}

fn push_opt_f64(out: &mut String, v: Option<f64>) {
    match v {
        Some(v) => push_f64(out, v),
        None => out.push_str("null"),
    }
}

fn push_request(out: &mut String, request: &RequestTrace) {
    let _ = write!(out, "{{\"id\":{},\"arrival\":", request.id);
    push_f64(out, request.arrival);
    out.push_str(",\"start\":");
    push_opt_f64(out, request.start);
    out.push_str(",\"completion\":");
    push_opt_f64(out, request.completion);
    out.push_str(",\"server\":");
    match request.server {
        Some(server) => {
            let _ = write!(out, "{server}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"events\":[");
    for (i, event) in request.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_request_event(out, event);
    }
    out.push_str("]}");
}

fn push_epoch(out: &mut String, epoch: &EpochSample) {
    out.push_str("{\"start\":");
    push_f64(out, epoch.start);
    out.push_str(",\"end\":");
    push_f64(out, epoch.end);
    out.push_str(",\"power\":");
    push_f64(out, epoch.power);
    let _ = write!(
        out,
        ",\"queued\":{},\"in_flight\":{},\"completions\":{},\"retries\":{},\"timeouts\":{}",
        epoch.queued, epoch.in_flight, epoch.completions, epoch.retries, epoch.timeouts
    );
    out.push_str(",\"per_server\":[");
    for (i, server) in epoch.per_server.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"queued\":{},\"in_flight\":{},\"freq_mhz\":{},\"power\":",
            server.queued, server.in_flight, server.freq_mhz
        );
        push_f64(out, server.power);
        let _ = write!(out, ",\"down\":{}}}", server.down);
    }
    out.push_str("]}");
}

/// Serialize a [`TraceLog`] as a `rubik-trace-v1` JSON document.
pub fn to_json(log: &TraceLog) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"format\":\"{FORMAT}\",\"servers\":{},\"end\":",
        log.servers
    );
    push_f64(&mut out, log.end);
    out.push_str(",\n\"requests\":[");
    for (i, request) in log.requests.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        push_request(&mut out, request);
    }
    out.push_str("],\n\"server_events\":[");
    for (i, event) in log.server_events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        push_server_event(&mut out, event);
    }
    out.push_str("],\n\"epochs\":[");
    for (i, epoch) in log.epochs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        push_epoch(&mut out, epoch);
    }
    out.push_str("]}\n");
    out
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// A parsed JSON value (just enough for trace documents).
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn get<'a>(&'a self, key: &str) -> Result<&'a Value, String> {
        match self {
            Value::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field `{key}`")),
            _ => Err(format!("expected object with field `{key}`")),
        }
    }

    fn as_f64(&self) -> Result<f64, String> {
        match self {
            Value::Num(v) => Ok(*v),
            _ => Err("expected number".into()),
        }
    }

    fn as_u64(&self) -> Result<u64, String> {
        let v = self.as_f64()?;
        if v < 0.0 || v.fract() != 0.0 {
            return Err(format!("expected non-negative integer, got {v}"));
        }
        Ok(v as u64)
    }

    fn as_u32(&self) -> Result<u32, String> {
        u32::try_from(self.as_u64()?).map_err(|_| "integer out of u32 range".into())
    }

    fn as_opt_f64(&self) -> Result<Option<f64>, String> {
        match self {
            Value::Null => Ok(None),
            other => other.as_f64().map(Some),
        }
    }

    fn as_bool(&self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err("expected bool".into()),
        }
    }

    fn as_str(&self) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err("expected string".into()),
        }
    }

    fn as_arr(&self) -> Result<&[Value], String> {
        match self {
            Value::Arr(items) => Ok(items),
            _ => Err("expected array".into()),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".into())
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek()? == byte {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn expect_literal(&mut self, literal: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => self.parse_object(),
            b'[' => self.parse_array(),
            b'"' => Ok(Value::Str(self.parse_string()?)),
            b't' => self.expect_literal("true", Value::Bool(true)),
            b'f' => self.expect_literal("false", Value::Bool(false)),
            b'n' => self.expect_literal("null", Value::Null),
            _ => self.parse_number(),
        }
    }

    fn parse_object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self
                .bytes
                .get(self.pos)
                .copied()
                .ok_or("unterminated string")?
            {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let escape = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or("unterminated escape")?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        other => return Err(format!("unsupported escape `\\{}`", other as char)),
                    }
                }
                _ => {
                    // Multi-byte UTF-8 sequences pass through byte-by-byte;
                    // re-validate at the end via from_utf8 on the slice.
                    let start = self.pos;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| b != b'"' && b != b'\\')
                    {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }
}

fn parse_request_event(value: &Value) -> Result<RequestEvent, String> {
    let at = value.get("at")?.as_f64()?;
    let kind = match value.get("kind")?.as_str()? {
        "routed" => RequestEventKind::Routed {
            server: value.get("server")?.as_u32()?,
            attempt: value.get("attempt")?.as_u32()?,
        },
        "timed_out" => RequestEventKind::TimedOut {
            server: value.get("server")?.as_u32()?,
            attempt: value.get("attempt")?.as_u32()?,
        },
        "backoff" => RequestEventKind::Backoff {
            until: value.get("until")?.as_f64()?,
        },
        "salvaged" => RequestEventKind::Salvaged {
            server: value.get("server")?.as_u32()?,
        },
        "requeued" => RequestEventKind::Requeued {
            from: value.get("from")?.as_u32()?,
            to: value.get("to")?.as_u32()?,
        },
        "migrated" => RequestEventKind::Migrated {
            from: value.get("from")?.as_u32()?,
            to: value.get("to")?.as_u32()?,
        },
        "dropped" => RequestEventKind::Dropped {
            server: value.get("server")?.as_u32()?,
        },
        "hedged" => RequestEventKind::Hedged {
            server: value.get("server")?.as_u32()?,
            attempt: value.get("attempt")?.as_u32()?,
        },
        "hedge_won" => RequestEventKind::HedgeWon {
            server: value.get("server")?.as_u32()?,
        },
        "hedge_cancelled" => RequestEventKind::HedgeCancelled {
            server: value.get("server")?.as_u32()?,
        },
        other => return Err(format!("unknown request event kind `{other}`")),
    };
    Ok(RequestEvent { at, kind })
}

fn parse_server_event(value: &Value) -> Result<ServerEvent, String> {
    let at = value.get("at")?.as_f64()?;
    let server = value.get("server")?.as_u32()?;
    let kind = match value.get("kind")?.as_str()? {
        "down" => ServerEventKind::Down,
        "up" => ServerEventKind::Up,
        "straggle_start" => ServerEventKind::StraggleStart {
            slowdown: value.get("slowdown")?.as_f64()?,
        },
        "straggle_end" => ServerEventKind::StraggleEnd,
        "freq_stuck" => ServerEventKind::FreqStuck {
            mhz: match value.get("mhz")? {
                Value::Null => None,
                other => Some(other.as_u32()?),
            },
        },
        other => return Err(format!("unknown server event kind `{other}`")),
    };
    Ok(ServerEvent { at, server, kind })
}

fn parse_epoch(value: &Value) -> Result<EpochSample, String> {
    let mut per_server = Vec::new();
    for server in value.get("per_server")?.as_arr()? {
        per_server.push(ServerSample {
            queued: server.get("queued")?.as_u32()?,
            in_flight: server.get("in_flight")?.as_u32()?,
            freq_mhz: server.get("freq_mhz")?.as_u32()?,
            power: server.get("power")?.as_f64()?,
            down: server.get("down")?.as_bool()?,
        });
    }
    Ok(EpochSample {
        start: value.get("start")?.as_f64()?,
        end: value.get("end")?.as_f64()?,
        power: value.get("power")?.as_f64()?,
        queued: value.get("queued")?.as_u32()?,
        in_flight: value.get("in_flight")?.as_u32()?,
        completions: value.get("completions")?.as_u32()?,
        retries: value.get("retries")?.as_u64()?,
        timeouts: value.get("timeouts")?.as_u64()?,
        per_server,
    })
}

/// Parse a `rubik-trace-v1` JSON document back into a [`TraceLog`].
pub fn from_json(text: &str) -> Result<TraceLog, String> {
    let mut parser = Parser::new(text);
    let root = parser.parse_value()?;
    let format = root.get("format")?.as_str()?;
    if format != FORMAT {
        return Err(format!("unsupported trace format `{format}`"));
    }
    let mut requests = Vec::new();
    for request in root.get("requests")?.as_arr()? {
        let mut events = Vec::new();
        for event in request.get("events")?.as_arr()? {
            events.push(parse_request_event(event)?);
        }
        requests.push(RequestTrace {
            id: request.get("id")?.as_u64()?,
            arrival: request.get("arrival")?.as_f64()?,
            start: request.get("start")?.as_opt_f64()?,
            completion: request.get("completion")?.as_opt_f64()?,
            server: match request.get("server")? {
                Value::Null => None,
                other => Some(other.as_u32()?),
            },
            events,
        });
    }
    let mut server_events = Vec::new();
    for event in root.get("server_events")?.as_arr()? {
        server_events.push(parse_server_event(event)?);
    }
    let mut epochs = Vec::new();
    for epoch in root.get("epochs")?.as_arr()? {
        epochs.push(parse_epoch(epoch)?);
    }
    Ok(TraceLog {
        servers: root.get("servers")?.as_u64()? as usize,
        end: root.get("end")?.as_f64()?,
        requests,
        server_events,
        epochs,
    })
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
        assert!(err.contains("unsupported trace format"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(from_json("").is_err());
        assert!(from_json("{\"format\":").is_err());
        assert!(from_json("[1, 2").is_err());
        assert!(from_json("{\"a\" 1}").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_exponents() {
        let mut parser = Parser::new(r#"{"s":"a\"b\\c","n":-1.5e-3}"#);
        let value = parser.parse_value().unwrap();
        assert_eq!(value.get("s").unwrap().as_str().unwrap(), "a\"b\\c");
        assert_eq!(value.get("n").unwrap().as_f64().unwrap(), -1.5e-3);
    }
}
