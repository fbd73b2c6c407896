//! Trace capture and replay.
//!
//! The paper's trace-driven characterization (Sec. 5.3) captures per-request
//! arrival times, core cycles, and memory-bound times, and replays the same
//! trace under different schemes so that every scheme sees an identical
//! request stream. This module is the one codec for those trace files:
//! [`TraceWriter`] writes requests one at a time into any [`Write`], and
//! [`TraceReader`] reads them one at a time from any [`Read`] through the
//! shared [`rubik_sim::json::Reader`]. The batch helpers ([`to_json`],
//! [`from_json`], [`save`], [`load`]) are built on the pair, and `rubik-load`
//! adds streamed replay on top of the same reader.
//!
//! The layout is serde_json's for the same types, so files remain
//! compatible if the real dependency is restored:
//!
//! ```json
//! {"requests":[{"id":0,"arrival":0.0,"compute_cycles":1.0e6,
//!               "membound_time":1.0e-5,"class":0}, ...]}
//! ```
//!
//! Reading is strict: unknown, duplicate or missing fields, fractional or
//! negative integers, non-finite numbers and trailing data are rejected.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

pub use rubik_sim::json::JsonError;
use rubik_sim::json::Reader;
use rubik_sim::{RequestSpec, Trace};

/// Errors returned by trace I/O.
#[derive(Debug)]
pub enum TraceIoError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The file contents could not be parsed as a trace.
    Parse(JsonError),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace file I/O failed: {e}"),
            TraceIoError::Parse(e) => write!(f, "trace file is not a valid trace: {e}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Parse(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Writes a trace one request at a time with O(1) resident memory.
///
/// Call [`TraceWriter::finish`] to close the JSON structure; a writer
/// dropped without it leaves a truncated file the reader rejects, never a
/// silently short trace.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    written: usize,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates (truncating) a trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] if the file cannot be created.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self, TraceIoError> {
        Ok(Self::new(BufWriter::new(File::create(path)?))?)
    }
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace on any writer (the JSON header is written at once).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the header cannot be written.
    pub fn new(mut out: W) -> std::io::Result<Self> {
        out.write_all(b"{\"requests\":[")?;
        Ok(Self { out, written: 0 })
    }

    /// Appends one request.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the record cannot be written.
    pub fn write(&mut self, r: &RequestSpec) -> std::io::Result<()> {
        if self.written > 0 {
            self.out.write_all(b",")?;
        }
        // `{:e}` prints the shortest-roundtrip mantissa, so values survive a
        // write/read cycle bit-exactly.
        write!(
            self.out,
            "{{\"id\":{},\"arrival\":{:e},\"compute_cycles\":{:e},\
             \"membound_time\":{:e},\"class\":{}}}",
            r.id, r.arrival, r.compute_cycles, r.membound_time, r.class
        )?;
        self.written += 1;
        Ok(())
    }

    /// Closes the JSON structure and flushes, returning the inner writer.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the trailer cannot be written.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.out.write_all(b"]}")?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Reads a trace one request per pull with O(1) resident memory.
///
/// An [`Iterator`] over the requests in file order. The first error ends
/// the iteration; [`TraceReader::finish`] then tells a complete trace from
/// a truncated one.
#[derive(Debug)]
pub struct TraceReader<R> {
    json: Reader<R>,
    state: State,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Before the first request; `]` or a request may follow.
    First,
    /// Between requests; `,` or `]` may follow.
    Next,
    /// The closing `]}` has been read.
    Done,
    /// A previous pull failed.
    Failed,
}

/// The fields of a request object, in the order the writer emits them.
const FIELDS: [&str; 5] = ["id", "arrival", "compute_cycles", "membound_time", "class"];

impl<R: Read> TraceReader<R> {
    /// Starts reading from any reader; the `{"requests":[` header is parsed
    /// at once.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] on a read failure and
    /// [`TraceIoError::Parse`] if the header is malformed.
    pub fn new(input: R) -> Result<Self, TraceIoError> {
        let mut reader = Self {
            json: Reader::new(input),
            state: State::First,
        };
        let json = &mut reader.json;
        let header = json.expect(b'{').and_then(|()| {
            if json.string()? != "requests" {
                return Err(json.error("expected a \"requests\" field"));
            }
            json.expect(b':')?;
            json.expect(b'[')
        });
        header.map_err(|e| reader.fail(e))?;
        Ok(reader)
    }

    /// A parse error at the current offset.
    pub fn error(&self, message: &str) -> TraceIoError {
        TraceIoError::Parse(self.json.error(message))
    }

    /// Checks that the whole trace was read.
    ///
    /// # Errors
    ///
    /// Returns a parse error if the input ended, or a pull failed, before
    /// the closing `]}`.
    pub fn finish(self) -> Result<(), TraceIoError> {
        match self.state {
            State::Done => Ok(()),
            _ => Err(self.error("trace stream ended before the closing \"]}\"")),
        }
    }

    fn fail(&mut self, e: JsonError) -> TraceIoError {
        self.state = State::Failed;
        self.json
            .take_io_error()
            .map_or(TraceIoError::Parse(e), TraceIoError::Io)
    }

    fn pull(&mut self) -> Result<Option<RequestSpec>, JsonError> {
        let json = &mut self.json;
        let more = match self.state {
            State::Done | State::Failed => return Ok(None),
            State::First => !json.eat(b']')?,
            State::Next => json.more(b']', "request")?,
        };
        if !more {
            json.expect(b'}')?;
            json.end()?;
            self.state = State::Done;
            return Ok(None);
        }
        self.state = State::Next;
        let mut spec = RequestSpec::new(0, 0.0, 0.0, 0.0);
        // Like serde, every field must be present exactly once: a request
        // with silently-defaulted zero work would corrupt replays.
        let seen = json.object("request", &FIELDS, |json, i| {
            match i {
                0 => spec.id = json.uint()?,
                1 => spec.arrival = json.f64()?,
                2 => spec.compute_cycles = json.f64()?,
                3 => spec.membound_time = json.f64()?,
                _ => spec.class = json.uint()?,
            }
            Ok(())
        })?;
        json.check_fields("request", &FIELDS, seen, &FIELDS)?;
        Ok(Some(spec))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<RequestSpec, TraceIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.pull().map_err(|e| self.fail(e)).transpose()
    }
}

fn read_all(input: impl Read) -> Result<Trace, TraceIoError> {
    Ok(Trace::new(
        TraceReader::new(input)?.collect::<Result<_, _>>()?,
    ))
}

fn write_all<W: Write>(out: W, trace: &Trace) -> std::io::Result<W> {
    let mut writer = TraceWriter::new(out)?;
    for r in trace.requests() {
        writer.write(r)?;
    }
    writer.finish()
}

/// Serializes a trace to a JSON string.
pub fn to_json(trace: &Trace) -> String {
    let bytes = write_all(Vec::with_capacity(64 * trace.len() + 16), trace)
        .expect("writing to a Vec cannot fail");
    String::from_utf8(bytes).expect("the trace writer emits ASCII")
}

/// Parses a trace from a JSON string.
///
/// # Errors
///
/// Returns [`TraceIoError::Parse`] if the string is not a valid trace.
pub fn from_json(json: &str) -> Result<Trace, TraceIoError> {
    read_all(json.as_bytes())
}

/// Writes a trace to a JSON file.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] if the file cannot be written.
pub fn save<P: AsRef<Path>>(trace: &Trace, path: P) -> Result<(), TraceIoError> {
    write_all(BufWriter::new(File::create(path)?), trace)?;
    Ok(())
}

/// Reads a trace from a JSON file.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] if the file cannot be read and
/// [`TraceIoError::Parse`] if it is not a valid trace.
pub fn load<P: AsRef<Path>>(path: P) -> Result<Trace, TraceIoError> {
    read_all(File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AppProfile, WorkloadGenerator};

    /// The writer emits shortest-roundtrip floats, so traces survive a
    /// round-trip bit-exactly; the comparison is still by value so the test
    /// also documents what matters for replay.
    fn assert_traces_equivalent(a: &Trace, b: &Trace) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.requests().iter().zip(b.requests()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.class, y.class);
            assert!((x.arrival - y.arrival).abs() <= 1e-12 * x.arrival.abs().max(1.0));
            assert!(
                (x.compute_cycles - y.compute_cycles).abs()
                    <= 1e-12 * x.compute_cycles.abs().max(1.0)
            );
            assert!(
                (x.membound_time - y.membound_time).abs() <= 1e-12 * x.membound_time.abs().max(1.0)
            );
        }
    }

    #[test]
    fn json_roundtrip_preserves_trace() {
        let mut g = WorkloadGenerator::new(AppProfile::masstree(), 1);
        let trace = g.steady_trace(0.4, 200);
        let json = to_json(&trace);
        let back = from_json(&json).unwrap();
        assert_traces_equivalent(&trace, &back);
    }

    #[test]
    fn file_roundtrip_preserves_trace() {
        let mut g = WorkloadGenerator::new(AppProfile::shore(), 2);
        let trace = g.steady_trace(0.3, 100);
        let dir = std::env::temp_dir();
        let path = dir.join("rubik_trace_io_test.json");
        save(&trace, &path).unwrap();
        let back = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_traces_equivalent(&trace, &back);
    }

    #[test]
    fn whitespace_and_field_order_are_tolerated() {
        let json = r#" {
            "requests": [
                {"arrival": 1.5e-3, "id": 7, "class": 2,
                 "membound_time": 0.0, "compute_cycles": 1e6}
            ]
        } "#;
        let t = from_json(json).unwrap();
        assert_eq!(t.len(), 1);
        let r = t.requests()[0];
        assert_eq!(r.id, 7);
        assert_eq!(r.class, 2);
        assert!((r.arrival - 1.5e-3).abs() < 1e-18);
        assert!((r.compute_cycles - 1e6).abs() < 1e-6);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = from_json(&to_json(&Trace::default())).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn parse_error_is_reported() {
        let err = from_json("not json").unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(_)));
        assert!(err.to_string().contains("not a valid trace"));
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err = from_json(r#"{"requests":[{"id":0,"bogus":1}]}"#).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(_)));
    }

    #[test]
    fn missing_fields_are_rejected() {
        // A truncated request must not silently default to zero work.
        let err = from_json(r#"{"requests":[{"id":3,"arrival":0.0}]}"#).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(_)));
        assert!(err.to_string().contains("missing request field"));
    }

    #[test]
    fn duplicate_fields_are_rejected() {
        let err = from_json(
            r#"{"requests":[{"id":0,"id":1,"arrival":0.0,"compute_cycles":1.0,
                "membound_time":0.0,"class":0}]}"#,
        )
        .unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(_)));
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        // 1e999 overflows to +inf under f64 parsing; accepting it would
        // poison every downstream latency computation.
        let err = from_json(
            r#"{"requests":[{"id":0,"arrival":1e999,"compute_cycles":1.0,
                "membound_time":0.0,"class":0}]}"#,
        )
        .unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(_)));
    }

    #[test]
    fn fractional_ids_are_rejected() {
        let err = from_json(
            r#"{"requests":[{"id":1.5,"arrival":0.0,"compute_cycles":1.0,
                "membound_time":0.0,"class":0}]}"#,
        )
        .unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(_)));
    }

    #[test]
    fn large_ids_roundtrip_exactly() {
        // Ids above 2^53 would corrupt under an f64 round-trip; the integer
        // fields must parse as integers.
        let big = (1u64 << 60) + 12345;
        let trace = Trace::new(vec![RequestSpec::new(big, 0.0, 1.0, 0.0)]);
        let back = from_json(&to_json(&trace)).unwrap();
        assert_eq!(back.requests()[0].id, big);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let err = from_json("{\"requests\":[]} extra").unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(_)));
    }

    #[test]
    fn missing_file_is_reported_as_io_error() {
        let err = load("/nonexistent/rubik/trace.json").unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
    }
}
