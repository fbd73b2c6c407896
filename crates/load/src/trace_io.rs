//! File-backed streaming trace replay.
//!
//! The trace codec lives once, in [`rubik_workloads::trace_io`]; its writer
//! and error type are re-exported here under the names this crate has
//! always used. This module adds what streamed replay needs on top of the
//! codec's reader: [`StreamingTraceReader`], an [`ArrivalSource`].

use std::fs::File;
use std::io::Read;
use std::path::Path;

use rubik_sim::RequestSpec;
use rubik_workloads::trace_io::TraceReader;
pub use rubik_workloads::trace_io::{
    TraceIoError as StreamError, TraceWriter as StreamingTraceWriter,
};

use crate::source::ArrivalSource;

/// Replays a trace file one request per pull with O(1) resident memory.
///
/// Implements [`ArrivalSource`], so a captured multi-gigabyte trace feeds
/// `Cluster::run_streamed` directly. Schema checks match the batch parser
/// (unknown, duplicate, or missing fields and non-finite numbers are
/// rejected); out-of-order arrivals are additionally rejected because the
/// engine requires a time-ordered stream.
///
/// [`ArrivalSource::next_arrival`] cannot carry an error, so a parse or
/// I/O failure ends the stream early and is held for inspection: check
/// [`StreamingTraceReader::finish`] (or [`StreamingTraceReader::error`])
/// after the run to distinguish clean exhaustion from a truncated or
/// malformed file.
#[derive(Debug)]
pub struct StreamingTraceReader<R: Read> {
    records: TraceReader<R>,
    last_arrival: f64,
    error: Option<StreamError>,
}

impl StreamingTraceReader<File> {
    /// Opens a trace file for streaming replay.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Io`] if the file cannot be opened and
    /// [`StreamError::Parse`] if it does not start with the trace header.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, StreamError> {
        Self::new(File::open(path)?)
    }
}

impl<R: Read> StreamingTraceReader<R> {
    /// Starts streaming from any reader; the `{"requests":[` header is
    /// parsed immediately.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Io`] on a read failure and
    /// [`StreamError::Parse`] if the header is malformed.
    pub fn new(input: R) -> Result<Self, StreamError> {
        Ok(Self {
            records: TraceReader::new(input)?,
            last_arrival: f64::NEG_INFINITY,
            error: None,
        })
    }

    /// The error that ended the stream early, if any.
    pub fn error(&self) -> Option<&StreamError> {
        self.error.as_ref()
    }

    /// Consumes the reader, distinguishing clean exhaustion from failure.
    ///
    /// # Errors
    ///
    /// Returns the held [`StreamError`] if the stream ended on a parse or
    /// I/O failure, or a truncation error if the file ended before the
    /// closing `]}` was seen.
    pub fn finish(self) -> Result<(), StreamError> {
        match self.error {
            Some(e) => Err(e),
            None => self.records.finish(),
        }
    }
}

impl<R: Read> ArrivalSource for StreamingTraceReader<R> {
    fn next_arrival(&mut self) -> Option<RequestSpec> {
        if self.error.is_some() {
            return None;
        }
        match self.records.next()? {
            Ok(spec) if spec.arrival >= self.last_arrival => {
                self.last_arrival = spec.arrival;
                Some(spec)
            }
            Ok(_) => {
                self.error = Some(self.records.error("arrivals are out of order"));
                None
            }
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{drain_to_trace, PoissonSource};
    use rubik_workloads::{trace_io, AppProfile, WorkloadGenerator};

    fn sample_trace(n: usize) -> rubik_sim::Trace {
        WorkloadGenerator::new(AppProfile::masstree(), 5).steady_trace(0.4, n)
    }

    #[test]
    fn streamed_bytes_match_batch_writer() {
        let trace = sample_trace(100);
        let mut writer = StreamingTraceWriter::new(Vec::new()).unwrap();
        for r in trace.requests() {
            writer.write(r).unwrap();
        }
        let bytes = writer.finish().unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), trace_io::to_json(&trace));
    }

    #[test]
    fn empty_stream_matches_batch_writer() {
        let writer = StreamingTraceWriter::new(Vec::new()).unwrap();
        let bytes = writer.finish().unwrap();
        assert_eq!(bytes, b"{\"requests\":[]}");
    }

    #[test]
    fn reader_reproduces_batch_parser_bit_for_bit() {
        let trace = sample_trace(200);
        let json = trace_io::to_json(&trace);
        let mut reader = StreamingTraceReader::new(json.as_bytes()).unwrap();
        let batch = trace_io::from_json(&json).unwrap();
        for expected in batch.requests() {
            let got = reader.next_arrival().unwrap();
            assert_eq!(got.id, expected.id);
            assert_eq!(got.arrival.to_bits(), expected.arrival.to_bits());
            assert_eq!(
                got.compute_cycles.to_bits(),
                expected.compute_cycles.to_bits()
            );
            assert_eq!(
                got.membound_time.to_bits(),
                expected.membound_time.to_bits()
            );
            assert_eq!(got.class, expected.class);
        }
        assert_eq!(reader.next_arrival(), None);
        reader.finish().unwrap();
    }

    #[test]
    fn file_round_trip_streams_both_ways() {
        let path = std::env::temp_dir().join("rubik_stream_io_test.json");
        let mut source = PoissonSource::new(AppProfile::xapian(), 0.5, 150, 9);
        let mut writer = StreamingTraceWriter::create(&path).unwrap();
        let mut written = 0;
        while let Some(r) = source.next_arrival() {
            writer.write(&r).unwrap();
            written += 1;
        }
        writer.finish().unwrap();
        assert_eq!(written, 150);
        let reader = StreamingTraceReader::open(&path).unwrap();
        let replayed = drain_to_trace(reader, None);
        std::fs::remove_file(&path).ok();
        let direct = drain_to_trace(PoissonSource::new(AppProfile::xapian(), 0.5, 150, 9), None);
        assert_eq!(replayed.len(), 150);
        for (a, b) in replayed.requests().iter().zip(direct.requests()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.arrival.to_bits(), b.arrival.to_bits());
            assert_eq!(a.compute_cycles.to_bits(), b.compute_cycles.to_bits());
            assert_eq!(a.membound_time.to_bits(), b.membound_time.to_bits());
            assert_eq!(a.class, b.class);
        }
    }

    #[test]
    fn reader_tolerates_whitespace_and_field_order() {
        let json = r#" {
            "requests": [
                {"arrival": 1.5e-3, "id": 7, "class": 2,
                 "membound_time": 0.0, "compute_cycles": 1e6}
            ]
        } "#;
        let mut reader = StreamingTraceReader::new(json.as_bytes()).unwrap();
        let r = reader.next_arrival().unwrap();
        assert_eq!(r.id, 7);
        assert_eq!(r.class, 2);
        assert_eq!(reader.next_arrival(), None);
        reader.finish().unwrap();
    }

    #[test]
    fn reader_rejects_malformed_streams() {
        for (json, needle) in [
            ("{\"requests\":", "expected '['"),
            ("{\"other\":[]}", "expected a \"requests\" field"),
            (
                "{\"requests\":[{\"id\":0,\"arrival\":0.0,\"compute_cycles\":1.0,\
                 \"membound_time\":0.0}]}",
                "missing request field \"class\"",
            ),
            (
                "{\"requests\":[{\"id\":0,\"id\":1,\"arrival\":0.0,\"compute_cycles\":1.0,\
                 \"membound_time\":0.0,\"class\":0}]}",
                "duplicate request field",
            ),
            (
                "{\"requests\":[{\"id\":0,\"arrival\":1e999,\"compute_cycles\":1.0,\
                 \"membound_time\":0.0,\"class\":0}]}",
                "expected a finite number",
            ),
            (
                "{\"requests\":[{\"id\":0,\"wat\":1,\"arrival\":0.0,\"compute_cycles\":1.0,\
                 \"membound_time\":0.0,\"class\":0}]}",
                "unknown request field",
            ),
        ] {
            match StreamingTraceReader::new(json.as_bytes()) {
                Err(e) => assert!(e.to_string().contains(needle), "{json}: {e}"),
                Ok(mut reader) => {
                    while reader.next_arrival().is_some() {}
                    let err = reader.finish().expect_err(json).to_string();
                    assert!(err.contains(needle), "{json}: {err}");
                }
            }
        }
    }

    #[test]
    fn reader_rejects_truncated_and_unordered_streams() {
        // Truncated: writer dropped before finish().
        let trace = sample_trace(3);
        // The writer is never finished, so the "]}" trailer is missing.
        let mut truncated = Vec::new();
        let mut writer = StreamingTraceWriter::new(&mut truncated).unwrap();
        for r in trace.requests() {
            writer.write(r).unwrap();
        }
        let mut reader = StreamingTraceReader::new(&truncated[..]).unwrap();
        while reader.next_arrival().is_some() {}
        assert!(reader.finish().is_err(), "truncated file must be rejected");

        // Out of order: a pull-based reader cannot sort after the fact.
        let json = "{\"requests\":[\
            {\"id\":0,\"arrival\":2.0,\"compute_cycles\":1.0,\"membound_time\":0.0,\"class\":0},\
            {\"id\":1,\"arrival\":1.0,\"compute_cycles\":1.0,\"membound_time\":0.0,\"class\":0}]}";
        let mut reader = StreamingTraceReader::new(json.as_bytes()).unwrap();
        assert!(reader.next_arrival().is_some());
        assert_eq!(reader.next_arrival(), None);
        let err = reader.finish().expect_err("unordered").to_string();
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn reader_memory_is_bounded_by_buffer_not_trace() {
        // The reader's buffer is fixed-size; a large trace streams through
        // it without growing allocations proportional to the trace.
        struct Probe<'a> {
            rest: &'a [u8],
            largest_read: usize,
        }
        impl Read for Probe<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.largest_read = self.largest_read.max(buf.len());
                self.rest.read(buf)
            }
        }
        let trace = sample_trace(2_000);
        let json = trace_io::to_json(&trace);
        let mut probe = Probe {
            rest: json.as_bytes(),
            largest_read: 0,
        };
        let reader = StreamingTraceReader::new(&mut probe).unwrap();
        let replayed = drain_to_trace(reader, None);
        assert_eq!(replayed.len(), 2_000);
        assert_eq!(probe.largest_read, 8 * 1024);
    }
}
