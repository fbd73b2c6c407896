//! The one JSON reader every file format in the workspace is parsed with:
//! request traces (`rubik-workloads::trace_io`, streamed by `rubik-load`),
//! telemetry logs (`rubik-telemetry`) and bench summaries (`rubik-bench`).
//!
//! [`Reader`] is a pull parser over any [`io::Read`] with a fixed 8 KiB
//! buffer, so a multi-gigabyte trace streams in O(1) memory. Callers drive
//! it by the shape they expect, so there is no value tree. It is strict in
//! the way a replay needs (finite floats, exact integers, no unknown,
//! duplicate or missing keys, no trailing data), and no input makes it
//! recurse or allocate without bound. Every failure is one [`JsonError`]
//! carrying the byte offset at which it was detected.

use std::io::{self, BufRead, BufReader, Read};

/// Bytes read from the input per refill.
const BUFFER_LEN: usize = 8 * 1024;
/// Longest string or number token accepted.
const MAX_TOKEN: usize = 64 * 1024;
/// Deepest nesting [`Reader::skip_value`] accepts.
const MAX_DEPTH: usize = 1024;

/// A JSON syntax or schema error, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What was wrong.
    pub message: String,
    /// Byte offset from the start of the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// A pull-based JSON reader; see the [module docs](self).
///
/// Every method first skips whitespace. A read failure of the underlying
/// input is reported as a [`JsonError`] and kept for
/// [`Reader::take_io_error`], so callers can still tell I/O from syntax.
#[derive(Debug)]
pub struct Reader<R> {
    input: BufReader<R>,
    /// Byte offset of the next unread byte.
    offset: usize,
    /// The text of the last string or number read.
    token: Vec<u8>,
    io_error: Option<io::Error>,
}

impl<R: Read> Reader<R> {
    /// Starts reading `input`.
    pub fn new(input: R) -> Self {
        Self {
            input: BufReader::with_capacity(BUFFER_LEN, input),
            offset: 0,
            token: Vec::new(),
            io_error: None,
        }
    }

    /// Byte offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// An error at the current offset.
    pub fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.offset(),
        }
    }

    /// The I/O error behind the last failure, if it was one.
    pub fn take_io_error(&mut self) -> Option<io::Error> {
        self.io_error.take()
    }

    /// The next byte without consuming it or skipping whitespace.
    fn peek_byte(&mut self) -> Result<Option<u8>, JsonError> {
        loop {
            match self.input.fill_buf() {
                Ok(buf) => return Ok(buf.first().copied()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    let err = self.error(format!("read failed: {e}"));
                    self.io_error = Some(e);
                    return Err(err);
                }
            }
        }
    }

    /// Consumes the byte [`Reader::peek_byte`] returned.
    fn bump(&mut self) {
        self.input.consume(1);
        self.offset += 1;
    }

    fn next_byte(&mut self) -> Result<Option<u8>, JsonError> {
        let b = self.peek_byte()?;
        if b.is_some() {
            self.bump();
        }
        Ok(b)
    }

    fn skip_ws(&mut self) -> Result<(), JsonError> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek_byte()? {
            self.bump();
        }
        Ok(())
    }

    /// Skips whitespace and returns the next byte without consuming it.
    pub fn peek(&mut self) -> Result<Option<u8>, JsonError> {
        self.skip_ws()?;
        self.peek_byte()
    }

    /// Consumes `c` if it is the next byte.
    pub fn eat(&mut self, c: u8) -> Result<bool, JsonError> {
        let found = self.peek()? == Some(c);
        if found {
            self.bump();
        }
        Ok(found)
    }

    /// Consumes `c`, or fails with "expected 'c'".
    pub fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.eat(c)? {
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", c as char)))
        }
    }

    /// After an element of a container closed by `close` (`]` or `}`):
    /// consumes `,` and returns `true`, or consumes `close` and returns
    /// `false`. `what` names the container in the error.
    pub fn more(&mut self, close: u8, what: &str) -> Result<bool, JsonError> {
        if self.eat(b',')? {
            return Ok(true);
        }
        if self.eat(close)? {
            return Ok(false);
        }
        let container = if close == b'}' { "object" } else { "array" };
        Err(self.error(format!(
            "expected ',' or '{}' in {what} {container}",
            close as char
        )))
    }

    /// Fails unless only whitespace is left.
    pub fn end(&mut self) -> Result<(), JsonError> {
        match self.peek()? {
            None => Ok(()),
            Some(_) => Err(self.error("trailing data after the document")),
        }
    }

    fn push_token(&mut self, b: u8) -> Result<(), JsonError> {
        if self.token.len() == MAX_TOKEN {
            return Err(self.error(format!("token is longer than {MAX_TOKEN} bytes")));
        }
        self.token.push(b);
        Ok(())
    }

    /// Reads a string. The escapes `\" \\ \/ \n \t \r` are decoded.
    pub fn string(&mut self) -> Result<&str, JsonError> {
        self.expect(b'"')?;
        self.token.clear();
        loop {
            let b = match self.next_byte()? {
                Some(b'"') => break,
                Some(b'\\') => match self.next_byte()? {
                    Some(e @ (b'"' | b'\\' | b'/')) => e,
                    Some(b'n') => b'\n',
                    Some(b't') => b'\t',
                    Some(b'r') => b'\r',
                    Some(e) => {
                        return Err(self.error(format!("unsupported escape `\\{}`", e as char)))
                    }
                    None => return Err(self.error("unterminated string")),
                },
                Some(b) => b,
                None => return Err(self.error("unterminated string")),
            };
            self.push_token(b)?;
        }
        std::str::from_utf8(&self.token).map_err(|_| self.error("invalid UTF-8 in string"))
    }

    /// Scans a number token; the typed readers parse it.
    fn number(&mut self) -> Result<&str, JsonError> {
        self.skip_ws()?;
        self.token.clear();
        while let Some(b) = self.peek_byte()? {
            if !(b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')) {
                break;
            }
            self.push_token(b)?;
            self.bump();
        }
        Ok(std::str::from_utf8(&self.token).expect("number tokens are ASCII"))
    }

    /// Reads a finite number. Out-of-range literals such as `1e999` are
    /// rejected: an infinite time or power would poison every result
    /// computed from it.
    pub fn f64(&mut self) -> Result<f64, JsonError> {
        match self.number()?.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(self.error("expected a finite number")),
        }
    }

    /// Reads a non-negative integer into any type it fits, exactly: never
    /// through `f64`, so ids above 2^53 survive.
    pub fn uint<T: TryFrom<u64>>(&mut self) -> Result<T, JsonError> {
        let parsed = self.number()?.parse::<u64>().ok();
        let fits = parsed.and_then(|v| T::try_from(v).ok());
        fits.ok_or_else(|| self.error("expected a non-negative integer"))
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        self.skip_ws()?;
        for &expected in word.as_bytes() {
            if self.next_byte()? != Some(expected) {
                return Err(self.error(format!("expected `{word}`")));
            }
        }
        Ok(())
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        match self.peek()? {
            Some(b't') => self.literal("true").map(|()| true),
            _ => self.literal("false").map(|()| false),
        }
    }

    /// Reads `null` as `None`, or a value with `read`.
    pub fn opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Option<T>, JsonError> {
        if self.peek()? == Some(b'n') {
            self.literal("null").map(|()| None)
        } else {
            read(self).map(Some)
        }
    }

    /// Reads an array, calling `item` to read each element.
    pub fn list<T>(
        &mut self,
        what: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.eat(b']')? {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if !self.more(b']', what)? {
                return Ok(items);
            }
        }
    }

    /// Reads an object whose keys must all come from `fields`, calling
    /// `value(reader, i)` to read the value of `fields[i]`. Keys may come
    /// in any order; an unknown or repeated key is an error naming the
    /// `what` object. Returns the keys seen as a bit mask (bit `i` for
    /// `fields[i]`); pass it to [`Reader::check_fields`].
    pub fn object(
        &mut self,
        what: &str,
        fields: &[&str],
        mut value: impl FnMut(&mut Self, usize) -> Result<(), JsonError>,
    ) -> Result<u32, JsonError> {
        debug_assert!(fields.len() <= 32, "the seen mask has 32 bits");
        self.expect(b'{')?;
        let mut seen = 0u32;
        if self.eat(b'}')? {
            return Ok(seen);
        }
        loop {
            let key = self.string()?;
            let Some(i) = fields.iter().position(|f| *f == key) else {
                let message = format!("unknown {what} field \"{key}\"");
                return Err(self.error(message));
            };
            self.expect(b':')?;
            value(self, i)?;
            if seen & (1 << i) != 0 {
                return Err(self.error(format!("duplicate {what} field \"{}\"", fields[i])));
            }
            seen |= 1 << i;
            if !self.more(b'}', what)? {
                return Ok(seen);
            }
        }
    }

    /// Checks that the keys `seen` by [`Reader::object`] are exactly
    /// `wanted`: the first field out of place is reported as missing or
    /// unknown.
    pub fn check_fields(
        &self,
        what: &str,
        fields: &[&str],
        seen: u32,
        wanted: &[&str],
    ) -> Result<(), JsonError> {
        for (i, field) in fields.iter().enumerate() {
            let present = seen & (1 << i) != 0;
            if present != wanted.contains(field) {
                let problem = if present { "unknown" } else { "missing" };
                return Err(self.error(format!("{problem} {what} field \"{field}\"")));
            }
        }
        Ok(())
    }

    /// Skips one value of any shape, checking its syntax. Iterative, with
    /// nesting capped at 1024 levels.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        // One entry per open container: `true` for an object.
        let mut open: Vec<bool> = Vec::new();
        loop {
            match self.peek()? {
                Some(b @ (b'{' | b'[')) => {
                    self.bump();
                    if open.len() == MAX_DEPTH {
                        return Err(self.error("nesting is too deep"));
                    }
                    let object = b == b'{';
                    if !self.eat(if object { b'}' } else { b']' })? {
                        open.push(object);
                        if object {
                            self.string()?;
                            self.expect(b':')?;
                        }
                        continue;
                    }
                }
                Some(b'"') => {
                    self.string()?;
                }
                Some(b't' | b'f') => {
                    self.bool()?;
                }
                Some(b'n') => self.literal("null")?,
                _ => {
                    self.f64()?;
                }
            }
            // A value ended: close the containers it completes.
            loop {
                let Some(&object) = open.last() else {
                    return Ok(());
                };
                if self.more(if object { b'}' } else { b']' }, "JSON")? {
                    if object {
                        self.string()?;
                        self.expect(b':')?;
                    }
                    break;
                }
                open.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader(text: &str) -> Reader<&[u8]> {
        Reader::new(text.as_bytes())
    }

    #[test]
    fn scalars_are_typed_and_exact() {
        let big = (1u64 << 60) + 12345;
        let text = format!(" {big} -1.5e-3 true null \"a\\\"b\\\\c\" ");
        let mut r = reader(&text);
        assert_eq!(r.uint::<u64>().unwrap(), big);
        assert_eq!(r.f64().unwrap(), -1.5e-3);
        assert!(r.bool().unwrap());
        assert_eq!(r.opt(Reader::f64).unwrap(), None);
        assert_eq!(r.string().unwrap(), "a\"b\\c");
        r.end().unwrap();
        for bad in ["1e999", "-1e999", "NaN", "inf", "\"1\""] {
            assert!(reader(bad).f64().is_err(), "{bad}");
        }
        for bad in ["1.5", "-1", "1e3", "18446744073709551616"] {
            assert!(reader(bad).uint::<u64>().is_err(), "{bad}");
        }
        assert!(reader("4294967296").uint::<u32>().is_err());
    }

    #[test]
    fn skip_value_reports_the_value_span() {
        let text = "{\"a\": [1, {\"b\": null}, \"]}\"], \"c\": {}} tail";
        let mut r = reader(text);
        r.skip_value().unwrap();
        assert_eq!(r.offset(), text.len() - " tail".len());
        assert_eq!(r.end().unwrap_err().offset, text.len() - "tail".len());
        for bad in [
            "[1,]",
            "{\"a\" 1}",
            "[1 2]",
            "{1: 2}",
            "[}",
            "tru",
            "\"open",
        ] {
            assert!(reader(bad).skip_value().is_err(), "{bad}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        let err = reader(&deep).skip_value().unwrap_err();
        assert!(err.message.contains("nesting is too deep"), "{err}");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        reader(&ok).skip_value().unwrap();
    }

    #[test]
    fn objects_reject_unknown_duplicate_and_missing_fields() {
        const FIELDS: [&str; 2] = ["x", "y"];
        let read = |text: &str| {
            let mut r = reader(text);
            let seen = r.object("point", &FIELDS, |r, _| r.f64().map(drop))?;
            r.check_fields("point", &FIELDS, seen, &FIELDS)
        };
        read("{\"y\": 1, \"x\": 2}").unwrap();
        for (text, needle) in [
            ("{\"x\": 1, \"z\": 2}", "unknown point field \"z\""),
            ("{\"x\": 1, \"x\": 2}", "duplicate point field \"x\""),
            ("{\"y\": 1}", "missing point field \"x\""),
            ("{\"x\": 1 \"y\": 2}", "expected ',' or '}' in point object"),
        ] {
            let err = read(text).unwrap_err().to_string();
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn long_tokens_are_capped() {
        let long = format!("\"{}\"", "a".repeat(MAX_TOKEN + 1));
        assert!(reader(&long).string().is_err());
        let digits = "1".repeat(MAX_TOKEN + 1);
        assert!(reader(&digits).f64().is_err());
    }

    #[test]
    fn offsets_count_across_buffer_refills() {
        let text = format!("{}x", " ".repeat(3 * BUFFER_LEN + 5));
        let err = reader(&text).expect(b'{').unwrap_err();
        assert_eq!(err.offset, 3 * BUFFER_LEN + 5);
    }
}
