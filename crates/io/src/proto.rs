//! The newline-delimited framed protocol of the `hummingbird serve`
//! daemon.
//!
//! A frame is one header line plus an optional length-prefixed payload:
//!
//! ```text
//! frame   = header LF [ payload LF ]
//! header  = verb *( SP key "=" value ) [ SP "payload=" length ]
//! payload = <length bytes of UTF-8, NUL-free>
//! ```
//!
//! The header is plain text with whitespace-free tokens, so a session
//! can be driven by hand (`printf 'stats\n' | nc ...`); anything that
//! needs spaces or newlines — designs, reports, error messages — rides
//! in the payload, whose byte length is declared up front. Because the
//! payload is length-prefixed, the decoder never scans it, and because
//! the header is line-delimited, a decoder that rejects a malformed
//! header is resynchronised at the next newline and the connection
//! survives.
//!
//! [`FrameDecoder`] is the one decoder: bytes go in as a transport
//! delivers them, so frames split across reads reassemble naturally.
//! The event loop feeds it from nonblocking sockets; [`FrameReader`]
//! is its pull loop over any [`BufRead`], for blocking streams. Hard
//! limits on header and payload size make a hostile peer's worst case
//! a bounded allocation followed by a structured error.

use std::fmt;
use std::io::{self, BufRead, Write};

/// Maximum accepted header-line length in bytes (including newline).
pub const MAX_HEADER: usize = 64 * 1024;
/// Maximum accepted declared payload length in bytes.
pub const MAX_PAYLOAD: usize = 16 * 1024 * 1024;

/// One protocol frame: a verb, `key=value` arguments, and an optional
/// payload for content that does not fit a whitespace-free token.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Frame {
    /// The request or response verb (`load`, `ok`, `error`, ...).
    pub verb: String,
    /// Arguments in transmission order; keys may repeat.
    pub args: Vec<(String, String)>,
    /// Optional free-form body (a design, a report, an error message).
    pub payload: Option<String>,
}

impl Frame {
    /// A frame with the given verb and no arguments.
    pub fn new(verb: impl Into<String>) -> Frame {
        Frame {
            verb: verb.into(),
            args: Vec::new(),
            payload: None,
        }
    }

    /// Appends a `key=value` argument (builder style).
    pub fn arg(mut self, key: impl Into<String>, value: impl fmt::Display) -> Frame {
        self.args.push((key.into(), value.to_string()));
        self
    }

    /// Sets the payload (builder style).
    pub fn with_payload(mut self, payload: impl Into<String>) -> Frame {
        self.payload = Some(payload.into());
        self
    }

    /// The first value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every value of `key`, in order (for repeatable arguments).
    pub fn get_all<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> {
        self.args
            .iter()
            .filter(move |(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Encodes the frame as wire bytes.
    ///
    /// # Panics
    ///
    /// Panics if the verb or any argument token contains whitespace,
    /// `=` in a key, or a NUL — such content belongs in the payload.
    /// (All tokens produced by this codebase are identifiers or
    /// numbers; the assertion catches misrouted content in tests.)
    pub fn encode(&self) -> String {
        assert!(token_ok(&self.verb), "verb is not a bare token");
        let mut out = String::with_capacity(64);
        out.push_str(&self.verb);
        for (k, v) in &self.args {
            assert!(
                token_ok(k) && !k.contains('=') && token_ok(v),
                "argument `{k}` is not a bare token pair"
            );
            out.push(' ');
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        }
        if let Some(p) = &self.payload {
            assert!(!p.contains('\0'), "payload contains NUL");
            out.push_str(&format!(" payload={}", p.len()));
            out.push('\n');
            out.push_str(p);
        }
        out.push('\n');
        out
    }
}

fn token_ok(s: &str) -> bool {
    !s.is_empty() && !s.contains(|c: char| c.is_whitespace() || c == '\0')
}

/// Why a frame could not be decoded.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The header line is syntactically invalid. The stream is still
    /// aligned on a frame boundary; reading may continue.
    Malformed(String),
    /// A declared size exceeds the protocol limit. The remaining
    /// stream position is undefined; the connection should close.
    Oversized {
        /// What overflowed (`header` or `payload`).
        what: &'static str,
        /// The enforced limit in bytes.
        limit: usize,
    },
    /// The frame embeds a NUL byte.
    Nul,
    /// The frame is not valid UTF-8.
    Encoding,
    /// The stream ended inside a frame.
    Truncated,
}

impl ProtoError {
    /// Whether the stream is still aligned on a frame boundary after
    /// this error, i.e. the reader may keep serving the connection.
    pub fn recoverable(&self) -> bool {
        matches!(self, ProtoError::Malformed(_) | ProtoError::Nul)
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "protocol stream error: {e}"),
            ProtoError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            ProtoError::Oversized { what, limit } => {
                write!(f, "frame {what} exceeds {limit} bytes")
            }
            ProtoError::Nul => write!(f, "frame contains a NUL byte"),
            ProtoError::Encoding => write!(f, "frame is not valid UTF-8"),
            ProtoError::Truncated => write!(f, "stream ended inside a frame"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> ProtoError {
        ProtoError::Io(e)
    }
}

/// Writes one frame and flushes the stream.
///
/// # Errors
///
/// Propagates the underlying write or flush failure. On a TCP stream
/// whose peer vanished this surfaces as an ordinary [`io::Error`]
/// (Rust ignores `SIGPIPE`), which a server treats as a disconnect.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(frame.encode().as_bytes())?;
    w.flush()
}

/// Parses one already-delimited, UTF-8-validated, NUL-free header line
/// into a frame plus its declared payload length.
fn parse_header(line: &str) -> Result<(Frame, Option<usize>), ProtoError> {
    let mut tokens = line.split_whitespace();
    let verb = tokens
        .next()
        .ok_or_else(|| ProtoError::Malformed("empty header line".into()))?
        .to_owned();
    let mut frame = Frame::new(verb);
    let mut payload_len: Option<usize> = None;
    for token in tokens {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| ProtoError::Malformed(format!("argument `{token}` lacks `=`")))?;
        if key.is_empty() {
            return Err(ProtoError::Malformed(format!(
                "argument `{token}` lacks a key"
            )));
        }
        if key == "payload" {
            let n: usize = value.parse().map_err(|_| {
                ProtoError::Malformed(format!("payload length `{value}` is not a number"))
            })?;
            if n > MAX_PAYLOAD {
                return Err(ProtoError::Oversized {
                    what: "payload",
                    limit: MAX_PAYLOAD,
                });
            }
            payload_len = Some(n);
        } else {
            frame.args.push((key.to_owned(), value.to_owned()));
        }
    }
    Ok((frame, payload_len))
}

/// A blocking frame reader: a pull loop that feeds a [`FrameDecoder`]
/// from any buffered byte stream until a frame is complete.
///
/// [`io::ErrorKind::Interrupted`] is retried. Any other read error
/// surfaces as [`ProtoError::Io`] while the decoder keeps the partial
/// frame, so an expired read deadline (`WouldBlock`/`TimedOut`) is
/// resumable: the next `read_frame` call picks up the half-read frame
/// where the error left it. [`FrameReader::mid_frame`] tells whether
/// it struck inside a frame (a stalled peer) or between frames (an
/// idle one).
pub struct FrameReader<R> {
    inner: R,
    decoder: FrameDecoder,
}

impl<R: BufRead> FrameReader<R> {
    /// Wraps a buffered stream.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            decoder: FrameDecoder::new(),
        }
    }

    /// Whether the reader holds part of a frame — i.e. the last
    /// [`ProtoError::Io`] struck mid-frame rather than between frames.
    pub fn mid_frame(&self) -> bool {
        self.decoder.mid_frame()
    }

    /// Reads the next frame; `Ok(None)` on a clean end-of-stream (the
    /// previous frame was complete).
    ///
    /// # Errors
    ///
    /// See [`ProtoError`]; [`ProtoError::recoverable`] distinguishes
    /// errors that leave the stream aligned from those that do not.
    /// A [`ProtoError::Io`] loses no decoded bytes: call `read_frame`
    /// again once the stream is readable.
    pub fn read_frame(&mut self) -> Result<Option<Frame>, ProtoError> {
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(Some(frame));
            }
            let chunk = match self.inner.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ProtoError::Io(e)),
            };
            if chunk.is_empty() {
                return self.decoder.finish().map(|()| None);
            }
            let n = chunk.len();
            self.decoder.feed(chunk);
            self.inner.consume(n);
        }
    }
}

/// How much decoded-but-unparsed input a [`FrameDecoder`] will hold
/// before compacting its buffer in place. Purely a memory/throughput
/// trade; correctness is insensitive to it.
const DECODER_COMPACT: usize = 8 * 1024;

/// The incremental *push* decoder for the frame protocol, built for
/// readiness-driven event loops; [`FrameReader`] drives the same
/// decoder from blocking streams.
///
/// Bytes go in via [`FrameDecoder::feed`] whenever the transport has
/// them; [`FrameDecoder::next_frame`] hands back every complete frame
/// already buffered (`Ok(None)` meaning *need more bytes*, never
/// end-of-stream — a push decoder cannot observe EOF; call
/// [`FrameDecoder::finish`] when the transport reports it). Pipelined
/// peers are the design case: one `feed` may carry many back-to-back
/// frames, and `next_frame` drains them without further I/O.
///
/// [`ProtoError::recoverable`] errors leave the buffer aligned on the
/// next frame boundary and decoding may continue; anything else means
/// the connection should close.
///
/// The internal buffer is reused for the life of the decoder and
/// compacted in place, so a connection's steady-state decode cost is
/// zero allocations; [`FrameDecoder::buffer_capacity`] reports the
/// retained bytes for per-connection memory accounting.
#[derive(Default)]
pub struct FrameDecoder {
    /// Fed-but-unconsumed bytes; `start..` is live.
    buf: Vec<u8>,
    start: usize,
    /// How many live bytes (counted from `start`, so compaction leaves
    /// it valid) the header's newline search has already examined: a
    /// header arriving in pieces is scanned once in all, not once per
    /// piece.
    scanned: usize,
    /// Bytes the newline search has examined over the decoder's life.
    #[cfg(test)]
    examined: usize,
    /// A decoded header whose declared payload has not fully arrived.
    awaiting: Option<(Frame, usize)>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends transport bytes to the decode buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes fed but not yet decoded into frames (a partial header, or
    /// the part of an awaited payload that has arrived).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Retained buffer capacity — the decoder's share of a
    /// connection's bounded memory.
    pub fn buffer_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Whether a partially arrived frame is pending — the
    /// distinction between a slow-dripping peer (cut it off at the
    /// frame deadline) and an idle one (reap it at the idle timeout).
    pub fn mid_frame(&self) -> bool {
        self.awaiting.is_some() || self.start < self.buf.len()
    }

    /// Declares end-of-stream.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Truncated`] when the stream ended inside a frame.
    pub fn finish(&self) -> Result<(), ProtoError> {
        if self.mid_frame() {
            Err(ProtoError::Truncated)
        } else {
            Ok(())
        }
    }

    /// Drops the `..start` dead prefix once it dominates the buffer,
    /// and resets cheaply when everything was consumed.
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= DECODER_COMPACT {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Decodes the next complete frame out of the buffer; `Ok(None)`
    /// means more bytes are needed.
    ///
    /// # Errors
    ///
    /// See [`ProtoError`]; recoverable errors ([`ProtoError::Nul`],
    /// [`ProtoError::Malformed`]) consume the offending frame and
    /// leave the buffer aligned, so decoding may continue.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ProtoError> {
        let (mut frame, need) = match self.awaiting.take() {
            Some(awaiting) => awaiting,
            None => match self.next_header()? {
                None => return Ok(None),
                Some((frame, None)) => {
                    self.compact();
                    return Ok(Some(frame));
                }
                Some((frame, Some(need))) => (frame, need),
            },
        };
        // The declared bytes plus the terminating newline.
        let end = self.start + need + 1;
        if self.buf.len() < end {
            self.awaiting = Some((frame, need));
            self.compact();
            return Ok(None);
        }
        // Checked in order: terminator, NUL, UTF-8. The payload is
        // consumed whatever the verdict, so a rejection stays aligned.
        let body = &self.buf[self.start..end - 1];
        let payload = if self.buf[end - 1] != b'\n' {
            Err(ProtoError::Malformed(
                "payload is not newline-terminated at its declared length".into(),
            ))
        } else if body.contains(&b'\0') {
            Err(ProtoError::Nul)
        } else {
            std::str::from_utf8(body)
                .map(str::to_owned)
                .map_err(|_| ProtoError::Encoding)
        };
        self.start = end;
        self.compact();
        frame.payload = Some(payload?);
        Ok(Some(frame))
    }

    /// Takes the next header line off the buffer and parses it into a
    /// frame plus its declared payload length; `Ok(None)` until a
    /// whole line has arrived.
    fn next_header(&mut self) -> Result<Option<(Frame, Option<usize>)>, ProtoError> {
        let live = &self.buf[self.start..];
        let unseen = &live[self.scanned..];
        #[cfg(test)]
        {
            self.examined += unseen.len();
        }
        let newline = unseen
            .iter()
            .position(|&b| b == b'\n')
            .map(|at| self.scanned + at);
        self.scanned = live.len();
        if newline.unwrap_or(live.len()) > MAX_HEADER {
            return Err(ProtoError::Oversized {
                what: "header",
                limit: MAX_HEADER,
            });
        }
        let Some(len) = newline else {
            self.compact();
            return Ok(None);
        };
        // Consume the line (and its newline) before validating: a
        // recoverable rejection must leave the buffer aligned on the
        // next line.
        let header = self.start..self.start + len;
        self.start += len + 1;
        self.scanned = 0;
        let line = std::str::from_utf8(&self.buf[header]).map_err(|_| ProtoError::Encoding)?;
        if line.contains('\0') {
            return Err(ProtoError::Nul);
        }
        parse_header(line).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn decode_all(bytes: &[u8]) -> Result<Vec<Frame>, ProtoError> {
        let mut reader = FrameReader::new(Cursor::new(bytes.to_vec()));
        let mut frames = Vec::new();
        while let Some(f) = reader.read_frame()? {
            frames.push(f);
        }
        Ok(frames)
    }

    #[test]
    fn round_trip_basics() {
        let frames = [
            Frame::new("stats"),
            Frame::new("slack").arg("node", "ff3").arg("pass", 2),
            Frame::new("load")
                .arg("format", "hum")
                .with_payload("design d\nmodule top\nend\ntop top\n"),
            Frame::new("ok").with_payload(""),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let decoded = decode_all(&wire).unwrap();
        assert_eq!(decoded.as_slice(), frames.as_slice());
    }

    #[test]
    fn header_errors_are_classified() {
        assert!(matches!(
            decode_all(b"slack node\n"),
            Err(ProtoError::Malformed(_))
        ));
        assert!(matches!(
            decode_all(b"load payload=abc\n"),
            Err(ProtoError::Malformed(_))
        ));
        assert!(matches!(
            decode_all(b"load payload=99999999999\n"),
            Err(ProtoError::Oversized {
                what: "payload",
                ..
            })
        ));
        assert!(matches!(decode_all(b"st\0ats\n"), Err(ProtoError::Nul)));
        assert!(matches!(decode_all(b"stats"), Err(ProtoError::Truncated)));
        assert!(matches!(
            decode_all(b"load payload=100\nshort\n"),
            Err(ProtoError::Truncated)
        ));
        assert!(matches!(
            decode_all(b"load payload=2\nabcdef\n"),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn malformed_header_leaves_stream_aligned() {
        let mut reader = FrameReader::new(Cursor::new(b"bad arg\nstats\n".to_vec()));
        let err = reader.read_frame().unwrap_err();
        assert!(err.recoverable());
        let next = reader.read_frame().unwrap().unwrap();
        assert_eq!(next.verb, "stats");
        assert!(reader.read_frame().unwrap().is_none());
    }

    /// A reader that yields `WouldBlock` between every real byte —
    /// the worst-case behaviour of a socket with a read deadline.
    struct Choppy {
        data: Vec<u8>,
        at: usize,
        block_next: bool,
    }

    impl std::io::Read for Choppy {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.block_next = !self.block_next;
            if self.block_next {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "not ready"));
            }
            if self.at == self.data.len() {
                return Ok(0);
            }
            buf[0] = self.data[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    #[test]
    fn timeouts_mid_frame_are_resumable() {
        let frames = [
            Frame::new("slack").arg("node", "ff3"),
            Frame::new("load").with_payload("design d\nmodule top\nend\n"),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let choppy = Choppy {
            data: wire,
            at: 0,
            block_next: false,
        };
        // A 1-byte buffer makes every fill_buf hit the raw reader, so
        // WouldBlock strikes mid-header and mid-payload repeatedly.
        let mut reader = FrameReader::new(io::BufReader::with_capacity(1, choppy));
        let mut decoded = Vec::new();
        let mut timeouts = 0usize;
        loop {
            match reader.read_frame() {
                Ok(Some(f)) => decoded.push(f),
                Ok(None) => break,
                Err(ProtoError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => {
                    timeouts += 1;
                    assert!(timeouts < 10_000, "no forward progress");
                }
                Err(e) => panic!("unexpected decode error: {e}"),
            }
        }
        assert_eq!(decoded.as_slice(), frames.as_slice());
        assert!(timeouts > 0, "the choppy reader must have blocked");
        assert!(!reader.mid_frame(), "all frames completed");
    }

    #[test]
    fn mid_frame_reports_partial_progress() {
        let choppy = Choppy {
            data: b"sla".to_vec(), // header fragment, never terminated
            at: 0,
            block_next: false,
        };
        let mut reader = FrameReader::new(io::BufReader::with_capacity(1, choppy));
        assert!(!reader.mid_frame());
        loop {
            match reader.read_frame() {
                Err(ProtoError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => {
                    if reader.mid_frame() {
                        break; // partial header observed and retained
                    }
                }
                Err(ProtoError::Truncated) => panic!("EOF before WouldBlock observation"),
                other => panic!("unexpected result: {other:?}"),
            }
        }
        assert!(reader.mid_frame());
    }

    #[test]
    fn oversized_header_is_rejected() {
        let mut wire = vec![b'a'; MAX_HEADER + 10];
        wire.push(b'\n');
        assert!(matches!(
            decode_all(&wire),
            Err(ProtoError::Oversized { what: "header", .. })
        ));
    }

    /// Runs the push decoder over `bytes` delivered in one feed.
    fn push_decode_all(bytes: &[u8]) -> Result<Vec<Frame>, ProtoError> {
        let mut dec = FrameDecoder::new();
        dec.feed(bytes);
        let mut frames = Vec::new();
        while let Some(f) = dec.next_frame()? {
            frames.push(f);
        }
        dec.finish()?;
        Ok(frames)
    }

    #[test]
    fn decoder_round_trip_matches_reader() {
        let frames = [
            Frame::new("stats"),
            Frame::new("slack").arg("node", "ff3").arg("node", "ff4"),
            Frame::new("load")
                .arg("format", "hum")
                .with_payload("design d\nmodule top\nend\ntop top\n"),
            Frame::new("ok").with_payload(""),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        assert_eq!(
            push_decode_all(&wire).unwrap().as_slice(),
            frames.as_slice()
        );
    }

    #[test]
    fn decoder_pipelined_frames_in_one_feed() {
        // The pipelining case: many back-to-back frames land in one
        // feed and next_frame drains them all without further input.
        let mut wire = Vec::new();
        for i in 0..100 {
            write_frame(&mut wire, &Frame::new("slack").arg("node", format!("n{i}"))).unwrap();
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let mut seen = 0;
        while let Some(f) = dec.next_frame().unwrap() {
            assert_eq!(f.get("node").unwrap(), format!("n{seen}"));
            seen += 1;
        }
        assert_eq!(seen, 100);
        assert!(!dec.mid_frame());
        dec.finish().unwrap();
    }

    #[test]
    fn decoder_needs_more_mid_frame() {
        let wire = Frame::new("load").with_payload("abc").encode();
        let bytes = wire.as_bytes();
        let mut dec = FrameDecoder::new();
        // Every proper prefix must report NeedMore and mid-frame.
        for cut in 1..bytes.len() {
            let mut d = FrameDecoder::new();
            d.feed(&bytes[..cut]);
            assert!(d.next_frame().unwrap().is_none(), "cut at {cut}");
            assert!(d.mid_frame(), "cut at {cut}");
            assert!(matches!(d.finish(), Err(ProtoError::Truncated)));
        }
        dec.feed(bytes);
        assert_eq!(dec.next_frame().unwrap().unwrap().payload.unwrap(), "abc");
    }

    #[test]
    fn decoder_classifies_errors_like_reader() {
        // Each hostile input must produce the same variant from both
        // codecs — the reactor's error replies depend on it.
        let cases: &[&[u8]] = &[
            b"slack node\n",
            b"load payload=abc\n",
            b"load payload=99999999999\n",
            b"st\0ats\n",
            b"load payload=2\nabcdef\n",
            b"\xff\xfe bad utf8\n",
            b"load payload=2\nab\0\n",
        ];
        for wire in cases {
            let blocking = decode_all(wire).unwrap_err();
            let pushed = push_decode_all(wire).unwrap_err();
            assert_eq!(
                std::mem::discriminant(&blocking),
                std::mem::discriminant(&pushed),
                "divergent classification for {:?}: {blocking:?} vs {pushed:?}",
                String::from_utf8_lossy(wire)
            );
        }
    }

    #[test]
    fn decoder_recoverable_error_leaves_buffer_aligned() {
        let mut dec = FrameDecoder::new();
        dec.feed(b"bad arg\nstats\n");
        let err = dec.next_frame().unwrap_err();
        assert!(err.recoverable());
        assert_eq!(dec.next_frame().unwrap().unwrap().verb, "stats");
        assert!(dec.next_frame().unwrap().is_none());
        dec.finish().unwrap();
    }

    #[test]
    fn decoder_rejects_unterminated_oversized_header() {
        // A hostile peer streaming an endless header with no newline
        // must be rejected as soon as the buffer passes the limit,
        // not buffered forever.
        let mut dec = FrameDecoder::new();
        dec.feed(&vec![b'a'; MAX_HEADER + 10]);
        assert!(matches!(
            dec.next_frame(),
            Err(ProtoError::Oversized { what: "header", .. })
        ));
    }

    #[test]
    fn dripped_header_is_searched_once() {
        // A header arriving one byte per read, up to the limit: every
        // byte is examined once, not once per read (which would be
        // quadratic work on the event-loop thread).
        let mut line = vec![b'a'; MAX_HEADER - 1];
        line.push(b'\n');
        let mut dec = FrameDecoder::new();
        for (i, byte) in line.iter().enumerate() {
            dec.feed(std::slice::from_ref(byte));
            let frame = dec.next_frame().unwrap();
            assert_eq!(frame.is_some(), i == line.len() - 1, "byte {i}");
        }
        assert_eq!(dec.examined, line.len());
        assert!(!dec.mid_frame());
        // One byte past the limit is still refused, and only then.
        let mut dec = FrameDecoder::new();
        for _ in 0..MAX_HEADER {
            dec.feed(b"a");
            assert!(dec.next_frame().unwrap().is_none());
        }
        dec.feed(b"a");
        assert!(matches!(
            dec.next_frame(),
            Err(ProtoError::Oversized { what: "header", .. })
        ));
        assert_eq!(dec.examined, MAX_HEADER + 1);
    }

    #[test]
    fn buffered_counts_only_arrived_payload_bytes() {
        let mut dec = FrameDecoder::new();
        dec.feed(b"load payload=10\nabc");
        assert!(dec.next_frame().unwrap().is_none());
        assert_eq!(dec.buffered(), 3, "3 of the 10 payload bytes arrived");
        dec.feed(b"defghij\n");
        assert_eq!(
            dec.next_frame().unwrap().unwrap().payload.unwrap(),
            "abcdefghij"
        );
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_compacts_and_bounds_memory() {
        let wire = Frame::new("slack").arg("node", "n1").encode();
        let mut dec = FrameDecoder::new();
        for _ in 0..10_000 {
            dec.feed(wire.as_bytes());
            assert!(dec.next_frame().unwrap().is_some());
        }
        assert_eq!(dec.buffered(), 0);
        // Fully drained between frames: the buffer resets in place and
        // capacity stays at one frame's worth, not 10k frames'.
        assert!(
            dec.buffer_capacity() < 4 * 1024,
            "decoder retained {} bytes",
            dec.buffer_capacity()
        );
    }
}
