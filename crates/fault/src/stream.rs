//! The `io.*` fault points, and a wrapper that applies them to any
//! byte stream.
//!
//! [`FaultPlan::read`] and [`FaultPlan::write`] are the one place the
//! `io.read.*`/`io.write.*` rules live: each makes one transport call
//! misbehave on the plan's schedule — stall for a bounded duration,
//! fail with [`ErrorKind::Interrupted`] or [`ErrorKind::WouldBlock`],
//! or come back short. [`FaultStream`] wraps a `Read`/`Write` pair in
//! them; the daemon's event loop calls them on its nonblocking
//! sockets, which it cannot wrap. Everything a real TCP stream can do
//! on a bad day, on demand and reproducibly — which is exactly what a
//! resumable frame decoder has to shrug off.

use std::io::{self, ErrorKind, Read, Write};
use std::thread;

use crate::{
    FaultPlan, IO_READ_ERR, IO_READ_SHORT, IO_READ_STALL, IO_WRITE_ERR, IO_WRITE_SHORT,
    IO_WRITE_STALL,
};

impl FaultPlan {
    /// One `read` of `reader` into `buf` under the `io.read.*` points,
    /// checked in the order stall, err, short. `flip` is the stream's
    /// own toggle: it alternates the injected error between
    /// `Interrupted` (which robust readers retry internally) and
    /// `WouldBlock` (which resumable readers must surface without
    /// losing partial frames).
    ///
    /// # Errors
    ///
    /// The injected error, or whatever `reader` returns.
    pub fn read(
        &self,
        flip: &mut bool,
        reader: &mut impl Read,
        buf: &mut [u8],
    ) -> io::Result<usize> {
        if self.fires(IO_READ_STALL) {
            thread::sleep(self.stall());
        }
        if self.fires(IO_READ_ERR) {
            *flip = !*flip;
            let kind = if *flip {
                ErrorKind::Interrupted
            } else {
                ErrorKind::WouldBlock
            };
            return Err(io::Error::new(kind, "injected fault: io.read.err"));
        }
        let want = if self.fires(IO_READ_SHORT) {
            buf.len().min(1)
        } else {
            buf.len()
        };
        reader.read(&mut buf[..want])
    }

    /// One `write` of `buf` to `writer` under the `io.write.*` points,
    /// checked in the order stall, err, short. The injected error is
    /// `Interrupted`, which `write_all` retries.
    ///
    /// # Errors
    ///
    /// The injected error, or whatever `writer` returns.
    pub fn write(&self, writer: &mut impl Write, buf: &[u8]) -> io::Result<usize> {
        if self.fires(IO_WRITE_STALL) {
            thread::sleep(self.stall());
        }
        if self.fires(IO_WRITE_ERR) {
            return Err(io::Error::new(
                ErrorKind::Interrupted,
                "injected fault: io.write.err",
            ));
        }
        let want = if self.fires(IO_WRITE_SHORT) {
            buf.len().min(1)
        } else {
            buf.len()
        };
        writer.write(&buf[..want])
    }
}

/// A `Read`/`Write` pair whose operations fail on the plan's schedule.
/// With the disarmed plan it is a transparent pass-through.
pub struct FaultStream<R, W> {
    reader: R,
    writer: W,
    plan: FaultPlan,
    /// This stream's injected-read-error toggle (see [`FaultPlan::read`]).
    flip: bool,
}

impl<R> FaultStream<R, io::Sink> {
    /// Wraps only a reader; writes go to [`io::sink`].
    pub fn reader(reader: R, plan: FaultPlan) -> FaultStream<R, io::Sink> {
        FaultStream::new(reader, io::sink(), plan)
    }
}

impl<R, W> FaultStream<R, W> {
    /// Wraps a reader/writer pair under `plan`.
    pub fn new(reader: R, writer: W, plan: FaultPlan) -> FaultStream<R, W> {
        FaultStream {
            reader,
            writer,
            plan,
            flip: false,
        }
    }

    /// Unwraps the underlying pair.
    pub fn into_inner(self) -> (R, W) {
        (self.reader, self.writer)
    }

    /// The plan driving this stream (shared counters).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl<R: Read, W> Read for FaultStream<R, W> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.plan.read(&mut self.flip, &mut self.reader, buf)
    }
}

impl<R, W: Write> Write for FaultStream<R, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.plan.write(&mut self.writer, buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fault;
    use std::io::Cursor;

    #[test]
    fn passthrough_when_disarmed() {
        let mut s = FaultStream::new(
            Cursor::new(b"hello".to_vec()),
            Vec::new(),
            FaultPlan::none(),
        );
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert_eq!(out, "hello");
        s.write_all(b"world").unwrap();
        assert_eq!(s.into_inner().1, b"world");
    }

    #[test]
    fn short_reads_still_deliver_everything() {
        let plan = FaultPlan::seeded(3).armed(IO_READ_SHORT, Fault::always());
        let mut s = FaultStream::reader(Cursor::new(b"abcdef".to_vec()), plan);
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"abcdef");
        assert!(s.plan().fired(IO_READ_SHORT) >= 6, "one byte per read");
    }

    #[test]
    fn injected_errors_alternate_kinds() {
        let plan = FaultPlan::seeded(9).armed(IO_READ_ERR, Fault::always());
        let mut s = FaultStream::reader(Cursor::new(b"x".to_vec()), plan);
        let mut buf = [0u8; 4];
        let kinds: Vec<ErrorKind> = (0..4)
            .map(|_| s.read(&mut buf).unwrap_err().kind())
            .collect();
        assert!(kinds.contains(&ErrorKind::Interrupted));
        assert!(kinds.contains(&ErrorKind::WouldBlock));
    }

    #[test]
    fn write_faults_are_survivable_by_write_all() {
        // `write_all` retries Interrupted and loops over short writes,
        // so even a heavily faulted stream delivers intact bytes.
        let plan = FaultPlan::seeded(4)
            .armed(IO_WRITE_SHORT, Fault::with_rate(60))
            .armed(IO_WRITE_ERR, Fault::with_rate(30).budget(50));
        let mut s = FaultStream::new(io::empty(), Vec::new(), plan);
        let payload = vec![0xabu8; 4096];
        let mut written = 0usize;
        while written < payload.len() {
            match s.write(&payload[written..]) {
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("unexpected write error: {e}"),
            }
        }
        assert_eq!(s.into_inner().1, payload);
    }
}
