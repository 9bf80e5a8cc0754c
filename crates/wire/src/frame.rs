//! Length-prefixed framing over byte streams.
//!
//! A frame is `[u32 little-endian payload length][payload bytes]`. The
//! prefix is fixed-width (not a varint) so a reader can always pull
//! exactly four bytes to learn the payload size — the property the TCP
//! transport's per-link reader threads rely on.

use std::io::{self, IoSlice, Read, Write};

/// Largest payload a frame may carry (16 MiB).
///
/// Nothing in Whisper comes close — the biggest legitimate messages are
/// SOAP envelopes of a few KiB — so anything larger is treated as a
/// corrupt or hostile stream rather than buffered into memory.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// Writes one frame (length prefix + payload) and flushes.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] when the payload exceeds
/// [`MAX_FRAME_LEN`]; otherwise any I/O error from the writer.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame payload {} exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}",
                payload.len()
            ),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Like [`write_frame`] but submits the length prefix and payload as one
/// vectored write, so an unbuffered socket sees a single syscall (and a
/// single TCP segment for small frames) instead of two.
///
/// Falls back to a partial-write loop when the writer accepts fewer bytes
/// than offered, which plain [`Write::write_vectored`] permits.
///
/// # Errors
///
/// Same conditions as [`write_frame`].
pub fn write_frame_vectored<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame payload {} exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}",
                payload.len()
            ),
        ));
    }
    let prefix = (payload.len() as u32).to_le_bytes();
    let total = prefix.len() + payload.len();
    let mut written = 0;
    while written < total {
        let n = if written < prefix.len() {
            w.write_vectored(&[IoSlice::new(&prefix[written..]), IoSlice::new(payload)])?
        } else {
            w.write(&payload[written - prefix.len()..])?
        };
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "writer accepted zero bytes mid-frame",
            ));
        }
        written += n;
    }
    w.flush()
}

/// Writes several frames (each with its own length prefix) as a single
/// vectored write — the flush path of a batching transport: frames that
/// queued up behind a busy link leave in one `writev` instead of one
/// syscall each.
///
/// The byte stream is identical to calling [`write_frame`] once per
/// payload, so readers need no batching awareness. Falls back to a
/// partial-write loop when the writer accepts fewer bytes than offered.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] when any payload exceeds
/// [`MAX_FRAME_LEN`] (nothing is written); otherwise any I/O error from
/// the writer.
pub fn write_frames_vectored<W: Write>(w: &mut W, payloads: &[&[u8]]) -> io::Result<()> {
    for p in payloads {
        if p.len() > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame payload {} exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}",
                    p.len()
                ),
            ));
        }
    }
    if payloads.is_empty() {
        return w.flush();
    }
    let prefixes: Vec<[u8; 4]> = payloads
        .iter()
        .map(|p| (p.len() as u32).to_le_bytes())
        .collect();
    // The flattened frame sequence: prefix, payload, prefix, payload...
    let part = |i: usize| -> &[u8] {
        if i.is_multiple_of(2) {
            &prefixes[i / 2]
        } else {
            payloads[i / 2]
        }
    };
    let parts = payloads.len() * 2;
    let mut idx = 0; // current part
    let mut off = 0; // bytes of it already written
    while idx < parts {
        let mut slices = Vec::with_capacity(parts - idx);
        slices.push(IoSlice::new(&part(idx)[off..]));
        slices.extend((idx + 1..parts).map(|i| IoSlice::new(part(i))));
        let mut n = w.write_vectored(&slices)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "writer accepted zero bytes mid-batch",
            ));
        }
        while idx < parts && n > 0 {
            let left = part(idx).len() - off;
            if n >= left {
                n -= left;
                idx += 1;
                off = 0;
            } else {
                off += n;
                n = 0;
            }
        }
    }
    w.flush()
}

/// Reads one frame's payload.
///
/// Returns `Ok(None)` on a clean end of stream (EOF before the first
/// prefix byte) — how a transport distinguishes an orderly shutdown from
/// a mid-frame disconnect.
///
/// # Errors
///
/// [`io::ErrorKind::UnexpectedEof`] when the stream ends mid-prefix or
/// mid-payload; [`io::ErrorKind::InvalidData`] when the prefix declares
/// more than [`MAX_FRAME_LEN`] bytes; otherwise any I/O error from the
/// reader.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut payload = Vec::new();
    if read_frame_into(r, &mut payload)? {
        Ok(Some(payload))
    } else {
        Ok(None)
    }
}

/// Buffer-reusing variant of [`read_frame`]: reads one frame's payload
/// into `buf` (cleared and resized to the exact payload length), so a
/// long-lived reader loop amortizes its allocation across frames instead
/// of paying a fresh `Vec` per message.
///
/// Returns `Ok(false)` on a clean end of stream (and leaves `buf` empty),
/// `Ok(true)` when a frame was read.
///
/// # Errors
///
/// Same conditions as [`read_frame`].
pub fn read_frame_into<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<bool> {
    buf.clear();
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..])? {
            0 if filled == 0 => return Ok(false),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}"),
        ));
    }
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"first").unwrap();
        write_frame(&mut stream, b"").unwrap();
        write_frame(&mut stream, b"third message").unwrap();

        let mut r = Cursor::new(stream);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"first");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"third message");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn eof_mid_prefix_and_mid_payload_are_errors() {
        let mut full = Vec::new();
        write_frame(&mut full, b"payload").unwrap();

        let mut r = Cursor::new(&full[..2]);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );

        let mut r = Cursor::new(&full[..6]);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversize_declared_length_is_invalid_data_not_allocation() {
        let prefix = (u32::MAX).to_le_bytes();
        let mut r = Cursor::new(prefix.to_vec());
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn oversize_payload_refused_at_write() {
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        let mut sink = Vec::new();
        assert_eq!(
            write_frame(&mut sink, &big).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert!(sink.is_empty());
        assert_eq!(
            write_frame_vectored(&mut sink, &big).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert!(sink.is_empty());
    }

    #[test]
    fn vectored_write_produces_identical_bytes() {
        for payload in [&b""[..], b"x", b"hello frame", &[0xAB; 4096][..]] {
            let mut plain = Vec::new();
            let mut vectored = Vec::new();
            write_frame(&mut plain, payload).unwrap();
            write_frame_vectored(&mut vectored, payload).unwrap();
            assert_eq!(plain, vectored);
        }
    }

    /// A writer that accepts at most one byte per call, exercising the
    /// partial-write loop in [`write_frame_vectored`].
    struct Trickle(Vec<u8>);
    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            self.0.push(buf[0]);
            Ok(1)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// ...and hands them back one per call, exercising a reader's
    /// partial-read handling the same way.
    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if buf.is_empty() || self.0.is_empty() {
                return Ok(0);
            }
            buf[0] = self.0.remove(0);
            Ok(1)
        }
    }

    #[test]
    fn buffered_reader_decodes_dripped_and_coalesced_streams_alike() {
        // Eight frames in one segment, as a batched flush leaves them: a
        // reader behind a `BufReader` (the TCP transport's) must frame
        // them exactly like an unbuffered one, whether the bytes come all
        // at once or one per `read`.
        let payloads: Vec<Vec<u8>> = (0..8usize).map(|i| vec![i as u8; i * i * 37]).collect();
        let slices: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let mut stream = Vec::new();
        write_frames_vectored(&mut stream, &slices).unwrap();

        fn frames(mut r: impl Read) -> Vec<Vec<u8>> {
            let mut out = Vec::new();
            let mut buf = Vec::new();
            while read_frame_into(&mut r, &mut buf).unwrap() {
                out.push(buf.clone());
            }
            out
        }
        assert_eq!(frames(Cursor::new(stream.clone())), payloads);
        assert_eq!(
            frames(io::BufReader::new(Cursor::new(stream.clone()))),
            payloads
        );
        assert_eq!(
            frames(io::BufReader::new(Trickle(stream.clone()))),
            payloads
        );
        // a buffer smaller than a frame, and than the prefix
        assert_eq!(
            frames(io::BufReader::with_capacity(3, Trickle(stream))),
            payloads
        );
    }

    #[test]
    fn vectored_write_survives_partial_writes() {
        let mut t = Trickle(Vec::new());
        write_frame_vectored(&mut t, b"drip-fed payload").unwrap();
        let mut r = Cursor::new(t.0);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"drip-fed payload");
    }

    #[test]
    fn batched_write_matches_sequential_frames() {
        let payloads: Vec<&[u8]> = vec![b"first", b"", b"third message", &[0xCD; 2048][..]];
        let mut sequential = Vec::new();
        for p in &payloads {
            write_frame(&mut sequential, p).unwrap();
        }
        let mut batched = Vec::new();
        write_frames_vectored(&mut batched, &payloads).unwrap();
        assert_eq!(sequential, batched);

        let mut r = Cursor::new(batched);
        for p in &payloads {
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), *p);
        }
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn batched_write_survives_partial_writes() {
        let mut t = Trickle(Vec::new());
        write_frames_vectored(&mut t, &[b"drip", b"", b"fed batch"]).unwrap();
        let mut r = Cursor::new(t.0);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"drip");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"fed batch");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn batched_write_refuses_any_oversize_payload_atomically() {
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        let mut sink = Vec::new();
        assert_eq!(
            write_frames_vectored(&mut sink, &[b"ok", &big])
                .unwrap_err()
                .kind(),
            io::ErrorKind::InvalidInput
        );
        assert!(sink.is_empty(), "nothing written before the bad frame");
        write_frames_vectored(&mut sink, &[]).unwrap();
        assert!(sink.is_empty(), "empty batch writes nothing");
    }

    #[test]
    fn read_frame_into_reuses_buffer_without_bleed() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"a much longer first frame").unwrap();
        write_frame(&mut stream, b"short").unwrap();
        write_frame(&mut stream, b"").unwrap();

        let mut r = Cursor::new(stream);
        let mut buf = Vec::new();
        assert!(read_frame_into(&mut r, &mut buf).unwrap());
        assert_eq!(buf, b"a much longer first frame");
        // a shorter frame after a longer one must not retain old bytes
        assert!(read_frame_into(&mut r, &mut buf).unwrap());
        assert_eq!(buf, b"short");
        assert!(read_frame_into(&mut r, &mut buf).unwrap());
        assert!(buf.is_empty());
        assert!(!read_frame_into(&mut r, &mut buf).unwrap());
    }
}
