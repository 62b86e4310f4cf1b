//! Wire encoding of the brokering protocol payloads, and the one way this
//! workspace reads bytes it did not produce.
//!
//! DEPLOYMENT.md, *Frames*, is the home of the layouts: the query, the
//! inform (one dispatch record), the flood (a counted run of dispatch
//! records), the handshake and the frame envelope. The record's own 36
//! bytes are written and read in one place,
//! [`DispatchRecord::to_wire`]/[`DispatchRecord::from_wire`]; everything
//! here that carries a record calls that pair.
//!
//! The discrete-event simulator only needs the *sizes* (they feed the SOAP
//! marshalling cost); the thread and socket runtimes ship the actual
//! bytes. A compact little-endian framing stands in for the paper's SOAP
//! envelope; we keep a constant `SOAP_OVERHEAD_FACTOR` to account for XML
//! bloat when converting to marshalling cost.
//!
//! Every decoder of socket or disk bytes — here, in `clusterd::proto`, in
//! `dpnode`'s snapshot and in `dpstore::file` — reads through [`Reader`]
//! and fails with [`GridError::Malformed`].

use bytes::{BufMut, Bytes, BytesMut};
use gruber_types::{ClientId, DispatchRecord, DpId, GridError, JobId};

/// XML/SOAP inflates payloads ~8× over our binary framing; marshalling cost
/// is charged on the inflated size.
pub(crate) const SOAP_OVERHEAD_FACTOR: f64 = 8.0;

/// `perf/src/kernels.rs` (frozen) still names the record by this alias; ROADMAP item 4(a) drops it.
pub type DispatchDelta = DispatchRecord;

/// A bounds-checked cursor over bytes from a socket or a disk. Every read
/// either yields its value and advances or fails with
/// [`GridError::Malformed`] naming the payload; nothing indexes, nothing
/// panics, and a count is believed only as far as the bytes behind it go.
#[derive(Debug)]
pub struct Reader<'a> {
    what: &'static str,
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`; `what` names the payload in errors.
    pub fn new(what: &'static str, bytes: &'a [u8]) -> Self {
        Reader { what, rest: bytes }
    }

    /// A [`GridError::Malformed`] for this payload: for what a decoder
    /// finds wrong in bytes that were all there (a bad magic, an unknown
    /// kind).
    pub fn malformed(&self, why: impl Into<String>) -> GridError {
        GridError::Malformed {
            what: self.what,
            why: why.into(),
        }
    }

    fn short(&self, want: usize) -> GridError {
        self.malformed(format!("want {want} bytes, have {}", self.rest.len()))
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], GridError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or_else(|| self.short(n))?;
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], GridError> {
        let (head, rest) = self.rest.split_first_chunk().ok_or_else(|| self.short(N))?;
        self.rest = rest;
        Ok(*head)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, GridError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// The next little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, GridError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, GridError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, GridError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// The next dispatch record.
    pub fn record(&mut self) -> Result<DispatchRecord, GridError> {
        Ok(DispatchRecord::from_wire(&self.array()?))
    }

    /// A `u32` entry count. The count is the sender's claim: it is held
    /// against the bytes that actually arrived — `min_entry_len` (nonzero)
    /// for each entry at least — before anyone reserves for it.
    pub fn count(&mut self, min_entry_len: usize) -> Result<usize, GridError> {
        let n = self.u32()? as usize;
        if n > self.rest.len() / min_entry_len {
            return Err(self.malformed(format!(
                "{n} entries claimed in {} bytes",
                self.rest.len()
            )));
        }
        Ok(n)
    }

    /// Ends the read; bytes left over are an error.
    pub fn finish(self) -> Result<(), GridError> {
        if !self.rest.is_empty() {
            return Err(self.malformed(format!("{} trailing bytes", self.rest.len())));
        }
        Ok(())
    }
}

/// Encodes a sync payload: a `u32` count, then that many dispatch records.
pub fn encode_deltas<'a, I>(records: I) -> Bytes
where
    I: IntoIterator<Item = &'a DispatchRecord, IntoIter: ExactSizeIterator>,
{
    let records = records.into_iter();
    let mut buf = BytesMut::with_capacity(4 + records.len() * DispatchRecord::WIRE_LEN);
    buf.put_u32_le(records.len() as u32);
    for r in records {
        buf.put_slice(&r.to_wire());
    }
    buf.freeze()
}

/// A sync payload built one record at a time: its bytes are always the
/// [`encode_deltas`] payload of the records pushed so far, so a flood is
/// the log itself — [`DeltaLog::take`] hands the buffer over without a
/// copy.
#[derive(Debug, Clone)]
pub struct DeltaLog {
    buf: Vec<u8>,
}

impl Default for DeltaLog {
    fn default() -> Self {
        DeltaLog {
            buf: 0u32.to_le_bytes().to_vec(),
        }
    }
}

impl DeltaLog {
    /// Records pushed since the last take.
    pub fn len(&self) -> usize {
        (self.buf.len() - 4) / DispatchRecord::WIRE_LEN
    }

    /// Whether nothing was pushed since the last take.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one record.
    pub fn push(&mut self, record: &DispatchRecord) {
        self.buf.extend_from_slice(&record.to_wire());
        let count = (self.len() as u32).to_le_bytes();
        self.buf[..4].copy_from_slice(&count);
    }

    /// The payload so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The payload, leaving the log empty.
    pub fn take(&mut self) -> Bytes {
        Bytes::from(std::mem::take(self).buf)
    }
}

/// Decodes a sync payload.
pub fn decode_deltas(buf: Bytes) -> Result<Vec<DispatchRecord>, GridError> {
    Ok(iter_deltas(buf.as_ref())?.collect())
}

/// Walks a sync payload's records without collecting them: the count is
/// checked against the payload's length once, here, and each record is
/// then read from its own 36-byte window. Errors are [`decode_deltas`]'s —
/// a short header, or a body shorter than the header's count says;
/// trailing bytes are ignored.
pub fn iter_deltas(
    payload: &[u8],
) -> Result<impl ExactSizeIterator<Item = DispatchRecord> + '_, GridError> {
    let mut r = Reader::new("deltas", payload);
    let n = r.count(DispatchRecord::WIRE_LEN)?;
    let (records, _) = r
        .take(n * DispatchRecord::WIRE_LEN)?
        .as_chunks::<{ DispatchRecord::WIRE_LEN }>();
    Ok(records.iter().map(DispatchRecord::from_wire))
}

/// The availability-query request a client sends a decision point: who is
/// asking, for which job, and how many CPUs it wants. Small and
/// fixed-size — the *response* is the heavy payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRequest {
    /// The querying client.
    pub client: ClientId,
    /// The job awaiting placement.
    pub job: JobId,
    /// CPUs the job occupies.
    pub cpus: u32,
}

/// Encodes a query request (12 bytes, little-endian).
pub fn encode_query(q: &QueryRequest) -> Bytes {
    let mut buf = BytesMut::with_capacity(12);
    buf.put_u32_le(q.client.0);
    buf.put_u32_le(q.job.0);
    buf.put_u32_le(q.cpus);
    buf.freeze()
}

/// Decodes a query request. Truncated payloads error.
pub fn decode_query(buf: Bytes) -> Result<QueryRequest, GridError> {
    let mut r = Reader::new("query", buf.as_ref());
    Ok(QueryRequest {
        client: ClientId(r.u32()?),
        job: JobId(r.u32()?),
        cpus: r.u32()?,
    })
}

/// Encodes an inform payload — the single dispatch record a client
/// reports back after placing its job (36 bytes, no count header).
pub fn encode_inform(record: &DispatchRecord) -> Bytes {
    Bytes::copy_from_slice(&record.to_wire())
}

/// Decodes an inform payload. Truncated payloads error.
pub fn decode_inform(buf: Bytes) -> Result<DispatchRecord, GridError> {
    Reader::new("inform", buf.as_ref()).record()
}

// ---------------------------------------------------------------------------
// Socket transport framing (the `clusterd` runtime)
// ---------------------------------------------------------------------------

/// Magic prefix of every socket handshake (`b"DGRB"` little-endian) — a
/// stray connection speaking anything else is rejected before it can
/// inject frames.
pub const WIRE_MAGIC: u32 = u32::from_le_bytes(*b"DGRB");

/// Wire protocol version carried in the handshake. Bump on any breaking
/// change to the frame layout or payload encodings above; acceptors drop
/// connections whose version differs (no negotiation — a DI-GRUBER
/// deployment upgrades in lockstep).
pub const WIRE_VERSION: u16 = 1;

/// What kind of peer is on the far end of a socket, declared in the
/// handshake. Decision points exchange floods; clients issue queries,
/// informs and control frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerKind {
    /// Another decision point (flood traffic only).
    Dp,
    /// A client / operator connection (queries, informs, control).
    Client,
}

/// The fixed 12-byte handshake each side writes as its first bytes on a
/// fresh connection: magic, version, peer kind, and the sender's
/// decision-point id (clients send their own id space; it is
/// informational there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version the sender speaks.
    pub version: u16,
    /// What the sender is.
    pub kind: PeerKind,
    /// The sender's decision-point id (or a client-chosen id).
    pub dp: DpId,
}

impl Hello {
    /// Size of the encoded handshake on the wire.
    pub const WIRE_LEN: usize = 12;
}

/// Encodes a handshake (12 bytes, little-endian).
pub fn encode_hello(h: &Hello) -> Bytes {
    let mut buf = BytesMut::with_capacity(Hello::WIRE_LEN);
    buf.put_u32_le(WIRE_MAGIC);
    buf.put_u16_le(h.version);
    buf.put_u8(match h.kind {
        PeerKind::Dp => 0,
        PeerKind::Client => 1,
    });
    buf.put_u8(0); // reserved
    buf.put_u32_le(h.dp.0);
    buf.freeze()
}

/// Decodes a handshake. Rejects short reads, a wrong magic, and unknown
/// peer kinds; the *version* is returned as-is — whether to accept a
/// mismatched version is the caller's policy (the `clusterd` acceptor
/// drops the connection).
pub fn decode_hello(buf: Bytes) -> Result<Hello, GridError> {
    let mut r = Reader::new("hello", buf.as_ref());
    let magic = r.u32()?;
    if magic != WIRE_MAGIC {
        return Err(r.malformed(format!("bad magic {magic:#010x}")));
    }
    let version = r.u16()?;
    let kind = match r.u8()? {
        0 => PeerKind::Dp,
        1 => PeerKind::Client,
        k => return Err(r.malformed(format!("unknown peer kind {k}"))),
    };
    let _reserved = r.u8()?;
    Ok(Hello {
        version,
        kind,
        dp: DpId(r.u32()?),
    })
}

/// Hard ceiling on one frame's body (kind byte + payload). A length
/// header above this is a protocol violation (or garbage from a
/// non-protocol peer), not a frame we have yet to receive — the
/// connection is dropped. 1 MiB fits a ~29k-record flood, far beyond any
/// exchange interval's drain.
pub const MAX_FRAME_BODY: usize = 1 << 20;

/// Encodes one socket frame: `[u32 body_len][u8 kind][payload]`,
/// little-endian. The body length covers the kind byte.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(5 + payload.len());
    buf.put_u32_le(1 + payload.len() as u32);
    buf.put_u8(kind);
    buf.put_slice(payload);
    buf.freeze()
}

/// Reassembles length-prefixed frames from an arbitrary byte stream —
/// TCP gives no message boundaries, so readers feed whatever `read`
/// returned into [`FrameBuf::extend`] and pop whole frames out of
/// [`FrameBuf::next_frame`]. A frame split across any number of reads
/// reassembles byte-identically; a malformed length header errors and
/// the caller must drop the connection (the stream has lost sync).
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuf {
    /// An empty reassembly buffer.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Appends bytes read from the stream.
    pub fn extend(&mut self, chunk: &[u8]) {
        // Compact the consumed prefix before growing, so the buffer
        // tracks the largest in-flight frame, not the whole history.
        if self.start > 0 && (self.start >= 4096 || self.start == self.buf.len()) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Pops the next complete frame as `(kind, payload)`, `Ok(None)` when
    /// more bytes are needed. `Err` means the stream is not speaking the
    /// protocol (zero or oversized length header) and must be dropped.
    pub fn next_frame(&mut self) -> Result<Option<(u8, Bytes)>, GridError> {
        // A short buffer is a frame still arriving, not a malformed one.
        let Some((head, rest)) = self.buf[self.start..].split_first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*head) as usize;
        if len == 0 || len > MAX_FRAME_BODY {
            return Err(GridError::Malformed {
                what: "frame",
                why: format!("invalid body length {len}"),
            });
        }
        // `len >= 1`: a body that is all here always has its kind byte.
        let Some((&kind, payload)) = rest.get(..len).and_then(<[u8]>::split_first) else {
            return Ok(None);
        };
        let payload = Bytes::copy_from_slice(payload);
        self.start += 4 + len;
        Ok(Some((kind, payload)))
    }
}

/// The on-the-wire size, in KB, of an availability response for `n_sites`
/// sites, after SOAP inflation — the number fed to the marshalling model.
pub fn availability_payload_kb(n_sites: usize) -> f64 {
    // 16 bytes a site: its id, total CPUs, believed-busy CPUs and queued jobs, each a `u32`.
    (4.0 + n_sites as f64 * 16.0) * SOAP_OVERHEAD_FACTOR / 1024.0
}

/// The on-the-wire size, in KB, of a sync payload with `n_deltas` records,
/// after SOAP inflation.
pub fn deltas_payload_kb(n_deltas: usize) -> f64 {
    (4.0 + (n_deltas * DispatchRecord::WIRE_LEN) as f64) * SOAP_OVERHEAD_FACTOR / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use gruber_types::{GroupId, SimTime, SiteId, VoId};
    use proptest::prelude::*;

    fn why(e: GridError) -> String {
        match e {
            GridError::Malformed { what: "test", why } => why,
            other => panic!("not a Malformed test error: {other:?}"),
        }
    }

    #[test]
    fn reader_reads_every_width_and_refuses_every_short_read() {
        let bytes: Vec<u8> = (1..=15).collect();
        let mut r = Reader::new("test", &bytes);
        assert_eq!(r.u8().unwrap(), 0x01);
        assert_eq!(r.u16().unwrap(), 0x0302);
        assert_eq!(r.u32().unwrap(), 0x0706_0504);
        assert_eq!(r.u64().unwrap(), 0x0F0E_0D0C_0B0A_0908);
        assert_eq!(r.remaining(), 0);
        r.finish().unwrap();
        // One byte short of each width; a failed read consumes nothing.
        let mut r = Reader::new("test", &bytes[..7]);
        assert_eq!(why(r.u64().unwrap_err()), "want 8 bytes, have 7");
        assert_eq!(why(r.take(8).unwrap_err()), "want 8 bytes, have 7");
        assert_eq!(why(r.record().unwrap_err()), "want 36 bytes, have 7");
        assert_eq!(r.take(4).unwrap(), &[1, 2, 3, 4]);
        assert_eq!(why(r.u32().unwrap_err()), "want 4 bytes, have 3");
        assert_eq!(r.u16().unwrap(), 0x0605);
        assert_eq!(why(r.u16().unwrap_err()), "want 2 bytes, have 1");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(why(r.u8().unwrap_err()), "want 1 bytes, have 0");
        assert!(r.take(0).unwrap().is_empty());
        assert!(r.take(usize::MAX).is_err());
    }

    #[test]
    fn reader_count_is_held_against_the_bytes_behind_it() {
        let claim = |n: u32, tail: usize, entry: usize| {
            let mut bytes = n.to_le_bytes().to_vec();
            bytes.resize(4 + tail, 0);
            Reader::new("test", &bytes).count(entry)
        };
        assert_eq!(claim(0, 0, 36).unwrap(), 0);
        assert_eq!(claim(2, 72, 36).unwrap(), 2);
        assert_eq!(claim(2, 100, 36).unwrap(), 2, "a tail is not an entry");
        assert_eq!(why(claim(3, 107, 36).unwrap_err()), "3 entries claimed in 107 bytes");
        // A count whose byte length overflows is refused like any other.
        assert!(claim(u32::MAX, 4, usize::MAX).is_err());
        assert!(claim(u32::MAX, 64, 1).is_err());
        assert!(Reader::new("test", &[1, 0, 0]).count(1).is_err(), "short header");
    }

    #[test]
    fn reader_finish_refuses_a_tail() {
        let mut r = Reader::new("test", &[9, 8, 7]);
        assert_eq!(r.u8().unwrap(), 9);
        assert_eq!(why(r.finish().unwrap_err()), "2 trailing bytes");
        assert_eq!(
            Reader::new("hello", &[]).malformed("bad magic").to_string(),
            "malformed hello: bad magic"
        );
    }

    /// Flood, inform, WAL frame and snapshot block all carry
    /// `DispatchRecord::to_wire`; this is the flood (encoded whole and
    /// logged record by record) and the inform against bytes written by
    /// hand.
    #[test]
    fn record_payloads_are_pinned_to_the_byte() {
        let rec = DispatchRecord {
            job: JobId(42),
            site: SiteId(7),
            vo: VoId(2),
            group: GroupId(1),
            cpus: 3,
            dispatched_at: SimTime::from_secs(17),
            est_finish: SimTime::from_secs(917),
        };
        let wire: &[u8] = b"\x2a\0\0\0\x07\0\0\0\x02\0\0\0\x01\0\0\0\x03\0\0\0\
                            \x68\x42\0\0\0\0\0\0\x08\xfe\x0d\0\0\0\0\0";
        assert_eq!(encode_inform(&rec).as_ref(), wire);
        assert_eq!(decode_inform(Bytes::copy_from_slice(wire)).unwrap(), rec);
        let flood = [b"\x02\0\0\0", wire, wire].concat();
        assert_eq!(encode_deltas(&[rec, rec]).as_ref(), &flood[..]);
        let mut log = DeltaLog::default();
        log.push(&rec);
        log.push(&rec);
        assert_eq!(log.as_bytes(), &flood[..]);
        let buffer = log.as_bytes().as_ptr();
        assert_eq!(log.take().as_ref().as_ptr(), buffer, "taken without a copy");
        assert_eq!(log.as_bytes(), encode_deltas(&[]).as_ref());
        assert_eq!(decode_deltas(Bytes::from(flood)).unwrap(), vec![rec, rec]);
    }

    #[test]
    fn deltas_roundtrip() {
        let deltas = vec![DispatchRecord {
            job: JobId(42),
            site: SiteId(7),
            vo: VoId(2),
            group: GroupId(1),
            cpus: 3,
            dispatched_at: SimTime::from_secs(17),
            est_finish: SimTime::from_secs(917),
        }];
        let decoded = decode_deltas(encode_deltas(&deltas)).unwrap();
        assert_eq!(decoded, deltas);
    }

    #[test]
    fn empty_payloads_roundtrip() {
        assert!(decode_deltas(encode_deltas(&[])).unwrap().is_empty());
    }

    #[test]
    fn truncated_payloads_error() {
        assert!(decode_deltas(Bytes::from_static(b"\x02\x00\x00\x00")).is_err());
    }

    #[test]
    fn deltas_decode_by_count_not_by_length() {
        let one = DispatchRecord {
            job: JobId(1),
            site: SiteId(2),
            vo: VoId(3),
            group: GroupId(4),
            cpus: 5,
            dispatched_at: SimTime(6),
            est_finish: SimTime(7),
        };
        // Bytes past the counted records are not records.
        let mut padded = encode_deltas(&[one]).to_vec();
        padded.extend_from_slice(&[0xAB; 40]);
        assert_eq!(
            decode_deltas(Bytes::from(padded.clone())).unwrap(),
            vec![one]
        );
        assert_eq!(iter_deltas(&padded).unwrap().len(), 1);
        // A count the body cannot hold is refused before anything is read
        // or reserved.
        padded[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_deltas(Bytes::from(padded)).is_err());
    }

    #[test]
    fn payload_sizing_for_grid3x10() {
        // ~300 sites: the "significant state" a GRUBER query transports.
        let kb = availability_payload_kb(300);
        assert!((30.0..45.0).contains(&kb), "300-site payload {kb} KB");
        // A 3-minute delta batch from a busy DP (~70 ops).
        let kb = deltas_payload_kb(70);
        assert!(kb < 20.0, "delta payload {kb} KB");
    }

    #[test]
    fn hello_roundtrip_and_rejections() {
        let h = Hello {
            version: WIRE_VERSION,
            kind: PeerKind::Dp,
            dp: DpId(7),
        };
        let bytes = encode_hello(&h);
        assert_eq!(bytes.len(), Hello::WIRE_LEN);
        assert_eq!(decode_hello(bytes.clone()).unwrap(), h);
        // A future version decodes (the *caller* rejects it).
        let hv = Hello {
            version: 99,
            ..h
        };
        assert_eq!(decode_hello(encode_hello(&hv)).unwrap().version, 99);
        // Wrong magic, unknown kind, and truncation all error.
        let mut bad = bytes.to_vec();
        bad[0] ^= 0xFF;
        assert!(decode_hello(Bytes::from(bad)).is_err());
        let mut bad = bytes.to_vec();
        bad[6] = 9;
        assert!(decode_hello(Bytes::from(bad)).is_err());
        for cut in 0..Hello::WIRE_LEN {
            assert!(decode_hello(bytes.slice(0..cut)).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn frame_buf_rejects_zero_and_oversized_lengths() {
        let mut fb = FrameBuf::new();
        fb.extend(&0u32.to_le_bytes());
        assert!(fb.next_frame().is_err(), "zero length must error");
        let mut fb = FrameBuf::new();
        fb.extend(&((MAX_FRAME_BODY as u32) + 1).to_le_bytes());
        assert!(fb.next_frame().is_err(), "oversized length must error");
    }

    #[test]
    fn frame_buf_interleaves_partial_and_whole_frames() {
        let a = encode_frame(3, b"hello");
        let b = encode_frame(7, &[]);
        let mut fb = FrameBuf::new();
        // Feed a byte at a time: no frame until the last byte lands.
        for (i, byte) in a.as_ref().iter().enumerate() {
            assert!(fb.next_frame().unwrap().is_none(), "early frame at {i}");
            fb.extend(&[*byte]);
        }
        let (kind, payload) = fb.next_frame().unwrap().expect("frame complete");
        assert_eq!((kind, payload.as_ref()), (3, &b"hello"[..]));
        // Two frames in one read pop out in order.
        let mut both = b.to_vec();
        both.extend_from_slice(a.as_ref());
        fb.extend(&both);
        assert_eq!(fb.next_frame().unwrap().unwrap().0, 7);
        assert_eq!(fb.next_frame().unwrap().unwrap().1.as_ref(), b"hello");
        assert!(fb.next_frame().unwrap().is_none());
        assert_eq!(fb.start, fb.buf.len(), "every byte consumed");
    }

    proptest! {
        /// Any sequence of frames survives any chunking of the byte
        /// stream: TCP segment boundaries cannot corrupt or reorder the
        /// reassembled frames.
        #[test]
        fn frames_reassemble_under_any_chunking(
            frames in proptest::collection::vec(
                (0u8..16, proptest::collection::vec(0u8..=255, 0..80)), 1..12),
            chunk in 1usize..64,
        ) {
            let mut stream = Vec::new();
            for (kind, payload) in &frames {
                stream.extend_from_slice(encode_frame(*kind, payload).as_ref());
            }
            let mut fb = FrameBuf::new();
            let mut got: Vec<(u8, Vec<u8>)> = Vec::new();
            for part in stream.chunks(chunk) {
                fb.extend(part);
                while let Some((kind, payload)) = fb.next_frame().unwrap() {
                    got.push((kind, payload.to_vec()));
                }
            }
            prop_assert_eq!(got, frames);
            prop_assert_eq!(fb.start, fb.buf.len());
        }

        #[test]
        fn deltas_roundtrip_any(deltas in proptest::collection::vec(
            (0u32..10_000, 0u32..100, 0u32..100, 1u32..64, 0u64..10_000_000), 0..200)
        ) {
            let deltas: Vec<DispatchRecord> = deltas
                .into_iter()
                .enumerate()
                .map(|(i, (s, v, g, c, t))| DispatchRecord {
                    job: JobId(i as u32),
                    site: SiteId(s),
                    vo: VoId(v),
                    group: GroupId(g),
                    cpus: c,
                    dispatched_at: SimTime(t),
                    est_finish: SimTime(t + 1000),
                })
                .collect();
            let decoded = decode_deltas(encode_deltas(&deltas)).unwrap();
            prop_assert_eq!(decoded, deltas);
        }

        #[test]
        fn queries_roundtrip_any(client in 0u32..1_000_000, job in 0u32..u32::MAX, cpus in 0u32..100_000) {
            let q = QueryRequest {
                client: ClientId(client),
                job: JobId(job),
                cpus,
            };
            prop_assert_eq!(decode_query(encode_query(&q)).unwrap(), q);
        }

        #[test]
        fn informs_roundtrip_any(
            (job, site, vo, group, cpus) in (0u32..u32::MAX, 0u32..10_000, 0u32..100, 0u32..100, 1u32..64),
            t in 0u64..10_000_000,
        ) {
            let d = DispatchRecord {
                job: JobId(job),
                site: SiteId(site),
                vo: VoId(vo),
                group: GroupId(group),
                cpus,
                dispatched_at: SimTime(t),
                est_finish: SimTime(t + 60_000),
            };
            prop_assert_eq!(decode_inform(encode_inform(&d)).unwrap(), d);
        }

        // Reject-on-truncation, pinned for every payload kind: ANY strict
        // prefix of a valid encoding must error — never decode to a
        // short/garbled value. (The length header makes every cut either
        // header-short or body-short.)
        #[test]
        fn truncated_deltas_never_decode(n in 1usize..20, cut_frac in 0.0f64..1.0) {
            let deltas: Vec<DispatchRecord> = (0..n as u32)
                .map(|i| DispatchRecord {
                    job: JobId(i),
                    site: SiteId(i),
                    vo: VoId(0),
                    group: GroupId(0),
                    cpus: 1,
                    dispatched_at: SimTime(u64::from(i)),
                    est_finish: SimTime(u64::from(i) + 1),
                })
                .collect();
            let full = encode_deltas(&deltas);
            let cut = ((full.len() as f64 - 1.0) * cut_frac) as usize;
            prop_assert!(decode_deltas(full.slice(0..cut)).is_err(), "cut {} of {}", cut, full.len());
        }

        #[test]
        fn truncated_query_and_inform_never_decode(cut_q in 0usize..12, cut_i in 0usize..36) {
            let q = encode_query(&QueryRequest {
                client: ClientId(1),
                job: JobId(2),
                cpus: 3,
            });
            prop_assert!(decode_query(q.slice(0..cut_q)).is_err());
            let d = encode_inform(&DispatchRecord {
                job: JobId(1),
                site: SiteId(2),
                vo: VoId(0),
                group: GroupId(0),
                cpus: 1,
                dispatched_at: SimTime(5),
                est_finish: SimTime(6),
            });
            prop_assert!(decode_inform(d.slice(0..cut_i)).is_err());
        }
    }
}
