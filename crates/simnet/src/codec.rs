//! Wire encoding of the brokering protocol payloads.
//!
//! Two payloads dominate DI-GRUBER's traffic:
//!
//! * the **availability response** a decision point returns to a site
//!   selector (one entry per site — "the transport of significant state");
//! * the **sync payload** decision points flood to each other every
//!   exchange interval (the recent job-dispatch deltas).
//!
//! The discrete-event simulator only needs the *sizes* (they feed the SOAP
//! marshalling cost); `digruber::live` uses the actual bytes on its
//! channels. A compact little-endian framing stands in for the paper's SOAP
//! envelope; we keep a constant [`SOAP_OVERHEAD_FACTOR`] to account for XML
//! bloat when converting to marshalling cost.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use gruber_types::{ClientId, DpId, GridError, GroupId, JobId, SimTime, SiteId, VoId};

/// XML/SOAP inflates payloads ~8× over our binary framing; marshalling cost
/// is charged on the inflated size.
pub const SOAP_OVERHEAD_FACTOR: f64 = 8.0;

/// A dispatch record flooded between decision points: "the periodic
/// exchange with other decision points of information about recent job
/// dispatch operations". Peers expire records independently using the
/// estimated finish time, so no completion messages are needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchDelta {
    /// The dispatched job (peers use this to de-duplicate floods).
    pub job: JobId,
    /// Site the job was sent to.
    pub site: SiteId,
    /// VO of the job.
    pub vo: VoId,
    /// Group of the job.
    pub group: GroupId,
    /// CPUs the job occupies.
    pub cpus: u32,
    /// When the decision point dispatched the job.
    pub dispatched_at: SimTime,
    /// When the dispatcher estimates the job will finish.
    pub est_finish: SimTime,
}

/// Encodes a sync payload (dispatch records).
pub fn encode_deltas(deltas: &[DispatchDelta]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + deltas.len() * 36);
    buf.put_u32_le(deltas.len() as u32);
    for d in deltas {
        buf.put_u32_le(d.job.0);
        buf.put_u32_le(d.site.0);
        buf.put_u32_le(d.vo.0);
        buf.put_u32_le(d.group.0);
        buf.put_u32_le(d.cpus);
        buf.put_u64_le(d.dispatched_at.as_millis());
        buf.put_u64_le(d.est_finish.as_millis());
    }
    buf.freeze()
}

/// Decodes a sync payload.
pub fn decode_deltas(buf: Bytes) -> Result<Vec<DispatchDelta>, GridError> {
    Ok(iter_deltas(buf.as_ref())?.collect())
}

/// Walks a sync payload's records without collecting them: the length is
/// checked once, here, and each record is then read from its own 36-byte
/// window. Errors are [`decode_deltas`]'s — a short header, or a body
/// shorter than the header's count says; trailing bytes are ignored.
pub fn iter_deltas(
    payload: &[u8],
) -> Result<impl ExactSizeIterator<Item = DispatchDelta> + '_, GridError> {
    let Some((head, body)) = payload.split_first_chunk::<4>() else {
        return Err(GridError::InvalidConfig("deltas: short header".into()));
    };
    let n = u32::from_le_bytes(*head) as usize;
    let Some(records) = n.checked_mul(36).and_then(|len| body.get(..len)) else {
        return Err(GridError::InvalidConfig(format!(
            "deltas: want {} bytes, have {}",
            n as u64 * 36,
            body.len()
        )));
    };
    let u32_at =
        |r: &[u8], at: usize| u32::from_le_bytes(r[at..at + 4].try_into().expect("4 bytes"));
    let u64_at =
        |r: &[u8], at: usize| u64::from_le_bytes(r[at..at + 8].try_into().expect("8 bytes"));
    Ok(records.chunks_exact(36).map(move |r| DispatchDelta {
        job: JobId(u32_at(r, 0)),
        site: SiteId(u32_at(r, 4)),
        vo: VoId(u32_at(r, 8)),
        group: GroupId(u32_at(r, 12)),
        cpus: u32_at(r, 16),
        dispatched_at: SimTime(u64_at(r, 20)),
        est_finish: SimTime(u64_at(r, 28)),
    }))
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
pub fn decode_query(mut buf: Bytes) -> Result<QueryRequest, GridError> {
    if buf.remaining() < 12 {
        return Err(GridError::InvalidConfig(format!(
            "query: want 12 bytes, have {}",
            buf.remaining()
        )));
    }
    Ok(QueryRequest {
        client: ClientId(buf.get_u32_le()),
        job: JobId(buf.get_u32_le()),
        cpus: buf.get_u32_le(),
    })
}

/// Encodes an inform payload — the single dispatch record a client
/// reports back after placing its job (36 bytes, no count header).
pub fn encode_inform(d: &DispatchDelta) -> Bytes {
    let mut buf = BytesMut::with_capacity(36);
    buf.put_u32_le(d.job.0);
    buf.put_u32_le(d.site.0);
    buf.put_u32_le(d.vo.0);
    buf.put_u32_le(d.group.0);
    buf.put_u32_le(d.cpus);
    buf.put_u64_le(d.dispatched_at.as_millis());
    buf.put_u64_le(d.est_finish.as_millis());
    buf.freeze()
}

/// Decodes an inform payload. Truncated payloads error.
pub fn decode_inform(mut buf: Bytes) -> Result<DispatchDelta, GridError> {
    if buf.remaining() < 36 {
        return Err(GridError::InvalidConfig(format!(
            "inform: want 36 bytes, have {}",
            buf.remaining()
        )));
    }
    Ok(DispatchDelta {
        job: JobId(buf.get_u32_le()),
        site: SiteId(buf.get_u32_le()),
        vo: VoId(buf.get_u32_le()),
        group: GroupId(buf.get_u32_le()),
        cpus: buf.get_u32_le(),
        dispatched_at: SimTime(buf.get_u64_le()),
        est_finish: SimTime(buf.get_u64_le()),
    })
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
pub fn decode_hello(mut buf: Bytes) -> Result<Hello, GridError> {
    if buf.remaining() < Hello::WIRE_LEN {
        return Err(GridError::InvalidConfig(format!(
            "hello: want {} bytes, have {}",
            Hello::WIRE_LEN,
            buf.remaining()
        )));
    }
    let magic = buf.get_u32_le();
    if magic != WIRE_MAGIC {
        return Err(GridError::InvalidConfig(format!(
            "hello: bad magic {magic:#010x}"
        )));
    }
    let version = buf.get_u16_le();
    let kind = match buf.get_u8() {
        0 => PeerKind::Dp,
        1 => PeerKind::Client,
        k => {
            return Err(GridError::InvalidConfig(format!(
                "hello: unknown peer kind {k}"
            )))
        }
    };
    let _reserved = buf.get_u8();
    Ok(Hello {
        version,
        kind,
        dp: DpId(buf.get_u32_le()),
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

    /// Bytes currently buffered and not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pops the next complete frame as `(kind, payload)`, `Ok(None)` when
    /// more bytes are needed. `Err` means the stream is not speaking the
    /// protocol (zero or oversized length header) and must be dropped.
    pub fn next_frame(&mut self) -> Result<Option<(u8, Bytes)>, GridError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[0..4].try_into().unwrap()) as usize;
        if len == 0 || len > MAX_FRAME_BODY {
            return Err(GridError::InvalidConfig(format!(
                "frame: invalid body length {len}"
            )));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let kind = avail[4];
        let payload = Bytes::copy_from_slice(&avail[5..4 + len]);
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
    (4.0 + n_deltas as f64 * 36.0) * SOAP_OVERHEAD_FACTOR / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deltas_roundtrip() {
        let deltas = vec![DispatchDelta {
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
        let one = DispatchDelta {
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
        assert_eq!(fb.pending(), 0);
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
            prop_assert_eq!(fb.pending(), 0);
        }

        #[test]
        fn deltas_roundtrip_any(deltas in proptest::collection::vec(
            (0u32..10_000, 0u32..100, 0u32..100, 1u32..64, 0u64..10_000_000), 0..200)
        ) {
            let deltas: Vec<DispatchDelta> = deltas
                .into_iter()
                .enumerate()
                .map(|(i, (s, v, g, c, t))| DispatchDelta {
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
            let d = DispatchDelta {
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
            let deltas: Vec<DispatchDelta> = (0..n as u32)
                .map(|i| DispatchDelta {
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
            let d = encode_inform(&DispatchDelta {
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
