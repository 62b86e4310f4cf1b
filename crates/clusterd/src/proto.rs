//! Frame kinds and control payloads of the socket protocol.
//!
//! The transport layer (`simnet::codec`) defines the handshake and the
//! `[u32 len][u8 kind][payload]` frame envelope; this module assigns the
//! kind numbers and encodes the payloads that exist only on sockets — the
//! query-reply free list, the peer address table, and the end-of-run
//! stats snapshot. Everything that also exists in the other runtimes
//! (informs, floods, queries) reuses the `simnet::codec` payload
//! encodings byte-for-byte, which is what makes the three-way
//! equivalence test's flood hashes comparable at all.

use bytes::{BufMut, Bytes, BytesMut};
use gruber_types::{DpId, GridError};
use simnet::codec::Reader;

/// Client → DP: availability query ([`simnet::codec::encode_query`]
/// payload; the job id doubles as the reply correlation token).
pub const FRAME_QUERY: u8 = 0;
/// DP → client: availability reply (written whole by [`encode_free_frame`]).
pub(crate) const FRAME_QUERY_REPLY: u8 = 1;
/// Client → DP: dispatch inform ([`simnet::codec::encode_inform`]).
pub const FRAME_INFORM: u8 = 2;
/// DP → DP: flooded dispatch records ([`simnet::codec::encode_deltas`],
/// the exact [`dpnode::FloodPayload`] wire bytes).
pub const FRAME_RECORDS: u8 = 3;
/// Client → DP control: force a sync round now (empty payload). Deployed
/// clusters mostly rely on the in-process ticker; tests and the
/// spawn-local driver clock rounds explicitly for determinism.
pub(crate) const FRAME_SYNC: u8 = 4;
/// Client → DP control: install/replace the peer address table
/// ([`encode_peers`]).
pub const FRAME_PEERS: u8 = 5;
/// Client → DP control: request a stats snapshot (empty payload).
pub(crate) const FRAME_STATS: u8 = 6;
/// DP → client: stats snapshot reply ([`encode_stats`]).
pub(crate) const FRAME_STATS_REPLY: u8 = 7;
/// Client → DP control: crash the process (`exit(9)`, no cleanup) — the
/// fault-injection hook the recovery walkthrough in DEPLOYMENT.md uses.
/// In-process servers (tests) only mark the node down instead.
pub(crate) const FRAME_CRASH: u8 = 8;
/// Client → DP control: clean shutdown (flush trace, report stats).
pub(crate) const FRAME_SHUTDOWN: u8 = 9;

/// Encodes a whole query-reply frame, `[len][FRAME_QUERY_REPLY][token][n]
/// [free…]`: the echoed request job id (correlation token), then the
/// believed-free CPU count per site, each a little-endian `u32`, written
/// in one pass over one presized buffer. [`decode_free`] reads its
/// payload, the bytes after the 5-byte frame header.
pub fn encode_free_frame(token: u32, free: &[u32]) -> Bytes {
    let mut buf = vec![0u8; 13 + 4 * free.len()];
    buf[..4].copy_from_slice(&(9 + 4 * free.len() as u32).to_le_bytes());
    buf[4] = FRAME_QUERY_REPLY;
    buf[5..9].copy_from_slice(&token.to_le_bytes());
    buf[9..13].copy_from_slice(&(free.len() as u32).to_le_bytes());
    for (word, f) in buf[13..].chunks_exact_mut(4).zip(free) {
        word.copy_from_slice(&f.to_le_bytes());
    }
    Bytes::from(buf)
}

/// Decodes a query reply into `(token, free)`: the counts are taken as one
/// slice, once the claimed count is held against the bytes behind it.
pub fn decode_free(buf: Bytes) -> Result<(u32, Vec<u32>), GridError> {
    let mut r = Reader::new("free", buf.as_ref());
    let token = r.u32()?;
    let n = r.count(4)?;
    let free = r
        .take(4 * n)?
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
        .collect();
    Ok((token, free))
}

/// Encodes a peer address table: each decision point's id and its
/// `host:port` listen address as UTF-8.
pub fn encode_peers(peers: &[(DpId, String)]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + peers.len() * 24);
    buf.put_u32_le(peers.len() as u32);
    for (dp, addr) in peers {
        buf.put_u32_le(dp.0);
        buf.put_u16_le(addr.len() as u16);
        buf.put_slice(addr.as_bytes());
    }
    buf.freeze()
}

/// Decodes a peer address table.
pub fn decode_peers(buf: Bytes) -> Result<Vec<(DpId, String)>, GridError> {
    let mut r = Reader::new("peers", buf.as_ref());
    // An entry is at least its id and its address length.
    let n = r.count(6)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let dp = DpId(r.u32()?);
        let len = r.u16()? as usize;
        let addr = String::from_utf8(r.take(len)?.to_vec())
            .map_err(|_| r.malformed("address not UTF-8"))?;
        out.push((dp, addr));
    }
    Ok(out)
}

/// The statistics a `STATS` frame carries: the one per-point stats
/// struct of the wall-clock runtimes, under the name this crate has always
/// exported it by.
pub use dpstore::DpStats as ClusterDpStats;

/// Wire size of an encoded [`ClusterDpStats`] (14 × u64).
pub(crate) const STATS_WIRE_LEN: usize = 14 * 8;

/// Encodes a stats snapshot (14 little-endian u64s; the dp id first).
pub fn encode_stats(s: &ClusterDpStats) -> Bytes {
    let mut buf = BytesMut::with_capacity(STATS_WIRE_LEN);
    buf.put_u64_le(u64::from(s.dp.0));
    buf.put_u64_le(s.queries);
    buf.put_u64_le(s.informs);
    buf.put_u64_le(s.sync_rounds);
    buf.put_u64_le(s.floods_sent);
    buf.put_u64_le(s.records_flooded);
    buf.put_u64_le(s.floods_merged);
    buf.put_u64_le(s.records_merged);
    buf.put_u64_le(s.decode_failures);
    buf.put_u64_le(s.crashes);
    buf.put_u64_le(s.flood_hash);
    buf.put_u64_le(s.recoveries);
    buf.put_u64_le(s.wal_records_replayed);
    buf.put_u64_le(s.flood_requeues);
    buf.freeze()
}

/// Decodes a stats snapshot.
pub fn decode_stats(buf: Bytes) -> Result<ClusterDpStats, GridError> {
    let mut r = Reader::new("stats", buf.as_ref());
    let dp = r.u64()?;
    let dp = u32::try_from(dp).map_err(|_| r.malformed(format!("dp id {dp} is no u32")))?;
    Ok(ClusterDpStats {
        dp: DpId(dp),
        queries: r.u64()?,
        informs: r.u64()?,
        sync_rounds: r.u64()?,
        floods_sent: r.u64()?,
        records_flooded: r.u64()?,
        floods_merged: r.u64()?,
        records_merged: r.u64()?,
        decode_failures: r.u64()?,
        crashes: r.u64()?,
        flood_hash: r.u64()?,
        recoveries: r.u64()?,
        wal_records_replayed: r.u64()?,
        flood_requeues: r.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_list_roundtrips() {
        let frame = encode_free_frame(77, &[16, 0, 3]);
        let (token, free) = decode_free(frame.slice(5..frame.len())).unwrap();
        assert_eq!(token, 77);
        assert_eq!(free, vec![16, 0, 3]);
        assert!(decode_free(Bytes::copy_from_slice(&[1, 2, 3])).is_err());
        // A Grid3×10 reply: 300 counts, one of them u32::MAX, written as
        // the frame length, the kind, the token, the count and then each
        // count, little-endian.
        let mut sites: Vec<u32> = (0..300).map(|i| i * 7).collect();
        sites[150] = u32::MAX;
        let frame = encode_free_frame(u32::MAX, &sites);
        let mut want = (1u32 + 8 + 4 * 300).to_le_bytes().to_vec();
        want.push(FRAME_QUERY_REPLY);
        for w in [u32::MAX, 300].iter().chain(&sites) {
            want.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(frame.to_vec(), want);
        let payload = &want[5..];
        assert_eq!(
            decode_free(Bytes::copy_from_slice(payload)).unwrap(),
            (u32::MAX, sites)
        );
        // Every strict prefix of the payload is refused.
        for len in 0..payload.len() {
            let prefix = Bytes::copy_from_slice(&payload[..len]);
            assert!(decode_free(prefix).is_err(), "{len} bytes");
        }
    }

    #[test]
    fn peers_roundtrip() {
        let peers = vec![
            (DpId(0), "127.0.0.1:4000".to_string()),
            (DpId(2), "10.0.0.7:4002".to_string()),
        ];
        assert_eq!(decode_peers(encode_peers(&peers)).unwrap(), peers);
        assert!(decode_peers(Bytes::copy_from_slice(&[9, 0, 0, 0, 1])).is_err());
    }

    #[test]
    fn peers_count_is_held_against_the_payload_before_reserving() {
        // A 4-byte payload claiming u32::MAX entries used to reserve
        // 137 GB and abort the process.
        assert!(decode_peers(Bytes::copy_from_slice(&[0xFF; 4])).is_err());
        // One entry too many for the bytes behind it.
        let mut two = encode_peers(&[(DpId(1), String::new())]).to_vec();
        two[0] = 2;
        assert!(decode_peers(Bytes::from(two)).is_err());
    }

    #[test]
    fn stats_roundtrip() {
        let s = ClusterDpStats {
            dp: DpId(3),
            queries: 1,
            informs: 2,
            sync_rounds: 3,
            floods_sent: 4,
            records_flooded: 5,
            floods_merged: 6,
            records_merged: 7,
            decode_failures: 8,
            crashes: 9,
            flood_hash: 0xDEAD_BEEF_DEAD_BEEF,
            recoveries: 10,
            wal_records_replayed: 11,
            flood_requeues: 12,
        };
        assert_eq!(decode_stats(encode_stats(&s)).unwrap(), s);
        // The id travels as a u64; a claim past u32 used to be truncated.
        let mut wide = encode_stats(&s).to_vec();
        wide[4] = 1;
        assert!(matches!(
            decode_stats(Bytes::from(wide)),
            Err(GridError::Malformed { what: "stats", .. })
        ));
    }
}
