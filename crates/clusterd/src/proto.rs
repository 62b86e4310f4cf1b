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

use bytes::{Buf, BufMut, Bytes, BytesMut};
use gruber_types::{DpId, GridError};

/// Client → DP: availability query ([`simnet::codec::encode_query`]
/// payload; the job id doubles as the reply correlation token).
pub const FRAME_QUERY: u8 = 0;
/// DP → client: availability reply ([`encode_free`] payload).
pub const FRAME_QUERY_REPLY: u8 = 1;
/// Client → DP: dispatch inform ([`simnet::codec::encode_inform`]).
pub const FRAME_INFORM: u8 = 2;
/// DP → DP: flooded dispatch records ([`simnet::codec::encode_deltas`],
/// the exact [`dpnode::FloodPayload`] wire bytes).
pub const FRAME_RECORDS: u8 = 3;
/// Client → DP control: force a sync round now (empty payload). Deployed
/// clusters mostly rely on the in-process ticker; tests and the
/// spawn-local driver clock rounds explicitly for determinism.
pub const FRAME_SYNC: u8 = 4;
/// Client → DP control: install/replace the peer address table
/// ([`encode_peers`]).
pub const FRAME_PEERS: u8 = 5;
/// Client → DP control: request a stats snapshot (empty payload).
pub const FRAME_STATS: u8 = 6;
/// DP → client: stats snapshot reply ([`encode_stats`]).
pub const FRAME_STATS_REPLY: u8 = 7;
/// Client → DP control: crash the process (`exit(9)`, no cleanup) — the
/// fault-injection hook the recovery walkthrough in DEPLOYMENT.md uses.
/// In-process servers (tests) only mark the node down instead.
pub const FRAME_CRASH: u8 = 8;
/// Client → DP control: clean shutdown (flush trace, report stats).
pub const FRAME_SHUTDOWN: u8 = 9;

/// Encodes a query reply: the echoed request job id (correlation token)
/// followed by the believed-free CPU count per site.
pub fn encode_free(token: u32, free: &[u32]) -> Bytes {
    let mut buf = BytesMut::with_capacity(8 + free.len() * 4);
    buf.put_u32_le(token);
    buf.put_u32_le(free.len() as u32);
    for &f in free {
        buf.put_u32_le(f);
    }
    buf.freeze()
}

/// Decodes a query reply into `(token, free)`.
pub fn decode_free(mut buf: Bytes) -> Result<(u32, Vec<u32>), GridError> {
    if buf.remaining() < 8 {
        return Err(GridError::InvalidConfig("free: short header".into()));
    }
    let token = buf.get_u32_le();
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n * 4 {
        return Err(GridError::InvalidConfig(format!(
            "free: want {} bytes, have {}",
            n * 4,
            buf.remaining()
        )));
    }
    let mut free = Vec::with_capacity(n);
    for _ in 0..n {
        free.push(buf.get_u32_le());
    }
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
pub fn decode_peers(mut buf: Bytes) -> Result<Vec<(DpId, String)>, GridError> {
    if buf.remaining() < 4 {
        return Err(GridError::InvalidConfig("peers: short header".into()));
    }
    let n = buf.get_u32_le() as usize;
    // The count is the sender's claim: hold it against the bytes that
    // actually arrived (6 per entry at least) before reserving for it.
    if n > buf.remaining() / 6 {
        return Err(GridError::InvalidConfig(format!(
            "peers: {n} entries claimed in {} bytes",
            buf.remaining()
        )));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if buf.remaining() < 6 {
            return Err(GridError::InvalidConfig("peers: truncated entry".into()));
        }
        let dp = DpId(buf.get_u32_le());
        let len = buf.get_u16_le() as usize;
        if buf.remaining() < len {
            return Err(GridError::InvalidConfig("peers: truncated address".into()));
        }
        let raw: Vec<u8> = (0..len).map(|_| buf.get_u8()).collect();
        let addr = String::from_utf8(raw)
            .map_err(|_| GridError::InvalidConfig("peers: address not UTF-8".into()))?;
        out.push((dp, addr));
    }
    Ok(out)
}

/// The statistics a `STATS` frame carries: the one per-point stats
/// struct of the mailbox runtimes, under the name this crate has always
/// exported it by.
pub use dpstore::DpStats as ClusterDpStats;

/// Wire size of an encoded [`ClusterDpStats`] (14 × u64).
pub const STATS_WIRE_LEN: usize = 14 * 8;

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
pub fn decode_stats(mut buf: Bytes) -> Result<ClusterDpStats, GridError> {
    if buf.remaining() < STATS_WIRE_LEN {
        return Err(GridError::InvalidConfig(format!(
            "stats: want {STATS_WIRE_LEN} bytes, have {}",
            buf.remaining()
        )));
    }
    Ok(ClusterDpStats {
        dp: DpId(buf.get_u64_le() as u32),
        queries: buf.get_u64_le(),
        informs: buf.get_u64_le(),
        sync_rounds: buf.get_u64_le(),
        floods_sent: buf.get_u64_le(),
        records_flooded: buf.get_u64_le(),
        floods_merged: buf.get_u64_le(),
        records_merged: buf.get_u64_le(),
        decode_failures: buf.get_u64_le(),
        crashes: buf.get_u64_le(),
        flood_hash: buf.get_u64_le(),
        recoveries: buf.get_u64_le(),
        wal_records_replayed: buf.get_u64_le(),
        flood_requeues: buf.get_u64_le(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_list_roundtrips() {
        let (token, free) = decode_free(encode_free(77, &[16, 0, 3])).unwrap();
        assert_eq!(token, 77);
        assert_eq!(free, vec![16, 0, 3]);
        assert!(decode_free(Bytes::copy_from_slice(&[1, 2, 3])).is_err());
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
    }
}
