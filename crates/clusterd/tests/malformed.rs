//! One hostile-input property, applied to every decoder of socket or disk
//! bytes in the workspace: `simnet::codec`, `clusterd::proto`, the
//! `dpnode` snapshot and flood payload, and `dpstore::FileStore` opened
//! over a damaged directory. The shape is [`refuses_hostile_input`]; each
//! `proptest!` below is one decoder, its valid sample and where that
//! sample keeps its length and count fields. A second property holds the
//! connection edge (`clusterd::conn`) to the same bytes, whatever cut.
//! The free-list sample is a real reply frame's payload, and one plain
//! test holds that frame to a [`FrameBuf`] round trip.

// `&[0..4]` here is a list of one byte range, not a typo for `0..4`.
#![allow(clippy::single_range_in_vec_init)]

use bytes::Bytes;
use clusterd::{check_hello, pop, request, CloseReason, Role};
use clusterd::{
    decode_free, decode_peers, decode_stats, encode_free_frame, encode_peers, encode_stats,
    ClusterDpStats,
};
use dpnode::{Dissemination, DpNode, FloodPayload, Input, NodeConfig, Topology, WalOp};
use dpstore::{FileStore, NodeMsg, Store, Transport, WireInput};
use gruber_types::{
    ClientId, DispatchRecord, DpId, GridError, GroupId, JobId, SimTime, SiteId, SiteSpec, VoId,
};
use proptest::prelude::*;
use simnet::codec::{
    decode_deltas, decode_hello, decode_inform, decode_query, encode_deltas, encode_frame,
    encode_hello, encode_inform, encode_query, iter_deltas, FrameBuf, Hello, PeerKind,
    QueryRequest, WIRE_VERSION,
};
use std::ops::Range;
use std::path::PathBuf;
use workload::uslas::equal_shares;

/// What a decoder made of some bytes: how many entries its `Ok` holds.
type Decoded = Result<usize, GridError>;

/// The property. `valid` decodes to `entries` entries; `fields` are the
/// byte ranges of its length and count fields; an entry takes at least
/// `min_entry_len` bytes. Then arbitrary bytes, every truncation of
/// `valid`, `valid` with one bit flipped and `valid` with a field inflated
/// (by one, and to all ones) never panic, fail only with
/// [`GridError::Malformed`], and never decode to more entries than the
/// bytes could hold.
fn refuses_hostile_input(
    valid: &[u8],
    entries: usize,
    fields: &[Range<usize>],
    min_entry_len: usize,
    (garbage, flip): (&[u8], usize),
    decode: impl Fn(&[u8]) -> Decoded,
) -> Result<(), TestCaseError> {
    let check = |case: &str, bytes: &[u8]| match decode(bytes) {
        Ok(n) if n <= bytes.len() / min_entry_len => Ok(()),
        Ok(n) => Err(TestCaseError::fail(format!(
            "{case}: {n} entries out of {} bytes",
            bytes.len()
        ))),
        Err(GridError::Malformed { .. }) => Ok(()),
        Err(other) => Err(TestCaseError::fail(format!("{case}: {other:?}"))),
    };
    prop_assert!(
        decode(valid) == Ok(entries),
        "the sample itself must decode"
    );
    check("arbitrary bytes", garbage)?;
    for cut in 0..valid.len() {
        check("truncation", &valid[..cut])?;
    }
    let mut flipped = valid.to_vec();
    let bit = flip % (8 * valid.len());
    flipped[bit / 8] ^= 1 << (bit % 8);
    check("flipped bit", &flipped)?;
    for field in fields {
        let mut plus_one = valid.to_vec();
        for byte in &mut plus_one[field.clone()] {
            *byte = byte.wrapping_add(1);
            if *byte != 0 {
                break;
            }
        }
        check("field plus one", &plus_one)?;
        let mut all_ones = valid.to_vec();
        all_ones[field.clone()].fill(0xFF);
        check("field all ones", &all_ones)?;
    }
    Ok(())
}

fn record(job: u32) -> DispatchRecord {
    DispatchRecord {
        job: JobId(job),
        site: SiteId(job % 4),
        vo: VoId(job % 2),
        group: GroupId(job % 2),
        cpus: 1 + job % 3,
        dispatched_at: SimTime::from_secs(u64::from(job)),
        est_finish: SimTime::from_secs(3_600 + u64::from(job)),
    }
}

fn persisting_node() -> DpNode {
    let sites: Vec<SiteSpec> = (0..4)
        .map(|i| SiteSpec::single_cluster(SiteId(i), 16))
        .collect();
    let cfg = NodeConfig {
        id: DpId(0),
        topology: Topology::FullMesh,
        dissemination: Dissemination::UsageOnly,
        sync_every: None,
        gossip_seed: 7,
        persist: true,
    };
    DpNode::new(cfg, &sites, &equal_shares(2, 2).expect("valid shares"))
}

/// A scratch directory for one test, removed on drop (best effort).
struct TempDir(PathBuf);

impl TempDir {
    fn new(test: &str) -> TempDir {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    /// What a [`FileStore`] recovers from this directory holding only
    /// `bytes` as `file`.
    fn recover(&self, file: &str, bytes: &[u8]) -> dpstore::Recovery {
        std::fs::create_dir_all(&self.0).expect("scratch dir");
        std::fs::write(self.0.join(file), bytes).expect("scratch file");
        FileStore::open(&self.0)
            .expect("open never fails on bad bytes")
            .recover()
    }

    /// The bytes a [`FileStore`] leaves in `file` after `write`.
    fn written(&self, file: &str, write: impl FnOnce(&mut FileStore)) -> Vec<u8> {
        write(&mut FileStore::open(&self.0).expect("open"));
        let bytes = std::fs::read(self.0.join(file)).expect("written file");
        std::fs::remove_dir_all(&self.0).expect("reset scratch dir");
        bytes
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Arbitrary bytes, and which bit of the valid sample to flip.
fn hostile() -> impl Strategy<Value = (Vec<u8>, usize)> {
    (proptest::collection::vec(0u8..=255, 0..300), 0..usize::MAX)
}

proptest! {
    #[test]
    fn deltas((garbage, flip) in hostile()) {
        let records = [record(1), record(2), record(3)];
        let valid = encode_deltas(&records);
        refuses_hostile_input(valid.as_ref(), 3, &[0..4], 36, (&garbage, flip), |b| {
            let walked = iter_deltas(b).map(|records| records.len());
            let collected = decode_deltas(Bytes::copy_from_slice(b)).map(|records| records.len());
            assert_eq!(walked, collected, "the walk and the collect are one decoder");
            collected
        })?;
    }

    /// What a node merges of a flood, which it reads record by record off
    /// the bytes: all of it, or nothing and one decode failure.
    #[test]
    fn flood_payload((garbage, flip) in hostile()) {
        let valid = encode_deltas(&[record(1), record(2)]);
        refuses_hostile_input(valid.as_ref(), 2, &[0..4], 36, (&garbage, flip), |b| {
            let mut node = persisting_node();
            let payload = FloodPayload::from_wire(Bytes::copy_from_slice(b));
            node.handle(SimTime::ZERO, Input::PeerRecords(payload), &mut Vec::new());
            let s = node.stats();
            let decoded = iter_deltas(b).map(|records| records.len());
            let refused = (s.decode_failures, s.floods_merged, s.records_merged) == (1, 0, 0);
            assert_eq!(decoded.is_err(), refused, "{s:?}");
            decoded.map(|_| s.records_merged as usize)
        })?;
    }

    #[test]
    fn inform((garbage, flip) in hostile()) {
        let valid = encode_inform(&record(9));
        refuses_hostile_input(valid.as_ref(), 1, &[], 36, (&garbage, flip), |b| {
            decode_inform(Bytes::copy_from_slice(b)).map(|_| 1)
        })?;
    }

    #[test]
    fn query((garbage, flip) in hostile()) {
        let valid = encode_query(&QueryRequest { client: ClientId(1), job: JobId(2), cpus: 3 });
        refuses_hostile_input(valid.as_ref(), 1, &[], 12, (&garbage, flip), |b| {
            decode_query(Bytes::copy_from_slice(b)).map(|_| 1)
        })?;
    }

    #[test]
    fn hello((garbage, flip) in hostile()) {
        let valid = encode_hello(&Hello { version: WIRE_VERSION, kind: PeerKind::Dp, dp: DpId(3) });
        refuses_hostile_input(valid.as_ref(), 1, &[], Hello::WIRE_LEN, (&garbage, flip), |b| {
            decode_hello(Bytes::copy_from_slice(b)).map(|_| 1)
        })?;
    }

    #[test]
    fn frame_buf((garbage, flip) in hostile()) {
        let valid = [encode_frame(2, b"inform").as_ref(), encode_frame(4, &[]).as_ref()].concat();
        // A frame is its length header and its kind byte at least.
        refuses_hostile_input(&valid, 2, &[0..4, 11..15], 5, (&garbage, flip), |b| {
            let mut fb = FrameBuf::new();
            fb.extend(b);
            let mut frames = 0;
            while fb.next_frame()?.is_some() {
                frames += 1;
            }
            Ok(frames)
        })?;
    }

    #[test]
    fn free_list((garbage, flip) in hostile()) {
        // The payload of a real reply frame, past its 5-byte header.
        let frame = encode_free_frame(77, &[16, 0, 3]);
        refuses_hostile_input(&frame.as_ref()[5..], 3, &[4..8], 4, (&garbage, flip), |b| {
            decode_free(Bytes::copy_from_slice(b)).map(|(_, free)| free.len())
        })?;
    }

    #[test]
    fn peer_table((garbage, flip) in hostile()) {
        let valid = encode_peers(&[(DpId(0), "127.0.0.1:4000".into()), (DpId(2), "h:1".into())]);
        // The count, and the first entry's address length.
        refuses_hostile_input(valid.as_ref(), 2, &[0..4, 8..10], 6, (&garbage, flip), |b| {
            decode_peers(Bytes::copy_from_slice(b)).map(|peers| peers.len())
        })?;
    }

    #[test]
    fn stats((garbage, flip) in hostile()) {
        let valid = encode_stats(&ClusterDpStats {
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
            flood_hash: u64::MAX,
            recoveries: 10,
            wal_records_replayed: 11,
            flood_requeues: 12,
        });
        refuses_hostile_input(valid.as_ref(), 1, &[], 14 * 8, (&garbage, flip), |b| {
            decode_stats(Bytes::copy_from_slice(b)).map(|_| 1)
        })?;
    }

    #[test]
    fn node_snapshot((garbage, flip) in hostile()) {
        let now = SimTime::from_secs(10);
        let mut node = persisting_node();
        let mut out = Vec::new();
        for job in 1..=3 {
            node.handle(now, Input::Inform(record(job)), &mut out);
        }
        let (valid, live) = node.snapshot_encode(now);
        assert_eq!(live, 3);
        // Version byte, 14 counters, then two length-prefixed counted
        // blocks of three records each (all three are still unflooded).
        let block = 4 + 3 * 36;
        let fields = [113..117, 117..121, 117 + block..121 + block, 121 + block..125 + block];
        assert_eq!(valid.len(), 125 + 2 * block - 4);
        refuses_hostile_input(&valid, 3, &fields, 36, (&garbage, flip), |b| {
            persisting_node().snapshot_decode(b, now).map(|restored| restored as usize)
        })?;
    }
}

/// The smallest WAL frame: header, kind, timestamp and a `Drained` body.
const MIN_WAL_FRAME: usize = 8 + 1 + 8 + 16;

proptest! {
    #[test]
    fn wal_file((garbage, flip) in hostile()) {
        let dir = TempDir::new("malformed-wal-file");
        let valid = dir.written("wal.log", |store| {
            store.append(SimTime(1_000), &WalOp::Own(record(1)));
            store.append(SimTime(2_000), &WalOp::Drained { records: 1, peers: 2, flood_hash: 3 });
        });
        refuses_hostile_input(&valid, 2, &[0..4, 53..57], MIN_WAL_FRAME, (&garbage, flip), |b| {
            Ok(dir.recover("wal.log", b).wal.len())
        })?;
    }

    #[test]
    fn snapshot_file((garbage, flip) in hostile()) {
        let dir = TempDir::new("malformed-snapshot-file");
        let valid = dir.written("snapshot.bin", |store| {
            store.write_snapshot(b"any bytes: the node judges them");
        });
        refuses_hostile_input(&valid, 1, &[0..4], 8, (&garbage, flip), |b| {
            Ok(usize::from(dir.recover("snapshot.bin", b).snapshot.is_some()))
        })?;
    }
}

/// A transport with the socket runtime's peer table.
struct Tokens;

impl Transport for Tokens {
    type Peers = Vec<(DpId, String)>;
    fn flood(&mut self, _: usize, _: &Bytes) {}
    fn set_peers(&mut self, _: Self::Peers) {}
    fn n_dps(&self) -> usize {
        1
    }
}

fn describe((msg, token): (NodeMsg<Tokens>, u32)) -> String {
    match msg {
        NodeMsg::Input(Input::QueryArrived { admission: None }) => format!("query {token}"),
        NodeMsg::Stats => format!("stats {token}"),
        NodeMsg::Wire(WireInput::Inform(bytes)) => format!("inform {bytes:?}"),
        NodeMsg::Wire(WireInput::PeerRecords(bytes)) => format!("records {bytes:?}"),
        NodeMsg::Peers(peers) => format!("peers {peers:?}"),
        NodeMsg::SyncTick => "sync".into(),
        NodeMsg::Crash => "crash".into(),
        NodeMsg::Input(_) | NodeMsg::FloodFailed(_) | NodeMsg::Restore => {
            unreachable!("no frame asks for this")
        }
    }
}

/// What an acceptor makes of `bytes` read in pieces cut at `cuts`: the
/// requests it steps the point with, in order, then why it closed (`None`:
/// it waits for more bytes).
fn accept(bytes: &[u8], cuts: &[usize]) -> (Vec<String>, Option<CloseReason>) {
    let Some((theirs, rest)) = bytes.split_first_chunk() else {
        return (Vec::new(), None);
    };
    let peer = match check_hello(theirs, Role::Acceptor) {
        Ok(theirs) => theirs.kind,
        Err(reason) => return (Vec::new(), Some(reason)),
    };
    let ends = cuts.iter().map(|cut| cut % (rest.len() + 1));
    let mut cuts: Vec<usize> = ends.chain([0, rest.len()]).collect();
    cuts.sort_unstable();
    let (mut fb, mut delivered) = (FrameBuf::new(), Vec::new());
    for piece in cuts.windows(2) {
        fb.extend(&rest[piece[0]..piece[1]]);
        loop {
            let frame = pop(&mut fb).and_then(|frame| {
                frame
                    .map(|frame| request::<Tokens>(peer, frame))
                    .transpose()
            });
            match frame {
                Ok(Some(msg)) => delivered.push(describe(msg)),
                Ok(None) => break,
                Err(reason) => return (delivered, Some(reason)),
            }
        }
    }
    (delivered, None)
}

proptest! {
    #[test]
    fn connection_bytes_mean_the_same_however_they_are_cut(
        (who, frames, tail) in (
            0u8..3,
            proptest::collection::vec((0u8..12, proptest::collection::vec(0u8..=255, 0..40)), 0..8),
            proptest::collection::vec(0u8..=255, 0..12),
        ),
        (garbage, cuts) in (
            proptest::collection::vec(0u8..=255, 12..13),
            proptest::collection::vec(0..usize::MAX, 0..8),
        ),
    ) {
        let mut bytes = match who {
            0 => encode_hello(&clusterd::hello(PeerKind::Client, DpId(1))).to_vec(),
            1 => encode_hello(&clusterd::hello(PeerKind::Dp, DpId(1))).to_vec(),
            _ => garbage,
        };
        for (kind, payload) in &frames {
            bytes.extend_from_slice(encode_frame(*kind, payload).as_ref());
        }
        bytes.extend_from_slice(&tail);
        let whole = accept(&bytes, &[]);
        prop_assert_eq!(accept(&bytes, &cuts), whole.clone());
        let bytewise: Vec<usize> = (0..bytes.len()).collect();
        prop_assert_eq!(accept(&bytes, &bytewise), whole);
    }
}

/// A query reply's frame, popped whole by [`FrameBuf`], decodes to the
/// token and counts it was written from: a 300-site answer, an empty one
/// and the widest values, each under three tokens.
#[test]
fn a_query_reply_frame_roundtrips_through_framebuf() {
    let answers: [Vec<u32>; 3] = [(0..300).collect(), Vec::new(), vec![u32::MAX; 300]];
    for free in answers {
        for token in [0, 77, u32::MAX] {
            let mut fb = FrameBuf::new();
            fb.extend(encode_free_frame(token, &free).as_ref());
            let (kind, payload) = fb.next_frame().unwrap().expect("one whole frame");
            assert_eq!(kind, 1, "FRAME_QUERY_REPLY");
            assert_eq!(decode_free(payload).unwrap(), (token, free.clone()));
            assert!(fb.next_frame().unwrap().is_none(), "nothing left over");
        }
    }
}
