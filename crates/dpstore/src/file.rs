//! The on-disk store: CRC-framed WAL segments + an atomic snapshot file.

use crate::{Recovery, Store};
use dpnode::WalOp;
use gruber_types::{DispatchRecord, GridError, SimDuration, SimTime};
use simnet::codec::Reader;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// WAL frame kinds (first body byte).
const KIND_OWN: u8 = 0;
const KIND_PEER: u8 = 1;
const KIND_DRAINED: u8 = 2;

/// Longest legal frame body: kind + timestamp + one dispatch record. A
/// length header above this is garbage (a torn or corrupted frame), not
/// a record we have yet to understand.
const MAX_BODY: usize = 1 + 8 + DispatchRecord::WIRE_LEN;

/// CRC-32 (IEEE 802.3, reflected), bit-at-a-time — small and dependency
/// free; WAL frames are tens of bytes, so table-driven speed buys
/// nothing here.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Encodes one WAL operation into a frame: `[u32 body_len][u32 crc(body)]`
/// then `body = [u8 kind][u64 at_ms][payload]`, everything little-endian.
/// A record payload is the record's 36 wire bytes — the WAL speaks the
/// same dialect as the exchange mesh.
fn encode_frame(at: SimTime, op: &WalOp) -> Vec<u8> {
    let mut body = Vec::with_capacity(MAX_BODY);
    body.push(match op {
        WalOp::Own(_) => KIND_OWN,
        WalOp::Peer(_) => KIND_PEER,
        WalOp::Drained { .. } => KIND_DRAINED,
    });
    body.extend_from_slice(&at.as_millis().to_le_bytes());
    match op {
        WalOp::Own(rec) | WalOp::Peer(rec) => body.extend_from_slice(&rec.to_wire()),
        WalOp::Drained {
            records,
            peers,
            flood_hash,
        } => {
            body.extend_from_slice(&records.to_le_bytes());
            body.extend_from_slice(&peers.to_le_bytes());
            body.extend_from_slice(&flood_hash.to_le_bytes());
        }
    }
    let mut frame = Vec::with_capacity(8 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// Reads the next frame of a WAL. Any error — a header or body cut short,
/// a length no frame has, a CRC mismatch, a body [`decode_body`] refuses —
/// is where the scan stops: the torn tail.
fn read_frame(r: &mut Reader<'_>) -> Result<(SimTime, WalOp), GridError> {
    let len = r.u32()? as usize;
    let crc = r.u32()?;
    if len > MAX_BODY {
        return Err(r.malformed(format!("body length {len}")));
    }
    let body = r.take(len)?;
    if crc32(body) != crc {
        return Err(r.malformed("CRC mismatch"));
    }
    decode_body(body)
}

/// Decodes a frame body whose CRC already checked out; it can still be
/// malformed (an unknown kind, the wrong size for its kind).
fn decode_body(body: &[u8]) -> Result<(SimTime, WalOp), GridError> {
    let mut r = Reader::new("WAL frame body", body);
    let kind = r.u8()?;
    let at = SimTime(r.u64()?);
    let op = match kind {
        KIND_OWN => WalOp::Own(r.record()?),
        KIND_PEER => WalOp::Peer(r.record()?),
        KIND_DRAINED => WalOp::Drained {
            records: r.u32()?,
            peers: r.u32()?,
            flood_hash: r.u64()?,
        },
        _ => return Err(r.malformed(format!("unknown kind {kind}"))),
    };
    r.finish()?;
    Ok((at, op))
}

/// A real on-disk [`Store`]: `wal.log` holds CRC-framed operations,
/// `snapshot.bin` the latest snapshot (written to a temp file and
/// renamed, so it is either the old one or the new one, never half).
///
/// Opening scans the WAL frame by frame and **truncates at the first
/// invalid frame** — a torn tail from a crash mid-append costs exactly
/// the torn record, never the log. A torn snapshot (bad length or CRC)
/// is treated as absent: recovery falls back to the full WAL.
///
/// IO errors after open panic: a write-ahead log that silently drops
/// writes is worse than no log, and these paths have no caller that
/// could meaningfully continue.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    wal_file: File,
    wal: Vec<(SimTime, WalOp)>,
    snapshot: Option<Vec<u8>>,
}

impl FileStore {
    /// Opens (creating if needed) the store rooted at `dir`, scanning and
    /// repairing the WAL and validating the snapshot as described above.
    pub fn open(dir: &Path) -> std::io::Result<FileStore> {
        fs::create_dir_all(dir)?;
        let wal_path = dir.join("wal.log");
        let mut wal = Vec::new();
        let mut valid_end = 0u64;
        if wal_path.exists() {
            let data = fs::read(&wal_path)?;
            let mut r = Reader::new("WAL frame", &data);
            while let Ok(op) = read_frame(&mut r) {
                wal.push(op);
                valid_end = (data.len() - r.remaining()) as u64;
            }
            if valid_end < data.len() as u64 {
                // Torn or corrupt tail: drop it so appends resume from
                // the last durable record.
                let f = OpenOptions::new().write(true).open(&wal_path)?;
                f.set_len(valid_end)?;
                f.sync_all()?;
            }
        }
        let wal_file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)?;
        let snapshot = read_snapshot(&dir.join("snapshot.bin"));
        Ok(FileStore {
            dir: dir.to_path_buf(),
            wal_file,
            wal,
            snapshot,
        })
    }
}

/// Reads and validates `snapshot.bin` (`[u32 len][u32 crc][bytes]`).
/// Anything short, long or CRC-mismatched is a torn write: `None`.
fn read_snapshot(path: &Path) -> Option<Vec<u8>> {
    let data = fs::read(path).ok()?;
    let mut r = Reader::new("snapshot file", &data);
    let len = r.u32().ok()? as usize;
    let crc = r.u32().ok()?;
    let body = r.take(len).ok()?;
    r.finish().ok()?;
    (crc32(body) == crc).then(|| body.to_vec())
}

impl Store for FileStore {
    fn append(&mut self, at: SimTime, op: &WalOp) -> SimDuration {
        let frame = encode_frame(at, op);
        self.wal_file.write_all(&frame).expect("WAL append failed");
        self.wal_file.sync_data().expect("WAL fsync failed");
        self.wal.push((at, *op));
        SimDuration::ZERO
    }

    fn write_snapshot(&mut self, bytes: &[u8]) -> SimDuration {
        let tmp = self.dir.join("snapshot.tmp");
        let final_path = self.dir.join("snapshot.bin");
        let mut framed = Vec::with_capacity(8 + bytes.len());
        framed.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        framed.extend_from_slice(&crc32(bytes).to_le_bytes());
        framed.extend_from_slice(bytes);
        let mut f = File::create(&tmp).expect("snapshot create failed");
        f.write_all(&framed).expect("snapshot write failed");
        f.sync_all().expect("snapshot fsync failed");
        drop(f);
        fs::rename(&tmp, &final_path).expect("snapshot rename failed");
        // The snapshot subsumes the log.
        self.wal_file.set_len(0).expect("WAL truncate failed");
        self.wal_file.sync_all().expect("WAL truncate fsync failed");
        self.wal.clear();
        self.snapshot = Some(bytes.to_vec());
        SimDuration::ZERO
    }

    fn recover(&mut self) -> Recovery {
        Recovery {
            snapshot: self.snapshot.clone(),
            wal: self.wal.clone(),
            cost: SimDuration::ZERO,
        }
    }

    fn wal_len(&self) -> usize {
        self.wal.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gruber_types::{GroupId, JobId, SiteId, VoId};
    use proptest::prelude::*;
    use std::ops::Range;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    /// A unique scratch directory, removed on drop (best effort).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> TempDir {
            let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
            TempDir(std::env::temp_dir().join(format!(
                "dpstore-test-{}-{n}",
                std::process::id()
            )))
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn rec(job: u32, site: u32, cpus: u32, t: u64) -> DispatchRecord {
        DispatchRecord {
            job: JobId(job),
            site: SiteId(site),
            vo: VoId(job % 7),
            group: GroupId(job % 3),
            cpus,
            dispatched_at: SimTime(t),
            est_finish: SimTime(t + 60_000),
        }
    }

    /// Every kind, with distinguishable payloads.
    fn sample_ops() -> Vec<(SimTime, WalOp)> {
        vec![
            (SimTime(1_000), WalOp::Own(rec(1, 0, 2, 500))),
            (SimTime(2_000), WalOp::Peer(rec(2, 3, 8, 1_700))),
            (
                SimTime(3_000),
                WalOp::Drained {
                    records: 2,
                    peers: 4,
                    flood_hash: 0xDEAD_BEEF_CAFE_F00D,
                },
            ),
            (SimTime(4_000), WalOp::Own(rec(3, 1, 1, 3_500))),
        ]
    }

    #[test]
    fn wal_survives_reopen() {
        let tmp = TempDir::new();
        let ops = sample_ops();
        {
            let mut s = FileStore::open(&tmp.0).unwrap();
            for (at, op) in &ops {
                s.append(*at, op);
            }
            assert_eq!(s.wal_len(), ops.len());
        }
        let mut s = FileStore::open(&tmp.0).unwrap();
        let r = s.recover();
        assert_eq!(r.wal, ops);
        assert!(r.snapshot.is_none());
    }

    #[test]
    fn snapshot_truncates_wal_and_survives_reopen() {
        let tmp = TempDir::new();
        let snap_bytes: Vec<u8> = (0..200).map(|i| (i * 7) as u8).collect();
        {
            let mut s = FileStore::open(&tmp.0).unwrap();
            for (at, op) in &sample_ops() {
                s.append(*at, op);
            }
            s.write_snapshot(&snap_bytes);
            assert_eq!(s.wal_len(), 0);
            s.append(SimTime(9_000), &WalOp::Own(rec(9, 0, 1, 8_000)));
        }
        let mut s = FileStore::open(&tmp.0).unwrap();
        let r = s.recover();
        assert_eq!(r.snapshot.as_deref(), Some(&snap_bytes[..]));
        assert_eq!(r.wal.len(), 1, "snapshot subsumed the earlier ops");
        assert!(matches!(r.wal[0].1, WalOp::Own(r) if r.job == JobId(9)));
    }

    #[test]
    fn torn_snapshot_is_treated_as_absent() {
        let tmp = TempDir::new();
        {
            let mut s = FileStore::open(&tmp.0).unwrap();
            for (at, op) in &sample_ops() {
                s.append(*at, op);
            }
        }
        // A half-written snapshot (no rename happened for this one —
        // simulate a direct torn write of the final file).
        fs::write(tmp.0.join("snapshot.bin"), [1, 2, 3]).unwrap();
        let mut s = FileStore::open(&tmp.0).unwrap();
        let r = s.recover();
        assert!(r.snapshot.is_none());
        assert_eq!(r.wal.len(), sample_ops().len(), "WAL still recovers");
    }

    #[test]
    fn torn_tail_truncates_then_appends_cleanly() {
        let tmp = TempDir::new();
        let ops = sample_ops();
        {
            let mut s = FileStore::open(&tmp.0).unwrap();
            for (at, op) in &ops {
                s.append(*at, op);
            }
        }
        // Tear the last frame mid-write.
        let wal_path = tmp.0.join("wal.log");
        let data = fs::read(&wal_path).unwrap();
        fs::write(&wal_path, &data[..data.len() - 5]).unwrap();
        let mut s = FileStore::open(&tmp.0).unwrap();
        assert_eq!(s.recover().wal, ops[..ops.len() - 1]);
        // The file was repaired: a new append lands after the durable
        // prefix and a further reopen sees prefix + new record.
        s.append(SimTime(10_000), &WalOp::Own(rec(42, 2, 4, 9_000)));
        drop(s);
        let mut s = FileStore::open(&tmp.0).unwrap();
        let r = s.recover();
        assert_eq!(r.wal.len(), ops.len());
        assert_eq!(r.wal[..ops.len() - 1], ops[..ops.len() - 1]);
        assert!(matches!(r.wal.last().unwrap().1, WalOp::Own(r) if r.job == JobId(42)));
    }

    /// Raw tuple drawn per WAL op: `(kind, job, site, cpus, t, hash)` —
    /// the vendored proptest stub has no `prop_oneof`/`prop_map`, so op
    /// construction happens in [`build_ops`].
    type RawOp = (u8, u32, u32, u32, u64, u64);
    /// The strategy for one [`RawOp`]: a range per field.
    type RawOpStrategy = (Range<u8>, Range<u32>, Range<u32>, Range<u32>, Range<u64>, Range<u64>);

    fn raw_op() -> RawOpStrategy {
        (0u8..3, 0u32..10_000, 0u32..100, 1u32..64, 0u64..10_000_000, 0u64..u64::MAX)
    }

    /// Expands raw tuples into timestamped ops covering every kind.
    fn build_ops(raw: Vec<RawOp>) -> Vec<(SimTime, WalOp)> {
        raw.into_iter()
            .map(|(kind, j, s, c, t, h)| {
                let op = match kind {
                    0 => WalOp::Own(rec(j, s, c, t)),
                    1 => WalOp::Peer(rec(j, s, c, t)),
                    _ => WalOp::Drained {
                        records: j % 1_000,
                        peers: s % 64,
                        flood_hash: h,
                    },
                };
                (SimTime(t), op)
            })
            .collect()
    }

    proptest! {
        /// Satellite: WAL round-trip for every record kind.
        #[test]
        fn wal_roundtrips_any_ops(raw in proptest::collection::vec(raw_op(), 0..40)) {
            let ops = build_ops(raw);
            let tmp = TempDir::new();
            {
                let mut s = FileStore::open(&tmp.0).unwrap();
                for (at, op) in &ops {
                    s.append(*at, op);
                }
            }
            let mut s = FileStore::open(&tmp.0).unwrap();
            prop_assert_eq!(s.recover().wal, ops);
        }

        /// Satellite: corrupt/torn tails always truncate at the last
        /// valid record — never panic, never resurrect garbage.
        #[test]
        fn torn_or_corrupt_tail_recovers_exact_prefix(
            raw in proptest::collection::vec(raw_op(), 1..20),
            cut_back in 0usize..200,
            flip in proptest::bool::ANY,
        ) {
            let ops = build_ops(raw);
            // Frame boundaries, to compute the expected durable prefix.
            let mut boundaries = vec![0usize];
            let mut blob = Vec::new();
            for (at, op) in &ops {
                blob.extend_from_slice(&encode_frame(*at, op));
                boundaries.push(blob.len());
            }
            let tmp = TempDir::new();
            {
                let mut s = FileStore::open(&tmp.0).unwrap();
                for (at, op) in &ops {
                    s.append(*at, op);
                }
            }
            let wal_path = tmp.0.join("wal.log");
            prop_assert_eq!(fs::read(&wal_path).unwrap(), blob.clone());
            let damage_at = blob.len().saturating_sub(cut_back.min(blob.len()));
            if flip && damage_at < blob.len() {
                // Corrupt one byte in place.
                let mut data = blob.clone();
                data[damage_at] ^= 0xA5;
                fs::write(&wal_path, &data).unwrap();
            } else {
                // Tear the tail off.
                fs::write(&wal_path, &blob[..damage_at]).unwrap();
            }
            // Every frame wholly before the damage survives; the damaged
            // frame and everything after it must vanish.
            let expect = boundaries.iter().filter(|&&b| b > 0 && b <= damage_at).count();
            let mut s = FileStore::open(&tmp.0).unwrap();
            let r = s.recover();
            prop_assert_eq!(r.wal.len(), expect);
            prop_assert_eq!(&r.wal[..], &ops[..expect]);
        }
    }
}
