//! A synchronous client connection to one socket decision point.
//!
//! This is the paper's client in socket form: it issues availability
//! queries with a real timeout, informs the point of dispatch decisions,
//! and carries the operator control frames (sync, peer table, stats,
//! crash, shutdown). One request is outstanding at a time; replies are
//! correlated by the echoed query token so a reply that arrives after
//! its timeout is discarded instead of answering the wrong query. The
//! handshake, the deadlines and the frame reader are [`crate::conn`]'s.
//!
//! The clock is read only for a deadline; what a wall-clock timeout
//! measures is `dpstore::mailbox`'s **Time**.

use crate::conn::{self, Conn};
use crate::proto::{self, ClusterDpStats};
use bytes::Bytes;
use gruber::DispatchRecord;
use gruber_types::{ClientId, DpId, JobId};
use simnet::codec::{encode_frame, encode_inform, encode_query, PeerKind, QueryRequest};
use std::io::{ErrorKind, Write};
use std::time::{Duration, Instant};

/// A handshaken client connection to one decision point.
pub struct ClusterClient {
    conn: Conn,
    client: ClientId,
    next_token: u32,
}

impl ClusterClient {
    /// Connects and handshakes as a client. Fails if the far end is not
    /// a protocol-speaking decision point of the same wire version (a
    /// mismatched server drops us without a hello, seen here as EOF).
    pub fn connect(addr: &str, client: ClientId) -> std::io::Result<ClusterClient> {
        let (_, conn) = conn::dial(addr, conn::hello(PeerKind::Client, DpId(client.0)))?;
        Ok(ClusterClient {
            conn,
            client,
            next_token: 0,
        })
    }

    fn send_frame(&mut self, kind: u8, payload: &[u8]) -> std::io::Result<()> {
        let frame = encode_frame(kind, payload);
        self.conn.stream().write_all(frame.as_ref())
    }

    /// Reads frames until `want` arrives or the deadline passes (`None`:
    /// no deadline). Off-kind or stale frames are discarded (a late query
    /// reply from a timed-out request, for example).
    fn read_frame(
        &mut self,
        want: u8,
        deadline: Option<Instant>,
    ) -> std::io::Result<Option<Bytes>> {
        while let Some((kind, payload)) = self.conn.next(deadline)? {
            if kind == want {
                return Ok(Some(payload));
            }
        }
        Ok(None)
    }

    /// Blocking availability query with a client-side timeout. `None`
    /// means the timeout fired — the caller falls back to a random site,
    /// like the paper's clients. `Duration::MAX` waits without a deadline.
    pub fn query(&mut self, timeout: Duration) -> std::io::Result<Option<Vec<u32>>> {
        self.next_token = self.next_token.wrapping_add(1);
        let token = self.next_token;
        let req = encode_query(&QueryRequest {
            client: self.client,
            job: JobId(token),
            cpus: 1,
        });
        let deadline = Instant::now().checked_add(timeout);
        self.send_frame(proto::FRAME_QUERY, req.as_ref())?;
        loop {
            let Some(payload) = self.read_frame(proto::FRAME_QUERY_REPLY, deadline)? else {
                return Ok(None);
            };
            let (got, free) = proto::decode_free(payload)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, format!("{e}")))?;
            if got != token {
                continue; // a stale reply from a timed-out query
            }
            return Ok(Some(free));
        }
    }

    /// Informs the point of a dispatch decision (fire-and-forget, like
    /// the paper's clients).
    pub fn inform(&mut self, record: &DispatchRecord) -> std::io::Result<()> {
        let bytes = encode_inform(record);
        self.send_frame(proto::FRAME_INFORM, bytes.as_ref())
    }

    /// Forces a sync round now.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.send_frame(proto::FRAME_SYNC, &[])
    }

    /// Installs the cluster's peer address table on this point.
    pub fn set_peers(&mut self, peers: &[(DpId, String)]) -> std::io::Result<()> {
        let payload = proto::encode_peers(peers);
        self.send_frame(proto::FRAME_PEERS, payload.as_ref())
    }

    /// Fetches the point's statistics snapshot (`Duration::MAX`: no
    /// deadline).
    pub fn stats(&mut self, timeout: Duration) -> std::io::Result<ClusterDpStats> {
        self.send_frame(proto::FRAME_STATS, &[])?;
        let deadline = Instant::now().checked_add(timeout);
        match self.read_frame(proto::FRAME_STATS_REPLY, deadline)? {
            Some(payload) => proto::decode_stats(payload)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, format!("{e}"))),
            None => Err(std::io::Error::new(
                ErrorKind::TimedOut,
                "stats request timed out",
            )),
        }
    }

    /// Hard-crashes the process serving this point (`exit(9)`).
    pub fn crash(&mut self) -> std::io::Result<()> {
        self.send_frame(proto::FRAME_CRASH, &[])
    }

    /// Requests a clean shutdown.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        self.send_frame(proto::FRAME_SHUTDOWN, &[])
    }
}
