//! The connection edge: everything a `clusterd` socket does between
//! `connect`/`accept` and the node's step, for all three of its users — the
//! acceptor (`server`), the peer flood sender (`peer`) and the client.
//!
//! * `open` runs the 12-byte hello exchange in the role's order: the
//!   acceptor reads first and answers only a hello [`check_hello`]
//!   accepts, so a bad initiator sees EOF; the initiator writes first and
//!   also requires the acceptor to be a decision point. It sets the one
//!   [`HANDSHAKE_DEADLINE`] and the [`WRITE_DEADLINE`] every later write
//!   keeps: a far end that stops reading (stopped, overloaded, half-open)
//!   fails a write instead of wedging the thread that writes to it.
//!   `dial` connects under the handshake deadline, then opens.
//! * `Conn::next` is the one frame reader, blocking or until a deadline.
//! * [`request`] turns one inbound frame into the message the node is
//!   stepped with.
//!
//! Every way a connection ends is a [`CloseReason`]. Those decided by the
//! bytes alone come from the pure [`check_hello`], [`pop`] and
//! [`request`], so each is testable without a socket; they are this
//! module's public face.

use bytes::Bytes;
use dpnode::Input;
use dpstore::{NodeMsg, Transport, WireInput};
use gruber_types::DpId;
use simnet::codec::{
    decode_hello, decode_query, encode_hello, FrameBuf, Hello, PeerKind, WIRE_MAGIC, WIRE_VERSION,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// How long a dial and a hello exchange may take, each.
pub(crate) const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(2);

/// How long one write may block on a far end that does not read. A
/// missed deadline leaves a half-written frame: the stream is unusable.
pub const WRITE_DEADLINE: Duration = Duration::from_secs(1);

/// Why a connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The hello did not open with the protocol magic: not a clusterd peer.
    BadMagic,
    /// The hello named a peer kind this version does not know.
    UnknownKind,
    /// The hello's wire version is not [`WIRE_VERSION`].
    VersionMismatch,
    /// An initiator reached an acceptor that is not a decision point.
    NotADecisionPoint,
    /// A frame header claimed a zero or oversized body: the stream lost sync.
    BadLength,
    /// A `QUERY` payload did not decode.
    MalformedQuery,
    /// A `PEERS` payload did not decode.
    MalformedPeers,
    /// A frame kind the protocol does not define.
    UnknownFrame(u8),
    /// A frame kind this kind of peer may not send: a decision point's
    /// `QUERY`, a client's `RECORDS`, either side's replies.
    NotAllowed(PeerKind, u8),
    /// The client asked the point to shut down.
    Shutdown,
    /// The far end closed the stream.
    Eof,
    /// A socket call failed; a missed deadline is `WouldBlock` or `TimedOut`.
    Io(ErrorKind),
}

impl From<std::io::Error> for CloseReason {
    fn from(e: std::io::Error) -> CloseReason {
        match e.kind() {
            ErrorKind::UnexpectedEof => CloseReason::Eof,
            kind => CloseReason::Io(kind),
        }
    }
}

impl From<CloseReason> for std::io::Error {
    fn from(reason: CloseReason) -> std::io::Error {
        let kind = match reason {
            CloseReason::Io(kind) => kind,
            CloseReason::Eof => ErrorKind::UnexpectedEof,
            _ => ErrorKind::InvalidData,
        };
        std::io::Error::new(kind, format!("connection closed: {reason:?}"))
    }
}

/// Which side of the connection this end is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepted the connection: reads the hello first.
    Acceptor,
    /// Dialled: writes its hello first, and must reach a decision point.
    Initiator,
}

/// This end's hello: what it is and its id, at this wire version.
pub fn hello(kind: PeerKind, dp: DpId) -> Hello {
    let version = WIRE_VERSION;
    Hello { version, kind, dp }
}

/// Judges the far end's hello.
pub fn check_hello(bytes: &[u8; Hello::WIRE_LEN], role: Role) -> Result<Hello, CloseReason> {
    if bytes[..4] != WIRE_MAGIC.to_le_bytes() {
        return Err(CloseReason::BadMagic);
    }
    // Past the magic, twelve bytes fail to decode only on the kind byte.
    let theirs =
        decode_hello(Bytes::copy_from_slice(bytes)).map_err(|_| CloseReason::UnknownKind)?;
    if theirs.version != WIRE_VERSION {
        return Err(CloseReason::VersionMismatch);
    }
    if role == Role::Initiator && theirs.kind != PeerKind::Dp {
        return Err(CloseReason::NotADecisionPoint);
    }
    Ok(theirs)
}

/// Pops the next whole frame `(kind, payload)` out of `fb`; `Ok(None)`
/// wants more bytes.
pub fn pop(fb: &mut FrameBuf) -> Result<Option<(u8, Bytes)>, CloseReason> {
    fb.next_frame().map_err(|_| CloseReason::BadLength)
}

/// What the node is stepped with for one frame from a `peer` kind of far
/// end, and the token its answer's frame carries: a query's job id, 0 for
/// every other request. `SHUTDOWN` is a close: the caller ends the point
/// and the connection.
pub fn request<T: Transport<Peers = Vec<(DpId, String)>>>(
    peer: PeerKind,
    (kind, payload): (u8, Bytes),
) -> Result<(NodeMsg<T>, u32), CloseReason> {
    use crate::proto::*;
    Ok(match (peer, kind) {
        (PeerKind::Dp, FRAME_RECORDS) => (NodeMsg::Wire(WireInput::PeerRecords(payload)), 0),
        (PeerKind::Client, FRAME_QUERY) => {
            let req = decode_query(payload).map_err(|_| CloseReason::MalformedQuery)?;
            (
                NodeMsg::Input(Input::QueryArrived { admission: None }),
                req.job.0,
            )
        }
        (PeerKind::Client, FRAME_INFORM) => (NodeMsg::Wire(WireInput::Inform(payload)), 0),
        (PeerKind::Client, FRAME_SYNC) => (NodeMsg::SyncTick, 0),
        (PeerKind::Client, FRAME_PEERS) => {
            let peers = decode_peers(payload).map_err(|_| CloseReason::MalformedPeers)?;
            (NodeMsg::Peers(peers), 0)
        }
        (PeerKind::Client, FRAME_STATS) => (NodeMsg::Stats, 0),
        (PeerKind::Client, FRAME_CRASH) => (NodeMsg::Crash, 0),
        (PeerKind::Client, FRAME_SHUTDOWN) => return Err(CloseReason::Shutdown),
        // Kinds are numbered densely, 0 through SHUTDOWN.
        (_, kind) if kind > FRAME_SHUTDOWN => return Err(CloseReason::UnknownFrame(kind)),
        (peer, kind) => return Err(CloseReason::NotAllowed(peer, kind)),
    })
}

/// A handshaken connection: the stream, and the frames read off it so far.
pub(crate) struct Conn {
    stream: TcpStream,
    fb: FrameBuf,
    /// The read timeout armed on the socket, so [`Conn::next`] can tell
    /// whether it must be set again.
    armed: Option<Duration>,
}

/// Sets the deadlines on a fresh `stream` and exchanges hellos in
/// `role`'s order. Returns the far end's hello.
pub(crate) fn open(
    mut stream: TcpStream,
    ours: Hello,
    role: Role,
) -> Result<(Hello, Conn), CloseReason> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_DEADLINE))?;
    stream.set_read_timeout(Some(HANDSHAKE_DEADLINE))?;
    let ours = encode_hello(&ours);
    if role == Role::Initiator {
        stream.write_all(ours.as_ref())?;
    }
    let mut theirs = [0u8; Hello::WIRE_LEN];
    stream.read_exact(&mut theirs)?;
    let theirs = check_hello(&theirs, role)?;
    if role == Role::Acceptor {
        stream.write_all(ours.as_ref())?;
    }
    let (fb, armed) = (FrameBuf::new(), Some(HANDSHAKE_DEADLINE));
    Ok((theirs, Conn { stream, fb, armed }))
}

/// Dials `addr` (each address it resolves to, in turn) and opens the
/// connection as its initiator.
pub(crate) fn dial(addr: &str, ours: Hello) -> Result<(Hello, Conn), CloseReason> {
    let mut failed = ErrorKind::AddrNotAvailable;
    for at in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&at, HANDSHAKE_DEADLINE) {
            Ok(stream) => return open(stream, ours, Role::Initiator),
            Err(e) => failed = e.kind(),
        }
    }
    Err(CloseReason::Io(failed))
}

impl Conn {
    /// The stream, to write frames on.
    pub(crate) fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// The next whole frame, reading as needed until `deadline` (`None`:
    /// none). `Ok(None)` means the deadline passed first.
    ///
    /// The socket's read timeout is re-armed only when the armed one could
    /// overshoot the deadline: when it is longer than what is left, or when
    /// exactly one of the two is unbounded. A client whose queries share
    /// one timeout so pays no system call for it per query; a read that
    /// times out short of the deadline reads again.
    pub(crate) fn next(
        &mut self,
        deadline: Option<Instant>,
    ) -> Result<Option<(u8, Bytes)>, CloseReason> {
        let mut chunk = [0u8; 8192];
        loop {
            if let Some(frame) = pop(&mut self.fb)? {
                return Ok(Some(frame));
            }
            let left = deadline.map(|at| at.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                return Ok(None);
            }
            let overshoots = match (self.armed, left) {
                (Some(armed), Some(left)) => armed > left,
                (armed, left) => armed.is_some() != left.is_some(),
            };
            if overshoots {
                self.stream.set_read_timeout(left)?;
                self.armed = left;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(CloseReason::Eof),
                Ok(n) => self.fb.extend(&chunk[..n]),
                // Short of the deadline: the loop's head decides.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::*;
    use simnet::codec::{encode_query, MAX_FRAME_BODY};

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

    fn to_step(
        peer: PeerKind,
        kind: u8,
        payload: &[u8],
    ) -> Result<(NodeMsg<Tokens>, u32), CloseReason> {
        request(peer, (kind, Bytes::copy_from_slice(payload)))
    }

    fn closes(peer: PeerKind, kind: u8, payload: &[u8]) -> Option<CloseReason> {
        to_step(peer, kind, payload).err()
    }

    fn wire(h: &Hello) -> [u8; Hello::WIRE_LEN] {
        encode_hello(h)
            .as_ref()
            .try_into()
            .expect("a hello is 12 bytes")
    }

    fn query_payload(job: u32) -> Vec<u8> {
        let (client, job) = (gruber_types::ClientId(1), gruber_types::JobId(job));
        encode_query(&simnet::codec::QueryRequest {
            client,
            job,
            cpus: 1,
        })
        .to_vec()
    }

    #[test]
    fn a_hello_without_the_magic_is_bad_magic() {
        let mut bytes = wire(&hello(PeerKind::Client, DpId(7)));
        bytes[0] ^= 0xFF;
        assert_eq!(
            check_hello(&bytes, Role::Acceptor),
            Err(CloseReason::BadMagic)
        );
    }

    #[test]
    fn a_hello_naming_no_known_peer_kind_is_unknown_kind() {
        let mut bytes = wire(&hello(PeerKind::Client, DpId(7)));
        bytes[6] = 2;
        assert_eq!(
            check_hello(&bytes, Role::Acceptor),
            Err(CloseReason::UnknownKind)
        );
    }

    #[test]
    fn another_wire_version_is_a_version_mismatch() {
        for version in [WIRE_VERSION - 1, WIRE_VERSION + 1] {
            let theirs = Hello {
                version,
                ..hello(PeerKind::Dp, DpId(1))
            };
            let got = check_hello(&wire(&theirs), Role::Initiator);
            assert_eq!(got, Err(CloseReason::VersionMismatch));
        }
    }

    #[test]
    fn an_initiator_refuses_an_acceptor_that_is_a_client() {
        let client = hello(PeerKind::Client, DpId(7));
        let dp = hello(PeerKind::Dp, DpId(1));
        assert_eq!(
            check_hello(&wire(&client), Role::Initiator),
            Err(CloseReason::NotADecisionPoint)
        );
        assert_eq!(check_hello(&wire(&client), Role::Acceptor), Ok(client));
        assert_eq!(check_hello(&wire(&dp), Role::Initiator), Ok(dp));
    }

    #[test]
    fn a_zero_or_oversized_length_is_bad_length() {
        for len in [0, MAX_FRAME_BODY as u32 + 1, u32::MAX] {
            let mut fb = FrameBuf::new();
            fb.extend(&len.to_le_bytes());
            assert_eq!(pop(&mut fb), Err(CloseReason::BadLength), "length {len}");
        }
        // The largest legal body is a frame still arriving.
        let mut fb = FrameBuf::new();
        fb.extend(&(MAX_FRAME_BODY as u32).to_le_bytes());
        assert_eq!(pop(&mut fb), Ok(None));
    }

    #[test]
    fn a_query_that_does_not_decode_is_a_malformed_query() {
        let short = &query_payload(5)[..11];
        assert_eq!(
            closes(PeerKind::Client, FRAME_QUERY, short),
            Some(CloseReason::MalformedQuery)
        );
    }

    #[test]
    fn a_peer_table_that_does_not_decode_is_malformed_peers() {
        // u32::MAX entries claimed in four bytes.
        let got = closes(PeerKind::Client, FRAME_PEERS, &[0xFF; 4]);
        assert_eq!(got, Some(CloseReason::MalformedPeers));
    }

    #[test]
    fn a_kind_byte_past_the_protocol_is_an_unknown_frame() {
        for peer in [PeerKind::Client, PeerKind::Dp] {
            for kind in [FRAME_SHUTDOWN + 1, u8::MAX] {
                assert_eq!(
                    closes(peer, kind, &[]),
                    Some(CloseReason::UnknownFrame(kind))
                );
            }
        }
    }

    #[test]
    fn a_decision_point_may_only_flood() {
        let query = query_payload(5);
        for kind in [
            FRAME_QUERY,
            FRAME_INFORM,
            FRAME_SYNC,
            FRAME_STATS,
            FRAME_SHUTDOWN,
        ] {
            let got = closes(PeerKind::Dp, kind, &query);
            assert_eq!(got, Some(CloseReason::NotAllowed(PeerKind::Dp, kind)));
        }
    }

    #[test]
    fn a_client_may_not_flood_or_reply() {
        for kind in [FRAME_RECORDS, FRAME_QUERY_REPLY, FRAME_STATS_REPLY] {
            let got = closes(PeerKind::Client, kind, &[0; 4]);
            assert_eq!(got, Some(CloseReason::NotAllowed(PeerKind::Client, kind)));
        }
    }

    #[test]
    fn shutdown_ends_the_connection() {
        let got = closes(PeerKind::Client, FRAME_SHUTDOWN, &[]);
        assert_eq!(got, Some(CloseReason::Shutdown));
    }

    #[test]
    fn every_other_request_is_stepped() {
        use PeerKind::{Client, Dp};
        let table = vec![(DpId(2), "h:1".to_string())];
        let peers = encode_peers(&table).to_vec();
        let ok = |peer, kind, payload: &[u8]| to_step(peer, kind, payload).expect("a request");
        assert!(matches!(
            ok(Client, FRAME_QUERY, &query_payload(5)),
            (NodeMsg::Input(Input::QueryArrived { admission: None }), 5)
        ));
        assert!(matches!(ok(Client, FRAME_STATS, &[]), (NodeMsg::Stats, 0)));
        assert!(matches!(ok(Client, FRAME_SYNC, &[]), (NodeMsg::SyncTick, 0)));
        assert!(matches!(ok(Client, FRAME_CRASH, &[]), (NodeMsg::Crash, 0)));
        assert!(matches!(
            ok(Client, FRAME_PEERS, &peers),
            (NodeMsg::Peers(got), 0) if got == table
        ));
        assert!(matches!(
            ok(Client, FRAME_INFORM, b"inform"),
            (NodeMsg::Wire(WireInput::Inform(bytes)), 0) if bytes.as_ref() == b"inform"
        ));
        assert!(matches!(
            ok(Dp, FRAME_RECORDS, b"records"),
            (NodeMsg::Wire(WireInput::PeerRecords(bytes)), 0) if bytes.as_ref() == b"records"
        ));
    }
}
