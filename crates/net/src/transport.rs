//! Message transports: how a typed request reaches the server role that
//! owns the state it targets.
//!
//! The protocol logic upstack (clients in `bff-blobseer`) charges every
//! *modelled* cost — RPC rounds, bulk transfers, disk time — to a
//! [`crate::Fabric`] before touching server state, so the mechanism that
//! actually carries the message is orthogonal to the modelled economics.
//! That mechanism is this module's [`Transport`]:
//!
//! * [`DirectTransport`] — the in-process baseline: the caller hands the
//!   typed request to the server's dispatcher as a plain value (no
//!   encoding, no frame). This is the equivalence anchor the other two
//!   are measured against.
//! * [`CodecTransport`] — in-process, but every message round-trips
//!   through the full binary codec (encode → decode → handle → encode →
//!   decode). Anything that cannot cross a process boundary — a stowaway
//!   pointer, a non-serializable field — fails loudly here, and the
//!   encode/decode cost is measurable against the direct baseline.
//! * [`SocketTransport`] — real TCP over loopback (or any address):
//!   length-prefixed frames, blocking I/O, one pooled connection set per
//!   server address. With [`FrameServer`] listeners on the other side
//!   the cluster runs as genuinely separate processes.
//!
//! Frames are `u32` little-endian length followed by that many bytes of
//! codec payload. The codec itself lives in `bff-wire`; this layer only
//! moves opaque frames and counts the bytes it moves.

use crate::NodeId;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Hard cap on a single frame. Generous (a frame carries at most a few
/// chunk payloads in structural rope encoding), but bounded so a corrupt
/// length prefix cannot ask for an absurd allocation.
pub const MAX_FRAME: u32 = 256 << 20;

/// Serialization / framed-transport failures. Deliberately small and
/// `Copy`: these map onto the existing per-chunk failover paths exactly
/// like a [`crate::NetError::NodeDown`], so they must be cheap to clone
/// through result plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// A frame or value ended before its declared content.
    Truncated,
    /// An enum discriminant (or segment kind) byte was not recognized.
    BadTag(&'static str, u8),
    /// A declared length was implausible (longer than [`MAX_FRAME`], or
    /// inconsistent with the value it describes).
    BadFrame,
    /// The peer closed the connection mid-exchange.
    Closed,
    /// An OS-level socket failure.
    Io(std::io::ErrorKind),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadTag(what, tag) => write!(f, "bad {what} tag {tag:#x}"),
            WireError::BadFrame => write!(f, "implausible frame length"),
            WireError::Closed => write!(f, "connection closed by peer"),
            WireError::Io(kind) => write!(f, "socket error: {kind}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => WireError::Closed,
            kind => WireError::Io(kind),
        }
    }
}

/// Which server role a request targets. The frame payload itself carries
/// the full request (including shard / provider-node addressing); the
/// route only selects *which listener* gets the frame, so a socket
/// transport maps each role to one address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteKey {
    /// The version manager.
    Vm,
    /// The provider manager.
    Pm,
    /// The pattern board (and the purge entry point).
    Board,
    /// The cluster-wide dedup index.
    Cluster,
    /// The metadata shards. All shards share one listener and a request
    /// may span several of them (the server splits it by shard), so
    /// requests route as `Meta(0)`.
    Meta(u32),
    /// A chunk provider (all providers share one listener).
    Provider(NodeId),
}

/// The six role classes a [`RouteKey`] collapses to for addressing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Version manager.
    Vm,
    /// Provider manager.
    Pm,
    /// Pattern board.
    Board,
    /// Cluster dedup index.
    Cluster,
    /// Metadata shards.
    Meta,
    /// Chunk providers.
    Provider,
}

impl Role {
    /// All roles, in the order servers bind them.
    pub const ALL: [Role; 6] = [
        Role::Vm,
        Role::Pm,
        Role::Board,
        Role::Cluster,
        Role::Meta,
        Role::Provider,
    ];

    /// Stable textual name (CLI role lists, READY handshake lines).
    pub fn name(self) -> &'static str {
        match self {
            Role::Vm => "vm",
            Role::Pm => "pm",
            Role::Board => "board",
            Role::Cluster => "cluster",
            Role::Meta => "meta",
            Role::Provider => "provider",
        }
    }

    /// Parse [`Role::name`] back.
    pub fn parse(s: &str) -> Option<Role> {
        Role::ALL.into_iter().find(|r| r.name() == s)
    }
}

impl RouteKey {
    /// The role class this route addresses.
    pub fn role(self) -> Role {
        match self {
            RouteKey::Vm => Role::Vm,
            RouteKey::Pm => Role::Pm,
            RouteKey::Board => Role::Board,
            RouteKey::Cluster => Role::Cluster,
            RouteKey::Meta(_) => Role::Meta,
            RouteKey::Provider(_) => Role::Provider,
        }
    }
}

/// Wire-level traffic counters of a transport (real serialized bytes,
/// *not* the fabric's modelled bytes — synthetic payload segments cost a
/// handful of structural bytes here however many logical bytes they
/// represent).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Request frames issued.
    pub calls: u64,
    /// Encoded request bytes (frame payloads, excluding length prefixes).
    pub bytes_sent: u64,
    /// Encoded response bytes.
    pub bytes_received: u64,
}

#[derive(Default)]
struct WireCounters {
    calls: AtomicU64,
    sent: AtomicU64,
    received: AtomicU64,
}

impl WireCounters {
    fn note(&self, sent: usize, received: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.sent.fetch_add(sent as u64, Ordering::Relaxed);
        self.received.fetch_add(received as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> WireStats {
        WireStats {
            calls: self.calls.load(Ordering::Relaxed),
            bytes_sent: self.sent.load(Ordering::Relaxed),
            bytes_received: self.received.load(Ordering::Relaxed),
        }
    }
}

/// A frame-level request handler: the server-side dispatch entry point.
/// `bff-blobseer` registers one that decodes the frame, runs the typed
/// dispatcher against the passive state machines, and encodes the reply.
pub type FrameHandler = Arc<dyn Fn(RouteKey, &[u8]) -> Result<Vec<u8>, WireError> + Send + Sync>;

/// The connection registry of a [`FrameServer`]: each live connection's
/// shutdown handle paired with its serving thread.
type ConnRegistry = Arc<Mutex<Vec<(TcpStream, std::thread::JoinHandle<()>)>>>;

/// How request messages reach the server roles. See the module docs for
/// the three implementations.
pub trait Transport: Send + Sync {
    /// Whether this transport carries typed values without encoding:
    /// the caller must then hold the server state locally and hand each
    /// request to its dispatcher instead of [`Transport::call`].
    fn is_direct(&self) -> bool {
        false
    }

    /// Carry one encoded request frame to the role behind `route` and
    /// return the encoded response frame.
    fn call(&self, route: RouteKey, frame: &[u8]) -> Result<Vec<u8>, WireError>;

    /// Real serialized bytes moved so far (zero for direct transports).
    fn wire_stats(&self) -> WireStats {
        WireStats::default()
    }
}

/// The in-process baseline: the caller passes each typed request
/// straight to the server's dispatcher, with no encoding; no frame ever
/// exists.
#[derive(Debug, Default)]
pub struct DirectTransport;

impl Transport for DirectTransport {
    fn is_direct(&self) -> bool {
        true
    }

    fn call(&self, _route: RouteKey, _frame: &[u8]) -> Result<Vec<u8>, WireError> {
        debug_assert!(false, "direct transports dispatch typed values");
        Err(WireError::Closed)
    }
}

/// In-process transport that still round-trips every message through the
/// binary codec: `call` hands the encoded frame straight to the
/// registered server-side [`FrameHandler`]. Catches anything that cannot
/// cross a process boundary and prices the serialization itself.
pub struct CodecTransport {
    handler: FrameHandler,
    counters: WireCounters,
}

impl CodecTransport {
    /// Wrap the server-side dispatch entry point.
    pub fn new(handler: FrameHandler) -> Self {
        Self {
            handler,
            counters: WireCounters::default(),
        }
    }
}

impl Transport for CodecTransport {
    fn call(&self, route: RouteKey, frame: &[u8]) -> Result<Vec<u8>, WireError> {
        let reply = (self.handler)(route, frame)?;
        self.counters.note(frame.len(), reply.len());
        Ok(reply)
    }

    fn wire_stats(&self) -> WireStats {
        self.counters.snapshot()
    }
}

/// Addresses of the six server roles (one listener per role; metadata
/// shards and providers are multiplexed onto their role's listener by
/// the request payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteTable {
    /// Version manager listener.
    pub vm: SocketAddr,
    /// Provider manager listener.
    pub pm: SocketAddr,
    /// Pattern-board listener.
    pub board: SocketAddr,
    /// Cluster-index listener.
    pub cluster: SocketAddr,
    /// Metadata listener (all shards).
    pub meta: SocketAddr,
    /// Provider listener (all provider nodes).
    pub provider: SocketAddr,
}

impl RouteTable {
    /// Build a table from per-role addresses; every role must be present.
    pub fn from_roles(addrs: &HashMap<Role, SocketAddr>) -> Option<Self> {
        Some(Self {
            vm: *addrs.get(&Role::Vm)?,
            pm: *addrs.get(&Role::Pm)?,
            board: *addrs.get(&Role::Board)?,
            cluster: *addrs.get(&Role::Cluster)?,
            meta: *addrs.get(&Role::Meta)?,
            provider: *addrs.get(&Role::Provider)?,
        })
    }

    fn addr_of(&self, route: RouteKey) -> SocketAddr {
        match route.role() {
            Role::Vm => self.vm,
            Role::Pm => self.pm,
            Role::Board => self.board,
            Role::Cluster => self.cluster,
            Role::Meta => self.meta,
            Role::Provider => self.provider,
        }
    }
}

/// A pooled client connection: the stream plus its frame-staging
/// scratch buffer, so repeated exchanges on one connection write each
/// frame as a single syscall without re-allocating the staging space.
struct PooledConn {
    stream: TcpStream,
    scratch: Vec<u8>,
}

/// Real framed TCP: blocking I/O, per-address connection pool, one
/// request/response exchange per [`Transport::call`].
///
/// Every connection — pool miss, post-[`SocketTransport::set_routes`]
/// reconnect, and the dead-connection retry — goes through one private
/// `connect` helper, which sets `TCP_NODELAY`; no path hands out a
/// Nagle-enabled stream.
pub struct SocketTransport {
    routes: RwLock<RouteTable>,
    pool: Mutex<HashMap<SocketAddr, Vec<PooledConn>>>,
    counters: WireCounters,
}

impl SocketTransport {
    /// Connect lazily to the listeners in `routes`.
    pub fn new(routes: RouteTable) -> Self {
        Self {
            routes: RwLock::new(routes),
            pool: Mutex::new(HashMap::new()),
            counters: WireCounters::default(),
        }
    }

    /// Swap the route table (a restarted server process announces new
    /// ephemeral addresses). The connection pool is cleared: every
    /// pooled stream targets an address that may no longer answer.
    pub fn set_routes(&self, routes: RouteTable) {
        *self.routes.write() = routes;
        self.pool.lock().clear();
    }

    fn checkout(&self, addr: SocketAddr) -> Result<PooledConn, WireError> {
        if let Some(conn) = self.pool.lock().get_mut(&addr).and_then(Vec::pop) {
            return Ok(conn);
        }
        self.connect(addr)
    }

    fn connect(&self, addr: SocketAddr) -> Result<PooledConn, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(PooledConn {
            stream,
            scratch: Vec::new(),
        })
    }

    fn checkin(&self, addr: SocketAddr, conn: PooledConn) {
        self.pool.lock().entry(addr).or_default().push(conn);
    }

    fn exchange(conn: &mut PooledConn, frame: &[u8]) -> Result<Vec<u8>, WireError> {
        write_frame_with(&mut conn.stream, frame, &mut conn.scratch)?;
        read_frame(&mut conn.stream)
    }
}

impl Transport for SocketTransport {
    fn call(&self, route: RouteKey, frame: &[u8]) -> Result<Vec<u8>, WireError> {
        let addr = self.routes.read().addr_of(route);
        let mut conn = self.checkout(addr)?;
        match Self::exchange(&mut conn, frame) {
            Ok(reply) => {
                self.counters.note(frame.len(), reply.len());
                self.checkin(addr, conn);
                Ok(reply)
            }
            // A dead connection — typically one pooled across a server
            // restart — is indistinguishable from a dead server until a
            // fresh connect is tried: evict everything pooled for this
            // address and retry the exchange once on a new connection.
            // Codec-level errors (Truncated/BadTag/BadFrame) are NOT
            // retried: the bytes arrived fine and the reply was garbage,
            // so resending the same frame cannot help.
            Err(WireError::Closed) | Err(WireError::Io(_)) => {
                drop(conn);
                self.pool.lock().remove(&addr);
                let mut conn = self.connect(addr)?;
                let reply = Self::exchange(&mut conn, frame)?;
                self.counters.note(frame.len(), reply.len());
                self.checkin(addr, conn);
                Ok(reply)
            }
            Err(e) => Err(e),
        }
    }

    fn wire_stats(&self) -> WireStats {
        self.counters.snapshot()
    }
}

/// Write one `u32`-LE length-prefixed frame.
///
/// Convenience wrapper over [`write_frame_with`] that allocates a fresh
/// staging buffer; hot paths (the connection pool, [`FrameServer`]
/// connection threads) keep a reusable one instead.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> Result<(), WireError> {
    write_frame_with(w, frame, &mut Vec::new())
}

/// Write one `u32`-LE length-prefixed frame as a **single** write.
///
/// The prefix and payload are staged contiguously in `scratch` and
/// issued as one `write_all` — on an unbuffered `TcpStream` the naive
/// prefix-then-payload sequence is two syscalls, and with Nagle off the
/// 4-byte prefix would go out as its own packet. `scratch` is cleared
/// and reused; callers that write many frames on one connection keep it
/// across calls to amortize the allocation.
pub fn write_frame_with(
    w: &mut impl Write,
    frame: &[u8],
    scratch: &mut Vec<u8>,
) -> Result<(), WireError> {
    if frame.len() > MAX_FRAME as usize {
        return Err(WireError::BadFrame);
    }
    scratch.clear();
    scratch.reserve(4 + frame.len());
    scratch.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    scratch.extend_from_slice(frame);
    w.write_all(scratch)?;
    w.flush()?;
    Ok(())
}

/// Read one `u32`-LE length-prefixed frame.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut frame = Vec::new();
    read_frame_into(r, &mut frame)?;
    Ok(frame)
}

/// Read one `u32`-LE length-prefixed frame into `buf`, reusing its
/// capacity. `buf` is truncated/grown to exactly the frame length;
/// connection loops that process many requests keep one buffer across
/// frames instead of allocating per frame.
pub fn read_frame_into(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<(), WireError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(WireError::BadFrame);
    }
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    Ok(())
}

/// One listening server role: an accept loop that feeds every incoming
/// frame to a [`FrameHandler`] and writes the reply back. Connections are
/// served on their own threads until the peer closes them. Dropping the
/// server stops the accept loop (a wake-up connection unblocks it),
/// shuts every live connection down, and **joins** every connection
/// thread — no handler can still be running against server state after
/// the drop returns.
pub struct FrameServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    /// Live connection threads with a shutdown handle to each stream.
    /// Finished entries are reaped by the accept loop as it admits new
    /// connections, so the registry tracks concurrency, not history.
    conns: ConnRegistry,
}

impl FrameServer {
    /// Bind `127.0.0.1:0` for `route` and serve frames with `handler`.
    pub fn start(route: RouteKey, handler: FrameHandler) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let conns: ConnRegistry = Arc::new(Mutex::new(Vec::new()));
        let conns2 = Arc::clone(&conns);
        let accept = std::thread::Builder::new()
            .name(format!("bff-{}-listener", route.role().name()))
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(conn) = conn else { continue };
                    conn.set_nodelay(true).ok();
                    let handler = Arc::clone(&handler);
                    // A try_clone failure leaves no shutdown handle for
                    // Drop; refuse the connection rather than leak an
                    // unstoppable thread.
                    let Ok(shutdown_handle) = conn.try_clone() else {
                        continue;
                    };
                    let thread = std::thread::spawn(move || serve_connection(conn, route, handler));
                    let mut live = conns2.lock();
                    live.retain(|(_, t)| !t.is_finished());
                    live.push((shutdown_handle, thread));
                }
            })?;
        Ok(Self {
            addr,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for FrameServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop so it observes the stop flag. (The
        // wake-up connection is never registered: the loop re-checks
        // the flag before spawning a connection thread.)
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // The accept thread is gone, so the registry is final: shut
        // every live stream down (unblocking its read) and join the
        // thread, so no handler outlives the server.
        let drained = std::mem::take(&mut *self.conns.lock());
        for (stream, thread) in drained {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            let _ = thread.join();
        }
    }
}

fn serve_connection(mut conn: TcpStream, route: RouteKey, handler: FrameHandler) {
    // Per-connection scratch: the request buffer and the reply staging
    // buffer are reused across frames, and each reply goes out as one
    // write (prefix + payload staged contiguously).
    let mut frame = Vec::new();
    let mut scratch = Vec::new();
    loop {
        if read_frame_into(&mut conn, &mut frame).is_err() {
            return; // peer closed (or corrupt stream): stop serving it
        }
        let reply = match handler(route, &frame) {
            Ok(r) => r,
            Err(_) => return, // undecodable request: drop the connection
        };
        if write_frame_with(&mut conn, &reply, &mut scratch).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
    }

    #[test]
    fn framed_write_is_a_single_write_call() {
        /// Counts `write` calls; fails the test if a frame arrives split.
        struct CountingSink {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = CountingSink {
            writes: 0,
            bytes: Vec::new(),
        };
        let mut scratch = Vec::new();
        write_frame_with(&mut sink, b"hello", &mut scratch).unwrap();
        assert_eq!(sink.writes, 1, "prefix and payload must go out together");
        write_frame_with(&mut sink, b"worlds!", &mut scratch).unwrap();
        assert_eq!(sink.writes, 2);
        // Both frames decode back, reusing one read buffer.
        let mut r = &sink.bytes[..];
        let mut buf = Vec::new();
        read_frame_into(&mut r, &mut buf).unwrap();
        assert_eq!(buf, b"hello");
        read_frame_into(&mut r, &mut buf).unwrap();
        assert_eq!(buf, b"worlds!");
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap_err(), WireError::BadFrame);
    }

    #[test]
    fn truncated_frame_is_closed_not_panic() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap_err(), WireError::Closed);
    }

    #[test]
    fn socket_echo_end_to_end() {
        let handler: FrameHandler = Arc::new(|route, frame| {
            assert_eq!(route, RouteKey::Vm);
            let mut out = frame.to_vec();
            out.reverse();
            Ok(out)
        });
        let server = FrameServer::start(RouteKey::Vm, handler).unwrap();
        let table = RouteTable {
            vm: server.addr(),
            pm: server.addr(),
            board: server.addr(),
            cluster: server.addr(),
            meta: server.addr(),
            provider: server.addr(),
        };
        let t = SocketTransport::new(table);
        let reply = t.call(RouteKey::Vm, b"abc").unwrap();
        assert_eq!(reply, b"cba");
        // The pooled connection serves a second call.
        let reply = t.call(RouteKey::Vm, b"xy").unwrap();
        assert_eq!(reply, b"yx");
        let stats = t.wire_stats();
        assert_eq!(stats.calls, 2);
        assert_eq!(stats.bytes_sent, 5);
        assert_eq!(stats.bytes_received, 5);
    }

    #[test]
    fn codec_transport_counts_bytes() {
        let handler: FrameHandler = Arc::new(|_route, frame| Ok(frame.to_vec()));
        let t = CodecTransport::new(handler);
        t.call(RouteKey::Pm, &[1, 2, 3]).unwrap();
        assert_eq!(
            t.wire_stats(),
            WireStats {
                calls: 1,
                bytes_sent: 3,
                bytes_received: 3
            }
        );
    }
}
