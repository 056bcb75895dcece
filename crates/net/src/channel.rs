//! Reliable in-process message channels between simulated machines.

use crate::model::NetworkModel;
use hpm_obs::Track;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Channel errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The peer endpoint was dropped.
    Disconnected,
    /// A resuming sender found no `Resume` handshake queued: the peer
    /// never asked to resume.
    MissingHandshake,
    /// The chunk receiver refused a frame: it does not parse, fails its
    /// CRC, is out of sequence, or carries a payload that does not expand.
    ChunkFraming {
        /// Index of the offending frame in arrival order.
        chunk: u32,
        /// What went wrong.
        reason: String,
    },
    /// The peer process died mid-transfer (injected crash fault): it never
    /// consumed `chunk`. Everything below `chunk` was verified and (on a
    /// journaling receiver) journaled.
    PeerCrashed {
        /// The first chunk the dead peer never consumed.
        chunk: u32,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::MissingHandshake => write!(f, "no resume handshake was queued"),
            NetError::ChunkFraming { chunk, reason } => {
                write!(f, "chunk frame {chunk}: {reason}")
            }
            NetError::PeerCrashed { chunk } => {
                write!(f, "peer crashed before consuming chunk {chunk}")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Aggregate transfer statistics for one endpoint pair.
#[derive(Debug, Default)]
pub struct TransferStats {
    bytes_sent: AtomicU64,
    messages_sent: AtomicU64,
    modeled_tx_nanos: AtomicU64,
    /// Pre-compression chunk-payload bytes offered to the stream layer.
    raw_payload_bytes: AtomicU64,
    /// Post-compression chunk-payload bytes actually framed for the wire.
    wire_payload_bytes: AtomicU64,
    /// Chunks whose payload went out compressed (vs stored).
    chunks_compressed: AtomicU64,
}

impl TransferStats {
    /// Total payload bytes sent through either endpoint.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Total messages sent.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent.load(Ordering::Relaxed)
    }

    /// Sum of modeled transmission times in nanoseconds.
    pub fn modeled_tx_nanos(&self) -> u64 {
        self.modeled_tx_nanos.load(Ordering::Relaxed)
    }

    /// Sum of modeled transmission times (the Table 1 `Tx` quantity).
    pub fn modeled_tx_time(&self) -> Duration {
        Duration::from_nanos(self.modeled_tx_nanos())
    }

    /// Account one chunk payload leaving the stream layer: `raw` bytes
    /// offered and `wire` bytes framed after the codec ran (equal when
    /// the chunk went out stored).
    pub fn observe_chunk_out(&self, raw: u64, wire: u64, compressed: bool) {
        self.raw_payload_bytes.fetch_add(raw, Ordering::Relaxed);
        self.wire_payload_bytes.fetch_add(wire, Ordering::Relaxed);
        if compressed {
            self.chunks_compressed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Point-in-time copy, detached from the live atomics.
    pub fn snapshot(&self) -> TransferSnapshot {
        TransferSnapshot {
            bytes_sent: self.bytes_sent(),
            messages_sent: self.messages_sent(),
            modeled_tx_nanos: self.modeled_tx_nanos(),
            raw_payload_bytes: self.raw_payload_bytes.load(Ordering::Relaxed),
            wire_payload_bytes: self.wire_payload_bytes.load(Ordering::Relaxed),
            chunks_compressed: self.chunks_compressed.load(Ordering::Relaxed),
        }
    }
}

/// A detached copy of [`TransferStats`], embeddable in reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferSnapshot {
    /// Total payload bytes sent through either endpoint.
    pub bytes_sent: u64,
    /// Total messages sent.
    pub messages_sent: u64,
    /// Sum of modeled transmission times in nanoseconds.
    pub modeled_tx_nanos: u64,
    /// Pre-compression chunk-payload bytes offered to the stream layer.
    pub raw_payload_bytes: u64,
    /// Post-compression chunk-payload bytes actually framed for the wire.
    pub wire_payload_bytes: u64,
    /// Chunks whose payload went out compressed (vs stored).
    pub chunks_compressed: u64,
}

impl TransferSnapshot {
    /// Modeled transmission time as a [`Duration`].
    pub fn modeled_tx_time(&self) -> Duration {
        Duration::from_nanos(self.modeled_tx_nanos)
    }
}

/// Accumulate another attempt's or round's accounting into this one.
impl std::ops::AddAssign for TransferSnapshot {
    fn add_assign(&mut self, other: Self) {
        self.bytes_sent += other.bytes_sent;
        self.messages_sent += other.messages_sent;
        self.modeled_tx_nanos += other.modeled_tx_nanos;
        self.raw_payload_bytes += other.raw_payload_bytes;
        self.wire_payload_bytes += other.wire_payload_bytes;
        self.chunks_compressed += other.chunks_compressed;
    }
}

/// One endpoint of a bidirectional message channel between two machines.
///
/// `send` is non-blocking (the link is modeled, not throttled); the
/// modeled transmission time of every message is accumulated in the
/// shared [`TransferStats`], which the migration driver reads to report
/// the `Tx` column. With a log track attached ([`Channel::with_track`])
/// at detail level, every send/recv also emits a `net.send`/`net.recv`
/// span carrying the payload size and modeled wire time, so traces show
/// modeled-vs-wall time per message.
///
/// Each endpoint has one owner: it is `Send`, so it can move to the
/// machine (thread) that uses it, but not `Sync`.
pub struct Channel {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    model: NetworkModel,
    stats: Arc<TransferStats>,
    track: Track,
}

/// Create a connected pair of endpoints over one modeled link.
pub fn channel_pair(model: NetworkModel) -> (Channel, Channel) {
    let (tx_ab, rx_ab) = channel();
    let (tx_ba, rx_ba) = channel();
    let stats = Arc::new(TransferStats::default());
    (
        Channel {
            tx: tx_ab,
            rx: rx_ba,
            model,
            stats: Arc::clone(&stats),
            track: Track::off(),
        },
        Channel {
            tx: tx_ba,
            rx: rx_ab,
            model,
            stats,
            track: Track::off(),
        },
    )
}

impl Channel {
    /// Attach a log track to this endpoint; at detail level send/recv
    /// emit `net.send` / `net.recv` spans on it.
    pub fn with_track(mut self, track: Track) -> Self {
        self.track = track;
        self
    }

    /// Send one message to the peer.
    pub fn send(&self, payload: Vec<u8>) -> Result<(), NetError> {
        let n = payload.len() as u64;
        let tx_time = self.model.tx_time(n);
        self.track.detail_begin(
            "net.send",
            &[("bytes", n), ("modeled_ns", tx_time.as_nanos() as u64)],
        );
        self.stats.bytes_sent.fetch_add(n, Ordering::Relaxed);
        self.stats.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.stats
            .modeled_tx_nanos
            .fetch_add(tx_time.as_nanos() as u64, Ordering::Relaxed);
        let r = self.tx.send(payload).map_err(|_| NetError::Disconnected);
        self.track.detail_end("net.send", &[]);
        r
    }

    /// Block until the next message arrives.
    pub fn recv(&self) -> Result<Vec<u8>, NetError> {
        self.track.detail_begin("net.recv", &[]);
        let r = self.rx.recv().map_err(|_| NetError::Disconnected);
        match &r {
            Ok(m) => self
                .track
                .detail_end("net.recv", &[("bytes", m.len() as u64)]),
            Err(_) => self.track.detail_end("net.recv", &[]),
        }
        r
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Vec<u8>> {
        self.rx.try_recv().ok()
    }

    /// Shared transfer statistics for this link.
    pub fn stats(&self) -> &TransferStats {
        &self.stats
    }

    /// The link model in force.
    pub fn model(&self) -> NetworkModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_both_directions() {
        let (a, b) = channel_pair(NetworkModel::instant());
        a.send(b"hello".to_vec()).unwrap();
        assert_eq!(b.recv().unwrap(), b"hello");
        b.send(b"world".to_vec()).unwrap();
        assert_eq!(a.recv().unwrap(), b"world");
    }

    #[test]
    fn stats_accumulate() {
        let (a, b) = channel_pair(NetworkModel::ethernet_100());
        a.send(vec![0; 1000]).unwrap();
        b.send(vec![0; 500]).unwrap();
        let s = a.stats();
        assert_eq!(s.bytes_sent(), 1500);
        assert_eq!(s.messages_sent(), 2);
        assert!(s.modeled_tx_time() > Duration::ZERO);
        let snap = s.snapshot();
        assert_eq!(snap.bytes_sent, 1500);
        assert_eq!(snap.modeled_tx_time(), s.modeled_tx_time());
    }

    #[test]
    fn snapshot_merges_additively() {
        let mut a = TransferSnapshot {
            bytes_sent: 10,
            messages_sent: 1,
            modeled_tx_nanos: 100,
            ..Default::default()
        };
        let b = TransferSnapshot {
            bytes_sent: 5,
            messages_sent: 2,
            modeled_tx_nanos: 50,
            ..Default::default()
        };
        a += b;
        assert_eq!(
            a,
            TransferSnapshot {
                bytes_sent: 15,
                messages_sent: 3,
                modeled_tx_nanos: 150,
                ..Default::default()
            }
        );
    }

    #[test]
    fn disconnect_detected() {
        let (a, b) = channel_pair(NetworkModel::instant());
        drop(b);
        assert_eq!(a.send(vec![1]).unwrap_err(), NetError::Disconnected);
        assert_eq!(a.recv().unwrap_err(), NetError::Disconnected);
    }

    #[test]
    fn recv_drains_queue_before_reporting_disconnect() {
        let (a, b) = channel_pair(NetworkModel::instant());
        b.send(vec![1]).unwrap();
        b.send(vec![2]).unwrap();
        drop(b);
        // Queued messages survive the sender's death, in order.
        assert_eq!(a.recv().unwrap(), vec![1]);
        assert_eq!(a.try_recv(), Some(vec![2]));
        assert_eq!(a.recv().unwrap_err(), NetError::Disconnected);
        assert!(a.try_recv().is_none());
    }

    #[test]
    fn try_recv_nonblocking() {
        let (a, b) = channel_pair(NetworkModel::instant());
        assert!(a.try_recv().is_none());
        b.send(vec![7]).unwrap();
        // Unbounded channel delivers immediately.
        assert_eq!(a.try_recv(), Some(vec![7]));
    }

    #[test]
    fn cross_thread_transfer() {
        let (a, b) = channel_pair(NetworkModel::ethernet_10());
        let t = std::thread::spawn(move || {
            let m = b.recv().unwrap();
            b.send(m.iter().rev().copied().collect()).unwrap();
        });
        a.send(vec![1, 2, 3]).unwrap();
        assert_eq!(a.recv().unwrap(), vec![3, 2, 1]);
        t.join().unwrap();
    }

    #[test]
    fn display_covers_every_variant() {
        assert_eq!(NetError::Disconnected.to_string(), "peer disconnected");
        assert_eq!(
            NetError::MissingHandshake.to_string(),
            "no resume handshake was queued"
        );
        assert_eq!(
            NetError::ChunkFraming {
                chunk: 7,
                reason: "bad magic".into()
            }
            .to_string(),
            "chunk frame 7: bad magic"
        );
        assert_eq!(
            NetError::PeerCrashed { chunk: 4 }.to_string(),
            "peer crashed before consuming chunk 4"
        );
    }

    #[test]
    fn traced_endpoints_emit_wire_spans() {
        let log = hpm_obs::EventLog::new(hpm_obs::Level::Detail);
        let (a, b) = channel_pair(NetworkModel::ethernet_10());
        let a = a.with_track(log.track("src"));
        let b = b.with_track(log.track("dst"));
        a.send(vec![0; 256]).unwrap();
        b.recv().unwrap();
        let dump = log.dump();
        let spans = dump.spans();
        let send = spans.iter().find(|s| s.name == "net.send").unwrap();
        assert_ne!(send.end_ns, u64::MAX);
        assert!(spans.iter().any(|s| s.name == "net.recv"));
        // The send's Begin event carries payload size and modeled time.
        let (_, begin) = dump.events_of("net.send")[0];
        assert!(begin.args.iter().any(|&(k, v)| k == "bytes" && v == 256));
        assert!(begin.args.iter().any(|&(k, v)| k == "modeled_ns" && v > 0));
    }
}
