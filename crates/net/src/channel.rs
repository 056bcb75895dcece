//! Reliable in-process message channels between simulated machines.
//!
//! The two ends of a channel share the pipe and nothing else: each has
//! one owner, and each counts only the messages it sent, in plain fields
//! ([`Channel::stats`]). What a link carried is the sum of its ends.

use crate::model::NetworkModel;
use hpm_obs::Track;
use std::cell::Cell;
use std::sync::mpsc::{channel, Receiver, Sender};
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

/// What one end sent, or the sum over the ends and attempts of a
/// migration: the channel counts its messages, the chunk sender its
/// payload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferSnapshot {
    /// Message bytes sent.
    pub bytes_sent: u64,
    /// Messages sent.
    pub messages_sent: u64,
    /// Sum of modeled transmission times in nanoseconds.
    pub modeled_tx_nanos: u64,
    /// Chunk-payload bytes before the coder, over the chunks framed.
    pub raw_payload_bytes: u64,
    /// Chunk-payload bytes framed for the wire, after the coder.
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
/// `send` is non-blocking (the link is modeled, not throttled); each end
/// counts the messages it sent, their bytes and their modeled
/// transmission time ([`Channel::stats`]), which the migration driver
/// sums over both ends to report the `Tx` column. With a log track
/// attached ([`Channel::with_track`]) at detail level, every send/recv
/// also emits a `net.send`/`net.recv` span carrying the payload size and
/// modeled wire time, so traces show modeled-vs-wall time per message.
///
/// Each endpoint has one owner and shares nothing with its peer but the
/// pipe: it is `Send`, so it can move to the machine (thread) that uses
/// it, but not `Sync`.
pub struct Channel {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    model: NetworkModel,
    bytes_sent: Cell<u64>,
    messages_sent: Cell<u64>,
    modeled_tx_nanos: Cell<u64>,
    track: Track,
}

/// Create a connected pair of endpoints over one modeled link.
pub fn channel_pair(model: NetworkModel) -> (Channel, Channel) {
    let (tx_ab, rx_ab) = channel();
    let (tx_ba, rx_ba) = channel();
    let end = |tx, rx| Channel {
        tx,
        rx,
        model,
        bytes_sent: Cell::new(0),
        messages_sent: Cell::new(0),
        modeled_tx_nanos: Cell::new(0),
        track: Track::off(),
    };
    (end(tx_ab, rx_ba), end(tx_ba, rx_ab))
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
        self.bytes_sent.set(self.bytes_sent.get() + n);
        self.messages_sent.set(self.messages_sent.get() + 1);
        let nanos = self.modeled_tx_nanos.get() + tx_time.as_nanos() as u64;
        self.modeled_tx_nanos.set(nanos);
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

    /// What this end has sent so far (no payload accounting: that is the
    /// chunk sender's).
    pub fn stats(&self) -> TransferSnapshot {
        TransferSnapshot {
            bytes_sent: self.bytes_sent.get(),
            messages_sent: self.messages_sent.get(),
            modeled_tx_nanos: self.modeled_tx_nanos.get(),
            ..TransferSnapshot::default()
        }
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

    /// Each end counts what it sent, and only that; the two ends sum to
    /// what the link carried.
    #[test]
    fn each_end_counts_only_what_it_sent() {
        let link = NetworkModel::ethernet_100();
        let (a, b) = channel_pair(link);
        a.send(vec![0; 1000]).unwrap();
        a.send(vec![0; 24]).unwrap();
        b.send(vec![0; 500]).unwrap();
        let tx = |n| link.tx_time(n).as_nanos() as u64;
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!((sa.bytes_sent, sa.messages_sent), (1024, 2));
        assert_eq!(sa.modeled_tx_nanos, tx(1000) + tx(24));
        assert_eq!((sb.bytes_sent, sb.messages_sent), (500, 1));
        assert_eq!(sb.modeled_tx_time(), link.tx_time(500));
        // Receiving counts nothing, and a channel counts no payload.
        b.recv().unwrap();
        assert_eq!(b.stats(), sb);
        assert_eq!(sa.raw_payload_bytes + sa.wire_payload_bytes, 0);
        let mut both = sa;
        both += sb;
        assert_eq!((both.bytes_sent, both.messages_sent), (1524, 3));
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
