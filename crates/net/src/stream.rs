//! Chunked-stream endpoints over a [`Channel`].
//!
//! The pipelined migration path ships the memory-state payload as a
//! sequence of framed chunks (see [`hpm_xdr::frame_chunk_v2`]) so the
//! destination can start restoring while the source is still collecting.
//! [`ChunkSender`] frames and sends; [`ChunkReceiver`] unframes, checks
//! sequence numbers, and latches end-of-stream at the LAST flag.

use crate::channel::{Channel, NetError, TransferStats};
use hpm_obs::Track;
use hpm_xdr::{frame_chunk_v2, frame_chunk_v3, peek_chunk_header, unframe_chunk_any, ChunkFrame};
use std::time::Instant;

/// Which chunk-frame version a sender puts on the wire. Receivers need
/// no configuration — [`unframe_chunk_any`] detects the version by
/// magic, which is how a v3 sender interoperates with v2-era peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// v2 frames: stored payload, CRC-protected.
    #[default]
    V2,
    /// v3 frames: per-chunk compression with a stored fallback for
    /// incompressible chunks; CRC over the wire (compressed) bytes.
    V3,
}

/// Frame one outgoing chunk under `codec`, accounting raw-vs-wire
/// payload volume (and compression latency for v3) into `stats` when
/// the link exposes one. Shared by [`ChunkSender`] and the ARQ sender
/// so both paths report identical counters.
pub(crate) fn frame_outgoing(
    codec: WireCodec,
    stats: Option<&TransferStats>,
    seq: u32,
    last: bool,
    payload: &[u8],
) -> (Vec<u8>, usize) {
    match codec {
        WireCodec::V2 => {
            if let Some(s) = stats {
                s.observe_chunk_out(payload.len() as u64, payload.len() as u64, false);
            }
            (frame_chunk_v2(seq, last, payload), payload.len())
        }
        WireCodec::V3 => {
            let t0 = Instant::now();
            let (frame, wire_len) = frame_chunk_v3(seq, last, payload);
            if let Some(s) = stats {
                s.observe_chunk_out(
                    payload.len() as u64,
                    wire_len as u64,
                    wire_len < payload.len(),
                );
                s.observe_compress(t0.elapsed().as_nanos() as u64);
            }
            (frame, wire_len)
        }
    }
}

/// Expand one verified incoming frame under whatever codec the sender
/// chose, accounting decompression latency into `stats`. Fails with
/// [`NetError::ChunkFraming`] when a compressed payload does not expand
/// to its declared size (corruption the CRC cannot see: the sender
/// framed garbage).
pub(crate) fn expand_incoming(
    stats: &TransferStats,
    frame: ChunkFrame,
) -> Result<Vec<u8>, NetError> {
    if !frame.compressed {
        return Ok(frame.payload);
    }
    let seq = frame.seq;
    let t0 = Instant::now();
    let payload = frame.into_payload().map_err(|e| NetError::ChunkFraming {
        chunk: seq,
        reason: format!("compressed payload failed to expand: {e}"),
    })?;
    stats.observe_decompress(t0.elapsed().as_nanos() as u64);
    Ok(payload)
}

/// Sending side of a chunked stream: frames each payload with a
/// sequence number and a payload CRC-32 (compressing under
/// [`WireCodec::V3`]), and terminates the stream with an empty LAST
/// frame.
pub struct ChunkSender<'a> {
    ch: &'a Channel,
    seq: u32,
    codec: WireCodec,
    track: Track,
}

impl<'a> ChunkSender<'a> {
    /// A fresh stream over `ch`, starting at sequence 0.
    pub fn new(ch: &'a Channel) -> Self {
        ChunkSender {
            ch,
            seq: 0,
            codec: WireCodec::default(),
            track: Track::off(),
        }
    }

    /// Choose the frame version this stream ships (default: v2).
    pub fn with_codec(mut self, codec: WireCodec) -> Self {
        self.codec = codec;
        self
    }

    /// Record chunk events on `track` (`chunk.sent`, `stream.finish`).
    pub fn with_track(mut self, track: Track) -> Self {
        self.track = track;
        self
    }

    /// Frame and send one payload chunk.
    pub fn send(&mut self, payload: &[u8]) -> Result<(), NetError> {
        let (frame, wire_len) =
            frame_outgoing(self.codec, Some(self.ch.stats()), self.seq, false, payload);
        self.track.event(
            "chunk.sent",
            &[
                ("chunk", self.seq as u64),
                ("bytes", payload.len() as u64),
                ("wire_bytes", wire_len as u64),
            ],
        );
        self.seq += 1;
        self.ch.send(frame)
    }

    /// Terminate the stream with an empty LAST frame; returns the total
    /// number of frames sent, terminator included.
    pub fn finish(self) -> Result<u32, NetError> {
        let (frame, _) = frame_outgoing(self.codec, Some(self.ch.stats()), self.seq, true, &[]);
        self.track
            .event("stream.finish", &[("chunks", self.seq as u64 + 1)]);
        self.ch.send(frame)?;
        Ok(self.seq + 1)
    }

    /// Sequence number the next chunk will carry (== chunks sent so far).
    pub fn chunks_sent(&self) -> u32 {
        self.seq
    }
}

/// Receiving side of a chunked stream.
pub struct ChunkReceiver {
    ch: Channel,
    next_seq: u32,
    done: bool,
    track: Track,
}

impl ChunkReceiver {
    /// Wrap `ch`; the stream is expected to begin at sequence 0.
    pub fn new(ch: Channel) -> Self {
        ChunkReceiver {
            ch,
            next_seq: 0,
            done: false,
            track: Track::off(),
        }
    }

    /// Record chunk events on `track` (`chunk.recv`, `crc.fail`,
    /// `frame.bad`, `stream.done`).
    pub fn with_track(mut self, track: Track) -> Self {
        self.track = track;
        self
    }

    /// Receive the next payload chunk; `Ok(None)` once the LAST frame
    /// has arrived. Frames must arrive in sequence order — a gap or
    /// replay is a [`NetError::ChunkFraming`] error, and a v2 frame whose
    /// payload fails its CRC check is [`NetError::Corrupt`]. Once the
    /// stream is done, any further frame on the link is a protocol
    /// violation reported with the offending sequence number.
    pub fn recv_chunk(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        if self.done {
            // Nothing queued: idempotent end-of-stream. A queued frame
            // after LAST means the peer kept talking — hard error.
            let Some(frame) = self.ch.try_recv() else {
                return Ok(None);
            };
            let seq = peek_chunk_header(&frame).map_or(0, |h| h.seq);
            self.track.event("frame.bad", &[("chunk", seq as u64)]);
            return Err(NetError::ChunkFraming {
                chunk: seq,
                reason: format!("frame {seq} arrived after the LAST frame"),
            });
        }
        let frame = self.ch.recv()?;
        let parsed = unframe_chunk_any(&frame).map_err(|e| {
            self.track
                .event("frame.bad", &[("chunk", self.next_seq as u64)]);
            NetError::ChunkFraming {
                chunk: self.next_seq,
                reason: e.to_string(),
            }
        })?;
        if parsed.seq != self.next_seq {
            self.track.event(
                "frame.gap",
                &[
                    ("expected", self.next_seq as u64),
                    ("got", parsed.seq as u64),
                ],
            );
            return Err(NetError::ChunkFraming {
                chunk: self.next_seq,
                reason: format!("expected sequence {}, got {}", self.next_seq, parsed.seq),
            });
        }
        if let Err(found) = parsed.verify_crc() {
            self.track.event(
                "crc.fail",
                &[
                    ("chunk", parsed.seq as u64),
                    ("expected_crc", parsed.crc as u64),
                    ("found_crc", found as u64),
                ],
            );
            return Err(NetError::Corrupt {
                chunk: parsed.seq,
                expected_crc: parsed.crc,
                found_crc: found,
            });
        }
        self.next_seq += 1;
        self.track.event(
            "chunk.recv",
            &[
                ("chunk", parsed.seq as u64),
                ("wire_bytes", parsed.payload.len() as u64),
                ("compressed", parsed.compressed as u64),
            ],
        );
        let last = parsed.last;
        let payload = expand_incoming(self.ch.stats(), parsed)?;
        if last {
            self.done = true;
            self.track
                .event("stream.done", &[("chunks", self.next_seq as u64)]);
            if payload.is_empty() {
                return Ok(None);
            }
            return Ok(Some(payload));
        }
        Ok(Some(payload))
    }

    /// Chunks received so far (terminator included once seen).
    pub fn chunks_received(&self) -> u32 {
        self.next_seq
    }

    /// Whether the LAST frame has been consumed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Recover the underlying channel (e.g. for an acknowledgement
    /// round-trip after the stream completes).
    pub fn into_channel(self) -> Channel {
        self.ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::channel_pair;
    use crate::model::NetworkModel;

    #[test]
    fn chunks_round_trip_in_order() {
        let (a, b) = channel_pair(NetworkModel::instant());
        let mut tx = ChunkSender::new(&a);
        tx.send(&[1, 2, 3, 4]).unwrap();
        tx.send(&[5, 6, 7, 8]).unwrap();
        assert_eq!(tx.chunks_sent(), 2);
        assert_eq!(tx.finish().unwrap(), 3);

        let mut rx = ChunkReceiver::new(b);
        assert_eq!(rx.recv_chunk().unwrap(), Some(vec![1, 2, 3, 4]));
        assert_eq!(rx.recv_chunk().unwrap(), Some(vec![5, 6, 7, 8]));
        assert_eq!(rx.recv_chunk().unwrap(), None);
        assert!(rx.is_done());
        // Idempotent after the terminator.
        assert_eq!(rx.recv_chunk().unwrap(), None);
        assert_eq!(rx.chunks_received(), 3);
    }

    #[test]
    fn last_frame_with_payload_is_delivered_then_done() {
        let (a, b) = channel_pair(NetworkModel::instant());
        a.send(hpm_xdr::frame_chunk_v2(0, true, &[9, 9, 9, 9]))
            .unwrap();
        let mut rx = ChunkReceiver::new(b);
        assert_eq!(rx.recv_chunk().unwrap(), Some(vec![9, 9, 9, 9]));
        assert!(rx.is_done());
        assert_eq!(rx.recv_chunk().unwrap(), None);
    }

    #[test]
    fn sequence_gap_is_rejected() {
        let (a, b) = channel_pair(NetworkModel::instant());
        a.send(hpm_xdr::frame_chunk_v2(1, false, &[0, 0, 0, 0]))
            .unwrap();
        let mut rx = ChunkReceiver::new(b);
        match rx.recv_chunk() {
            Err(NetError::ChunkFraming { chunk, reason }) => {
                assert_eq!(chunk, 0);
                assert!(reason.contains("expected sequence 0"), "{reason}");
            }
            other => panic!("expected ChunkFraming, got {other:?}"),
        }
    }

    #[test]
    fn garbage_frame_is_rejected() {
        let (a, b) = channel_pair(NetworkModel::instant());
        a.send(vec![0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0]).unwrap();
        let mut rx = ChunkReceiver::new(b);
        match rx.recv_chunk() {
            Err(NetError::ChunkFraming { chunk, .. }) => assert_eq!(chunk, 0),
            other => panic!("expected ChunkFraming, got {other:?}"),
        }
    }

    #[test]
    fn frame_after_last_is_a_hard_error() {
        let (a, b) = channel_pair(NetworkModel::instant());
        let mut tx = ChunkSender::new(&a);
        tx.send(&[1, 2, 3, 4]).unwrap();
        tx.finish().unwrap();
        // The peer keeps talking after terminating the stream.
        a.send(hpm_xdr::frame_chunk_v2(2, false, &[5, 6, 7, 8]))
            .unwrap();
        let mut rx = ChunkReceiver::new(b);
        assert_eq!(rx.recv_chunk().unwrap(), Some(vec![1, 2, 3, 4]));
        assert_eq!(rx.recv_chunk().unwrap(), None);
        match rx.recv_chunk() {
            Err(NetError::ChunkFraming { chunk, reason }) => {
                assert_eq!(chunk, 2);
                assert!(reason.contains("after the LAST frame"), "{reason}");
            }
            other => panic!("expected ChunkFraming, got {other:?}"),
        }
    }

    #[test]
    fn recv_after_last_stays_ok_when_nothing_is_queued() {
        let (a, b) = channel_pair(NetworkModel::instant());
        ChunkSender::new(&a).finish().unwrap();
        let mut rx = ChunkReceiver::new(b);
        assert_eq!(rx.recv_chunk().unwrap(), None);
        assert_eq!(rx.recv_chunk().unwrap(), None);
    }

    #[test]
    fn corrupted_payload_is_caught_by_crc() {
        let (a, b) = channel_pair(NetworkModel::instant());
        let mut frame = hpm_xdr::frame_chunk_v2(0, false, &[1, 2, 3, 4]);
        let n = frame.len();
        frame[n - 2] ^= 0xFF; // flip a payload byte, header untouched
        a.send(frame).unwrap();
        let mut rx = ChunkReceiver::new(b);
        match rx.recv_chunk() {
            Err(NetError::Corrupt {
                chunk,
                expected_crc,
                found_crc,
            }) => {
                assert_eq!(chunk, 0);
                assert_ne!(expected_crc, found_crc);
                assert_eq!(expected_crc, hpm_xdr::crc32(&[1, 2, 3, 4]));
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn dropped_sender_surfaces_disconnect() {
        let (a, b) = channel_pair(NetworkModel::instant());
        let mut tx = ChunkSender::new(&a);
        tx.send(&[1, 2, 3, 4]).unwrap();
        drop(a);
        let mut rx = ChunkReceiver::new(b);
        assert_eq!(rx.recv_chunk().unwrap(), Some(vec![1, 2, 3, 4]));
        assert_eq!(rx.recv_chunk().unwrap_err(), NetError::Disconnected);
    }

    #[test]
    fn v3_codec_shrinks_compressible_chunks_and_accounts_them() {
        let (a, b) = channel_pair(NetworkModel::instant());
        let mut tx = ChunkSender::new(&a).with_codec(WireCodec::V3);
        let compressible = vec![7u8; 8 * 1024];
        tx.send(&compressible).unwrap();
        tx.finish().unwrap();

        let mut rx = ChunkReceiver::new(b);
        assert_eq!(rx.recv_chunk().unwrap(), Some(compressible.clone()));
        assert_eq!(rx.recv_chunk().unwrap(), None);

        let snap = a.stats().snapshot();
        assert_eq!(snap.raw_payload_bytes, compressible.len() as u64);
        assert!(
            snap.wire_payload_bytes < snap.raw_payload_bytes,
            "wire {} not below raw {}",
            snap.wire_payload_bytes,
            snap.raw_payload_bytes
        );
        assert_eq!(snap.chunks_compressed, 1);
        assert!(
            snap.compression_ratio() < 0.1,
            "{}",
            snap.compression_ratio()
        );
        assert_eq!(snap.compress_lat.count, 2); // data chunk + terminator
        assert_eq!(snap.decompress_lat.count, 1);
    }

    #[test]
    fn v3_codec_stores_incompressible_chunks_without_expansion() {
        let (a, b) = channel_pair(NetworkModel::instant());
        let mut tx = ChunkSender::new(&a).with_codec(WireCodec::V3);
        // splitmix-style noise defeats both the RLE and match finders.
        let mut s = 0x1234_5678_9abc_def0u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                s = s.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        tx.send(&noise).unwrap();
        tx.finish().unwrap();

        let mut rx = ChunkReceiver::new(b);
        assert_eq!(rx.recv_chunk().unwrap(), Some(noise.clone()));
        assert_eq!(rx.recv_chunk().unwrap(), None);

        let snap = a.stats().snapshot();
        // Stored fallback: the wire payload never exceeds the raw bytes.
        assert_eq!(snap.wire_payload_bytes, snap.raw_payload_bytes);
        assert_eq!(snap.chunks_compressed, 0);
        assert_eq!(snap.decompress_lat.count, 0);
    }

    #[test]
    fn v3_mixed_stream_roundtrips_byte_identically() {
        let (a, b) = channel_pair(NetworkModel::instant());
        let mut tx = ChunkSender::new(&a).with_codec(WireCodec::V3);
        let chunks: Vec<Vec<u8>> = vec![
            vec![0u8; 1000],
            (0..=255u8).cycle().take(3000).collect(),
            b"short".to_vec(),
            vec![],
            vec![0xAB; 7777],
        ];
        for c in &chunks {
            tx.send(c).unwrap();
        }
        tx.finish().unwrap();
        let mut rx = ChunkReceiver::new(b);
        for c in &chunks {
            assert_eq!(rx.recv_chunk().unwrap().as_ref(), Some(c));
        }
        assert_eq!(rx.recv_chunk().unwrap(), None);
    }

    #[test]
    fn corrupted_v3_compressed_payload_is_caught_by_crc() {
        let (a, b) = channel_pair(NetworkModel::instant());
        let (mut frame, wire_len) = hpm_xdr::frame_chunk_v3(0, false, &[9u8; 512]);
        assert!(wire_len < 512, "test payload must actually compress");
        // Damage a byte inside the compressed data region (padding must
        // stay zero so the frame still parses and names its sequence).
        let data_start = frame.len() - hpm_xdr::padded_len(wire_len);
        frame[data_start + wire_len / 2] ^= 0x40;
        a.send(frame).unwrap();
        let mut rx = ChunkReceiver::new(b);
        match rx.recv_chunk() {
            Err(NetError::Corrupt { chunk, .. }) => assert_eq!(chunk, 0),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn into_channel_reuses_the_link() {
        let (a, b) = channel_pair(NetworkModel::instant());
        let tx = ChunkSender::new(&a);
        tx.finish().unwrap();
        let mut rx = ChunkReceiver::new(b);
        assert_eq!(rx.recv_chunk().unwrap(), None);
        let ch = rx.into_channel();
        ch.send(b"ack".to_vec()).unwrap();
        assert_eq!(a.recv().unwrap(), b"ack");
    }
}
