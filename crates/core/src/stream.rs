//! Pull-based chunked payload for streaming restoration.
//!
//! The pipelined migration path delivers the memory-state payload as a
//! sequence of chunks rather than one contiguous buffer. [`ChunkSource`]
//! abstracts where chunks come from (a network channel, a test vector);
//! [`ChunkPayload`] reassembles them into a sequential byte stream the
//! [`Restorer`](crate::Restorer) can decode while later chunks are still
//! in flight.
//!
//! The payload keeps only a small window buffered: bytes already decoded
//! are compacted away on the next pull, so memory stays bounded by a few
//! chunks regardless of image size.

use crate::CoreError;
use std::time::{Duration, Instant};

/// A producer of payload chunks, pulled in stream order.
pub trait ChunkSource {
    /// The next chunk, `None` once the stream has ended cleanly.
    /// Blocking until a chunk arrives is expected; the time spent is
    /// accounted as stall by [`ChunkPayload`].
    fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, CoreError>;
}

/// An in-memory [`ChunkSource`] over a fixed list of chunks (tests and
/// replay tooling).
pub struct VecChunks {
    chunks: std::collections::VecDeque<Vec<u8>>,
}

impl VecChunks {
    /// Source yielding `chunks` in order.
    pub fn new(chunks: Vec<Vec<u8>>) -> Self {
        VecChunks {
            chunks: chunks.into(),
        }
    }
}

impl ChunkSource for VecChunks {
    fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, CoreError> {
        Ok(self.chunks.pop_front())
    }
}

/// A [`ChunkSource`] that replays journaled chunks before pulling live
/// ones — the rebuilt destination of a resumed migration.
///
/// The rollback invariant of the degradation ladder lives here: a
/// destination that died mid-restore is never patched in place. A fresh
/// process is built and the *entire* stream prefix is replayed from the
/// journal through the normal restore path, byte for byte, before the
/// first live (resumed) chunk is consumed — so restored state can never
/// mix a stale partial image with a new transfer.
pub struct ReplaySource {
    replay: std::collections::VecDeque<Vec<u8>>,
    live: Box<dyn ChunkSource + Send>,
    replayed_chunks: u64,
    replayed_bytes: u64,
    counters: std::sync::Arc<ReplayCounters>,
}

/// Live counters for a [`ReplaySource`], shared out because the source
/// itself disappears into the restorer.
#[derive(Debug, Default)]
pub struct ReplayCounters {
    chunks: std::sync::atomic::AtomicU64,
    bytes: std::sync::atomic::AtomicU64,
}

impl ReplayCounters {
    /// Chunks served from the journal instead of the wire.
    pub fn chunks(&self) -> u64 {
        self.chunks.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Bytes served from the journal instead of the wire.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl ReplaySource {
    /// Serve `replay` (journal payloads, in stream order) first, then
    /// pull from `live`.
    pub fn new(replay: Vec<Vec<u8>>, live: Box<dyn ChunkSource + Send>) -> Self {
        ReplaySource {
            replay: replay.into(),
            live,
            replayed_chunks: 0,
            replayed_bytes: 0,
            counters: std::sync::Arc::new(ReplayCounters::default()),
        }
    }

    /// Handle to the replay counters; survives the source being boxed.
    pub fn counters(&self) -> std::sync::Arc<ReplayCounters> {
        std::sync::Arc::clone(&self.counters)
    }
}

impl ChunkSource for ReplaySource {
    fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, CoreError> {
        if let Some(chunk) = self.replay.pop_front() {
            self.replayed_chunks += 1;
            self.replayed_bytes += chunk.len() as u64;
            self.counters
                .chunks
                .store(self.replayed_chunks, std::sync::atomic::Ordering::Relaxed);
            self.counters
                .bytes
                .store(self.replayed_bytes, std::sync::atomic::Ordering::Relaxed);
            return Ok(Some(chunk));
        }
        self.live.next_chunk()
    }
}

/// Sequential decoder state over a [`ChunkSource`].
///
/// Offers the scalar getters the restorer needs; each getter pulls
/// chunks on demand and fails with [`CoreError::TruncatedChunk`] — which
/// names the offending chunk index — if the source runs dry mid-item.
pub struct ChunkPayload {
    src: Box<dyn ChunkSource + Send>,
    buf: Vec<u8>,
    /// Read offset into `buf`.
    pos: usize,
    /// Absolute stream position of `buf[0]`.
    consumed_base: u64,
    /// `(absolute start offset, chunk index)` per received chunk.
    boundaries: Vec<(u64, u64)>,
    /// Absolute stream offset one past the last received byte.
    total_received: u64,
    /// Index the next pulled chunk will get.
    next_idx: u64,
    chunks_pulled: u64,
    eof: bool,
    stall: Duration,
}

impl ChunkPayload {
    /// Payload fed entirely by `src`.
    pub fn new(src: Box<dyn ChunkSource + Send>) -> Self {
        ChunkPayload {
            src,
            buf: Vec::new(),
            pos: 0,
            consumed_base: 0,
            boundaries: Vec::new(),
            total_received: 0,
            next_idx: 0,
            chunks_pulled: 0,
            eof: false,
            stall: Duration::ZERO,
        }
    }

    /// Payload whose first bytes arrived out-of-band (the tail of the
    /// image-prefix chunk); they count as chunk 0.
    pub fn with_initial(src: Box<dyn ChunkSource + Send>, initial: Vec<u8>) -> Self {
        let mut cp = Self::new(src);
        if !initial.is_empty() {
            cp.boundaries.push((0, 0));
            cp.total_received = initial.len() as u64;
            cp.buf = initial;
        }
        cp.next_idx = 1;
        cp
    }

    /// Absolute stream offset of the next unread byte.
    pub fn position(&self) -> u64 {
        self.consumed_base + self.pos as u64
    }

    /// Chunks pulled from the source so far.
    pub fn chunks_pulled(&self) -> u64 {
        self.chunks_pulled
    }

    /// Total time spent waiting on the source for the next chunk.
    pub fn stall_time(&self) -> Duration {
        self.stall
    }

    /// Bytes received but not yet consumed.
    pub fn buffered_remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Chunk index containing the byte at the current position (or the
    /// last chunk, if the position is at end of stream).
    pub fn current_chunk(&self) -> u64 {
        let pos = self.position();
        let i = self.boundaries.partition_point(|&(start, _)| start <= pos);
        match i.checked_sub(1) {
            Some(i) => self.boundaries[i].1,
            None => 0,
        }
    }

    fn compact(&mut self) {
        if self.pos > 0 {
            self.consumed_base += self.pos as u64;
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Pull one chunk; `Ok(false)` once the source is exhausted.
    fn pull(&mut self) -> Result<bool, CoreError> {
        if self.eof {
            return Ok(false);
        }
        let t0 = Instant::now();
        let chunk = self.src.next_chunk()?;
        self.stall += t0.elapsed();
        match chunk {
            None => {
                self.eof = true;
                Ok(false)
            }
            Some(c) => {
                self.compact();
                self.boundaries.push((self.total_received, self.next_idx));
                self.total_received += c.len() as u64;
                self.buf.extend_from_slice(&c);
                self.chunks_pulled += 1;
                self.next_idx += 1;
                Ok(true)
            }
        }
    }

    /// Pull chunks until `n` bytes are buffered or the source runs dry;
    /// the bytes buffered then.
    pub(crate) fn buffer_up_to(&mut self, n: usize) -> Result<usize, CoreError> {
        while self.buffered_remaining() < n && self.pull()? {}
        Ok(self.buffered_remaining())
    }

    fn ensure(&mut self, n: usize) -> Result<(), CoreError> {
        let available = self.buffer_up_to(n)?;
        if available < n {
            return Err(CoreError::TruncatedChunk {
                chunk: self.next_idx,
                needed: n,
                available,
            });
        }
        Ok(())
    }

    /// Read `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&[u8], CoreError> {
        self.ensure(n)?;
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// 4-byte big-endian unsigned integer.
    pub fn get_u32(&mut self) -> Result<u32, CoreError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// 4-byte big-endian signed integer.
    pub fn get_i32(&mut self) -> Result<i32, CoreError> {
        Ok(i32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// 8-byte big-endian unsigned integer.
    pub fn get_u64(&mut self) -> Result<u64, CoreError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// 8-byte big-endian signed integer.
    pub fn get_i64(&mut self) -> Result<i64, CoreError> {
        Ok(i64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// IEEE-754 single.
    pub fn get_f32(&mut self) -> Result<f32, CoreError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// IEEE-754 double.
    pub fn get_f64(&mut self) -> Result<f64, CoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Whether any payload bytes remain (pulls past empty chunks). Used
    /// for end-of-stream trailing-byte detection.
    pub fn has_remaining(&mut self) -> Result<bool, CoreError> {
        while self.buffered_remaining() == 0 {
            if !self.pull()? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload_over(chunks: Vec<Vec<u8>>) -> ChunkPayload {
        ChunkPayload::new(Box::new(VecChunks::new(chunks)))
    }

    #[test]
    fn reads_across_chunk_boundaries() {
        // A u64 split 3/5 across two chunks.
        let whole = 0x0102_0304_0506_0708u64.to_be_bytes();
        let mut cp = payload_over(vec![whole[..3].to_vec(), whole[3..].to_vec()]);
        assert_eq!(cp.get_u64().unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(cp.position(), 8);
        assert!(!cp.has_remaining().unwrap());
    }

    #[test]
    fn empty_chunks_are_skipped() {
        let mut cp = payload_over(vec![vec![], vec![0, 0, 0, 5], vec![], vec![]]);
        assert_eq!(cp.get_u32().unwrap(), 5);
        assert!(!cp.has_remaining().unwrap());
    }

    #[test]
    fn truncation_names_the_chunk() {
        let mut cp = payload_over(vec![vec![0, 0, 0, 1], vec![0, 0]]);
        cp.get_u32().unwrap();
        match cp.get_u32() {
            Err(CoreError::TruncatedChunk {
                chunk,
                needed,
                available,
            }) => {
                assert_eq!(chunk, 2, "missing bytes would be in chunk 2");
                assert_eq!(needed, 4);
                assert_eq!(available, 2);
            }
            other => panic!("expected TruncatedChunk, got {other:?}"),
        }
    }

    #[test]
    fn initial_bytes_count_as_chunk_zero() {
        let src = Box::new(VecChunks::new(vec![vec![5, 6, 7, 8]]));
        let mut cp = ChunkPayload::with_initial(src, vec![1, 2, 3, 4]);
        assert_eq!(cp.get_u32().unwrap(), 0x0102_0304);
        assert_eq!(cp.current_chunk(), 0);
        assert_eq!(cp.get_u32().unwrap(), 0x0506_0708);
        assert_eq!(cp.position(), 8);
    }

    #[test]
    fn current_chunk_tracks_position() {
        let mut cp = payload_over(vec![vec![0; 4], vec![0; 4], vec![0; 4]]);
        cp.get_u32().unwrap();
        assert_eq!(cp.current_chunk(), 0);
        cp.get_u32().unwrap();
        assert_eq!(cp.current_chunk(), 1);
        cp.get_u32().unwrap();
        assert_eq!(cp.current_chunk(), 2);
    }

    #[test]
    fn replay_source_serves_journal_chunks_before_live_ones() {
        let live = Box::new(VecChunks::new(vec![vec![9, 9], vec![8]]));
        let mut src = ReplaySource::new(vec![vec![1], vec![2, 2]], live);
        let counters = src.counters();
        assert_eq!(src.next_chunk().unwrap(), Some(vec![1]));
        assert_eq!(src.next_chunk().unwrap(), Some(vec![2, 2]));
        assert_eq!(counters.chunks(), 2);
        assert_eq!(counters.bytes(), 3);
        assert_eq!(src.next_chunk().unwrap(), Some(vec![9, 9]));
        assert_eq!(src.next_chunk().unwrap(), Some(vec![8]));
        assert_eq!(src.next_chunk().unwrap(), None);
        // Live pulls do not count as replays.
        assert_eq!(counters.chunks(), 2);
        assert_eq!(counters.bytes(), 3);
    }

    #[test]
    fn compaction_bounds_the_buffer() {
        let chunks: Vec<Vec<u8>> = (0..64).map(|_| vec![0u8; 1024]).collect();
        let mut cp = payload_over(chunks);
        for _ in 0..(64 * 1024 / 8) {
            cp.get_u64().unwrap();
        }
        assert!(cp.buf.len() <= 2 * 1024, "buffer must not accumulate");
        assert_eq!(cp.position(), 64 * 1024);
    }
}
