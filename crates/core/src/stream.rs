//! The destination's one input: a payload stream whose first bytes are
//! already in hand and whose rest may still be arriving.
//!
//! §3.1's `Restore_pointer` rebuilds blocks "from the output of
//! Save_pointer", whatever carried it. [`ChunkPayload`] is that output as
//! the [`Restorer`](crate::Restorer) reads it: a **head** borrowed from
//! the caller (a whole image's memory section, or the tail of the prefix
//! chunk of a streamed one) and an optional [`ChunkSource`] for the
//! chunks still to come. A whole image is a chunk stream that has
//! already arrived — a head and no source — so it restores straight out
//! of the caller's buffer, with the same bounds rules, errors and chunk
//! numbering as a stream restoring while later chunks are in flight.
//!
//! The head is chunk 0, so pulled chunks keep the index of their wire
//! sequence number. A resumed destination pulls its journaled chunks from
//! the same source as the live ones: the chunk receiver replays its
//! journal before it reads the link, so the restorer never tells them
//! apart. Once a chunk is pulled the payload keeps only a small
//! window buffered: bytes already decoded are compacted away on the next
//! pull, so memory stays bounded by a few chunks regardless of image size.

use crate::msrlt::LogicalId;
use crate::CoreError;
use std::borrow::Cow;
use std::collections::VecDeque;

/// A producer of payload chunks, pulled in stream order.
pub trait ChunkSource {
    /// The next chunk, `None` once the stream has ended cleanly.
    /// Blocking until a chunk arrives is expected.
    fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, CoreError>;
}

/// An in-memory [`ChunkSource`] over a fixed list of chunks (tests and
/// replay tooling).
pub struct VecChunks {
    chunks: VecDeque<Vec<u8>>,
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

/// Share of an announced heap block's minimum wire size that a stream
/// still arriving must have buffered before the block is allocated (see
/// [`ChunkPayload::check_room`]): an honest stream is at most this far
/// ahead of its own bytes, and then only until the next chunks arrive.
const PULL_SHARE: u64 = 64;

/// Sequential reader over a borrowed head and the chunks that follow it.
///
/// Every read is served from the buffered window when it holds enough,
/// else pulls chunks on demand, and fails with
/// [`CoreError::TruncatedChunk`] — naming the chunk in which the stream
/// ran dry — if the stream ends mid-item.
pub struct ChunkPayload<'h> {
    /// Received bytes not yet compacted away: the caller's head, borrowed,
    /// until the first pull turns the unread rest into an owned window.
    buf: Cow<'h, [u8]>,
    /// Read offset into `buf`.
    pos: usize,
    /// Absolute stream offset of `buf[0]`.
    base: u64,
    /// Chunks still to come; `None` once the stream is known complete.
    more: Option<Box<dyn ChunkSource + Send + 'h>>,
    /// Absolute start offset of each pulled chunk (chunk `i + 1` starts
    /// at `starts[i]`).
    starts: Vec<u64>,
}

impl Default for ChunkPayload<'_> {
    /// The empty, complete stream.
    fn default() -> Self {
        ChunkPayload::new(&[], None)
    }
}

impl<'h> ChunkPayload<'h> {
    /// The stream whose chunk 0 is `head`, continued by `more` (`None`: the
    /// stream is complete). `head` is read in place, never copied.
    pub fn new(head: &'h [u8], more: Option<Box<dyn ChunkSource + Send + 'h>>) -> Self {
        ChunkPayload {
            buf: Cow::Borrowed(head),
            pos: 0,
            base: 0,
            more,
            starts: Vec::new(),
        }
    }

    /// Absolute stream offset of the next unread byte.
    pub fn position(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Payload bytes received so far, read or not.
    pub(crate) fn received(&self) -> u64 {
        self.base + self.buf.len() as u64
    }

    fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Index of the chunk holding the next unread byte (the last chunk
    /// received, at end of stream).
    fn current_chunk(&self) -> u64 {
        let pos = self.position();
        self.starts.partition_point(|&start| start <= pos) as u64
    }

    /// Pull one chunk; `Ok(false)` once the stream is complete.
    fn pull(&mut self) -> Result<bool, CoreError> {
        let Some(src) = self.more.as_mut() else {
            return Ok(false);
        };
        let Some(chunk) = src.next_chunk()? else {
            self.more = None;
            return Ok(false);
        };
        self.base += self.pos as u64;
        self.starts.push(self.base + self.buffered() as u64);
        if self.buffered() == 0 {
            // Nothing is left unread (chunks are cut between items): the
            // chunk becomes the window as it came, uncopied.
            self.buf = Cow::Owned(chunk);
        } else {
            match &mut self.buf {
                Cow::Owned(window) => {
                    window.drain(..self.pos);
                }
                Cow::Borrowed(head) => self.buf = Cow::Owned(head[self.pos..].to_vec()),
            }
            self.buf.to_mut().extend_from_slice(&chunk);
        }
        self.pos = 0;
        Ok(true)
    }

    /// Pull chunks until `n` bytes are buffered or the stream is
    /// complete; the bytes buffered then.
    fn buffer_up_to(&mut self, n: usize) -> Result<usize, CoreError> {
        while self.buffered() < n && self.pull()? {}
        Ok(self.buffered())
    }

    /// `take`'s slow path, kept out of line so the in-buffer read stays
    /// one length check: pull until `n` bytes are buffered, or name the
    /// chunk the stream ran dry in.
    #[cold]
    #[inline(never)]
    fn fill(&mut self, n: usize) -> Result<(), CoreError> {
        let available = self.buffer_up_to(n)?;
        if available < n {
            return Err(CoreError::TruncatedChunk {
                chunk: self.starts.len() as u64,
                needed: n,
                available,
            });
        }
        Ok(())
    }

    /// Borrow the next `n` raw payload bytes (the bulk-copy read
    /// primitive; `n` is a multiple of 4 so XDR framing holds).
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&[u8], CoreError> {
        if self.buffered() < n {
            self.fill(n)?;
        }
        let at = self.pos;
        self.pos += n;
        Ok(&self.buf[at..self.pos])
    }

    /// The bytes already buffered past the read position, at most `n`:
    /// a look ahead that reads nothing and never pulls a chunk.
    #[inline]
    pub(crate) fn ahead(&self, n: usize) -> &[u8] {
        let rest = &self.buf[self.pos..];
        &rest[..n.min(rest.len())]
    }

    /// 4-byte big-endian unsigned integer.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, CoreError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// 8-byte big-endian unsigned integer.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, CoreError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Refuse, before anything is allocated for it, a block of `count`
    /// elements whose contents take at least `need` wire bytes (`None`:
    /// more than a `u64` counts) when the stream cannot hold them. A
    /// complete stream knows what it has left and must hold all of it. A
    /// stream still arriving does not know its length, so it has to have
    /// delivered a [`PULL_SHARE`]th of the bytes first: a few announced
    /// bytes cannot claim gigabytes.
    pub(crate) fn check_room(
        &mut self,
        id: LogicalId,
        count: u64,
        need: Option<u64>,
    ) -> Result<(), CoreError> {
        if let Some(need) = need {
            let need = match self.more {
                None => need,
                Some(_) => need / PULL_SHARE,
            };
            let need = usize::try_from(need).unwrap_or(usize::MAX);
            if self.buffer_up_to(need)? >= need {
                return Ok(());
            }
        }
        Err(CoreError::BlockExceedsPayload {
            id,
            count,
            available: self.buffered() as u64,
        })
    }

    /// Succeed only if the stream is exhausted (pulling past empty
    /// chunks); else [`CoreError::TrailingBytes`] names the leftover bytes
    /// buffered and the chunk holding the first of them.
    pub fn expect_end(&mut self) -> Result<(), CoreError> {
        match self.buffer_up_to(1)? {
            0 => Ok(()),
            bytes => Err(CoreError::TrailingBytes {
                bytes,
                chunk: self.current_chunk(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload_over(chunks: Vec<Vec<u8>>) -> ChunkPayload<'static> {
        ChunkPayload::new(&[], Some(Box::new(VecChunks::new(chunks))))
    }

    #[test]
    fn reads_across_chunk_boundaries() {
        // A u64 split 3/5 across two chunks.
        let whole = 0x0102_0304_0506_0708u64.to_be_bytes();
        let mut cp = payload_over(vec![whole[..3].to_vec(), whole[3..].to_vec()]);
        assert_eq!(cp.get_u64().unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(cp.position(), 8);
        cp.expect_end().unwrap();
    }

    #[test]
    fn empty_chunks_are_skipped() {
        let mut cp = payload_over(vec![vec![], vec![0, 0, 0, 5], vec![], vec![]]);
        assert_eq!(cp.get_u32().unwrap(), 5);
        cp.expect_end().unwrap();
    }

    #[test]
    fn truncation_names_the_chunk() {
        // The empty head is chunk 0; the stream runs dry in chunk 2.
        let mut cp = payload_over(vec![vec![0, 0, 0, 1], vec![0, 0]]);
        cp.get_u32().unwrap();
        assert_eq!(
            cp.get_u32(),
            Err(CoreError::TruncatedChunk {
                chunk: 2,
                needed: 4,
                available: 2,
            })
        );
        // A whole payload is chunk 0 and nothing after it.
        let mut whole = ChunkPayload::new(&[0, 0, 0, 1, 0, 0], None);
        whole.get_u32().unwrap();
        assert_eq!(
            whole.get_u32(),
            Err(CoreError::TruncatedChunk {
                chunk: 0,
                needed: 4,
                available: 2,
            })
        );
    }

    #[test]
    fn trailing_bytes_name_their_chunk() {
        let mut whole = ChunkPayload::new(&[0, 0, 0, 1, 9, 9, 9, 9], None);
        whole.get_u32().unwrap();
        assert_eq!(
            whole.expect_end(),
            Err(CoreError::TrailingBytes { bytes: 4, chunk: 0 })
        );
        let more = Box::new(VecChunks::new(vec![vec![], vec![9, 9, 9, 9]]));
        let mut streamed = ChunkPayload::new(&[0, 0, 0, 1], Some(more));
        streamed.get_u32().unwrap();
        assert_eq!(
            streamed.expect_end(),
            Err(CoreError::TrailingBytes { bytes: 4, chunk: 2 })
        );
    }

    #[test]
    fn reads_straddling_the_head_and_the_first_pulled_chunk_are_byte_exact() {
        let words: Vec<u8> = (1..=16u8).collect();
        // A u32 split 2/2 and a u64 split 6/2, head against chunk 1.
        for (head_len, read) in [(2, 4), (6, 8)] {
            let more = Box::new(VecChunks::new(vec![words[head_len..].to_vec()]));
            let mut cp = ChunkPayload::new(&words[..head_len], Some(more));
            let got = if read == 4 {
                u64::from(cp.get_u32().unwrap())
            } else {
                cp.get_u64().unwrap()
            };
            let want = words[..read]
                .iter()
                .fold(0u64, |w, &b| w << 8 | u64::from(b));
            assert_eq!(got, want, "head {head_len}");
            assert_eq!(cp.current_chunk(), 1);
        }
        // A multi-word take over the head's last word and two chunks.
        let more = Box::new(VecChunks::new(vec![
            words[4..8].to_vec(),
            words[8..].to_vec(),
        ]));
        let mut cp = ChunkPayload::new(&words[..4], Some(more));
        assert_eq!(cp.take(2).unwrap(), &words[..2]);
        assert_eq!(cp.take(12).unwrap(), &words[2..14]);
        assert_eq!(cp.take(2).unwrap(), &words[14..]);
        cp.expect_end().unwrap();
    }

    #[test]
    fn a_take_from_the_head_borrows_the_callers_buffer() {
        let head: Vec<u8> = (0..64).collect();
        let range = head.as_ptr_range();
        let more = Box::new(VecChunks::new(vec![vec![0; 8]]));
        for mut cp in [
            ChunkPayload::new(&head, None),
            ChunkPayload::new(&head, Some(more)),
        ] {
            cp.get_u32().unwrap();
            let taken = cp.take(32).unwrap().as_ptr_range();
            assert!(
                range.start <= taken.start && taken.end <= range.end,
                "the head was copied"
            );
        }
    }

    #[test]
    fn current_chunk_tracks_position() {
        let mut cp = payload_over(vec![vec![0; 4], vec![0; 4], vec![0; 4]]);
        cp.get_u32().unwrap();
        assert_eq!(cp.current_chunk(), 1);
        cp.get_u32().unwrap();
        assert_eq!(cp.current_chunk(), 2);
        cp.get_u32().unwrap();
        assert_eq!(cp.current_chunk(), 3);
    }

    #[test]
    fn room_is_exact_when_complete_and_a_share_while_arriving() {
        let id = LogicalId { group: 1, index: 0 };
        let refused = |available| CoreError::BlockExceedsPayload {
            id,
            count: 1,
            available,
        };
        let head = [0u8; 64];
        let mut whole = ChunkPayload::new(&head, None);
        assert_eq!(whole.check_room(id, 1, Some(64)), Ok(()));
        assert_eq!(whole.check_room(id, 1, Some(65)), Err(refused(64)));
        assert_eq!(whole.check_room(id, 1, None), Err(refused(64)));
        let more = Box::new(VecChunks::new(vec![vec![0; 64]]));
        let mut arriving = ChunkPayload::new(&head, Some(more));
        assert_eq!(arriving.check_room(id, 1, Some(128 * PULL_SHARE)), Ok(()));
        assert_eq!(
            arriving.check_room(id, 1, Some(129 * PULL_SHARE)),
            Err(refused(128))
        );
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
