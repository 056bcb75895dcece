//! Deterministic block compression for the chunk frame.
//!
//! The migration payload is highly repetitive — zero-filled pages, runs
//! of identical array elements, repeated pointer-header shapes — so even
//! a small LZ-style coder removes most of the wire volume. This module
//! is deliberately dependency-free and fully deterministic: the same
//! input bytes produce the same compressed bytes on every platform, so
//! compressed streams can be CRC'd, journaled, and replayed in
//! seed-driven soak tests without ever diverging.
//!
//! ## Stream format
//!
//! The compressed stream is one mode byte followed by tagged tokens:
//!
//! ```text
//! mode 0x00                         tokens encode the input directly
//! mode 0x01                         tokens encode the byte-plane
//!                                   transpose of the input (stride 8)
//! 0x00 varint(len) byte[len]        literal run
//! 0x01 varint(len) byte             RLE run: byte repeated len times
//! 0x02 varint(len) varint(dist)     match: copy len bytes from dist back
//! ```
//!
//! `varint` is LEB128 (7 payload bits per byte, high bit = continue).
//! Matches may overlap their own output (`dist < len`), which is how
//! long period-k repetitions compress. The decoder validates every
//! token against the declared output size and the available history, so
//! corrupt or truncated input yields an error, never a panic or an
//! out-of-bounds copy.
//!
//! Mode 0x01 exists for the payload's dominant shape: arrays of 8-byte
//! scalars (f64 matrix cells, u64 pointers and headers) whose values use
//! only a few significant bytes each. Interleaved, such data defeats the
//! tokenizer — every 8-byte element is a ~3-byte literal plus a ~5-byte
//! zero run, and the per-token overhead cancels the savings.
//! De-interleaved into 8 byte-planes, the near-constant planes become
//! chunk-long runs and the coder wins big. Every input of at least 64
//! bytes is planed and coded in 8-byte windows, which see repeats that
//! a 4-byte window's short, nearby match hides in a low-entropy plane
//! (the 128 KiB period of linpack's matrix). Shorter inputs are coded as
//! they are (mode 0x00), which earlier coders also chose for long ones.
//!
//! Callers that must never expand use [`compress`]'s return contract:
//! when the token stream would be no smaller than the input, the caller
//! stores the raw bytes instead (the chunk frame records which choice was
//! made — see [`crate::chunk`]).

use std::cell::RefCell;

use crate::XdrError;

/// Minimum run (and delta-coder match) worth encoding: tag + varints ~3 bytes.
const MIN_MATCH: usize = 4;

/// The chunk coder's window, hashed and matched whole: its shortest match.
const WINDOW: usize = 8;

/// Minimum length of a match into the dictionary: its distance alone
/// is a 3-4 byte varint, and it splits a literal run in two.
const DICT_MIN_MATCH: usize = 8;

/// A dictionary match this long, found off the aligned offset, moves
/// the aligned offset to where it landed.
const RESYNC_MATCH: usize = 32;

/// Hash table size, log2: a slot per 8 to 16 dictionary bytes, within
/// these bounds (the lower is the table of the dictionary-less coder).
const HASH_BITS: u32 = 15;
const MAX_HASH_BITS: u32 = 20;

/// The chunk coder's step past a window that found nothing grows by one
/// every `2^MISS_STEP_SHIFT` consecutive misses.
const MISS_STEP_SHIFT: u32 = 6;

const TAG_LIT: u8 = 0x00;
const TAG_RLE: u8 = 0x01;
const TAG_MATCH: u8 = 0x02;

/// Tokens encode the input bytes as-is.
const MODE_PLAIN: u8 = 0x00;
/// Tokens encode the stride-8 byte-plane transpose of the input.
const MODE_PLANED: u8 = 0x01;

/// Byte-plane stride: the width of the scalars that dominate migration
/// payloads (f64 cells, u64 pointers/headers).
const PLANE_STRIDE: usize = 8;

/// Transpose the 8×8 byte matrix held one row per word: byte `c` of
/// `x[r]` trades places with byte `r` of `x[c]`. Its own inverse.
#[inline]
fn transpose_8x8(x: &mut [u64; 8]) {
    // Swap the off-diagonal 4×4 blocks, then 2×2 inside each, then bytes.
    for i in 0..4 {
        let t = ((x[i] >> 32) ^ x[i + 4]) & 0x0000_0000_FFFF_FFFF;
        x[i] ^= t << 32;
        x[i + 4] ^= t;
    }
    for i in [0, 1, 4, 5] {
        let t = ((x[i] >> 16) ^ x[i + 2]) & 0x0000_FFFF_0000_FFFF;
        x[i] ^= t << 16;
        x[i + 2] ^= t;
    }
    for i in [0, 2, 4, 6] {
        let t = ((x[i] >> 8) ^ x[i + 1]) & 0x00FF_00FF_00FF_00FF;
        x[i] ^= t << 8;
        x[i + 1] ^= t;
    }
}

#[inline]
fn load_word(s: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(s[at..at + 8].try_into().expect("8 bytes"))
}

/// Overwrite `out` with `data` de-interleaved into [`PLANE_STRIDE`]
/// byte-planes (`TO_PLANES`), or with planes interleaved back into rows
/// (its exact inverse). The tail that doesn't fill a full stride group
/// stays where it is. Eight rows at a time: eight word loads, one
/// register transpose, eight word stores.
fn replane<const TO_PLANES: bool>(data: &[u8], out: &mut Vec<u8>) {
    let rows = data.len() / PLANE_STRIDE;
    let head = rows * PLANE_STRIDE;
    let blocked = rows - rows % 8;
    // Every byte is written below, so a reused buffer is not cleared.
    out.resize(data.len(), 0);
    for r in (0..blocked).step_by(8) {
        // Word `k` of row `r + k`, and eight bytes of plane `k` from row `r`.
        let (row, plane) = (|k| (r + k) * PLANE_STRIDE, |k| k * rows + r);
        let mut x = [0u64; 8];
        for (k, w) in x.iter_mut().enumerate() {
            *w = load_word(data, if TO_PLANES { row(k) } else { plane(k) });
        }
        transpose_8x8(&mut x);
        for (k, w) in x.iter().enumerate() {
            let at = if TO_PLANES { plane(k) } else { row(k) };
            out[at..][..8].copy_from_slice(&w.to_le_bytes());
        }
    }
    for r in blocked..rows {
        for p in 0..PLANE_STRIDE {
            let (row, plane) = (r * PLANE_STRIDE + p, p * rows + r);
            if TO_PLANES {
                out[plane] = data[row];
            } else {
                out[row] = data[plane];
            }
        }
    }
    out[head..].copy_from_slice(&data[head..]);
}

fn put_varint(out: &mut Vec<u8>, v: usize) {
    put_varint_u64(out, v as u64);
}

/// A token's varint: 5 bytes bound it at 35 bits, far beyond any chunk.
fn get_varint(data: &[u8], pos: &mut usize) -> Result<usize, XdrError> {
    let start = *pos;
    let v = get_varint_u64(data, pos)?;
    if *pos - start > 5 {
        return Err(XdrError::LengthTooLarge(u32::MAX));
    }
    Ok(v as usize)
}

/// LEB128 over the full `u64` range (at most 10 bytes). The token
/// varints above are bounded at 35 bits because chunk sizes are small;
/// the delta framing carries 64-bit lengths, ids, and digests, so it
/// gets its own unclamped pair.
pub fn put_varint_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

/// Decode a varint written by [`put_varint_u64`]. Continuation past the
/// 64-bit capacity (or a final byte overflowing it) is an error, never
/// a silent wrap.
pub fn get_varint_u64(data: &[u8], pos: &mut usize) -> Result<u64, XdrError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = *data.get(*pos).ok_or(XdrError::UnexpectedEof {
            needed: 1,
            remaining: 0,
        })?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err(XdrError::LengthTooLarge(u32::MAX));
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Length of the common prefix of `a` and `b`, compared a word at a time.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut i = 0;
    while i + 8 <= n {
        let diff = load_word(a, i) ^ load_word(b, i);
        if diff != 0 {
            return i + (diff.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

fn flush_literals(out: &mut Vec<u8>, data: &[u8], start: usize, end: usize) {
    if end > start {
        out.push(TAG_LIT);
        put_varint(out, end - start);
        out.extend_from_slice(&data[start..end]);
    }
}

/// Compress `data` into the mode-prefixed token stream. Deterministic:
/// identical input always yields identical output. The result may be
/// larger than the input for incompressible data — callers compare
/// lengths and fall back to a stored block (see
/// [`crate::chunk::frame_chunk`]).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    compress_into(data, &mut out);
    out
}

/// [`compress`], appending the stream to `out`: the chunk frame
/// tokenizes straight into itself.
pub(crate) fn compress_into(data: &[u8], out: &mut Vec<u8>) {
    if data.is_empty() {
        return;
    }
    MATCHER.with_borrow_mut(|m| {
        // The plane filter only has planes to work with past one full
        // stride group per plane.
        if data.len() < PLANE_STRIDE * PLANE_STRIDE {
            out.push(MODE_PLAIN);
            m.tokenize(data, out);
        } else {
            out.push(MODE_PLANED);
            let mut planes = std::mem::take(&mut m.planes);
            replane::<true>(data, &mut planes);
            m.tokenize(&planes, out);
            m.planes = planes;
        }
    })
}

/// Compress `data` against a dictionary: the token stream covers only
/// the `data` bytes, but matches may reach back into `dict`, so content
/// already present in the dictionary costs a few bytes per run instead
/// of being re-sent. This is the wire encoding of a delta image: `dict`
/// is the retained base image, `data` the new one, and the stream is a
/// byte-exact recipe for rebuilding `data` from `dict`.
///
/// Unlike [`compress`], there is no mode byte and no plane filter — the
/// stream is a bare token sequence consumed by
/// [`decompress_with_dict`], and determinism is preserved (identical
/// `(dict, data)` always yields identical output).
pub fn compress_with_dict(dict: &[u8], data: &[u8]) -> Vec<u8> {
    tokenize_with_dict(dict, data)
}

/// Expand a token stream produced by [`compress_with_dict`] back into
/// the `data` it encoded, which must be exactly `raw_len` bytes. The
/// same `dict` bytes must be supplied; matches are validated against
/// the combined history, so a wrong or truncated dictionary yields an
/// error, never garbage output.
pub fn decompress_with_dict(dict: &[u8], ops: &[u8], raw_len: usize) -> Result<Vec<u8>, XdrError> {
    // `raw_len` is a claim read off the wire: reserve no more than the
    // input could account for and let validated tokens grow the rest.
    let mut out = Vec::with_capacity(raw_len.min(dict.len().saturating_add(ops.len())));
    detokenize_into(dict, ops, &mut out, raw_len)?;
    Ok(out)
}

/// The 4-byte window at `data[i..]`, as the hash and the run test read it.
#[inline]
fn load_window(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(data[i..i + 4].try_into().expect("4 bytes"))
}

#[inline]
fn hash_window(w: u32, bits: u32) -> usize {
    (w.wrapping_mul(0x9E37_79B1) >> (32 - bits)) as usize
}

/// The chunk coder's hash table and plane buffer, kept from one call to
/// the next so a chunk does not pay for allocating them again (the
/// table, 128 KiB, is exactly glibc's `mmap` threshold). Nothing a call
/// stored can reach a later call's output: entries carry the epoch
/// `base`, and one at or below it reads as an empty slot.
struct Matcher {
    /// `base + position + 1` of the latest window with each hash.
    table: Box<[u32]>,
    base: u32,
    /// The byte-planes of the input being coded.
    planes: Vec<u8>,
}

thread_local! {
    static MATCHER: RefCell<Matcher> = RefCell::new(Matcher::new());
    /// The decoder's byte-planes, before they are interleaved into rows.
    static PLANES: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

impl Matcher {
    fn new() -> Self {
        Matcher {
            table: vec![0; 1 << HASH_BITS].into_boxed_slice(),
            base: 0,
            planes: Vec::new(),
        }
    }

    /// Run the LZ/RLE coder over `data`, appending the token stream to
    /// `out`. This is the coder of the compressed chunk path and it takes no
    /// dictionary: sharing one loop with [`tokenize_with_dict`] cost that
    /// path a quarter of its speed.
    ///
    /// A [`WINDOW`] is a run when its first [`MIN_MATCH`] bytes are equal,
    /// a match when its hash's entry points at an earlier equal window,
    /// and otherwise a miss. The step to the next window grows by one for
    /// every 2^[`MISS_STEP_SHIFT`] misses in a row, so a chunk with nothing
    /// to find (the mantissa bytes of doubles) is crossed at a fraction of
    /// a probe per byte. Any run or match resets the step to one.
    fn tokenize(&mut self, data: &[u8], out: &mut Vec<u8>) {
        let n = data.len();
        if n >= (u32::MAX - self.base) as usize {
            self.table.fill(0);
            self.base = 0;
        }
        let base = self.base;
        // A stream too long for the epoch to cover forces the reset above
        // on the next call.
        self.base = u32::try_from(n).map_or(u32::MAX, |n| base + n);
        let table = &mut self.table[..1 << HASH_BITS];
        let (mut i, mut lit_start, mut misses) = (0, 0, 0usize);
        while i + WINDOW <= n {
            let w = load_word(data, i);
            let h = (w.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - HASH_BITS)) as usize;
            let entry = table[h];
            table[h] = base.wrapping_add(i as u32).wrapping_add(1);
            // Empty and stale entries wrap to a position at or past `i`.
            let c = (entry.wrapping_sub(base) as usize).wrapping_sub(1);
            let head = w as u32;
            let covered = if head == head.rotate_left(8) {
                // RLE fast path: a run of >= MIN_MATCH identical bytes.
                // Its first window is hashed (above) so a match spanning
                // the run boundary is still found; the rest of it is not.
                let run = 1 + common_prefix(&data[i..], &data[i + 1..]);
                flush_literals(out, data, lit_start, i);
                out.push(TAG_RLE);
                put_varint(out, run);
                out.push(data[i]);
                run
            } else if c < i && load_word(data, c) == w {
                let len = WINDOW + common_prefix(&data[c + WINDOW..], &data[i + WINDOW..]);
                flush_literals(out, data, lit_start, i);
                out.push(TAG_MATCH);
                put_varint(out, len);
                put_varint(out, i - c);
                len
            } else {
                i += 1 + (misses >> MISS_STEP_SHIFT);
                misses += 1;
                continue;
            };
            i += covered;
            (lit_start, misses) = (i, 0);
        }
        flush_literals(out, data, lit_start, n);
    }
}

/// Run the LZ/RLE coder over `data` against `dict`, producing the raw
/// token stream. Match distances count back through `data` and then
/// through `dict`, as if `dict` were history emitted before the first
/// token.
///
/// Each position first tries the *aligned* candidates in `dict` — where
/// the last long dictionary match says the base now stands — so an
/// unchanged region of any length is one match found at compare speed.
/// RLE and the hash search, whose table the dictionary seeds on the
/// first miss, run only inside dirty regions.
fn tokenize_with_dict(dict: &[u8], data: &[u8]) -> Vec<u8> {
    let (d, n) = (dict.len(), data.len());
    let mut out = Vec::with_capacity(n / 2 + 16);
    let bits = (usize::BITS - (d >> 4).leading_zeros()).clamp(HASH_BITS, MAX_HASH_BITS);
    let hash = |s: &[u8], i: usize| hash_window(load_window(s, i), bits);
    // Most recent position (+1; 0 = empty) for each 4-byte hash, in the
    // combined numbering: `dict` first, then `data`.
    let mut table = vec![0u32; 1 << bits];
    let mut seeded = d == 0;
    // Where the last long dictionary match started relative to `data`,
    // and where in `dict` it ended.
    let (mut shift, mut stall) = (0isize, 0usize);
    let emit_match = |out: &mut Vec<u8>, lit_start: usize, i: usize, len: usize, from: usize| {
        flush_literals(out, data, lit_start, i);
        out.push(TAG_MATCH);
        put_varint(out, len);
        put_varint(out, d + i - from);
    };
    let (mut i, mut lit_start) = (0, 0);
    'next: while i < n {
        // The base either kept pace with the bytes since that match (an
        // edit in place) or stands where it ended (an insertion).
        for from in [i.wrapping_add_signed(shift), stall] {
            if from < d {
                let len = common_prefix(&dict[from..], &data[i..]);
                if len >= DICT_MIN_MATCH {
                    emit_match(&mut out, lit_start, i, len, from);
                    (shift, stall) = (from as isize - i as isize, from + len);
                    i += len;
                    lit_start = i;
                    continue 'next;
                }
            }
        }
        if !seeded {
            seeded = true;
            for (j, w) in dict.windows(MIN_MATCH).enumerate() {
                table[hash(w, 0)] = (j + 1) as u32;
            }
        }
        // RLE fast path: a run of >= MIN_MATCH identical bytes.
        let b = data[i];
        let mut run = 1;
        while i + run < n && data[i + run] == b {
            run += 1;
        }
        if run >= MIN_MATCH {
            flush_literals(&mut out, data, lit_start, i);
            out.push(TAG_RLE);
            put_varint(&mut out, run);
            out.push(b);
            // Seed the hash table sparsely through the run so matches
            // spanning the run boundary are still found.
            if i + MIN_MATCH <= n {
                table[hash(data, i)] = (d + i + 1) as u32;
            }
            i += run;
            lit_start = i;
            continue;
        }
        // LZ match via the hash table.
        if i + MIN_MATCH <= n {
            let h = hash(data, i);
            let cand = table[h] as usize;
            table[h] = (d + i + 1) as u32;
            if cand != 0 {
                let c = cand - 1;
                // A dictionary match pays a far distance: it must be
                // longer to beat the literals it replaces.
                let (past, min) = if c < d {
                    (&dict[c..], DICT_MIN_MATCH)
                } else {
                    (&data[c - d..], MIN_MATCH)
                };
                let len = if past.starts_with(&data[i..i + MIN_MATCH]) {
                    common_prefix(past, &data[i..])
                } else {
                    0
                };
                if len >= min {
                    if c < d && len >= RESYNC_MATCH {
                        (shift, stall) = (c as isize - i as isize, c + len);
                    }
                    emit_match(&mut out, lit_start, i, len, c);
                    i += len;
                    lit_start = i;
                    continue;
                }
            }
        }
        i += 1;
    }
    flush_literals(&mut out, data, lit_start, n);
    out
}

/// Decompress a stream produced by [`compress`], which must expand to
/// exactly `raw_len` bytes. Corrupt input — bad modes or tags, overlong
/// runs, matches reaching before the start of the output — is an error.
pub fn decompress(data: &[u8], raw_len: usize) -> Result<Vec<u8>, XdrError> {
    // The empty stream is the empty input's.
    let (&mode, tokens) = data.split_first().unwrap_or((&MODE_PLAIN, &[]));
    if mode != MODE_PLAIN && mode != MODE_PLANED {
        return Err(XdrError::BadMagic(mode as u32));
    }
    // `raw_len` is a claim read off the wire. Reserve it once the tokens'
    // own lengths add up to it, and otherwise no more than the input's
    // own size, letting validated tokens grow the rest.
    let sized = expanded_len(tokens, raw_len) == Some(raw_len);
    let reserve = raw_len.min(if sized { raw_len } else { data.len() });
    if mode == MODE_PLAIN {
        let mut out = Vec::with_capacity(reserve);
        return detokenize_into(&[], tokens, &mut out, raw_len).map(|()| out);
    }
    PLANES.with_borrow_mut(|planes| {
        planes.clear();
        planes.reserve(reserve);
        if let Err(e) = detokenize_into(&[], tokens, planes, raw_len) {
            *planes = Vec::new(); // keep nothing a hostile claim grew
            return Err(e);
        }
        // Zeroed, a large buffer is fresh pages, not a pass over them.
        let mut out = vec![0; raw_len];
        replane::<false>(planes, &mut out);
        Ok(out)
    })
}

/// The sum of the lengths of well-formed `tokens`, read off their
/// headers alone, while it is at most `limit`.
fn expanded_len(tokens: &[u8], limit: usize) -> Option<usize> {
    let (mut pos, mut sum) = (0, 0usize);
    while pos < tokens.len() && sum <= limit {
        let tag = tokens[pos];
        pos += 1;
        let len = get_varint(tokens, &mut pos).ok()?;
        sum = sum.saturating_add(len);
        pos = match tag {
            TAG_LIT => pos.saturating_add(len),
            TAG_RLE => pos + 1,
            TAG_MATCH => get_varint(tokens, &mut pos).map(|_| pos).ok()?,
            _ => return None,
        };
    }
    (pos == tokens.len()).then_some(sum)
}

/// Expand a token stream into the empty `out`. Matches may reach past
/// the start of `out` into `dict`, the history that precedes it. On
/// success `out.len() == raw_len` exactly.
fn detokenize_into(
    dict: &[u8],
    data: &[u8],
    out: &mut Vec<u8>,
    raw_len: usize,
) -> Result<(), XdrError> {
    let mut pos = 0usize;
    while pos < data.len() {
        let tag = data[pos];
        pos += 1;
        match tag {
            TAG_LIT => {
                let len = get_varint(data, &mut pos)?;
                if len == 0 || len > raw_len - out.len() {
                    return Err(XdrError::LengthTooLarge(len as u32));
                }
                let end = pos
                    .checked_add(len)
                    .ok_or(XdrError::LengthTooLarge(len as u32))?;
                if end > data.len() {
                    return Err(XdrError::UnexpectedEof {
                        needed: len,
                        remaining: data.len() - pos,
                    });
                }
                out.extend_from_slice(&data[pos..end]);
                pos = end;
            }
            TAG_RLE => {
                let len = get_varint(data, &mut pos)?;
                if len == 0 || len > raw_len - out.len() {
                    return Err(XdrError::LengthTooLarge(len as u32));
                }
                let b = *data.get(pos).ok_or(XdrError::UnexpectedEof {
                    needed: 1,
                    remaining: 0,
                })?;
                pos += 1;
                out.resize(out.len() + len, b);
            }
            TAG_MATCH => {
                let mut len = get_varint(data, &mut pos)?;
                let dist = get_varint(data, &mut pos)?;
                if len == 0 || len > raw_len - out.len() {
                    return Err(XdrError::LengthTooLarge(len as u32));
                }
                if dist == 0 || dist > dict.len() + out.len() {
                    return Err(XdrError::LengthTooLarge(dist as u32));
                }
                if dist > out.len() {
                    // Starts in the dictionary; whatever runs off its
                    // end continues from the first byte of `out`.
                    let from = dict.len() + out.len() - dist;
                    let head = len.min(dict.len() - from);
                    out.extend_from_slice(&dict[from..from + head]);
                    len -= head;
                }
                if len > 0 {
                    // An overlapping match (`dist < len`) repeats its own
                    // output from `start`: each copy doubles what it reaches.
                    let start = out.len() - dist;
                    while len > 0 {
                        let n = len.min(out.len() - start);
                        out.extend_from_within(start..start + n);
                        len -= n;
                    }
                }
            }
            other => return Err(XdrError::BadMagic(other as u32)),
        }
    }
    if out.len() != raw_len {
        return Err(XdrError::UnexpectedEof {
            needed: raw_len - out.len(),
            remaining: 0,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transpose(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        replane::<true>(data, &mut out);
        out
    }

    fn untranspose(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        replane::<false>(data, &mut out);
        out
    }

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let comp = compress(data);
        decompress(&comp, data.len()).expect("valid stream must decompress")
    }

    #[test]
    fn empty_roundtrips() {
        assert!(compress(&[]).is_empty());
        assert_eq!(decompress(&[], 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn zeros_compress_to_an_rle_token() {
        let data = vec![0u8; 4096];
        let comp = compress(&data);
        assert!(comp.len() <= 5, "4096 zeros became {} bytes", comp.len());
        assert_eq!(decompress(&comp, data.len()).unwrap(), data);
    }

    #[test]
    fn repeated_pattern_compresses_via_matches() {
        let mut data = Vec::new();
        for i in 0..512u32 {
            data.extend_from_slice(&(i % 7).to_be_bytes());
        }
        let comp = compress(&data);
        assert!(
            comp.len() < data.len() / 4,
            "periodic data barely compressed: {} of {}",
            comp.len(),
            data.len()
        );
        assert_eq!(decompress(&comp, data.len()).unwrap(), data);
    }

    #[test]
    fn random_bytes_roundtrip_even_when_incompressible() {
        // splitmix64-driven pseudo-random bytes.
        let mut s = 0xDEADBEEFu64;
        let mut next = move || {
            s = s.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        for len in [1usize, 3, 17, 255, 1024, 5000] {
            let data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(roundtrip(&data), data, "len {len}");
        }
    }

    #[test]
    fn overlapping_match_replicates_period() {
        // "abc" * 100 round-trips whatever the coder chose.
        let data: Vec<u8> = b"abc".iter().copied().cycle().take(300).collect();
        assert_eq!(roundtrip(&data), data);
        // A match shorter back than it is long copies its own output:
        // three literals, then 297 bytes from 3 back.
        let ops = [
            MODE_PLAIN, TAG_LIT, 3, b'a', b'b', b'c', TAG_MATCH, 0xA9, 0x02, 3,
        ];
        assert_eq!(decompress(&ops, data.len()).unwrap(), data);
    }

    #[test]
    fn repeated_struct_in_xdr_units_compresses_to_a_few_tokens_a_plane() {
        // A 12-byte record (`int` and two pointers, in XDR's 4-byte
        // units) repeated 1 000 times. The record and the 8-byte stride
        // meet every 24 bytes, so each plane repeats every three rows:
        // a short literal or run, then one overlapping match (62 bytes).
        let record: Vec<u8> = [7u32, 0x0001_2340, 0x0001_2358]
            .iter()
            .flat_map(|w| w.to_be_bytes())
            .collect();
        let data: Vec<u8> = record.iter().copied().cycle().take(12 * 1000).collect();
        let comp = compress(&data);
        assert!(comp.len() < 120, "got {} of {}", comp.len(), data.len());
        assert_eq!(decompress(&comp, data.len()).unwrap(), data);
    }

    #[test]
    fn low_precision_doubles_engage_the_plane_filter() {
        // The linpack matgen shape: f64 values m * 2^-14 with |m| < 2^15,
        // so each big-endian 8-byte cell is ~3 meaningful bytes followed
        // by ~5 zeros. Interleaved this breaks even; byte-planed it must
        // compress well below half.
        let mut init: i64 = 1325;
        let mut data = Vec::new();
        for _ in 0..4096 {
            init = (3125 * init) % 65536;
            let v = (init as f64 - 32768.0) / 16384.0;
            data.extend_from_slice(&v.to_bits().to_be_bytes());
        }
        let comp = compress(&data);
        assert_eq!(comp[0], MODE_PLANED, "the plane filter must win here");
        assert!(
            comp.len() < data.len() / 2,
            "planed doubles barely compressed: {} of {}",
            comp.len(),
            data.len()
        );
        assert_eq!(decompress(&comp, data.len()).unwrap(), data);
    }

    #[test]
    fn matgen_period_is_found_through_the_planes() {
        // 1 MiB of linpack's generated doubles, x <- 3125 x mod 65536:
        // the sequence repeats every 16 384 values (128 KiB), so every
        // plane is one period of tokens and seven long matches. 83 949
        // bytes; 4-byte windows wrote 233 513 through the planes, and
        // 124 931 without them.
        let mut init: i64 = 1325;
        let data: Vec<u8> = (0..1 << 17)
            .flat_map(|_| {
                init = (3125 * init) % 65536;
                ((init as f64 - 32768.0) / 16384.0).to_bits().to_be_bytes()
            })
            .collect();
        let comp = compress(&data);
        assert_eq!(comp[0], MODE_PLANED);
        assert!(comp.len() < 100_000, "got {} of {}", comp.len(), data.len());
        assert_eq!(decompress(&comp, data.len()).unwrap(), data);
    }

    #[test]
    fn plane_transpose_is_exactly_invertible() {
        let mut s = 1u64;
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (s >> 56) as u8
                })
                .collect();
            assert_eq!(untranspose(&transpose(&data)), data, "len {len}");
            assert_eq!(roundtrip(&data), data, "len {len}");
        }
    }

    #[test]
    fn blocked_transpose_lays_planes_out_like_the_bytewise_one() {
        // Plane `p` is byte `p` of every 8-byte row, rows in order; the
        // bytes past the last full row follow unchanged. Old streams
        // depend on exactly this layout.
        let data = noise(8 * 29 + 5, 3);
        for len in [0, 7, 8, 64, 71, 72, 8 * 29, 8 * 29 + 5] {
            let data = &data[..len];
            let rows = len / PLANE_STRIDE;
            let mut expect = Vec::new();
            for p in 0..PLANE_STRIDE {
                expect.extend((0..rows).map(|r| data[r * PLANE_STRIDE + p]));
            }
            expect.extend_from_slice(&data[rows * PLANE_STRIDE..]);
            assert_eq!(transpose(data), expect, "len {len}");
            assert_eq!(untranspose(&expect), data, "len {len}");
        }
    }

    #[test]
    fn stale_table_entries_never_reach_a_later_stream() {
        // The epoch makes every call start from an empty table, also
        // across the reset when the 32-bit epoch runs out.
        let data: Vec<u8> = (0..2048u32).flat_map(|i| (i % 97).to_be_bytes()).collect();
        let stream = |m: &mut Matcher| {
            let mut out = Vec::new();
            m.tokenize(&data, &mut out);
            out
        };
        let mut m = Matcher::new();
        let fresh = stream(&mut m);
        assert_eq!(m.base as usize, data.len());
        m.tokenize(&noise(5000, 1), &mut Vec::new());
        assert_eq!(stream(&mut m), fresh);
        m.base = u32::MAX - data.len() as u32 - 1;
        assert_eq!(stream(&mut m), fresh);
        assert_eq!(m.base, u32::MAX - 1, "the epoch still had room");
        assert_eq!(stream(&mut m), fresh);
        assert_eq!(m.base as usize, data.len(), "the epoch was reset");
    }

    #[test]
    fn bad_mode_byte_is_rejected() {
        let data: Vec<u8> = (0..200u8).collect();
        let mut comp = compress(&data);
        comp[0] = 0x7E;
        assert!(decompress(&comp, data.len()).is_err());
    }

    #[test]
    fn compression_is_deterministic() {
        let data: Vec<u8> = (0..2048u32).flat_map(|i| (i % 97).to_be_bytes()).collect();
        assert_eq!(compress(&data), compress(&data));
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let data: Vec<u8> = (0..200u8).collect();
        let comp = compress(&data);
        // Truncations at every boundary.
        for cut in 0..comp.len() {
            let _ = decompress(&comp[..cut], data.len());
        }
        // Single-byte flips.
        for i in 0..comp.len() {
            let mut bad = comp.clone();
            bad[i] ^= 0xFF;
            let _ = decompress(&bad, data.len());
        }
        // Wrong raw_len is always an error.
        assert!(decompress(&comp, data.len() + 1).is_err());
        assert!(decompress(&comp, data.len().saturating_sub(1)).is_err());
    }

    #[test]
    fn match_before_start_is_rejected() {
        // TAG_MATCH len=4 dist=1 with no history.
        let bad = [TAG_MATCH, 4, 1];
        assert!(decompress(&bad, 4).is_err());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(decompress(&[0x7F, 1, 1], 1).is_err());
    }

    #[test]
    fn varint_u64_boundary_values_roundtrip() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint_u64(&buf, &mut pos).unwrap(), v, "value {v}");
            assert_eq!(pos, buf.len(), "value {v} left trailing bytes");
        }
        // Encoded widths at the LEB128 boundaries.
        let width = |v: u64| {
            let mut buf = Vec::new();
            put_varint_u64(&mut buf, v);
            buf.len()
        };
        assert_eq!(width(0), 1);
        assert_eq!(width(127), 1);
        assert_eq!(width(128), 2);
        assert_eq!(width(u64::MAX), 10);
    }

    #[test]
    fn varint_u64_overflow_and_truncation_error() {
        // 11 continuation bytes: past 64-bit capacity.
        let over = vec![0xFFu8; 11];
        let mut pos = 0;
        assert!(get_varint_u64(&over, &mut pos).is_err());
        // Final byte carrying more than the 1 remaining bit at shift 63.
        let mut too_big = vec![0xFFu8; 9];
        too_big.push(0x02);
        let mut pos = 0;
        assert!(get_varint_u64(&too_big, &mut pos).is_err());
        // Truncated mid-varint.
        let mut buf = Vec::new();
        put_varint_u64(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(get_varint_u64(&buf[..cut], &mut pos).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn empty_chunk_declares_zero_raw_len_exactly() {
        let comp = compress(&[]);
        assert!(comp.is_empty());
        assert_eq!(decompress(&comp, 0).unwrap().len(), 0);
        // A declared raw_len the stream cannot produce is an error.
        assert!(decompress(&comp, 1).is_err());
    }

    #[test]
    fn one_byte_chunk_roundtrips_to_exact_raw_len() {
        for b in [0u8, 1, 0x7F, 0x80, 0xFF] {
            let data = [b];
            let comp = compress(&data);
            let back = decompress(&comp, 1).unwrap();
            assert_eq!(back, data);
            assert!(
                decompress(&comp, 0).is_err(),
                "byte {b}: raw_len 0 accepted"
            );
            assert!(
                decompress(&comp, 2).is_err(),
                "byte {b}: raw_len 2 accepted"
            );
        }
    }

    #[test]
    fn all_zero_page_through_plane_filter_matches_raw_len() {
        // A 4096-byte zero page is the degenerate stride-8 input: every
        // byte-plane is constant. Decompression must reproduce exactly
        // raw_len zero bytes.
        let page = vec![0u8; 4096];
        let comp = compress(&page);
        assert_eq!(comp[0], MODE_PLANED);
        let back = decompress(&comp, page.len()).unwrap();
        assert_eq!(back.len(), 4096);
        assert_eq!(back, page);
        assert!(decompress(&comp, 4095).is_err());
        assert!(decompress(&comp, 4097).is_err());
        // The same page tokenized unplaned, as the earlier coder could
        // write it, decodes too.
        let mut plain = vec![MODE_PLAIN];
        MATCHER.with_borrow_mut(|m| m.tokenize(&page, &mut plain));
        assert_eq!(decompress(&plain, page.len()).unwrap(), page);
    }

    /// The stream's tokens as `(tag, len, dist)`; `dist` is 0 off a match.
    fn tokens(ops: &[u8]) -> Vec<(u8, usize, usize)> {
        let (mut pos, mut found) = (0, Vec::new());
        while pos < ops.len() {
            let tag = ops[pos];
            pos += 1;
            let len = get_varint(ops, &mut pos).unwrap();
            let mut dist = 0;
            match tag {
                TAG_MATCH => dist = get_varint(ops, &mut pos).unwrap(),
                TAG_LIT => pos += len,
                _ => pos += 1,
            }
            found.push((tag, len, dist));
        }
        found
    }

    /// `len` pseudo-random bytes: nothing for RLE or the hash search.
    fn noise(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn dict_roundtrip_identical_input_is_one_match() {
        // data == dict: one aligned match, whatever the content, found
        // without the RLE or hash stages ever running.
        for data in [
            (0..4096u32).flat_map(|i| (i * 7).to_be_bytes()).collect(),
            vec![0u8; 100_000],
            noise(1 << 20, 7),
        ] {
            let ops = compress_with_dict(&data, &data);
            assert!(tokens(&ops).len() <= 3, "self-delta: {:?}", tokens(&ops));
            assert_eq!(decompress_with_dict(&data, &ops, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn dict_dense_edits_cost_a_few_bytes_each() {
        // One byte rewritten every 100 bytes of a 1 MB base: each edit is
        // a one-byte literal and an aligned match back to the next edit.
        let base = noise(1 << 20, 11);
        let mut edited = base.clone();
        let edits = edited.iter_mut().step_by(100).map(|b| *b ^= 0x5A).count();
        let ops = compress_with_dict(&base, &edited);
        assert!(
            ops.len() <= 12 * edits,
            "{} bytes for {edits} edits",
            ops.len()
        );
        assert_eq!(
            decompress_with_dict(&base, &ops, edited.len()).unwrap(),
            edited
        );
    }

    #[test]
    fn dict_insertion_near_the_front_shifts_the_aligned_candidate() {
        // 1 KB inserted at offset 5000: the hash search finds where the
        // base resumes, and from there the shifted tail is one match.
        let base = noise(1 << 20, 13);
        let mut edited = base[..5000].to_vec();
        edited.extend_from_slice(&noise(1024, 17));
        edited.extend_from_slice(&base[5000..]);
        let ops = compress_with_dict(&base, &edited);
        let toks = tokens(&ops);
        assert_eq!(
            toks.last(),
            Some(&(TAG_MATCH, base.len() - 5000, base.len() + 1024)),
            "{toks:?}"
        );
        assert!(ops.len() < 1024 + 64, "{} bytes", ops.len());
        assert_eq!(
            decompress_with_dict(&base, &ops, edited.len()).unwrap(),
            edited
        );
    }

    #[test]
    fn dict_match_straddling_the_boundary_roundtrips() {
        // Written by the previous coder, which matched across the end of
        // the dictionary into the data: 8 bytes from `dict`, then 16 that
        // replicate the match's own output. Frames like it must decode.
        let dict = b"0123456789abcdef";
        let data = b"89abcdef89abcdef89abcdefXYZ";
        let ops = [TAG_MATCH, 24, 8, TAG_LIT, 3, b'X', b'Y', b'Z'];
        assert_eq!(decompress_with_dict(dict, &ops, data.len()).unwrap(), data);
        // And a straddling match that does not overlap itself.
        let ops = [TAG_LIT, 4, b'8', b'9', b'a', b'b', TAG_MATCH, 6, 6];
        assert_eq!(decompress_with_dict(dict, &ops, 10).unwrap(), b"89abef89ab");
        let ops = compress_with_dict(dict, data);
        assert_eq!(decompress_with_dict(dict, &ops, data.len()).unwrap(), data);
    }

    #[test]
    fn dict_roundtrip_sparse_edit() {
        // Flip a few bytes of a large base: the delta should stay far
        // below the full size and reconstruct exactly.
        let base: Vec<u8> = (0..16_384u32)
            .flat_map(|i| (i % 251).to_be_bytes())
            .collect();
        let mut edited = base.clone();
        for at in [7usize, 4096, 30_000, 65_000] {
            edited[at] ^= 0x5A;
        }
        let ops = compress_with_dict(&base, &edited);
        assert!(
            ops.len() < edited.len() / 8,
            "sparse edit delta {} of {}",
            ops.len(),
            edited.len()
        );
        assert_eq!(
            decompress_with_dict(&base, &ops, edited.len()).unwrap(),
            edited
        );
    }

    #[test]
    fn dict_empty_cases() {
        let base: Vec<u8> = (0..100u8).collect();
        // Empty data: empty stream.
        let ops = compress_with_dict(&base, &[]);
        assert!(ops.is_empty());
        assert_eq!(
            decompress_with_dict(&base, &ops, 0).unwrap(),
            Vec::<u8>::new()
        );
        // Empty dict degrades to plain tokenization.
        let ops = compress_with_dict(&[], &base);
        assert_eq!(decompress_with_dict(&[], &ops, base.len()).unwrap(), base);
    }

    #[test]
    fn dict_wrong_dictionary_is_caught_or_diverges_loudly() {
        // A sparse edit of the base, so nearly every output byte is
        // copied out of the dictionary.
        let base: Vec<u8> = (0..8192u32).flat_map(|i| (i * 3).to_be_bytes()).collect();
        let mut data = base.clone();
        data.iter_mut().step_by(1000).for_each(|b| *b ^= 0xFF);
        let ops = compress_with_dict(&base, &data);
        assert!(ops.len() < data.len() / 50, "{} bytes", ops.len());
        assert_eq!(decompress_with_dict(&base, &ops, data.len()).unwrap(), data);
        // Truncated dictionary: matches reaching past the shortened
        // history must error rather than read out of bounds.
        assert!(decompress_with_dict(&base[..16], &ops, data.len()).is_err());
        // Right length, wrong bytes: the output must differ.
        let rotten: Vec<u8> = base.iter().map(|b| b.wrapping_add(1)).collect();
        match decompress_with_dict(&rotten, &ops, data.len()) {
            Err(_) => {}
            Ok(out) => assert_ne!(out, data, "wrong dict silently reproduced the data"),
        }
    }

    #[test]
    fn dict_compression_is_deterministic() {
        let base: Vec<u8> = (0..2048u32).flat_map(|i| (i % 97).to_be_bytes()).collect();
        let data: Vec<u8> = base.iter().rev().copied().collect();
        assert_eq!(
            compress_with_dict(&base, &data),
            compress_with_dict(&base, &data)
        );
    }
}
