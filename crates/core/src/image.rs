//! Migration-image framing.
//!
//! A migration image is what travels over the transport layer: a header
//! identifying the sender, an execution-state section (owned by
//! `hpm-migrate`), and the memory-state payload produced by the
//! [`Collector`](crate::Collector). This module owns the header and the
//! section framing; the sections themselves are opaque byte strings.

use crate::CoreError;
use hpm_xdr::{XdrDecoder, XdrEncoder};

/// Magic number opening every migration image: `"HPMI"`.
pub const IMAGE_MAGIC: u32 = 0x4850_4D49;
/// Current image format version. Version 2 moved the memory-state
/// payload to an unprefixed tail section so the image can be streamed in
/// chunks: the prefix (header + exec state) is known before collection
/// starts, and every payload byte after it ships as soon as the
/// collector flushes it. Version 3 keeps that framing and changes the
/// payload: compact MSRM records (see [`collect`](crate::collect)), which
/// a version-2 reader would misparse. Version 4 carries a pointer's heap
/// id in the record's first word (the `HEAP` flag) — so each version
/// refuses every other by name here, before a payload byte is looked at.
pub const IMAGE_VERSION: u32 = 4;

/// Image header: who produced the image and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageHeader {
    /// Format version ([`IMAGE_VERSION`]).
    pub version: u32,
    /// Source machine name (diagnostic only — the payload is fully
    /// machine-independent).
    pub source_arch: String,
    /// Source pointer width in bytes (diagnostic).
    pub source_pointer_size: u32,
    /// Name of the migrating program (sequence-compatibility check).
    pub program: String,
    /// Total live registered bytes in the sender's MSRLT at collection
    /// time. The destination uses this to pre-size its heap before
    /// decoding, so restoration does not pay incremental growth.
    pub registered_bytes: u64,
}

impl ImageHeader {
    /// Encode the header.
    pub fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u32(IMAGE_MAGIC);
        enc.put_u32(self.version);
        enc.put_string(&self.source_arch);
        enc.put_u32(self.source_pointer_size);
        enc.put_string(&self.program);
        enc.put_u64(self.registered_bytes);
    }

    /// Decode and validate a header.
    pub fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, CoreError> {
        let magic = dec.get_u32()?;
        if magic != IMAGE_MAGIC {
            return Err(CoreError::BadTag(magic));
        }
        let version = dec.get_u32()?;
        if version != IMAGE_VERSION {
            return Err(CoreError::SequenceMismatch(format!(
                "image version {version}, this build reads version {IMAGE_VERSION} only"
            )));
        }
        let source_arch = dec.get_string()?;
        let source_pointer_size = dec.get_u32()?;
        let program = dec.get_string()?;
        let registered_bytes = dec.get_u64()?;
        Ok(ImageHeader {
            version,
            source_arch,
            source_pointer_size,
            program,
            registered_bytes,
        })
    }
}

/// Frame the image prefix: header plus exec-state section. In a
/// streamed migration this is chunk 0; the memory-state payload follows
/// as a raw tail with no length prefix, so the sender does not need to
/// know its size up front.
pub fn frame_image_prefix(header: &ImageHeader, exec_state: &[u8]) -> Vec<u8> {
    let mut enc = XdrEncoder::with_capacity(64 + exec_state.len());
    header.encode(&mut enc);
    enc.put_opaque_var(exec_state);
    enc.into_bytes()
}

/// Frame a complete migration image from its sections.
pub fn frame_image(header: &ImageHeader, exec_state: &[u8], memory_state: &[u8]) -> Vec<u8> {
    let mut image = frame_image_prefix(header, exec_state);
    image.reserve(memory_state.len());
    image.extend_from_slice(memory_state);
    image
}

/// Split a migration image into (header, exec-state, memory-state); the
/// two sections are views into `image`, not copies.
///
/// The memory-state tail is everything after the exec section; trailing
/// garbage inside it is detected by the restorer, which knows where the
/// stream grammar ends (and reports the offending frame).
pub fn unframe_image(image: &[u8]) -> Result<(ImageHeader, &[u8], &[u8]), CoreError> {
    let mut dec = XdrDecoder::new(image);
    let header = ImageHeader::decode(&mut dec)?;
    let exec = dec.get_opaque_var_ref()?;
    Ok((header, exec, dec.take_rest()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> ImageHeader {
        ImageHeader {
            version: IMAGE_VERSION,
            source_arch: "DEC 5000/120 (Ultrix, MIPS)".into(),
            source_pointer_size: 4,
            program: "linpack".into(),
            registered_bytes: 4096,
        }
    }

    #[test]
    fn frame_roundtrip() {
        let img = frame_image(&header(), b"EXEC", b"MEMORY-STATE");
        let (h, e, m) = unframe_image(&img).unwrap();
        assert_eq!(h, header());
        assert_eq!(e, b"EXEC");
        assert_eq!(m, b"MEMORY-STATE");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut img = frame_image(&header(), b"", b"");
        img[0] = 0;
        assert!(matches!(unframe_image(&img), Err(CoreError::BadTag(_))));
    }

    #[test]
    fn bad_version_rejected() {
        let h = ImageHeader {
            version: 99,
            ..header()
        };
        let mut enc = XdrEncoder::new();
        h.encode(&mut enc);
        let mut dec = XdrDecoder::new(enc.as_bytes());
        assert!(matches!(
            ImageHeader::decode(&mut dec),
            Err(CoreError::SequenceMismatch(_))
        ));
    }

    /// An image of an older format version is refused at the header, and
    /// the refusal names its version and the one this build reads.
    fn assert_refused_by_name(old: u32) {
        let h = ImageHeader {
            version: old,
            ..header()
        };
        let err = unframe_image(&frame_image(&h, b"EXEC", b"MEMORY-STATE")).unwrap_err();
        let CoreError::SequenceMismatch(msg) = &err else {
            panic!("{err}");
        };
        assert!(
            msg.contains(&format!("version {old}")) && msg.contains("version 4"),
            "{msg}"
        );
    }

    #[test]
    fn version_2_image_is_refused_naming_both_versions() {
        assert_refused_by_name(2);
    }

    #[test]
    fn version_3_image_is_refused_naming_both_versions() {
        assert_refused_by_name(3);
    }

    #[test]
    fn prefix_plus_payload_equals_whole_image() {
        // Streaming invariant: chunk 0 (the prefix) followed by the raw
        // payload bytes reassembles the monolithic image exactly.
        let payload = b"MEMORY-STATE";
        let mut streamed = frame_image_prefix(&header(), b"EXEC");
        streamed.extend_from_slice(payload);
        assert_eq!(streamed, frame_image(&header(), b"EXEC", payload));
    }

    #[test]
    fn memory_tail_is_byte_exact() {
        // The tail is unprefixed: every byte after the exec section is
        // payload, with no padding or length field in between.
        let img = frame_image(&header(), b"E", b"M");
        let (_, e, m) = unframe_image(&img).unwrap();
        assert_eq!(e, b"E");
        assert_eq!(m, b"M");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn empty_sections_ok() {
        let img = frame_image(&header(), b"", b"");
        let (_, e, m) = unframe_image(&img).unwrap();
        assert!(e.is_empty());
        assert!(m.is_empty());
    }
}
