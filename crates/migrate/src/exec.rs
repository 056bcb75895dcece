//! Execution state: the transmitted call-chain description.

use crate::MigError;
use hpm_xdr::{XdrDecoder, XdrEncoder};

/// One frame of the captured call chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameState {
    /// Function name (validates re-entry).
    pub function: String,
    /// The poll-point at which this frame stopped: the innermost frame's
    /// migration point, or the call-site poll-point of outer frames.
    pub poll_point: u32,
    /// How many live-variable items this frame contributed to the
    /// memory-state stream.
    pub live_count: u32,
}

/// The captured execution state: call chain outermost-first, plus the
/// source heap-index high-water mark (see crate docs on ordering).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecutionState {
    /// Frames, outermost (e.g. `main`) first.
    pub frames: Vec<FrameState>,
    /// Source MSRLT heap-group length at collection time; the destination
    /// reserves indices below this.
    pub heap_high_water: u32,
}

impl ExecutionState {
    /// Serialize to XDR bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = XdrEncoder::new();
        enc.put_u32(self.heap_high_water);
        enc.put_u32(self.frames.len() as u32);
        for f in &self.frames {
            enc.put_string(&f.function);
            enc.put_u32(f.poll_point);
            enc.put_u32(f.live_count);
        }
        enc.into_bytes()
    }

    /// Deserialize from XDR bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, MigError> {
        let mut dec = XdrDecoder::new(bytes);
        let heap_high_water = dec.get_u32()?;
        let n = dec.get_u32()?;
        // The count is a claim off the wire: a frame is at least an empty
        // name's length word and its two counters, twelve bytes.
        if n as usize > dec.remaining() / 12 {
            return Err(MigError::Protocol(format!(
                "execution state announces {n} frames, more than its {} remaining bytes can hold",
                dec.remaining()
            )));
        }
        let mut frames = Vec::with_capacity(n as usize);
        for _ in 0..n {
            frames.push(FrameState {
                function: dec.get_string()?,
                poll_point: dec.get_u32()?,
                live_count: dec.get_u32()?,
            });
        }
        if !dec.is_empty() {
            return Err(MigError::Protocol(
                "trailing bytes in execution state".into(),
            ));
        }
        Ok(ExecutionState {
            frames,
            heap_high_water,
        })
    }

    /// Call-chain depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExecutionState {
        ExecutionState {
            frames: vec![
                FrameState {
                    function: "main".into(),
                    poll_point: 3,
                    live_count: 4,
                },
                FrameState {
                    function: "foo".into(),
                    poll_point: 1,
                    live_count: 2,
                },
            ],
            heap_high_water: 17,
        }
    }

    #[test]
    fn roundtrip() {
        let s = sample();
        assert_eq!(ExecutionState::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn empty_state() {
        let s = ExecutionState::default();
        let d = ExecutionState::decode(&s.encode()).unwrap();
        assert_eq!(d.depth(), 0);
        assert_eq!(d.heap_high_water, 0);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = sample().encode();
        b.extend_from_slice(&[0; 4]);
        assert!(matches!(
            ExecutionState::decode(&b),
            Err(MigError::Protocol(_))
        ));
    }

    #[test]
    fn truncation_rejected() {
        let b = sample().encode();
        assert!(ExecutionState::decode(&b[..b.len() - 4]).is_err());
    }
}
