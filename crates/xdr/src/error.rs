//! XDR decoding errors.

/// Errors produced while decoding an XDR stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XdrError {
    /// The stream ended before the requested item was complete.
    UnexpectedEof {
        /// Bytes needed to finish the item.
        needed: usize,
        /// Bytes remaining in the stream.
        remaining: usize,
    },
    /// A boolean field held something other than 0 or 1.
    InvalidBool(u32),
    /// Padding bytes were non-zero (a corrupt or misframed stream).
    NonZeroPadding,
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// A variable-length item declared a length beyond a sanity bound.
    LengthTooLarge(u32),
    /// A framed message opened with the wrong magic word.
    BadMagic(u32),
    /// A control frame of a kind no sender writes any more, by name.
    RetiredControl(&'static str),
    /// A frame's trailing CRC-32 did not match its contents.
    CrcMismatch {
        /// CRC declared in the frame.
        expected: u32,
        /// CRC computed over the received bytes.
        actual: u32,
    },
}

impl std::fmt::Display for XdrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XdrError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of XDR stream: needed {needed} bytes, {remaining} remain"
                )
            }
            XdrError::InvalidBool(v) => write!(f, "invalid XDR bool value {v}"),
            XdrError::NonZeroPadding => write!(f, "non-zero XDR padding bytes"),
            XdrError::InvalidUtf8 => write!(f, "XDR string is not valid UTF-8"),
            XdrError::LengthTooLarge(n) => {
                write!(f, "XDR variable length {n} exceeds sanity bound")
            }
            XdrError::BadMagic(m) => {
                write!(f, "bad frame magic {m:#010x}")
            }
            XdrError::RetiredControl(name) => {
                write!(f, "retired control kind '{name}'")
            }
            XdrError::CrcMismatch { expected, actual } => {
                write!(
                    f,
                    "frame CRC mismatch: declared {expected:#010x}, computed {actual:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for XdrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = XdrError::UnexpectedEof {
            needed: 8,
            remaining: 3,
        };
        assert!(e.to_string().contains("needed 8"));
        assert!(XdrError::InvalidBool(7).to_string().contains('7'));
    }
}
