//! Error type for index construction and access.

use std::fmt;
use std::io;

use nucdb_codec::CodecError;

/// A structural format violation, with enough context to locate it: the
/// section of the file being parsed and (when known) the byte offset at
/// which the violation was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatViolation {
    /// What was wrong.
    pub what: &'static str,
    /// The file section being parsed ("header", "vocabulary", "list", …).
    pub section: &'static str,
    /// Byte offset within the file where the violation was detected,
    /// when the parser had file context.
    pub offset: Option<u64>,
}

impl fmt::Display for FormatViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(offset) => write!(
                f,
                "{} (section {:?}, byte {offset})",
                self.what, self.section
            ),
            None => write!(f, "{} (section {:?})", self.what, self.section),
        }
    }
}

/// Errors from building, serializing, or reading an index.
#[derive(Debug)]
pub enum IndexError {
    /// A compressed list or index file failed to decode.
    Codec(CodecError),
    /// The index file has a bad magic number, version, or structure.
    BadFormat(FormatViolation),
    /// The file is intact but of a retired generation: its magic or list
    /// codec tag (named here) is one this release no longer opens.
    UnsupportedFormat(String),
    /// A stored checksum did not match the bytes read: the file is
    /// corrupt (bit rot, torn write, or tampering) even though it is
    /// structurally parseable.
    Corruption {
        /// The file section whose checksum failed.
        section: &'static str,
        /// Byte offset of the corrupt region within the file.
        offset: u64,
        /// The checksum stored in the file.
        expected: u32,
        /// The checksum of the bytes actually read.
        actual: u32,
    },
    /// A record id or interval code out of range for this index.
    OutOfRange(&'static str),
    /// The operation is not supported by this index's configuration
    /// (e.g. merging indexes built with different parameters).
    Unsupported(&'static str),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl IndexError {
    /// A [`IndexError::BadFormat`] without file context (decode-layer
    /// violations detected on an already-fetched byte slice).
    pub fn bad_format(what: &'static str) -> IndexError {
        IndexError::BadFormat(FormatViolation {
            what,
            section: "postings",
            offset: None,
        })
    }

    /// A [`IndexError::BadFormat`] in `section` with no byte offset
    /// (the violation concerns a whole region, not a position).
    pub fn bad_in(what: &'static str, section: &'static str) -> IndexError {
        IndexError::BadFormat(FormatViolation {
            what,
            section,
            offset: None,
        })
    }

    /// A [`IndexError::BadFormat`] locating the violation at `offset`
    /// within `section`.
    pub fn bad_at(what: &'static str, section: &'static str, offset: u64) -> IndexError {
        IndexError::BadFormat(FormatViolation {
            what,
            section,
            offset: Some(offset),
        })
    }

    /// A checksum-mismatch [`IndexError::Corruption`].
    pub fn checksum(section: &'static str, offset: u64, expected: u32, actual: u32) -> IndexError {
        IndexError::Corruption {
            section,
            offset,
            expected,
            actual,
        }
    }

    /// Locate a list's decode-layer error in the file: decode-layer
    /// checks report offsets relative to the list they were handed (or
    /// none), and the caller that knows the list's file position `base`
    /// lifts them to absolute file offsets. A violation with no offset,
    /// or a bit stream that failed to decode, is placed at `base`, the
    /// list's first byte, which is where `fsck` names the same damage.
    /// Other variants pass through unchanged.
    pub fn with_base_offset(self, base: u64) -> IndexError {
        match self {
            IndexError::Corruption {
                section,
                offset,
                expected,
                actual,
            } => IndexError::Corruption {
                section,
                offset: base + offset,
                expected,
                actual,
            },
            IndexError::BadFormat(violation) => IndexError::BadFormat(FormatViolation {
                offset: Some(violation.offset.map_or(base, |offset| base + offset)),
                ..violation
            }),
            IndexError::Codec(CodecError::Malformed(what)) => {
                IndexError::bad_at(what, "postings", base)
            }
            IndexError::Codec(CodecError::UnexpectedEnd) => {
                IndexError::bad_at("postings bit stream ended unexpectedly", "postings", base)
            }
            other => other,
        }
    }

    /// Is this error evidence of on-disk corruption (as opposed to API
    /// misuse or a transient environment failure)? Covers checksum
    /// mismatches, structural format violations, postings that fail to
    /// decode, and truncated / invalid-data I/O errors.
    pub fn is_corruption(&self) -> bool {
        match self {
            IndexError::Corruption { .. } | IndexError::BadFormat(_) | IndexError::Codec(_) => true,
            IndexError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
            ),
            _ => false,
        }
    }
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Codec(e) => write!(f, "postings decode failed: {e}"),
            IndexError::BadFormat(violation) => write!(f, "bad index format: {violation}"),
            IndexError::UnsupportedFormat(what) => write!(
                f,
                "unsupported format: {what} is a retired generation; rebuild with this release"
            ),
            IndexError::Corruption {
                section,
                offset,
                expected,
                actual,
            } => write!(
                f,
                "index corruption detected: checksum mismatch in section {section:?} at byte \
                 {offset} (stored {expected:#010x}, computed {actual:#010x})"
            ),
            IndexError::OutOfRange(what) => write!(f, "out of range: {what}"),
            IndexError::Unsupported(what) => write!(f, "unsupported: {what}"),
            IndexError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Codec(e) => Some(e),
            IndexError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for IndexError {
    fn from(e: CodecError) -> Self {
        IndexError::Codec(e)
    }
}

impl From<io::Error> for IndexError {
    fn from(e: io::Error) -> Self {
        IndexError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(IndexError::bad_format("magic")
            .to_string()
            .contains("magic"));
        assert!(IndexError::from(CodecError::UnexpectedEnd)
            .to_string()
            .contains("decode"));
        assert!(IndexError::OutOfRange("record")
            .to_string()
            .contains("record"));
    }

    #[test]
    fn bad_format_carries_section_and_offset() {
        let e = IndexError::bad_at("zero stride", "header", 17);
        let text = e.to_string();
        assert!(text.contains("zero stride"), "{text}");
        assert!(text.contains("header"), "{text}");
        assert!(text.contains("17"), "{text}");
        // A list's decode errors are located at the list's file offset.
        let located = IndexError::bad_format("x").with_base_offset(4096);
        assert!(located.to_string().contains("byte 4096"), "{located}");
        let located = IndexError::from(CodecError::UnexpectedEnd).with_base_offset(70);
        assert!(located.is_corruption() && located.to_string().contains("byte 70"));
    }

    #[test]
    fn corruption_reports_offsets_and_checksums() {
        let e = IndexError::checksum("list", 4096, 0xDEADBEEF, 0x12345678);
        let text = e.to_string();
        assert!(text.contains("4096"), "{text}");
        assert!(text.contains("0xdeadbeef"), "{text}");
        assert!(text.contains("list"), "{text}");
        assert!(e.is_corruption());
    }

    #[test]
    fn corruption_classification() {
        assert!(IndexError::bad_format("x").is_corruption());
        assert!(IndexError::from(CodecError::UnexpectedEnd).is_corruption());
        assert!(
            IndexError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "eof")).is_corruption()
        );
        assert!(!IndexError::Unsupported("x").is_corruption());
        assert!(
            !IndexError::Io(io::Error::new(io::ErrorKind::PermissionDenied, "no")).is_corruption()
        );
    }

    #[test]
    fn sources() {
        use std::error::Error;
        assert!(IndexError::from(CodecError::UnexpectedEnd)
            .source()
            .is_some());
        assert!(IndexError::bad_format("x").source().is_none());
    }
}
