//! Error type shared by the sequence substrate.

use std::fmt;
use std::io;

/// Errors produced while parsing, packing, or generating sequences.
#[derive(Debug)]
pub enum SeqError {
    /// A byte that is not a recognised IUPAC nucleotide code.
    InvalidBase {
        /// The offending byte.
        byte: u8,
        /// Byte offset of the offending character within its record.
        position: usize,
    },
    /// A FASTA stream that does not start with a `>` header line.
    MissingHeader,
    /// A FASTA record with a header but no sequence data.
    EmptyRecord {
        /// Identifier from the record's header line.
        id: String,
    },
    /// A corrupt or truncated packed-sequence blob: a structural
    /// violation, located by section name and (when the parser had file
    /// context) byte offset.
    CorruptPackedData {
        /// What was wrong.
        what: &'static str,
        /// The file section being parsed ("store-header", "record", …).
        section: &'static str,
        /// Byte offset within the file where the violation was detected.
        offset: Option<u64>,
    },
    /// A stored checksum did not match the bytes read: the store file is
    /// corrupt even though it is structurally parseable.
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
    /// The store file is intact but of a retired generation: its magic
    /// (named here) is one this release no longer opens.
    UnsupportedFormat(String),
    /// An underlying I/O failure.
    Io(io::Error),
}

impl SeqError {
    /// A [`SeqError::CorruptPackedData`] without file context (violations
    /// detected on an already-fetched blob).
    pub fn corrupt(what: &'static str) -> SeqError {
        SeqError::CorruptPackedData {
            what,
            section: "record",
            offset: None,
        }
    }

    /// A [`SeqError::CorruptPackedData`] locating the violation at
    /// `offset` within `section`.
    pub fn corrupt_at(what: &'static str, section: &'static str, offset: u64) -> SeqError {
        SeqError::CorruptPackedData {
            what,
            section,
            offset: Some(offset),
        }
    }

    /// A checksum-mismatch [`SeqError::Corruption`].
    pub fn checksum(section: &'static str, offset: u64, expected: u32, actual: u32) -> SeqError {
        SeqError::Corruption {
            section,
            offset,
            expected,
            actual,
        }
    }

    /// Stamp file context onto a context-free [`SeqError::corrupt`]
    /// error (used when a blob-level parser's error surfaces in a caller
    /// that knows the blob's file position).
    pub fn located(self, at_section: &'static str, at_offset: u64) -> SeqError {
        match self {
            SeqError::CorruptPackedData {
                what, offset: None, ..
            } => SeqError::corrupt_at(what, at_section, at_offset),
            other => other,
        }
    }
}

impl fmt::Display for SeqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeqError::InvalidBase { byte, position } => {
                if byte.is_ascii_graphic() {
                    write!(
                        f,
                        "invalid nucleotide code {:?} at offset {position}",
                        *byte as char
                    )
                } else {
                    write!(
                        f,
                        "invalid nucleotide byte 0x{byte:02x} at offset {position}"
                    )
                }
            }
            SeqError::MissingHeader => {
                write!(f, "FASTA stream does not begin with a '>' header line")
            }
            SeqError::EmptyRecord { id } => {
                write!(f, "FASTA record {id:?} contains no sequence data")
            }
            SeqError::CorruptPackedData {
                what,
                section,
                offset,
            } => match offset {
                Some(offset) => write!(
                    f,
                    "corrupt packed sequence data: {what} (section {section:?}, byte {offset})"
                ),
                None => write!(
                    f,
                    "corrupt packed sequence data: {what} (section {section:?})"
                ),
            },
            SeqError::Corruption {
                section,
                offset,
                expected,
                actual,
            } => write!(
                f,
                "store corruption detected: checksum mismatch in section {section:?} at byte \
                 {offset} (stored {expected:#010x}, computed {actual:#010x})"
            ),
            SeqError::UnsupportedFormat(what) => write!(
                f,
                "unsupported format: {what} is a retired generation; rebuild with this release"
            ),
            SeqError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for SeqError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SeqError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SeqError {
    fn from(e: io::Error) -> Self {
        SeqError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_invalid_base_printable() {
        let e = SeqError::InvalidBase {
            byte: b'!',
            position: 7,
        };
        assert!(e.to_string().contains("'!'"));
        assert!(e.to_string().contains('7'));
    }

    #[test]
    fn display_invalid_base_unprintable() {
        let e = SeqError::InvalidBase {
            byte: 0x01,
            position: 0,
        };
        assert!(e.to_string().contains("0x01"));
    }

    #[test]
    fn io_error_source_is_preserved() {
        use std::error::Error;
        let e = SeqError::from(io::Error::new(io::ErrorKind::UnexpectedEof, "eof"));
        assert!(e.source().is_some());
    }

    #[test]
    fn display_empty_record_names_the_record() {
        let e = SeqError::EmptyRecord {
            id: "seq42".to_string(),
        };
        assert!(e.to_string().contains("seq42"));
    }

    #[test]
    fn corrupt_data_reports_section_and_offset() {
        let text = SeqError::corrupt_at("blob too short", "record", 321).to_string();
        assert!(text.contains("blob too short"), "{text}");
        assert!(text.contains("record"), "{text}");
        assert!(text.contains("321"), "{text}");
    }

    #[test]
    fn located_stamps_context_free_errors_only() {
        let stamped = SeqError::corrupt("truncated").located("record", 64);
        match stamped {
            SeqError::CorruptPackedData {
                section, offset, ..
            } => {
                assert_eq!(section, "record");
                assert_eq!(offset, Some(64));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Already-located errors keep their original position.
        let kept = SeqError::corrupt_at("truncated", "store-header", 5).located("record", 64);
        match kept {
            SeqError::CorruptPackedData {
                section, offset, ..
            } => {
                assert_eq!(section, "store-header");
                assert_eq!(offset, Some(5));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn checksum_mismatch_reports_values() {
        let text = SeqError::checksum("record", 99, 0xAABBCCDD, 0x11223344).to_string();
        assert!(text.contains("99"), "{text}");
        assert!(text.contains("0xaabbccdd"), "{text}");
    }
}
