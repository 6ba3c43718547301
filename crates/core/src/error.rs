//! The workspace-wide error type for training and snapshot I/O.
//!
//! Every fallible step of the training flow speaks [`CxkError`]: the
//! [`crate::engine::EngineBuilder`] rejects invalid configurations with
//! [`CxkError::Config`] instead of the `assert!`s the free-function drivers
//! used to carry, snapshot file helpers ([`crate::model::save_model_file`],
//! [`crate::model::load_model_file`]) wrap filesystem failures in
//! [`CxkError::Io`] and malformed snapshots in [`CxkError::Model`], the
//! threaded protocol reports peer failures as [`CxkError::Protocol`], and
//! document ingestion reports position-annotated parse failures as
//! [`CxkError::Xml`].
//! Callers that want a flat message (the CLI, scripts) use the `Display`
//! impl; callers that want to branch match on the variant.

use crate::model::ModelError;
use std::path::PathBuf;

/// Everything that can go wrong while configuring, running or persisting a
/// clustering run.
#[derive(Debug)]
#[non_exhaustive]
pub enum CxkError {
    /// A configuration field failed validation (`EngineBuilder::build`).
    Config {
        /// The offending field, named as in [`crate::engine::EngineBuilder`]
        /// (`k`, `peers`, `f`, `gamma`, `max_rounds`, `max_inner`,
        /// `partition`, `schedule`, `backend`).
        field: &'static str,
        /// What was wrong with it.
        message: String,
    },
    /// A filesystem operation failed (snapshot save/load).
    Io {
        /// The operation that failed (`"read"` or `"write"`).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A model snapshot failed to decode.
    Model {
        /// The snapshot's path, when it came from disk.
        path: Option<PathBuf>,
        /// The decoding error.
        source: ModelError,
    },
    /// The distributed protocol failed mid-run (a peer thread died, the
    /// network dropped, or the run was left without any alive peer).
    Protocol {
        /// Description of the failure.
        message: String,
    },
    /// An XML document failed to parse. Carries the parser's line/byte
    /// position so ingest callers can point at the offending input.
    Xml {
        /// The input's path or label, when known.
        path: Option<PathBuf>,
        /// The position-annotated parse error.
        source: cxk_xml::XmlError,
    },
}

impl CxkError {
    /// Shorthand for a [`CxkError::Config`].
    pub fn config(field: &'static str, message: impl Into<String>) -> Self {
        CxkError::Config {
            field,
            message: message.into(),
        }
    }

    /// Shorthand for a [`CxkError::Protocol`].
    pub fn protocol(message: impl Into<String>) -> Self {
        CxkError::Protocol {
            message: message.into(),
        }
    }

    /// The configuration field this error blames, when it is a
    /// [`CxkError::Config`].
    pub fn config_field(&self) -> Option<&'static str> {
        match self {
            CxkError::Config { field, .. } => Some(field),
            _ => None,
        }
    }
}

impl std::fmt::Display for CxkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CxkError::Config { field, message } => {
                write!(f, "invalid configuration ({field}): {message}")
            }
            CxkError::Io { op, path, source } => {
                write!(f, "cannot {op} {}: {source}", path.display())
            }
            CxkError::Model {
                path: Some(path),
                source,
            } => write!(f, "{}: {source}", path.display()),
            CxkError::Model { path: None, source } => write!(f, "{source}"),
            CxkError::Protocol { message } => write!(f, "protocol failure: {message}"),
            CxkError::Xml {
                path: Some(path),
                source,
            } => write!(f, "{}: {source}", path.display()),
            CxkError::Xml { path: None, source } => write!(f, "{source}"),
        }
    }
}

impl std::error::Error for CxkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CxkError::Io { source, .. } => Some(source),
            CxkError::Model { source, .. } => Some(source),
            CxkError::Xml { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<ModelError> for CxkError {
    fn from(source: ModelError) -> Self {
        CxkError::Model { path: None, source }
    }
}

impl From<cxk_xml::XmlError> for CxkError {
    fn from(source: cxk_xml::XmlError) -> Self {
        CxkError::Xml { path: None, source }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field() {
        let e = CxkError::config("k", "must be at least 1");
        assert_eq!(
            e.to_string(),
            "invalid configuration (k): must be at least 1"
        );
        assert_eq!(e.config_field(), Some("k"));
    }

    #[test]
    fn io_display_mentions_operation_and_path() {
        let e = CxkError::Io {
            op: "read",
            path: PathBuf::from("/no/such/model.cxkmodel"),
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        };
        let text = e.to_string();
        assert!(text.contains("cannot read"), "{text}");
        assert!(text.contains("model.cxkmodel"), "{text}");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn xml_error_converts_and_reports_position() {
        let inner = cxk_xml::XmlError {
            offset: 17,
            line: 3,
            message: "mismatched end tag".into(),
        };
        let e: CxkError = inner.into();
        let text = e.to_string();
        assert!(text.contains("line 3"), "{text}");
        assert!(text.contains("byte 17"), "{text}");
        assert!(std::error::Error::source(&e).is_some());
        let with_path = CxkError::Xml {
            path: Some(PathBuf::from("corpus.xml")),
            source: cxk_xml::XmlError {
                offset: 0,
                line: 1,
                message: "expected document element".into(),
            },
        };
        assert!(with_path.to_string().starts_with("corpus.xml: "));
    }

    #[test]
    fn model_error_converts_and_displays() {
        let inner = ModelError {
            kind: "model",
            offset: 3,
            message: "bad magic".into(),
        };
        let e: CxkError = inner.into();
        assert!(e.to_string().contains("model load error"), "{e}");
        assert_eq!(e.config_field(), None);
    }
}
