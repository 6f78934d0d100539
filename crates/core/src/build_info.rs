//! Build identification: version, git hash, compiled codec tiers.
//!
//! One source of truth surfaced in three places: the
//! `nucdb_build_info` gauge on `/metrics` (value always 1, identity in
//! the labels — the standard Prometheus build-info idiom), the
//! `/healthz` response, and `nucdb --version`.

use nucdb_index::ListCodec;
use nucdb_obs::json::Value;
use nucdb_obs::MetricsRegistry;

/// Crate version (workspace version).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Short git commit hash the binary was built from, embedded at build
/// time (`"unknown"` outside a git checkout).
pub const GIT_HASH: &str = env!("NUCDB_GIT_HASH");

/// Every postings codec tier compiled into this build, by
/// [`ListCodec::name`].
pub const ALL_CODECS: [ListCodec; 2] = [ListCodec::Paper, ListCodec::Block];

/// Comma-joined codec tier names.
pub fn codec_tiers() -> String {
    ALL_CODECS
        .iter()
        .map(|codec| codec.name())
        .collect::<Vec<_>>()
        .join(",")
}

/// Register the `nucdb_build_info` gauge: value 1, identity in the
/// labels.
pub fn register(registry: &MetricsRegistry) {
    let codecs = codec_tiers();
    registry
        .gauge_with(
            "nucdb_build_info",
            "Build identification; the value is always 1",
            &[
                ("version", VERSION),
                ("git", GIT_HASH),
                ("codecs", codecs.as_str()),
            ],
        )
        .set(1);
}

/// Build info as a JSON object (for `/healthz`, `/stats`).
pub fn as_json() -> Value {
    Value::Obj(vec![
        ("version".to_string(), Value::Str(VERSION.to_string())),
        ("git".to_string(), Value::Str(GIT_HASH.to_string())),
        ("codecs".to_string(), Value::Str(codec_tiers())),
    ])
}

/// One-line human form (for `--version`).
pub fn human() -> String {
    format!(
        "nucdb {VERSION} (git {GIT_HASH}, codecs: {})",
        codec_tiers()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_populated() {
        assert!(!VERSION.is_empty());
        assert!(!GIT_HASH.is_empty());
        let tiers = codec_tiers();
        // Every codec tier appears exactly once.
        for codec in ALL_CODECS {
            assert!(tiers.contains(codec.name()), "missing {}", codec.name());
        }
        assert_eq!(tiers.split(',').count(), ALL_CODECS.len());
    }

    #[test]
    fn gauge_registers_with_identity_labels() {
        let registry = MetricsRegistry::new();
        register(&registry);
        let snapshot = registry.snapshot();
        let text = snapshot.to_prometheus();
        assert!(text.contains("nucdb_build_info"));
        assert!(text.contains(&format!("version=\"{VERSION}\"")));
        assert!(text.contains(&format!("git=\"{GIT_HASH}\"")));
    }

    #[test]
    fn human_and_json_agree() {
        let human = human();
        assert!(human.contains(VERSION));
        assert!(human.contains(GIT_HASH));
        let json = as_json();
        assert_eq!(json.get("version").and_then(Value::as_str), Some(VERSION));
        assert_eq!(json.get("git").and_then(Value::as_str), Some(GIT_HASH));
    }
}
