//! Embeds the git commit hash into the build (`NUCDB_GIT_HASH`), with
//! an "unknown" fallback so builds from a tarball still compile.

use std::process::Command;

fn main() {
    let hash = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|hash| !hash.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=NUCDB_GIT_HASH={hash}");
    // Re-embed when the checked-out commit moves. Outside a checkout
    // (a tarball, the benchmark's copied tree) the watched paths do not
    // exist, and cargo treats a missing watched path as always dirty —
    // rebuilding this crate and its dependents on every invocation.
    if std::path::Path::new("../../.git").exists() {
        println!("cargo:rerun-if-changed=../../.git/HEAD");
        println!("cargo:rerun-if-changed=../../.git/refs");
    } else {
        println!("cargo:rerun-if-changed=build.rs");
    }
}
