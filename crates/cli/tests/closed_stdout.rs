//! A closed stdout ends a command quietly: `nucdb search ... | head -n 1`
//! exits 0, and nothing on stderr reports a panic.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn nucdb(dir: &Path) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_nucdb"));
    command.current_dir(dir);
    command
}

fn run(dir: &Path, args: &[&str]) {
    let out = nucdb(dir).args(args).output().unwrap();
    assert!(
        out.status.success(),
        "nucdb {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nucdb_closed_stdout_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let dir = temp_dir();
    run(
        &dir,
        &[
            "generate",
            "--bases",
            "400000",
            "--families",
            "40",
            "--seed",
            "7",
            "--out",
            "coll.fasta",
            "--queries-out",
            "q.fasta",
        ],
    );
    run(
        &dir,
        &[
            "build",
            "--collection",
            "coll.fasta",
            "--db",
            "shards",
            "--shards",
            "2",
        ],
    );

    // Forty explained queries print far more than a pipe holds, so the
    // search is still writing when the reader goes away after one line.
    let mut child = nucdb(&dir)
        .args([
            "search",
            "--db",
            "shards",
            "--query",
            "q.fasta",
            "--explain",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    assert!(!line.is_empty());
    drop(stdout);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
