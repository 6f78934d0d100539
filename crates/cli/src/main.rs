//! `nucdb` — command-line front end for the partitioned-search system.
//!
//! ```text
//! nucdb generate --bases 4000000 --out coll.fasta [--seed N] [--families N] ...
//! nucdb build    --collection coll.fasta --db DIR [--k 8] [--stride 1] ...
//! nucdb search   --db DIR --query q.fasta [--candidates 30] [--both-strands] ...
//! nucdb serve    --db DIR [--addr 127.0.0.1:7878] [--threads 4] ...
//! nucdb stat     --db DIR [--out results]
//! ```
//!
//! `nucdb CMD --help` (or `nucdb help CMD`) prints per-subcommand usage.

mod args;
mod commands;

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;

/// Is this panic `print!` finding stdout closed, as when the output is
/// piped to `head`? The reader has all it wanted: not an error.
fn is_closed_stdout(payload: &(dyn Any + Send)) -> bool {
    payload
        .downcast_ref::<String>()
        .is_some_and(|m| m.starts_with("failed printing to stdout") && m.contains("Broken pipe"))
}

/// Run the command; a closed stdout ends it quietly with success.
fn main() -> ExitCode {
    let report = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        if !is_closed_stdout(info.payload()) {
            report(info);
        }
    }));
    panic::catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        if !is_closed_stdout(payload.as_ref()) {
            panic::resume_unwind(payload);
        }
        ExitCode::SUCCESS
    })
}

fn run() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::FAILURE;
    };
    // `nucdb CMD --help` short-circuits to the subcommand's usage.
    if commands::usage_for(command).is_some()
        && rest.iter().any(|arg| arg == "--help" || arg == "-h")
    {
        println!("{}", commands::usage_for(command).unwrap());
        return ExitCode::SUCCESS;
    }
    // fsck owns its exit code: 0 clean, 1 payload damage, 2 structural.
    if command == "fsck" {
        return match commands::fsck(rest) {
            Ok(code) => ExitCode::from(code as u8),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = match command.as_str() {
        "generate" => commands::generate(rest),
        "build" => commands::build(rest),
        "ingest" => commands::ingest(rest),
        "search" => commands::search(rest),
        "merge" => commands::merge(rest),
        "stat" => commands::stat(rest),
        "bench" => commands::bench(rest),
        "serve" => commands::serve(rest),
        "profile" => commands::profile(rest),
        "version" | "--version" | "-V" => commands::version(rest),
        "help" | "--help" | "-h" => {
            // `nucdb help CMD` prints that subcommand's usage.
            match rest.first().and_then(|cmd| commands::usage_for(cmd)) {
                Some(usage) => println!("{usage}"),
                None => println!("{}", commands::USAGE),
            }
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", commands::USAGE).into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
