//! The `dkc` command-line binary. All logic lives in the library (`dkc_cli`)
//! so it can be unit-tested; this file only wires up `std::env::args` and
//! stdout.

#![deny(deprecated)]

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dkc_cli::run(&args) {
        Ok(output) => {
            let mut stdout = std::io::stdout().lock();
            match stdout
                .write_all(output.as_bytes())
                .and_then(|()| stdout.flush())
            {
                // A reader that stops early (`dkc generate … | head -1`)
                // wants no more output, which is not a failure.
                Err(e) if e.kind() != ErrorKind::BrokenPipe => {
                    eprintln!("dkc: writing to stdout failed: {e}");
                    ExitCode::FAILURE
                }
                _ => ExitCode::SUCCESS,
            }
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
