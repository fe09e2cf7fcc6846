//! `bfw` — command-line front-end for the BFW reproduction. See
//! `bfw help` or the crate docs of [`bfw_cli`].

use std::io::{ErrorKind, Write as _};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Result<Vec<String>, String> = std::env::args_os()
        .skip(1)
        .enumerate()
        .map(|(i, arg)| {
            arg.into_string()
                .map_err(|arg| format!("argument {} is not valid UTF-8: {arg:?}", i + 1))
        })
        .collect();
    match args.and_then(|args| bfw_cli::run(&args)) {
        Ok(output) => {
            let mut stdout = std::io::stdout().lock();
            match writeln!(stdout, "{output}").and_then(|()| stdout.flush()) {
                Ok(()) => ExitCode::SUCCESS,
                // A reader that stops early (`| head`) wants no more.
                Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: cannot write stdout: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
