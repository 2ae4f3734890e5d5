//! `stsl-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Exits 0 when every correctness gate passes, 1 when one fails and 2
//! on a usage error. The last line of standard output is the result
//! object.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use stsl_perfbench::cli;

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("stsl-perfbench: {msg}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    match cli::execute(&args, &mut stdout) {
        Ok(outcome) if outcome.correct => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("stsl-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
