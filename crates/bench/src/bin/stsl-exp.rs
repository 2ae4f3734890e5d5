//! `stsl-exp`: regenerates the paper's tables and figures by name.
//!
//! ```text
//! stsl-exp list                      # every experiment, its file and seed
//! stsl-exp table1 fig4               # standard presets
//! stsl-exp all --quick               # every experiment, seconds each
//! stsl-exp fleet_sweep --full        # paper / fleet scale
//! ```
//!
//! Results land in `results/` (or `$STSL_RESULTS`); a malformed command
//! line exits with status 2.

use stsl_bench::cli::{self, Command};
use stsl_bench::{results_dir, run_experiment, EXPERIMENTS};
use stsl_split::WallTimer;

fn main() {
    let command = cli::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n\n{}", cli::USAGE);
        std::process::exit(2);
    });
    let Command::Run {
        experiments,
        preset,
        seed,
    } = command
    else {
        for e in EXPERIMENTS {
            let full = if e.full { "  (has --full)" } else { "" };
            let file = format!("results/{}.json", e.stem);
            println!(
                "{:<17} {:<23} seed {:<3} {}{}",
                e.id, file, e.seed, e.title, full
            );
        }
        return;
    };
    let dir = results_dir();
    for exp in experiments {
        let seed = seed.unwrap_or(exp.seed);
        println!("=== {} ({}, seed {}) ===", exp.id, preset.name(), seed);
        let timer = WallTimer::start();
        match run_experiment(exp, preset, seed, &dir) {
            Ok((report, path)) => println!(
                "{report}\nwrote {} ({:.1} s)\n",
                path.display(),
                timer.seconds()
            ),
            Err(e) => {
                eprintln!(
                    "error: {}: writing results to {}: {e}",
                    exp.id,
                    dir.display()
                );
                std::process::exit(1);
            }
        }
    }
}
