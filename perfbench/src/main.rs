//! `perfbench` — runs one workload and prints its metrics; the last
//! line of stdout is the JSON result.
//!
//! ```text
//! perfbench --workload cold-serial --seed 1 --seconds 15 --trace 0
//! perfbench --write-expected perfbench/expected_plans.json
//! ```

use std::process::ExitCode;

use kremlin_perfbench::{gen, reference, Args, END_TO_END, PER_LAYER, USAGE};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, path] = argv.as_slice() {
        if flag == "--write-expected" {
            return match reference::render(&gen::paper_programs())
                .and_then(|text| std::fs::write(path, text).map_err(|e| format!("{path}: {e}")))
            {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    match kremlin_perfbench::run(&args).and_then(|report| report.render(wanted)) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
