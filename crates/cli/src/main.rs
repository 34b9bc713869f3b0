//! `lusail` — command-line front end for the federated SPARQL engine.
//!
//! ```text
//! lusail query  --data a.nt --data b.ttl --query q.sparql [options]
//! lusail generate --benchmark lubm --out DIR [--endpoints N]
//! lusail info   --data a.nt --data b.ttl
//! ```
//!
//! Each `--data` file becomes one endpoint of the federation (N-Triples
//! `.nt` or Turtle `.ttl`, chosen by extension). `query` runs a SPARQL
//! file (or `--query-text`) through the chosen engine and prints the
//! solutions; `generate` materializes a benchmark's endpoints as
//! N-Triples files so they can be re-loaded or inspected; `info` prints
//! per-endpoint statistics.

use lusail_cli::{run, CliError};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, &mut std::io::stdout()) {
        Ok(()) => {}
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n");
            eprintln!("{}", lusail_cli::USAGE);
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
