//! `rexd` — the standalone serving daemon. Identical to `rexctl serve`;
//! exists so the serve crate's own integration tests get a
//! `CARGO_BIN_EXE_rexd` path without building the full CLI.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", rex_serve::cli::USAGE);
        return;
    }
    if let Err(e) = rex_serve::cli::serve_cmd(&argv) {
        eprintln!("rexd: {e}");
        eprintln!("{}", rex_serve::cli::USAGE);
        std::process::exit(2);
    }
}
