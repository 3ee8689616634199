//! **`grid <name>`** — one of the paper's schedule × budget grids:
//! Tables 4–9, Figure 3 or the ablations, as listed in
//! [`rex_bench::grid::grids`]. Prints one markdown table per block and
//! writes the records as CSV under `--out`; takes every flag of
//! [`rex_bench::Args`].

use rex_bench::grid::{find, grids};
use rex_bench::Args;

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let Some(grid) = find(&name) else {
        let names: Vec<_> = grids().iter().map(|g| g.name).collect();
        eprintln!(
            "usage: grid <{}> [--scale smoke|fast|full] [--out DIR] ...",
            names.join("|")
        );
        let help = name == "--help" || name == "-h";
        std::process::exit(if help { 0 } else { 2 });
    };
    let args = Args::parse_from(argv.collect());
    grid.run(&args).expect("write CSV");
}
