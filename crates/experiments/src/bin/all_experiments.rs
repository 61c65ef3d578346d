//! Runs the experiment suites and writes their CSVs to `results/` — the
//! full paper regeneration in one command.
//!
//! ```text
//! all_experiments [--quick] [--jobs N] [--out DIR] [--only SLUG,...]
//! ```
//!
//! `--quick` runs the reduced test scale (CI smoke), `--jobs N` sets the
//! sweep-pool worker count (default: `ARMBAR_JOBS` or all cores; output
//! is byte-identical at any value), `--out DIR` redirects the CSVs, and
//! `--only` runs just the listed suites (in table order, same file names).
//! An unknown flag or slug exits 2 and lists the valid slugs.
use armbar_experiments::{runner::results_dir, select, Scale, SUITES};

fn usage(error: &str) -> ! {
    let slugs: Vec<&str> = SUITES.iter().map(|(slug, _)| *slug).collect();
    eprintln!("error: {error}");
    eprintln!("usage: all_experiments [--quick] [--jobs N] [--out DIR] [--only SLUG,...]");
    eprintln!("suites: {}", slugs.join(", "));
    std::process::exit(2);
}

fn main() {
    let mut scale = Scale::full();
    let mut dir = results_dir();
    let mut suites = SUITES.to_vec();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--quick" => scale = Scale::quick(),
            "--jobs" => match value().parse::<usize>() {
                Ok(n) if n >= 1 => armbar_sweep::set_global_jobs(n),
                _ => usage("bad --jobs value (need a positive integer)"),
            },
            "--out" => dir = value().into(),
            "--only" => suites = select(&value()).unwrap_or_else(|e| usage(&e)),
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }

    for (slug, run) in suites {
        for (i, report) in run(&scale).iter().enumerate() {
            report.print();
            report.write_csv(&dir, &format!("{slug}_{i}")).expect("failed to write CSV");
        }
    }
    eprintln!("CSV output written to {}", dir.display());
}
