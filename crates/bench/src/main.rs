//! `vyrd` — the single front door to every experiment driver; see
//! [`vyrd_bench::cli`] for the flag table and `vyrd help` for the
//! reference it generates.

fn main() -> std::process::ExitCode {
    vyrd_bench::cli::run(std::env::args().skip(1))
}
