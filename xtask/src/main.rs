//! Workspace automation driver (`cargo xtask <command>`).
//!
//! Two commands make up the correctness gate described in the README's
//! "Correctness tooling" section:
//!
//! - `lint` — the token-aware static-analysis pass ([`lint`], [`token`]):
//!   panic-freedom of the library crates, seeded-only randomness,
//!   total-order float handling, deterministic map iteration, audited
//!   atomics, and SAFETY-commented `unsafe`.
//! - `audit-determinism` — the dynamic companion: drives the persistent
//!   worker pool through seeded schedule permutations and thread counts
//!   {1,2,4,8} over grid, particle and Gaussian BP (flat and
//!   sharded), asserting bit-identical
//!   beliefs and metrics folds. The harness lives in `wsnloc-eval`
//!   (`audit` module); this subcommand is a thin cargo wrapper so both
//!   gates are reachable from one entry point.

mod allowlist;
mod lint;
mod token;

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: cargo xtask <command> [options]\n\
         \n\
         commands:\n\
         \x20 lint                run the repo-specific static-analysis rules over\n\
         \x20                     the workspace crates; exits 1 on any violation\n\
         \x20 audit-determinism   replay grid, particle and Gaussian BP under permuted\n\
         \x20                     worker schedules and thread counts {{1,2,4,8}}, asserting\n\
         \x20                     bit-identical beliefs and metrics folds\n\
         \n\
         lint options:\n\
         \x20 --root <dir>        workspace root (default: parent of xtask/)\n\
         \x20 --allowlist <file>  audited-exception file (default: <root>/xtask-lint.toml)\n\
         \x20 --deny-stale        treat stale allowlist entries as hard errors\n\
         \n\
         audit-determinism options:\n\
         \x20 --quick             reduced matrix (threads {{1,2,4}}, 3 permutation seeds)"
    );
    std::process::exit(2)
}

fn default_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is <root>/xtask at compile time; runtime cwd under
    // `cargo xtask` is the workspace root, so prefer the compile-time anchor.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), PathBuf::from)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else { usage() };
    match command.as_str() {
        "lint" => run_lint(args),
        "audit-determinism" => run_audit(args),
        _ => {
            eprintln!("unknown command `{command}`");
            usage();
        }
    }
}

fn run_lint(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut root = default_root();
    let mut allowlist_path: Option<PathBuf> = None;
    let mut deny_stale = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => usage(),
            },
            "--allowlist" => match args.next() {
                Some(v) => allowlist_path = Some(PathBuf::from(v)),
                None => usage(),
            },
            "--deny-stale" => deny_stale = true,
            _ => {
                eprintln!("unknown flag `{flag}`");
                usage();
            }
        }
    }
    let allowlist_path = allowlist_path.unwrap_or_else(|| root.join("xtask-lint.toml"));

    let allow = match allowlist::Allowlist::load(&allowlist_path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "xtask lint: cannot read allowlist {}: {e}",
                allowlist_path.display()
            );
            return ExitCode::from(2);
        }
    };

    match lint::run(&root, &allow) {
        Ok(report) => {
            for warning in &report.warnings {
                if deny_stale {
                    eprintln!("error: {warning}");
                } else {
                    eprintln!("warning: {warning}");
                }
            }
            let stale_fails = deny_stale && !report.warnings.is_empty();
            if report.violations.is_empty() && !stale_fails {
                eprintln!(
                    "xtask lint: clean ({} files, {} audited exceptions)",
                    report.files_scanned, report.exceptions_used
                );
                ExitCode::SUCCESS
            } else {
                for v in &report.violations {
                    println!("{v}");
                }
                eprintln!(
                    "xtask lint: {} violation(s), {} stale allowlist entr(ies) in {} files scanned",
                    report.violations.len(),
                    if deny_stale { report.warnings.len() } else { 0 },
                    report.files_scanned
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::from(2)
        }
    }
}

/// Shells out to the `wsnloc-eval` repro binary, which owns the actual
/// harness — keeping xtask free of workspace dependencies so the lint
/// gate builds in seconds.
fn run_audit(args: impl Iterator<Item = String>) -> ExitCode {
    let mut cargo_args = vec![
        "run".to_string(),
        "--release".to_string(),
        "-p".to_string(),
        "wsnloc-eval".to_string(),
        "--bin".to_string(),
        "repro".to_string(),
        "--".to_string(),
        "audit-determinism".to_string(),
    ];
    for flag in args {
        match flag.as_str() {
            "--quick" => cargo_args.push(flag),
            _ => {
                eprintln!("unknown flag `{flag}`");
                usage();
            }
        }
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    match std::process::Command::new(cargo)
        .args(&cargo_args)
        .current_dir(default_root())
        .status()
    {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask audit-determinism: failed to launch cargo: {e}");
            ExitCode::from(2)
        }
    }
}
