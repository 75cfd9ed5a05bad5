//! `cruz-lint` CLI: argument parsing and exit codes. All analysis lives
//! in the `cruz_lint` library (see its crate docs for the rule
//! catalogue); this binary only drives it.
//!
//! Exit status: 0 clean, 1 findings or stale baseline entries, 2 usage,
//! I/O or parse error.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use cruz_lint::{analyze_file, report, run_workspace_with, WorkspaceOutcome};

const USAGE: &str =
    "usage: cruz-lint --workspace [--root <dir>] [--baseline <file>] [--json] [--update-baseline]
       cruz-lint <file.rs>...

Passes: token rules, layer graph (vs the declared crate/module layer maps),
wire registry (codec tags and magics vs wire-registry.txt; workspace mode only).
Rules: unordered-iteration, wall-clock, ambient-entropy, silent-unwrap,
protocol-panic, unsuppressed-todo, god-file, layer-violation, wire-drift,
swallowed-error, float-in-sim, nonsend-shared, stray-thread. Suppress one line with `// cruz-lint: allow(<rule>)`;
record stragglers in lint-baseline.txt (`path:line:rule [max=N]`, `*` = any line;
stale entries are errors). --json emits the machine report on stdout;
--update-baseline rewrites the baseline from the current findings and exits 0.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workspace = false;
    let mut root = PathBuf::from(".");
    let mut baseline_path: Option<PathBuf> = None;
    let mut json = false;
    let mut update_baseline = false;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--update-baseline" => update_baseline = true,
            "--root" => match it.next() {
                Some(d) => root = PathBuf::from(d),
                None => {
                    eprintln!("cruz-lint: --root needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--baseline" => match it.next() {
                Some(f) => baseline_path = Some(PathBuf::from(f)),
                None => {
                    eprintln!("cruz-lint: --baseline needs a file\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                report::out(USAGE);
                report::out("\n");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("cruz-lint: unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
            file => files.push(PathBuf::from(file)),
        }
    }
    if workspace && !files.is_empty() {
        eprintln!("cruz-lint: --workspace takes no positional files\n{USAGE}");
        return ExitCode::from(2);
    }
    if update_baseline && !workspace {
        eprintln!("cruz-lint: --update-baseline requires --workspace\n{USAGE}");
        return ExitCode::from(2);
    }
    if !workspace && files.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    if workspace {
        let outcome = match run_workspace_with(&root, baseline_path.as_deref()) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("cruz-lint: {e}");
                return ExitCode::from(2);
            }
        };
        if update_baseline {
            let target = baseline_path.unwrap_or_else(|| root.join("lint-baseline.txt"));
            let text = cruz_lint::baseline::render(&outcome.raw);
            if let Err(e) = fs::write(&target, text) {
                eprintln!("cruz-lint: {}: {e}", target.display());
                return ExitCode::from(2);
            }
            report::out(&format!(
                "cruz-lint: wrote {} entr(ies) to {}\n",
                outcome.raw.len(),
                target.display()
            ));
            return ExitCode::SUCCESS;
        }
        if json {
            report::out(&report::to_json(&outcome));
        } else {
            report::out(&report::render_text(&outcome));
        }
        return if outcome.kept.is_empty() && outcome.stale.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Single-file mode: token + graph passes only, no baseline, no
    // registry (both need whole-workspace context).
    let mut kept = Vec::new();
    let mut scanned = 0usize;
    for path in &files {
        let rel = cruz_lint::rel_to(&root, path);
        let src = match fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cruz-lint: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        scanned += 1;
        kept.extend(analyze_file(&rel, &src));
    }
    let outcome = WorkspaceOutcome {
        raw: kept.clone(),
        kept,
        baselined: 0,
        stale: Vec::new(),
        scanned,
        src_lines: Default::default(),
    };
    if json {
        report::out(&report::to_json(&outcome));
    } else {
        report::out(&report::render_text(&outcome));
    }
    if outcome.kept.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
