//! `cruz-lint`: the determinism and architecture auditor.
//!
//! The whole reproduction rests on one invariant: the same seed must
//! produce the same event order, and therefore byte-identical checkpoint
//! images, in every process on every machine. The compiler cannot check
//! that; this tool does. It is pure std (no syn/quote — the build must
//! stay offline) and runs three passes over every workspace `.rs` file:
//!
//! 1. **Token rules** ([`rules::tokens`]) — scans a comment/string-blanked
//!    view of each file for banned constructs (hash-order iteration, wall
//!    clocks, ambient entropy, protocol panics, swallowed errors, floats
//!    in simulation state, oversized modules).
//! 2. **Layer graph** ([`graph`]) — extracts the module-dependency graph
//!    from `use`/path tokens and checks it against the declared layer
//!    maps: crates must only import down-stack, and the cluster engine's
//!    internal modules must respect `transport → events →
//!    state/ops/drain/heartbeat/jobs → world`.
//! 3. **Wire registry** ([`registry`]) — extracts the `CtlMsg` codec
//!    tags, `Event` fingerprint tags and on-disk magics/versions from the
//!    source and cross-checks them against the pinned `wire-registry.txt`,
//!    so a silent renumbering (which would strand every stored checkpoint
//!    and golden trace) fails the build.
//!
//! Suppress a finding with a trailing or preceding line comment:
//! `// cruz-lint: allow(<rule>)`. Known stragglers live in
//! `lint-baseline.txt` at the workspace root ([`baseline`]); entries that
//! no longer match any finding are themselves errors, so the baseline only
//! ever shrinks (`--update-baseline` rewrites it).

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

pub mod baseline;
pub mod graph;
pub mod registry;
pub mod report;
pub mod rules;
pub mod source;

pub use rules::Rule;
pub use source::SourceFile;

/// Crates whose event order feeds the deterministic simulation. Iterating
/// a hash collection in any of these is a determinism bug, and `f32`/`f64`
/// in their state risks cross-platform rounding divergence.
pub const SIM_CRATES: &[&str] = &["cluster", "core", "des", "simcpu", "simnet", "simos", "zap"];

/// Directories hosting the checkpoint-restart control plane, where a
/// panic takes down the whole simulated cluster instead of one operation.
/// Every non-test `.rs` file under these prefixes is a protocol path.
pub const PROTOCOL_PREFIXES: &[&str] = &["crates/core/src/", "crates/cluster/src/"];

/// One reported lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

/// What part of the workspace a file belongs to, derived from its
/// workspace-relative path.
#[derive(Debug, Clone)]
pub struct FileKind {
    /// Directory name under `crates/`, if any (`core`, `zap`, ...).
    pub crate_dir: Option<String>,
    /// Test or bench source — exempt from every rule.
    pub is_test_code: bool,
    /// Under a protocol-path prefix (`silent-unwrap`, `protocol-panic`
    /// and `swallowed-error` apply).
    pub is_protocol: bool,
}

impl FileKind {
    /// True when the file sits in a crate whose event order feeds the
    /// deterministic simulation.
    pub fn in_sim_crate(&self) -> bool {
        self.crate_dir
            .as_deref()
            .is_some_and(|c| SIM_CRATES.contains(&c))
    }
}

/// Classifies a workspace-relative path.
pub fn classify(rel: &str) -> FileKind {
    let crate_dir = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .map(str::to_string);
    let is_test_code = rel.split('/').any(|seg| seg == "tests" || seg == "benches");
    let is_protocol = PROTOCOL_PREFIXES.iter().any(|p| rel.starts_with(p));
    FileKind {
        crate_dir,
        is_test_code,
        is_protocol,
    }
}

/// Runs the per-file passes (token rules and layer graph; the wire
/// registry needs whole-workspace context and runs separately) on one
/// already-prepared source file.
pub fn analyze_source(sf: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    rules::tokens::scan(sf, &mut findings);
    graph::scan(sf, &mut findings);
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// Convenience: prepare and analyze one file from its raw text. Vendored
/// and generated trees are exempt wholesale.
pub fn analyze_file(rel: &str, src: &str) -> Vec<Finding> {
    if rel.starts_with("vendor/") || rel.starts_with("target/") {
        return Vec::new();
    }
    analyze_source(&SourceFile::new(rel, src))
}

/// Everything one workspace run produces, before and after the baseline.
#[derive(Debug)]
pub struct WorkspaceOutcome {
    /// All findings, pre-baseline (what `--update-baseline` records).
    pub raw: Vec<Finding>,
    /// Findings that survived the baseline filter.
    pub kept: Vec<Finding>,
    /// How many findings the baseline absorbed.
    pub baselined: usize,
    /// Baseline entries that matched nothing (rendered back in file
    /// syntax) — stale entries are errors so the baseline only shrinks.
    pub stale: Vec<String>,
    /// Files scanned.
    pub scanned: usize,
    /// Non-test lines (those the test mask does not mark) of each
    /// first-party `src/` directory, keyed by its workspace-relative path
    /// (see [`src_dir`]). Filled in workspace mode only.
    pub src_lines: BTreeMap<String, usize>,
}

/// The `src/` directory a workspace-relative path sits under
/// (`crates/cluster/src`, or `src` for the root package), if any.
pub fn src_dir(rel: &str) -> Option<&str> {
    let end = if rel.starts_with("src/") {
        3
    } else {
        rel.find("/src/")? + 4
    };
    Some(&rel[..end])
}

/// Runs all three passes over the workspace rooted at `root`, applying
/// `root/lint-baseline.txt` and `root/wire-registry.txt` when present.
///
/// # Errors
///
/// Unreadable files, or malformed baseline/registry syntax (message names
/// the offending line).
pub fn run_workspace(root: &Path) -> Result<WorkspaceOutcome, String> {
    run_workspace_with(root, None)
}

/// [`run_workspace`] with an explicit baseline file (`--baseline`).
///
/// # Errors
///
/// As [`run_workspace`].
pub fn run_workspace_with(
    root: &Path,
    baseline_override: Option<&Path>,
) -> Result<WorkspaceOutcome, String> {
    let baseline_file =
        baseline_override.map_or_else(|| root.join("lint-baseline.txt"), Path::to_path_buf);
    let baseline = match fs::read_to_string(&baseline_file) {
        Ok(text) => {
            baseline::parse(&text).map_err(|e| format!("{}: {e}", baseline_file.display()))?
        }
        Err(_) => Vec::new(), // no baseline is a clean baseline
    };
    let registry_file = root.join("wire-registry.txt");
    let reg = match fs::read_to_string(&registry_file) {
        Ok(text) => {
            Some(registry::parse(&text).map_err(|e| format!("{}: {e}", registry_file.display()))?)
        }
        Err(_) => None, // no registry pins nothing
    };

    let mut raw: Vec<Finding> = Vec::new();
    let mut wires: Vec<registry::WireEntry> = Vec::new();
    let mut scanned = 0usize;
    let mut src_lines: BTreeMap<String, usize> = BTreeMap::new();
    for path in collect_rs_files(root) {
        let rel = rel_to(root, &path);
        if rel.starts_with("vendor/") || rel.starts_with("target/") {
            continue;
        }
        let src = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        scanned += 1;
        let sf = SourceFile::new(&rel, &src);
        if let Some(dir) = src_dir(&rel).filter(|_| !sf.kind.is_test_code) {
            *src_lines.entry(dir.to_string()).or_default() +=
                sf.mask.iter().filter(|&&test| !test).count();
        }
        raw.extend(analyze_source(&sf));
        wires.extend(registry::extract(&sf));
    }
    if let Some(reg) = &reg {
        raw.extend(registry::check(&wires, reg, "wire-registry.txt"));
    }
    raw.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    let applied = baseline::apply(raw.clone(), &baseline);
    Ok(WorkspaceOutcome {
        raw,
        kept: applied.kept,
        baselined: applied.baselined,
        stale: applied.stale,
        scanned,
        src_lines,
    })
}

/// Recursively collects `.rs` files under `root`, skipping vendored,
/// generated and VCS trees. Sorted for deterministic reports.
pub fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if matches!(name.as_ref(), "target" | ".git" | "vendor" | "node_modules") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Workspace-relative rendering of `path`, forward slashes.
pub fn rel_to(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}
