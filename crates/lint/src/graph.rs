//! The layer-violation pass: extracts the module-dependency graph from
//! `use`/path tokens in the blanked source and checks every edge against
//! the declared layer maps.
//!
//! Two maps are enforced:
//!
//! * **Crate stack** — `des` at the base, then the hardware models
//!   (`simcpu`/`simnet`/`simos`), then `zap`, then the protocol core
//!   (`cruz`), then `cluster` on top. A crate may reference same-level
//!   siblings and anything below it; an up-stack reference (e.g. `cruz`
//!   importing `cluster`) inverts the architecture and fails.
//! * **Cluster modules** — within `crates/cluster/src/`, layering is
//!   `runtime`/`node`/`fault`/`params`/`recovery` (base) → `transport` →
//!   `events` → `state`/`ops`/`ops_agent`/`drain`/`heartbeat`/`jobs` →
//!   `world`. `lib.rs` is the assembly root and exempt.
//!   Modules not in the map sit at the base, so a new module that needs
//!   to import up-stack must be added to [`CLUSTER_LAYERS`] deliberately.
//!
//! Only *type* imports create edges: the cluster's `impl World` extension
//! modules define inherent methods callable crate-wide without importing
//! the defining module, which is exactly what lets the operation layers
//! sit below the `world` driver that dispatches to them.

use crate::rules::Rule;
use crate::source::{find_token, SourceFile};
use crate::Finding;

/// The crate stack, bottom-up. Names are *import path* tokens (the `core`
/// directory builds the `cruz` package). Crates absent from the map
/// (workloads, baseline, bench, the lint itself, vendored stand-ins) are
/// unconstrained.
pub const CRATE_LEVELS: &[(&str, u32)] = &[
    ("des", 0),
    ("simcpu", 1),
    ("simnet", 1),
    ("simos", 1),
    ("zap", 2),
    ("cruz", 3),
    ("cluster", 4),
];

/// The cluster engine's internal layering. Modules not listed sit at
/// level 0 (importable by everyone, importing no one above the base).
pub const CLUSTER_LAYERS: &[(&str, u32)] = &[
    ("runtime", 0),
    ("node", 0),
    ("fault", 0),
    ("params", 0),
    ("recovery", 0),
    ("transport", 1),
    ("events", 2),
    ("state", 3),
    ("ops", 3),
    ("ops_agent", 3),
    ("drain", 3),
    ("heartbeat", 3),
    ("jobs", 3),
    ("world", 4),
];

fn crate_level(tok: &str) -> Option<u32> {
    CRATE_LEVELS
        .iter()
        .find(|(n, _)| *n == tok)
        .map(|(_, l)| *l)
}

fn module_level(name: &str) -> u32 {
    CLUSTER_LAYERS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, l)| *l)
        .unwrap_or(0)
}

/// Runs the layer checks over one prepared file, appending findings.
pub fn scan(sf: &SourceFile, out: &mut Vec<Finding>) {
    if sf.kind.is_test_code {
        return;
    }
    let Some(dir) = sf.kind.crate_dir.as_deref() else {
        return; // root-level drivers and examples are unconstrained
    };
    let own_tok = if dir == "core" { "cruz" } else { dir };
    let Some(own_level) = crate_level(own_tok) else {
        return; // unleveled crate
    };
    let mut push = |line: usize, message: String| {
        if !sf.allow.contains(&(line, Rule::LayerViolation)) {
            out.push(Finding {
                path: sf.rel.clone(),
                line,
                rule: Rule::LayerViolation,
                message,
            });
        }
    };

    // Cross-crate edges: any `name::` path token referencing a crate above
    // this one.
    for (idx, line) in sf.clean.lines().enumerate() {
        let ln = idx + 1;
        if sf.is_test_line(ln) {
            continue;
        }
        for &(name, level) in CRATE_LEVELS {
            if name == own_tok || level <= own_level {
                continue;
            }
            if has_path_token(line, name) {
                push(
                    ln,
                    format!(
                        "`{own_tok}` (layer {own_level}) references `{name}::` (layer {level}); \
                         crate dependencies must point down-stack \
                         (des → simcpu/simnet/simos → zap → cruz → cluster)"
                    ),
                );
            }
        }
    }

    // Intra-cluster edges: `crate::<module>` references checked against
    // the module layer map. lib.rs assembles every layer and is exempt.
    if own_tok == "cluster" {
        let stem = file_stem(&sf.rel);
        if stem == "lib" {
            return;
        }
        let own_mod_level = module_level(stem);
        for (line, target) in cluster_targets(&sf.clean) {
            if sf.is_test_line(line) || target == stem {
                continue;
            }
            let target_level = module_level(&target);
            if target_level > own_mod_level {
                push(
                    line,
                    format!(
                        "cluster module `{stem}` (layer {own_mod_level}) imports \
                         `crate::{target}` (layer {target_level}); layering is \
                         transport → events → state/ops/ops_agent/drain/heartbeat/jobs \
                         → world (move the shared type down, or add the \
                         module to CLUSTER_LAYERS in crates/lint/src/graph.rs at its \
                         true level)"
                    ),
                );
            }
        }
    }
}

/// True when `line` contains `name::` with an identifier boundary on the
/// left (so `my_cluster::` never matches `cluster`).
fn has_path_token(line: &str, name: &str) -> bool {
    let b = line.as_bytes();
    let mut from = 0;
    while let Some(at) = find_token(&line[from..], name) {
        let abs = from + at;
        let after = abs + name.len();
        if b.get(after) == Some(&b':') && b.get(after + 1) == Some(&b':') {
            return true;
        }
        from = after;
        if from >= line.len() {
            break;
        }
    }
    false
}

fn file_stem(rel: &str) -> &str {
    rel.rsplit('/')
        .next()
        .unwrap_or(rel)
        .strip_suffix(".rs")
        .unwrap_or(rel)
}

/// Every `crate::<module>` reference in the blanked text, with its
/// 1-based line. Handles both plain paths (`crate::node::node_ip`) and
/// brace groups (`use crate::{events::Event, state::World};`), including
/// groups rustfmt breaks across lines; group members are attributed to
/// the line the member's leading identifier sits on.
pub fn cluster_targets(clean: &str) -> Vec<(usize, String)> {
    let b = clean.as_bytes();
    let mut out = Vec::new();
    let line_of = |pos: usize| 1 + clean[..pos].bytes().filter(|&c| c == b'\n').count();
    let mut from = 0;
    while let Some(rel) = clean[from..].find("crate::") {
        let at = from + rel;
        from = at + "crate::".len();
        // Token boundary on the left (`$crate::` in macros counts too; the
        // leading `$` is not an identifier char, which is what we want).
        if at > 0 {
            let p = b[at - 1];
            if p.is_ascii_alphanumeric() || p == b'_' {
                continue;
            }
        }
        let mut i = at + "crate::".len();
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        if i < b.len() && b[i] == b'{' {
            // Brace group: collect the leading identifier of every
            // depth-1 member.
            let mut depth = 1usize;
            i += 1;
            let mut expect_ident = true;
            while i < b.len() && depth > 0 {
                let c = b[i];
                match c {
                    b'{' => {
                        depth += 1;
                        i += 1;
                    }
                    b'}' => {
                        depth -= 1;
                        i += 1;
                    }
                    b',' => {
                        if depth == 1 {
                            expect_ident = true;
                        }
                        i += 1;
                    }
                    _ if c.is_ascii_whitespace() => i += 1,
                    _ => {
                        if expect_ident && depth == 1 && (c.is_ascii_alphabetic() || c == b'_') {
                            let start = i;
                            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                                i += 1;
                            }
                            out.push((line_of(start), clean[start..i].to_string()));
                        } else {
                            i += 1;
                        }
                        expect_ident = false;
                    }
                }
            }
        } else if i < b.len() && (b[i].is_ascii_alphabetic() || b[i] == b'_') {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            out.push((line_of(start), clean[start..i].to_string()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_file;

    fn layer_hits(rel: &str, src: &str) -> Vec<(usize, Rule)> {
        analyze_file(rel, src)
            .into_iter()
            .filter(|f| f.rule == Rule::LayerViolation)
            .map(|f| (f.line, f.rule))
            .collect()
    }

    // The acceptance criterion: an injected up-stack `use` in the
    // transport seam must fail.
    #[test]
    fn transport_importing_world_is_flagged() {
        let src = "use crate::node::Node;\nuse crate::world::World;\n";
        assert_eq!(
            layer_hits("crates/cluster/src/transport.rs", src),
            vec![(2, Rule::LayerViolation)]
        );
    }

    #[test]
    fn downward_and_same_level_imports_are_clean() {
        let src = "use crate::events::Event;\nuse crate::state::World;\nuse crate::jobs::PodSpec;\nuse crate::transport::CtlSock;\n";
        assert!(layer_hits("crates/cluster/src/ops.rs", src).is_empty());
        // world (top) may import everything.
        assert!(layer_hits("crates/cluster/src/world.rs", src).is_empty());
    }

    #[test]
    fn base_module_importing_ops_is_flagged() {
        let src = "use crate::ops::OpRuntime;\n";
        assert_eq!(
            layer_hits("crates/cluster/src/params.rs", src),
            vec![(1, Rule::LayerViolation)]
        );
        // Unlisted modules sit at the base and get the same treatment.
        assert_eq!(
            layer_hits("crates/cluster/src/newmod.rs", src),
            vec![(1, Rule::LayerViolation)]
        );
    }

    #[test]
    fn brace_groups_and_inline_paths_are_seen() {
        let grouped = "use crate::{node::Node, world::World};\n";
        assert_eq!(
            layer_hits("crates/cluster/src/transport.rs", grouped),
            vec![(1, Rule::LayerViolation)]
        );
        let multiline = "use crate::{\n    node::Node,\n    world::World,\n};\n";
        assert_eq!(
            layer_hits("crates/cluster/src/transport.rs", multiline),
            vec![(3, Rule::LayerViolation)],
            "member attributed to its own line"
        );
        let inline = "fn f() { crate::world::tick(); }\n";
        assert_eq!(
            layer_hits("crates/cluster/src/events.rs", inline),
            vec![(1, Rule::LayerViolation)]
        );
    }

    #[test]
    fn lib_rs_and_tests_are_exempt() {
        let src = "pub use crate::world::World;\n";
        assert!(layer_hits("crates/cluster/src/lib.rs", src).is_empty());
        assert!(layer_hits("crates/cluster/tests/x.rs", src).is_empty());
        let in_tests = "fn real() {}\n#[cfg(test)]\nmod tests {\n    use crate::world::World;\n}\n";
        assert!(layer_hits("crates/cluster/src/transport.rs", in_tests).is_empty());
    }

    #[test]
    fn cross_crate_up_stack_reference_is_flagged() {
        let src = "use cluster::World;\n";
        assert_eq!(
            layer_hits("crates/core/src/proto.rs", src),
            vec![(1, Rule::LayerViolation)]
        );
        let zap_up = "fn f() { let w = cruz::store::StoreConfig::default(); }\n";
        assert_eq!(
            layer_hits("crates/zap/src/pod.rs", zap_up),
            vec![(1, Rule::LayerViolation)]
        );
    }

    #[test]
    fn cross_crate_down_stack_and_sibling_references_are_clean() {
        let down = "use des::SimTime;\nuse simnet::addr::SockAddr;\nuse zap::Zap;\nuse cruz::proto::CtlMsg;\n";
        assert!(layer_hits("crates/cluster/src/node.rs", down).is_empty());
        let sibling = "use simcpu::Cpu;\n";
        assert!(layer_hits("crates/simos/src/kernel.rs", sibling).is_empty());
        // Unleveled crates may import anything.
        let any = "use cluster::World;\nuse cruz::proto::CtlMsg;\n";
        assert!(layer_hits("crates/bench/src/lib.rs", any).is_empty());
        assert!(layer_hits("src/main.rs", any).is_empty());
    }

    #[test]
    fn comments_and_doc_links_do_not_create_edges() {
        let src =
            "//! See [`crate::world`] for the driver.\n// cluster::World is above us\nfn f() {}\n";
        assert!(layer_hits("crates/cluster/src/state.rs", src).is_empty());
        assert!(layer_hits("crates/core/src/proto.rs", src).is_empty());
    }

    #[test]
    fn layer_violation_is_suppressable() {
        let src = "use crate::world::World; // bootstrap shim: cruz-lint: allow(layer-violation)\n";
        assert!(layer_hits("crates/cluster/src/transport.rs", src).is_empty());
    }

    #[test]
    fn cluster_targets_parses_groups() {
        let t = cluster_targets("use crate::{a::X, b::{Y, Z}, c};\ncrate::d::f();\n");
        let names: Vec<&str> = t.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c", "d"]);
        assert_eq!(t[3].0, 2, "inline path attributed to line 2");
    }
}
