//! `cruz-lint` self-check: the real workspace must be clean, each new
//! rule must demonstrably fire on an injected violation (the acceptance
//! fixtures), and the source blanker must uphold its invariants under
//! generated inputs.

use std::path::Path;

use cruz_lint::rules::Rule;
use cruz_lint::source::strip_source;
use cruz_lint::{analyze_file, registry, run_workspace, src_dir};
use proptest::prelude::*;

fn repo_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The gate CI relies on: all three passes over the actual tree, with the
/// checked-in baseline and wire registry, report nothing.
#[test]
fn workspace_is_clean() {
    let outcome = run_workspace(&repo_root()).expect("workspace run");
    assert!(
        outcome.kept.is_empty(),
        "unexpected findings:\n{}",
        outcome
            .kept
            .iter()
            .map(|f| format!("{}:{}: {}: {}\n", f.path, f.line, f.rule.name(), f.message))
            .collect::<String>()
    );
    assert!(
        outcome.stale.is_empty(),
        "stale baseline: {:?}",
        outcome.stale
    );
    assert!(outcome.scanned > 100, "workspace walk looks broken");
    assert!(outcome.src_lines["crates/cluster/src"] > 0);
    assert!(outcome.src_lines["src"] > 0);
}

/// Line counts are keyed by each first-party `src/` directory; tests and
/// examples sit under none.
#[test]
fn src_dirs_are_keyed_by_their_path() {
    assert_eq!(
        src_dir("crates/bench/src/bin/repro.rs"),
        Some("crates/bench/src")
    );
    assert_eq!(src_dir("src/lib.rs"), Some("src"));
    assert_eq!(src_dir("ledger/src/run.rs"), Some("ledger/src"));
    assert_eq!(src_dir("tests/end_to_end.rs"), None);
    assert_eq!(src_dir("examples/quickstart.rs"), None);
}

fn rules_at(rel: &str, src: &str) -> Vec<(usize, Rule)> {
    analyze_file(rel, src)
        .into_iter()
        .map(|f| (f.line, f.rule))
        .collect()
}

/// Acceptance: an up-stack `use` injected into the transport seam fails.
#[test]
fn injected_up_stack_use_in_transport_is_flagged() {
    let src = "use crate::node::Node;\nuse crate::world::World;\n";
    assert_eq!(
        rules_at("crates/cluster/src/transport.rs", src),
        vec![(2, Rule::LayerViolation)]
    );
}

/// Acceptance: renumbering a `CtlMsg` tag fails against the checked-in
/// registry, end to end through the real pin file.
#[test]
fn renumbered_ctlmsg_tag_fails_against_checked_in_registry() {
    let root = repo_root();
    let reg_text = std::fs::read_to_string(root.join("wire-registry.txt")).expect("registry file");
    let reg = registry::parse(&reg_text).expect("registry parses");
    let proto = std::fs::read_to_string(root.join("crates/core/src/proto.rs")).expect("proto.rs");
    // Renumber Done's encoder and decoder consistently, so only the
    // registry comparison can catch it.
    let drifted = proto.replace("v.push(2);", "v.push(12);").replace(
        "2 => CtlMsg::Done { epoch },",
        "12 => CtlMsg::Done { epoch },",
    );
    assert_ne!(proto, drifted, "fixture edit must apply");
    let sf = cruz_lint::SourceFile::new("crates/core/src/proto.rs", &drifted);
    let findings = registry::check(&registry::extract(&sf), &reg, "wire-registry.txt");
    assert!(
        findings.iter().any(|f| f.rule == Rule::WireDrift
            && f.message.contains("Done")
            && f.message.contains("code says 12")),
        "expected drift on Done, got {findings:?}"
    );
    // And the unmodified codec passes against the same registry (the
    // events/store entries are exercised by workspace_is_clean).
    let sf = cruz_lint::SourceFile::new("crates/core/src/proto.rs", &proto);
    let clean: Vec<_> = registry::check(&registry::extract(&sf), &reg, "wire-registry.txt")
        .into_iter()
        .filter(|f| f.path != "wire-registry.txt") // other files' pins unmatched here
        .collect();
    assert!(clean.is_empty(), "clean proto.rs must pass: {clean:?}");
}

#[test]
fn injected_swallowed_error_on_protocol_path_is_flagged() {
    let src = "fn f() {\n    let _ = sock.send(buf);\n    sock.flush().ok();\n}\n";
    assert_eq!(
        rules_at("crates/cluster/src/ops.rs", src),
        vec![(2, Rule::SwallowedError), (3, Rule::SwallowedError)]
    );
    // Outside the protocol prefixes the same code is fine.
    assert!(rules_at("crates/simnet/src/stack.rs", src).is_empty());
}

#[test]
fn injected_float_in_sim_is_flagged() {
    let src = "pub struct S {\n    pub drift: f64,\n}\n";
    assert_eq!(
        rules_at("crates/simnet/src/clock.rs", src),
        vec![(2, Rule::FloatInSim)]
    );
    assert!(rules_at("crates/bench/src/lib.rs", src).is_empty());
}

// ---- strip_source properties ------------------------------------------------

/// Self-contained source fragments. The sentinel `ZXQ` appears only
/// inside string/comment/char wrappers, so it must never survive
/// blanking; every fragment is balanced, so concatenations are valid
/// token streams.
fn arb_fragment() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("let x = 1;\n"),
        Just("fn f() { g(); }\n"),
        Just("ident"),
        Just("b"),
        Just(" "),
        Just("\n"),
        Just("+ 2"),
        Just("\"ZXQ\""),
        Just("\"Z\\\"XQ \\\\ZXQ\""),
        Just("// ZXQ\n"),
        Just("/* ZXQ */"),
        Just("/* nested /* ZXQ */ still comment */"),
        Just("r\"ZXQ\""),
        Just("r#\"Z \"XQ\"#"),
        Just("br#\"ZXQ\"#"),
        Just("b\"ZXQ\""),
        Just("'Z'"),
        Just("'\\n'"),
        Just("<'a>"),
    ]
}

fn arb_source() -> impl Strategy<Value = String> {
    // Space-joined: raw concatenation could fuse fragments into tokens no
    // Rust lexer would produce (`2r#"..."#` reads as a numeric suffix, not
    // a raw string), and the blanker is only specified over valid streams.
    proptest::collection::vec(arb_fragment(), 0..40).prop_map(|v| v.join(" "))
}

proptest! {
    /// The blanker is a byte-preserving transform: same length, newlines
    /// in the same positions (line/column attribution depends on it).
    #[test]
    fn strip_source_preserves_geometry(src in arb_source()) {
        let clean = strip_source(&src);
        prop_assert_eq!(clean.len(), src.len(), "byte length preserved");
        let nl = |s: &str| s.bytes().enumerate().filter(|(_, b)| *b == b'\n').map(|(i, _)| i).collect::<Vec<_>>();
        prop_assert_eq!(nl(&clean), nl(&src), "newline positions preserved");
    }

    /// Nothing inside a string, char or comment survives: the sentinel
    /// only ever occurs inside wrappers, so it must be gone.
    #[test]
    fn strip_source_erases_wrapped_content(src in arb_source()) {
        let clean = strip_source(&src);
        prop_assert!(!clean.contains("ZXQ"), "sentinel leaked through: {}", clean);
        prop_assert!(!clean.contains('"'), "unblanked quote: {}", clean);
    }

    /// Idempotence: blanking already-blanked text changes nothing.
    #[test]
    fn strip_source_is_idempotent(src in arb_source()) {
        let once = strip_source(&src);
        prop_assert_eq!(strip_source(&once), once);
    }
}
