//! Token-level scans over the blanked source view: the original seven
//! determinism rules plus `swallowed-error`, `float-in-sim`,
//! `nonsend-shared` and `stray-thread`.

use std::collections::BTreeSet;

use crate::rules::Rule;
use crate::source::{find_token, SourceFile};
use crate::Finding;

/// Line budget for one module file. A file past this size has stopped
/// being one layer of the design and resists review; the `god-file` rule
/// fails it until it is split (or grandfathered in the baseline — with a
/// `max=` ceiling, so a grandfathered file may shrink but never grow).
pub const GOD_FILE_MAX_LINES: usize = 1200;

/// The one module allowed to spawn threads: its ordered merge and
/// pipeline are the whole argument that threaded output equals serial
/// output.
const THREAD_MODULE: &str = "crates/core/src/parpool.rs";

/// Methods that iterate a collection in storage order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Runs every token rule over one prepared file, appending findings.
pub fn scan(sf: &SourceFile, out: &mut Vec<Finding>) {
    let clean_lines: Vec<&str> = sf.clean.lines().collect();
    let mut push = |line: usize, rule: Rule, message: String| {
        if !sf.allow.contains(&(line, rule)) {
            out.push(Finding {
                path: sf.rel.clone(),
                line,
                rule,
                message,
            });
        }
    };

    let in_sim_crate = sf.kind.in_sim_crate();
    let in_bench_crate = sf.kind.crate_dir.as_deref() == Some("bench");

    // Whole-file size budget for crate sources. The finding sits on the
    // file's last line so the count is visible in the report, and so a
    // baseline ceiling fails the build the moment the file grows past it.
    if sf.kind.crate_dir.is_some() && sf.rel.contains("/src/") && !sf.kind.is_test_code {
        let lines = sf.raw.lines().count();
        if lines > GOD_FILE_MAX_LINES {
            push(
                lines,
                Rule::GodFile,
                format!(
                    "{lines} lines exceeds the {GOD_FILE_MAX_LINES}-line module budget; \
                     split it along a protocol seam"
                ),
            );
        }
    }

    if in_sim_crate {
        let idents = hash_idents(&sf.clean);
        let mut hits: Vec<(usize, String)> = Vec::new();
        scan_unordered_iteration(&clean_lines, &idents, &mut |line, msg| {
            hits.push((line, msg))
        });
        for (line, msg) in hits {
            if !sf.is_test_line(line) {
                push(line, Rule::UnorderedIteration, msg);
            }
        }
    }

    for (idx, line) in clean_lines.iter().enumerate() {
        let ln = idx + 1;
        if sf.is_test_line(ln) {
            continue;
        }
        if !in_bench_crate {
            for pat in ["Instant::now", "SystemTime", "thread::sleep"] {
                if line.contains(pat) {
                    push(
                        ln,
                        Rule::WallClock,
                        format!("`{pat}` reads the host clock; simulated time is the only clock"),
                    );
                }
            }
        }
        for pat in ["thread_rng", "from_entropy", "rand::random"] {
            if line.contains(pat) {
                push(
                    ln,
                    Rule::AmbientEntropy,
                    format!(
                        "`{pat}` draws ambient entropy; all randomness must flow from the run seed"
                    ),
                );
            }
        }
        if sf.kind.is_protocol {
            for pat in [".unwrap()", ".expect("] {
                if line.contains(pat) {
                    push(
                        ln,
                        Rule::SilentUnwrap,
                        format!(
                            "`{pat}..` on a protocol path panics the whole cluster; return a CruzError instead"
                        ),
                    );
                }
            }
            if line.contains("panic!") {
                push(
                    ln,
                    Rule::ProtocolPanic,
                    "`panic!` on a protocol path kills the whole cluster; surface a CruzError so \
                     the recovery manager can heal the operation"
                        .to_string(),
                );
            }
            if discards_with_let_underscore(line) {
                push(
                    ln,
                    Rule::SwallowedError,
                    "`let _ = ...` on a protocol path swallows a value (and any error in it) \
                     silently; propagate it, record it in `World::soft_faults`, or justify the \
                     drop with `// cruz-lint: allow(swallowed-error)`"
                        .to_string(),
                );
            }
            if line.contains(".ok();") {
                push(
                    ln,
                    Rule::SwallowedError,
                    "`.ok();` on a protocol path discards a `Result`; propagate it, record it \
                     in `World::soft_faults`, or justify the drop with \
                     `// cruz-lint: allow(swallowed-error)`"
                        .to_string(),
                );
            }
        }
        if in_sim_crate {
            for pat in ["f32", "f64"] {
                if find_token(line, pat).is_some() {
                    push(
                        ln,
                        Rule::FloatInSim,
                        format!(
                            "`{pat}` in simulation code risks cross-platform rounding divergence \
                             in checkpoint state; keep state in integer units (nanos, bytes, \
                             bits) or mark parameters/reporting with \
                             `// cruz-lint: allow(float-in-sim)`"
                        ),
                    );
                }
            }
        }
        for pat in ["todo!", "unimplemented!"] {
            if line.contains(pat) {
                push(
                    ln,
                    Rule::UnsuppressedTodo,
                    format!("`{pat}` in non-test code"),
                );
            }
        }
        if sf.rel != THREAD_MODULE {
            for pat in ["thread::scope", "thread::spawn"] {
                if line.contains(pat) {
                    push(
                        ln,
                        Rule::StrayThread,
                        format!(
                            "`{pat}` outside `cruz::parpool`; run the work through `Pool` \
                             (`map_ordered` or `pipeline`), whose in-order hand-back keeps \
                             output identical to a serial run"
                        ),
                    );
                }
            }
        }
        if sf.rel.starts_with("crates/core/src") {
            for pat in ["Rc<", "RefCell<"] {
                if contains_type_token(line, pat) {
                    push(
                        ln,
                        Rule::NonsendShared,
                        format!(
                            "`{pat}..>` in the checkpoint core is not `Send`; the capture/restore \
                             hot paths shard across the worker pool, so shared state here must be \
                             `Arc` (or justified with `// cruz-lint: allow(nonsend-shared)`)"
                        ),
                    );
                }
            }
        }
    }
}

/// True when `line` contains `pat` (a `Type<` prefix) at an identifier
/// boundary on the left: `Rc<u8>` and `rc::Rc<u8>` match, `Arc<u8>` and
/// `MyRefCell<..>` do not. (The pattern ends in `<`, so the right side
/// needs no check.)
fn contains_type_token(line: &str, pat: &str) -> bool {
    let b = line.as_bytes();
    let mut from = 0;
    while let Some(rel) = line[from..].find(pat) {
        let at = from + rel;
        from = at + pat.len();
        if at > 0 {
            let p = b[at - 1];
            if p.is_ascii_alphanumeric() || p == b'_' {
                continue;
            }
        }
        return true;
    }
    false
}

/// True when `line` contains a `let _ = ...` discard (token-bounded:
/// `let _x = ...` names its discard and is visible in review, so only the
/// bare wildcard counts).
fn discards_with_let_underscore(line: &str) -> bool {
    let b = line.as_bytes();
    let mut from = 0;
    while let Some(at) = find_token(&line[from..], "let") {
        let mut i = from + at + 3;
        from = i;
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= b.len() || b[i] != b'_' {
            continue;
        }
        i += 1;
        if i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            continue; // `let _named = ...`
        }
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        if i < b.len() && b[i] == b'=' && b.get(i + 1) != Some(&b'=') {
            return true;
        }
    }
    false
}

// ---- unordered-iteration ----------------------------------------------------

/// Identifiers declared as `HashMap`/`HashSet` in this file: struct fields
/// and bindings (`x: HashMap<..>`, `let mut x = HashMap::new()`).
fn hash_idents(clean: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in clean.lines() {
        let b = line.as_bytes();
        for tok in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(rel) = line[from..].find(tok) {
                let at = from + rel;
                from = at + tok.len();
                // Token boundary on the left.
                if at > 0 {
                    let p = b[at - 1];
                    if p.is_ascii_alphanumeric() || p == b'_' {
                        continue;
                    }
                }
                if let Some(name) = binder_before(line, at) {
                    out.insert(name);
                }
            }
        }
    }
    out
}

/// The identifier being bound when `line[at..]` starts a hash-collection
/// type or constructor: handles `name: HashMap<..>` (field, param, let
/// ascription) and `name = HashMap::new()`.
fn binder_before(line: &str, at: usize) -> Option<String> {
    let b = line.as_bytes();
    let mut i = at;
    // Look through reference sigils and `mut`: `x: &mut HashMap<..>` still
    // binds `x` to a hash collection.
    loop {
        while i > 0 && b[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        if i > 0 && b[i - 1] == b'&' {
            i -= 1;
            continue;
        }
        if i >= 3
            && &b[i - 3..i] == b"mut"
            && (i == 3 || !(b[i - 4].is_ascii_alphanumeric() || b[i - 4] == b'_'))
        {
            i -= 3;
            continue;
        }
        break;
    }
    if i == 0 {
        return None;
    }
    match b[i - 1] {
        b':' => {
            // Must be a single colon (`x: HashMap`), not a path (`::`).
            if i >= 2 && b[i - 2] == b':' {
                return None;
            }
            ident_ending_at(line, i - 1)
        }
        b'=' => {
            // Plain assignment, not `==`, `<=`, `>=`, `!=`, `=>`.
            if i >= 2 && matches!(b[i - 2], b'=' | b'<' | b'>' | b'!') {
                return None;
            }
            ident_ending_at(line, i - 1)
        }
        _ => None,
    }
}

/// The identifier whose last char sits just before byte `end` (skipping
/// whitespace): `"let mut ops "` with `end` at the tail gives `ops`.
fn ident_ending_at(line: &str, end: usize) -> Option<String> {
    let b = line.as_bytes();
    let mut i = end;
    while i > 0 && b[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    let stop = i;
    while i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_') {
        i -= 1;
    }
    if i == stop {
        return None;
    }
    let name = &line[i..stop];
    if name.as_bytes()[0].is_ascii_digit() {
        return None;
    }
    Some(name.to_string())
}

/// The receiver identifier of a `.method(` call whose dot is at `dot`:
/// `self.ops.values()` gives `ops`.
fn receiver_before(line: &str, dot: usize) -> Option<String> {
    ident_ending_at(line, dot)
}

/// Flags iteration over identifiers known to be hash collections, plus
/// `for` loops whose iterated expression is such an identifier.
fn scan_unordered_iteration(
    clean_lines: &[&str],
    idents: &BTreeSet<String>,
    emit: &mut dyn FnMut(usize, String),
) {
    for (idx, line) in clean_lines.iter().enumerate() {
        for m in ITER_METHODS {
            let pat = format!(".{m}(");
            let mut from = 0;
            while let Some(rel) = line[from..].find(&pat) {
                let dot = from + rel;
                from = dot + pat.len();
                if let Some(recv) = receiver_before(line, dot) {
                    if idents.contains(&recv) {
                        emit(
                            idx + 1,
                            format!("`{recv}` is a hash collection; `.{m}()` iterates it in nondeterministic order"),
                        );
                    }
                }
            }
        }
        // `for x in [&mut] path.to.ident {`
        if let Some(for_at) = find_token(line, "for") {
            if let Some(in_rel) = line[for_at..].find(" in ") {
                let expr_start = for_at + in_rel + 4;
                let expr_end = line[expr_start..]
                    .find('{')
                    .map(|p| expr_start + p)
                    .unwrap_or(line.len());
                let mut expr = line[expr_start..expr_end].trim();
                expr = expr.trim_start_matches('&');
                expr = expr.strip_prefix("mut ").unwrap_or(expr).trim();
                if !expr.is_empty()
                    && expr
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
                {
                    if let Some(last) = expr.rsplit('.').next() {
                        if idents.contains(last) {
                            emit(
                                idx + 1,
                                format!("`for` loop over hash collection `{expr}` visits entries in nondeterministic order"),
                            );
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_file;

    fn rules_hit(rel: &str, src: &str) -> Vec<(usize, Rule)> {
        analyze_file(rel, src)
            .into_iter()
            .map(|f| (f.line, f.rule))
            .collect()
    }

    // The acceptance criterion: a deliberately injected HashMap iteration
    // in a sim crate must be flagged.
    #[test]
    fn injected_hashmap_iteration_is_flagged() {
        let src = "use std::collections::HashMap;\n\
                   fn f() {\n\
                       let mut m: HashMap<u32, u32> = HashMap::new();\n\
                       m.insert(1, 2);\n\
                       for (k, v) in &m {\n\
                           let x = (k, v);\n\
                       }\n\
                   }\n";
        let hits = rules_hit("crates/zap/src/injected.rs", src);
        assert!(
            hits.contains(&(5, Rule::UnorderedIteration)),
            "for-loop over HashMap must be flagged, got {hits:?}"
        );
    }

    #[test]
    fn hash_field_method_iteration_is_flagged() {
        let src = "use std::collections::HashMap;\n\
                   struct S { ops: HashMap<u64, u32> }\n\
                   impl S {\n\
                       fn busy(&self) -> bool { self.ops.values().any(|v| *v > 0) }\n\
                       fn look(&self) -> Option<&u32> { self.ops.get(&1) }\n\
                   }\n";
        let hits = rules_hit("crates/simnet/src/injected.rs", src);
        assert_eq!(
            hits,
            vec![(4, Rule::UnorderedIteration)],
            "values() flagged, plain get() is fine"
        );
    }

    #[test]
    fn hash_reference_params_are_tracked() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &mut HashMap<u32, u32>) { m.drain(); }\n";
        assert_eq!(
            rules_hit("crates/simnet/src/x.rs", src),
            vec![(2, Rule::UnorderedIteration)]
        );
    }

    #[test]
    fn btreemap_iteration_is_clean() {
        let src = "use std::collections::BTreeMap;\n\
                   fn f(m: &BTreeMap<u32, u32>) -> usize { m.values().count() }\n";
        assert!(rules_hit("crates/des/src/x.rs", src).is_empty());
    }

    #[test]
    fn hashmap_outside_sim_crates_is_not_flagged() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, u32>) -> usize { m.values().count() }\n";
        assert!(rules_hit("crates/workloads/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_banned_outside_bench() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(
            rules_hit("crates/des/src/x.rs", src),
            vec![(1, Rule::WallClock)]
        );
        assert!(rules_hit("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn ambient_entropy_banned_everywhere() {
        let src = "fn f() -> u64 { rand::random() }\n";
        assert_eq!(
            rules_hit("crates/workloads/src/x.rs", src),
            vec![(1, Rule::AmbientEntropy)]
        );
    }

    #[test]
    fn silent_unwrap_only_on_protocol_paths() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(
            rules_hit("crates/core/src/agent.rs", src),
            vec![(1, Rule::SilentUnwrap)]
        );
        // Every non-test file under the protocol prefixes is covered...
        assert_eq!(
            rules_hit("crates/core/src/proto.rs", src),
            vec![(1, Rule::SilentUnwrap)]
        );
        assert_eq!(
            rules_hit("crates/cluster/src/recovery.rs", src),
            vec![(1, Rule::SilentUnwrap)]
        );
        // ...but crates outside them are not.
        assert!(rules_hit("crates/des/src/queue.rs", src).is_empty());
    }

    #[test]
    fn panic_banned_on_protocol_paths() {
        let src = "fn f() { panic!(\"boom\") }\n";
        assert_eq!(
            rules_hit("crates/cluster/src/world.rs", src),
            vec![(1, Rule::ProtocolPanic)]
        );
        assert!(rules_hit("crates/des/src/queue.rs", src).is_empty());
        let allowed = "fn f() { panic!(\"boom\") } // cruz-lint: allow(protocol-panic)\n";
        assert!(rules_hit("crates/cluster/src/world.rs", allowed).is_empty());
        // `#[cfg(test)]` modules inside protocol files stay exempt.
        let test_mod =
            "#[cfg(test)]\nmod tests {\n    fn t() { panic!(\"x\"); None::<u32>.unwrap(); }\n}\n";
        assert!(rules_hit("crates/core/src/store.rs", test_mod).is_empty());
    }

    #[test]
    fn todo_flagged_and_suppressable() {
        let flagged = "fn f() { todo!() }\n";
        assert_eq!(
            rules_hit("crates/simos/src/x.rs", flagged),
            vec![(1, Rule::UnsuppressedTodo)]
        );
        let allowed = "// cruz-lint: allow(unsuppressed-todo)\nfn f() { todo!() }\n";
        assert!(rules_hit("crates/simos/src/x.rs", allowed).is_empty());
        let trailing = "fn f() { todo!() } // cruz-lint: allow(unsuppressed-todo)\n";
        assert!(rules_hit("crates/simos/src/x.rs", trailing).is_empty());
    }

    #[test]
    fn swallowed_error_flags_discards_on_protocol_paths() {
        let src = "fn f() -> Result<(), ()> { Ok(()) }\n\
                   fn g() { let _ = f(); }\n";
        assert_eq!(
            rules_hit("crates/cluster/src/ops.rs", src),
            vec![(2, Rule::SwallowedError)]
        );
        // `.ok();` is the same silent drop spelled differently.
        let ok = "fn g() { f().ok(); }\n";
        assert_eq!(
            rules_hit("crates/core/src/agent.rs", ok),
            vec![(1, Rule::SwallowedError)]
        );
        // Outside the protocol prefixes a discard is fine.
        assert!(rules_hit("crates/des/src/rng.rs", src).is_empty());
    }

    #[test]
    fn swallowed_error_ignores_named_discards_and_allows() {
        // A named `_hint` discard documents itself; only the bare `_` fires.
        let named = "fn g() { let _keep = f(); }\n";
        assert!(rules_hit("crates/cluster/src/ops.rs", named).is_empty());
        let allowed =
            "fn g() { let _ = f(); } // fire-and-forget: cruz-lint: allow(swallowed-error)\n";
        assert!(rules_hit("crates/cluster/src/ops.rs", allowed).is_empty());
        // Pattern destructuring is not a bare discard.
        let tuple = "fn g() { let (_, b) = f(); use_it(b); }\n";
        assert!(rules_hit("crates/cluster/src/ops.rs", tuple).is_empty());
    }

    #[test]
    fn float_in_sim_flags_bare_float_tokens() {
        let src = "pub struct S { pub drift: f64 }\n";
        assert_eq!(
            rules_hit("crates/simnet/src/x.rs", src),
            vec![(1, Rule::FloatInSim)]
        );
        // Outside sim crates floats are fine (bench reports percentiles).
        assert!(rules_hit("crates/bench/src/x.rs", src).is_empty());
        let allowed = "pub struct S { pub drift: f64 } // cruz-lint: allow(float-in-sim)\n";
        assert!(rules_hit("crates/simnet/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn float_in_sim_requires_token_boundaries() {
        // `unit_f64` / `as_secs_f64` are identifiers, not float types.
        let src = "fn f(r: &mut SimRng) -> u64 { r.unit_f64_bits() }\n\
                   fn g(d: D) -> u64 { d.as_secs_f64_nanos() }\n\
                   // f64 in a comment is fine\n\
                   fn h() -> &'static str { \"f64\" }\n";
        assert!(rules_hit("crates/des/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        let src = "fn real() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       use std::collections::HashMap;\n\
                       #[test]\n\
                       fn t() {\n\
                           let m: HashMap<u32, u32> = HashMap::new();\n\
                           for k in m.keys() { let _ = k; }\n\
                           todo!();\n\
                       }\n\
                   }\n";
        assert!(rules_hit("crates/zap/src/x.rs", src).is_empty());
    }

    #[test]
    fn tests_dir_is_exempt() {
        let src = "fn t() { let m: std::collections::HashMap<u32,u32> = Default::default(); for k in m.keys() {} }\n";
        assert!(rules_hit("crates/zap/tests/x.rs", src).is_empty());
    }

    #[test]
    fn mentions_in_comments_and_strings_are_clean() {
        let src = "// HashMap iteration would be bad: m.values()\n\
                   fn f() -> &'static str { \"Instant::now() todo!()\" }\n";
        assert!(rules_hit("crates/des/src/x.rs", src).is_empty());
    }

    #[test]
    fn nonsend_shared_flags_rc_and_refcell_in_core() {
        let src = "use std::rc::Rc;\n\
                   pub struct S { stored: Rc<[u8]> }\n\
                   pub struct T { cell: std::cell::RefCell<u32> }\n";
        assert_eq!(
            rules_hit("crates/core/src/store.rs", src),
            vec![(2, Rule::NonsendShared), (3, Rule::NonsendShared)],
            "field types flagged; the bare `use` line carries no `Rc<`"
        );
        // Outside the checkpoint core, non-Send sharing is fine (the sim
        // crates are single-threaded by design).
        assert!(rules_hit("crates/simos/src/fs.rs", src).is_empty());
        assert!(rules_hit("crates/cluster/src/world.rs", src).is_empty());
    }

    #[test]
    fn nonsend_shared_needs_token_boundaries_and_respects_allows() {
        // `Arc<` must not match, nor must identifiers ending in Rc/RefCell.
        let clean = "use std::sync::Arc;\n\
                     pub struct S { stored: Arc<[u8]>, w: WeakRc<u8>, c: MyRefCell<u8> }\n";
        assert!(rules_hit("crates/core/src/chunk.rs", clean).is_empty());
        // Qualified paths still hit; an allow comment suppresses.
        let qualified = "fn f() -> std::rc::Rc<u8> { std::rc::Rc::new(0) }\n";
        assert_eq!(
            rules_hit("crates/core/src/agent.rs", qualified),
            vec![(1, Rule::NonsendShared)]
        );
        let allowed =
            "fn f() -> std::rc::Rc<u8> { std::rc::Rc::new(0) } // cruz-lint: allow(nonsend-shared)\n";
        assert!(rules_hit("crates/core/src/agent.rs", allowed).is_empty());
        // Test code inside core files stays exempt.
        let test_mod = "#[cfg(test)]\nmod tests {\n    fn t() { let r: std::rc::Rc<u8> = std::rc::Rc::new(0); drop(r); }\n}\n";
        assert!(rules_hit("crates/core/src/store.rs", test_mod).is_empty());
    }

    #[test]
    fn stray_thread_flags_spawns_outside_the_pool() {
        let src = "fn f() { std::thread::scope(|s| { s.spawn(|| 1); }); }\n\
                   fn g() { let h = thread::spawn(|| 2); }\n\
                   fn h() -> usize { std::thread::available_parallelism().map_or(1, |n| n.get()) }\n";
        let want = vec![(1, Rule::StrayThread), (2, Rule::StrayThread)];
        assert_eq!(rules_hit("crates/cluster/src/ops_agent.rs", src), want);
        assert_eq!(rules_hit("crates/core/src/store.rs", src), want);
        assert_eq!(rules_hit("crates/bench/src/x.rs", src), want);
        // The pool itself, test code and allowed lines are exempt.
        assert!(rules_hit("crates/core/src/parpool.rs", src).is_empty());
        assert!(rules_hit("crates/simos/tests/x.rs", src).is_empty());
        let test_mod = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::scope(|_| ()); }\n}\n";
        assert!(rules_hit("crates/simos/src/fs.rs", test_mod).is_empty());
        let allowed = "fn f() { std::thread::scope(|_| ()); } // cruz-lint: allow(stray-thread)\n";
        assert!(rules_hit("crates/zap/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn god_file_flags_oversized_crate_sources() {
        let big = "// filler\n".repeat(GOD_FILE_MAX_LINES + 1);
        assert_eq!(
            rules_hit("crates/cluster/src/ops.rs", &big),
            vec![(GOD_FILE_MAX_LINES + 1, Rule::GodFile)],
            "finding line is the file's line count"
        );
        let at_budget = "// filler\n".repeat(GOD_FILE_MAX_LINES);
        assert!(
            rules_hit("crates/cluster/src/ops.rs", &at_budget).is_empty(),
            "exactly at budget is fine"
        );
    }

    #[test]
    fn god_file_only_covers_crate_src_dirs() {
        let big = "// filler\n".repeat(GOD_FILE_MAX_LINES + 1);
        assert!(rules_hit("tests/determinism.rs", &big).is_empty());
        assert!(rules_hit("crates/zap/tests/huge.rs", &big).is_empty());
        assert!(rules_hit("crates/bench/benches/huge.rs", &big).is_empty());
        assert!(rules_hit("examples/demo/src/main.rs", &big).is_empty());
    }

    #[test]
    fn vendor_and_target_are_skipped() {
        let src = "fn f() { let t = std::time::Instant::now(); todo!() }\n";
        assert!(analyze_file("vendor/proptest/src/lib.rs", src).is_empty());
        assert!(analyze_file("target/debug/build/x.rs", src).is_empty());
    }
}
