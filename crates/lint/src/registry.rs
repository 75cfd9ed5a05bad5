//! The wire-format registry pass.
//!
//! Every persistent artifact in the reproduction — checkpoint stores,
//! fault plans, golden traces — embeds small integers the source code
//! chooses: `CtlMsg` codec tags, `Event` fingerprint tags, on-disk
//! magics and versions, well-known ports. Renumbering any of them
//! compiles cleanly and silently strands every stored image and golden
//! digest. This pass extracts those numbers from the source and
//! cross-checks them three ways:
//!
//! * the `CtlMsg` encoder against its own decoder (a tag encoded but not
//!   decoded, or decoded differently, is a protocol bug today);
//! * the extracted set against `wire-registry.txt` at the workspace root
//!   (drift from the pinned value, or an unpinned tag, is an error);
//! * the registry against the code (a pinned entry the code no longer
//!   has is an error at the registry line — the registry never rots).
//!
//! Changing a tag on purpose therefore takes two edits — code and
//! registry — which is exactly the review speed bump the pass exists to
//! create. Extraction is heuristic (no rustc), tuned to the codec shapes
//! actually used in `proto.rs`/`events.rs`; the self-check test keeps it
//! honest against the real tree.

use crate::rules::Rule;
use crate::source::SourceFile;
use crate::Finding;

/// Where in the code a wire number was extracted from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// `CtlMsg::encode` arm.
    Encode,
    /// `CtlMsg::decode` arm.
    Decode,
    /// `Event::fingerprint` mix tag.
    Fingerprint,
    /// A `MAGIC`/`VERSION`/`PORT` const.
    Const,
}

/// One wire number extracted from the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireEntry {
    /// Registry family: `ctlmsg`, `event`, `magic`, `version`, `port`.
    pub family: &'static str,
    /// Variant or qualified const name (`Done`, `store.MANIFEST_MAGIC`).
    pub name: String,
    /// Canonical value (decimal, or the literal bytes for magics).
    pub value: String,
    /// File the entry came from.
    pub path: String,
    /// 1-based line of the defining site.
    pub line: usize,
    /// Which extractor produced it.
    pub origin: Origin,
}

/// One `family name value` line from `wire-registry.txt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegEntry {
    /// Family keyword.
    pub family: String,
    /// Variant or qualified const name.
    pub name: String,
    /// Canonical value.
    pub value: String,
    /// 1-based line in the registry file.
    pub line: usize,
}

/// The parsed pin file.
#[derive(Debug, Default)]
pub struct Registry {
    /// All pins, in file order.
    pub entries: Vec<RegEntry>,
}

const FAMILIES: &[&str] = &["ctlmsg", "event", "magic", "version", "port"];

/// Parses `wire-registry.txt`: one `family name value` triple per line,
/// `#` comments and blank lines ignored, values canonicalized.
///
/// # Errors
///
/// Malformed lines (wrong field count, unknown family), naming the line.
pub fn parse(text: &str) -> Result<Registry, String> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 3 {
            return Err(format!(
                "line {}: expected `family name value`, got {} field(s)",
                idx + 1,
                fields.len()
            ));
        }
        if !FAMILIES.contains(&fields[0]) {
            return Err(format!(
                "line {}: unknown family `{}` (one of {})",
                idx + 1,
                fields[0],
                FAMILIES.join("/")
            ));
        }
        entries.push(RegEntry {
            family: fields[0].to_string(),
            name: fields[1].to_string(),
            value: canon(fields[2]),
            line: idx + 1,
        });
    }
    Ok(Registry { entries })
}

/// Canonical form of a wire value: hex and decimal integer literals
/// (underscores allowed) normalize to decimal; `b"..."`/`"..."` literals
/// to their inner bytes; anything else passes through trimmed.
pub fn canon(v: &str) -> String {
    let t = v.trim();
    if let Some(inner) = t
        .strip_prefix("b\"")
        .or_else(|| t.strip_prefix('"'))
        .and_then(|s| s.strip_suffix('"'))
    {
        return inner.to_string();
    }
    let digits: String = t.chars().filter(|&c| c != '_').collect();
    if let Some(hex) = digits
        .strip_prefix("0x")
        .or_else(|| digits.strip_prefix("0X"))
    {
        if let Ok(n) = u64::from_str_radix(hex, 16) {
            return n.to_string();
        }
    }
    if let Ok(n) = digits.parse::<u64>() {
        return n.to_string();
    }
    t.to_string()
}

/// Extracts the wire numbers a file defines. Dispatches on the path, so
/// only the four wire-bearing files cost anything.
pub fn extract(sf: &SourceFile) -> Vec<WireEntry> {
    let mut out = Vec::new();
    match sf.rel.as_str() {
        "crates/core/src/proto.rs" => {
            extract_ctlmsg(sf, &mut out);
            extract_consts(sf, &mut out);
        }
        "crates/cluster/src/events.rs" => extract_events(sf, &mut out),
        "crates/core/src/store.rs"
        | "crates/core/src/replog.rs"
        | "crates/cluster/src/fault.rs" => extract_consts(sf, &mut out),
        _ => {}
    }
    out
}

/// First integer literal in `s` after skipping whitespace, as canonical
/// decimal.
fn leading_int(s: &str) -> Option<String> {
    let t = s.trim_start();
    let end = t
        .char_indices()
        .find(|(_, c)| !(c.is_ascii_digit() || *c == '_'))
        .map_or(t.len(), |(i, _)| i);
    let run = &t[..end];
    if run.chars().any(|c| c.is_ascii_digit()) {
        Some(canon(run))
    } else {
        None
    }
}

/// The variant name of the first `CtlMsg::Ident` token in `line`.
fn ctl_ident(line: &str) -> Option<&str> {
    let at = line.find("CtlMsg::")?;
    if at > 0 {
        let p = line.as_bytes()[at - 1];
        if p.is_ascii_alphanumeric() || p == b'_' {
            return None;
        }
    }
    let rest = &line[at + "CtlMsg::".len()..];
    let end = rest
        .char_indices()
        .find(|(_, c)| !(c.is_ascii_alphanumeric() || *c == '_'))
        .map_or(rest.len(), |(i, _)| i);
    if end == 0 {
        None
    } else {
        Some(&rest[..end])
    }
}

/// Extracts encoder and decoder tags from the `CtlMsg` codec.
///
/// Encoder: within `fn encode`..`fn decode`, each `CtlMsg::Ident` match
/// arm is paired with the first `push(<int>)` before the next arm.
/// Decoder: within `fn decode` to the closing `}` at column 0, arms of
/// the form `<int> => ...` count when the right-hand side mentions
/// `CtlMsg::` (same-line) or opens a block (paired with the first
/// `CtlMsg::Ident` before the next such arm) — this rejects the nested
/// field-decoding matches (`0 => OpKind::Checkpoint`).
fn extract_ctlmsg(sf: &SourceFile, out: &mut Vec<WireEntry>) {
    let lines: Vec<&str> = sf.clean.lines().collect();
    let enc_start = lines.iter().position(|l| l.contains("fn encode"));
    let dec_start = lines.iter().position(|l| l.contains("fn decode"));

    if let (Some(es), Some(ds)) = (enc_start, dec_start) {
        // Encoder arms.
        let arm_lines: Vec<usize> = (es + 1..ds)
            .filter(|&i| ctl_ident(lines[i]).is_some())
            .collect();
        for (k, &i) in arm_lines.iter().enumerate() {
            let window_end = arm_lines.get(k + 1).copied().unwrap_or(ds);
            let name = ctl_ident(lines[i]).unwrap();
            let tag = (i..window_end).find_map(|j| {
                let l = lines[j];
                let at = l.find("push(")?;
                leading_int(&l[at + "push(".len()..])
            });
            if let Some(tag) = tag {
                out.push(WireEntry {
                    family: "ctlmsg",
                    name: name.to_string(),
                    value: tag,
                    path: sf.rel.clone(),
                    line: i + 1,
                    origin: Origin::Encode,
                });
            }
        }
    }

    if let Some(ds) = dec_start {
        let dec_end = (ds + 1..lines.len())
            .find(|&i| lines[i].starts_with('}'))
            .unwrap_or(lines.len());
        // Accepted decoder arms: (line, tag, same-line variant if any).
        let mut arms: Vec<(usize, String, Option<String>)> = Vec::new();
        for i in ds + 1..dec_end {
            let t = lines[i].trim_start();
            let Some(tag) = leading_int(t) else { continue };
            let after_digits = t.trim_start_matches(|c: char| c.is_ascii_digit() || c == '_');
            let Some(rhs) = after_digits.trim_start().strip_prefix("=>") else {
                continue;
            };
            if let Some(name) = ctl_ident(rhs) {
                arms.push((i, tag, Some(name.to_string())));
            } else if rhs.trim_start().starts_with('{') {
                arms.push((i, tag, None));
            }
        }
        for k in 0..arms.len() {
            let (i, ref tag, ref same_line) = arms[k];
            let next = arms.get(k + 1).map_or(dec_end, |a| a.0);
            let name = same_line
                .clone()
                .or_else(|| (i + 1..next).find_map(|j| ctl_ident(lines[j]).map(str::to_string)));
            if let Some(name) = name {
                out.push(WireEntry {
                    family: "ctlmsg",
                    name,
                    value: tag.clone(),
                    path: sf.rel.clone(),
                    line: i + 1,
                    origin: Origin::Decode,
                });
            }
        }
    }
}

/// Extracts `Event` fingerprint tags: each non-test `Event::Ident` token
/// pairs with the first `mix(<int>` at or after it, before the next
/// candidate and within 8 lines. A wrapping variant names what it wraps:
/// `Event::Deadline(Deadline::Ident ..)` is extracted as `Ident`.
/// Unpaired candidates (uses of `Event` outside the fingerprint match)
/// are dropped.
fn extract_events(sf: &SourceFile, out: &mut Vec<WireEntry>) {
    let lines: Vec<&str> = sf.clean.lines().collect();
    let mut cands: Vec<(usize, String)> = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        if sf.is_test_line(i + 1) {
            continue;
        }
        let Some(at) = l.find("Event::") else {
            continue;
        };
        if at > 0 {
            let p = l.as_bytes()[at - 1];
            if p.is_ascii_alphanumeric() || p == b'_' || p == b':' {
                continue;
            }
        }
        let rest = &l[at + "Event::".len()..];
        let end = ident_len(rest);
        if end == 0 || !rest.as_bytes()[0].is_ascii_uppercase() {
            continue;
        }
        let mut name = &rest[..end];
        if let Some(inner) = rest[end..].strip_prefix('(') {
            let path = ident_len(inner);
            if let Some(variant) = inner[path..].strip_prefix("::").filter(|_| path > 0) {
                let n = ident_len(variant);
                if n > 0 && variant.as_bytes()[0].is_ascii_uppercase() {
                    name = &variant[..n];
                }
            }
        }
        cands.push((i, name.to_string()));
    }
    for k in 0..cands.len() {
        let (i, ref name) = cands[k];
        let bound = cands
            .get(k + 1)
            .map_or(lines.len(), |c| c.0)
            .min(i + 9)
            .min(lines.len());
        let tag = (i..bound).find_map(|j| {
            let at = lines[j].find("mix(")?;
            leading_int(&lines[j][at + "mix(".len()..])
        });
        if let Some(tag) = tag {
            out.push(WireEntry {
                family: "event",
                name: name.clone(),
                value: tag,
                path: sf.rel.clone(),
                line: i + 1,
                origin: Origin::Fingerprint,
            });
        }
    }
}

/// Length of the identifier at the start of `s` (0 if none).
fn ident_len(s: &str) -> usize {
    s.char_indices()
        .find(|(_, c)| !(c.is_ascii_alphanumeric() || *c == '_'))
        .map_or(s.len(), |(i, _)| i)
}

/// Extracts `const` items whose names mention `MAGIC`/`VERSION`/`PORT`,
/// qualified as `<file stem>.<NAME>`. Reads the *raw* lines so byte-string
/// magics survive blanking; test code is skipped.
fn extract_consts(sf: &SourceFile, out: &mut Vec<WireEntry>) {
    let stem = sf
        .rel
        .rsplit('/')
        .next()
        .unwrap_or(&sf.rel)
        .trim_end_matches(".rs");
    for (idx, line) in sf.raw.lines().enumerate() {
        if sf.is_test_line(idx + 1) {
            continue;
        }
        let t = line.trim_start();
        let Some(rest) = t
            .strip_prefix("pub const ")
            .or_else(|| t.strip_prefix("const "))
        else {
            continue;
        };
        let Some((name, after)) = rest.split_once(':') else {
            continue;
        };
        let name = name.trim();
        let family = if name.contains("MAGIC") {
            "magic"
        } else if name.contains("VERSION") {
            "version"
        } else if name.contains("PORT") {
            "port"
        } else {
            continue;
        };
        let Some((_, value)) = after.split_once('=') else {
            continue;
        };
        let value = value.trim().trim_end_matches(';').trim();
        out.push(WireEntry {
            family,
            name: format!("{stem}.{name}"),
            value: canon(value),
            path: sf.rel.clone(),
            line: idx + 1,
            origin: Origin::Const,
        });
    }
}

/// Cross-checks the extracted entries against each other and against the
/// registry. `reg_rel` is the path findings against the registry file
/// itself are attributed to.
pub fn check(entries: &[WireEntry], reg: &Registry, reg_rel: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut push = |path: &str, line: usize, message: String| {
        out.push(Finding {
            path: path.to_string(),
            line,
            rule: Rule::WireDrift,
            message,
        });
    };

    // 1. Encoder vs decoder.
    let enc: Vec<&WireEntry> = entries
        .iter()
        .filter(|e| e.origin == Origin::Encode)
        .collect();
    let dec: Vec<&WireEntry> = entries
        .iter()
        .filter(|e| e.origin == Origin::Decode)
        .collect();
    for e in &enc {
        match dec.iter().find(|d| d.name == e.name) {
            None => push(
                &e.path,
                e.line,
                format!(
                    "CtlMsg::{} is encoded with tag {} but has no decode arm",
                    e.name, e.value
                ),
            ),
            Some(d) if d.value != e.value => push(
                &e.path,
                e.line,
                format!(
                    "CtlMsg::{} encodes as tag {} but decodes from tag {} (line {})",
                    e.name, e.value, d.value, d.line
                ),
            ),
            _ => {}
        }
    }
    for d in &dec {
        if !enc.iter().any(|e| e.name == d.name) {
            push(
                &d.path,
                d.line,
                format!(
                    "CtlMsg::{} is decoded from tag {} but never encoded",
                    d.name, d.value
                ),
            );
        }
    }

    // 2. Duplicate tags within a family (two variants sharing a wire
    // number collide on the wire / in fingerprints).
    for (family, origin) in [("ctlmsg", Origin::Encode), ("event", Origin::Fingerprint)] {
        let list: Vec<&WireEntry> = entries.iter().filter(|e| e.origin == origin).collect();
        for (k, e) in list.iter().enumerate() {
            if let Some(first) = list[..k].iter().find(|p| p.value == e.value) {
                push(
                    &e.path,
                    e.line,
                    format!(
                        "{family} tag {} is used by both {} and {}",
                        e.value, first.name, e.name
                    ),
                );
            }
        }
    }

    // 3. Code vs registry. The encoder is the canonical ctlmsg site (the
    // decoder was reconciled against it above).
    let code: Vec<&WireEntry> = entries
        .iter()
        .filter(|e| e.origin != Origin::Decode)
        .collect();
    for e in &code {
        match reg
            .entries
            .iter()
            .find(|r| r.family == e.family && r.name == e.name)
        {
            None => push(
                &e.path,
                e.line,
                format!(
                    "{} {} (value {}) is not pinned in {reg_rel}; add `{} {} {}`",
                    e.family, e.name, e.value, e.family, e.name, e.value
                ),
            ),
            Some(r) if r.value != e.value => push(
                &e.path,
                e.line,
                format!(
                    "{} {} drifted: code says {} but {reg_rel}:{} pins {} — \
                     renumbering strands stored checkpoints and golden traces; \
                     if intentional, update the registry in the same change",
                    e.family, e.name, e.value, r.line, r.value
                ),
            ),
            _ => {}
        }
    }
    for r in &reg.entries {
        if !code
            .iter()
            .any(|e| e.family == r.family && e.name == r.name)
        {
            push(
                reg_rel,
                r.line,
                format!(
                    "registry pins {} {} = {} but the code defines no such entry \
                     (remove the pin or restore the tag)",
                    r.family, r.name, r.value
                ),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // A miniature of the real proto.rs codec shape, including the nested
    // field matches that must NOT be mistaken for decoder arms.
    const PROTO: &str = "\
pub const AGENT_PORT: u16 = 7770;
impl CtlMsg {
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::new();
        match self {
            CtlMsg::Start { kind, epoch } => {
                v.push(0);
                v.push(match kind {
                    OpKind::Checkpoint => 0,
                    OpKind::Restart => 1,
                });
            }
            CtlMsg::Done { epoch } => {
                v.push(2);
            }
        }
        v
    }
    pub fn decode(bytes: &[u8]) -> Option<CtlMsg> {
        Some(match bytes[0] {
            0 => {
                let kind = match bytes[9] {
                    0 => OpKind::Checkpoint,
                    1 => OpKind::Restart,
                    _ => return None,
                };
                CtlMsg::Start { kind, epoch }
            }
            2 => CtlMsg::Done { epoch },
            _ => return None,
        })
    }
}
";

    fn proto_entries(src: &str) -> Vec<WireEntry> {
        extract(&SourceFile::new("crates/core/src/proto.rs", src))
    }

    #[test]
    fn ctlmsg_extraction_sees_both_sides_and_skips_nested_matches() {
        let e = proto_entries(PROTO);
        let triple = |w: &WireEntry| (w.origin, w.name.clone(), w.value.clone());
        assert_eq!(
            e.iter().map(triple).collect::<Vec<_>>(),
            vec![
                (Origin::Encode, "Start".into(), "0".into()),
                (Origin::Encode, "Done".into(), "2".into()),
                (Origin::Decode, "Start".into(), "0".into()),
                (Origin::Decode, "Done".into(), "2".into()),
                (Origin::Const, "proto.AGENT_PORT".into(), "7770".into()),
            ]
        );
    }

    // The acceptance criterion: renumber one decode arm and the pass
    // must fail even with no registry file present.
    #[test]
    fn renumbered_decode_arm_is_flagged() {
        let drifted = PROTO.replace("2 => CtlMsg::Done", "3 => CtlMsg::Done");
        let findings = check(
            &proto_entries(&drifted),
            &Registry::default(),
            "wire-registry.txt",
        );
        assert!(
            findings.iter().any(|f| f.rule == Rule::WireDrift
                && f.message.contains("Done")
                && f.message.contains("encodes as tag 2")
                && f.message.contains("decodes from tag 3")),
            "expected encode/decode mismatch, got {findings:?}"
        );
    }

    #[test]
    fn registry_drift_and_rot_are_flagged() {
        let reg =
            parse("ctlmsg Start 0\nctlmsg Done 3\nport proto.AGENT_PORT 7770\nevent Gone 9\n")
                .unwrap();
        let findings = check(&proto_entries(PROTO), &reg, "wire-registry.txt");
        assert!(
            findings.iter().any(|f| f.path == "crates/core/src/proto.rs"
                && f.message.contains("Done drifted")
                && f.message.contains("code says 2")
                && f.message.contains("pins 3")),
            "expected drift, got {findings:?}"
        );
        assert!(
            findings.iter().any(|f| f.path == "wire-registry.txt"
                && f.line == 4
                && f.message.contains("event Gone")),
            "expected stale pin at registry line 4, got {findings:?}"
        );
    }

    #[test]
    fn unpinned_tag_is_flagged() {
        let reg = parse("ctlmsg Start 0\nport proto.AGENT_PORT 7770\n").unwrap();
        let findings = check(&proto_entries(PROTO), &reg, "wire-registry.txt");
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("ctlmsg Done (value 2) is not pinned")),
            "got {findings:?}"
        );
    }

    #[test]
    fn matching_registry_is_clean() {
        let reg =
            parse("# pins\nctlmsg Start 0\nctlmsg Done 2\nport proto.AGENT_PORT 7770\n").unwrap();
        let findings = check(&proto_entries(PROTO), &reg, "wire-registry.txt");
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn duplicate_tags_are_flagged() {
        let dup = PROTO.replace("v.push(2);", "v.push(0);");
        let findings = check(
            &proto_entries(&dup),
            &Registry::default(),
            "wire-registry.txt",
        );
        assert!(
            findings.iter().any(|f| f
                .message
                .contains("ctlmsg tag 0 is used by both Start and Done")),
            "got {findings:?}"
        );
    }

    #[test]
    fn event_fingerprint_tags_are_extracted() {
        let src = "\
impl Event {
    pub fn fingerprint(&self) -> u64 {
        match self {
            Event::NodeRun(n) => mix(1, *n as u64, 0),
            Event::HeartbeatTimeout {
                job,
                sent_at,
            } => {
                let mut h = mix(16, sent_at.as_nanos(), 0);
                h
            }
            Event::Deadline(Deadline::CoordRetry { op, attempt }) => mix(11, *op, 0),
            Event::Deadline(Deadline::HeartbeatTimeout {
                job,
            }) => {
                let mut h = mix(17, 0, 0);
                h
            }
            Event::Quiet { .. } => 0,
        }
    }
}
";
        let e = extract(&SourceFile::new("crates/cluster/src/events.rs", src));
        assert_eq!(
            e.iter()
                .map(|w| (w.name.clone(), w.value.clone()))
                .collect::<Vec<_>>(),
            vec![
                ("NodeRun".to_string(), "1".to_string()),
                ("HeartbeatTimeout".to_string(), "16".to_string()),
                ("CoordRetry".to_string(), "11".to_string()),
                ("HeartbeatTimeout".to_string(), "17".to_string()),
            ],
            "nested deadlines name the wrapped variant; unpaired Quiet dropped"
        );
    }

    #[test]
    fn byte_string_and_hex_consts_are_extracted() {
        let src = "\
pub const MANIFEST_MAGIC: u32 = 0x4352_5a4d;
const MAGIC: &[u8; 4] = b\"CRZF\";
pub const STORE_VERSION: u16 = 1;
const OTHER: usize = 9;
";
        let e = extract(&SourceFile::new("crates/core/src/store.rs", src));
        assert_eq!(
            e.iter()
                .map(|w| (w.family, w.name.clone(), w.value.clone()))
                .collect::<Vec<_>>(),
            vec![
                (
                    "magic",
                    "store.MANIFEST_MAGIC".to_string(),
                    0x4352_5a4du32.to_string()
                ),
                ("magic", "store.MAGIC".to_string(), "CRZF".to_string()),
                (
                    "version",
                    "store.STORE_VERSION".to_string(),
                    "1".to_string()
                ),
            ]
        );
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse("ctlmsg Done\n").unwrap_err().contains("line 1"));
        assert!(parse("bogus X 1\n").unwrap_err().contains("unknown family"));
        let reg = parse("magic store.M 0x10 # trailing comment\n").unwrap();
        assert_eq!(reg.entries[0].value, "16");
    }

    #[test]
    fn canon_normalizes() {
        assert_eq!(canon("0x4352_5a4d"), canon("1129470541"));
        assert_eq!(canon("b\"CRZF\""), "CRZF");
        assert_eq!(canon(" 7_770 "), "7770");
    }
}
