//! The rule catalogue. Token-level scans live in [`tokens`]; the
//! layer-graph and wire-registry passes ([`crate::graph`],
//! [`crate::registry`]) attribute their findings to rules declared here
//! so suppression and baselining work uniformly across passes.

pub mod tokens;

/// Every rule `cruz-lint` can report, in severity-agnostic declaration
/// order. `DESIGN.md` §14 is the prose catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Iteration over `HashMap`/`HashSet` in a simulation crate.
    UnorderedIteration,
    /// `Instant::now` / `SystemTime` / `thread::sleep` outside `bench`.
    WallClock,
    /// `thread_rng` / `from_entropy` / `rand::random` anywhere.
    AmbientEntropy,
    /// `.unwrap()` / `.expect(` on a protocol path.
    SilentUnwrap,
    /// `panic!` on a protocol path.
    ProtocolPanic,
    /// `todo!` / `unimplemented!` in non-test code.
    UnsuppressedTodo,
    /// A crate source file over the module line budget.
    GodFile,
    /// An import pointing up the declared layer map.
    LayerViolation,
    /// A wire-format tag diverging from `wire-registry.txt` (or the
    /// codec disagreeing with itself).
    WireDrift,
    /// `let _ = ...` / `.ok();` discarding a value on a protocol path.
    SwallowedError,
    /// `f32`/`f64` tokens in simulation-crate code.
    FloatInSim,
    /// `Rc<`/`RefCell<` in the checkpoint core (`crates/core/src`): the
    /// capture/restore hot paths shard across threads, and non-`Send`
    /// shared ownership quietly fences data out of the worker pool.
    NonsendShared,
    /// `thread::scope` / `thread::spawn` outside `cruz::parpool`, the one
    /// module whose ordered merge and pipeline keep threaded output
    /// byte-identical to a serial run.
    StrayThread,
}

/// All rules, for exhaustive listings (usage text, docs).
pub const ALL_RULES: &[Rule] = &[
    Rule::UnorderedIteration,
    Rule::WallClock,
    Rule::AmbientEntropy,
    Rule::SilentUnwrap,
    Rule::ProtocolPanic,
    Rule::UnsuppressedTodo,
    Rule::GodFile,
    Rule::LayerViolation,
    Rule::WireDrift,
    Rule::SwallowedError,
    Rule::FloatInSim,
    Rule::NonsendShared,
    Rule::StrayThread,
];

impl Rule {
    /// The kebab-case name used in reports, allow comments and baselines.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnorderedIteration => "unordered-iteration",
            Rule::WallClock => "wall-clock",
            Rule::AmbientEntropy => "ambient-entropy",
            Rule::SilentUnwrap => "silent-unwrap",
            Rule::ProtocolPanic => "protocol-panic",
            Rule::UnsuppressedTodo => "unsuppressed-todo",
            Rule::GodFile => "god-file",
            Rule::LayerViolation => "layer-violation",
            Rule::WireDrift => "wire-drift",
            Rule::SwallowedError => "swallowed-error",
            Rule::FloatInSim => "float-in-sim",
            Rule::NonsendShared => "nonsend-shared",
            Rule::StrayThread => "stray-thread",
        }
    }

    /// Inverse of [`Rule::name`].
    pub fn from_name(s: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for &r in ALL_RULES {
            assert_eq!(Rule::from_name(r.name()), Some(r));
        }
        assert_eq!(Rule::from_name("not-a-rule"), None);
    }
}
