#!/bin/sh
# The full gate, in fail-fast order: cheap checks first.
#
#   1. rustfmt          — formatting drift
#   2. cruz-lint        — the determinism/architecture auditor: token
#                         rules, layer graph, wire registry (DESIGN.md
#                         §14); also emits lint-report.json for tooling
#   3. release build    — the whole workspace compiles
#   4. docs             — `cargo doc` of every first-party crate (the
#                         engine's cluster, zap, simos, cruz, des, simnet
#                         and simcpu, plus workloads, baseline, bench,
#                         cruz-lint and the root cruz-repro package) stays
#                         warning-free: the layered-engine seams, the
#                         image codec, the store and the memory model are
#                         documented API, and a dangling or private
#                         intra-doc link fails here; the vendored stubs
#                         under vendor/ are not documented
#   5. tests            — every suite, including the same-seed
#                         byte-identical-images regression test
#   6. repro            — the paper's figures as checked rows: one run of
#                         the `repro` binary regenerates every
#                         EXPERIMENTS.md table, checks each against the
#                         paper's band, and fails if a table differs from
#                         EXPERIMENTS.md by one byte (a simulated value
#                         that moved); it prints to stdout and writes no
#                         file
#   7. loopback smoke   — the twin-carrier demo: one checkpoint →
#                         crash → restore cycle on the sim carrier and
#                         the same engine on the loopback carrier (real
#                         UDP sockets, wall clock) must restore the exact
#                         same bytes; prints each carrier's checkpoint
#                         latency and coordination overhead (the bin
#                         prints SKIPPED and exits 0 where the sandbox
#                         forbids even 127.0.0.1 sockets)
#   8. ledger smoke     — the benchmark's own tests (BENCHMARK.json and
#                         its code agree), then 2 s `compute`, `stream`,
#                         `slm-stw` and `slm-dedup-cow` runs that must each
#                         report "correct": true with no failed operation:
#                         the pinned first-epoch digest and the
#                         guest-progress rewind/advance checks, so an
#                         interpreter change that alters guest behaviour
#                         fails on `compute`, a guest<->TCP data-path change
#                         that breaks a rollback with live sockets fails on
#                         `stream`, an image codec or plain-store change
#                         that breaks the paper's checkpoint/rollback path
#                         fails on `slm-stw`, and a change to the chunk
#                         codec, the replicated log or the COW drain that
#                         breaks the dedup store's rollback fails on
#                         `slm-dedup-cow`
#   9. clean tree       — the run changed no tracked file and left no new
#                         untracked one (a bin or test that writes into
#                         the repository fails here)
#
# Everything runs offline: the only dependencies are the vendored stubs
# under vendor/ (see DESIGN.md, "Offline builds").
set -eu

cd "$(dirname "$0")"

tree_state() {
    { git status --porcelain; git diff HEAD; } | cksum
}
tree_before=$(tree_state)

echo "== no build artifacts tracked"
if git ls-files -- 'target/' '*/target/' | grep -q .; then
    echo "error: target/ build artifacts are tracked by git:" >&2
    git ls-files -- 'target/' '*/target/' | head >&2
    exit 1
fi

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cruz-lint --workspace"
# Machine report first (written even when findings exist), then the
# human-readable run, which is the actual gate.
cargo run --offline -q -p cruz-lint -- --workspace --json > lint-report.json || true
cargo run --offline -q -p cruz-lint -- --workspace

echo "== cargo build --release"
cargo build --offline --release --workspace

echo "== cargo doc (first-party crates)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -q \
    -p cluster -p zap -p simos -p cruz -p des -p simnet -p simcpu \
    -p workloads -p baseline -p bench -p cruz-lint -p cruz-repro

echo "== cargo test"
cargo test --offline --workspace -q

echo "== repro (every EXPERIMENTS.md table, checked against the paper and pinned)"
cargo run --offline -q --release -p bench --bin repro

echo "== loopback smoke (real-socket twin-runtime demo)"
# The loopback carrier stops stepping after a fixed 30 s wall budget, so
# a wedged socket path fails the stage instead of hanging it. The bin
# skips cleanly (exit 0) when loopback sockets are unavailable.
cargo run --offline -q --release -p bench --bin loopback_demo

echo "== ledger smoke (benchmark self-tests + 2 s compute, stream, slm-stw and slm-dedup-cow runs)"
# The runs' reports land in the gitignored ledger/out/.
cargo test --offline -q --release --manifest-path ledger/Cargo.toml
for workload in compute stream slm-stw slm-dedup-cow; do
    smoke=$(cargo run --offline -q --release --manifest-path ledger/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)
    case "$smoke" in
        '{"correct": true,'*'"failed": 0,'*) ;;
        *)
            echo "error: ledger $workload smoke is not correct: $smoke" >&2
            exit 1
            ;;
    esac
done

echo "== clean tree"
if [ "$(tree_state)" != "$tree_before" ]; then
    echo "error: the run changed the working tree:" >&2
    git status --short >&2
    exit 1
fi

echo "ci: all green"
