#!/bin/sh
# The full gate, in fail-fast order: cheap checks first.
#
#   1. rustfmt          — formatting drift
#   2. cruz-lint        — the determinism/architecture auditor: token
#                         rules, layer graph, wire registry (DESIGN.md
#                         §14); also emits lint-report.json for tooling
#   3. release build    — the whole workspace compiles
#   4. docs             — `cargo doc` of every library crate of the
#                         engine (cluster, zap, simos, cruz, des, simnet,
#                         simcpu) stays warning-free: the layered-engine
#                         seams, the image codec, the store and the
#                         memory model are documented API, and a dangling
#                         or private intra-doc link fails here
#   5. tests            — every suite, including the same-seed
#                         byte-identical-images regression test
#   6. bench smoke      — `--quick` runs of the store-ablation,
#                         Fig 5(a), COW-downtime and recovery binaries
#                         (their asserts are the check)
#   7. hotpath smoke    — ref/opt micro-bench pairs must agree
#                         byte-for-byte, hit the speedup floors, and the
#                         image digests pinned in the cow/recovery JSON
#                         must be untouched by the optimization pass
#   8. parallel smoke   — pooled capture at threads 1/2/4/8 must
#                         produce byte-identical manifests, store files
#                         and restored images (the serial path is the
#                         oracle; restore itself is serial at every
#                         width), and the pinned image digests must
#                         survive the pool too
#   9. replication smoke— kill k-1 of k replica stores mid-checkpoint;
#                         the job must heal with byte-identical rollback
#                         images and write amplification tracking k
#  10. chaos smoke      — replays three pinned fault-plan seeds and
#                         demands byte-identical event traces, then the
#                         same for three pinned replica-kill plans at k=3
#  11. loopback smoke   — the twin-carrier demo: one checkpoint →
#                         crash → restore cycle on the sim carrier and
#                         the same engine on the loopback carrier (real
#                         UDP sockets, wall clock) must restore the exact
#                         same bytes; prints each carrier's checkpoint
#                         latency and coordination overhead (the bin
#                         prints SKIPPED and exits 0 where the sandbox
#                         forbids even 127.0.0.1 sockets)
#  12. ledger smoke     — the benchmark's own tests (BENCHMARK.json and
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
#
# Everything runs offline: the only dependencies are the vendored stubs
# under vendor/ (see DESIGN.md, "Offline builds").
set -eu

cd "$(dirname "$0")"

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

echo "== cargo doc (engine crates)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -q \
    -p cluster -p zap -p simos -p cruz -p des -p simnet -p simcpu

echo "== cargo test"
cargo test --offline --workspace -q

echo "== bench smoke (--quick)"
cargo run --offline -q --release -p bench --bin store_dedup -- --quick
cargo run --offline -q --release -p bench --bin fig5a -- --quick
cargo run --offline -q --release -p bench --bin cow_downtime -- --quick
cargo run --offline -q --release -p bench --bin recovery -- --quick

echo "== hotpath smoke (--quick)"
# Runs after cow_downtime/recovery so their JSON (with the pinned image
# digests) is fresh; bench_hotpath re-checks those digests and writes
# BENCH_hotpath.json.
cargo run --offline -q --release -p bench --bin bench_hotpath -- --quick

echo "== parallel smoke (--quick)"
# Byte-identity across pool widths is asserted unconditionally; the
# throughput floor only gates on hosts with >=4 CPUs (recorded in
# BENCH_parallel.json as host_cpus either way).
cargo run --offline -q --release -p bench --bin bench_parallel -- --quick

echo "== replication smoke (--quick)"
cargo run --offline -q --release -p bench --bin bench_replication -- --quick

echo "== chaos smoke (pinned fault-plan replay)"
cargo run --offline -q --release -p bench --bin chaos
cargo run --offline -q --release -p bench --bin bench_replication -- --chaos

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

echo "ci: all green"
