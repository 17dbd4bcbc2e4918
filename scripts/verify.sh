#!/usr/bin/env sh
# One-shot verification gate for this workspace, exactly as the offline
# environment allows (no network, empty registry cache). Every PR must keep
# this green.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check (the workspace is rustfmt-clean)"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

echo "==> cargo test --doc"
cargo test --doc -q --offline

echo "==> cargo doc (rustdoc warnings, broken intra-doc links included, are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> cargo build --workspace --all-targets (tests, examples, reproduce)"
cargo build --workspace --all-targets --offline

echo "==> cargo clippy --workspace --all-targets (every lint warning is an error)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> examples (release; each asserts that its runs completed)"
for example in quickstart noc_comparison cluster_size_explorer multiprogram_consolidation; do
    cargo run --release --offline -q -p loco --example "$example" > "target/example_$example.txt"
done

echo "==> equivalence suite (event-driven == naive stepping, bit for bit)"
cargo test -q --offline --test equivalence

echo "==> randomized equivalence stress suite (pinned seed, 250 short random configs)"
LOCO_STRESS_SEED=538510120 LOCO_STRESS_CONFIGS=250 \
    cargo test -q --offline --test equivalence randomized_short_configs

echo "==> energy suite (golden breakdown fingerprint, run/run_naive and thread invariance)"
cargo test -q --offline --test energy

echo "==> parallel campaign smoke (every figure; 4-thread output == 1-thread output, byte for byte; EXPERIMENTS.md regenerates)"
cargo build --release --offline -q -p loco-bench --bin reproduce
./target/release/reproduce --params quick --threads 4 --json target/campaign_t4.json > target/campaign_t4.txt 2>/dev/null
./target/release/reproduce --params quick --threads 1 --json target/campaign_t1.json \
    --markdown target/EXPERIMENTS.md > target/campaign_t1.txt 2>/dev/null
cmp target/campaign_t1.txt target/campaign_t4.txt
cmp target/campaign_t1.json target/campaign_t4.json
cmp target/EXPERIMENTS.md EXPERIMENTS.md

echo "==> --list-figures names exactly fig06..fig19, in order"
./target/release/reproduce --list-figures | cut -d' ' -f1 > target/figures.txt
printf 'fig%02d\n' $(seq 6 19) > target/figures_expected.txt
cmp target/figures_expected.txt target/figures.txt

echo "==> CLI rejects senseless --threads values"
if ./target/release/reproduce --params quick --threads 1000000 >/dev/null 2>target/threads_err.txt; then
    echo "reproduce accepted --threads 1000000"; exit 1
fi
grep -q "makes no sense" target/threads_err.txt || { echo "missing --threads error message"; exit 1; }

echo "==> NoC-only benchmark at 8x8 (three fabrics, multicast + back-pressure; recorded fingerprints must match)"
if ! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload noc_synth --seed 42 --seconds 1 --trace 0 > target/noc_synth.txt 2>target/noc_synth_err.txt \
    || ! tail -n 1 target/noc_synth.txt | grep -q '"correct": true'; then
    echo "noc_synth did not reproduce its recorded fingerprints"; cat target/noc_synth_err.txt; exit 1
fi

echo "==> stall-stress benchmark (six Fig-19 scenarios, event-driven run; recorded run_naive fingerprints must match, peak RSS at most 12 MB)"
if ! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload stall16 --seed 42 --seconds 1 --trace 0 > target/stall16.txt 2>target/stall16_err.txt \
    || ! tail -n 1 target/stall16.txt | grep -q '"correct": true'; then
    echo "stall16 did not reproduce its recorded fingerprints"; cat target/stall16_err.txt; exit 1
fi
# Traces are replayed from their generator, so memory does not grow with
# trace length: six 16-core systems at 16,000 mem-ops/core peak near 5 MB,
# and materialised traces would add about 20 MB.
stall_rss=$(tail -n 1 target/stall16.txt | sed -n 's/.*"peak_rss_mb": {"value": \([0-9.]*\).*/\1/p')
if ! awk -v r="$stall_rss" 'BEGIN { exit !(r != "" && r <= 12) }'; then
    echo "stall16 peak_rss_mb is '$stall_rss' MB, above the 12 MB gate"; exit 1
fi

echo "==> paper64 campaign benchmark (152 figure reads, 128 simulations on 2 workers; recorded per-scenario fingerprints must match)"
if ! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload campaign_paper64 --seed 42 --seconds 1 --trace 0 > target/campaign_paper64.txt 2>target/campaign_paper64_err.txt \
    || ! tail -n 1 target/campaign_paper64.txt | grep -q '"correct": true'; then
    echo "campaign_paper64 did not reproduce its recorded fingerprints"; cat target/campaign_paper64_err.txt; exit 1
fi

echo "==> verify OK"
