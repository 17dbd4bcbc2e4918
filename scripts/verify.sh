#!/usr/bin/env sh
# One-shot verification gate for this workspace, exactly as the offline
# environment allows (no network, empty registry cache). Every PR must keep
# this green.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

echo "==> cargo test --doc"
cargo test --doc -q --offline

echo "==> cargo build --workspace --all-targets (benches, examples, reproduce)"
cargo build --workspace --all-targets --offline

echo "==> equivalence suite (event-driven == naive stepping, bit for bit)"
cargo test -q --offline --test equivalence

echo "==> randomized equivalence stress suite (pinned seed, 250 short random configs)"
LOCO_STRESS_SEED=538510120 LOCO_STRESS_CONFIGS=250 \
    cargo test -q --offline --test equivalence randomized_short_configs

echo "==> energy suite (golden breakdown fingerprint, run/run_naive and thread invariance)"
cargo test -q --offline --test energy

echo "==> parallel campaign smoke (reproduce: 4-thread output == 1-thread output, byte for byte)"
cargo build --release --offline -q -p loco-bench --bin reproduce
./target/release/reproduce --params quick --threads 4 --json target/campaign_t4.json > target/campaign_t4.txt 2>/dev/null
./target/release/reproduce --params quick --threads 1 --json target/campaign_t1.json > target/campaign_t1.txt 2>/dev/null
cmp target/campaign_t1.txt target/campaign_t4.txt
cmp target/campaign_t1.json target/campaign_t4.json

echo "==> energy-figure smoke (fig17/fig18 on quick params, 1-vs-4-thread byte identity)"
./target/release/reproduce --params quick --figures fig17,fig18 --threads 4 --json target/energy_t4.json > target/energy_t4.txt 2>/dev/null
./target/release/reproduce --params quick --figures fig17,fig18 --threads 1 --json target/energy_t1.json > target/energy_t1.txt 2>/dev/null
cmp target/energy_t1.txt target/energy_t4.txt
cmp target/energy_t1.json target/energy_t4.json
./target/release/reproduce --list-figures > target/figures.txt
grep -q "^fig17" target/figures.txt || { echo "fig17 missing from --list-figures"; exit 1; }
grep -q "^fig18" target/figures.txt || { echo "fig18 missing from --list-figures"; exit 1; }
grep -q "^fig19" target/figures.txt || { echo "fig19 missing from --list-figures"; exit 1; }

echo "==> stall-heavy figure smoke (fig19 stress scenarios, 1-vs-2-thread byte identity)"
./target/release/reproduce --params quick --figures fig19 --threads 2 --json target/stall_t2.json > target/stall_t2.txt 2>/dev/null
./target/release/reproduce --params quick --figures fig19 --threads 1 --json target/stall_t1.json > target/stall_t1.txt 2>/dev/null
cmp target/stall_t1.txt target/stall_t2.txt
cmp target/stall_t1.json target/stall_t2.json

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

echo "==> stall-stress benchmark (six Fig-19 scenarios, event-driven run; recorded run_naive fingerprints must match)"
if ! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload stall16 --seed 42 --seconds 1 --trace 0 > target/stall16.txt 2>target/stall16_err.txt \
    || ! tail -n 1 target/stall16.txt | grep -q '"correct": true'; then
    echo "stall16 did not reproduce its recorded fingerprints"; cat target/stall16_err.txt; exit 1
fi

echo "==> verify OK"
