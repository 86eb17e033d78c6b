# SynCircuit task runner — `just <target>` (or use the mirror Makefile)

# full optimized build of every workspace member
build:
    cargo build --release

# the tier-1 gate: full workspace test suite (unit, property,
# integration, doc-tests) — must stay green and deterministic
test:
    cargo build --release
    cargo test -q

# lint wall: no clippy warnings allowed anywhere in the workspace, and
# the whole workspace stays rustfmt-clean
lint:
    cargo clippy --workspace --all-targets -- -D warnings
    cargo fmt --all -- --check

# rustdoc wall: broken intra-doc links and other doc warnings fail
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# run the quickstart example end to end (train, generate, emit, persist)
example-smoke:
    cargo run --release --example quickstart

# compile + run the 7 experiment harnesses briefly; the micro bench
# runs the shimmed Criterion loop (incl. the sampler/stats scaling
# benches), the table/figure benches print rows
bench-smoke:
    cargo bench -p syncircuit-bench --bench micro

# serving-daemon smoke: 100 mixed-tenant requests through the
# in-process daemon under an eviction-forcing registry budget
# (2 resident models, 4 tenants), then a coalesced-duplicate
# burst — every answer byte-identical to direct generation, coalesce
# hits > 0, evictions > 0, and a clean shutdown
serve-smoke:
    cargo run --release -p syncircuit-bench --bin load-gen -- --requests 100 --tenants 4 --max-resident 2 --inflight 64

# chaos smoke: the same load generator under a seeded fault plan —
# 150 requests with IO errors, slow loads, corrupt artifacts, worker
# panics and expiring deadlines; every outcome must match the plan's
# pure prediction, survivors must be byte-identical to fault-free
# generation, and shutdown must strand nothing
chaos-smoke:
    cargo run --release -p syncircuit-bench --bin load-gen -- --chaos 7 --requests 150 --tenants 3 --nodes 12 --max-resident 1

# network smoke: 100 mixed-tenant requests and the duplicate burst
# over real TCP (one pipelined connection), every response
# byte-identical to direct generation and coalesce hits > 0 — at
# window 64, then at window 1, whose printed p50 is per-request
# service latency (a socket stall that queue depth hides at window 64
# shows here) — then the chaos trace with seeded connection drops and
# slowed writes added (--chaos --net, one connection per request),
# where nothing may strand or hang
net-smoke:
    cargo run --release -p syncircuit-bench --bin load-gen -- --net --requests 100 --tenants 3 --workers 4 --max-resident 2 --inflight 64
    cargo run --release -p syncircuit-bench --bin load-gen -- --net --requests 100 --tenants 3 --workers 4 --max-resident 2 --inflight 1
    cargo run --release -p syncircuit-bench --bin load-gen -- --chaos 7 --net --requests 100 --tenants 3 --nodes 12 --max-resident 1

# benchmark smoke: perfbench's unit tests, then one short untraced run
# per workload; each run's last line must report `"correct": true` and
# `"failed": 0` (no timing is checked)
perfbench-smoke:
    #!/usr/bin/env bash
    set -euo pipefail
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
    # informational: the yardstick's machine code moves with the library
    sym=$(nm -S -C perfbench/target/release/perfbench | grep ' perfbench::yardstick::Yardstick::pass$' || true)
    echo "yardstick: ${sym:-no Yardstick::pass symbol (inlined)}"
    for w in gen-full gen-sample serve-tcp; do
        last=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$w" --seed 1 --seconds 1 --trace 0 | tail -n 1)
        echo "$w: $last"
        echo "$last" | grep -Eq '^\{"correct": true, "attempted": [0-9]+, "failed": 0,'
    done

# perf gate: fail when any previously-recorded benchmark's `current`
# exceeds 1.3x its recorded baseline in BENCH_phase3.json (CI runs
# this warn-only after bench-smoke refreshes the trajectory)
perf-check:
    cargo run --release -p syncircuit-bench --bin bench-json -- --check BENCH_phase3.json

# machine-readable perf trajectory: run the micro bench with JSON
# capture, then the serving load generator (in-process and over TCP),
# and merge all three into BENCH_phase3.json (baseline preserved,
# current refreshed, per-bench speedup derived)
bench-json:
    BENCH_JSON=/tmp/syncircuit-bench-current.json cargo bench -p syncircuit-bench --bench micro
    cargo run --release -p syncircuit-bench --bin load-gen -- --json /tmp/syncircuit-serve-load.json
    cargo run --release -p syncircuit-bench --bin load-gen -- --net --json /tmp/syncircuit-serve-net.json
    cargo run --release -p syncircuit-bench --bin bench-json -- /tmp/syncircuit-bench-current.json /tmp/syncircuit-serve-load.json /tmp/syncircuit-serve-net.json BENCH_phase3.json

# run every table/figure harness (slow; regenerates the paper numbers)
bench-all:
    cargo bench -p syncircuit-bench

# two consecutive runs must produce identical output under fixed seeds
# (redirect-then-sed, not a pipe, so a failing suite fails the recipe)
determinism:
    cargo test -q > /tmp/syncircuit-run1.raw 2>&1
    cargo test -q > /tmp/syncircuit-run2.raw 2>&1
    sed -E 's/finished in [0-9.]+s//' /tmp/syncircuit-run1.raw > /tmp/syncircuit-run1.txt
    sed -E 's/finished in [0-9.]+s//' /tmp/syncircuit-run2.raw > /tmp/syncircuit-run2.txt
    diff /tmp/syncircuit-run1.txt /tmp/syncircuit-run2.txt
    @echo "deterministic: two runs identical"

# threaded stress: the concurrency equivalence battery again with
# elevated worker counts (shared-cache batches, parallel fit, the synth
# cache concurrency test, bounded-cache batches), plus a second
# determinism diff under --release — optimized codegen reorders nothing
# observable
stress:
    SYNCIRCUIT_STRESS_WORKERS=32 cargo test --release -q -p syncircuit-core --test shared_cache_equivalence
    SYNCIRCUIT_STRESS_WORKERS=32 cargo test --release -q -p syncircuit-synth incremental
    SYNCIRCUIT_STRESS_WORKERS=32 cargo test --release -q -p syncircuit-core --test bounded_cache_equivalence
    cargo test --release -q > /tmp/syncircuit-rel1.raw 2>&1
    cargo test --release -q > /tmp/syncircuit-rel2.raw 2>&1
    sed -E 's/finished in [0-9.]+s//' /tmp/syncircuit-rel1.raw > /tmp/syncircuit-rel1.txt
    sed -E 's/finished in [0-9.]+s//' /tmp/syncircuit-rel2.raw > /tmp/syncircuit-rel2.txt
    diff /tmp/syncircuit-rel1.txt /tmp/syncircuit-rel2.txt
    @echo "release determinism: two runs identical"

# everything CI checks, in CI order
ci: build test lint doc example-smoke serve-smoke chaos-smoke net-smoke perfbench-smoke stress
