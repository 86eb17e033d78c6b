# Mirror of the justfile for environments without `just`.

.PHONY: build test lint doc example-smoke bench-smoke serve-smoke chaos-smoke net-smoke perfbench-smoke bench-json perf-check bench-all determinism stress ci

build:
	cargo build --release

test: build
	cargo test -q

lint:
	cargo clippy --workspace --all-targets -- -D warnings
	cargo fmt --all -- --check

doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

example-smoke:
	cargo run --release --example quickstart

bench-smoke:
	cargo bench -p syncircuit-bench --bench micro

serve-smoke:
	cargo run --release -p syncircuit-bench --bin load-gen -- --requests 100 --tenants 4 --max-resident 2 --inflight 64

chaos-smoke:
	cargo run --release -p syncircuit-bench --bin load-gen -- --chaos 7 --requests 150 --tenants 3 --nodes 12 --max-resident 1

net-smoke:
	cargo run --release -p syncircuit-bench --bin load-gen -- --net --requests 100 --tenants 3 --workers 4 --max-resident 2 --inflight 64
	cargo run --release -p syncircuit-bench --bin load-gen -- --net --requests 100 --tenants 3 --workers 4 --max-resident 2 --inflight 1
	cargo run --release -p syncircuit-bench --bin load-gen -- --chaos 7 --net --requests 100 --tenants 3 --nodes 12 --max-resident 1

perfbench-smoke:
	cargo test --release --offline --manifest-path perfbench/Cargo.toml
	cargo build --release --offline --manifest-path perfbench/Cargo.toml
	@sym=$$(nm -S -C perfbench/target/release/perfbench | grep ' perfbench::yardstick::Yardstick::pass$$' || true); \
		echo "yardstick: $${sym:-no Yardstick::pass symbol (inlined)}"
	set -e; for w in gen-full gen-sample serve-tcp; do \
		last=$$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
			--workload "$$w" --seed 1 --seconds 1 --trace 0 | tail -n 1); \
		echo "$$w: $$last"; \
		echo "$$last" | grep -Eq '^\{"correct": true, "attempted": [0-9]+, "failed": 0,'; \
	done

bench-json:
	BENCH_JSON=/tmp/syncircuit-bench-current.json cargo bench -p syncircuit-bench --bench micro
	cargo run --release -p syncircuit-bench --bin load-gen -- --json /tmp/syncircuit-serve-load.json
	cargo run --release -p syncircuit-bench --bin load-gen -- --net --json /tmp/syncircuit-serve-net.json
	cargo run --release -p syncircuit-bench --bin bench-json -- /tmp/syncircuit-bench-current.json /tmp/syncircuit-serve-load.json /tmp/syncircuit-serve-net.json BENCH_phase3.json

perf-check:
	cargo run --release -p syncircuit-bench --bin bench-json -- --check BENCH_phase3.json

bench-all:
	cargo bench -p syncircuit-bench

determinism:
	cargo test -q > /tmp/syncircuit-run1.raw 2>&1
	cargo test -q > /tmp/syncircuit-run2.raw 2>&1
	sed -E 's/finished in [0-9.]+s//' /tmp/syncircuit-run1.raw > /tmp/syncircuit-run1.txt
	sed -E 's/finished in [0-9.]+s//' /tmp/syncircuit-run2.raw > /tmp/syncircuit-run2.txt
	diff /tmp/syncircuit-run1.txt /tmp/syncircuit-run2.txt
	@echo "deterministic: two runs identical"

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

ci: build test lint doc example-smoke serve-smoke chaos-smoke net-smoke perfbench-smoke stress
