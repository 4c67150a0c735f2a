#!/usr/bin/env bash
# Offline CI gate: formatting, lints, then the tier-1 build + test commands
# from ROADMAP.md. Runs entirely from the workspace — no network access.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release
# The root package's build does not compile dependency binaries; the
# stages below drive ./target/release/lssc, so build the workspace too.
cargo build --release --workspace

echo "==> tier-1 and every workspace crate: cargo test -q --workspace"
# The root package's tests (`cargo test -q`) are the tier-1 floor;
# --workspace also runs every crate's unit and integration tests,
# among them the engine equivalence and batch golden suites, cache fault
# injection, the CLI exit-code contract and the invalid-corpus replay.
cargo test -q --workspace

echo "==> analyzer: lssc check over examples, example projects and Table 3 models (deny LSS1xx)"
mkdir -p target/analysis
for m in A B C D E F; do
  ./target/release/lssc check --model "$m" --deny LSS1xx \
    --format sarif --output "target/analysis/model_${m}.sarif"
done
for f in examples/lss/*.lss examples/lss/model_a examples/lss/model_e; do
  name="$(basename "$f" .lss)"
  ./target/release/lssc check "$f" --deny LSS1xx \
    --format sarif --output "target/analysis/example_${name}.sarif"
done

echo "==> protocol: composition checks clean over Table 3 models, examples and example projects"
for m in A B C D E F; do
  ./target/release/lssc check --model "$m" --deny LSS105 --deny LSS107
done
for f in examples/lss/*.lss examples/lss/model_a examples/lss/model_e; do
  ./target/release/lssc check "$f" --deny LSS105 --deny LSS107
done

echo "==> protocol: static pass vs runtime monitor agreement smoke (fixed seed)"
./target/release/lssc fuzz --protocols --seed 1 --iters 200

echo "==> pipeline: cold-then-warm batch builds of the Table 3 models"
rm -rf target/lss-cache-ci
MODELS=(crates/lss-models/models/model_{a,b,c,d,e,f}.lss)
./target/release/lssc build --jobs 4 --cache-dir target/lss-cache-ci \
  --lib crates/lss-models/models/cpu_lib.lss "${MODELS[@]}"
warm_out="$(./target/release/lssc build --jobs 4 --cache-dir target/lss-cache-ci \
  --lib crates/lss-models/models/cpu_lib.lss "${MODELS[@]}")"
echo "${warm_out}"
hits="$(grep -c 'cache hit' <<<"${warm_out}")"
if [ "${hits}" -ne "${#MODELS[@]}" ]; then
  echo "pipeline: expected ${#MODELS[@]} warm cache hits, saw ${hits}" >&2
  exit 1
fi

echo "==> projects: multi-file example builds + module-granular incremental rebuild"
rm -rf target/lss-cache-ci-proj
for p in examples/lss/model_a examples/lss/model_e; do
  ./target/release/lssc build --cache-dir target/lss-cache-ci-proj "$p"
done
# Touch one member file of model_a and rebuild: the --timings modules
# array must show only the touched module and its importer re-elaborating
# while the untouched sibling replays from its per-unit cache entry.
proj_file=examples/lss/model_a/debug.lss
proj_orig="$(cat "${proj_file}")"
restore_proj() { printf '%s' "${proj_orig}" > "${proj_file}"; }
trap restore_proj EXIT
printf '%s\n// ci: touched\n' "${proj_orig}" > "${proj_file}"
proj_out="$(./target/release/lssc build --timings --cache-dir target/lss-cache-ci-proj \
  examples/lss/model_a)"
restore_proj
trap - EXIT
echo "${proj_out}"
if ! grep -q 'machine.lss", "cache": "hit"' <<<"${proj_out}"; then
  echo "projects: untouched machine.lss should replay from its unit cache" >&2
  exit 1
fi
if ! grep -q 'debug.lss", "cache": "miss"' <<<"${proj_out}"; then
  echo "projects: touched debug.lss should re-elaborate" >&2
  exit 1
fi
if ! grep -q 'top.lss", "cache": "miss"' <<<"${proj_out}"; then
  echo "projects: top.lss imports debug.lss and should re-elaborate" >&2
  exit 1
fi

echo "==> pipeline: BENCH_pipeline.json (cold vs warm, largest model)"
cargo run --release -q -p bench --bin pipeline

echo "==> §8: BENCH_sim_speed.json (static never slower than dynamic, >= 2x on model C)"
cargo bench -q -p bench --bench sim_speed

echo "==> verify: bounded differential fuzz smoke (fixed seeds)"
rm -rf target/verify
./target/release/lssc fuzz --seed 1 --iters 200
./target/release/lssc fuzz --seed 2 --iters 200 --types-only
./target/release/lssc fuzz --seed 3 --iters 200 --sim-only

echo "==> stage windows: engine fuzz smoke + injected-bug canaries (fixed seed)"
# The sim-only loop above already checks the engine's staged plan against
# the reference inside every difftest; this stage additionally proves the
# harness *would* catch a stage-window bug: both injected mutations must
# produce findings (exit 1).
./target/release/lssc fuzz --seed 4 --iters 200 --sim-only
if ./target/release/lssc fuzz --seed 4 --iters 20 --sim-only --mutate stale-commit \
    --out target/verify-kernel-canary >/dev/null 2>&1; then
  echo "stage windows: the stale-commit mutation went undetected" >&2
  exit 1
fi
if ./target/release/lssc difftest --mutate skip-barrier \
    tests/corpus/arbiter_funnel.lss >/dev/null 2>&1; then
  echo "stage windows: the skip-barrier mutation went undetected" >&2
  exit 1
fi
rm -rf target/verify-kernel-canary

echo "==> robustness: adversarial crash-fuzz smoke (fixed seed, docs/ROBUSTNESS.md)"
./target/release/lssc fuzz --adversarial --seed 1 --iters 200

if [ -d target/verify ] && [ -n "$(ls -A target/verify)" ]; then
  echo "verify: fuzz left repro artifacts in target/verify:" >&2
  ls target/verify >&2
  exit 1
fi

echo "==> robustness: budget-exhaustion smoke (self-instantiation must exit 3 within 5s)"
selfinst="$(mktemp /tmp/lss-ci-selfinst.XXXXXX.lss)"
printf 'module m { instance child:m; };\ninstance root:m;\n' > "${selfinst}"
set +e
smoke_err="$(timeout 5 ./target/release/lssc --no-cache "${selfinst}" 2>&1)"
smoke_code=$?
set -e
rm -f "${selfinst}"
if [ "${smoke_code}" -ne 3 ]; then
  echo "robustness: expected exit 3 from the self-instantiating spec, got ${smoke_code}" >&2
  echo "${smoke_err}" >&2
  exit 1
fi
if ! grep -q 'LSS4' <<<"${smoke_err}"; then
  echo "robustness: budget exhaustion missing its LSS4xx code:" >&2
  echo "${smoke_err}" >&2
  exit 1
fi

echo "==> service: lssd daemon multi-client smoke + chaos canaries (docs/SERVICE.md)"
rm -rf target/lss-cache-ci-daemon target/lssd-ci-addr
./target/release/lssd --tcp 127.0.0.1:0 --print-addr \
  --cache-dir target/lss-cache-ci-daemon --chaos > target/lssd-ci-addr &
LSSD_PID=$!
kill_lssd() { kill "${LSSD_PID}" 2>/dev/null || true; }
trap kill_lssd EXIT
for _ in $(seq 100); do [ -s target/lssd-ci-addr ] && break; sleep 0.05; done
LSSD_ADDR="$(cat target/lssd-ci-addr)"
lsscli() { ./target/release/lssc client --tcp "${LSSD_ADDR}" "$@"; }
# Models A-F compiled and simulated by concurrent clients; every request
# must succeed (shed requests retry with backoff inside the client).
pids=()
for m in A B C D E F; do
  lsscli --model "$m" compile >/dev/null &
  pids+=($!)
  lsscli --model "$m" --cycles 200 simulate >/dev/null &
  pids+=($!)
done
for pid in "${pids[@]}"; do wait "${pid}"; done
# Daemon compiles must be byte-identical to a one-shot lssc build, for
# every model. Model E (the largest netlist, with the most escapes) was
# compiled above, so it is served hot from the tier's pre-rendered bytes.
model_e_reply="$(lsscli --model E compile)"
if ! grep -qx 'cache: hot' <<<"${model_e_reply}"; then
  echo "service: model E should be served from the hot tier" >&2
  exit 1
fi
for m in A B C D E F; do
  lsscli --model "$m" --netlist compile > target/lssd-ci-daemon.json
  ./target/release/lssc --model "$m" --no-cache \
    --emit netlist-json --output target/lssd-ci-oneshot.json >/dev/null
  if ! cmp target/lssd-ci-daemon.json target/lssd-ci-oneshot.json; then
    echo "service: daemon reply for model $m differs from a one-shot build" >&2
    exit 1
  fi
done
# The hot tier stays within its cap (lssd::server::HOT_CAP_BYTES, 4 MiB).
hot_bytes="$(lsscli stats | sed -n 's/^hot_bytes: //p')"
if [ -z "${hot_bytes}" ] || [ "${hot_bytes}" -le 0 ] || [ "${hot_bytes}" -gt 4194304 ]; then
  echo "service: stats hot_bytes '${hot_bytes}' is not within (0, 4194304]" >&2
  exit 1
fi
# Chaos canary 1: a worker panic is answered as `ice` (exit 4), then the
# daemon keeps serving.
set +e
lsscli chaos worker-panic >/dev/null 2>&1
panic_code=$?
set -e
if [ "${panic_code}" -ne 4 ]; then
  echo "service: worker panic should map to exit 4, got ${panic_code}" >&2
  exit 1
fi
# Chaos canary 2: a truncated frame (header promises more than is sent)
# costs only that connection.
exec 3<>"/dev/tcp/${LSSD_ADDR%:*}/${LSSD_ADDR##*:}"
printf '\x00\x00\x00\x64partial' >&3
exec 3>&- 3<&-
lsscli ping >/dev/null
# Quota shed: a runaway simulate is stopped with the LSS408 budget code
# (exit 3), not by killing the worker.
set +e
lsscli --model A --cycles 1000000 --max-cycles 50 simulate >/dev/null 2>&1
budget_code=$?
set -e
if [ "${budget_code}" -ne 3 ]; then
  echo "service: cycle-capped simulate should exit 3, got ${budget_code}" >&2
  exit 1
fi
# Graceful drain: SIGTERM must finish in-flight work and exit 0.
kill -TERM "${LSSD_PID}"
wait "${LSSD_PID}"
trap - EXIT
rm -f target/lssd-ci-addr target/lssd-ci-daemon.json target/lssd-ci-oneshot.json

echo "==> service: BENCH_service.json (req/sec + latency ladders, shedding gate)"
cargo run --release -q -p bench --bin service

echo "==> verify: corpus replay through both oracles (incl. multi-file projects)"
./target/release/lssc difftest tests/corpus/*.lss tests/corpus/project_*

echo "==> verify: BENCH_verify.json (generator + difftest throughput)"
cargo run --release -q -p bench --bin verify

echo "==> robustness: BENCH_robustness.json (budget overhead < 3%, fuzz throughput)"
cargo run --release -q -p bench --bin robustness

echo "==> benchmark: smoke pass over every workload (oracles + RefSim on Table 3)"
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke

echo "CI OK"
