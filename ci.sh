#!/usr/bin/env bash
# Local/CI gate: build, test (both observability modes), format, lint.
# Fully offline — all dependencies are path deps inside the repo.
#
# Usage: ci.sh [all|bench-gate|bench-baseline|loc|options]
#   all            — every lane below, including the perf-trajectory gate.
#   bench-gate     — only the perf-trajectory gate: re-measure the quick
#                    panels into a scratch dir and bench-compare them
#                    against the committed BENCH_*.json baselines, failing
#                    on any out-of-noise-band regression.
#   bench-baseline — regenerate the BENCH_*.json baselines at the repo
#                    root (same pinned shape the gate uses); review the
#                    diff and commit them.
#   loc            — per-crate and workspace non-test line counts by the
#                    CHANGES.md convention (what a PR's before/after LOC
#                    table is made of; run it on either commit).
#   options        — the independently settable values a simplicity
#                    review counts (env variables, cargo features,
#                    `offload-run` flags, `pub` config-struct fields);
#                    like `loc`, run it on either commit.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

run() {
  echo
  echo "== $* =="
  "$@"
}

# Lanes that depend on what the box has installed record here whether they
# ran, so a green run says which of them it did not cover.
GATED_RAN=""
GATED_SKIPPED=""
gated() { # gated ran|skipped <lane>
  case "$1" in
    ran) GATED_RAN="$GATED_RAN $2" ;;
    *) GATED_SKIPPED="$GATED_SKIPPED $2" ;;
  esac
}

# Re-measure every snapshot panel into "$1" under the pinned CI shape:
# BENCH_QUICK=1 (trimmed live sweeps, recorded in the snapshot's env
# fingerprint so full-mode snapshots can never gate against quick
# baselines) and BENCH_REPEATS=3 (the noise band comes from the repeats).
bench_panels() {
  local out="$1"
  run cargo build --release -p wire --bins
  run cargo build --release --example halo_exchange --example qcd_solver \
    --example fft_pipeline
  for p in fig02_overlap_p2p fig04_isend_issue fig06_mt_latency wire_calib shm_calib \
           fig09_qcd_scaling fig13_fft_scaling fig14_cnn_scaling stats_relay; do
    echo
    echo "== bench panel $p =="
    env BENCH_SNAPSHOT_DIR="$out" BENCH_QUICK=1 BENCH_REPEATS=3 \
      cargo bench -q -p bench --bench "$p" \
      || { echo "bench panel $p FAILED"; exit 1; }
  done
  echo
  echo "== bench panel live_overlap (2 ranks over UDS) =="
  timeout 90 env BENCH_SNAPSHOT_DIR="$out" BENCH_QUICK=1 \
    target/release/offload-run -n 2 --timeout 60 halo_exchange \
    || { echo "bench panel live_overlap FAILED"; exit 1; }
  # NBC-over-wire panels: the qcd/fft drivers' collective schedules at 4
  # ranks. Wall-clock series are info; the round-send (`coll_tx`) and
  # handshake-attribution counters are deterministic under the pinned
  # shape and gate hard.
  for panel in "qcd_wire qcd_solver" "fft_wire fft_pipeline"; do
    set -- $panel
    echo
    echo "== bench panel $1 (4 ranks over UDS) =="
    timeout 120 env BENCH_SNAPSHOT_DIR="$out" BENCH_QUICK=1 BENCH_REPEATS=3 \
      target/release/offload-run -n 4 --timeout 90 "$2" \
      || { echo "bench panel $1 FAILED"; exit 1; }
  done
}

bench_gate() {
  run cargo build --release -p bench --bin bench-compare
  local fresh
  fresh=$(mktemp -d /tmp/bench_gate.XXXXXX)
  bench_panels "$fresh"
  echo
  echo "== bench-compare: fresh run vs committed baselines =="
  target/release/bench-compare --baseline-dir . --fresh-dir "$fresh" \
    || { echo "bench-gate lane FAILED (perf regression outside the noise band)"; exit 1; }
}

bench_baseline() {
  run cargo build --release -p bench --bin bench-compare
  bench_panels .
  echo
  echo "== schema-validating regenerated baselines =="
  target/release/bench-compare --check . \
    || { echo "bench-baseline FAILED (invalid snapshot emitted)"; exit 1; }
  echo "bench-baseline: BENCH_*.json regenerated at the repo root — review the diff and commit"
}

# The non-test source: every .rs under the given dirs except files named
# tests.rs, each up to its first column-0 `#[cfg(test)]`.
NONTEST='FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } skip { next }'
nontest() { # nontest <awk program> <awk args…> -- <dir…>
  local prog="$NONTEST $1" args=()
  shift
  while [ "$1" != "--" ]; do args+=("$1"); shift; done
  shift
  find "$@" -name '*.rs' ! -name tests.rs -print0 | xargs -0 awk "${args[@]}" "$prog"
}

# `all lines / code lines` of the non-test source of a crate's src/ and
# benches/; a code line is neither blank nor a `//` comment. `crates` sums
# crates/* (the "workspace" figure of older CHANGES entries); `workspace`
# adds the root package's examples/ (its own 12-line lib and shims/ are
# left out of both).
loc() {
  local count='
    { all++ }
    !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { code++ }
    END { printf "%-12s %6d / %6d\n", label, all, code }'
  local d dirs
  {
    for d in crates/*/; do
      dirs=("${d}src")
      [ -d "${d}benches" ] && dirs+=("${d}benches")
      nontest "$count" -v label="$(basename "$d")" -- "${dirs[@]}"
    done
    echo crates
    awk -v label=examples "$count" examples/*.rs
  } | awk '
    function total(label) { printf "%-12s %6d / %6d\n", label, all, code }
    $1 == "crates" { total("crates"); next }
    { print; all += $2; code += $4 }
    END { total("workspace") }'
}

# The independently settable values, each by one textual rule over the
# non-test source of crates/*/{src,benches}, examples/ and src/:
#   env        names read through `env::var`/`env::var_os`/an `env_*`
#              helper as a literal, or declared as `const ENV_*: &str`;
#   features   `[features]` entries of every Cargo.toml but `default`;
#   cli-flags  match arms of `offload-run`'s argument parser (`--help`
#              sets nothing);
#   config     `pub` fields of structs named *Config, *Opts, *Spec,
#              *Profile, *Env or *Policy.
options() {
  local src=(crates/*/src examples src)
  for d in crates/*/benches; do [ -d "$d" ] && src+=("$d"); done
  local names
  names=$(nontest '{ print }' -- "${src[@]}" \
    | grep -oE '(env::var(_os)?|env_[a-z0-9_]+)\(\s*"[A-Z][A-Z0-9_]*"|const ENV_[A-Z0-9_]+: &str = "[A-Z][A-Z0-9_]*"' \
    | grep -oE '"[A-Z][A-Z0-9_]*"' | tr -d '"' | sort -u)
  printf '%-10s %4d  %s\n' env "$(grep -c . <<<"$names")" "$(echo $names)"
  printf '%-10s %4d\n' features "$(awk '
    /^\[/ { on = ($0 == "[features]") }
    on && /^[A-Za-z0-9_-]+ *=/ && $1 != "default" { n++ }
    END { print n + 0 }' Cargo.toml crates/*/Cargo.toml)"
  printf '%-10s %4d\n' cli-flags "$(nontest '
    /^[[:space:]]*"--?[a-z-]+"([[:space:]]*\|[[:space:]]*"--?[a-z-]+")*[[:space:]]*=>/ \
      && !/"--help"/ { n++ }
    END { print n + 0 }' -- crates/wire/src/launcher.rs)"
  printf '%-10s %4d\n' config "$(nontest '
    /^[[:space:]]*pub struct [A-Za-z0-9_]*(Config|Opts|Spec|Profile|Env|Policy)[[:space:]]*(<[^>]*>)?[[:space:]]*\{/ { in_struct = 1; next }
    in_struct && /^[[:space:]]*\}/ { in_struct = 0 }
    in_struct && /^[[:space:]]*pub [a-z_][a-z0-9_]*:/ { n++ }
    END { print n + 0 }' -- "${src[@]}")"
}

case "${1:-all}" in
  loc)
    loc
    exit 0
    ;;
  options)
    options
    exit 0
    ;;
  bench-gate)
    bench_gate
    echo
    echo "ci.sh bench-gate: passed"
    exit 0
    ;;
  bench-baseline)
    bench_baseline
    exit 0
    ;;
  all) ;;
  *)
    echo "usage: ci.sh [all|bench-gate|bench-baseline|loc|options]" >&2
    exit 2
    ;;
esac

run cargo build --release --workspace
run cargo test --workspace -q

# `check` is a leaf: the facade sits under offload, rtmpi and shmring, so
# a workspace edge out of it would close a package cycle the moment one
# of those is on its far side. The protocol checker that needs the engine
# is `protocheck`, above them all.
echo
echo "== check depends on no workspace crate =="
CHECK_DEPS=$(cargo tree --offline -p check -e normal --prefix none | sed 1d)
if [ -n "$CHECK_DEPS" ]; then
  echo "check depends on: $CHECK_DEPS"
  exit 1
fi

# The no-op observability build must stay warning-free and green where it
# matters most: the instrumented hot paths and the engine, and the layers
# whose tests read counters (those reads are gated on `obs-enabled`).
run cargo test -q -p offload -p mpisim -p wire -p rtmpi -p approaches -p harness \
  --no-default-features
run cargo check -q --benches --workspace

# The op-path benchmark is a workspace of its own, so nothing above
# compiles it: a rename that breaks its imports of offload/wire/rtmpi
# would otherwise surface only in the benchmark pipeline. Its own smoke
# (all six workloads, < 15 s) needs two allowed CPUs — opbench pins two
# threads and refuses fewer.
run cargo build --release --offline --manifest-path benchmark/Cargo.toml
if [ "$(nproc)" -ge 2 ]; then
  run cargo test --release --offline --manifest-path benchmark/Cargo.toml
  gated ran opbench-smoke
else
  echo "== fewer than 2 allowed CPUs; opbench built, its smoke skipped =="
  gated skipped opbench-smoke
fi

# Multi-process smoke: ranks as OS processes over Unix-domain sockets
# running the live halo-exchange panel (baseline / iprobe / offload over
# the wire backend). The launcher's own --timeout kills a wedged job; the
# outer `timeout` is the backstop against a wedged *launcher*. Miri and
# model-checker lanes never see this (they run other packages' lib tests).
echo
echo "== multi-process wire smoke (4 ranks over UDS) =="
timeout 60 target/release/offload-run -n 4 --timeout 50 halo_exchange \
  || { echo "wire smoke lane FAILED"; exit 1; }

# Stats-gated launcher lanes: launch a job under offload-run with the
# stats plane on (every rank ships periodic snapshots to the launcher,
# which writes the aggregated JSON report), then gate on the report with
# stats-check — what the engine counted, not what timing suggests.
#
# stats_lane <name> <launch args…> -- <stats-check args…>
# The per-lane fixed parts come from the table row read just before the
# call: BANNER, the outer `timeout` LIMIT (the backstop against a wedged
# launcher), extra environment ENVS, whether the launch must end `ok` or
# `fail` (EXPECT), and what the lane's two failures are called.
stats_lane() {
  local name="$1" report="/tmp/${1// /_}.json" launch=()
  shift
  while [ "$1" != "--" ]; do launch+=("$1"); shift; done
  shift
  echo
  echo "== $BANNER =="
  local launched=ok
  # shellcheck disable=SC2086
  timeout "$LIMIT" env $ENVS target/release/offload-run \
    --stats-interval 50 --stats-out "$report" "${launch[@]}" || launched=fail
  if [ "$launched" != "$EXPECT" ]; then
    echo "$name lane FAILED ($LAUNCH_FAILURE)"
    exit 1
  fi
  target/release/stats-check "$report" "$@" \
    || { echo "$name lane FAILED ($REPORT_FAILURE)"; exit 1; }
}

run cargo build --release --example nbc_smoke --example cnn_training

# stats plane: the halo panel; all 4 ranks present and every rank showing
#   asynchronously-completed rendezvous handshakes (the offload phase's
#   signature — WIRE_EAGER_MAX keeps the faces on the rendezvous path
#   regardless of the example's message sizing).
# relay tree: a 64-rank world packed 16 ranks/process (4 OS processes) in
#   relay-tree mode (arity 8 → heap height 3, collector depth 2); the relay
#   section must cover all 64 ranks at depth ≥ 2 with in-flight merges
#   actually recorded (obs.relay_merged) — the collector heard the whole
#   world through O(k) connections, not 64 stars.
# black-box: SIGKILL a depth-1 relay rank mid-run (unpacked — every rank
#   its own process, so only the victim dies); the launcher must (a)
#   report the job failed and (b) have recovered the victim's flight-
#   recorder timeline from its persisted .obb file into the report: ≥ 32
#   events with strictly increasing sequence numbers.
# NBC wire smoke: the full collective surface (barrier/bcast/reduce/
#   allreduce/allgather/alltoall/gather/scatter) as round schedules over
#   real sockets under every live strategy, element-verified in-process;
#   every rank issued round sends in the reserved tag space
#   (wire.coll_tx) with zero protocol errors.
# shm smoke: the same collective surface with every post-bootstrap frame
#   riding the per-pair shm rings (WIRE_SHM=1 via --shm); every rank used
#   the ring (wire.shm_frames > 0), with zero staging copies on the eager
#   path (wire.eager_alloc == 0) and zero degraded pairs
#   (wire.shm_fallback == 0).
#
# name | banner | timeout s | env | launch must | launch failure | report failure | launch args -- stats-check args
while IFS='|' read -r name BANNER LIMIT ENVS EXPECT LAUNCH_FAILURE REPORT_FAILURE args; do
  # shellcheck disable=SC2086
  stats_lane "$name" $args </dev/null
done <<'LANES'
stats plane|cluster stats plane smoke (4 ranks, aggregated JSON report)|60|WIRE_EAGER_MAX=4096|ok|launch|report validation|-n 4 --timeout 50 halo_exchange -- --ranks 4 --positive wire.rndv_handshake_async
relay tree|relay tree smoke (64 ranks packed 16/process, depth-2 gated)|120||ok|launch|report validation|-n 64 --packed 16 --relay 8 --timeout 90 packed-world -- --ranks 64 --positive obs.relay_merged --relay-depth 2
black-box|black-box postmortem smoke (SIGKILL rank 1, dump recovered)|120||fail|launcher reported success despite SIGKILL|postmortem validation|-n 12 --relay 3 --timeout 90 --kill-rank 1 --kill-after-ms 600 packed-world -- --ranks 12 --blackbox-dead 32
NBC wire smoke|NBC wire smoke (4 ranks, all collectives, stats-gated)|60||ok|launch|report validation|-n 4 --timeout 50 nbc_smoke -- --ranks 4 --positive wire.coll_tx
shm smoke|shm data-plane smoke (4 ranks, WIRE_SHM=1, zero-alloc gated)|60||ok|nbc launch|report validation|-n 4 --timeout 50 --shm nbc_smoke -- --ranks 4 --positive wire.shm_frames --positive wire.coll_tx --zero wire.eager_alloc --zero wire.shm_fallback
LANES
timeout 60 target/release/offload-run -n 4 --timeout 50 --shm halo_exchange \
  || { echo "shm smoke lane FAILED (halo_exchange)"; exit 1; }
# Graceful degradation: forcing the handshake to decline must leave the
# job on the socket data path, not dead.
timeout 60 env WIRE_SHM_FORCE_FALLBACK=1 \
  target/release/offload-run -n 2 --timeout 50 --shm halo_exchange \
  || { echo "shm smoke lane FAILED (forced fallback)"; exit 1; }

# The transport-matrix suite again with the shm plane on: every Comm
# surface the examples use, now over the ring data path.
echo
echo "== comm trait matrix over shm (WIRE_SHM=1) =="
run env WIRE_SHM=1 cargo test --release -q --test comm_trait_matrix

# Data-parallel CNN training end-to-end over the wire: replicas must stay
# synchronized through the gradient-allreduce schedules (asserted by the
# example itself via a weight-checksum allgather).
echo
echo "== CNN data-parallel wire smoke (4 ranks) =="
timeout 120 env BENCH_QUICK=1 BENCH_REPEATS=1 \
  target/release/offload-run -n 4 --timeout 90 cnn_training \
  || { echo "CNN wire smoke lane FAILED"; exit 1; }

if cargo fmt --version >/dev/null 2>&1; then
  run cargo fmt --all -- --check
  gated ran fmt
else
  echo "== cargo fmt not installed; skipping format check =="
  gated skipped fmt
fi

if cargo clippy --version >/dev/null 2>&1; then
  run cargo clippy --workspace --all-targets -- -D warnings
  gated ran clippy
else
  echo "== cargo clippy not installed; skipping lint =="
  gated skipped clippy
fi

# Workspace discipline lint (crates/lint): subsumes the old awk
# SAFETY/ORDERING comment check and adds the facade, reserved-tag and
# peer-input-hardening rules — the textual invariants the model checker,
# Miri and proto-model lanes then actually verify. Findings are
# suppressed only through the committed .lint-allow file; stale entries
# fail the lane too. See DESIGN.md §15 for the rule catalog.
echo
echo "== offload-lint (workspace discipline) =="
run cargo run -q --release -p lint --bin offload-lint -- --root . \
  || { echo "offload-lint FAILED (see findings above)"; exit 1; }

# Deterministic model-checker lane (always on: the checker is std-only).
# Explores thread interleavings of the lock-free core under a bounded-
# preemption DFS plus a seeded random walk, with vector-clock race and
# lost-wakeup detection. The seed is pinned so CI is reproducible; export
# OFFLOAD_MODEL_SEED / OFFLOAD_MODEL_ITERS to explore differently. A
# separate target dir keeps the --cfg flag from thrashing the main cache.
# shmring rides the same lane: the ring is written against check's
# facade, so tests/model.rs explores the shipped protocol and the
# SPSC handoff and park/doorbell handshake are explored under the same
# pinned seed — including a deliberately-broken-ordering test that proves
# the detector has teeth on this structure.
# The ring's tests include the rewind: the SKIP handoff, a park with a
# SKIP at the consumer's tail, and a producer that rewinds without the
# drained check (it must be caught as a data race). Each capped-DFS test
# asserts it explored its whole space or up to the cap; the footer names
# the ring's model tests so a green run says which ran.
# rtmpi's request rides it too (tests/model.rs): a polled receive
# completed by isend on another model thread, a blocking wait racing the
# completer, and a completer that reads `waiters` before it publishes
# `done` (armed through `model-faults`), which must be caught as a
# deadlock. The footer names these as well.
run env CARGO_TARGET_DIR=target/model RUSTFLAGS="--cfg offload_model" \
  OFFLOAD_MODEL_SEED="${OFFLOAD_MODEL_SEED:-1592598549}" \
  cargo test -p check -p shmring -p rtmpi --features rtmpi/model-faults -q
model_tests() { # model_tests <cargo test args…>: the names, space-separated
  env CARGO_TARGET_DIR=target/model RUSTFLAGS="--cfg offload_model" \
    cargo test -q "$@" -- --list 2>/dev/null | sed -n 's/: test$//p' | tr '\n' ' '
}
SHMRING_MODEL_TESTS=$(model_tests -p shmring --test model)
RTMPI_MODEL_TESTS=$(model_tests -p rtmpi --features model-faults --test model)

# Protocol-model lane (always on, plain build): protocheck runs the
# *real* wire engine and NBC round schedules over an in-process fabric
# and explores frame delivery order / duplication / peer death across
# eager, rendezvous and all collective schedules at 2–4 ranks. The seed
# is pinned for reproducibility; the distinct-interleaving floor makes a
# silently collapsed exploration (e.g. a scheduler bug that always picks
# index 0) fail loudly rather than pass vacuously. Release mode: the
# acceptance sweep is 11k schedules of a 3-rank allreduce.
run env OFFLOAD_MODEL_SEED="${OFFLOAD_MODEL_SEED:-1592598549}" \
  OFFLOAD_MODEL_ITERS=11000 OFFLOAD_PROTO_MIN_DISTINCT=10000 \
  cargo test -q -p protocheck --release

# Thread-sanitizer lane (gated: needs a nightly toolchain with the
# rust-src component). TSan watches the *native* executions of the core
# queue/lane/pool/backoff tests — a different lens from the model lane:
# real weak-memory interleavings on real threads, no schedule bound.
# rtmpi rides the same lane: its request (a done flag, a counted-waiter
# condvar, an outcome cell inside a `Send` handle) is hand-rolled
# synchronisation on the in-process op path.
if rustup run nightly cargo --version >/dev/null 2>&1 \
   && rustup component list --toolchain nightly 2>/dev/null | grep -q "rust-src (installed)"; then
  run env CARGO_TARGET_DIR=target/tsan \
    RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
    rustup run nightly cargo test -p offload --lib \
      -Zbuild-std --target "$(rustc -vV | sed -n 's/^host: //p')" \
      -- queue:: lane:: pool:: backoff:: \
    || { echo "thread-sanitizer lane FAILED — a real data race, not an"; \
         echo "environment problem; do not re-run with the lane skipped."; exit 1; }
  run env CARGO_TARGET_DIR=target/tsan \
    RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
    rustup run nightly cargo test -p rtmpi --lib \
      -Zbuild-std --target "$(rustc -vV | sed -n 's/^host: //p')" \
    || { echo "thread-sanitizer lane FAILED (rtmpi) — a real data race"; exit 1; }
  gated ran "tsan[offload,rtmpi]"
else
  echo "== nightly + rust-src not available; skipping thread-sanitizer lane =="
  gated skipped "tsan[offload,rtmpi]"
fi

# Weak-memory lane (gated: Miri is not in every toolchain): the model lane
# above explores interleavings under sequential consistency only, so Miri
# remains the lane that catches relaxed-memory and aliasing bugs. Covers
# the lock-free core plus the engine modules that drive it (service::,
# live::, sim::), and the in-process substrate under them (rtmpi).
# -Zmiri-disable-isolation lets the parking condvar read the monotonic
# clock for its timeout backstop.
if cargo miri --version >/dev/null 2>&1; then
  MIRI_FILTER="queue:: lane:: pool:: backoff:: service:: live:: sim::"
  # shellcheck disable=SC2086
  run env MIRIFLAGS="-Zmiri-disable-isolation" \
    cargo miri test -p offload --lib -- $MIRI_FILTER \
    || { echo "cargo miri lane FAILED — this is a real bug, not an environment"; \
         echo "problem; do not re-run with miri skipped."; exit 1; }
  # shellcheck disable=SC2086
  run env MIRIFLAGS="-Zmiri-disable-isolation" \
    cargo miri test -p offload --lib --no-default-features -- $MIRI_FILTER \
    || { echo "cargo miri lane FAILED (--no-default-features)"; exit 1; }
  # The in-process substrate's request: inline outcomes in a cell, one
  # shared node per pending receive, the guarded notify.
  run env MIRIFLAGS="-Zmiri-disable-isolation" \
    cargo miri test -p rtmpi --lib \
    || { echo "cargo miri lane FAILED (rtmpi)"; exit 1; }
  # The wire data plane's safe layers and the write-once body under them:
  # the receive path's reassembly (split headers, bodies built in their
  # final Arc, hostile lengths), the same reassembly fed by heap-ring pops
  # that copy straight into a never-zero-filled body (hostile slots
  # included), the sys body type itself (delivered only when full, freed
  # unread when not), the buffer pool, and the ring protocol over its std
  # facade (the mmap'd-segment module itself is foreign memory Miri cannot
  # model; its discipline is confined to crates/wire/src/shm.rs by
  # offload-lint). Miri cannot make the poll(2)/readv(2) FFI calls in
  # crates/wire/src/sys.rs, nor open a socketpair, so the wire filter
  # keeps to tests that open no descriptor; every other wire test runs
  # natively only ($WIRE_NATIVE_ONLY, named in the footer). The
  # 10k-message threaded stream test is skipped — minutes under the
  # interpreter, covered natively.
  run env MIRIFLAGS="-Zmiri-disable-isolation" \
    cargo miri test -p wire --lib -- regpool:: fabric::tests::reassembly \
      fabric::tests::ring_reassembly sys::tests::rx_body \
    || { echo "cargo miri lane FAILED (wire regpool + reassembly + rx_body)"; exit 1; }
  run env MIRIFLAGS="-Zmiri-disable-isolation" \
    cargo miri test -p shmring --test plain -- --skip threaded_stream \
    || { echo "cargo miri lane FAILED (shmring)"; exit 1; }
  gated ran "miri[offload,rtmpi,wire:regpool+reassembly+rx_body,shmring]"
else
  echo "== cargo miri not installed; skipping weak-memory lane =="
  gated skipped "miri[offload,rtmpi,wire:regpool+reassembly+rx_body,shmring]"
fi
# Whatever Miri did, these wire tests only ever run natively (sockets,
# poll): say so where the lanes are summed up.
WIRE_NATIVE_ONLY="all of crates/wire but regpool::, fabric::tests::{reassembly_*,ring_reassembly_*} and sys::tests::rx_body_* (sockets, poll, readv, mmap)"

# Perf-trajectory gate: quick panels under the pinned CI shape, diffed
# against the committed BENCH_*.json baselines using each series'
# recorded noise band. Wall-clock series are `info` (never gate); the
# deterministic DES and protocol-counter series gate hard.
bench_gate

echo
echo "ci.sh: all checks passed — gated lanes ran:${GATED_RAN:- none}; skipped:${GATED_SKIPPED:- none}; wire tests native-only (never under Miri): ${WIRE_NATIVE_ONLY}; shmring model tests: ${SHMRING_MODEL_TESTS% }; rtmpi model tests: ${RTMPI_MODEL_TESTS% }"
