#!/bin/sh
# CI smoke test: full build, the tier-1 test suite (run three times:
# as configured, then under PIGEON_JOBS=1 and PIGEON_JOBS=2 so every
# job-invariance contract is exercised with and without worker
# domains), a bounded fuzz
# pass over the front-ends and model loaders, the perfbench self-test
# (every benchmark workload at tiny scale), the fault-injection
# bench (10%-corrupt corpora must train with exact skip tallies), the
# parallel-scaling bench (determinism
# checks always, speedup floor only on >= 4-core hosts), the
# training-kernels bench (old-vs-new CRF/SGNS kernels, and the default
# CRF trainer's row walks vs per-candidate lookups; quick mode checks
# equivalence only, full runs also enforce the 2x floor), the
# interned-pipeline bench (string
# pipeline vs shared symbol table, v2 text vs v3 binary models: v3
# round-trips byte-identically and both loads predict identically;
# full runs also enforce the encode/load floors), the v3
# round-trip/corruption tests (part of
# test_serialize, run under dune runtest), the micro benchmark
# (which also checks the iterator
# engine against the naive baseline corpus-wide), the serve tests
# (hostile-request isolation, daemon byte-identity), the netio
# edge-case tests, the bounded chaos harness (fault injection: torn
# replies, engine errors, accept drops, overload, reload under load),
# exit-code checks for out-of-range numeric CLI flags (serve's
# included), a live daemon
# smoke (train a model, start `pigeon serve` on a Unix
# socket, mixed well-formed/hostile burst through `pigeon client`,
# clean shutdown), lifecycle smokes (wire + SIGHUP hot reload,
# SIGTERM drain with socket unlink, client exit-code contract, fail-
# fast PIGEON_FAULTS parsing), registry smokes (two models served side
# by side, predict by name, LRU eviction under a tiny --max-mapped-bytes
# budget with transparent revival, reload-by-name / unload / set-default
# over the wire), a session smoke (an editor session — open, two
# full-buffer edits, close — through the real binaries; every session
# reply's prediction fields must be byte-identical to a one-shot
# predict of the same buffer, then SIGTERM), the quick serve
# throughput bench including its 2x-overload shed phase, and the
# quick incremental bench (edit-trace replay: cached extraction
# byte-identical to from-scratch at every step; the 5x speedup floor
# is enforced on full runs only), an out-of-core smoke (train to disk
# shards with a tiny heap budget, SIGKILL the checkpointed run
# mid-training, resume it, and require the resumed model to be
# byte-identical to an uninterrupted run), and the quick oocore bench
# (streamed shards, peak-live-heap sampling, in-process kill/resume
# byte-identity for both trainers; heap-cap and identity floors are
# enforced on full runs only). Every bench run here is --quick, so it
# writes BENCH_<name>.quick.json (git-ignored) and leaves the committed
# full-run BENCH_<name>.json files as they are.
set -eu
cd "$(dirname "$0")/.."

dune build
dune runtest --force
PIGEON_JOBS=1 dune runtest --force
PIGEON_JOBS=2 dune runtest --force
PIGEON_FUZZ_COUNT=400 dune exec test/test_fuzz.exe
# the repository benchmark at tiny scale: a library change that breaks
# a workload fails here rather than at the next benchmark run
python3 perfbench/selftest.py
dune exec bench/main.exe -- --quick fault
dune exec bench/main.exe -- --quick parallel
dune exec bench/main.exe -- --quick train
dune exec test/test_serialize.exe
dune exec test/test_intern.exe
dune exec bench/main.exe -- --quick intern
dune exec bench/main.exe -- --quick micro

# ---- serve: unit/integration tests, netio edge cases, chaos, smokes ----
dune exec test/test_serve.exe
dune exec test/test_netio.exe
PIGEON_CHAOS_COUNT=60 dune exec test/test_chaos.exe

SMOKE_DIR=$(mktemp -d /tmp/pigeon-ci-serve.XXXXXX)
SERVE_PID=""
TRAIN_PID=""
cleanup() {
  if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  if [ -n "$TRAIN_PID" ] && kill -0 "$TRAIN_PID" 2>/dev/null; then
    kill -KILL "$TRAIN_PID" 2>/dev/null || true
    wait "$TRAIN_PID" 2>/dev/null || true
  fi
  rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT

dune exec bin/pigeon_cli.exe -- train --files 60 -j 1 "$SMOKE_DIR/model.crf"
dune exec bin/pigeon_cli.exe -- gen --files 3 "$SMOKE_DIR/corpus"

SOCK="$SMOKE_DIR/pigeon.sock"
dune exec bin/pigeon_cli.exe -- serve --model "$SMOKE_DIR/model.crf" \
  --socket "$SOCK" -j 1 --max-input-bytes 65536 2>"$SMOKE_DIR/serve.log" &
SERVE_PID=$!
i=0
while [ ! -S "$SOCK" ]; do
  i=$((i + 1))
  if [ "$i" -gt 50 ]; then
    echo "serve smoke: daemon never bound $SOCK" >&2
    cat "$SMOKE_DIR/serve.log" >&2
    exit 1
  fi
  sleep 0.1
done

client() { dune exec bin/pigeon_cli.exe -- client --socket "$SOCK" "$@"; }

client --op ping
for f in "$SMOKE_DIR"/corpus/*.js; do
  client "$f"
done
# hostile: an input over the daemon's --max-input-bytes budget must
# come back as a structured error (client exit 3), not a dead daemon
head -c 100000 /dev/zero | tr '\0' 'x' >"$SMOKE_DIR/huge.js"
if client "$SMOKE_DIR/huge.js"; then
  echo "serve smoke: oversized request unexpectedly succeeded" >&2
  exit 1
elif [ $? -ne 3 ]; then
  echo "serve smoke: expected a structured error (exit 3)" >&2
  exit 1
fi
client "$SMOKE_DIR/corpus/sample_0000.js"
client --op stats
client --op shutdown
wait "$SERVE_PID"
SERVE_PID=""
if [ -e "$SOCK" ]; then
  echo "serve smoke: socket not unlinked on shutdown" >&2
  exit 1
fi
echo "serve smoke: ok"

# ---- lifecycle smokes: SIGHUP hot reload, SIGTERM drain, exit codes ----
# The binary is invoked directly (dune build above produced it) so the
# daemon PID is the daemon, not a dune wrapper — signals land for real.
PIGEON_BIN=_build/default/bin/pigeon_cli.exe

# out-of-range numeric flags are usage errors: a diagnostic and exit 2
for args in "paths --max-length=0" "paths --max-width=-1"; do
  set +e
  # shellcheck disable=SC2086
  "$PIGEON_BIN" $args "$SMOKE_DIR/corpus/sample_0000.js" 2>/dev/null
  rc=$?
  set -e
  if [ "$rc" -ne 2 ]; then
    echo "flag smoke: expected exit 2 for $args, got $rc" >&2
    exit 1
  fi
done
set +e
"$PIGEON_BIN" gen --files=-1 "$SMOKE_DIR/never" 2>/dev/null
rc=$?
set -e
if [ "$rc" -ne 2 ]; then
  echo "flag smoke: expected exit 2 for gen --files=-1, got $rc" >&2
  exit 1
fi
# serve flags are checked before anything binds: a batch cap of 0 would
# spin on a non-empty queue, a negative budget would read as unbounded
for args in "--max-batch=0" "--max-queue=-1"; do
  set +e
  # shellcheck disable=SC2086
  "$PIGEON_BIN" serve --model "$SMOKE_DIR/model.crf" \
    --socket "$SMOKE_DIR/never.sock" $args 2>/dev/null
  rc=$?
  set -e
  if [ "$rc" -ne 2 ]; then
    echo "flag smoke: expected exit 2 for serve $args, got $rc" >&2
    exit 1
  fi
done
# client flags too, before any connect: a port past 65535, a NaN or
# infinite timeout (select would raise EINVAL), no connect attempts
for args in "--tcp=70000" "--timeout=nan" "--timeout=inf" "--retries=0"; do
  set +e
  # shellcheck disable=SC2086
  "$PIGEON_BIN" client $args --op ping 2>/dev/null
  rc=$?
  set -e
  if [ "$rc" -ne 2 ]; then
    echo "flag smoke: expected exit 2 for client $args, got $rc" >&2
    exit 1
  fi
done

# a second model to hot-swap in, and a live path the daemon re-reads on SIGHUP
"$PIGEON_BIN" train --files 40 -j 1 "$SMOKE_DIR/model2.crf"
cp "$SMOKE_DIR/model.crf" "$SMOKE_DIR/model_live.crf"

SOCK2="$SMOKE_DIR/pigeon2.sock"
"$PIGEON_BIN" serve --model "$SMOKE_DIR/model_live.crf" --socket "$SOCK2" \
  -j 1 2>"$SMOKE_DIR/serve2.log" &
SERVE_PID=$!
i=0
while [ ! -S "$SOCK2" ]; do
  i=$((i + 1))
  if [ "$i" -gt 50 ]; then
    echo "lifecycle smoke: daemon never bound $SOCK2" >&2
    cat "$SMOKE_DIR/serve2.log" >&2
    exit 1
  fi
  sleep 0.1
done

"$PIGEON_BIN" client --socket "$SOCK2" --op ping

# hot reload, both ways: the wire op with an explicit path, then
# SIGHUP re-reading the (swapped) live path
"$PIGEON_BIN" client --socket "$SOCK2" --op reload \
  --reload-model "$SMOKE_DIR/model2.crf"
cp "$SMOKE_DIR/model2.crf" "$SMOKE_DIR/model_live.crf"
kill -HUP "$SERVE_PID"
i=0
while ! grep -q "model reloaded (SIGHUP)" "$SMOKE_DIR/serve2.log"; do
  i=$((i + 1))
  if [ "$i" -gt 50 ]; then
    echo "lifecycle smoke: SIGHUP reload never logged" >&2
    cat "$SMOKE_DIR/serve2.log" >&2
    exit 1
  fi
  sleep 0.1
done
"$PIGEON_BIN" client --socket "$SOCK2" --op stats | grep -q '"reloads":2' || {
  echo "lifecycle smoke: expected 2 reloads in stats" >&2
  exit 1
}
"$PIGEON_BIN" client --socket "$SOCK2" "$SMOKE_DIR/corpus/sample_0000.js"

# SIGTERM: drain then stop, exit 0, socket unlinked
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
  echo "lifecycle smoke: daemon exited non-zero on SIGTERM" >&2
  cat "$SMOKE_DIR/serve2.log" >&2
  exit 1
fi
SERVE_PID=""
if [ -e "$SOCK2" ]; then
  echo "lifecycle smoke: socket not unlinked on SIGTERM" >&2
  exit 1
fi

# unreachable daemon: exit 4 (distinct from 3 = structured error),
# after the bounded retry budget
set +e
"$PIGEON_BIN" client --socket "$SMOKE_DIR/nonexistent.sock" \
  --timeout 1 --retries 2 --op ping 2>/dev/null
rc=$?
set -e
if [ "$rc" -ne 4 ]; then
  echo "lifecycle smoke: expected exit 4 for unreachable daemon, got $rc" >&2
  exit 1
fi

# a typoed PIGEON_FAULTS must refuse to start (exit 2), not silently
# run an un-instrumented daemon
set +e
PIGEON_FAULTS="bogus=1" "$PIGEON_BIN" serve --model "$SMOKE_DIR/model.crf" \
  --socket "$SMOKE_DIR/never.sock" 2>/dev/null
rc=$?
set -e
if [ "$rc" -ne 2 ]; then
  echo "lifecycle smoke: expected exit 2 for bad PIGEON_FAULTS, got $rc" >&2
  exit 1
fi
echo "lifecycle smoke: ok"

# ---- registry smokes: named models, eviction + revival, wire admin ----
SOCK3="$SMOKE_DIR/pigeon3.sock"
"$PIGEON_BIN" serve --model "$SMOKE_DIR/model.crf" \
  --named-model alt="$SMOKE_DIR/model2.crf" --max-mapped-bytes 1 \
  --socket "$SOCK3" -j 1 2>"$SMOKE_DIR/serve3.log" &
SERVE_PID=$!
i=0
while [ ! -S "$SOCK3" ]; do
  i=$((i + 1))
  if [ "$i" -gt 50 ]; then
    echo "registry smoke: daemon never bound $SOCK3" >&2
    cat "$SMOKE_DIR/serve3.log" >&2
    exit 1
  fi
  sleep 0.1
done

rclient() { "$PIGEON_BIN" client --socket "$SOCK3" "$@"; }

# both models answer, the default one zero-copy (v4 files map)
rclient "$SMOKE_DIR/corpus/sample_0000.js"
rclient --model-name alt "$SMOKE_DIR/corpus/sample_0000.js"
rclient --op stats | grep -q '"storage":"mapped"' || {
  echo "registry smoke: expected a mapped model in stats" >&2
  exit 1
}

# load a third model by name over the wire; the 1-byte mapped budget
# forces the LRU named model (alt) out of the map
rclient --op reload --model-name third --reload-model "$SMOKE_DIR/model.crf"
rclient --op stats | grep -q '"evictions":1' || {
  echo "registry smoke: expected an eviction under --max-mapped-bytes 1" >&2
  exit 1
}
# an evicted model revives transparently on its next request
rclient --model-name alt "$SMOKE_DIR/corpus/sample_0000.js"

rclient --op reload --set-default alt | grep -q '"default":"alt"' || {
  echo "registry smoke: set-default not acknowledged" >&2
  exit 1
}
rclient --op reload --unload third | grep -q '"unloaded":"third"' || {
  echo "registry smoke: unload not acknowledged" >&2
  exit 1
}
# an unloaded name is a structured error (exit 3), not a dead daemon
set +e
rclient --model-name third "$SMOKE_DIR/corpus/sample_0000.js" >/dev/null
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
  echo "registry smoke: expected exit 3 for an unknown model, got $rc" >&2
  exit 1
fi
rclient --op stats | grep -q '^models:' || {
  echo "registry smoke: stats table missing" >&2
  exit 1
}
rclient --op shutdown
wait "$SERVE_PID"
SERVE_PID=""
echo "registry smoke: ok"

# ---- session smoke: an editor session through the real binaries ----
SOCK4="$SMOKE_DIR/pigeon4.sock"
"$PIGEON_BIN" serve --model "$SMOKE_DIR/model.crf" --socket "$SOCK4" \
  -j 1 2>"$SMOKE_DIR/serve4.log" &
SERVE_PID=$!
i=0
while [ ! -S "$SOCK4" ]; do
  i=$((i + 1))
  if [ "$i" -gt 50 ]; then
    echo "session smoke: daemon never bound $SOCK4" >&2
    cat "$SMOKE_DIR/serve4.log" >&2
    exit 1
  fi
  sleep 0.1
done

sclient() { "$PIGEON_BIN" client --socket "$SOCK4" "$@"; }

# open one buffer, send two full-buffer edits, close — one connection.
# Incremental extraction must be invisible on the wire: each session
# reply's prediction fields are byte-identical to a one-shot predict of
# the same buffer (only the request id and the trailing session field
# differ).
B0="$SMOKE_DIR/corpus/sample_0000.js"
B1="$SMOKE_DIR/corpus/sample_0001.js"
B2="$SMOKE_DIR/corpus/sample_0002.js"
sclient --op session "$B0" --edit "$B1" --edit "$B2" \
  >"$SMOKE_DIR/session.out"
if [ "$(wc -l <"$SMOKE_DIR/session.out")" -ne 4 ]; then
  echo "session smoke: expected 4 reply lines (open, 2 edits, close)" >&2
  cat "$SMOKE_DIR/session.out" >&2
  exit 1
fi
step=0
for b in "$B0" "$B1" "$B2"; do
  step=$((step + 1))
  session_reply=$(sed -n "${step}p" "$SMOKE_DIR/session.out")
  oneshot=$(sclient "$b")
  sess_body=${session_reply#*,}
  sess_body=${sess_body%,\"session\":\"default\"\}}
  one_body=${oneshot#*,}
  one_body=${one_body%\}}
  if [ "$sess_body" != "$one_body" ]; then
    echo "session smoke: step $step diverged from one-shot predict" >&2
    echo "  session: $session_reply" >&2
    echo "  oneshot: $oneshot" >&2
    exit 1
  fi
done
grep -q '"closed":"default","edits":2}' "$SMOKE_DIR/session.out" || {
  echo "session smoke: close reply missing or wrong edit count" >&2
  cat "$SMOKE_DIR/session.out" >&2
  exit 1
}
sclient --op stats | grep -q '"session_cache":{' || {
  echo "session smoke: stats missing session cache counters" >&2
  exit 1
}
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
  echo "session smoke: daemon exited non-zero on SIGTERM" >&2
  cat "$SMOKE_DIR/serve4.log" >&2
  exit 1
fi
SERVE_PID=""
echo "session smoke: ok"

dune exec bench/main.exe -- --quick serve
dune exec bench/main.exe -- --quick incremental

# ---- out-of-core smoke: disk shards, SIGKILL mid-training, resume ----
# Reference run: extraction streamed to disk shards under a 1 MB heap
# budget, trained straight through. Then the same training is run with
# a checkpoint, SIGKILLed as soon as the first checkpoint lands, and
# resumed — the resumed model must be byte-identical to the reference.
# (If the run wins the race and finishes before the kill, the resume
# is a no-op from the final checkpoint and the comparison still holds.)
OOC="$SMOKE_DIR/oocore"
mkdir -p "$OOC"
"$PIGEON_BIN" train --files 120 -j 1 --shard-dir "$OOC/shards_a" \
  --max-heap-mb 1 "$OOC/model_a.crf"
"$PIGEON_BIN" train --files 120 -j 1 --shard-dir "$OOC/shards_b" \
  --checkpoint "$OOC/train.ckpt" --max-heap-mb 1 "$OOC/model_b.crf" \
  2>"$OOC/train.log" &
TRAIN_PID=$!
i=0
while [ ! -f "$OOC/train.ckpt" ] && kill -0 "$TRAIN_PID" 2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 600 ]; then
    echo "oocore smoke: no checkpoint after 60s" >&2
    cat "$OOC/train.log" >&2
    exit 1
  fi
  sleep 0.1
done
kill -KILL "$TRAIN_PID" 2>/dev/null || true
wait "$TRAIN_PID" 2>/dev/null || true
TRAIN_PID=""
if [ ! -f "$OOC/train.ckpt" ]; then
  echo "oocore smoke: killed run left no checkpoint" >&2
  cat "$OOC/train.log" >&2
  exit 1
fi
"$PIGEON_BIN" train --files 120 -j 1 --shard-dir "$OOC/shards_b" \
  --checkpoint "$OOC/train.ckpt" --resume --max-heap-mb 1 "$OOC/model_b.crf"
cmp "$OOC/model_a.crf" "$OOC/model_b.crf" || {
  echo "oocore smoke: resumed model differs from uninterrupted run" >&2
  exit 1
}
echo "oocore smoke: ok (killed run resumed to a byte-identical model)"

dune exec bench/main.exe -- --quick oocore
