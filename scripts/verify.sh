#!/usr/bin/env bash
# Repo verification gate: format, lint, build, test, and a smoke run of the
# kernel benchmark. Everything runs with --offline — the workspace has no
# external dependencies, so a cold cargo registry must never fail it.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> multi-thread determinism (REX_NUM_THREADS=4)"
# the whole suite again with a 4-thread worker pool: every numeric result
# (including the golden telemetry traces) must be bitwise identical to
# the single-threaded run
REX_NUM_THREADS=4 cargo test --workspace --offline -q
REX_NUM_THREADS=4 cargo test --release --offline --test golden_traces -q

echo "==> paper grids (every grid row at --scale smoke vs its pinned CSV)"
# each row of `grid <name>` (Tables 4-9, Figure 3, the ablations) must
# write the CSV bytes pinned in crates/bench/tests/grid.rs; tier-1 runs
# only the two cheapest rows
cargo test --release --offline -q -p rex-bench --test grid -- --include-ignored

echo "==> kernel-bench --smoke"
# smoke numbers go to a scratch file so the committed BENCH_kernels.json
# (generated at full reps) is never clobbered by a verification run
cargo run --release --offline -p rex-bench --bin kernel-bench -- \
  --smoke --out "$tmp_dir/bench_smoke.json"
cargo run --release --offline -p rex-bench --bin kernel-bench -- \
  --smoke --threads 4 --out "$tmp_dir/bench_smoke_t4.json"

echo "==> backend matrix (forced scalar / simd dispatch)"
# the parity and golden suites again under each forced backend: the env
# override must reach every kernel, and the committed goldens must hold
# under both backends without re-blessing
for bk in scalar simd; do
  REX_BACKEND=$bk cargo test --offline -q -p rex-tensor --test kernel_parity
  REX_BACKEND=$bk cargo test --offline -q -p rex-tensor --test backend_parity
  REX_BACKEND=$bk cargo test --release --offline -q --test golden_traces
done
# the rexctl --backend flag end-to-end: a forced-scalar run must train
# and trace; the default (auto) run above already covers simd wherever a
# vector unit exists
cargo run --release --offline -p rex-cli --bin rexctl -- \
  train --setting rn20-cifar10 --budget 5 --schedule rex --seed 7 \
  --backend scalar --threads 4 --trace "$tmp_dir/run_scalar.jsonl" >/dev/null
grep -q '"ev":"step"' "$tmp_dir/run_scalar.jsonl"

echo "==> bench-guard (GEMM + quantized-matmul floors vs committed BENCH_kernels.json)"
scripts/bench_guard.sh

echo "==> trace-check (golden telemetry traces + CLI --trace)"
# the golden suite in release mode: committed traces must match the
# trajectories the release build produces
cargo test --release --offline --test golden_traces -q
# the CLI --trace flag: a 1-thread and a 4-thread same-seed run must
# emit byte-identical JSONL
cargo run --release --offline -p rex-cli --bin rexctl -- \
  train --setting rn20-cifar10 --budget 5 --schedule rex --seed 7 \
  --threads 1 --trace "$tmp_dir/run_a.jsonl" >/dev/null
cargo run --release --offline -p rex-cli --bin rexctl -- \
  train --setting rn20-cifar10 --budget 5 --schedule rex --seed 7 \
  --threads 4 --trace "$tmp_dir/run_b.jsonl" >/dev/null
grep -q '"ev":"step"' "$tmp_dir/run_a.jsonl"
cmp "$tmp_dir/run_a.jsonl" "$tmp_dir/run_b.jsonl"

echo "==> kill-and-resume (crash-safe checkpointing, 1 and 4 threads)"
# kill the run after step 12 via fault injection (exit 86), resume from
# the step-10 snapshot, and require the stitched trace to be byte-for-byte
# identical to an uninterrupted run's — at both thread counts
for t in 1 4; do
  cargo run --release --offline -p rex-cli --bin rexctl -- \
    train --setting rn20-cifar10 --budget 5 --schedule rex --seed 7 \
    --threads "$t" --checkpoint "$tmp_dir/full_$t.state" --checkpoint-every 5 \
    --trace "$tmp_dir/full_$t.jsonl" >/dev/null
  rc=0
  REX_FAULTS=kill-at-step=12 cargo run --release --offline -p rex-cli --bin rexctl -- \
    train --setting rn20-cifar10 --budget 5 --schedule rex --seed 7 \
    --threads "$t" --checkpoint "$tmp_dir/cut_$t.state" --checkpoint-every 5 \
    --trace "$tmp_dir/cut_$t.jsonl" >/dev/null 2>&1 || rc=$?
  test "$rc" -eq 86 # the injected kill's exit code
  cargo run --release --offline -p rex-cli --bin rexctl -- \
    train --setting rn20-cifar10 --budget 5 --schedule rex --seed 7 \
    --threads "$t" --checkpoint "$tmp_dir/cut_$t.state" --checkpoint-every 5 \
    --resume "$tmp_dir/cut_$t.state" --trace "$tmp_dir/cut_$t.jsonl" >/dev/null
  cmp "$tmp_dir/full_$t.jsonl" "$tmp_dir/cut_$t.jsonl"
done
cmp "$tmp_dir/full_1.jsonl" "$tmp_dir/full_4.jsonl"

echo "==> dtype matrix (--dtype f16/bf16 smoke + kill-and-resume, 1 and 4 threads)"
# mixed-precision storage obeys the same contracts as f32: a same-seed
# run is thread-count-invariant, and kill → resume → finish stitches a
# trace byte-identical to the uninterrupted run's. A dtype-mismatched
# resume must be refused.
for dt in f16 bf16; do
  for t in 1 4; do
    cargo run --release --offline -p rex-cli --bin rexctl -- \
      train --setting rn20-cifar10 --budget 5 --schedule rex --seed 7 --dtype "$dt" \
      --threads "$t" --checkpoint "$tmp_dir/${dt}_full_$t.state" --checkpoint-every 5 \
      --trace "$tmp_dir/${dt}_full_$t.jsonl" >/dev/null
    rc=0
    REX_FAULTS=kill-at-step=12 cargo run --release --offline -p rex-cli --bin rexctl -- \
      train --setting rn20-cifar10 --budget 5 --schedule rex --seed 7 --dtype "$dt" \
      --threads "$t" --checkpoint "$tmp_dir/${dt}_cut_$t.state" --checkpoint-every 5 \
      --trace "$tmp_dir/${dt}_cut_$t.jsonl" >/dev/null 2>&1 || rc=$?
    test "$rc" -eq 86
    cargo run --release --offline -p rex-cli --bin rexctl -- \
      train --setting rn20-cifar10 --budget 5 --schedule rex --seed 7 --dtype "$dt" \
      --threads "$t" --checkpoint "$tmp_dir/${dt}_cut_$t.state" --checkpoint-every 5 \
      --resume "$tmp_dir/${dt}_cut_$t.state" --trace "$tmp_dir/${dt}_cut_$t.jsonl" >/dev/null
    cmp "$tmp_dir/${dt}_full_$t.jsonl" "$tmp_dir/${dt}_cut_$t.jsonl"
  done
  cmp "$tmp_dir/${dt}_full_1.jsonl" "$tmp_dir/${dt}_full_4.jsonl"
done
# refusal: an f16 snapshot must not resume under --dtype bf16
rc=0
cargo run --release --offline -p rex-cli --bin rexctl -- \
  train --setting rn20-cifar10 --budget 5 --schedule rex --seed 7 --dtype bf16 \
  --threads 1 --resume "$tmp_dir/f16_full_1.state" >/dev/null 2>"$tmp_dir/mismatch.err" || rc=$?
test "$rc" -ne 0
grep -qi "dtype" "$tmp_dir/mismatch.err"
# and the f16 checkpoint's tensor sections halve: the whole file must be
# well under 3/4 of the f32 run's (headers are small for this model)
cargo run --release --offline -p rex-cli --bin rexctl -- \
  train --setting rn20-cifar10 --budget 5 --schedule rex --seed 7 --dtype f32 \
  --threads 1 --checkpoint "$tmp_dir/f32_ref.state" --checkpoint-every 5 >/dev/null
f32_bytes=$(wc -c < "$tmp_dir/f32_ref.state")
f16_bytes=$(wc -c < "$tmp_dir/f16_full_1.state")
test $((f16_bytes * 4)) -lt $((f32_bytes * 3))

echo "==> export (REXGGUF model files from a checkpoint)"
# `rexctl export` writes the f32 snapshot at every quant level (parsing
# and payload equality are covered by the unit tests and the decoder
# court), and the q8_0 file comes in well under half the f32 one
for q in f32 f16 q8_0; do
  cargo run --release --offline -p rex-cli --bin rexctl -- \
    export --from "$tmp_dir/f32_ref.state" --out "$tmp_dir/model_$q.rexgguf" --quant "$q" >/dev/null
done
gguf_f32=$(wc -c < "$tmp_dir/model_f32.rexgguf")
gguf_q8=$(wc -c < "$tmp_dir/model_q8_0.rexgguf")
test $((gguf_q8 * 2)) -lt "$gguf_f32"

echo "==> serve (HTTP job server: codec, queue, black-box e2e)"
# the serve crate's own suites (codec + queue invariants + subprocess
# e2e), then the root-level black-box harness in release mode — the same
# binaries a deployment would run
cargo test --offline -q -p rex-serve
cargo test --release --offline -q --test serve_e2e
# kill-and-resume over HTTP at 1 and 4 pool threads: rex-faults kills
# rexd mid-job (exit 86), a restarted server must resume the job and
# finish with a trace byte-identical to an uninterrupted CLI run
for t in 1 4; do
  REX_NUM_THREADS=$t cargo test --release --offline -q --test serve_e2e \
    killed_server_resumes_job_with_identical_trace
done

echo "==> serve-bench --smoke"
# smoke load numbers go to a scratch file so the committed
# BENCH_serve.json (generated at >=200 jobs) is never clobbered
cargo run --release --offline -q -p rex-bench --bin serve-bench -- \
  --smoke --out "$tmp_dir/serve_smoke.json"

echo "==> bench-guard (GEMM floor + BENCH_serve.json integrity)"
scripts/bench_guard.sh --serve-only

echo "==> profile (span profiler + rexctl trace tooling)"
# a profiled run must leave the JSONL trace byte-identical to an
# unprofiled one (spans never pass through the Recorder), and must write
# a loadable Chrome trace-event profile
cargo run --release --offline -p rex-cli --bin rexctl -- \
  train --setting digits-mlp --budget 100 --schedule rex --seed 7 \
  --trace "$tmp_dir/prof_run.jsonl" --profile "$tmp_dir/prof.json" \
  --profile-detail kernel >/dev/null
cargo run --release --offline -p rex-cli --bin rexctl -- \
  train --setting digits-mlp --budget 100 --schedule rex --seed 7 \
  --trace "$tmp_dir/plain_run.jsonl" >/dev/null
cmp "$tmp_dir/prof_run.jsonl" "$tmp_dir/plain_run.jsonl"
head -c 16 "$tmp_dir/prof.json" | grep -q '{"traceEvents":'
# the trace toolbox end to end: summary renders, diff of a trace with
# itself is silent success, diff of a perturbed copy names the first
# divergent step and exits 1, profile ranks spans
# (grep from a file, not a pipe: grep -q exits at first match and a
# still-writing rexctl would die on EPIPE)
cargo run --release --offline -q -p rex-cli --bin rexctl -- \
  trace summary "$tmp_dir/prof_run.jsonl" >"$tmp_dir/summary.out"
grep -q "64 steps" "$tmp_dir/summary.out"
cargo run --release --offline -q -p rex-cli --bin rexctl -- \
  trace diff "$tmp_dir/prof_run.jsonl" "$tmp_dir/plain_run.jsonl" >/dev/null
sed 's/"lr":[0-9.eE+-]*/"lr":0.123/' "$tmp_dir/prof_run.jsonl" >"$tmp_dir/perturbed.jsonl"
rc=0
cargo run --release --offline -q -p rex-cli --bin rexctl -- \
  trace diff "$tmp_dir/prof_run.jsonl" "$tmp_dir/perturbed.jsonl" \
  >"$tmp_dir/diff.out" || rc=$?
test "$rc" -eq 1
grep -q "diverges" "$tmp_dir/diff.out"
cargo run --release --offline -q -p rex-cli --bin rexctl -- \
  trace profile "$tmp_dir/prof.json" --top 5 >"$tmp_dir/profile.out"
grep -q "job/epoch/step" "$tmp_dir/profile.out"

echo "==> supervised recovery (lineage fallback, torn trace, retry/watchdog/drain)"
# the lineage e2e suite: bit-flip and truncation of the newest
# checkpoint generation must fall back with a named reason and finish
# byte-identical, at 1 and 4 threads; a mid-append kill's torn trace
# line must be dropped (not fatal) on resume
cargo test --release --offline -q --test lineage_fallback
# the serve supervision e2es: a transient checkpoint I/O failure is
# retried with backoff to completion, the heartbeat watchdog halts and
# retries a stalled job, and SIGTERM drains (503 + Retry-After at the
# door, running jobs parked Queued on disk, exit 0) with a restart
# resuming to byte-identical traces
cargo test --release --offline -q -p rex-serve --test e2e \
  transient_io_failure_is_retried_and_the_job_completes
cargo test --release --offline -q -p rex-serve --test e2e \
  watchdog_halts_a_stalled_job_and_the_retry_completes
cargo test --release --offline -q -p rex-serve --test e2e \
  sigterm_drains_and_a_restart_resumes_with_identical_trace

echo "==> chaos-bench --smoke"
# a seeded mini-storm (12 short jobs; kill / io-err / corrupt / slow-io
# rounds with a clean drain): every invariant the full soak enforces,
# sized for CI. Smoke numbers go to a scratch file so the committed
# BENCH_chaos.json (generated at >=50 jobs / >=20 faults) is never
# clobbered
cargo run --release --offline -q -p rex-bench --bin chaos-bench -- \
  --smoke --out "$tmp_dir/chaos_smoke.json"

echo "==> bench-guard (BENCH_chaos.json integrity)"
scripts/bench_guard.sh --chaos-only
# profiler overhead: smoke numbers to scratch, then the 3 % floor on the
# committed BENCH_profile.json plus a fresh run
cargo run --release --offline -q -p rex-bench --bin profile-bench -- \
  --smoke --out "$tmp_dir/profile_smoke.json" >/dev/null
scripts/bench_guard.sh --profile-only

echo "verify: OK"
