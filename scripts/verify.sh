#!/usr/bin/env bash
# Repo verification gate: format, lint, build, test, smoke runs of the
# benchmark producers, and bench-guard over the committed benchmark
# artifacts. Everything runs with --offline — the workspace has no
# external dependencies, so a cold cargo registry must never fail it.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (-D warnings, private items)"
# every intra-doc link must resolve, and public docs must not link to
# private items, so a doc that names a deleted kernel or trait method
# fails here
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --document-private-items

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> perfbench check (the benchmark compiles against this workspace)"
# perfbench/ is its own Cargo workspace that calls this one's public
# items, so a deleted or renamed item must fail here rather than in the
# benchmark run; --locked refuses to rewrite perfbench/Cargo.lock, and
# the build goes to target/, so the stage writes nothing under perfbench/
CARGO_TARGET_DIR=target/perfbench cargo check --offline --locked \
  --manifest-path perfbench/Cargo.toml

echo "==> run_experiments.sh smoke (every paper binary with the flags the script passes)"
# each binary refuses a flag it does not read, so the script and the
# binaries' declared flags cannot drift apart
bash run_experiments.sh smoke "$tmp_dir/experiments"

echo "==> --help (every release binary and rexctl subcommand prints its usage, exit 0)"
for bin in rexctl rexd grid table1 table2 table10_11 fig1 fig2 fig4 \
  kernel-bench profile-bench serve-bench chaos-bench bench-guard; do
  "./target/release/$bin" --help >/dev/null 2>&1 || {
    echo "$bin --help exited non-zero" >&2
    exit 1
  }
done
for cmd in schedules curve train sweep range-test serve trace; do
  ./target/release/rexctl "$cmd" --help >/dev/null 2>&1 || {
    echo "rexctl $cmd --help exited non-zero" >&2
    exit 1
  }
done

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
# (generated at full reps) is never clobbered by a verification run; the
# kernel rows cover every backend at 1, 2 and 4 pool threads
cargo run --release --offline -p rex-bench --bin kernel-bench -- \
  --smoke --out "$tmp_dir/bench_smoke.json"

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

echo "==> serve (HTTP job server: black-box e2e in release mode)"
# the serve crate's own suites (codec, queue invariants, subprocess e2e)
# already ran in the debug workspace passes above; here the root-level
# black-box harness runs in release mode — the same binaries a
# deployment would run
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

echo "==> profile-bench --smoke"
cargo run --release --offline -q -p rex-bench --bin profile-bench -- \
  --smoke --out "$tmp_dir/profile_smoke.json" >/dev/null

echo "==> bench-guard (every committed BENCH_*.json against its floors)"
# each committed artifact is held to the floor table in
# crates/bench/src/floors.rs; the kernel and profiler floors are
# re-measured in-process at the committed artifact's reps
cargo run --release --offline -q -p rex-bench --bin bench-guard

echo "verify: OK"
