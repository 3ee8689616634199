//! `rexctl` — command-line interface for the REX budgeted-training library.
//!
//! ```text
//! rexctl schedules                         list every available schedule
//! rexctl curve --schedule rex --points 20  print a schedule's LR curve
//! rexctl train --setting rn20-cifar10 --budget 10 --schedule rex
//! rexctl sweep --setting rn20-cifar10 --budgets 5,25,100
//! rexctl range-test --setting rn20-cifar10
//! ```

mod args;
mod commands;
mod trace_cmd;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("schedules") => commands::schedules(),
        Some("curve") => commands::curve(&argv[1..]),
        Some("train") => commands::train(&argv[1..]),
        Some("sweep") => commands::sweep(&argv[1..]),
        Some("range-test") => commands::range_test(&argv[1..]),
        Some("serve") => commands::serve(&argv[1..]),
        Some("export") => commands::export(&argv[1..]),
        Some("trace") => trace_cmd::trace(&argv[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            0
        }
        Some(other) => {
            eprintln!("unknown command {other:?}\n");
            print_usage();
            2
        }
    };
    std::process::exit(code);
}

fn print_usage() {
    eprintln!(
        "rexctl — budgeted training with the REX schedule

USAGE:
  rexctl schedules
      List every schedule the library implements.

  rexctl curve --schedule <NAME> [--points N] [--budget-steps T]
      Print a schedule's LR-multiplier curve as CSV (progress,factor).

  rexctl train --setting <SETTING> [--budget PCT] [--schedule NAME]
               [--optimizer sgdm|adam] [--lr LR] [--seed S] [--trace FILE]
               [--threads N] [--backend scalar|simd|auto]
               [--dtype f32|f16|bf16]
               [--profile FILE] [--profile-detail phase|kernel]
               [--checkpoint PATH --checkpoint-every N]
               [--keep-checkpoints N] [--resume PATH]
               [--guard off|abort|skip|rollback] [--halt-after STEP]
      Train one budgeted cell and print the final metric. With --trace,
      write a JSONL telemetry trace (one step record per optimizer step)
      to FILE; same-seed runs produce byte-identical traces at any
      thread count. With --profile, collect a hierarchical span profile
      (job/epoch/step/data|forward|backward|optimizer/...), print its
      phase table at run end, and write Chrome trace-event JSON to FILE
      (load in Perfetto); --profile-detail kernel adds per-op compute
      spans. Profiling never changes the trace bytes.

  rexctl sweep --setting <SETTING> [--budgets 1,5,10,25,50,100]
               [--schedules rex,linear,...] [--optimizer sgdm|adam]
               [--threads N] [--backend scalar|simd|auto]
               [--dtype f32|f16|bf16] [--resume DIR]
               [--profile FILE] [--profile-detail phase|kernel]
      Run a schedule x budget mini-grid and print a markdown table.
      --resume DIR leaves a done-marker per finished cell and skips
      marked cells on the next run. --profile aggregates a span profile
      across every cell and writes it to FILE as Chrome trace JSON.

  rexctl trace summary FILE
  rexctl trace diff EXPECTED ACTUAL
  rexctl trace profile FILE [--top K]
      Offline trace analysis: summarize a JSONL training trace (run
      header plus lr/loss sparklines), diff two traces with the golden
      comparator (exit 0 and silence when they match; the first
      divergent event and step otherwise), or rank the hottest spans of
      a --profile Chrome trace.

  rexctl range-test --setting <SETTING> [--optimizer sgdm|adam] [--trace FILE]
               [--threads N] [--backend scalar|simd|auto]
      Run an LR range test and print the suggested initial LR.

  rexctl export --from CKPT --out FILE [--quant q8_0|f16|f32]
      Convert a REXSTATE1 training checkpoint into a REXGGUF model file:
      a single mmap-friendly image holding the model tensors (parameters
      plus batch-norm statistics), every payload 32-byte aligned. --quant
      picks the storage format (default f16); q8_0 block-quantizes 2-D+
      tensors (32-element blocks, one f16 scale each) and keeps biases
      and norm parameters f32.

  rexctl serve --data-dir DIR [--addr HOST:PORT] [--queue-depth N]
               [--workers N] [--checkpoint-every STEPS]
               [--threads N] [--backend scalar|simd|auto]
               [--access-log FILE] [--profile on|off]
               [--metrics-compat on|off]
      Run the budgeted-training job server (HTTP/1.1, zero deps) in the
      foreground. POST /v1/jobs submits a train job as flat JSON; a full
      queue answers 429 + Retry-After. GET /v1/jobs/:id/trace streams the
      live JSONL trace; GET /metrics is Prometheus-style (histogram
      timers with _bucket/_sum/_count). Job state lives under
      --data-dir: restarting on the same directory re-enqueues
      unfinished jobs, which resume from their last checkpoint and finish
      with byte-identical traces. --access-log appends one key=value
      line per request; every response carries an X-Request-Id that also
      lands in the submitted job's manifest; --profile on writes a span
      profile per job to jobs/<id>/profile.json.

THREADS:
  --threads N sizes the persistent worker pool (overrides the
  REX_NUM_THREADS environment variable). Results are bitwise identical
  at any thread count.

PRECISION:
  --dtype f32|f16|bf16 picks the parameter storage precision. All
  arithmetic stays in f32 (master weights); f16/bf16 round stored
  parameters, optimizer state, and buffers after every step, halving
  checkpoint tensor sections. A checkpoint records its dtype and a
  resume with a different --dtype is refused. Default f32 is the
  legacy path with byte-identical traces and snapshots.

BACKEND:
  --backend scalar|simd|auto picks the compute backend (overrides the
  REX_BACKEND environment variable; default auto = simd wherever a
  vector unit exists). Numerics are a property of the backend: within
  one backend results are bitwise identical at any thread count, across
  backends they agree to rounding.

FAULT TOLERANCE (train, every setting):
  --checkpoint PATH --checkpoint-every N snapshot the full training
  state (model, optimizer, RNGs, schedule progress, trace cursor) every
  N optimizer steps, crash-consistently. With --keep-checkpoints N,
  PATH is a directory holding the N newest generational snapshots
  (state.00017.rexstate ...) plus a LATEST pointer; without it, PATH is
  a single file overwritten in place. --resume PATH continues an
  interrupted run from its snapshot; pointing it at a lineage directory
  resumes the newest valid generation, falling back generation by
  generation past truncated/corrupt snapshots with a named reason per
  skip. With --trace the finished trace is byte-identical to an
  uninterrupted run's. --guard picks the response to a non-finite
  loss/gradient (abort names the step and tensor; skip drops the step
  but advances the budget; rollback restores the last checkpoint).
  --halt-after STEP stops cleanly after that step — a deterministic
  in-process kill for testing resume.

SETTINGS:
  rn20-cifar10 | rn38-cifar10 | wrn-stl10 | vgg16-cifar100 | vae-mnist
  | digits-mlp (tiny MLP on synthetic digits — the load-test cell)

SCHEDULES (case-insensitive):
  none, rex, linear, cosine, step, exp, onecycle, plateau,
  sgdr, triangular, inverse-sqrt, rex-beta=<B>, delayed-linear=<F>"
    );
}
