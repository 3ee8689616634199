//! Mutation court for the decoders of on-disk bytes: the `REXSTATE1`
//! container, the tensor-entry codec at f32, f16 and bf16, `TrainState`
//! sections, and JSONL telemetry traces.
//!
//! Each format gets a few thousand Prng-seeded mutants of a valid file:
//! bit flips, truncations, splices, and length or count fields
//! overwritten with huge values. Every mutant must decode to `Ok` or
//! `Err` — never a panic — and a counting global allocator asserts that
//! no single allocation made while decoding exceeds 1 MiB. Where the
//! encoding is canonical, an accepted mutant must re-encode to exactly
//! its own bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rex_nn::bytes::ByteReader;
use rex_nn::checkpoint::{self, decode_entries_dtype, encode_entries_dtype};
use rex_optim::OptimizerState;
use rex_tensor::{DType, Prng, Tensor};
use rex_train::{EpochStats, TrainState};

/// Records the largest single allocation made on each thread.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // try_with: the slot may already be gone while a thread exits
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// bookkeeping touches only a const-initialised thread-local `Cell`.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

const MAX_ALLOC: usize = 1 << 20;
const MUTANTS: usize = 3000;

/// Runs `f` and returns its result with the largest single allocation
/// it made.
fn peak_alloc<R>(f: impl FnOnce() -> R) -> (R, usize) {
    PEAK.with(|p| p.set(0));
    let out = f();
    (out, PEAK.with(Cell::get))
}

/// What a decoder made of one mutant.
enum Verdict {
    Rejected,
    Accepted,
    /// Accepted, and re-encoding the decoded value gave these bytes.
    Reencoded(Vec<u8>),
}

/// Values written over a length or count field (low 4 bytes for a
/// `u32` field).
const HUGE: [u64; 5] = [u32::MAX as u64, 1 << 20, 1 << 29, 1 << 32, u64::MAX];

/// One mutant of `template`. `fields` holds the `(offset, width)` of its
/// length and count fields; when empty, an overwrite lands anywhere.
fn mutate(template: &[u8], fields: &[(usize, usize)], rng: &mut Prng) -> Vec<u8> {
    let n = template.len();
    let mut out = template.to_vec();
    match rng.below(4) {
        0 => {
            for _ in 0..=rng.below(3) {
                out[rng.below(n)] ^= 1 << rng.below(8);
            }
        }
        1 => out.truncate(rng.below(n)),
        // splice: drop a range, or repeat one
        2 => {
            let (i, j) = (rng.below(n + 1), rng.below(n + 1));
            out = [&template[..i], &template[j..]].concat();
        }
        _ => {
            let (at, width) = match fields {
                [] => {
                    let width = [4, 8][rng.below(2)].min(n);
                    (rng.below(n - width + 1), width)
                }
                _ => fields[rng.below(fields.len())],
            };
            let value = HUGE[rng.below(HUGE.len())].to_le_bytes();
            out[at..at + width].copy_from_slice(&value[..width]);
        }
    }
    out
}

/// Feeds `MUTANTS` mutants from `mutant` to `decode` and asserts the
/// court's rules: no panic, no allocation above `MAX_ALLOC`, and any
/// re-encoding equal to the mutant. Both verdicts must occur, so the
/// mutations reach past the first check.
fn court(
    format: &str,
    seed: u64,
    mut mutant: impl FnMut(&mut Prng) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Verdict,
) {
    let mut rng = Prng::new(seed);
    let (mut accepted, mut rejected, mut panics) = (0, 0, Vec::new());
    for i in 0..MUTANTS {
        let bytes = mutant(&mut rng);
        let (verdict, peak) = peak_alloc(|| catch_unwind(AssertUnwindSafe(|| decode(&bytes))));
        assert!(
            peak <= MAX_ALLOC,
            "{format} mutant {i}: a {peak}-byte allocation"
        );
        match verdict {
            Err(_) => panics.push(i),
            Ok(Verdict::Rejected) => rejected += 1,
            Ok(Verdict::Accepted) => accepted += 1,
            Ok(Verdict::Reencoded(again)) => {
                assert!(again == bytes, "{format} mutant {i} re-encodes differently");
                accepted += 1;
            }
        }
    }
    assert!(panics.is_empty(), "{format}: mutants {panics:?} panicked");
    assert!(
        accepted > 0 && rejected > 0,
        "{format}: {accepted} accepted, {rejected} rejected"
    );
}

/// `(offset, width)` of the count, name-length, rank and dim fields of
/// an entry payload.
fn entry_fields(bytes: &[u8], dtype: DType) -> Vec<(usize, usize)> {
    let mut r = ByteReader::new(bytes);
    let mut fields = vec![(0, 4)];
    for _ in 0..r.u32().unwrap() {
        fields.push((r.position(), 4));
        r.string(usize::MAX).unwrap();
        fields.push((r.position(), 4));
        let mut n = 1;
        for _ in 0..r.u32().unwrap() {
            fields.push((r.position(), 8));
            n *= r.len_u64().unwrap();
        }
        r.take(dtype.nbytes(n)).unwrap();
    }
    fields
}

/// Named tensors with edge shapes (a scalar, an empty tensor), their
/// values rounded to `dtype`.
fn sample_entries(dtype: DType) -> Vec<(String, Tensor)> {
    let mut rng = Prng::new(0xC0DEC);
    let mut entries = vec![
        ("fc.weight".to_owned(), rng.normal_tensor(&[4, 6], 0.0, 1.0)),
        ("fc.bias".to_owned(), rng.normal_tensor(&[4], 0.0, 1e-3)),
        (
            "scale".to_owned(),
            Tensor::from_vec(vec![2.5], &[]).unwrap(),
        ),
        ("empty".to_owned(), Tensor::zeros(&[0, 3])),
    ];
    for (_, t) in &mut entries {
        dtype.round_slice(t.data_mut());
    }
    entries
}

#[test]
fn state_container_mutants_never_panic() {
    let sections = vec![
        ("meta".to_owned(), b"run=court".to_vec()),
        ("empty".to_owned(), Vec::new()),
        ("model".to_owned(), (0..=255).collect()),
    ];
    let template = checkpoint::encode_state(&sections);
    let mut r = ByteReader::new(&template);
    r.take(checkpoint::STATE_MAGIC.len()).unwrap();
    let mut fields = vec![(r.position(), 4)];
    for _ in 0..r.u32().unwrap() {
        fields.push((r.position(), 4));
        r.string(usize::MAX).unwrap();
        fields.push((r.position(), 8));
        let len = r.len_u64().unwrap();
        r.take(len).unwrap();
    }
    court(
        "REXSTATE1",
        1,
        |rng| {
            let mut bytes = mutate(&template, &fields, rng);
            // re-seal half the mutants so they get past the checksum
            if rng.below(2) == 0 && bytes.len() >= 8 {
                let body = bytes.len() - 8;
                let sum = checkpoint::fnv1a64(&bytes[..body]);
                bytes[body..].copy_from_slice(&sum.to_le_bytes());
            }
            bytes
        },
        |bytes| match checkpoint::decode_state(bytes) {
            Ok(sections) => Verdict::Reencoded(checkpoint::encode_state(&sections)),
            Err(_) => Verdict::Rejected,
        },
    );
}

#[test]
fn entry_codec_mutants_never_panic() {
    for (seed, dtype) in [(2, DType::F32), (3, DType::F16), (4, DType::Bf16)] {
        let template = encode_entries_dtype(&sample_entries(dtype), dtype);
        let fields = entry_fields(&template, dtype);
        court(
            &format!("entries/{dtype}"),
            seed,
            |rng| mutate(&template, &fields, rng),
            |bytes| match decode_entries_dtype(bytes, dtype) {
                Err(_) => Verdict::Rejected,
                // f16 and bf16 NaN payloads narrow back to one canonical
                // NaN, so only NaN-free values must re-encode exactly
                Ok(entries)
                    if dtype != DType::F32
                        && entries
                            .iter()
                            .any(|(_, t)| t.data().iter().any(|v| v.is_nan())) =>
                {
                    Verdict::Accepted
                }
                Ok(entries) => Verdict::Reencoded(encode_entries_dtype(&entries, dtype)),
            },
        );
    }
}

fn sample_state() -> TrainState {
    let entries = sample_entries(DType::F32);
    TrainState {
        run: "classifier".to_owned(),
        schedule: "REX".to_owned(),
        optimizer: "Adam".to_owned(),
        seed: 7,
        total_samples: 640,
        batch_size: 16,
        epochs: 4,
        lr: 1e-3,
        dtype: DType::F32,
        backend: "scalar".to_owned(),
        simd_level: "portable".to_owned(),
        epoch: 1,
        batch_in_epoch: 2,
        step: 12,
        samples_done: 192,
        epoch_loss: 4.5,
        epoch_batches: 2,
        last_lr: 9e-4,
        history: vec![EpochStats {
            train_loss: 2.25,
            val_loss: Some(2.5),
            lr: 1e-3,
        }],
        rng: [1, 2, 3, 4],
        rng_epoch_start: [5, 6, 7, 8],
        trace_events: 40,
        model: entries[..2].to_vec(),
        buffers: entries[2..].to_vec(),
        optim: OptimizerState {
            kind: "adam".to_owned(),
            scalars: vec![("t".to_owned(), 12.0)],
            tensors: entries[..2]
                .iter()
                .map(|(n, t)| (format!("m:{n}"), t.clone()))
                .collect(),
        },
        streams: vec![("vae.noise".to_owned(), [9, 10, 11, 12])],
    }
}

#[test]
fn train_state_section_mutants_never_panic() {
    let state = sample_state();
    let sections = checkpoint::decode_state(&state.encode()).unwrap();
    assert_eq!(TrainState::decode(&state.encode()).unwrap(), state);
    court(
        "TrainState",
        5,
        |rng| {
            // damage one section, then re-seal the container so the
            // mutant reaches the section decoders past the checksum
            let mut damaged = sections.clone();
            let (name, bytes) = &mut damaged[rng.below(sections.len())];
            let fields = match name.as_str() {
                "model" | "buffers" => entry_fields(bytes, DType::F32),
                _ => Vec::new(),
            };
            *bytes = mutate(bytes, &fields, rng);
            checkpoint::encode_state(&damaged)
        },
        |bytes| match TrainState::decode(bytes) {
            Ok(_) => Verdict::Accepted,
            Err(_) => Verdict::Rejected,
        },
    );
}

#[test]
fn jsonl_trace_mutants_never_panic() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/tasks/vae_rex.jsonl"
    );
    let template = std::fs::read(path).unwrap();
    court(
        "JSONL",
        6,
        |rng| mutate(&template, &[], rng),
        |bytes| match std::str::from_utf8(bytes).map(rex_telemetry::parse_trace) {
            Ok(Ok(_)) => Verdict::Accepted,
            _ => Verdict::Rejected,
        },
    );
}
