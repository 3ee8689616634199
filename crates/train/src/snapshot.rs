//! Full training-state snapshots — the resume half of fault tolerance.
//!
//! A [`TrainState`] captures everything [`Trainer`] needs to continue a
//! run bit-for-bit: model parameters, optimizer state (momentum velocity
//! or Adam moments + step count), sample-exact schedule progress, the
//! trainer RNG stream *and* the pre-shuffle RNG state of the current
//! epoch (so the in-flight epoch's batch order can be rebuilt), the
//! model's private RNG streams (dropout masks, VAE latent noise), the
//! accumulated history, and the telemetry line cursor. Snapshots are
//! serialized into the `REXSTATE1` section container
//! ([`rex_nn::checkpoint::save_state`]) and written crash-consistently
//! via `rex_faults::atomic_write`.
//!
//! [`Trainer`]: crate::Trainer

use crate::trainer::EpochStats;
use rex_nn::bytes::{invalid, ByteReader};
use rex_nn::checkpoint;
use rex_optim::OptimizerState;
use rex_tensor::{DType, Tensor};
use std::fs;
use std::io;
use std::path::Path;

/// Longest name or string field a snapshot section may hold.
const MAX_STR: usize = 1 << 12;

/// A complete, resumable picture of a training run at a step boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainState {
    /// Run label (e.g. `"classifier"`), for compatibility checking.
    pub run: String,
    /// Schedule display name at capture time.
    pub schedule: String,
    /// Optimizer family name (`"SGDM"`, `"Adam"`, `"AdamW"`).
    pub optimizer: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Budgeted sample horizon the schedule decays over.
    pub total_samples: u64,
    /// Mini-batch size.
    pub batch_size: u64,
    /// Configured epoch count.
    pub epochs: u64,
    /// Initial learning rate η₀ (bit pattern compared on resume).
    pub lr: f32,
    /// Parameter storage precision. Governs the tensor-section codec:
    /// `f32` stores four bytes per element, `f16`/`bf16` store one `u16`
    /// per element. Resume refuses a dtype mismatch — the
    /// stored bits are not losslessly re-interpretable across dtypes.
    pub dtype: DType,
    /// Compute backend that produced the snapshot (`"scalar"`/`"simd"`).
    /// Provenance only: recorded so a resumed-elsewhere divergence can be
    /// diagnosed, never compared on resume.
    pub backend: String,
    /// SIMD dispatch level at capture time (e.g. `"avx2+fma"`,
    /// `"portable"`). Provenance only, like `backend`.
    pub simd_level: String,
    /// Epoch in flight when the snapshot was taken.
    pub epoch: u64,
    /// Batches of the in-flight epoch already consumed.
    pub batch_in_epoch: u64,
    /// Optimizer steps completed.
    pub step: u64,
    /// Samples consumed (the schedule's budget clock).
    pub samples_done: u64,
    /// Loss accumulated over the in-flight epoch so far.
    pub epoch_loss: f64,
    /// Batches accumulated into `epoch_loss`.
    pub epoch_batches: u64,
    /// Learning rate applied at the last completed step.
    pub last_lr: f32,
    /// Per-epoch history of completed epochs.
    pub history: Vec<EpochStats>,
    /// Trainer RNG stream state at capture time (post-shuffle,
    /// post-augmentation of every completed batch).
    pub rng: [u64; 4],
    /// Trainer RNG state immediately *before* the in-flight epoch's
    /// shuffle — replaying it rebuilds the epoch's exact batch order.
    pub rng_epoch_start: [u64; 4],
    /// Deterministic telemetry events in the trace so far; a resumed run
    /// rewinds its JSONL trace to this many lines and appends.
    pub trace_events: u64,
    /// Model parameters by name.
    pub model: Vec<(String, Tensor)>,
    /// Non-trainable model state by name (batch-norm running
    /// statistics): gradient-free, but eval-mode inference depends on it.
    pub buffers: Vec<(String, Tensor)>,
    /// Optimizer internals (velocity / moments / step counter).
    pub optim: OptimizerState,
    /// The model's private RNG stream states by name (dropout masks, VAE
    /// latent noise). The `streams` section is written only when this is
    /// non-empty, so stream-free snapshots keep their earlier bytes, and a
    /// file without it loads as "no streams".
    pub streams: Vec<(String, [u64; 4])>,
}

impl TrainState {
    /// Writes the snapshot to `path` crash-consistently (temp file +
    /// fsync + atomic rename; a kill mid-write leaves the previous
    /// snapshot intact).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (including injected ones).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        checkpoint::save_state(path, &self.sections())
    }

    /// The snapshot's bytes, exactly as [`save`](Self::save) writes them.
    pub fn encode(&self) -> Vec<u8> {
        checkpoint::encode_state(&self.sections())
    }

    fn sections(&self) -> Vec<(String, Vec<u8>)> {
        let mut sections = vec![
            ("meta".to_owned(), self.encode_meta()),
            ("loop".to_owned(), self.encode_loop()),
            ("rng".to_owned(), self.encode_rng()),
            ("trace".to_owned(), self.trace_events.to_le_bytes().to_vec()),
            (
                "model".to_owned(),
                checkpoint::encode_entries_dtype(&self.model, self.dtype),
            ),
            (
                "buffers".to_owned(),
                checkpoint::encode_entries_dtype(&self.buffers, self.dtype),
            ),
            ("optim".to_owned(), encode_optim(&self.optim, self.dtype)),
        ];
        if !self.streams.is_empty() {
            sections.push(("streams".to_owned(), self.encode_streams()));
        }
        sections
    }

    /// Reads a snapshot back; see [`decode`](Self::decode).
    ///
    /// # Errors
    ///
    /// As [`decode`](Self::decode); propagates filesystem errors.
    pub fn load(path: &Path) -> io::Result<TrainState> {
        TrainState::decode(&fs::read(path)?)
    }

    /// Decodes snapshot bytes, verifying the container checksum and every
    /// section's internal structure. A missing `streams` section decodes
    /// as "no streams".
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the bytes are too short to hold a container
    /// or a section ends early; `InvalidData` on any other damage,
    /// including a checksum mismatch (which a cut-short file usually
    /// shows) or a missing section.
    pub fn decode(bytes: &[u8]) -> io::Result<TrainState> {
        let sections = checkpoint::decode_state(bytes)?;
        let section = |name: &str| {
            sections
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, b)| ByteReader::new(b))
                .ok_or_else(|| invalid(format!("state snapshot missing section {name:?}")))
        };

        let mut r = section("meta")?;
        let (run, schedule, optimizer) =
            (r.string(MAX_STR)?, r.string(MAX_STR)?, r.string(MAX_STR)?);
        let (seed, total_samples, batch_size, epochs) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
        let lr = f32::from_bits(r.u32()?);
        let dtype_name = r.string(MAX_STR)?;
        let dtype = DType::parse(&dtype_name).map_err(|e| invalid(format!("snapshot has {e}")))?;
        let (backend, simd_level) = (r.string(MAX_STR)?, r.string(MAX_STR)?);
        r.finish()?;

        let mut r = section("loop")?;
        let (epoch, batch_in_epoch, step, samples_done) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
        let epoch_loss = f64::from_bits(r.u64()?);
        let epoch_batches = r.u64()?;
        let last_lr = f32::from_bits(r.u32()?);
        let n = r.u32()? as usize;
        // every history entry is at least 13 bytes
        let mut history = r.vec_for(n, 13);
        for _ in 0..n {
            let train_loss = f64::from_bits(r.u64()?);
            let val_loss = match r.u8()? {
                0 => None,
                1 => Some(f64::from_bits(r.u64()?)),
                other => return Err(invalid(format!("bad val_loss tag {other}"))),
            };
            let lr = f32::from_bits(r.u32()?);
            history.push(EpochStats {
                train_loss,
                val_loss,
                lr,
            });
        }
        r.finish()?;

        let mut r = section("rng")?;
        let (mut rng, mut rng_epoch_start) = ([0; 4], [0; 4]);
        for w in rng.iter_mut().chain(&mut rng_epoch_start) {
            *w = r.u64()?;
        }
        r.finish()?;

        let mut r = section("trace")?;
        let trace_events = r.u64()?;
        r.finish()?;

        let model = checkpoint::decode_entries_dtype(section("model")?.rest(), dtype)?;
        let buffers = checkpoint::decode_entries_dtype(section("buffers")?.rest(), dtype)?;

        let mut r = section("optim")?;
        let kind = r.string(MAX_STR)?;
        let n = r.u32()? as usize;
        if n > 64 {
            return Err(invalid(format!("optimizer state claims {n} scalars")));
        }
        let mut scalars = Vec::with_capacity(n);
        for _ in 0..n {
            scalars.push((r.string(MAX_STR)?, f64::from_bits(r.u64()?)));
        }
        let tensors = checkpoint::decode_entries_dtype(r.rest(), dtype)?;

        let mut streams = Vec::new();
        if let Ok(mut r) = section("streams") {
            let n = r.u32()? as usize;
            // every stream is at least 36 bytes
            streams = r.vec_for(n, 36);
            for _ in 0..n {
                let name = r.string(MAX_STR)?;
                let mut state = [0u64; 4];
                for w in &mut state {
                    *w = r.u64()?;
                }
                streams.push((name, state));
            }
            r.finish()?;
        }

        Ok(TrainState {
            run,
            schedule,
            optimizer,
            seed,
            total_samples,
            batch_size,
            epochs,
            lr,
            dtype,
            backend,
            simd_level,
            epoch,
            batch_in_epoch,
            step,
            samples_done,
            epoch_loss,
            epoch_batches,
            last_lr,
            history,
            rng,
            rng_epoch_start,
            trace_events,
            model,
            buffers,
            optim: OptimizerState {
                kind,
                scalars,
                tensors,
            },
            streams,
        })
    }

    fn encode_meta(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_str(&mut buf, &self.run);
        put_str(&mut buf, &self.schedule);
        put_str(&mut buf, &self.optimizer);
        buf.extend_from_slice(&self.seed.to_le_bytes());
        buf.extend_from_slice(&self.total_samples.to_le_bytes());
        buf.extend_from_slice(&self.batch_size.to_le_bytes());
        buf.extend_from_slice(&self.epochs.to_le_bytes());
        buf.extend_from_slice(&self.lr.to_bits().to_le_bytes());
        put_str(&mut buf, self.dtype.name());
        put_str(&mut buf, &self.backend);
        put_str(&mut buf, &self.simd_level);
        buf
    }

    fn encode_loop(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.extend_from_slice(&self.batch_in_epoch.to_le_bytes());
        buf.extend_from_slice(&self.step.to_le_bytes());
        buf.extend_from_slice(&self.samples_done.to_le_bytes());
        buf.extend_from_slice(&self.epoch_loss.to_bits().to_le_bytes());
        buf.extend_from_slice(&self.epoch_batches.to_le_bytes());
        buf.extend_from_slice(&self.last_lr.to_bits().to_le_bytes());
        buf.extend_from_slice(&(self.history.len() as u32).to_le_bytes());
        for e in &self.history {
            buf.extend_from_slice(&e.train_loss.to_bits().to_le_bytes());
            match e.val_loss {
                Some(v) => {
                    buf.push(1);
                    buf.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                None => buf.push(0),
            }
            buf.extend_from_slice(&e.lr.to_bits().to_le_bytes());
        }
        buf
    }

    fn encode_rng(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        for w in self.rng.iter().chain(&self.rng_epoch_start) {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        buf
    }

    fn encode_streams(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(self.streams.len() as u32).to_le_bytes());
        for (name, state) in &self.streams {
            put_str(&mut buf, name);
            for w in state {
                buf.extend_from_slice(&w.to_le_bytes());
            }
        }
        buf
    }
}

fn encode_optim(state: &OptimizerState, dtype: DType) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, &state.kind);
    buf.extend_from_slice(&(state.scalars.len() as u32).to_le_bytes());
    for (name, value) in &state.scalars {
        put_str(&mut buf, name);
        buf.extend_from_slice(&value.to_bits().to_le_bytes());
    }
    buf.extend_from_slice(&checkpoint::encode_entries_dtype(&state.tensors, dtype));
    buf
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> TrainState {
        TrainState {
            run: "classifier".to_owned(),
            schedule: "REX".to_owned(),
            optimizer: "SGDM".to_owned(),
            seed: 42,
            total_samples: 1200,
            batch_size: 16,
            epochs: 8,
            lr: 0.05,
            dtype: DType::F32,
            backend: "simd".to_owned(),
            simd_level: "avx2+fma".to_owned(),
            epoch: 2,
            batch_in_epoch: 3,
            step: 19,
            samples_done: 304,
            epoch_loss: 6.25,
            epoch_batches: 3,
            last_lr: 0.031_25,
            history: vec![
                EpochStats {
                    train_loss: 2.5,
                    val_loss: None,
                    lr: 0.05,
                },
                EpochStats {
                    train_loss: 2.0,
                    val_loss: Some(1.75),
                    lr: 0.04,
                },
            ],
            rng: [1, 2, 3, 4],
            rng_epoch_start: [5, 6, 7, 8],
            trace_events: 23,
            model: vec![
                ("w".to_owned(), Tensor::arange(0.0, 1.0, 6)),
                (
                    "b".to_owned(),
                    Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap(),
                ),
            ],
            buffers: vec![(
                "bn.running_mean".to_owned(),
                Tensor::from_vec(vec![0.25, 0.75], &[2]).unwrap(),
            )],
            optim: OptimizerState {
                kind: "sgd".to_owned(),
                scalars: vec![("t".to_owned(), 19.0)],
                tensors: vec![("velocity:w".to_owned(), Tensor::zeros(&[6]))],
            },
            streams: vec![("vgg.dropout".to_owned(), [9, 10, 11, 12])],
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rex_snapshot_{name}_{}", std::process::id()))
    }

    #[test]
    fn state_roundtrips_exactly() {
        let state = sample_state();
        let path = tmp("roundtrip");
        state.save(&path).unwrap();
        let back = TrainState::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(state, back);
    }

    /// `sample_state()` stored at `dtype`, its tensors pre-rounded to it
    /// as live training state always is.
    fn sample_state_at(dtype: DType) -> TrainState {
        let mut state = sample_state();
        state.dtype = dtype;
        for (_, t) in state
            .model
            .iter_mut()
            .chain(state.buffers.iter_mut())
            .chain(state.optim.tensors.iter_mut())
        {
            dtype.round_slice(t.data_mut());
        }
        state
    }

    #[test]
    fn writers_match_pinned_lengths_and_hashes() {
        // length and fnv1a64 of the whole file, per storage dtype: any
        // change to a section writer or the container shows up here
        for (dtype, len, hash) in [
            (DType::F32, 653, 0xf4a4_5f1c_1e95_33fe_u64),
            (DType::F16, 621, 0x7236_7adc_569c_5f9e),
            (DType::Bf16, 622, 0xbbe6_acac_888d_61f6),
        ] {
            let path = tmp(&format!("pin_{dtype}"));
            sample_state_at(dtype).save(&path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            assert_eq!(
                (bytes.len(), checkpoint::fnv1a64(&bytes)),
                (len, hash),
                "{dtype} snapshot bytes changed"
            );
        }
    }

    #[test]
    fn half_precision_state_roundtrips_and_shrinks_tensor_sections() {
        let state = sample_state_at(DType::F16);
        let path = tmp("half");
        state.save(&path).unwrap();
        let half_len = std::fs::metadata(&path).unwrap().len();
        let back = TrainState::load(&path).unwrap();
        assert_eq!(state, back);

        let mut full = state.clone();
        full.dtype = DType::F32;
        full.save(&path).unwrap();
        let full_len = std::fs::metadata(&path).unwrap().len();
        let _ = std::fs::remove_file(&path);
        // 16 tensor elements in the sample state, 2 bytes saved each
        assert_eq!(full_len - half_len, 2 * 16);
    }

    #[test]
    fn unknown_dtype_in_meta_is_invalid_data() {
        let state = sample_state();
        let path = tmp("dtype");
        state.save(&path).unwrap();
        let sections = checkpoint::load_state(&path).unwrap();
        let doctored: Vec<(String, Vec<u8>)> = sections
            .into_iter()
            .map(|(name, bytes)| {
                if name == "meta" {
                    // the dtype string "f32" is the last-but-two field;
                    // rewrite its bytes in place
                    let mut b = bytes;
                    let pos = b.windows(3).rposition(|w| w == b"f32").unwrap();
                    b[pos..pos + 3].copy_from_slice(b"f99");
                    (name, b)
                } else {
                    (name, bytes)
                }
            })
            .collect();
        checkpoint::save_state(&path, &doctored).unwrap();
        let err = TrainState::load(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unknown dtype"), "{err}");
    }

    #[test]
    fn corrupt_snapshots_load_as_clean_errors() {
        let state = sample_state();
        let path = tmp("corrupt");
        state.save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        // the container checksum catches every flip; truncations surface
        // as eof/invalid — spot-check a spread of offsets
        for pos in (0..good.len()).step_by(37) {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            let err = TrainState::load(&path).unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ),
                "flip at {pos}: {err}"
            );
            std::fs::write(&path, &good[..pos]).unwrap();
            let err = TrainState::load(&path).unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ),
                "truncation at {pos}: {err}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stream_free_snapshots_omit_the_streams_section() {
        let mut state = sample_state();
        state.streams.clear();
        let path = tmp("no_streams");
        state.save(&path).unwrap();
        let sections = checkpoint::load_state(&path).unwrap();
        let back = TrainState::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(sections.iter().all(|(name, _)| name != "streams"));
        assert_eq!(state, back);
    }

    #[test]
    fn missing_section_is_invalid_data() {
        let path = tmp("missing");
        checkpoint::save_state(&path, &[("rng".to_owned(), vec![])]).unwrap();
        let err = TrainState::load(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("missing section"), "{err}");
    }
}
