//! Training-state persistence: the `REXSTATE1` section container that
//! full snapshots are written in, the tensor-entry codec of its
//! `model`/`buffers`/`optim` sections, and [`restore_params`], which
//! resume uses to load parameters by name (see DESIGN.md §12 for the
//! byte-layout table):
//!
//! ```text
//! container: magic "REXSTATE1" | u32 section_count
//!                              | repeat: u32 name_len | name (utf-8)
//!                              |         u64 byte_len | bytes…
//!                              | u64 fnv1a64(all preceding bytes)
//! entries:   u32 count | repeat: u32 name_len | name (utf-8)
//!                      |         u32 ndim | u64 dims… | values…
//! ```
//!
//! Entry values are little-endian `f32`, or one `u16` each at f16/bf16.
//! Both formats decode through [`ByteReader`]; the container is written
//! through [`rex_faults::atomic_write`], so a crash mid-save leaves the
//! previous file intact rather than a torn one.

use std::fs;
use std::io;
use std::path::Path;

use rex_autograd::Param;
use rex_tensor::dtype::{bf16_bits_to_f32, f16_bits_to_f32, f32_to_bf16_bits, f32_to_f16_bits};
use rex_tensor::{DType, Tensor};

use crate::bytes::{invalid, ByteReader};

/// Magic of the full training-state container.
pub const STATE_MAGIC: &[u8; 9] = b"REXSTATE1";

// sanity caps: reject corrupt headers as bad structure, not truncation
const MAX_ENTRIES: usize = 1 << 20;
const MAX_NAME: usize = 1 << 12;
const MAX_ELEMENTS: usize = 1 << 30;
const MAX_SECTIONS: usize = 64;

/// Encodes `(name, tensor)` entries (`u32 count` followed by the
/// entries) at a storage precision — the payload of the model, buffer
/// and optimizer sections inside a `REXSTATE1` snapshot. `F32` stores
/// each value's bits; `F16`/`Bf16` store one little-endian `u16` per
/// element — half the payload. Values are expected to already be rounded
/// to `dtype` (the optimizer's storage-rounding step guarantees this), so
/// the narrowing here is lossless for live training state.
pub fn encode_entries_dtype(entries: &[(String, Tensor)], dtype: DType) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    match dtype {
        DType::F32 => push_entries(&mut buf, entries, f32::to_le_bytes),
        DType::F16 => push_entries(&mut buf, entries, |v| f32_to_f16_bits(v).to_le_bytes()),
        DType::Bf16 => push_entries(&mut buf, entries, |v| f32_to_bf16_bits(v).to_le_bytes()),
    }
    buf
}

fn push_entries<const W: usize>(
    buf: &mut Vec<u8>,
    entries: &[(String, Tensor)],
    to_le: impl Fn(f32) -> [u8; W],
) {
    for (name, value) in entries {
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&(value.ndim() as u32).to_le_bytes());
        for &d in value.shape() {
            buf.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for &v in value.data() {
            buf.extend_from_slice(&to_le(v));
        }
    }
}

/// Decodes a byte slice produced by [`encode_entries_dtype`] with the
/// same `dtype`.
///
/// # Errors
///
/// `UnexpectedEof` on truncation; `InvalidData` on bad structure,
/// including trailing garbage after the last entry.
pub fn decode_entries_dtype(bytes: &[u8], dtype: DType) -> io::Result<Vec<(String, Tensor)>> {
    let from_le: fn(&[u8]) -> f32 = match dtype {
        DType::F32 => |c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]),
        DType::F16 => |c| f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]])),
        DType::Bf16 => |c| bf16_bits_to_f32(u16::from_le_bytes([c[0], c[1]])),
    };
    let elem = dtype.nbytes(1);
    let mut r = ByteReader::new(bytes);
    let count = r.u32()? as usize;
    if count > MAX_ENTRIES {
        return Err(invalid(format!(
            "implausible entry count {count} in checkpoint"
        )));
    }
    // every entry holds at least its name length and rank
    let mut out = r.vec_for(count, 8);
    for _ in 0..count {
        let name = r.string(MAX_NAME)?;
        let ndim = r.u32()? as usize;
        if ndim > 8 {
            return Err(invalid(format!("implausible rank {ndim} in checkpoint")));
        }
        let shape = (0..ndim)
            .map(|_| r.len_u64())
            .collect::<io::Result<Vec<_>>>()?;
        // overflow-checked sizes: adversarial dims must error, not wrap
        // (release) or panic (debug)
        let overflow = || invalid("checkpoint tensor size overflows");
        let n = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(overflow)?;
        if n > MAX_ELEMENTS {
            return Err(invalid(format!(
                "implausible tensor size {n} in checkpoint"
            )));
        }
        let payload = r.take(n.checked_mul(elem).ok_or_else(overflow)?)?;
        let data = payload.chunks_exact(elem).map(from_le).collect();
        let tensor = Tensor::from_vec(data, &shape).map_err(|e| invalid(e.to_string()))?;
        out.push((name, tensor));
    }
    r.finish()?;
    Ok(out)
}

/// Assigns `entries` into `params` by exact name and shape — how resume
/// restores a snapshot's `model` section. Entries that match no
/// parameter are ignored.
///
/// # Errors
///
/// Describes the first missing entry or shape mismatch.
pub fn restore_params(entries: &[(String, Tensor)], params: &[Param]) -> Result<(), String> {
    for p in params {
        let name = p.name();
        let entry = entries
            .iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| format!("checkpoint has no entry named {name:?}"))?;
        if entry.1.shape() != p.value().shape() {
            return Err(format!(
                "shape mismatch for {name:?}: checkpoint {:?} vs parameter {:?}",
                entry.1.shape(),
                p.value().shape()
            ));
        }
        *p.value_mut() = entry.1.clone();
    }
    Ok(())
}

/// Writes named opaque sections as a `REXSTATE1` container, atomically
/// (see [`rex_faults::atomic_write`]; the write label is `"state"`).
///
/// # Errors
///
/// Propagates filesystem errors (and injected ones).
pub fn save_state(path: &Path, sections: &[(String, Vec<u8>)]) -> io::Result<()> {
    rex_faults::atomic_write("state", path, &encode_state(sections))
}

/// Encodes sections in the `REXSTATE1` layout, checksum trailer included.
pub fn encode_state(sections: &[(String, Vec<u8>)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(STATE_MAGIC);
    buf.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (name, bytes) in sections {
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        buf.extend_from_slice(bytes);
    }
    let sum = fnv1a64(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Reads a `REXSTATE1` container back into its named sections, verifying
/// the trailing checksum first so any torn or bit-flipped file is
/// rejected wholesale.
///
/// # Errors
///
/// Returns `InvalidData` for a bad magic, checksum mismatch, or
/// structural corruption; `UnexpectedEof` for truncation.
pub fn load_state(path: &Path) -> io::Result<Vec<(String, Vec<u8>)>> {
    let bytes = fs::read(path)?;
    decode_state(&bytes)
}

/// [`load_state`] over an in-memory buffer.
///
/// # Errors
///
/// See [`load_state`].
pub fn decode_state(bytes: &[u8]) -> io::Result<Vec<(String, Vec<u8>)>> {
    if bytes.len() < STATE_MAGIC.len() + 4 + 8 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "truncated REXSTATE1 snapshot",
        ));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let mut r = ByteReader::new(body);
    if r.take(STATE_MAGIC.len())? != STATE_MAGIC {
        return Err(invalid("not a REXSTATE1 snapshot"));
    }
    let stored = ByteReader::new(trailer).u64()?;
    let actual = fnv1a64(body);
    if stored != actual {
        return Err(invalid(format!(
            "REXSTATE1 checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        )));
    }
    let count = r.u32()? as usize;
    if count > MAX_SECTIONS {
        return Err(invalid(format!("implausible section count {count}")));
    }
    let mut sections = Vec::with_capacity(count);
    for _ in 0..count {
        let name = r.string(MAX_NAME)?;
        let len = r.len_u64()?;
        sections.push((name, r.take(len)?.to_vec()));
    }
    r.finish()?;
    Ok(sections)
}

/// FNV-1a 64-bit over `bytes` — the snapshot's integrity check. Not
/// cryptographic; it exists to reject torn/bit-flipped files, and the
/// atomic-rename protocol makes genuinely torn files unreachable anyway.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::mlp::Mlp;
    use crate::module::Module;
    use rex_tensor::Prng;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rex_ckpt_{name}_{}", std::process::id()))
    }

    fn entries_of(params: &[Param]) -> Vec<(String, Tensor)> {
        params
            .iter()
            .map(|p| (p.name(), p.value().clone()))
            .collect()
    }

    #[test]
    fn roundtrip_preserves_values_and_names() {
        let mut rng = Prng::new(1);
        let m = Mlp::new("m", &[4, 8, 2], &mut rng);
        let bytes = encode_entries_dtype(&entries_of(&m.params()), DType::F32);

        let raw = decode_entries_dtype(&bytes, DType::F32).unwrap();
        assert_eq!(raw.len(), 4); // 2 layers x (weight + bias)
        assert!(raw.iter().any(|(n, _)| n == "m.fc0.weight"));

        // restore into a differently-initialised clone
        let mut rng2 = Prng::new(2);
        let m2 = Mlp::new("m", &[4, 8, 2], &mut rng2);
        assert_ne!(*m.params()[0].value(), *m2.params()[0].value());
        restore_params(&raw, &m2.params()).unwrap();
        for (a, b) in m.params().iter().zip(m2.params().iter()) {
            assert_eq!(*a.value(), *b.value());
        }
    }

    #[test]
    fn rejects_wrong_magic() {
        let mut bytes = encode_state(&[("meta".to_owned(), b"x".to_vec())]);
        bytes[..9].copy_from_slice(b"NOTASTATE");
        let err = decode_state(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not a REXSTATE1"), "{err}");
    }

    #[test]
    fn missing_entry_is_an_error() {
        let mut rng = Prng::new(3);
        let small = Mlp::new("a", &[2, 2], &mut rng);
        let other = Mlp::new("b", &[2, 2], &mut rng);
        let err = restore_params(&entries_of(&small.params()), &other.params()).unwrap_err();
        assert!(err.contains("no entry"), "{err}");
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let mut rng = Prng::new(4);
        let m = Mlp::new("m", &[2, 3], &mut rng);
        let wider = Mlp::new("m", &[2, 4], &mut rng);
        let err = restore_params(&entries_of(&m.params()), &wider.params()).unwrap_err();
        assert!(err.contains("shape mismatch"), "{err}");
    }

    #[test]
    fn extra_checkpoint_entries_are_not_fatal() {
        let mut rng = Prng::new(5);
        let full = Mlp::new("m", &[4, 8, 2], &mut rng);
        // a "sub-model" holding only the first layer's params
        let sub = &full.params()[..2];
        let before: Vec<Tensor> = sub.iter().map(|p| p.value().clone()).collect();
        restore_params(&entries_of(&full.params()), sub).unwrap();
        for (p, b) in sub.iter().zip(&before) {
            assert_eq!(*p.value(), *b);
        }
    }

    #[test]
    fn entry_codec_roundtrips_and_rejects_trailing_bytes() {
        let entries = vec![
            (
                "a".to_owned(),
                Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap(),
            ),
            ("b".to_owned(), Tensor::from_vec(vec![5.0], &[1]).unwrap()),
        ];
        let bytes = encode_entries_dtype(&entries, DType::F32);
        assert_eq!(decode_entries_dtype(&bytes, DType::F32).unwrap(), entries);

        let mut padded = bytes.clone();
        padded.push(0);
        let err = decode_entries_dtype(&padded, DType::F32).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn half_entry_codec_roundtrips_rounded_values_exactly() {
        for dtype in [DType::F16, DType::Bf16] {
            // values already rounded to the storage dtype, as the
            // optimizer guarantees for live training state
            let vals: Vec<f32> = [0.0, -1.5, 3.0e-5, 271.25, -6.1e4]
                .iter()
                .map(|&v| dtype.round_val(v))
                .collect();
            let entries = vec![("w".to_owned(), Tensor::from_vec(vals, &[5]).unwrap())];
            let bytes = encode_entries_dtype(&entries, dtype);
            let f32_bytes = encode_entries_dtype(&entries, DType::F32);
            // same header, half the payload
            assert_eq!(bytes.len(), f32_bytes.len() - 2 * 5);
            assert_eq!(decode_entries_dtype(&bytes, dtype).unwrap(), entries);

            let mut padded = bytes.clone();
            padded.push(0);
            assert!(decode_entries_dtype(&padded, dtype).is_err());
        }
    }

    #[test]
    fn state_container_roundtrips() {
        let sections = vec![
            ("meta".to_owned(), b"hello".to_vec()),
            ("empty".to_owned(), Vec::new()),
            ("model".to_owned(), vec![0u8; 1000]),
        ];
        let path = tmp("state_rt");
        save_state(&path, &sections).unwrap();
        assert_eq!(load_state(&path).unwrap(), sections);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn state_container_rejects_corruption() {
        let sections = vec![("meta".to_owned(), b"payload bytes".to_vec())];
        let good = encode_state(&sections);

        // every single-byte flip must be caught by the checksum (or the
        // magic check), never silently accepted
        for pos in 0..good.len() {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            let err = decode_state(&bad).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "flip at {pos} gave {err}"
            );
        }
        // truncation at every prefix length errors rather than panicking
        for len in 0..good.len() {
            assert!(decode_state(&good[..len]).is_err(), "prefix {len} accepted");
        }
    }
}
