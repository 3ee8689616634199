//! REXGGUF — a GGUF-flavoured single-file model export format.
//!
//! Training snapshots (`REXSTATE1`) are resume-oriented: they carry
//! optimizer moments, RNG streams, and trace cursors, and their tensor
//! payloads sit wherever the section container puts them. This module is
//! the *inference-oriented* counterpart: one mmap-friendly file holding
//! only the model tensors, each payload aligned to [`ALIGN`] bytes so a
//! reader can map the file and point SIMD kernels straight at the data —
//! no copy, no decode pass for the f32/f16 cases, and block-quantized
//! [`Q8_0`](DType::Q80) payloads laid out exactly as the quantized GEMM
//! microkernel consumes them (all block scales, then all quants).
//!
//! ## Layout
//!
//! ```text
//! magic    b"REXGGUF\0"
//! u32      version (= 1)
//! u32      tensor count
//! u32      metadata count
//! meta     count × (u32 klen, key, u32 vlen, value)      UTF-8 strings
//! index    count × (u32 nlen, name, u8 dtype tag, u32 ndim,
//!                   ndim × u64 dims, u64 offset, u64 nbytes)
//! pad      zero bytes to the next 32-byte boundary
//! data     payloads, each starting at offset (relative to the start of
//!          the data section, itself 32-byte aligned from byte 0)
//! ```
//!
//! All integers are little-endian. Tensor `offset`s are relative to the
//! data section and always multiples of [`ALIGN`]; inter-payload gaps are
//! zero-filled. Dtype tags: 0 = f32, 1 = f16, 2 = bf16, 3 = q8_0.
//!
//! ## Quantization policy
//!
//! [`write_export`] narrows every tensor to the requested `quant` format
//! with one exception: under `q8_0`, tensors with fewer than two
//! dimensions (biases, norm scales/shifts) stay `f32`. They are a
//! negligible fraction of the bytes and disproportionately sensitive to
//! quantization error — the same policy mainstream GGUF exporters use.

use std::io::{self, Write};
use std::path::Path;

use rex_tensor::storage::Storage;
use rex_tensor::{DType, Tensor};

use crate::bytes::{invalid, ByteReader};

/// File magic, 8 bytes at offset zero.
pub const MAGIC: &[u8; 8] = b"REXGGUF\0";
/// Current format version.
pub const VERSION: u32 = 1;
/// Payload alignment in bytes. 32 covers every vector width the SIMD
/// backend dispatches (AVX-512 included) so mapped payloads can feed
/// aligned loads directly.
pub const ALIGN: usize = 32;

/// Cap on tensor/metadata counts and name/value lengths while parsing:
/// a header claiming more is corrupt (`InvalidData`), not truncated.
const SANE_MAX: usize = 1 << 20;

/// One entry of the tensor index.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportEntry {
    /// Tensor name (the snapshot's parameter name).
    pub name: String,
    /// Storage format of the payload.
    pub dtype: DType,
    /// Logical shape.
    pub dims: Vec<usize>,
    /// Payload start, relative to the data section; multiple of [`ALIGN`].
    pub offset: u64,
    /// Exact payload length in bytes.
    pub nbytes: u64,
}

impl ExportEntry {
    /// Logical element count (product of `dims`).
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A parsed REXGGUF file: header, metadata, index, and the raw data
/// section held in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportFile {
    /// Format version of the file read.
    pub version: u32,
    /// Key/value metadata in file order (e.g. `source`, `dtype`,
    /// `backend`, `simd_level`).
    pub meta: Vec<(String, String)>,
    /// Tensor index in file order.
    pub tensors: Vec<ExportEntry>,
    /// The data section (everything after the aligned header).
    data: Vec<u8>,
}

fn tag_of(dtype: DType) -> u8 {
    match dtype {
        DType::F32 => 0,
        DType::F16 => 1,
        DType::Bf16 => 2,
        DType::Q80 => 3,
    }
}

fn dtype_of(tag: u8) -> Option<DType> {
    Some(match tag {
        0 => DType::F32,
        1 => DType::F16,
        2 => DType::Bf16,
        3 => DType::Q80,
        _ => return None,
    })
}

/// The storage format a tensor of `shape` gets under the requested
/// export `quant` (sub-2-D tensors stay f32 under `q8_0`; see the module
/// docs).
pub fn storage_dtype_for(quant: DType, shape: &[usize]) -> DType {
    if quant == DType::Q80 && shape.len() < 2 {
        DType::F32
    } else {
        quant
    }
}

/// Serializes `entries` into the REXGGUF format, narrowing payloads to
/// `quant` (per [`storage_dtype_for`]). `meta` is written verbatim, in
/// order. Returns the total bytes written.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_export(
    w: &mut impl Write,
    entries: &[(String, Tensor)],
    quant: DType,
    meta: &[(String, String)],
) -> io::Result<u64> {
    // Narrow every payload first so the index offsets are exact.
    let payloads: Vec<Vec<u8>> = entries
        .iter()
        .map(|(_, t)| {
            Storage::from_f32(storage_dtype_for(quant, t.shape()), t.data()).to_le_bytes()
        })
        .collect();

    let mut header = Vec::new();
    header.extend_from_slice(MAGIC);
    put_u32(&mut header, VERSION);
    put_u32(&mut header, entries.len() as u32);
    put_u32(&mut header, meta.len() as u32);
    for (k, v) in meta {
        put_str(&mut header, k);
        put_str(&mut header, v);
    }
    let mut offset = 0u64;
    for ((name, t), payload) in entries.iter().zip(&payloads) {
        put_str(&mut header, name);
        header.push(tag_of(storage_dtype_for(quant, t.shape())));
        put_u32(&mut header, t.shape().len() as u32);
        for &d in t.shape() {
            header.extend_from_slice(&(d as u64).to_le_bytes());
        }
        header.extend_from_slice(&offset.to_le_bytes());
        header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        offset = align_up(offset + payload.len() as u64);
    }
    // Pad the header to the data-section boundary, then emit payloads at
    // their aligned offsets.
    let data_start = align_up(header.len() as u64);
    header.resize(data_start as usize, 0);
    w.write_all(&header)?;
    let mut written = 0u64;
    for payload in &payloads {
        w.write_all(payload)?;
        written += payload.len() as u64;
        let aligned = align_up(written);
        w.write_all(&vec![0u8; (aligned - written) as usize])?;
        written = aligned;
    }
    Ok(data_start + written)
}

/// Writes `entries` to `path` (truncating) and returns the file size.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn export_to_path(
    path: &Path,
    entries: &[(String, Tensor)],
    quant: DType,
    meta: &[(String, String)],
) -> io::Result<u64> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    let n = write_export(&mut f, entries, quant, meta)?;
    f.flush()?;
    Ok(n)
}

impl ExportFile {
    /// Parses a REXGGUF image from memory.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the header is cut short; `InvalidData` on a
    /// bad magic, unknown version or dtype tag, malformed strings, an
    /// implausible count, or an index entry whose payload lies outside
    /// the data section or disagrees with its dtype and shape (checked
    /// element and byte counts, so overflowing dims are refused).
    pub fn parse(bytes: &[u8]) -> io::Result<ExportFile> {
        let mut r = ByteReader::new(bytes);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(invalid("not a REXGGUF file (bad magic)"));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(invalid(format!(
                "unsupported REXGGUF version {version} (expected {VERSION})"
            )));
        }
        let n_tensors = r.u32()? as usize;
        let n_meta = r.u32()? as usize;
        if n_tensors > SANE_MAX || n_meta > SANE_MAX {
            return Err(invalid("implausible header counts"));
        }
        // a metadata pair is at least its two length prefixes
        let mut meta = r.vec_for(n_meta, 8);
        for _ in 0..n_meta {
            let k = r.string(SANE_MAX)?;
            let v = r.string(SANE_MAX)?;
            meta.push((k, v));
        }
        // an index entry is at least name length, tag, ndim, offset, nbytes
        let mut tensors = r.vec_for(n_tensors, 25);
        for _ in 0..n_tensors {
            let name = r.string(SANE_MAX)?;
            let tag = r.u8()?;
            let dtype = dtype_of(tag)
                .ok_or_else(|| invalid(format!("unknown dtype tag {tag} for {name:?}")))?;
            let ndim = r.u32()? as usize;
            if ndim > 8 {
                return Err(invalid(format!("implausible ndim {ndim} for {name:?}")));
            }
            let dims = (0..ndim)
                .map(|_| r.len_u64())
                .collect::<io::Result<Vec<_>>>()?;
            let offset = r.u64()?;
            let nbytes = r.u64()?;
            tensors.push(ExportEntry {
                name,
                dtype,
                dims,
                offset,
                nbytes,
            });
        }
        let pad = align_up(r.position() as u64) as usize - r.position();
        r.take(pad)
            .map_err(|_| invalid("file truncated before the data section"))?;
        let data = r.rest().to_vec();
        for e in &tensors {
            if e.offset % ALIGN as u64 != 0 {
                return Err(invalid(format!("misaligned payload for {:?}", e.name)));
            }
            let end = e
                .offset
                .checked_add(e.nbytes)
                .ok_or_else(|| invalid("offset overflow"))?;
            if end > data.len() as u64 {
                return Err(invalid(format!(
                    "payload of {:?} extends past the end of the file",
                    e.name
                )));
            }
            // checked: dims whose element or byte count overflows describe
            // no tensor at all
            let expected = e
                .dims
                .iter()
                .try_fold(1usize, |n, &d| n.checked_mul(d))
                .and_then(|n| e.dtype.checked_nbytes(n));
            if expected.map(|n| n as u64) != Some(e.nbytes) {
                return Err(invalid(format!(
                    "payload size of {:?} does not match its dtype and shape",
                    e.name
                )));
            }
        }
        Ok(ExportFile {
            version,
            meta,
            tensors,
            data,
        })
    }

    /// Reads and parses `path`.
    ///
    /// # Errors
    ///
    /// Filesystem errors, plus everything [`parse`](Self::parse) rejects.
    pub fn read(path: &Path) -> io::Result<ExportFile> {
        ExportFile::parse(&std::fs::read(path)?)
    }

    /// Looks up a metadata value by key (first match).
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Looks up a tensor entry by name.
    pub fn entry(&self, name: &str) -> Option<&ExportEntry> {
        self.tensors.iter().find(|e| e.name == name)
    }

    /// The raw (still-encoded) payload bytes of an entry.
    pub fn payload(&self, entry: &ExportEntry) -> &[u8] {
        &self.data[entry.offset as usize..(entry.offset + entry.nbytes) as usize]
    }

    /// Decodes an entry's payload into its [`Storage`] form.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the payload length disagrees with the entry
    /// (cannot happen on a file accepted by [`parse`](Self::parse)).
    pub fn storage(&self, entry: &ExportEntry) -> io::Result<Storage> {
        Storage::from_le_bytes(entry.dtype, entry.len(), self.payload(entry))
            .ok_or_else(|| invalid(format!("corrupt payload for {:?}", entry.name)))
    }

    /// Decodes an entry into an f32 [`Tensor`] (widening / dequantizing).
    ///
    /// # Errors
    ///
    /// As [`storage`](Self::storage), plus an invalid shape.
    pub fn tensor(&self, entry: &ExportEntry) -> io::Result<Tensor> {
        Tensor::from_vec(self.storage(entry)?.to_f32(), &entry.dims)
            .map_err(|e| invalid(format!("bad shape for {:?}: {e}", entry.name)))
    }
}

fn align_up(n: u64) -> u64 {
    n.div_ceil(ALIGN as u64) * ALIGN as u64
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_tensor::Prng;

    fn sample_entries() -> Vec<(String, Tensor)> {
        let mut rng = Prng::new(0xE4);
        vec![
            (
                "layer0.weight".to_owned(),
                rng.normal_tensor(&[24, 144], 0.0, 0.3),
            ),
            ("layer0.bias".to_owned(), rng.normal_tensor(&[24], 0.0, 0.1)),
            (
                "layer1.weight".to_owned(),
                rng.normal_tensor(&[10, 24], 0.0, 0.3),
            ),
            ("layer1.bias".to_owned(), rng.normal_tensor(&[10], 0.0, 0.1)),
        ]
    }

    fn roundtrip(quant: DType) -> (Vec<(String, Tensor)>, ExportFile, u64) {
        let entries = sample_entries();
        let meta = vec![
            ("source".to_owned(), "unit-test".to_owned()),
            ("quant".to_owned(), quant.name().to_owned()),
        ];
        let mut buf = Vec::new();
        let n = write_export(&mut buf, &entries, quant, &meta).unwrap();
        assert_eq!(n as usize, buf.len());
        let file = ExportFile::parse(&buf).unwrap();
        (entries, file, n)
    }

    #[test]
    fn f32_export_round_trips_exactly() {
        let (entries, file, _) = roundtrip(DType::F32);
        assert_eq!(file.version, VERSION);
        assert_eq!(file.meta_value("source"), Some("unit-test"));
        assert_eq!(file.tensors.len(), entries.len());
        for (name, t) in &entries {
            let e = file.entry(name).unwrap();
            assert_eq!(e.dtype, DType::F32);
            assert_eq!(e.dims, t.shape());
            assert_eq!(e.offset % ALIGN as u64, 0);
            assert_eq!(file.tensor(e).unwrap().data(), t.data());
        }
    }

    #[test]
    fn q8_0_keeps_one_dim_tensors_f32_and_bounds_error() {
        let (entries, file, q_size) = roundtrip(DType::Q80);
        for (name, t) in &entries {
            let e = file.entry(name).unwrap();
            if t.shape().len() < 2 {
                assert_eq!(e.dtype, DType::F32, "{name} should stay f32");
                assert_eq!(file.tensor(e).unwrap().data(), t.data());
            } else {
                assert_eq!(e.dtype, DType::Q80);
                let back = file.tensor(e).unwrap();
                let max_abs = t.data().iter().fold(0f32, |m, x| m.max(x.abs()));
                // per-block bound is scale/2 ≤ max|block|/254; the global
                // max is a safe (loose) version of it
                let bound = max_abs / 254.0 + 1e-6;
                for (a, b) in t.data().iter().zip(back.data()) {
                    assert!((a - b).abs() <= bound, "{name}: {a} vs {b}");
                }
            }
        }
        let (_, _, f_size) = roundtrip(DType::F32);
        assert!(
            (q_size as f64) < 0.45 * f_size as f64,
            "q8_0 file ({q_size} B) should be well under half the f32 file ({f_size} B)"
        );
    }

    #[test]
    fn f16_export_halves_payload_bytes() {
        let (entries, file, _) = roundtrip(DType::F16);
        for (name, t) in &entries {
            let e = file.entry(name).unwrap();
            assert_eq!(e.dtype, DType::F16);
            assert_eq!(e.nbytes as usize, 2 * t.data().len());
        }
    }

    #[test]
    fn corrupt_files_are_rejected_with_invalid_data() {
        let (_, _, _) = roundtrip(DType::F32);
        let mut buf = Vec::new();
        write_export(&mut buf, &sample_entries(), DType::F32, &[]).unwrap();

        // bad magic
        let mut bad_magic = buf.clone();
        bad_magic[0] ^= 0xFF;
        assert!(ExportFile::parse(&bad_magic).is_err());

        // bad version
        let mut bad_version = buf.clone();
        bad_version[8] = 99;
        assert!(ExportFile::parse(&bad_version).is_err());

        // truncated data section (cut past the trailing alignment pad,
        // into the final payload)
        let short = &buf[..buf.len() - 64];
        let err = ExportFile::parse(short).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // empty input
        assert!(ExportFile::parse(&[]).is_err());
    }

    #[test]
    fn empty_model_exports_and_parses() {
        let mut buf = Vec::new();
        write_export(&mut buf, &[], DType::F32, &[]).unwrap();
        let file = ExportFile::parse(&buf).unwrap();
        assert!(file.tensors.is_empty() && file.meta.is_empty());
    }
}
