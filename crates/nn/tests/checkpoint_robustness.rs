//! Adversarial-input hardening for the checkpoint formats: truncations at
//! every byte offset and targeted bit flips in the count, name and dims
//! fields of the tensor-entry codec must all surface as `InvalidData` or
//! `UnexpectedEof` — never a panic, never a multi-gigabyte allocation.
//!
//! These tests run the debug profile, so `shape.iter().product()`-style
//! arithmetic would abort on overflow if it were not checked: surviving
//! the grid proves the parser uses checked arithmetic throughout. Every
//! input is decoded in memory.

use std::io::ErrorKind;

use rex_nn::{checkpoint, Mlp, Module};
use rex_tensor::{DType, Prng, Tensor};

/// A small but structurally complete entry payload: several entries,
/// ranks 1 and 2, a multi-byte name table.
fn valid_entry_bytes() -> Vec<u8> {
    let mut rng = Prng::new(0xC0FFEE);
    let m = Mlp::new("m", &[6, 5, 3], &mut rng);
    let entries: Vec<(String, Tensor)> = m
        .params()
        .iter()
        .map(|p| (p.name(), p.value().clone()))
        .collect();
    checkpoint::encode_entries_dtype(&entries, DType::F32)
}

fn decode(bytes: &[u8]) -> std::io::Result<Vec<(String, Tensor)>> {
    checkpoint::decode_entries_dtype(bytes, DType::F32)
}

/// One entry named `w` of rank `dims.len()`, with no payload.
fn header_only_entry(dims: &[u64]) -> Vec<u8> {
    let mut bytes = 1u32.to_le_bytes().to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.push(b'w');
    bytes.extend_from_slice(&(dims.len() as u32).to_le_bytes());
    for d in dims {
        bytes.extend_from_slice(&d.to_le_bytes());
    }
    bytes
}

#[test]
fn truncation_at_every_offset_is_a_clean_error() {
    let good = valid_entry_bytes();
    assert!(decode(&good).is_ok());

    // every strict prefix: header cuts, mid-name cuts, mid-dims cuts,
    // mid-payload cuts — the grid covers all region boundaries because it
    // covers every byte
    for len in 0..good.len() {
        let err = decode(&good[..len]).unwrap_err();
        assert_eq!(
            err.kind(),
            ErrorKind::UnexpectedEof,
            "prefix of {len} bytes gave unexpected error kind {:?}: {err}",
            err.kind()
        );
    }
}

#[test]
fn flipped_magic_count_and_dims_bytes_are_clean_errors() {
    let good = valid_entry_bytes();
    // layout: count[0..4] | name_len[4..8] | name | ndim | dims… — flip
    // every byte of the first entry's header plus a sample of payload
    // bytes spread through the payload
    let mut targets: Vec<usize> = (0..32.min(good.len())).collect();
    targets.extend((32..good.len()).step_by(97));
    for pos in targets {
        for mask in [0x01u8, 0x80] {
            let mut bad = good.clone();
            bad[pos] ^= mask;
            match decode(&bad) {
                // payload-byte flips still parse (f32 data has no
                // structure to violate) — that is fine; what matters is
                // that no flip panics or kills the process
                Ok(_) => {}
                Err(err) => assert!(
                    matches!(
                        err.kind(),
                        ErrorKind::InvalidData | ErrorKind::UnexpectedEof
                    ),
                    "flip at {pos} gave unexpected error kind {:?}: {err}",
                    err.kind()
                ),
            }
        }
    }
}

#[test]
fn huge_claimed_count_does_not_overallocate() {
    // count=u32::MAX and nothing else: the parser must fail fast on the
    // cap, not reserve u32::MAX entries
    let err = decode(&u32::MAX.to_le_bytes()).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
}

#[test]
fn huge_claimed_tensor_on_truncated_file_does_not_overallocate() {
    // one entry claiming 2^29 elements (within MAX_ELEMENTS) but with no
    // payload: the bounded read must hit EOF without a 2 GiB allocation
    let err = decode(&header_only_entry(&[1 << 29])).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
}

#[test]
fn overflowing_dims_product_is_invalid_data_not_a_panic() {
    // rank-4 tensor of 2^32 × 2^32 × 2^32 × 2^32 elements: the element
    // count overflows usize; debug builds would abort on unchecked
    // multiplication
    let err = decode(&header_only_entry(&[1 << 32; 4])).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
}

#[test]
fn state_snapshot_truncation_and_flips_are_clean_errors() {
    let sections = vec![
        ("meta".to_owned(), vec![7u8; 24]),
        ("model".to_owned(), vec![1u8; 100]),
    ];
    let good = checkpoint::encode_state(&sections);
    for len in 0..good.len() {
        let err = checkpoint::decode_state(&good[..len]).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                ErrorKind::InvalidData | ErrorKind::UnexpectedEof
            ),
            "state prefix {len} gave {:?}: {err}",
            err.kind()
        );
    }
    for pos in 0..good.len() {
        let mut bad = good.clone();
        bad[pos] ^= 0x10;
        // the checksum trailer makes every flip detectable
        let err = checkpoint::decode_state(&bad).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "flip at {pos}: {err}");
    }
}
