//! Thread-local scratch-buffer pool for kernel workspaces.
//!
//! The GEMM packing panels and the im2col patch matrices are large,
//! short-lived `Vec<f32>` allocations that recur with identical sizes every
//! training step. Allocating them once and recycling them turns a
//! per-step `malloc`/`memset` into a `Vec::clear` + `resize`, which the
//! allocator never sees after warm-up.
//!
//! [`PooledBuf`] is a `Vec<f32>` that returns its storage to a
//! thread-local free list on drop. Each thread owns its own pool, so no
//! locking is involved and the [`crate::kernels`] row-sharding threads
//! never contend.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Maximum number of free buffers retained per thread; beyond this,
/// dropped buffers are simply freed.
const MAX_POOLED: usize = 16;

/// Buffers larger than this (in elements, 64 Mi f32 = 256 MiB) are never
/// retained, so a one-off huge workspace cannot pin memory forever.
const MAX_RETAINED_LEN: usize = 64 * 1024 * 1024;

thread_local! {
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// A zero-filled `f32` workspace drawn from the thread-local pool.
///
/// Dereferences to `[f32]`. On drop the storage goes back to the pool
/// (bounded by `MAX_POOLED`, 16 buffers per thread).
#[derive(Debug)]
pub struct PooledBuf {
    buf: Vec<f32>,
}

impl PooledBuf {
    /// Acquires a buffer of exactly `len` elements, all zero.
    ///
    /// Reuses the pooled buffer with the largest capacity when one exists;
    /// `resize` after `clear` zero-fills only up to `len`, so a warm
    /// buffer costs one memset and no allocation.
    pub fn zeroed(len: usize) -> Self {
        let mut buf = Self::acquire(len);
        buf.clear();
        buf.resize(len, 0.0);
        PooledBuf { buf }
    }

    /// Acquires a buffer of exactly `len` elements with **unspecified**
    /// (possibly recycled) contents — no memset.
    ///
    /// For workspaces that are fully overwritten before any element is
    /// read (the SIMD GEMM packing panels), where [`PooledBuf::zeroed`]'s
    /// clear-and-fill would be pure overhead on every call.
    pub fn uninit(len: usize) -> Self {
        let mut buf = Self::acquire(len);
        if buf.len() >= len {
            buf.truncate(len);
        } else {
            buf.resize(len, 0.0);
        }
        PooledBuf { buf }
    }

    /// Pulls the best-fitting free buffer from the thread-local pool: the
    /// smallest capacity that already holds `len`, falling back to the
    /// largest buffer available (or a fresh empty `Vec`).
    fn acquire(len: usize) -> Vec<f32> {
        POOL.with_borrow_mut(|pool| {
            let mut best: Option<usize> = None;
            for (i, b) in pool.iter().enumerate() {
                let better = match best {
                    None => true,
                    Some(j) => {
                        let (bc, jc) = (b.capacity(), pool[j].capacity());
                        if jc >= len {
                            bc >= len && bc < jc
                        } else {
                            bc > jc
                        }
                    }
                };
                if better {
                    best = Some(i);
                }
            }
            best.map(|i| pool.swap_remove(i))
        })
        .unwrap_or_default()
    }

    /// Consumes the buffer without returning it to the pool, yielding the
    /// raw storage (used when a kernel result becomes tensor storage).
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.buf)
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if self.buf.capacity() == 0 || self.buf.capacity() > MAX_RETAINED_LEN {
            return;
        }
        let buf = std::mem::take(&mut self.buf);
        POOL.with_borrow_mut(|pool| {
            if pool.len() < MAX_POOLED {
                pool.push(buf);
            }
        });
    }
}

impl Clone for PooledBuf {
    fn clone(&self) -> Self {
        let mut out = PooledBuf::zeroed(self.buf.len());
        out.buf.copy_from_slice(&self.buf);
        out
    }
}

impl Deref for PooledBuf {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl PartialEq for PooledBuf {
    fn eq(&self, other: &Self) -> bool {
        self.buf == other.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_zeroed_after_reuse() {
        {
            let mut a = PooledBuf::zeroed(128);
            a[7] = 42.0;
        } // returned to pool dirty
        let b = PooledBuf::zeroed(64);
        assert!(b.iter().all(|&x| x == 0.0), "recycled buffer not zeroed");
    }

    #[test]
    fn reuse_preserves_capacity() {
        let cap = {
            let a = PooledBuf::zeroed(1000);
            a.buf.capacity()
        };
        let b = PooledBuf::zeroed(500);
        assert!(b.buf.capacity() >= 500);
        // the 1000-capacity buffer should have been recycled
        assert!(b.buf.capacity() >= cap.min(1000));
    }

    #[test]
    fn into_vec_detaches_storage() {
        let a = PooledBuf::zeroed(16);
        let v = a.into_vec();
        assert_eq!(v.len(), 16);
    }

    #[test]
    fn clone_copies_contents() {
        let mut a = PooledBuf::zeroed(8);
        a[3] = 1.5;
        let b = a.clone();
        assert_eq!(&a[..], &b[..]);
    }
}
