//! The two facts the benchmark needs from the kernel: peak resident set
//! size and the filesystem type of the state directory. Both come from
//! system calls, so the benchmark reads no file outside its checkout.

use std::ffi::CString;
use std::os::raw::{c_char, c_int, c_long};
use std::path::Path;

const RUSAGE_SELF: c_int = 0;
const RUSAGE_CHILDREN: c_int = -1;

/// `struct rusage` on Linux: two `timeval`s, then fourteen `long`s, of
/// which `ru_maxrss` (kibibytes) is the first.
#[repr(C)]
struct Rusage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn statfs(path: *const c_char, buf: *mut [u64; 32]) -> c_int;
}

fn maxrss_kib(who: c_int) -> Option<f64> {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the kernel's
    // `struct rusage`; getrusage writes only within it.
    let rc = unsafe { getrusage(who, &mut usage) };
    (rc == 0).then_some(usage.maxrss as f64)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib_self() -> f64 {
    maxrss_kib(RUSAGE_SELF).unwrap_or(0.0) / 1024.0
}

/// Largest peak resident set size among this process's waited-for
/// children, in MiB. The benchmark's only children are `rexd` daemons.
pub fn peak_rss_mib_children() -> f64 {
    maxrss_kib(RUSAGE_CHILDREN).unwrap_or(0.0) / 1024.0
}

/// The filesystem type holding `path` (`ext4`, `tmpfs`, …).
pub fn fs_type(path: &Path) -> String {
    let Ok(cpath) = CString::new(path.as_os_str().as_encoded_bytes()) else {
        return "unknown".to_owned();
    };
    // `struct statfs` is 120 bytes on 64-bit Linux; the buffer is larger.
    let mut buf = [0u64; 32];
    // SAFETY: `cpath` is NUL-terminated and `buf` is writable and larger
    // than the kernel's `struct statfs`.
    if unsafe { statfs(cpath.as_ptr(), &mut buf) } != 0 {
        return "unknown".to_owned();
    }
    // `f_type` is the first field (a 64-bit word).
    match buf[0] {
        0xEF53 => "ext4".to_owned(),
        0x0102_1994 => "tmpfs".to_owned(),
        0x794C_7630 => "overlayfs".to_owned(),
        0x5846_5342 => "xfs".to_owned(),
        0x9123_683E => "btrfs".to_owned(),
        other => format!("0x{other:x}"),
    }
}
