//! Host-side measurement helpers: wall and CPU clocks, peak RSS, panic
//! capture, order-dependent digests, and small order statistics.

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// glibc's `M_MMAP_THRESHOLD` `mallopt` parameter.
const M_MMAP_THRESHOLD: i32 = -3;

/// Pins glibc's mmap threshold at its 128 KiB default. Left dynamic, the
/// threshold rises the first time a large block is freed. Where the
/// simulator's growing engine and frame vectors then land (mmapped and
/// grown in place, or copied inside the heap) depends on heap layout. That
/// swung `peak_rss_mb` between two values from run to run. Call before any
/// thread starts.
pub fn pin_mmap_threshold() {
    // SAFETY: `mallopt` takes two ints and only changes allocator tuning.
    // It runs before the benchmark starts any thread.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) failed");
}

/// CPU time consumed so far by every thread of this process, seconds.
#[must_use]
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on x86_64/aarch64 Linux), and CLOCK_PROCESS_CPUTIME_ID is a valid
    // clock id, so the call only writes into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A paired wall/CPU stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    /// Starts both clocks now.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// `(wall_s, cpu_s)` elapsed since `start`.
    #[must_use]
    pub fn elapsed(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            process_cpu_s() - self.cpu_s,
        )
    }
}

/// The process's resident-set high-water mark, MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Silences the default panic printout: failed operations are counted and
/// classified by the benchmark, not reported as crashes.
pub fn quiet_panics() {
    panic::set_hook(Box::new(|_| {}));
}

/// Runs `f`, turning a panic into its failure class.
pub fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        panic_class(msg).to_string()
    })
}

/// Names the failure class of a panic message. `retired_task` is the known
/// windowed-retirement defect: a dependency lookup into engine history that
/// a fixed-ms retirement window already dropped.
#[must_use]
pub fn panic_class(msg: &str) -> &'static str {
    if msg.contains("was retired") {
        "retired_task"
    } else {
        "other_panic"
    }
}

/// FNV-1a over 64-bit words: order-dependent and stable across runs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes a float in by its bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linear-interpolated percentile `q` in `[0, 1]`; 0 when empty.
#[must_use]
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; 0 when empty.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn cpu_clock_advances() {
        let t0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > t0);
    }

    #[test]
    fn panics_are_classified() {
        quiet_panics();
        let r: Result<(), String> = catch(|| panic!("task id 7 was retired"));
        assert_eq!(r.unwrap_err(), "retired_task");
        let r: Result<(), String> = catch(|| panic!("boom"));
        assert_eq!(r.unwrap_err(), "other_panic");
        assert_eq!(catch(|| 3).unwrap(), 3);
    }
}
