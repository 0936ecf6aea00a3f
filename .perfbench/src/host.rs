//! Host-side measurement: process CPU time, peak memory, the calibration
//! loop, provenance, and the seeded unit-order permutation.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds consumed by every thread of this process so far, including
/// threads that have already exited (the lane engine's scoped pool).
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `i64` fields
    // on 64-bit Linux) that outlives the call; the clock id is a constant
    // the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU seconds of one measured call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    pub wall: f64,
    pub cpu: f64,
}

/// Runs `f`, returning its value with its wall and process-CPU cost.
pub fn measured<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let value = f();
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu0;
    (value, Cost { wall, cpu })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parse {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// Threads of this process, from `/proc/self/status`.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

/// Waits, up to a second, until this process runs only its main thread.
///
/// `run_units` and the 2-worker lane engine run on scoped threads, and a
/// scope returns as soon as their closures finish: a moment before each
/// thread exits and hands its malloc arena back. A unit started inside
/// that moment gets a fresh arena while the old one still holds its
/// memory, so peak RSS jumped by about 9 MiB in some runs of the same code
/// and not in others. A sweep in one `run_units` call never sees this; the
/// benchmark's per-unit calls would, so every unit waits here first.
pub fn await_lone_thread() {
    let deadline = Instant::now() + std::time::Duration::from_secs(1);
    while thread_count().is_some_and(|n| n > 1) && Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
}

/// Seconds taken by a fixed, benchmark-owned integer loop. It never
/// touches the simulator, so a change in it between runs is a change in
/// the host, not in the program.
pub fn calib_loop() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..200_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = black_box(x);
    }
    black_box(x);
    t0.elapsed().as_secs_f64()
}

/// The commit the sources came from, read from `.git` under `root`;
/// `"unknown"` in an exported tree that is not a git checkout.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// SplitMix64: a small deterministic generator for unit orders.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The order in which pass `pass` visits `n` units: a Fisher-Yates
/// shuffle keyed by the run's seed and the pass index. The seed only
/// reorders host work; every simulation input is fixed by the grid.
pub fn permutation(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut rng = SplitMix64(seed ^ pass.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_shuffle() {
        let a = permutation(56, 7, 0);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..56).collect::<Vec<_>>());
        assert_eq!(a, permutation(56, 7, 0));
        assert_ne!(a, permutation(56, 7, 1));
        assert_ne!(a, permutation(56, 8, 0));
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn waits_for_scoped_threads_to_exit() {
        // Other tests run on threads of their own, so only the count is
        // checked here, not that it reaches one.
        std::thread::scope(|s| {
            s.spawn(|| calib_loop());
        });
        await_lone_thread();
        assert!(thread_count().is_some_and(|n| n >= 1));
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_seconds();
        let _ = calib_loop();
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mib().expect("procfs") > 0.0);
    }
}
