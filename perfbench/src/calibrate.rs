//! Host time at a fixed reference speed.
//!
//! On a shared machine the same code runs 10–20% faster or slower from
//! one minute to the next, and two sets of runs made a quarter of an hour
//! apart can differ by that much. A fixed CPU-bound reference task, timed
//! around and between the simulations of every pass, drifts with the
//! machine (its time correlated 0.8 with a pass's host time over sixty
//! passes), so host times are reported scaled to the speed at which the
//! reference task takes [`REFERENCE_MS`]. The task never touches the
//! program, so a change to the program moves the scaled figure exactly
//! as it moves the raw one.

use std::collections::BTreeMap;
use std::time::Duration;

/// CPU time of [`reference_ms`] at the reference speed, in ms (about its
/// time on a 2.1 GHz Intel Xeon core).
pub const REFERENCE_MS: f64 = 14.0;

/// Run the reference task once — pseudo-random numbers into a vector and
/// a B-tree, then a sort, mixing arithmetic, allocation and cache misses
/// like the simulator does — and return the CPU time it took, in ms.
pub fn reference_ms() -> f64 {
    let start = thread_cpu_time();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut map = BTreeMap::new();
    let mut values = Vec::with_capacity(1 << 18);
    for i in 0..1u64 << 18 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        values.push(x);
        if i % 4 == 0 {
            map.insert(x % 25_000, i);
        }
    }
    values.sort_unstable();
    std::hint::black_box(values.iter().step_by(7).sum::<u64>() ^ map.len() as u64);
    (thread_cpu_time() - start).as_secs_f64() * 1e3
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
}

/// Linux's clock id for the calling thread's CPU time.
const CLOCK_THREAD_CPUTIME_ID: std::os::raw::c_int = 3;

/// CPU time the calling thread has used so far. Unlike wall time it
/// leaves out the time the thread waited for a core.
pub fn thread_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `long`s on
    // Linux) that outlives the call; `clock_gettime` writes only to it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is not negative"),
        u32::try_from(ts.tv_nsec).expect("nanoseconds below one second"),
    )
}
