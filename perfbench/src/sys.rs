//! Process-level readings: CPU time and resident memory.

/// `struct timeval` as Linux lays it out on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    _rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds of this process, all threads included
/// (joined ones too), at microsecond resolution.
pub fn cpu_s() -> f64 {
    let mut u = RUsage::default();
    // SAFETY: `u` is a valid, writable `struct rusage` (the layout above
    // matches the C definition on 64-bit Linux) that outlives the call,
    // and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let tv = |t: &TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
    tv(&u.utime) + tv(&u.stime)
}

/// A `/proc/self/status` field in KiB (`VmRSS`, `VmHWM`).
///
/// # Panics
/// Panics when procfs does not report the field: the benchmark's memory
/// metrics cannot be measured without it.
pub fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}
