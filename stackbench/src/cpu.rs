//! CPU-time clocks: the stack's CPU cost per operation is measured as
//! process plus server-children CPU time, minus what the benchmark's
//! client threads spend outside operations (generating inputs,
//! verifying reads). Stolen time (a busy hypervisor host) is not CPU
//! time, which makes this figure steadier than wall-clock ones.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time the calling thread has used.
pub(crate) fn thread_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that lives across the call, and the clock
    // id is a constant the kernel defines; the call writes only `ts`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Duration::ZERO;
    }
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// User plus system CPU seconds from a `/proc/<pid>/stat` file (0 if
/// unreadable): fields 14 and 15, counted after the parenthesised
/// command name, in clock ticks of 1/100 s.
pub(crate) fn proc_cpu_s(stat_path: &str) -> f64 {
    std::fs::read_to_string(stat_path)
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: u64 = fields.next()?.parse().ok()?;
            let stime: u64 = fields.next()?.parse().ok()?;
            Some((utime + stime) as f64 / 100.0)
        })
        .unwrap_or(0.0)
}

/// Machine-wide steal time so far, in clock ticks: time the hypervisor
/// ran something else while a virtual CPU of this machine had work (the
/// 8th value of the `cpu` line of `/proc/stat`; 0 if unavailable).
pub(crate) fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        let t0 = thread_cpu();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu() > t0);
        assert!(proc_cpu_s("/proc/self/stat") > 0.0);
    }
}
