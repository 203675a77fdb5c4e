//! What the kernel says about the benchmark's own threads: on-CPU time
//! and run-queue wait (`schedstat`), context switches and peak memory
//! (`status`), user/system split (`stat`) — and the affinity calls that
//! keep the two busy threads on different CPUs.

use std::fs;

/// `/proc/<pid>/task/<tid>/schedstat`: nanoseconds on a CPU, nanoseconds
/// runnable but waiting for one, timeslices run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStat {
    pub on_cpu_ns: u64,
    pub runq_wait_ns: u64,
    pub timeslices: u64,
}

pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut it = text.split_ascii_whitespace().map(str::parse::<u64>);
    Some(SchedStat {
        on_cpu_ns: it.next()?.ok()?,
        runq_wait_ns: it.next()?.ok()?,
        timeslices: it.next()?.ok()?,
    })
}

/// The fields of `/proc/<pid>[/task/<tid>]/status` the benchmark reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Status {
    pub vm_hwm_kb: u64,
    pub vol_ctxsw: u64,
    pub nonvol_ctxsw: u64,
}

pub fn parse_status(text: &str) -> Status {
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
            .and_then(|rest| rest.split_ascii_whitespace().next()?.parse().ok())
            .unwrap_or(0)
    };
    Status {
        vm_hwm_kb: field("VmHWM"),
        vol_ctxsw: field("voluntary_ctxt_switches"),
        nonvol_ctxsw: field("nonvoluntary_ctxt_switches"),
    }
}

/// `(utime, stime)` in clock ticks from a `stat` line. The command name
/// sits in parentheses and may itself hold spaces or parentheses, so the
/// fields are counted from the last `)`.
pub fn parse_stat_times(text: &str) -> Option<(u64, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    // After the name: state is field 3, utime 14, stime 15.
    let mut it = rest.split_ascii_whitespace().skip(11);
    Some((it.next()?.parse().ok()?, it.next()?.parse().ok()?))
}

fn task_file(tid: u32, name: &str) -> String {
    fs::read_to_string(format!("/proc/self/task/{tid}/{name}")).unwrap_or_default()
}

pub fn schedstat(tid: u32) -> SchedStat {
    parse_schedstat(&task_file(tid, "schedstat")).unwrap_or_default()
}

pub fn task_status(tid: u32) -> Status {
    parse_status(&task_file(tid, "status"))
}

pub fn task_times(tid: u32) -> (u64, u64) {
    parse_stat_times(&task_file(tid, "stat")).unwrap_or((0, 0))
}

/// Peak resident set of the whole process, MiB.
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_status(&text).vm_hwm_kb as f64 / 1024.0
}

/// `(tid, comm)` of every thread of this process.
pub fn threads() -> Vec<(u32, String)> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| {
            let tid: u32 = e.file_name().to_str()?.parse().ok()?;
            Some((tid, task_file(tid, "comm").trim().to_string()))
        })
        .collect()
}

/// The calling thread's kernel id: its `stat` line starts with it.
pub fn own_tid() -> u32 {
    fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    // Provided by the C library std already links; no `libc` crate here.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Nanoseconds thread `tid` of this process has spent on a CPU: the first
/// field of its `schedstat`, read through the thread's CPU-time clock.
/// The file shows what the last scheduler tick or context switch left
/// there — steps as long as a slice for a thread that never leaves its
/// CPU — and the clock brings the same counter up to the nanosecond. 0 if
/// the kernel refuses.
pub fn thread_cpu_ns(tid: u32) -> u64 {
    // The kernel's encoding of "the scheduler clock of thread `tid`":
    // `~tid << 3 | CPUCLOCK_PERTHREAD_MASK (4) | CPUCLOCK_SCHED (2)`.
    let clock = (!(tid as i32) << 3) | 6;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // the 64-bit Linux targets this crate builds for); an id that names no
    // thread makes the call fail, nothing worse.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

const MASK_WORDS: usize = 16; // 1024 CPUs

/// The CPUs this process may run on, lowest first.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread; the kernel writes at most
    // that many bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restrict thread `tid` (0 = the caller) to `cpus`. Best effort:
/// `false` when the kernel refuses.
pub fn set_affinity(tid: u32, cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        if cpu >= MASK_WORDS * 64 {
            return false;
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the byte length passed and
    // the call only reads it; `tid` is a kernel thread id of this process
    // (or 0), and a stale id makes the call fail, nothing worse.
    unsafe { sched_setaffinity(tid as i32, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_parser() {
        assert_eq!(
            parse_schedstat("1077308 54420 2\n"),
            Some(SchedStat {
                on_cpu_ns: 1_077_308,
                runq_wait_ns: 54_420,
                timeslices: 2
            })
        );
        assert_eq!(parse_schedstat("12 x 3"), None);
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn status_parser() {
        let text = "Name:\topbench\nVmPeak:\t  9000 kB\nVmHWM:\t    1436 kB\nThreads:\t2\n\
                    voluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(
            parse_status(text),
            Status {
                vm_hwm_kb: 1436,
                vol_ctxsw: 17,
                nonvol_ctxsw: 3
            }
        );
        // `voluntary_…` must not match the `nonvoluntary_…` line.
        let only_nonvol = "nonvoluntary_ctxt_switches:\t9\n";
        assert_eq!(parse_status(only_nonvol).vol_ctxsw, 0);
        assert_eq!(parse_status(only_nonvol).nonvol_ctxsw, 9);
    }

    #[test]
    fn stat_parser_survives_hostile_names() {
        let line = "1234 (off) load-0 (x)) R 1 2 3 4 5 6 7 8 9 10 111 222 13 14";
        assert_eq!(parse_stat_times(line), Some((111, 222)));
        assert_eq!(parse_stat_times("1 (x) R 1 2"), None);
    }

    #[test]
    fn thread_cpu_clock_runs_while_the_thread_does() {
        let tid = own_tid();
        let a = thread_cpu_ns(tid);
        let t = std::time::Instant::now();
        while t.elapsed() < std::time::Duration::from_millis(2) {
            std::hint::spin_loop();
        }
        let b = thread_cpu_ns(tid);
        assert!(a > 0 && b > a, "{a} {b}");
        // Within a tick of the file's view of the same counter.
        let file = schedstat(tid).on_cpu_ns;
        assert!(file.abs_diff(b) < 50_000_000, "{file} {b}");
        assert_eq!(thread_cpu_ns(u32::MAX >> 4), 0);
    }

    #[test]
    fn reads_its_own_process() {
        let tid = own_tid();
        assert!(tid > 0);
        assert!(threads().iter().any(|(t, _)| *t == tid));
        assert!(peak_rss_mb() > 0.0);
        assert!(!allowed_cpus().is_empty());
    }
}
