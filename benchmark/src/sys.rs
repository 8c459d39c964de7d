//! What the harness reads from the operating system: the process's peak
//! resident set, a thread's on-CPU time, and the core count.

/// Peak resident set of this process in bytes (`VmHWM` in
/// `/proc/self/status`); 0 where procfs is missing.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Nanoseconds the calling thread has spent on a CPU (first field of
/// `/proc/thread-self/schedstat`); `None` where procfs is missing.
pub fn thread_cpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// Cores available to this process (1 when unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
