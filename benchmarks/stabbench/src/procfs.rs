//! What the kernel says about this process: peak resident set, live
//! threads, CPU time and context switches, read from `/proc/self`.

use std::fs;

/// Kernel clock ticks per second for `/proc/*/stat` times. Linux has
/// reported `USER_HZ` = 100 to user space on every architecture since
/// 2.6, and std offers no `sysconf`.
const USER_HZ: f64 = 100.0;

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size (`VmHWM`) in MB, 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// A reading of the process's scheduler accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    /// Live threads.
    pub threads: u64,
    /// User + system CPU seconds of the whole process.
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches summed over live
    /// threads. A thread that has exited takes its count with it, so
    /// take both readings of a delta while the same threads live.
    pub ctx_switches: u64,
}

/// Read [`Sched`] now.
pub fn sched() -> Sched {
    let mut out = Sched::default();
    // Fields 14 and 15 of /proc/self/stat, counted after the command
    // name's closing parenthesis (the name may itself contain spaces).
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    if let Some((_, rest)) = stat.rsplit_once(')') {
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
        out.cpu_s = (ticks(11) + ticks(12)) / USER_HZ;
    }
    if let Ok(tasks) = fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let status = fs::read_to_string(task.path().join("status")).unwrap_or_default();
            out.threads += 1;
            out.ctx_switches += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
                + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t   12345 kB\nvoluntary_ctxt_switches:\t7\nnonvoluntary_ctxt_switches:\t2\n";
        assert_eq!(status_field(s, "VmHWM"), Some(12345));
        assert_eq!(status_field(s, "voluntary_ctxt_switches"), Some(7));
        assert_eq!(status_field(s, "Missing"), None);
    }

    #[test]
    fn live_process_reads_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        let s = sched();
        assert!(s.threads >= 1);
    }
}
