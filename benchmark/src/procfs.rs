//! Process CPU time and peak memory from `/proc/self`.

use std::time::Duration;

/// `USER_HZ`: the unit of the `utime`/`stime` fields. The Linux
/// userspace ABI fixes it at 100 on every mainstream architecture, and
/// `sysconf` is out of reach without a libc binding.
const TICKS_PER_SEC: u64 = 100;

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line, in
/// clock ticks. The `comm` field may itself contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(value)
}

/// User + system CPU time this process (all threads, including ones
/// that already exited) has consumed.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    let ticks = parse_stat_cpu_ticks(&stat).expect("parsing /proc/self/stat");
    Duration::from_nanos(ticks * (1_000_000_000 / TICKS_PER_SEC))
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    parse_vm_hwm_kib(&status).expect("parsing VmHWM") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_comm() {
        let line = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 150 0 0 0 \
                    37 5 0 0 20 0 3 0 12345 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(line), Some(42));
        assert_eq!(parse_stat_cpu_ticks("no parens here"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_parses_kib() {
        let status = "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(12345));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mib() > 0.0);
        let before = process_cpu();
        assert!(process_cpu() >= before);
    }
}
