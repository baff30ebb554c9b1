//! What the generator reads about the child from `/proc`: CPU time and
//! peak resident set. Measured from outside, so the child needs no
//! cooperation and idle polling is counted.

use std::fs;

/// `/proc` reports CPU time in `USER_HZ` ticks, which Linux fixes at 100
/// for every userspace-visible interface.
const TICK_US: f64 = 10_000.0;

/// utime + stime of every thread the process has had, microseconds.
pub fn cpu_us(pid: u32) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split(' ');
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * TICK_US)
}

/// Resident set size in MiB: `VmRSS` (now) or `VmHWM` (the peak so far).
pub fn rss_mib(pid: u32, peak: bool) -> Option<f64> {
    let field = if peak { "VmHWM:" } else { "VmRSS:" };
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process() {
        let pid = std::process::id();
        assert!(cpu_us(pid).is_some());
        assert!(rss_mib(pid, false).unwrap() > 0.5);
        assert!(rss_mib(pid, true).unwrap() >= rss_mib(pid, false).unwrap() * 0.5);
    }
}
