//! Process-level readings: CPU seconds, peak resident memory, and the
//! machine description stamped into every result file.

use std::fs;

/// `USER_HZ`: the unit of the utime/stime fields of `/proc/self/stat`.
/// Linux has fixed it at 100 on every architecture this runs on.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of the whole process (all threads).
/// `None` off Linux.
pub fn cpu_secs() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The comm field may hold spaces and parentheses; split after its
    // last `)`. utime and stime are then fields 12 and 13 (0-origin).
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// Peak resident set size (`VmHWM`) in MB. `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn readings_are_present_and_sane_on_linux() {
        let before = cpu_secs().unwrap();
        let mut x = 0u64;
        for i in 0..80_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_secs().unwrap() >= before);
        assert!(peak_rss_mb().unwrap() > 0.5);
        assert!(nproc() >= 1);
        assert!(!cpu_model().is_empty());
    }
}
