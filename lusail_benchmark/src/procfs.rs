//! Process-level counters read from `/proc/self`.

/// Linux reports process times in clock ticks of 1/100 s (`USER_HZ`).
const MS_PER_TICK: f64 = 10.0;

/// User plus system CPU time of this process so far, in milliseconds
/// (0.0 where `/proc` is unavailable).
pub fn cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| parse_cpu_ticks(&stat))
        .map_or(0.0, |ticks| ticks as f64 * MS_PER_TICK)
}

/// `utime + stime` are the 14th and 15th fields; the 2nd (the command
/// name) may itself contain spaces, so count from its closing paren.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) in MiB (0.0 where unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vm_hwm_kb(&status))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_formats() {
        let stat = "4242 (lusail bench) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100";
        assert_eq!(parse_cpu_ticks(stat), Some(300));
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }
}
