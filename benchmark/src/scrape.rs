//! Parsers for what the benchmark reads from outside the daemon: its
//! STATS page and its `/proc` entries. Pure string functions.

/// The counter on the STATS-page line that starts with `label`
/// (`"  ring hits           42"` → `stat_field(page, "ring hits")`).
pub fn stat_field(page: &str, label: &str) -> Option<u64> {
    page.lines().find_map(|line| {
        let rest = line.trim_start().strip_prefix(label)?;
        // The label must end here: "remote wins" is not "remote wins foo".
        if !rest.starts_with(' ') {
            return None;
        }
        rest.trim().parse().ok()
    })
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so the
/// numbered fields are counted from the last `)`.
pub fn proc_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_ascii_whitespace();
    // `after` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `Key:   123 kB`-style number from the text of `/proc/<pid>/status`.
pub fn proc_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from `altxd` at the commit that defined the benchmark.
    const PAGE: &str = "altxd stats
  accepted            4812
  completed           4810
  shed (overloaded)   3
  sheds at admission  0
  deadline exceeded   2
  deadline misses     2
  steals              0
    lane 0 (default) depth 1
  errors              0
  reactor wakeups     9630
  shards              1
  pool recycled       17
  pool misses         1
  ring hits           4815
  ring spills         2
  launches suppressed 12
  remote wins         0
  latency us          mean 101.5  p50 96  p99 310
  wins per alternative
    trivial/instant-a  4700
";

    #[test]
    fn scrapes_counters_by_label() {
        assert_eq!(stat_field(PAGE, "accepted"), Some(4812));
        assert_eq!(stat_field(PAGE, "shed (overloaded)"), Some(3));
        assert_eq!(stat_field(PAGE, "sheds at admission"), Some(0));
        assert_eq!(stat_field(PAGE, "ring hits"), Some(4815));
        assert_eq!(stat_field(PAGE, "ring spills"), Some(2));
        assert_eq!(stat_field(PAGE, "pool misses"), Some(1));
        assert_eq!(stat_field(PAGE, "launches suppressed"), Some(12));
        assert_eq!(stat_field(PAGE, "reactor wakeups"), Some(9630));
        assert_eq!(stat_field(PAGE, "no such counter"), None);
        // A non-counter line with a matching prefix is not a number.
        assert_eq!(stat_field(PAGE, "latency us"), None);
        // A label that is only a prefix of a longer label does not match.
        assert_eq!(stat_field(PAGE, "shed"), None);
    }

    #[test]
    fn parses_proc_entries() {
        let stat = "4242 (altxd (x) y) S 1 4242 4242 0 -1 4194304 300 0 0 0 \
                    151 49 0 0 20 0 6 0 100 200 300";
        assert_eq!(proc_stat_cpu_ticks(stat), Some(200));
        let status = "Name:\taltxd\nVmHWM:\t    3716 kB\nThreads:\t6\n";
        assert_eq!(proc_status_field(status, "VmHWM"), Some(3716));
        assert_eq!(proc_status_field(status, "Threads"), Some(6));
        assert_eq!(proc_status_field(status, "VmRSS"), None);
    }
}
