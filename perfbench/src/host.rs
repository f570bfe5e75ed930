//! The benchmark's view of the machine it runs on: precise timers for
//! every thread of the run, and the CPU steal the hypervisor reports in
//! `/proc/stat`.

/// Linux `PR_SET_TIMERSLACK` (`<linux/prctl.h>`).
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// Sets the calling thread's timer slack, which threads it spawns later
/// inherit, to 1 ns. The default slack of 50 µs lets the kernel wake a
/// timed sleep up to 50 µs late to batch it with other timers: the
/// generator would send each step late by as much, and a 150 µs modelled
/// sync would last anywhere up to 200 µs, depending on the other timers
/// on the machine.
pub fn precise_timers() -> Result<(), String> {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches no
    // memory of the caller.
    match unsafe { prctl(PR_SET_TIMERSLACK, 1u64) } {
        0 => Ok(()),
        _ => Err("could not set the timer slack".into()),
    }
}

/// Cumulative CPU time of the whole machine, in `/proc/stat` ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ticks {
    /// Time the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
    pub total: u64,
}

impl Ticks {
    /// The aggregate `cpu` line of `/proc/stat`, or zeros where there is
    /// none (steal then reads as 0).
    pub fn now() -> Ticks {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| Ticks::parse(s.lines().next()?))
            .unwrap_or_default()
    }

    fn parse(line: &str) -> Option<Ticks> {
        let mut fields = line.split_whitespace();
        if fields.next()? != "cpu" {
            return None;
        }
        // user nice system idle iowait irq softirq steal; guest time is
        // already counted in user and nice.
        let v: Vec<u64> = fields
            .take(8)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        (v.len() == 8).then(|| Ticks {
            steal: v[7],
            total: v.iter().sum(),
        })
    }

    /// Share of the CPU time between `earlier` and `self` that was stolen.
    pub fn steal_since(&self, earlier: &Ticks) -> f64 {
        match self.total.saturating_sub(earlier.total) {
            0 => 0.0,
            total => self.steal.saturating_sub(earlier.steal) as f64 / total as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_a_share_of_all_cpu_time() {
        let a = Ticks::parse("cpu  100 0 50 800 5 0 5 40 0 0").unwrap();
        assert_eq!((a.steal, a.total), (40, 1000));
        let b = Ticks::parse("cpu  160 0 70 880 5 0 5 80 7 0").unwrap();
        assert!((b.steal_since(&a) - 0.2).abs() < 1e-12);
        assert_eq!(a.steal_since(&a), 0.0);
        assert!(Ticks::parse("cpu0 1 2 3 4 5 6 7 8").is_none());
    }
}
