//! Host fingerprint and `/proc` accounting: everything here is read from
//! outside the measured processes.

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`,
/// 100 on every Linux architecture this benchmark runs on).
const TICKS_PER_SEC: f64 = 100.0;

/// What a reader needs to interpret a run: the machine and its budget.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
}

impl Fingerprint {
    pub fn read() -> Fingerprint {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        Fingerprint {
            nproc,
            cpu_model,
            kernel,
        }
    }
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostCpu {
    pub total: u64,
    pub steal: u64,
}

impl HostCpu {
    pub fn read() -> HostCpu {
        let text = fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
            return HostCpu::default();
        };
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already included in user, so it is not summed.
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        HostCpu {
            total: fields.iter().sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of host CPU time stolen by the hypervisor between two samples.
    pub fn steal_share(before: HostCpu, after: HostCpu) -> f64 {
        let total = after.total.saturating_sub(before.total);
        if total == 0 {
            return 0.0;
        }
        after.steal.saturating_sub(before.steal) as f64 / total as f64
    }
}

/// CPU counters of one thread (or, for [`ProcSample::process`], of a
/// whole process including its exited threads).
#[derive(Clone, Debug, Default)]
pub struct TaskCpu {
    /// Thread name (`comm`).
    pub comm: String,
    pub utime_ticks: u64,
    pub stime_ticks: u64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
    /// On-CPU time in nanoseconds (`schedstat`), finer than the ticks.
    pub runtime_ns: u64,
}

impl TaskCpu {
    pub fn cpu_ms(&self) -> f64 {
        (self.utime_ticks + self.stime_ticks) as f64 * 1e3 / TICKS_PER_SEC
    }

    fn delta(&self, before: &TaskCpu) -> TaskCpu {
        TaskCpu {
            comm: self.comm.clone(),
            utime_ticks: self.utime_ticks.saturating_sub(before.utime_ticks),
            stime_ticks: self.stime_ticks.saturating_sub(before.stime_ticks),
            ctx_switches: self.ctx_switches.saturating_sub(before.ctx_switches),
            runtime_ns: self.runtime_ns.saturating_sub(before.runtime_ns),
        }
    }
}

/// utime and stime from a `stat` line; the command name in parentheses
/// may itself contain spaces, so fields are counted after the last `)`.
fn parse_stat(text: &str) -> Option<(String, u64, u64)> {
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let comm = text[open + 1..close].to_string();
    let rest: Vec<&str> = text[close + 1..].split_whitespace().collect();
    // rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    let utime = rest.get(11)?.parse().ok()?;
    let stime = rest.get(12)?.parse().ok()?;
    Some((comm, utime, stime))
}

fn status_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn read_task(dir: &str) -> Option<TaskCpu> {
    let (comm, utime_ticks, stime_ticks) =
        parse_stat(&fs::read_to_string(format!("{dir}/stat")).ok()?)?;
    let status = fs::read_to_string(format!("{dir}/status")).unwrap_or_default();
    let runtime_ns = fs::read_to_string(format!("{dir}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0);
    Some(TaskCpu {
        comm,
        utime_ticks,
        stime_ticks,
        ctx_switches: status_field(&status, "voluntary_ctxt_switches:")
            + status_field(&status, "nonvoluntary_ctxt_switches:"),
        runtime_ns,
    })
}

/// One process's counters at one instant: the process totals and, when
/// asked for, every live thread.
#[derive(Clone, Debug, Default)]
pub struct ProcSample {
    pub process: TaskCpu,
    pub threads: Vec<(u64, TaskCpu)>,
}

impl ProcSample {
    pub fn read(pid: u32, with_threads: bool) -> ProcSample {
        let process = read_task(&format!("/proc/{pid}")).unwrap_or_default();
        let mut threads = Vec::new();
        if with_threads {
            if let Ok(entries) = fs::read_dir(format!("/proc/{pid}/task")) {
                for entry in entries.flatten() {
                    let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                        continue;
                    };
                    if let Some(task) = read_task(&format!("/proc/{pid}/task/{tid}")) {
                        threads.push((tid, task));
                    }
                }
            }
            threads.sort_by_key(|(tid, _)| *tid);
        }
        ProcSample { process, threads }
    }

    /// Counters accrued between `before` and `self`; threads are matched
    /// by id, and a thread born inside the window counts from zero.
    pub fn delta(&self, before: &ProcSample) -> ProcSample {
        let threads = self
            .threads
            .iter()
            .map(|(tid, now)| {
                let then = before
                    .threads
                    .iter()
                    .find(|(t, _)| t == tid)
                    .map(|(_, task)| task.clone())
                    .unwrap_or_default();
                (*tid, now.delta(&then))
            })
            .collect();
        ProcSample {
            process: self.process.delta(&before.process),
            threads,
        }
    }

    /// Sum over the threads whose name starts with `prefix`.
    pub fn threads_named(&self, prefix: &str) -> TaskCpu {
        let mut sum = TaskCpu {
            comm: prefix.to_string(),
            ..TaskCpu::default()
        };
        for (_, t) in self
            .threads
            .iter()
            .filter(|(_, t)| t.comm.starts_with(prefix))
        {
            sum.utime_ticks += t.utime_ticks;
            sum.stime_ticks += t.stime_ticks;
            sum.ctx_switches += t.ctx_switches;
            sum.runtime_ns += t.runtime_ns;
        }
        sum
    }
}

/// Peak resident set (`VmHWM`) of a process, in KiB.
pub fn peak_rss_kib(pid: u32) -> u64 {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status_field(&status, "VmHWM:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "42 (asm worker) S 1 2 3 4 5 6 7 8 9 10 111 222 0 0 20 0 3";
        assert_eq!(parse_stat(line), Some(("asm worker".to_string(), 111, 222)));
    }
}
