//! What the host is, and what its threads did: the host stamp every
//! result carries, per-thread CPU time from `/proc/self/task/*/schedstat`
//! and the peak resident set.

use std::collections::BTreeMap;
use std::fs;

/// The machine a result was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// First `model name` in `/proc/cpuinfo`.
    pub cpu: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// The three load averages of `/proc/loadavg` when the run started.
    pub loadavg: String,
}

impl Host {
    /// Read the stamp now.
    pub fn stamp() -> Self {
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        let loadavg = fs::read_to_string("/proc/loadavg")
            .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
            .unwrap_or_else(|_| "unknown".into());
        Self {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            kernel,
            loadavg,
        }
    }

    /// One line, `key=value` pairs.
    pub fn line(&self) -> String {
        format!(
            "host parallelism={} cpu=\"{}\" kernel={} loadavg=\"{}\"",
            self.parallelism, self.cpu, self.kernel, self.loadavg
        )
    }
}

/// CPU accounting of one thread.
#[derive(Debug, Clone)]
pub struct ThreadCpu {
    /// Thread name (`comm`).
    pub name: String,
    /// ns on a CPU.
    pub on_cpu_ns: u64,
    /// ns runnable but waiting for a CPU.
    pub runq_ns: u64,
}

/// Every thread of this process, by tid.
pub fn threads() -> BTreeMap<u64, ThreadCpu> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let (Ok(name), Ok(stat)) = (
            fs::read_to_string(path.join("comm")),
            fs::read_to_string(path.join("schedstat")),
        ) else {
            continue;
        };
        let mut f = stat.split_whitespace().map(|v| v.parse().unwrap_or(0));
        let (on_cpu_ns, runq_ns) = (f.next().unwrap_or(0), f.next().unwrap_or(0));
        out.insert(
            tid,
            ThreadCpu {
                name: name.trim().to_string(),
                on_cpu_ns,
                runq_ns,
            },
        );
    }
    out
}

/// Busy and run-queue fractions of a thread group over a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupCpu {
    /// Threads in the group.
    pub threads: usize,
    /// Mean over the group of on-CPU time / wall time.
    pub busy_frac: f64,
    /// Mean over the group of run-queue time / wall time.
    pub runq_frac: f64,
}

/// CPU use of the threads whose name starts with `prefix`, between two
/// [`threads`] snapshots taken `wall_ns` apart. A thread born inside the
/// window counts from zero.
pub fn group(
    before: &BTreeMap<u64, ThreadCpu>,
    after: &BTreeMap<u64, ThreadCpu>,
    prefix: &str,
    wall_ns: u64,
) -> GroupCpu {
    let mut g = GroupCpu::default();
    let (mut busy, mut runq) = (0u64, 0u64);
    for (tid, t) in after.iter().filter(|(_, t)| t.name.starts_with(prefix)) {
        let (b0, r0) = before
            .get(tid)
            .filter(|b| b.name == t.name)
            .map_or((0, 0), |b| (b.on_cpu_ns, b.runq_ns));
        busy += t.on_cpu_ns.saturating_sub(b0);
        runq += t.runq_ns.saturating_sub(r0);
        g.threads += 1;
    }
    if g.threads > 0 && wall_ns > 0 {
        let denom = (g.threads as u64 * wall_ns) as f64;
        g.busy_frac = busy as f64 / denom;
        g.runq_frac = runq as f64 / denom;
    }
    g
}

/// Host-wide CPU time in `/proc/stat` ticks: (all states, steal). Steal
/// is time the hypervisor gave this machine's CPUs to someone else.
pub fn cpu_ticks() -> (u64, u64) {
    let line = fs::read_to_string("/proc/stat").ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with("cpu "))
            .map(str::to_string)
    });
    let fields: Vec<u64> = line
        .iter()
        .flat_map(|l| l.split_whitespace().skip(1))
        .map(|v| v.parse().unwrap_or(0))
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// Share of CPU time stolen by the hypervisor between two [`cpu_ticks`]
/// readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.0.saturating_sub(before.0);
    if total == 0 {
        return 0.0;
    }
    after.1.saturating_sub(before.1) as f64 / total as f64
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs this process may run on (`Cpus_allowed_list`), in order.
pub fn allowed_cpus() -> Vec<usize> {
    let list = fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Cpus_allowed_list:"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_default();
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Restrict thread `tid` of this process (0: the calling thread) to the
/// CPUs in `cpus`.
///
/// The one `unsafe` block of the benchmark: std has no per-thread
/// affinity call, and unpinned runs on a two-CPU host flip between
/// thread placements that differ twofold in speed.
#[allow(unsafe_code)]
pub fn pin(tid: u64, cpus: &[usize]) -> std::io::Result<()> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    for &cpu in cpus {
        let word = mask
            .get_mut(cpu / 64)
            .ok_or_else(|| std::io::Error::other(format!("cpu {cpu} out of range")))?;
        *word |= 1 << (cpu % 64);
    }
    let tid = i32::try_from(tid).map_err(std::io::Error::other)?;
    // SAFETY: `mask` is an initialised array that outlives the call, and
    // the size passed is its exact size in bytes; the kernel only reads it.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Where the benchmark's threads run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// The serve thread's CPU: the first allowed one.
    pub server: usize,
    /// The load generator's CPU: the second allowed one.
    pub client: usize,
    /// The engine's shard and merger threads: the allowed CPUs beyond the
    /// first two, or every allowed CPU when there are only two.
    pub engine: Vec<usize>,
}

/// The serve thread and the load generator each get a CPU of their own,
/// so every run places them alike: left to itself the kernel sometimes
/// wakes the client on the server's CPU, and ping-pong then runs at less
/// than half speed for the whole run. `None` with fewer than two CPUs.
pub fn placement() -> Option<Placement> {
    let cpus = allowed_cpus();
    match cpus[..] {
        [server, client, ref rest @ ..] => Some(Placement {
            server,
            client,
            engine: if rest.is_empty() {
                cpus.clone()
            } else {
                rest.to_vec()
            },
        }),
        _ => None,
    }
}

/// Pin the calling thread to `cpu`.
pub fn pin_self(cpu: usize) -> std::io::Result<()> {
    pin(0, &[cpu])
}

/// Pin every thread whose name starts with `prefix` to `cpus`; describes
/// the outcome.
pub fn pin_named(prefix: &str, cpus: &[usize]) -> String {
    let outcomes: Vec<String> = threads()
        .into_iter()
        .filter(|(_, t)| t.name.starts_with(prefix))
        .map(|(tid, t)| match pin(tid, cpus) {
            Ok(()) => format!("{} on cpus {cpus:?}", t.name),
            Err(e) => format!("{} not pinned: {e}", t.name),
        })
        .collect();
    outcomes.join(", ")
}
