//! Host fingerprint, the fixed calibration loop, the process CPU clock the
//! end-to-end timings read, and the `/proc` counters the workloads read
//! (peak RSS, write syscalls, CPU ticks).

use std::hint::black_box;
use std::time::Instant;

use crate::report::median;

/// What every result records about the machine it ran on, so that a
/// change of machine is not read as a regression.
#[derive(Debug)]
pub struct Fingerprint {
    pub available_parallelism: usize,
    pub cpu_model: String,
    /// `(level+type, size)` of each cache of CPU 0, e.g. `("L1d", "48K")`.
    pub caches: Vec<(String, String)>,
    pub rustc: &'static str,
    pub calibration_ms: f64,
    /// The CPU the run is pinned to, if it is (see [`pin_to_one_cpu`]).
    pub pinned_cpu: Option<usize>,
}

impl Fingerprint {
    pub fn measure() -> Self {
        Self {
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            caches: caches(),
            rustc: env!("PERFBENCH_RUSTC"),
            calibration_ms: calibration_ms(),
            pinned_cpu: None,
        }
    }

    /// One JSON line, printed before the result line.
    pub fn json(&self) -> String {
        let caches: Vec<String> = self
            .caches
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
            .collect();
        format!(
            "{{\"host\": {{\"available_parallelism\": {}, \"cpu_model\": \"{}\", \"caches\": {{{}}}, \"rustc\": \"{}\", \"calibration_ms\": {}, \"pinned_cpu\": {}}}}}",
            self.available_parallelism,
            escape(&self.cpu_model),
            caches.join(", "),
            escape(self.rustc),
            self.calibration_ms,
            self.pinned_cpu
                .map_or_else(|| "null".to_string(), |c| c.to_string())
        )
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn caches() -> Vec<(String, String)> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |dir: &std::path::Path, f: &str| {
        std::fs::read_to_string(dir.join(f))
            .map(|s| s.trim().to_string())
            .ok()
    };
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let (Some(level), Some(kind), Some(size)) =
            (read(&dir, "level"), read(&dir, "type"), read(&dir, "size"))
        else {
            continue;
        };
        let tag = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push((format!("L{level}{tag}"), size));
    }
    out
}

/// A fixed integer loop whose time tracks the host's single-core speed:
/// the median of five timings.
pub fn calibration_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(calibration_loop(black_box(10_000_000)));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

fn calibration_loop(n: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    x
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time used so far by every thread of this process, in seconds.
///
/// The end-to-end timings read this clock, not the wall clock. On a
/// shared virtual machine the wall time of the same work moves with the
/// neighbours' load: the hypervisor takes the CPU away (steal time) and
/// the guest scheduler queues our threads behind others. A guest kernel
/// with paravirtual steal accounting leaves stolen time out of a task's
/// run time, and no clock counts the time a thread waits, so this clock
/// counts only the work the program did.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A CPU set of up to 1024 CPUs, as `cpu_set_t` lays it out.
type CpuSet = [u64; 16];

/// Pins the calling thread, and every thread it starts afterwards, to the
/// lowest-numbered CPU it may run on, and returns that CPU (`None` if the
/// affinity calls fail, when the process runs unpinned).
///
/// A pinned run does not migrate between CPUs, and every thread it starts
/// shares the one CPU, so a hand-off between threads is a context switch
/// on it. The lowest CPU is also the one a guest usually keeps the block
/// device's interrupts off, and interrupt time is charged to whichever
/// task it interrupts.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..size * 8).find(|&i| mask[i / 64] & (1 << (i % 64)) != 0)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Write syscalls this process has issued (`syscw` of `/proc/self/io`).
pub fn write_syscalls() -> u64 {
    proc_field("/proc/self/io", "syscw:").unwrap_or(0)
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// `(utime, stime)` of this process in clock ticks.
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0, 0);
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| fields.get(i).and_then(|s| s.parse().ok()).unwrap_or(0);
    (field(11), field(12))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fingerprint_is_one_json_line_and_proc_counters_read() {
        let fp = Fingerprint {
            available_parallelism: 2,
            cpu_model: "cpu \"x\"".into(),
            caches: vec![("L1d".into(), "48K".into())],
            rustc: "rustc 1.0",
            calibration_ms: 1.25,
            pinned_cpu: Some(0),
        };
        let line = fp.json();
        assert!(cenn_obs::parse_json(&line).is_ok(), "{line}");
        assert!(line.contains("\"cpu_model\": \"cpu \\\"x\\\"\""), "{line}");
        assert!(peak_rss_mb() > 0.0);
        assert!(calibration_ms() > 0.0);
    }

    #[test]
    fn the_cpu_clock_counts_this_threads_work() {
        // Other tests run beside this one, so only a lower bound holds.
        let wall = Instant::now();
        let t = cpu_s();
        black_box(calibration_loop(black_box(10_000_000)));
        let worked = cpu_s() - t;
        assert!(worked > 0.0 && worked.is_finite());
        assert!(worked >= wall.elapsed().as_secs_f64() / 50.0, "{worked}");
    }

    #[test]
    fn pinning_leaves_one_cpu_to_the_thread_and_its_children() {
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("pinned");
            let child = std::thread::spawn(|| std::thread::available_parallelism().unwrap().get());
            assert_eq!(child.join().unwrap(), 1, "pinned to CPU {cpu}");
        })
        .join()
        .unwrap();
    }
}
