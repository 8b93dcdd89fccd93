//! Process-level measurements: CPU time, peak resident set, and a small
//! JSON writer for the result line the runner parses.

use std::collections::HashMap;
use std::fmt::Write as _;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: user + system time of every
/// thread of the process, in nanoseconds.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `CLOCK_THREAD_CPUTIME_ID` on Linux: user + system time of the
/// calling thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_secs(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // 64-bit Linux), and the clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User + system CPU seconds consumed by this process so far.
pub fn process_cpu_secs() -> f64 {
    cpu_clock_secs(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU seconds consumed by the calling thread so far.
fn thread_cpu_secs() -> f64 {
    cpu_clock_secs(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of this process (`VmHWM`), in kilobytes.
pub fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status")
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Wall time, CPU time and work of one slice of a measured window.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Wall seconds.
    pub wall: f64,
    /// Process CPU seconds.
    pub cpu: f64,
    /// Work units the throughput is counted in (engine events, rounds).
    pub work: u64,
    /// First deliveries to the application.
    pub deliveries: u64,
    /// Turns the slice's CPU seconds into reference-host CPU seconds
    /// (from [`SpeedProbe::scale`]; 1 where no probe runs).
    pub scale: f64,
}

/// Window figures from the median slice.
#[derive(Debug, Clone, Copy)]
pub struct SliceMedians {
    /// Work per wall second.
    pub work_per_wall_s: f64,
    /// Work per reference-host CPU second.
    pub work_per_cpu_s: f64,
    /// Reference-host CPU seconds per delivery.
    pub cpu_per_delivery: f64,
}

/// Window figures at the median slice, each from the median of the
/// per-slice ratios. Contention from other tenants of the host comes in
/// bursts of a few seconds that slow every slice they cover; the median
/// over slices keeps a burst over less than half the window out of the
/// figure. Process CPU time leaves out the time the hypervisor gives the
/// vCPU to another guest (steal time), which wall time counts in full;
/// each slice's probe scale takes out the slower drift of the host's
/// speed.
pub fn median_slice(slices: &[Slice]) -> SliceMedians {
    let per_work = |secs: fn(&Slice) -> f64| -> f64 {
        let v: Vec<f64> = slices
            .iter()
            .filter(|s| s.work > 0)
            .map(|s| secs(s) / s.work as f64)
            .collect();
        1.0 / median(&v)
    };
    let per_delivery: Vec<f64> = slices
        .iter()
        .filter(|s| s.deliveries > 0)
        .map(|s| s.cpu * s.scale / s.deliveries as f64)
        .collect();
    SliceMedians {
        work_per_wall_s: per_work(|s| s.wall),
        work_per_cpu_s: per_work(|s| s.cpu * s.scale),
        cpu_per_delivery: median(&per_delivery),
    }
}

/// Prints the median probe scale of a window and its figures before
/// scaling to standard error.
pub fn log_scaling(workload: &str, slices: &[Slice]) {
    let scales: Vec<f64> = slices.iter().map(|s| s.scale).collect();
    let unscaled: Vec<Slice> = slices.iter().map(|s| Slice { scale: 1.0, ..*s }).collect();
    let raw = median_slice(&unscaled);
    eprintln!(
        "{workload}: median speed-probe scale {:.4}; unscaled: {:.1} work/CPU s, {:.4} CPU us/delivery",
        median(&scales),
        raw.work_per_cpu_s,
        raw.cpu_per_delivery * 1e6
    );
}

/// CPU seconds one run of the [`SpeedProbe`] work takes on the reference host, a
/// 2-vCPU Intel Xeon VM (median of its probes over several runs).
const REFERENCE_PROBE_CPU_S: f64 = 2.1e-3;

/// Keys in the probe's table: about 9 MB, more than a core's private
/// caches hold, so the probe feels the shared cache and memory the way
/// the simulator does.
const PROBE_KEYS: u64 = 1 << 18;

/// A fixed piece of reference work (hash-table lookups at random keys
/// and small allocations, the simulator's own mix) run after every
/// measured slice. The host's speed drifts by 10-20% over minutes as
/// other guests come and go; the probe slows with it, so a slice's CPU
/// time scaled by reference / probe time is the same work's time on
/// the reference host, and the drift cancels.
pub struct SpeedProbe {
    table: HashMap<u64, u64>,
    state: u64,
}

impl SpeedProbe {
    /// Builds the probe's table.
    pub fn new() -> Self {
        let table = (0..PROBE_KEYS).map(|i| (probe_key(i), i)).collect();
        SpeedProbe { table, state: 1 }
    }

    /// Runs the reference work once; returns its CPU seconds.
    fn run(&mut self) -> f64 {
        let started = thread_cpu_secs();
        let mut acc = 0u64;
        let mut held: Vec<Vec<u64>> = Vec::with_capacity(64);
        for i in 0..15_000u64 {
            // xorshift64: the same key sequence on every host.
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            acc = acc.wrapping_add(self.table[&probe_key(self.state % PROBE_KEYS)]);
            if i % 8 == 0 {
                held.push(vec![acc; 8]);
            }
            if held.len() == 64 {
                held.clear();
            }
        }
        std::hint::black_box(acc);
        thread_cpu_secs() - started
    }

    /// Runs the probe and returns the factor that turns CPU seconds
    /// measured next to it into reference-host CPU seconds.
    pub fn scale(&mut self) -> f64 {
        REFERENCE_PROBE_CPU_S / self.run()
    }
}

fn probe_key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Quantile `q` of sorted `values` with linear interpolation between
/// order statistics (`q = 0.5` on an even count is the median).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of nothing");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// One flat JSON object built field by field, in insertion order.
#[derive(Default)]
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        write!(self.body, "\"{key}\":").expect("write to String");
    }

    /// A number field; non-finite values are a bug in the caller.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        assert!(value.is_finite(), "{key} is not finite: {value}");
        self.key(key);
        write!(self.body, "{value:?}").expect("write to String");
        self
    }

    /// An integer field.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        write!(self.body, "{value}").expect("write to String");
        self
    }

    /// A string field (callers pass plain ASCII without quotes).
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        write!(self.body, "\"{value}\"").expect("write to String");
        self
    }

    /// A nested object field.
    pub fn obj(&mut self, key: &str, value: &JsonObject) -> &mut Self {
        self.key(key);
        self.body.push_str(&value.render());
        self
    }

    /// A `[value, "unit"]` pair, the shape of every reported metric.
    pub fn metric(&mut self, key: &str, value: f64, unit: &str) -> &mut Self {
        assert!(value.is_finite(), "{key} is not finite: {value}");
        self.key(key);
        write!(self.body, "[{value:?},\"{unit}\"]").expect("write to String");
        self
    }

    /// The object as JSON text.
    pub fn render(&self) -> String {
        format!("{{{}}}", self.body)
    }
}
