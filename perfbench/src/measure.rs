//! Host-side measurement: process CPU time, blocking waits, peak memory,
//! percentiles and the windowed goodput meter every workload reports
//! through.

use std::time::{Duration, Instant};

use crate::report::Outcome;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: the two CPU times, twelve `long`
/// counters this benchmark does not read, then the voluntary and
/// involuntary context switch counts.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    unread: [i64; 12],
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage() -> Rusage {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage::default();
    // SAFETY: `getrusage` writes one `struct rusage` through the pointer;
    // `usage` has that type's 64-bit Linux layout (`repr(C)`, 144 bytes),
    // is properly aligned and outlives the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage
}

/// Process CPU time (user + system, every thread including those that
/// have exited) in microseconds, from `getrusage(RUSAGE_SELF)`.
pub fn cpu_time_us() -> f64 {
    let usage = rusage();
    let us = |t: &Timeval| t.sec as f64 * 1e6 + t.usec as f64;
    us(&usage.utime) + us(&usage.stime)
}

/// Times the process has blocked so far: its voluntary context switches.
/// The load is single-threaded and never sleeps, so these are waits for
/// the disk (on `tpcc`, mostly the checkpoint `fsync`s of its shard
/// peers).
pub fn blocking_waits() -> u64 {
    rusage().nvcsw as u64
}

/// Host time one blocking wait costs on the reference host when its disk
/// is quiet, in µs: `tpcc` blocked 58–59 µs per wait (wall minus CPU time
/// over voluntary switches, two 6-s runs). On a busy shared disk the same
/// wait took up to 0.5 ms (tpcc) and 2 ms (ingest).
pub const BLOCK_REF_US: f64 = 60.0;

/// Host time at reference speed: `cpu_us` of CPU time on a core
/// `slowdown` times slower than the reference, with the workload's
/// `elasticity`, plus `waits` blocking waits at the quiet-disk cost.
fn reference_us(cpu_us: f64, waits: u64, slowdown: f64, elasticity: f64) -> f64 {
    cpu_us / slowdown.powf(elasticity) + waits as f64 * BLOCK_REF_US
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Nearest-rank quantile of an unsorted sample (`q` in 0..=1); 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Reference speed of the calibration kernel: nanoseconds per iteration
/// on an unshared core of the reference host (2-core x86-64 VM).
/// Calibrated metrics are scaled to this speed.
pub const KERNEL_REF_NS_PER_ITER: f64 = 4.6;

/// The calibration kernel: four independent 64×64→128-bit
/// multiply-accumulate chains (the shape of field arithmetic) beside
/// eight add-rotate-xor lanes (the shape of hashing). It is the
/// benchmark's own code, so no change to the stack can speed it up.
fn kernel(n: u64) -> u64 {
    let mut acc = [1u64, 2, 3, 4];
    let mut arx = [
        0x6a09_e667u32,
        0xbb67_ae85,
        0x3c6e_f372,
        0xa54f_f53a,
        0x510e_527f,
        0x9b05_688c,
        0x1f83_d9ab,
        0x5be0_cd19,
    ];
    for i in 0..n {
        for a in acc.iter_mut() {
            let p = (*a as u128) * (0x9E37_79B9_7F4A_7C15u128 + i as u128);
            *a = (p as u64) ^ ((p >> 64) as u64);
        }
        for r in 0..8 {
            arx[r] = arx[r].rotate_left(7).wrapping_add(arx[(r + 1) & 7]) ^ (i as u32);
        }
    }
    acc.iter().fold(0, |x, a| x ^ a) ^ arx.iter().fold(0u64, |x, a| x ^ *a as u64)
}

/// Run `iters` kernel iterations once; returns the wall time in µs.
fn kernel_sample_us(iters: u64) -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel(std::hint::black_box(iters)));
    t.elapsed().as_secs_f64() * 1e6
}

/// How much slower than the reference the core ran: `us` for `iters`
/// kernel iterations over the reference time.
pub fn slowdown(us: f64, iters: u64) -> f64 {
    us * 1e3 / iters as f64 / KERNEL_REF_NS_PER_ITER
}

/// One calibration sample of `iters` kernel iterations: the median time
/// of three runs of a third of them each (an interrupt that lands in one
/// run does not count), scaled back to `iters`, in µs.
fn sample_us(iters: u64) -> f64 {
    let third = (iters / 3).max(1);
    let runs: Vec<f64> = (0..3).map(|_| kernel_sample_us(third)).collect();
    median(&runs) * iters as f64 / third as f64
}

/// Iterations of one set-up calibration sample (~0.5 ms at reference).
const SETUP_KERNEL_ITERS: u64 = 100_000;

/// The slowdown right now.
pub fn current_slowdown() -> f64 {
    slowdown(sample_us(SETUP_KERNEL_ITERS), SETUP_KERNEL_ITERS)
}

/// Set-up timings: wall seconds and calibrated seconds (host time at
/// reference speed, with the slowdown measured around each set-up).
pub struct Setups {
    elasticity: f64,
    wall: Vec<f64>,
    calibrated: Vec<f64>,
}

impl Setups {
    /// Set-up timings of a workload with the given elasticity.
    pub fn new(elasticity: f64) -> Setups {
        Setups {
            elasticity,
            wall: Vec::new(),
            calibrated: Vec::new(),
        }
    }

    /// Time one set-up.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = current_slowdown();
        let (t, cpu, waits) = (Instant::now(), cpu_time_us(), blocking_waits());
        let out = f();
        let wall = t.elapsed().as_secs_f64();
        let (cpu, waits) = (cpu_time_us() - cpu, blocking_waits() - waits);
        let slowdown = (before + current_slowdown()) / 2.0;
        self.wall.push(wall);
        self.calibrated
            .push(reference_us(cpu, waits, slowdown, self.elasticity) / 1e6);
        out
    }

    /// Report the medians: `setup_s` (calibrated) and `setup_wall_s`.
    pub fn report(&self, out: &mut Outcome) {
        out.e2e("setup_s", median(&self.calibrated));
        out.e2e("setup_wall_s", median(&self.wall));
    }
}

/// How a workload is calibrated.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Kernel iterations per interleaved sample.
    pub kernel_iters: u64,
    /// How strongly the workload's CPU time follows the kernel's: the
    /// slope of log window CPU time per operation against log window
    /// slowdown, fitted over a few hundred windows per workload on the
    /// reference host. Calibrated CPU time is the measured one over
    /// `slowdown^elasticity`.
    pub elasticity: f64,
    /// The same slope for one set-up's CPU time, fitted over 42–126
    /// set-ups per workload: set-up is other work than the measured
    /// phase (key generation, deployment, population).
    pub setup_elasticity: f64,
}

/// One closed window of the meter.
struct Window {
    /// Host wall seconds the window spanned, calibration excluded.
    wall_s: f64,
    /// Process CPU microseconds spent in it, calibration excluded.
    cpu_us: f64,
    /// Blocking waits in it, untimed housekeeping excluded.
    waits: u64,
    /// Operations that completed with a correct result.
    good: u64,
    /// Time-weighted mean slowdown of the calibration samples taken in
    /// the window.
    slowdown: f64,
}

/// Splits a measured phase into windows of a fixed number of operations
/// and reports goodput and CPU per operation as medians over windows,
/// both as measured and calibrated.
///
/// On a shared host the speed a process gets swings by up to 2× for
/// seconds at a time (another tenant on the same physical core), and a
/// wait for the shared disk by up to 30×. The meter interleaves short
/// calibration samples with the operations (one per [`Meter::sample`]
/// and per [`Meter::record`]), keeps their time out of the window's wall
/// and CPU time, and scales each window's CPU time by the mean slowdown
/// its samples saw. Calibrated goodput counts a window's operations per
/// second of host time at reference speed: its calibrated CPU time plus
/// its blocking waits at [`BLOCK_REF_US`] each. The median over windows
/// drops the windows a swing split.
pub struct Meter {
    window_ops: u64,
    kernel_iters: u64,
    elasticity: f64,
    ops_in_window: u64,
    good_in_window: u64,
    window_start: Instant,
    window_cpu: f64,
    window_waits: u64,
    /// Host time inside the window spent on calibration and untimed
    /// housekeeping, kept out of its wall and CPU time.
    window_excluded_us: f64,
    /// Blocking waits inside the window during untimed housekeeping.
    window_excluded_waits: u64,
    /// Σ slowdown × host time between consecutive samples, and Σ that
    /// time: each stretch of work between two samples counts at the mean
    /// of their slowdowns.
    window_weighted: f64,
    window_weight: f64,
    last_sample: Instant,
    last_slowdown: f64,
    windows: Vec<Window>,
    phase_start: Instant,
    /// Peak RSS is read once `rss_after` operations are done: a fixed
    /// amount of work, so a faster program does not grow more state.
    rss_after: u64,
    rss_mib: Option<f64>,
    /// Every operation attempted in the phase.
    pub attempted: u64,
    /// Operations that completed with a correct result.
    pub good: u64,
}

impl Meter {
    /// Start a measured phase with windows of `window_ops` operations,
    /// calibrated as `cal` says, reading peak RSS after `rss_after`
    /// operations.
    pub fn start(window_ops: u64, rss_after: u64, cal: Calibration) -> Meter {
        let last_slowdown = slowdown(sample_us(cal.kernel_iters), cal.kernel_iters);
        let now = Instant::now();
        Meter {
            window_ops: window_ops.max(1),
            kernel_iters: cal.kernel_iters.max(1),
            elasticity: cal.elasticity,
            ops_in_window: 0,
            good_in_window: 0,
            window_start: now,
            window_cpu: cpu_time_us(),
            window_waits: blocking_waits(),
            window_excluded_us: 0.0,
            window_excluded_waits: 0,
            window_weighted: 0.0,
            window_weight: 0.0,
            last_sample: now,
            last_slowdown,
            windows: Vec::new(),
            phase_start: now,
            rss_after,
            rss_mib: None,
            attempted: 0,
            good: 0,
        }
    }

    /// Take one calibration sample.
    pub fn sample(&mut self) {
        let since = self.last_sample.elapsed().as_secs_f64();
        let start = Instant::now();
        let s = slowdown(sample_us(self.kernel_iters), self.kernel_iters);
        self.last_sample = Instant::now();
        self.window_excluded_us += self.last_sample.duration_since(start).as_secs_f64() * 1e6;
        self.window_weighted += (self.last_slowdown + s) / 2.0 * since;
        self.window_weight += since;
        self.last_slowdown = s;
    }

    /// Run `f` outside the measurement: its time counts in no window.
    pub fn untimed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (t, waits) = (Instant::now(), blocking_waits());
        let out = f();
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.window_excluded_us += us;
        self.window_excluded_waits += blocking_waits() - waits;
        self.last_sample += Duration::from_secs_f64(us / 1e6);
        out
    }

    /// Record `n` completed operations, `good` of them correct, and take
    /// one calibration sample.
    pub fn record(&mut self, n: u64, good: u64) {
        self.sample();
        self.attempted += n;
        self.good += good;
        self.ops_in_window += n;
        self.good_in_window += good;
        if self.rss_mib.is_none() && self.attempted >= self.rss_after {
            self.rss_mib = Some(peak_rss_mib());
        }
        if self.ops_in_window >= self.window_ops {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        let slowdown = if self.window_weight > 0.0 {
            self.window_weighted / self.window_weight
        } else {
            current_slowdown()
        };
        self.windows.push(Window {
            wall_s: self.window_start.elapsed().as_secs_f64() - self.window_excluded_us / 1e6,
            cpu_us: cpu_time_us() - self.window_cpu - self.window_excluded_us,
            waits: blocking_waits() - self.window_waits - self.window_excluded_waits,
            good: self.good_in_window,
            slowdown,
        });
        self.window_start = Instant::now();
        self.window_cpu = cpu_time_us();
        self.window_waits = blocking_waits();
        self.window_excluded_us = 0.0;
        self.window_excluded_waits = 0;
        self.window_weighted = 0.0;
        self.window_weight = 0.0;
        self.ops_in_window = 0;
        self.good_in_window = 0;
    }

    /// Wall time since the phase started.
    pub fn elapsed(&self) -> Duration {
        self.phase_start.elapsed()
    }

    /// The phase's slowdown: the wall-time-weighted mean over windows.
    pub fn mean_slowdown(&self) -> f64 {
        let wall: f64 = self.windows.iter().map(|w| w.wall_s).sum();
        if wall <= 0.0 {
            return current_slowdown();
        }
        self.windows
            .iter()
            .map(|w| w.slowdown * w.wall_s)
            .sum::<f64>()
            / wall
    }

    fn median_over_windows(&self, f: impl Fn(&Window) -> f64) -> f64 {
        let values: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.good > 0 && w.wall_s > 0.0)
            .map(f)
            .collect();
        median(&values)
    }

    /// Report goodput and CPU per good operation, as measured and
    /// calibrated, and peak RSS.
    pub fn report(&mut self, out: &mut Outcome) {
        // A phase too short for one full window reports its partial one.
        if self.windows.is_empty() && self.ops_in_window > 0 {
            self.close_window();
        }
        let a = self.elasticity;
        out.e2e(
            "goodput_ops_s",
            self.median_over_windows(|w| w.good as f64 / w.wall_s),
        );
        out.e2e(
            "cpu_us_per_op",
            self.median_over_windows(|w| w.cpu_us / w.good as f64),
        );
        out.e2e(
            "cal_goodput_ops_s",
            self.median_over_windows(|w| {
                w.good as f64 * 1e6 / reference_us(w.cpu_us, w.waits, w.slowdown, a)
            }),
        );
        out.e2e(
            "cal_cpu_us_per_op",
            self.median_over_windows(|w| w.cpu_us / w.good as f64 / w.slowdown.powf(a)),
        );
        out.e2e("peak_rss_mib", self.rss_mib.unwrap_or_else(peak_rss_mib));
    }
}

/// Run `f` `reps` times and return the median wall time of one call in
/// microseconds.
pub fn time_median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn process_counters_are_readable() {
        let before = cpu_time_us();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_time_us() > before, "cpu time did not advance ({x})");
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn meter_reports_window_medians() {
        let cal = Calibration {
            kernel_iters: 1_000,
            elasticity: 1.0,
            setup_elasticity: 1.0,
        };
        let mut m = Meter::start(2, 3, cal);
        for _ in 0..6 {
            std::thread::sleep(Duration::from_millis(1));
            m.record(1, 1);
        }
        assert_eq!(m.windows.len(), 3);
        assert_eq!((m.attempted, m.good), (6, 6));
        let mut out = Outcome::new("views");
        m.report(&mut out);
        let goodput = out.e2e["goodput_ops_s"];
        assert!(goodput > 0.0 && goodput < 2_000.0, "{goodput}");
        assert!(out.e2e["cal_goodput_ops_s"] > 0.0);
        assert!(out.e2e["peak_rss_mib"] > 0.0);
    }

    #[test]
    fn calibration_kernel_takes_measurable_time() {
        let k = kernel_sample_us(100_000);
        assert!(k > 10.0 && k < 1e6, "kernel sample {k} µs");
        assert!(current_slowdown() > 0.1);
    }
}
