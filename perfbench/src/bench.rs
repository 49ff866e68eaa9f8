//! The harness every workload runs under: command line, timed rounds,
//! output checks, the digest of simulated outputs, and the result line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["search_vgg16", "serve_day", "serve_faults", "eval_sweep"];

/// The gated end-to-end metrics (`BENCHMARK.json`'s `end_to_end`), with
/// units. Every workload has two arms, `a` and `b`; `Arm` maps each to
/// the workload-specific figure it stands for.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_heap_mib", "MiB"),
    ("ops_per_ref_s.a", "1/ref_s"),
    ("ops_per_ref_s.b", "1/ref_s"),
    ("sim_quality.a", "ratio"),
    ("sim_quality.b", "ratio"),
];

/// The per-layer metrics of a traced run (`BENCHMARK.json`'s
/// `per_layer`). Every traced run reports all of them; a layer the
/// workload never calls reads 0. Times are seconds per round of the
/// workload (per search on `search_vgg16`).
const PER_LAYER: [(&str, &str); 50] = [
    ("rl.train_s.lanes1", "s"),
    ("rl.train_s.lanes8", "s"),
    ("rl.train_calls.lanes1", "count"),
    ("rl.train_calls.lanes8", "count"),
    ("rl.act_s.lanes1", "s"),
    ("rl.act_s.lanes8", "s"),
    ("rl.remember_s.lanes1", "s"),
    ("rl.remember_s.lanes8", "s"),
    ("vec_env.step_s.lanes1", "s"),
    ("vec_env.step_s.lanes8", "s"),
    ("vec_env.finish_s.lanes1", "s"),
    ("vec_env.finish_s.lanes8", "s"),
    ("engine.strategy_hit_rate.lanes1", "ratio"),
    ("engine.strategy_hit_rate.lanes8", "ratio"),
    ("engine.layer_hit_rate.lanes1", "ratio"),
    ("engine.layer_hit_rate.lanes8", "ratio"),
    ("engine.full_evaluations.lanes1", "count"),
    ("engine.full_evaluations.lanes8", "count"),
    ("accel.evaluate_s", "s"),
    ("accel.direct_evaluate_s", "s"),
    ("accel.memo_speedup", "x"),
    ("accel.alloc_s", "s"),
    ("accel.sharing_s", "s"),
    ("accel.compose_s", "s"),
    ("accel.fault_sample_s", "s"),
    ("accel.repair_s", "s"),
    ("accel.evaluate_faulted_s", "s"),
    ("accel.evaluate_noisy_s", "s"),
    ("accel.evaluate_degraded_s", "s"),
    ("accel.layer_noise_s", "s"),
    ("accel.layer_noise_calls", "count"),
    ("serve.arrivals_s", "s"),
    ("serve.run_s.heap1", "s"),
    ("serve.run_s.seq8", "s"),
    ("serve.run_s.threaded8", "s"),
    ("serve.thread_speedup", "x"),
    ("serve.batches", "count"),
    ("serve.mean_batch_size", "count"),
    ("serve.steals", "count"),
    ("serve.rejected", "count"),
    ("serve.run_s.fifo", "s"),
    ("serve.run_s.fifo_clean", "s"),
    ("serve.retried", "count"),
    ("serve.failed", "count"),
    ("serve.errored", "count"),
    ("serve.trips", "count"),
    ("serve.recals", "count"),
    ("serve.remaps", "count"),
    ("unattributed_share", "ratio"),
    ("trace_overhead", "ratio"),
];

/// Set-up is timed in slices of repeated builds, one before the first
/// round and one before every untraced round; each slice lasts at least
/// this long and holds at least `SETUP_MIN_REPS` builds. `setup_s` is the
/// median over all of them in reference seconds, so it samples the host
/// across the whole run as the throughput figures do: on the reference
/// host the same build runs at two speeds (~33 or ~58 µs on
/// `serve_faults`), switching every 20 ms to a few seconds, and a single
/// burst of builds at start-up read whichever speed the host had then.
const SETUP_SLICE_S: f64 = 0.08;
const SETUP_MIN_REPS: usize = 3;

/// Times one build of the workload's inputs.
type Rebuild = Box<dyn Fn() -> Cost>;

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    seconds: f64,
    pub trace: bool,
}

impl Opts {
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
                "--workload" => return Err(bad("unknown workload")),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad("expected a positive number"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Opts {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// One of a workload's two measured arms.
pub struct Arm {
    /// Workload-specific name of the wall-clock throughput, e.g.
    /// `episodes_per_s.lanes1`; the CPU-time one swaps `_per_s` for
    /// `_per_cpu_s`.
    pub rate_name: &'static str,
    /// Operations per wall second and per process CPU second.
    pub rates: Rates,
    /// Workload-specific name of the simulated quality figure.
    pub quality_name: &'static str,
    /// The simulated quality figure (deterministic for a seed).
    pub quality: f64,
}

/// Wall and process CPU seconds of one timed operation, and the mean CPU
/// seconds of the probes run just before and just after it.
#[derive(Clone, Copy, Debug)]
pub struct Cost {
    pub wall: f64,
    pub cpu: f64,
    pub probe: f64,
}

impl Cost {
    /// CPU time in reference seconds: probes of 1 ms each.
    fn reference_s(&self) -> f64 {
        self.cpu / self.probe * 1e-3
    }
}

/// Run `f` between two probes, returning `f`'s result and what it cost.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    timed_on(1, f)
}

/// `timed` for an `f` that keeps `threads` threads busy: each probe runs
/// on as many threads at once, so it meets the host as `f` does.
pub fn timed_on<R>(threads: usize, f: impl FnOnce() -> R) -> (R, Cost) {
    let before = probe(threads);
    let (t, c) = (Instant::now(), cpu_seconds());
    let r = f();
    let (wall, cpu) = (t.elapsed().as_secs_f64(), cpu_seconds() - c);
    let probe = (before + probe(threads)) / 2.0;
    (r, Cost { wall, cpu, probe })
}

/// The probe's mean CPU time over `threads` threads running it at once.
fn probe(threads: usize) -> f64 {
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(probe_once)).collect();
        let own = probe_once();
        let others: f64 = others
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .sum();
        (own + others) / threads.max(1) as f64
    })
}

/// Keys the probe inserts into a `BTreeMap` and then looks up.
const PROBE_KEYS: u64 = 6_000;

/// A fixed piece of work that calls no code of the repository, timed in
/// the calling thread's CPU seconds: how fast the host runs code right
/// now. Map
/// inserts and lookups mix allocation, pointer chasing and branches, as
/// the workloads do. A timed piece's CPU time over its probes' cancels
/// the host's changes of speed, which CPU time alone keeps (see the
/// README's "Reference seconds").
fn probe_once() -> f64 {
    let c = thread_cpu_seconds();
    let mut map = BTreeMap::new();
    let mut key = 0;
    for i in 0..PROBE_KEYS {
        key = mix(key);
        map.insert(key, i);
    }
    let (mut key, mut sum) = (0, 0u64);
    for _ in 0..PROBE_KEYS {
        key = mix(key);
        sum = sum.wrapping_add(map[&key]);
    }
    std::hint::black_box(sum);
    let elapsed = thread_cpu_seconds() - c;
    drop(map);
    elapsed
}

/// Throughput in operations per wall second, per process CPU second, and
/// per reference second (see `Cost::reference_s`).
#[derive(Clone, Copy, Debug)]
pub struct Rates {
    pub per_wall_s: f64,
    pub per_cpu_s: f64,
    pub per_ref_s: f64,
    /// Median CPU time of the probe [s].
    pub probe_s: f64,
}

impl Rates {
    /// `ops` operations per round, where `rounds[r][pos]` is the cost of
    /// the `pos`-th timed piece of round `r` and every round times the
    /// same pieces of work in the same order. A round costs the sum over
    /// positions of each position's median cost across rounds, so a burst
    /// of host noise spoils a few samples rather than the figure. The
    /// first round warms caches and the allocator; it is left out when
    /// three or more rounds ran.
    pub fn of_rounds(ops: f64, rounds: &[Vec<Cost>]) -> Rates {
        let rounds = if rounds.len() >= 3 {
            &rounds[1..]
        } else {
            rounds
        };
        let round_cost = |part: fn(&Cost) -> f64| -> f64 {
            (0..rounds[0].len())
                .map(|pos| median(rounds.iter().map(|r| part(&r[pos])).collect()))
                .sum()
        };
        Rates {
            per_wall_s: ops / round_cost(|c| c.wall),
            per_cpu_s: ops / round_cost(|c| c.cpu),
            per_ref_s: ops / round_cost(Cost::reference_s),
            probe_s: median(rounds.iter().flatten().map(|c| c.probe).collect()),
        }
    }
}

pub struct Bench {
    pub seed: u64,
    seconds: f64,
    pub trace: bool,
    workload: String,
    attempted: u64,
    failed: u64,
    /// Build costs of the set-up slices so far.
    setup_costs: Vec<Cost>,
    /// Times another build until the untraced rounds are done.
    rebuild: Option<Rebuild>,
    arms: Option<(Arm, Arm)>,
    /// Workload-specific figures printed beside the gated ones.
    extra: Vec<(&'static str, f64, &'static str)>,
    layers: BTreeMap<&'static str, f64>,
    digest: Option<u64>,
    /// Peak live heap of each round [MiB].
    round_peaks: Vec<f64>,
}

impl Bench {
    pub fn new(o: &Opts) -> Bench {
        Bench {
            seed: o.seed,
            seconds: o.seconds,
            trace: o.trace,
            workload: o.workload.clone(),
            attempted: 0,
            failed: 0,
            setup_costs: Vec::new(),
            rebuild: None,
            arms: None,
            extra: Vec::new(),
            layers: BTreeMap::new(),
            digest: None,
            round_peaks: Vec::new(),
        }
    }

    /// Build the workload's inputs, and time a first slice of further
    /// builds; `rounds` times one more slice before each untraced round.
    /// The first build warms the code and the allocator and is the one
    /// returned. Every timed build is dropped after its clock stops, so
    /// the next one reuses warm memory and the figure counts the
    /// building, not the kernel's page faults.
    pub fn setup<S: 'static>(&mut self, build: impl Fn() -> S + 'static) -> S {
        let kept = build();
        let rebuild: Rebuild = Box::new(move || {
            let (again, cost) = timed(|| std::hint::black_box(build()));
            drop(again);
            cost
        });
        self.time_setup(&rebuild);
        self.rebuild = Some(rebuild);
        kept
    }

    /// Time one slice of builds.
    fn time_setup(&mut self, rebuild: &Rebuild) {
        let t0 = Instant::now();
        let start = self.setup_costs.len();
        while self.setup_costs.len() - start < SETUP_MIN_REPS
            || t0.elapsed().as_secs_f64() < SETUP_SLICE_S
        {
            self.setup_costs.push(rebuild());
        }
    }

    /// Count one operation; it failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Count `n` operations that completed with nothing to check.
    pub fn count(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Run `round(self, i)` for `i = 0, 1, ...`: at least `min` rounds,
    /// then more while another round of the last one's length still ends
    /// within the pass's time, `seconds` (half of it for each of the two
    /// passes of a traced run). A panicking round counts as a failed
    /// operation and ends the loop. Records each round's peak live heap
    /// and, on the first (untraced) pass, times a set-up slice before
    /// every round. Returns the rounds completed.
    pub fn rounds(&mut self, min: usize, mut round: impl FnMut(&mut Bench, usize)) -> usize {
        let budget = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        let rebuild = self.rebuild.take();
        let t0 = Instant::now();
        let mut i = 0;
        loop {
            if let Some(rebuild) = &rebuild {
                self.time_setup(rebuild);
            }
            let t = Instant::now();
            PEAK.store(LIVE.load(Relaxed), Relaxed);
            let ok = catch_unwind(AssertUnwindSafe(|| round(self, i))).is_ok();
            self.round_peaks.push(PEAK.load(Relaxed) as f64 / MIB);
            if !ok {
                self.check(false, "round panicked");
                return i;
            }
            i += 1;
            let last = t.elapsed().as_secs_f64();
            if i >= min && t0.elapsed().as_secs_f64() + last > budget {
                return i;
            }
        }
    }

    pub fn arms(&mut self, a: Arm, b: Arm) {
        self.arms = Some((a, b));
    }

    /// A workload-specific figure printed as a `metric` line only.
    pub fn extra(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.extra.push((name, value, unit));
    }

    /// Set a per-layer metric of the traced run.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
        self.layers.insert(name, value);
    }

    /// The 64-bit digest of the workload's simulated outputs.
    pub fn digest(&mut self, d: u64) {
        self.digest = Some(d);
    }

    /// Print every figure and the result line.
    pub fn finish(mut self) {
        let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
        if self.trace {
            for (name, unit) in PER_LAYER {
                metrics.push((name, self.layers.get(name).copied().unwrap_or(0.0), unit));
            }
        } else {
            let (a, b) = self.arms.take().unwrap_or_else(|| {
                let missing = || Arm {
                    rate_name: "missing",
                    rates: Rates {
                        per_wall_s: f64::NAN,
                        per_cpu_s: f64::NAN,
                        per_ref_s: f64::NAN,
                        probe_s: f64::NAN,
                    },
                    quality_name: "missing",
                    quality: f64::NAN,
                };
                (missing(), missing())
            });
            for arm in [&a, &b] {
                let name = |per: &str| arm.rate_name.replacen("_per_s", per, 1);
                println!("metric {} {} 1/s", arm.rate_name, arm.rates.per_wall_s);
                println!(
                    "metric {} {} 1/cpu_s",
                    name("_per_cpu_s"),
                    arm.rates.per_cpu_s
                );
                println!(
                    "metric {} {} 1/ref_s",
                    name("_per_ref_s"),
                    arm.rates.per_ref_s
                );
            }
            let probe_ms = median(vec![a.rates.probe_s, b.rates.probe_s]) * 1e3;
            println!("metric probe_ms {probe_ms} ms");
            for arm in [&a, &b] {
                println!("metric {} {} ratio", arm.quality_name, arm.quality);
            }
            for (name, value, unit) in &self.extra {
                println!("metric {name} {value} {unit}");
            }
            if !self.setup_costs.is_empty() {
                let wall = median(self.setup_costs.iter().map(|c| c.wall).collect());
                println!("metric setup_wall_s {wall} s");
            }
            println!("metric peak_rss_mib {} MiB", peak_rss_mib());
            let values = [
                if self.setup_costs.is_empty() {
                    f64::NAN
                } else {
                    median(self.setup_costs.iter().map(Cost::reference_s).collect())
                },
                if self.round_peaks.is_empty() {
                    f64::NAN
                } else {
                    median(std::mem::take(&mut self.round_peaks))
                },
                a.rates.per_ref_s,
                b.rates.per_ref_s,
                a.quality,
                b.quality,
            ];
            for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
                metrics.push((name, value, unit));
            }
        }
        for &(name, value, _) in &metrics {
            self.check(value.is_finite(), &format!("{name} is finite"));
        }
        println!(
            "metric failed_ratio {} ratio",
            self.failed as f64 / self.attempted.max(1) as f64
        );
        match self.digest {
            Some(d) => println!("digest {} {d:016x}", self.workload),
            None => self.check(false, "workload produced a digest"),
        }
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        line.push_str("}}");
        println!("{line}");
    }
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// SplitMix64 finalizer: derives independent seeds from the workload
/// seed.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the `Debug` rendering of simulated outputs. `Debug`
/// prints every field, and floats in their shortest round-trip form, so
/// two runs share a digest exactly when every simulated value is
/// bit-identical.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn add(&mut self, value: &impl fmt::Debug) {
        write!(self, "{value:?};").expect("hashing never fails");
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &byte in s.as_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0100_0000_01B3);
        }
        Ok(())
    }
}

/// Accumulates time spent in named layer calls during a traced pass.
#[derive(Default)]
pub struct Timers(BTreeMap<&'static str, f64>);

impl Timers {
    /// Run `f`, adding its wall time to `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        *self.0.entry(name).or_default() += t.elapsed().as_secs_f64();
        r
    }

    /// Add `value` to the counter `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_default() += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn sum(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.get(n)).sum()
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// CPU time of the whole process [s], finished threads included
/// (`CLOCK_PROCESS_CPUTIME_ID`). With paravirtual steal accounting the
/// kernel leaves out time the host took the guest's vCPUs away, so on a
/// shared host this moves far less than wall time.
fn cpu_seconds() -> f64 {
    clock_seconds(2)
}

/// CPU time of the calling thread [s] (`CLOCK_THREAD_CPUTIME_ID`).
fn thread_cpu_seconds() -> f64 {
    clock_seconds(3)
}

/// `clock_gettime(clock)` [s], for the Linux CPU-time clock ids.
fn clock_seconds(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and callers pass a valid clock id.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Host peak resident set of this process [MiB], from `/proc/self/status`.
/// Printed only: it moves by ~10 MiB between identical runs with the
/// malloc arenas that worker threads happen to pick.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Live and peak heap bytes of the process. Statistics only: they
/// publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes so `peak_heap_mib` is the
/// program's own peak demand.
struct Counting;

#[global_allocator]
static ALLOC: Counting = Counting;

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters never
// touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}
