//! `ledger run` — the load generator. Exactly two working threads and two
//! connections: the sender on one loopback connection into the child's
//! `TcpIngress`, and the `EgressServer` connection thread whose deliver
//! callback is the oracle. The main thread only sleeps to phase
//! boundaries and reads `/proc`.
//!
//! Open loop: one frame per 1 ms tick, sent on schedule whether or not
//! the system keeps up (a full socket delays the sender, and that delay
//! counts: latency is receive time − *intended* send time, both read in
//! this process).

use std::io::Write;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crate::child::Fault;
use crate::gen::{now_ns, FrameBuilder, KeyStream};
use crate::harness::{Harness, HarnessOpts};
use crate::json::Json;
use crate::oracle::{Oracle, Samples, BUCKET_NS};
use crate::procstat;
use crate::spec::{
    Phase, Profile, Segment, Spec, LATENCY_LIMIT_MS, RAMP_RATIO, RAMP_STEPS, TRACE_SAMPLE_LO,
    TRACE_SAMPLE_MID,
};
use crate::stats::{median_f64, quantile, rank_index};
use crate::trace;

pub struct RunOpts {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub fault: Option<Fault>,
}

/// How many times a run sets the system up; `setup_s` is their mean and
/// the last one carries the load.
const SETUPS: usize = 15;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The value of the metric called `name`, NaN if there is none.
pub fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}

pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Reported phases the generator itself sent late in.
    pub invalid: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// What the sender thread hands back.
struct SenderReport {
    /// Records actually written, per segment.
    sent: Vec<u64>,
    /// How late each frame's write *began*, µs, per segment.
    late_us: Vec<Vec<u32>>,
    /// When the last frame had been written.
    finished: Instant,
}

/// What the main thread reads at a phase boundary.
#[derive(Default)]
struct Boundary {
    cpu_us: Option<f64>,
    /// The child's cumulative layer counters (traced runs only: asking
    /// costs the child a little, and end-to-end numbers come from runs
    /// that never ask).
    snap: Option<Json>,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn run_sender(
    conn: &mut std::net::TcpStream,
    mut frames: FrameBuilder,
    profile: &Profile,
    start: Instant,
    t0_ns: u64,
    traced_ticks: &[(u64, u64, u64)],
) -> Result<SenderReport, String> {
    let mut sent = vec![0u64; profile.segments.len()];
    let mut late_us: Vec<Vec<u32>> = profile
        .segments
        .iter()
        .map(|s| Vec::with_capacity(s.ticks() as usize))
        .collect();
    let end = start + Duration::from_millis(profile.total_ticks());
    let mut buf = Vec::with_capacity(1 << 20);
    let mut seg = 0;
    for (tick, &n) in profile.per_tick.iter().enumerate() {
        let tick = tick as u64;
        while tick >= profile.segments[seg].end_tick {
            seg += 1;
        }
        if n == 0 {
            continue;
        }
        let due = start + Duration::from_millis(tick);
        sleep_until(due);
        let began = Instant::now();
        // Past the end of the schedule the run is over: what a stalled
        // socket kept from being sent is not attempted.
        if began >= end {
            break;
        }
        late_us[seg].push(began.saturating_duration_since(due).as_micros() as u32);
        frames.trace_every(
            traced_ticks
                .iter()
                .find(|&&(a, b, _)| (a..b).contains(&tick))
                .map_or(0, |&(_, _, every)| every),
        );
        frames.build(&mut buf, n, t0_ns + tick * 1_000_000);
        conn.write_all(&buf)
            .map_err(|e| format!("send frame at tick {tick}: {e}"))?;
        sent[seg] += u64::from(n);
    }
    Ok(SenderReport {
        sent,
        late_us,
        finished: Instant::now(),
    })
}

/// q-quantile latency in ms, counting `missing` records that never
/// arrived as slower than any that did. Works on a copy: the samples
/// stay paired with their ticks.
pub fn quantile_ms(lat_ns: &[u32], missing: u64, q: f64) -> f64 {
    let n = lat_ns.len() + missing as usize;
    if n == 0 {
        return f64::NAN;
    }
    let idx = rank_index(n, q);
    if idx >= lat_ns.len() {
        return f64::INFINITY;
    }
    f64::from(*lat_ns.to_vec().select_nth_unstable(idx).1) / 1e6
}

/// Records delivered in `[from_tick, to_tick)` of receive time.
fn delivered_between(buckets: &[u32], from_tick: u64, to_tick: u64) -> u64 {
    let b = |tick: u64| ((tick * 1_000_000 / BUCKET_NS) as usize).min(buckets.len());
    buckets[b(from_tick)..b(to_tick)]
        .iter()
        .map(|&n| u64::from(n))
        .sum()
}

/// Latency over one window of intended send time.
struct Window {
    p50_ms: f64,
    p99_ms: f64,
    /// Share of the window's records delivered within the latency limit.
    within_limit: f64,
}

/// Cuts `[from, to)` into windows of `len` ticks of intended send time.
/// Every reported latency is the *median over windows* of the window's
/// percentile: the sandbox VM stalls for 50–150 ms a few times a minute,
/// and one stall would otherwise own the p99 of a whole phase.
fn windows(from: u64, to: u64, samples: &Samples, len: u64) -> Vec<Window> {
    let mut out = Vec::new();
    let mut at = from;
    while at + len <= to {
        let lat: Vec<u32> = samples
            .tick
            .iter()
            .zip(&samples.lat_ns)
            .filter(|(&t, _)| (at..at + len).contains(&u64::from(t)))
            .map(|(_, &l)| l)
            .collect();
        if !lat.is_empty() {
            out.push(Window {
                p50_ms: quantile_ms(&lat, 0, 0.5),
                p99_ms: quantile_ms(&lat, 0, 0.99),
                within_limit: lat
                    .iter()
                    .filter(|&&l| f64::from(l) <= LATENCY_LIMIT_MS * 1e6)
                    .count() as f64
                    / lat.len() as f64,
            });
        }
        at += len;
    }
    out
}

fn median_of(w: &[Window], f: fn(&Window) -> f64) -> f64 {
    if w.is_empty() {
        return f64::INFINITY;
    }
    median_f64(&w.iter().map(f).collect::<Vec<_>>())
}

/// Sub-windows each ramp step is judged in.
const STEP_WINDOWS: u64 = 10;

/// One ramp step as the sustained-rate rule sees it.
struct Step {
    rps: f64,
    /// Share of the step's sub-windows whose p99 is within the limit.
    pass_share: f64,
    /// Median over sub-windows of the sub-window's p99 — the step's
    /// point on the latency-vs-load curve.
    p99_ms: f64,
}

impl Step {
    fn measure(seg: &Segment, samples: &Samples) -> Step {
        let w = windows(
            seg.start_tick,
            seg.end_tick,
            samples,
            (seg.ticks() / STEP_WINDOWS).max(1),
        );
        let ok = w.iter().filter(|w| w.p99_ms <= LATENCY_LIMIT_MS).count();
        Step {
            rps: seg.rps as f64,
            // A sub-window nothing came back from misses the limit.
            pass_share: ok as f64 / STEP_WINDOWS as f64,
            p99_ms: median_of(&w, |w| w.p99_ms),
        }
    }
}

/// The offered rate up to which the system meets the latency limit.
///
/// Near its knee this system does not fail cleanly: p99 hovers around the
/// limit and single steps fail and pass out of order, so "the last step
/// before the first failure" moves by hundreds of thousands of records
/// per second between identical runs. Instead every step is cut into
/// [`STEP_WINDOWS`] sub-windows, each a pass/fail trial at the step's
/// rate (a backlog that grows fails every later sub-window, so growth is
/// covered), and the knee is the Spearman–Kärber estimate of the rate at
/// which half the trials pass: on the geometric ramp,
/// `first × ratio^(Σ pass_share − ½)`. It uses all 120 trials, is
/// continuous in them, and lies between one half-step below the first
/// step (nothing passes) and one half-step above the last (everything
/// does) — which is why the ramp must bracket the knee.
fn sustained_rps(steps: &[Step]) -> f64 {
    let total: f64 = steps.iter().map(|s| s.pass_share).sum();
    steps[0].rps * RAMP_RATIO.powf(total - 0.5)
}

/// A workload that scripts a rescale claims its state was checked across
/// one: a scale call that failed, or one that moved no shard, is a failed
/// run, not a number.
fn check_rescale(spec: &Spec, fin: &Json) -> Result<(), String> {
    let list = |name: &str| fin.get(name).and_then(Json::as_arr).unwrap_or(&[]);
    let calls = list("scale_calls");
    let ok = |out: bool| {
        calls.iter().any(|c| {
            c.get("out") == Some(&Json::Bool(out)) && c.get("ok") == Some(&Json::Bool(true))
        })
    };
    if calls.len() != 2 || !ok(true) || !ok(false) {
        return Err(format!(
            "{}: the scripted scale_out/scale_in did not both succeed: {}",
            spec.name,
            Json::Arr(calls.to_vec()).dump()
        ));
    }
    let moved = list("rescales")
        .iter()
        .fold(0.0, |n, r| n + r.num("shards_moved"));
    if moved == 0.0 {
        return Err(format!(
            "{}: the scripted rescale moved no shard",
            spec.name
        ));
    }
    Ok(())
}

/// How far past an event recovery is looked for, and what an event that
/// does not recover within it counts as.
const RECOVER_CAP_MS: u64 = 3000;
const RECOVER_WINDOW_MS: u64 = 100;
const RECOVER_STREAK: usize = 5;

/// Milliseconds from the event at tick `event` to the first of five
/// consecutive 100 ms windows whose p99 is within the latency limit, the
/// windows taken from the first one that misses it on. 0 when no window
/// before `end` (or the cap) misses the limit; the cap when one does and
/// no such five follow — never recovering is the worst case, not a
/// missing one. `window_p99(from, to)` is the p99 latency, ns, of the
/// records intended in `[from, to)` ticks, `None` when nothing of them
/// was delivered, which misses the limit too.
fn recover_ms(event: u64, end: u64, window_p99: impl Fn(u64, u64) -> Option<u32>) -> f64 {
    let limit_ns = (LATENCY_LIMIT_MS * 1e6) as u32;
    let horizon = end.min(event + RECOVER_CAP_MS);
    let ok: Vec<bool> = (event..horizon)
        .step_by(RECOVER_WINDOW_MS as usize)
        .filter(|w| w + RECOVER_WINDOW_MS <= horizon)
        .map(|w| window_p99(w, w + RECOVER_WINDOW_MS).is_some_and(|p| p <= limit_ns))
        .collect();
    let Some(first_miss) = ok.iter().position(|&ok| !ok) else {
        return 0.0;
    };
    ok[first_miss..]
        .windows(RECOVER_STREAK)
        .position(|w| w.iter().all(|&ok| ok))
        .map_or(RECOVER_CAP_MS as f64, |i| {
            ((first_miss + i) as u64 * RECOVER_WINDOW_MS) as f64
        })
}

pub fn run(opts: &RunOpts) -> Result<RunResult, String> {
    let spec = &opts.spec;
    let profile = Profile::new(spec, opts.seconds);
    let stream = KeyStream::generate(spec, &profile, opts.seed);
    println!("# {}: {}", spec.name, spec.why);
    println!(
        "# {}: seed {} input digest {:016x} ({} records over {} ticks)",
        spec.name,
        opts.seed,
        stream.digest,
        stream.len(),
        profile.total_ticks()
    );
    let hopts = HarnessOpts {
        spec,
        seconds: opts.seconds,
        trace: opts.trace,
        fault: opts.fault,
    };

    // Set-up, several times over: each is a fresh child taken as far as
    // its first delivered record. The last one carries the load.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut harness = Harness::start(&hopts, Oracle::new(spec, &profile))?;
    setups.push(harness.setup.as_secs_f64());
    for _ in 1..SETUPS {
        drop(harness);
        harness = Harness::start(&hopts, Oracle::new(spec, &profile))?;
        setups.push(harness.setup.as_secs_f64());
    }
    let pid = harness.pid();

    let seg_index = |phase: Phase| {
        profile
            .segments
            .iter()
            .position(|s| s.phase == phase)
            .expect("phase in profile")
    };
    let (lo_i, mid_i) = (seg_index(Phase::Lo), seg_index(Phase::Mid));
    let lo = profile.segments[lo_i];
    let mid = profile.segments[mid_i];
    let flood = *profile.segment(Phase::Flood);
    let ramp_start = profile.segment(Phase::Ramp(0)).start_tick;
    let mid_half = mid.start_tick + mid.ticks() / 2;
    // A traced run stamps a sample of the records in `lo` and in the
    // second half of `mid`; the unstamped first half of `mid` is what
    // the stamping cost is read against.
    let traced_ticks: Vec<(u64, u64, u64)> = if opts.trace {
        vec![
            (lo.start_tick, lo.end_tick, TRACE_SAMPLE_LO),
            (mid_half, mid.end_tick, TRACE_SAMPLE_MID),
        ]
    } else {
        Vec::new()
    };

    let start = Instant::now() + Duration::from_millis(20);
    let t0_ns = now_ns() + 20_000_000;
    harness.oracle.lock().expect("oracle lock").set_t0(t0_ns);
    let frames = FrameBuilder::new(spec, &stream);
    let mut conn = harness
        .conn
        .try_clone()
        .map_err(|e| format!("clone connection: {e}"))?;

    // What the main thread does while the sender runs, in schedule
    // order: CPU (and, traced, the child's counters) at the phase
    // boundaries, and the child's resident set once per window through
    // `lo` and `mid`.
    let window_ticks = (opts.seconds * 1000 / 60).max(1);
    let boundaries = [
        lo.start_tick,
        mid.start_tick,
        mid_half,
        mid.end_tick,
        ramp_start,
        flood.start_tick,
        flood.end_tick,
    ];
    let mut schedule: Vec<(u64, bool)> = boundaries.iter().map(|&t| (t, true)).collect();
    schedule.extend(
        (lo.start_tick + window_ticks..=mid.end_tick)
            .step_by(window_ticks as usize)
            .map(|t| (t, false)),
    );
    schedule.sort_by_key(|&(t, boundary)| (t, boundary));
    let mut at: Vec<Boundary> = Vec::with_capacity(boundaries.len());
    let mut rss_samples = Vec::new();
    let report = std::thread::scope(|scope| {
        let sender =
            scope.spawn(|| run_sender(&mut conn, frames, &profile, start, t0_ns, &traced_ticks));
        for (tick, boundary) in schedule {
            sleep_until(start + Duration::from_millis(tick));
            if boundary {
                at.push(Boundary {
                    cpu_us: procstat::cpu_us(pid),
                    snap: if opts.trace {
                        harness.snap().ok()
                    } else {
                        None
                    },
                });
            } else {
                rss_samples.extend(procstat::rss_mib(pid, false));
            }
        }
        sender.join().expect("sender thread")
    })?;
    let [at_lo, at_mid, at_mid_half, at_mid_end, at_ramp, at_flood, at_end]: [Boundary; 7] =
        at.try_into().map_err(|_| "boundary readings".to_string())?;

    // Drain: everything sent must come back.
    let sent: u64 = report.sent.iter().sum();
    // Wait while deliveries keep coming; five seconds without one means
    // the rest is lost.
    let mut seen = harness.delivered.load(Ordering::Acquire);
    let mut last_progress = Instant::now();
    while seen < sent && last_progress.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
        let now = harness.delivered.load(Ordering::Acquire);
        if now != seen {
            seen = now;
            last_progress = Instant::now();
        }
    }
    let drain_s = report.finished.elapsed().as_secs_f64();
    // Let a late duplicate show itself before the books close.
    std::thread::sleep(Duration::from_millis(20));
    let rss_peak = procstat::rss_mib(pid, true);
    let fin = harness.stop()?;
    if spec.rescale {
        check_rescale(spec, &fin)?;
    }

    let oracle = harness.oracle.lock().expect("oracle lock");
    let received = oracle.received();
    let lost = sent.saturating_sub(received - oracle.failures.duplicated.min(received));
    let failed = lost + oracle.failures.total();

    // ---- end to end ------------------------------------------------------
    let missing = |i: usize| report.sent[i].saturating_sub(oracle.segments[i].lat_ns.len() as u64);
    let mut e2e = Vec::new();
    let mut layer = Vec::new();
    // The mean, not the median: set-up time splits into two modes around
    // the egress sender's 10 ms poll (did the probe reach the outbox
    // before or after the sender's first look?), and a median flips
    // between the modes where the mean stays put.
    e2e.push(metric(
        "setup_s",
        setups.iter().sum::<f64>() / setups.len() as f64,
        "s",
    ));
    let mut phase_p50 = [0.0; 2];
    for (n, (i, label)) in [(lo_i, "lo"), (mid_i, "mid")].into_iter().enumerate() {
        let seg = &profile.segments[i];
        // `mid` opens with a rate step — a surge in its own right, which
        // `shift_p99_ms` and `recover_ms` report. What is reported *as*
        // `mid` is its settled part: the windows after the first 40 %.
        let settled_from = if i == mid_i {
            seg.start_tick + seg.ticks() * 2 / 5
        } else {
            seg.start_tick
        };
        let w = if missing(i) > 0 {
            Vec::new()
        } else {
            windows(
                settled_from,
                seg.end_tick,
                &oracle.segments[i],
                window_ticks,
            )
        };
        phase_p50[n] = median_of(&w, |w| w.p50_ms);
        e2e.push(metric(format!("p50_ms.{label}"), phase_p50[n], "ms"));
        e2e.push(metric(
            format!("p99_ms.{label}"),
            median_of(&w, |w| w.p99_ms),
            "ms",
        ));
        let row = |f: fn(&Window) -> f64| {
            let cells: Vec<String> = w.iter().map(|w| format!("{:.1}", f(w))).collect();
            cells.join(" ")
        };
        println!("#   {label} windows p50 ms: {}", row(|w| w.p50_ms));
        println!("#   {label} windows p99 ms: {}", row(|w| w.p99_ms));
        layer.push(metric(
            format!("within_limit_share.{label}"),
            median_of(&w, |w| w.within_limit),
            "share",
        ));
        layer.push(metric(
            format!("tail.p99_whole_ms.{label}"),
            quantile_ms(&oracle.segments[i].lat_ns, missing(i), 0.99),
            "ms",
        ));
    }

    let steps: Vec<Step> = (0..RAMP_STEPS)
        .map(|k| {
            let i = seg_index(Phase::Ramp(k));
            Step::measure(&profile.segments[i], &oracle.segments[i])
        })
        .collect();
    layer.push(metric("sustained_rps", sustained_rps(&steps), "1/s"));
    for (k, s) in steps.iter().enumerate() {
        println!(
            "#   ramp{k}: offered {:>9.0}/s p99 {:>9.3} ms, {:>3.0} % of sub-windows within {LATENCY_LIMIT_MS} ms",
            s.rps,
            s.p99_ms,
            s.pass_share * 100.0
        );
    }
    let passing = steps.iter().filter(|s| s.pass_share >= 0.5).count();
    if passing == 0 || passing == RAMP_STEPS {
        println!(
            "# WARNING: {passing} of {RAMP_STEPS} ramp steps pass, so the ramp does not bracket the \
             knee and sustained_rps is only a bound on it; recalibrate the ramp in src/spec.rs"
        );
    }
    layer.push(metric("ramp.passing_steps", passing as f64, "count"));

    // Delivered per second over the last three quarters of `flood`,
    // measured at the receiver: the outbox is unbounded, so what the
    // system accepted is not what it delivered.
    let flood_from = flood.start_tick + flood.ticks() / 4;
    layer.push(metric(
        "flood_rps",
        delivered_between(&oracle.buckets, flood_from, flood.end_tick) as f64
            / ((flood.end_tick - flood_from) as f64 / 1000.0),
        "1/s",
    ));

    // Child CPU per delivered record, read from /proc at the boundaries.
    // `cpu_us_per_rec` is taken over the ramp: 40 % of the run near capacity,
    // where per-record cost dominates and the 10 ms accounting tick is
    // 0.1 % of the reading. At `lo` and `mid` the same reading is mostly
    // the cost of waking up, and is reported beside it.
    let cpu_per_rec = |a: &Boundary, b: &Boundary, from: u64, to: u64| match (a.cpu_us, b.cpu_us) {
        (Some(a), Some(b)) => (b - a) / delivered_between(&oracle.buckets, from, to).max(1) as f64,
        _ => f64::NAN,
    };
    let cpu_ramp = cpu_per_rec(&at_ramp, &at_flood, ramp_start, flood.start_tick);
    layer.push(metric("cpu_us_per_rec", cpu_ramp, "us"));
    // Resident set while serving `lo` and `mid`: the median of one
    // reading per window. (The peak is `rss_mib.peak`: it is set in
    // `flood`, by how far the unbounded outbox's index grew.)
    e2e.push(metric("rss_mib", median_f64(&rss_samples), "MiB"));
    layer.push(metric(
        "cpu_us_per_rec.lo",
        cpu_per_rec(&at_lo, &at_mid, lo.start_tick, mid.start_tick),
        "us",
    ));
    layer.push(metric(
        "cpu_us_per_rec.mid",
        cpu_per_rec(&at_mid, &at_mid_end, mid.start_tick, mid.end_tick),
        "us",
    ));
    layer.push(metric("rss_mib.peak", rss_peak.unwrap_or(f64::NAN), "MiB"));

    // ---- the shifting parts of lo and mid -----------------------------------
    // Everything up to the end of `mid`, warm-up included (the scripted
    // rescale happens there).
    let below = Samples {
        lat_ns: (0..=mid_i)
            .flat_map(|i| oracle.segments[i].lat_ns.clone())
            .collect(),
        tick: (0..=mid_i)
            .flat_map(|i| oracle.segments[i].tick.clone())
            .collect(),
    };
    let timed: Vec<u32> = [lo_i, mid_i]
        .iter()
        .flat_map(|&i| oracle.segments[i].lat_ns.clone())
        .collect();
    layer.push(metric(
        "p99_ms.run",
        quantile_ms(&timed, missing(lo_i) + missing(mid_i), 0.99),
        "ms",
    ));
    let in_window = |from: u64, to: u64| -> Vec<u32> {
        below
            .tick
            .iter()
            .zip(&below.lat_ns)
            .filter(|(&t, _)| (from..to).contains(&u64::from(t)))
            .map(|(_, &l)| l)
            .collect()
    };
    let events: Vec<_> = profile
        .events
        .iter()
        .filter(|e| e.tick + profile.shift_window_ticks <= mid.end_tick)
        .collect();
    let shift_lat: Vec<u32> = events
        .iter()
        .flat_map(|e| in_window(e.tick, e.tick + profile.shift_window_ticks))
        .collect();
    layer.push(metric(
        "shift_p99_ms",
        quantile_ms(&shift_lat, 0, 0.99),
        "ms",
    ));
    let window_p99 = |from: u64, to: u64| quantile(&mut in_window(from, to), 0.99);
    let recoveries: Vec<f64> = events
        .iter()
        .map(|e| recover_ms(e.tick, mid.end_tick, window_p99))
        .collect();
    layer.push(metric(
        "recover_ms",
        if recoveries.is_empty() {
            0.0
        } else {
            median_f64(&recoveries)
        },
        "ms",
    ));
    layer.push(metric("shift.events", events.len() as f64, "count"));

    let mid_lat = &oracle.segments[mid_i].lat_ns;
    layer.push(metric(
        "tail.p999_ms.mid",
        quantile_ms(mid_lat, missing(mid_i), 0.999),
        "ms",
    ));
    layer.push(metric(
        "tail.max_ms.mid",
        mid_lat
            .iter()
            .max()
            .map_or(f64::NAN, |&m| f64::from(m) / 1e6),
        "ms",
    ));
    layer.push(metric("drain_s", drain_s, "s"));
    let flood_sent = report.sent[seg_index(Phase::Flood)];
    layer.push(metric(
        "flood.backlog_growth_rps",
        (flood_sent as f64
            - delivered_between(&oracle.buckets, flood.start_tick, flood.end_tick) as f64)
            / flood.seconds(),
        "1/s",
    ));

    // ---- failures, by kind ---------------------------------------------------
    layer.push(metric(
        "failed_share",
        failed as f64 / sent.max(1) as f64,
        "share",
    ));
    for (name, v) in [
        ("failed.lost", lost),
        ("failed.duplicated", oracle.failures.duplicated),
        ("failed.out_of_order", oracle.failures.out_of_order),
        ("failed.corrupted", oracle.failures.corrupted),
        ("failed.wrong_count", oracle.failures.wrong_count),
    ] {
        layer.push(metric(name, v as f64, "count"));
    }

    // ---- generator validity ----------------------------------------------------
    // How late the sender itself began each frame in the phases whose
    // latency is reported, judged the way latency is: the median over
    // windows of the window's p99.
    let mut invalid = Vec::new();
    let mut late_p99: f64 = 0.0;
    let mut late_max = 0u32;
    for (i, label) in [(lo_i, "lo"), (mid_i, "mid")] {
        let per_window: Vec<f64> = report.late_us[i]
            .chunks(window_ticks as usize)
            .filter_map(|w| quantile(&mut w.to_vec(), 0.99))
            .map(|p| f64::from(p) / 1e3)
            .collect();
        let p99 = median_f64(&per_window);
        if p99 > 2.0 {
            invalid.push(label.to_string());
        }
        late_p99 = late_p99.max(p99);
        late_max = late_max.max(report.late_us[i].iter().copied().max().unwrap_or(0));
    }
    layer.push(metric("loadgen.late_p99_ms", late_p99, "ms"));
    layer.push(metric(
        "loadgen.late_max_ms",
        f64::from(late_max) / 1e3,
        "ms",
    ));
    layer.push(metric(
        "loadgen.achieved_share",
        sent as f64 / profile.total_records().max(1) as f64,
        "share",
    ));

    // ---- what the child's own public stats and the stamps say ---------------------
    if opts.trace {
        let surge_ns = t0_ns + mid.start_tick * 1_000_000;
        layer.extend(child_metrics(
            &fin,
            [&at_mid, &at_mid_end, &at_flood, &at_end],
            surge_ns,
        ));
        let stamps = std::fs::read_to_string(harness.dir().join("stamps.tsv"))
            .map_err(|e| format!("read child stamps: {e}"))?;
        let levels = [
            trace::Level {
                label: "lo",
                from_ns: t0_ns + lo.start_tick * 1_000_000,
                to_ns: t0_ns + lo.end_tick * 1_000_000,
            },
            trace::Level {
                label: "mid",
                from_ns: t0_ns + mid_half * 1_000_000,
                to_ns: t0_ns + mid.end_tick * 1_000_000,
            },
        ];
        let traced = trace::analyse(&oracle.traced, &stamps, &levels)?;
        layer.extend(traced.metrics);
        let model = value_of(&layer, "queueing.model_et_ms");
        layer.push(metric(
            "queueing.measured_et_ms",
            traced.in_dag_mean_ms,
            "ms",
        ));
        layer.push(metric(
            "queueing.model_err_ratio",
            model / traced.in_dag_mean_ms,
            "ratio",
        ));
        // Stamping's own CPU cost: the stamped second half of `mid`
        // against its unstamped first half, same offered rate.
        let plain = cpu_per_rec(&at_mid, &at_mid_half, mid.start_tick, mid_half);
        let stamped = cpu_per_rec(&at_mid_half, &at_mid_end, mid_half, mid.end_tick);
        layer.push(metric(
            "trace.overhead_share",
            (stamped - plain) / plain,
            "share",
        ));
        layer.push(metric("trace.p50_ms.lo", phase_p50[0], "ms"));
        layer.push(metric("trace.p50_ms.mid", phase_p50[1], "ms"));
        let path = crate::harness::out_dir().join("trace.jsonl");
        std::fs::File::create(&path)
            .and_then(|f| {
                let mut f = std::io::BufWriter::new(f);
                f.write_all(traced.spans.as_bytes())?;
                f.flush()
            })
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "# spans of {} traced records written to {}",
            traced.records,
            path.display()
        );
    }
    drop(oracle);

    Ok(RunResult {
        workload: spec.name,
        seed: opts.seed,
        digest: stream.digest,
        attempted: sent,
        failed,
        invalid,
        end_to_end: e2e,
        per_layer: layer,
    })
}

/// Per-layer rows read from the child's dumps: `snaps` are its
/// cumulative counters at the start and end of `mid` and of `flood`,
/// `fin` the dump it wrote on the way out.
fn child_metrics(fin: &Json, snaps: [&Boundary; 4], surge_ns: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    let null = Json::Null;
    let snap = |b: &Boundary| b.snap.clone().unwrap_or(Json::Null);
    let (m0, m1) = (snap(snaps[0]), snap(snaps[1]));
    let path = |j: &Json, a: &str, b: &str| j.get(a).unwrap_or(&null).num(b);
    let delta = |a: &str, b: &str| path(&m1, a, b) - path(&m0, a, b);
    let secs = (m1.num("t_ns") - m0.num("t_ns")) / 1e9;

    out.push(metric(
        "ingress.stalls",
        delta("ingress", "stalls"),
        "count",
    ));
    // Busy share of each operator's task threads over `mid`, and the §4
    // model's view of the same interval: λ from arrivals, μ from records
    // per busy second, k the live task count.
    let mut loads = Vec::new();
    let mut cores = Vec::new();
    for op in ["parse", "count"] {
        let tasks = path(&m1, op, "tasks").max(1.0);
        let busy_s = delta(op, "busy_ns") / 1e9;
        out.push(metric(
            format!("runtime.op_busy_share.{op}"),
            busy_s / (secs * tasks),
            "share",
        ));
        let lambda = delta(op, "arrivals") / secs;
        let mu = delta(op, "processed") / busy_s;
        if lambda.is_finite() && mu.is_finite() && mu > 0.0 && lambda >= 0.0 {
            loads.push(elasticutor_queueing::jackson::ExecutorLoad::new(lambda, mu));
            cores.push(tasks as u32);
        }
    }
    let model_ms = if loads.len() == 2 && loads[0].lambda > 0.0 {
        let lambda0 = loads[0].lambda;
        elasticutor_queueing::jackson::JacksonNetwork::new(lambda0, loads).expected_latency(&cores)
            * 1e3
    } else {
        f64::NAN
    };
    out.push(metric("queueing.model_et_ms", model_ms, "ms"));

    // Egress: the deepest outbox any snapshot saw, and how the session
    // behaved over the whole run.
    let backlog_max = snaps
        .iter()
        .map(|b| path(&snap(b), "egress", "backlog"))
        .fold(0.0, f64::max);
    out.push(metric("egress.backlog_max", backlog_max, "count"));
    out.push(metric(
        "egress.retransmitted",
        path(fin, "egress", "records_retransmitted"),
        "count",
    ));
    out.push(metric(
        "egress.connects",
        path(fin, "egress", "connects"),
        "count",
    ));

    // Durable state: checkpoints are manifest commits.
    out.push(metric(
        "state.checkpoints",
        path(fin, "durable", "manifest_seq"),
        "count",
    ));
    out.push(metric(
        "state.bytes",
        path(fin, "count", "state_bytes"),
        "B",
    ));

    // Elasticity: scripted rescales, reassignments, controller moves.
    let list = |name: &str| fin.get(name).and_then(Json::as_arr).unwrap_or(&[]).to_vec();
    let scale_ms = |want_out: bool| {
        list("scale_calls")
            .iter()
            .filter(|c| c.get("out") == Some(&Json::Bool(want_out)))
            .map(|c| c.num("took_us") / 1e3)
            .fold(0.0, f64::max)
    };
    out.push(metric("runtime.scale_out_ms", scale_ms(true), "ms"));
    out.push(metric("runtime.scale_in_ms", scale_ms(false), "ms"));
    out.push(metric(
        "runtime.shards_moved",
        list("rescales")
            .iter()
            .fold(0.0, |n, r| n + r.num("shards_moved")),
        "count",
    ));
    out.push(metric(
        "runtime.reassign_count",
        list("reassignments").len() as f64,
        "count",
    ));
    let cores_of = |e: &Json| -> Vec<f64> {
        e.get("cores")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_f64)
            .collect()
    };
    let mut moves = 0.0;
    let mut react_ms = 0.0;
    let started_ns = fin.num("controller_started_ns");
    for pair in list("controller").windows(2) {
        let (before, after) = (cores_of(&pair[0]), cores_of(&pair[1]));
        let changed: f64 = before.iter().zip(&after).map(|(a, b)| (a - b).abs()).sum();
        moves += changed;
        let at_ns = started_ns + pair[1].num("at_ms") * 1e6;
        if changed > 0.0 && react_ms == 0.0 && at_ns >= surge_ns as f64 {
            react_ms = (at_ns - surge_ns as f64) / 1e6;
        }
    }
    out.push(metric("runtime.core_moves", moves, "count"));
    out.push(metric("runtime.controller_react_ms", react_ms, "ms"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const WITHIN: Option<u32> = Some(10_000_000);
    const BEYOND: Option<u32> = Some(80_000_000);

    #[test]
    fn a_limit_never_missed_needs_no_recovery() {
        assert_eq!(recover_ms(1000, 9000, |_, _| WITHIN), 0.0);
    }

    #[test]
    fn recovery_counts_from_the_event_to_the_first_of_five_passing_windows() {
        // Windows 2..7 after the event miss the limit, the rest pass.
        let p99 = |from: u64, _| {
            if (1200..1700).contains(&from) {
                BEYOND
            } else {
                WITHIN
            }
        };
        assert_eq!(recover_ms(1000, 9000, p99), 700.0);
        // A passing window between misses restarts the count.
        let p99 = |from: u64, _| match from {
            1200..=1600 | 1900 => BEYOND,
            _ => WITHIN,
        };
        assert_eq!(recover_ms(1000, 9000, p99), 1000.0);
    }

    #[test]
    fn a_stream_that_never_recovers_counts_as_the_cap_not_as_instant() {
        assert_eq!(recover_ms(1000, 9000, |_, _| BEYOND), RECOVER_CAP_MS as f64);
        // Nothing delivered at all is no better.
        assert_eq!(recover_ms(1000, 9000, |_, _| None), RECOVER_CAP_MS as f64);
        // Nor is a miss so late that five windows no longer fit.
        let late = |from: u64, _| if from >= 3700 { BEYOND } else { WITHIN };
        assert_eq!(recover_ms(1000, 9000, late), RECOVER_CAP_MS as f64);
    }

    #[test]
    fn a_failed_or_empty_scripted_rescale_fails_the_run() {
        let spec = crate::spec::spec("durable_mixed").unwrap();
        let fin = |out_ok: bool, moved: u32| {
            Json::parse(&format!(
                r#"{{"scale_calls": [{{"out": true, "ok": {out_ok}}}, {{"out": false, "ok": true}}],
                    "rescales": [{{"shards_moved": {moved}}}]}}"#
            ))
            .unwrap()
        };
        assert!(check_rescale(&spec, &fin(true, 128)).is_ok());
        assert!(check_rescale(&spec, &fin(false, 128)).is_err());
        assert!(check_rescale(&spec, &fin(true, 0)).is_err());
        assert!(check_rescale(&spec, &Json::parse("{}").unwrap()).is_err());
    }
}
