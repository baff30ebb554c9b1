//! The four workloads and the offered-load profile each one runs.
//!
//! Everything here is a fixed constant: the rates were calibrated once on
//! the 2-thread reference box (see README, "Calibration") and then
//! frozen, so two runs of the same name are comparable. Both processes
//! build the same [`Spec`] from the workload name; the child never sees
//! the seed, only these parameters and the bytes on its socket.

/// Latency limit on p99, milliseconds — `ControllerConfig::latency_target`'s
/// default, and the limit `sustained_rps` is judged against.
pub const LATENCY_LIMIT_MS: f64 = 50.0;

/// Ramp steps per run and the geometric ratio between neighbours (≤ 8 %,
/// so a one-step flip of the knee is a small change of `sustained_rps`).
/// Twelve steps, not the issue's eight: the reference box's capacity
/// drifts by 15–20 % between a quiet and a noisy hour, and a ramp has to
/// span a factor of two (1.07¹¹ = 2.1) to bracket the knee in both with
/// two steps to spare on either side.
pub const RAMP_STEPS: usize = 12;
pub const RAMP_RATIO: f64 = 1.07;

/// Warm-up before the timed window, milliseconds. Not part of `--seconds`.
pub const WARM_MS: u64 = 2000;

/// A traced run stamps one record in this many at every seam: 1 in 64 at
/// `mid`, and 1 in 16 at `lo`, whose few thousand records would leave a
/// 1-in-64 sample too small to give a median.
pub const TRACE_SAMPLE_MID: u64 = 64;
pub const TRACE_SAMPLE_LO: u64 = 16;

/// Key the set-up probe record uses; outside every workload's key space.
pub const PROBE_KEY: u64 = u64::MAX;

#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Payload bytes per record (≥ [`crate::gen::HEADER_LEN`]).
    pub payload: usize,
    pub keys: u32,
    /// Zipf exponent of the key distribution; 0 is uniform.
    pub zipf: f64,
    /// The key→rank map is reshuffled this many times per run, evenly
    /// spaced (0 = never).
    pub shuffles: u32,
    /// `count` keeps its state on the durable backend (WAL + checkpoints).
    pub durable: bool,
    /// Every second record is a read-only lookup.
    pub reads: bool,
    /// `count` sleeps this long per record (models service time the way
    /// the repo's demos do; sleeping scales with task threads on a
    /// 2-core box, spinning cannot).
    pub service_us: u64,
    /// Run a `LiveController` over the DAG.
    pub controller: bool,
    /// Scripted `scale_out(count)` a quarter into the warm-up and
    /// `scale_in(count)` three quarters in. In the warm-up, so the timed
    /// phases measure a settled system while the oracle still checks
    /// every record that crossed the rescale; and never together with
    /// the controller (see README, "What the benchmark found").
    pub rescale: bool,
    pub lo_rps: u64,
    pub mid_rps: u64,
    /// Offered rate of the first ramp step; step `i` offers
    /// `ramp_first_rps × RAMP_RATIO^i`.
    pub ramp_first_rps: u64,
    pub flood_rps: u64,
}

pub const WORKLOADS: [&str; 4] = [
    "small_uniform",
    "large_payload",
    "durable_mixed",
    "skew_shift",
];

pub fn spec(name: &str) -> Option<Spec> {
    let base = Spec {
        name: "",
        why: "",
        payload: 32,
        keys: 10_000,
        zipf: 0.0,
        shuffles: 0,
        durable: false,
        reads: false,
        service_us: 0,
        controller: false,
        rescale: false,
        lo_rps: 2_000,
        mid_rps: 0,
        ramp_first_rps: 0,
        flood_rps: 0,
    };
    Some(match name {
        "small_uniform" => Spec {
            name: "small_uniform",
            why: "32 B payloads, 10k uniform keys, memory state: per-record cost dominates, bytes do little",
            mid_rps: 200_000,
            ramp_first_rps: 800_000,
            flood_rps: 1_800_000,
            ..base
        },
        "large_payload" => Spec {
            name: "large_payload",
            why: "4 KiB payloads, same DAG: per-byte cost (copy, checksum, outbox write, wire) dominates, routing does little",
            payload: 4096,
            lo_rps: 1_000,
            mid_rps: 10_000,
            ramp_first_rps: 46_000,
            flood_rps: 100_000,
            ..base
        },
        "durable_mixed" => Spec {
            name: "durable_mixed",
            why: "32 B payloads, 100k keys, count on WAL + checkpoints, every 2nd record a read, live rescale: state layer used two ways",
            keys: 100_000,
            durable: true,
            reads: true,
            rescale: true,
            mid_rps: 100_000,
            ramp_first_rps: 480_000,
            flood_rps: 1_100_000,
            ..base
        },
        "skew_shift" => Spec {
            name: "skew_shift",
            why: "Zipf(0.8) keys reshuffled on a period, 200 us service time, controller on: the paper's dynamics on the live runtime",
            zipf: 0.8,
            shuffles: 8,
            service_us: 200,
            controller: true,
            lo_rps: 3_000,
            mid_rps: 7_500,
            ramp_first_rps: 11_000,
            flood_rps: 26_000,
            ..base
        },
        _ => return None,
    })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Warm,
    Lo,
    Mid,
    /// A while at the first ramp step's rate, unmeasured: the jump
    /// from `mid` to the ramp is a surge of its own, and its backlog
    /// would otherwise be charged to the first ramp steps.
    Approach,
    Ramp(usize),
    Flood,
}

#[derive(Clone, Copy, Debug)]
pub struct Segment {
    pub phase: Phase,
    pub rps: u64,
    /// First tick of the segment and one past its last; ticks are 1 ms.
    pub start_tick: u64,
    pub end_tick: u64,
}

impl Segment {
    pub fn ticks(&self) -> u64 {
        self.end_tick - self.start_tick
    }
    pub fn seconds(&self) -> f64 {
        self.ticks() as f64 / 1000.0
    }
}

/// What changes in the offered load or the topology at a known time;
/// `shift_p99_ms` and `recover_ms` are taken over the windows after these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    Surge,
    Shuffle,
    ScaleOut,
    ScaleIn,
}

#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub kind: EventKind,
    pub tick: u64,
}

/// The schedule of one run: `warm → lo → mid → approach → ramp × 12 →
/// flood`, in 1 ms ticks. The shares of `--seconds` are lo 15 %, mid 25 %,
/// approach 5 %, ramp 40 % in equal steps, flood what is left (15 %).
#[derive(Clone, Debug)]
pub struct Profile {
    pub segments: Vec<Segment>,
    pub events: Vec<Event>,
    /// Records offered in each tick.
    pub per_tick: Vec<u32>,
    /// Length of the window after an event that counts as "shifting".
    pub shift_window_ticks: u64,
}

impl Profile {
    pub fn new(spec: &Spec, seconds: u64) -> Profile {
        let s_ms = seconds * 1000;
        let share = |pct: u64| s_ms * pct / 100;
        let mut plan = vec![
            (Phase::Warm, spec.lo_rps, WARM_MS),
            (Phase::Lo, spec.lo_rps, share(15)),
            (Phase::Mid, spec.mid_rps, share(25)),
            (Phase::Approach, spec.ramp_first_rps, share(5)),
        ];
        let step_ms = share(40) / RAMP_STEPS as u64;
        for i in 0..RAMP_STEPS {
            let rps = spec.ramp_first_rps as f64 * RAMP_RATIO.powi(i as i32);
            plan.push((Phase::Ramp(i), rps.round() as u64, step_ms));
        }
        let timed: u64 = plan[1..].iter().map(|&(_, _, ms)| ms).sum();
        plan.push((Phase::Flood, spec.flood_rps, s_ms - timed));

        let mut segments = Vec::with_capacity(plan.len());
        let mut per_tick = Vec::new();
        let mut tick = 0u64;
        for (phase, rps, ms) in plan {
            segments.push(Segment {
                phase,
                rps,
                start_tick: tick,
                end_tick: tick + ms,
            });
            // Whole records per tick with the remainder carried, so a
            // rate below 1000/s still averages out exactly.
            for i in 0..ms {
                per_tick.push(((i + 1) * rps / 1000 - i * rps / 1000) as u32);
            }
            tick += ms;
        }

        let mut events = Vec::new();
        let mid = segments
            .iter()
            .find(|s| s.phase == Phase::Mid)
            .expect("profile has mid");
        events.push(Event {
            kind: EventKind::Surge,
            tick: mid.start_tick,
        });
        for k in 1..=u64::from(spec.shuffles) {
            events.push(Event {
                kind: EventKind::Shuffle,
                tick: WARM_MS + s_ms * k / (u64::from(spec.shuffles) + 1),
            });
        }
        if spec.rescale {
            events.push(Event {
                kind: EventKind::ScaleOut,
                tick: WARM_MS / 4,
            });
            events.push(Event {
                kind: EventKind::ScaleIn,
                tick: WARM_MS * 3 / 4,
            });
        }
        events.sort_by_key(|e| e.tick);
        Profile {
            segments,
            events,
            per_tick,
            shift_window_ticks: s_ms / 15,
        }
    }

    pub fn total_ticks(&self) -> u64 {
        self.per_tick.len() as u64
    }

    pub fn total_records(&self) -> u64 {
        self.per_tick.iter().map(|&n| u64::from(n)).sum()
    }

    pub fn segment(&self, phase: Phase) -> &Segment {
        self.segments
            .iter()
            .find(|s| s.phase == phase)
            .expect("phase in profile")
    }

    /// Records offered in `[from, to)` ticks.
    pub fn offered(&self, from: u64, to: u64) -> u64 {
        self.per_tick[from as usize..to as usize]
            .iter()
            .map(|&n| u64::from(n))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_fills_the_window_and_carries_remainders() {
        for name in WORKLOADS {
            let spec = spec(name).unwrap();
            let p = Profile::new(&spec, 20);
            assert_eq!(p.total_ticks(), WARM_MS + 20_000);
            let lo = p.segment(Phase::Lo);
            assert_eq!(
                p.offered(lo.start_tick, lo.end_tick),
                spec.lo_rps * lo.ticks() / 1000
            );
            assert!(p.events.windows(2).all(|w| w[0].tick <= w[1].tick));
        }
    }

    #[test]
    fn ramp_steps_are_at_most_eight_percent_apart() {
        let p = Profile::new(&spec("small_uniform").unwrap(), 20);
        let ramp: Vec<u64> = p
            .segments
            .iter()
            .filter(|s| matches!(s.phase, Phase::Ramp(_)))
            .map(|s| s.rps)
            .collect();
        assert_eq!(ramp.len(), RAMP_STEPS);
        assert!(ramp.windows(2).all(|w| (w[1] as f64) < w[0] as f64 * 1.08));
    }
}
