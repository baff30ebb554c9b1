//! The reference computation, run in the generator as records come back.
//!
//! For every delivered record the oracle checks, independently of the
//! system under test: the key is one the generator uses; the per-key
//! sequence number is exactly the next one (which is per-key FIFO, no
//! duplicate and no gap at once); the count the `count` operator read
//! from its state store equals the number of updates this key has had
//! (reads do not add one) — which covers state across rescale and the
//! durable store; and every payload byte is the one that was sent. What
//! was sent and never came back is counted when the run ends.
//!
//! It also keeps what the analysis needs: each record's latency against
//! its *intended* send time, filed under the phase that time falls in,
//! and deliveries per 10 ms of receive time.

use crate::gen::{read_header, Pattern, FLAG_READ, FLAG_TRACED, HEADER_LEN};
use crate::spec::{Profile, Spec};

/// Width of a receive-time bucket.
pub const BUCKET_NS: u64 = 10_000_000;

#[derive(Clone, Copy, Default)]
struct KeyState {
    next_seq: u32,
    updates: u32,
}

/// Latencies of the records intended in one segment of the profile.
#[derive(Default)]
pub struct Samples {
    /// Receive time − intended send time, ns, saturating at ~4.29 s.
    pub lat_ns: Vec<u32>,
    /// Intended tick of each sample.
    pub tick: Vec<u32>,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Failures {
    pub duplicated: u64,
    pub out_of_order: u64,
    pub corrupted: u64,
    pub wrong_count: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.duplicated + self.out_of_order + self.corrupted + self.wrong_count
    }
}

/// A traced record as the generator saw it.
#[derive(Clone, Copy, Debug)]
pub struct TracedRecord {
    pub key: u64,
    pub seq: u64,
    pub intended_ns: u64,
    pub recv_ns: u64,
}

pub struct Oracle {
    payload_len: usize,
    pattern: Pattern,
    keys: Vec<KeyState>,
    /// Wall-clock ns of tick 0; set by the sender just before it starts.
    t0_ns: u64,
    /// `end_tick` of each segment, for filing a sample by intended tick.
    seg_end_tick: Vec<u64>,
    pub segments: Vec<Samples>,
    /// Records delivered in each [`BUCKET_NS`] of receive time from `t0`.
    pub buckets: Vec<u32>,
    /// Records that passed every check.
    pub good: u64,
    pub failures: Failures,
    pub traced: Vec<TracedRecord>,
}

impl Oracle {
    pub fn new(spec: &Spec, profile: &Profile) -> Oracle {
        let segments = profile
            .segments
            .iter()
            .map(|s| {
                let n = profile.offered(s.start_tick, s.end_tick) as usize;
                Samples {
                    lat_ns: Vec::with_capacity(n),
                    tick: Vec::with_capacity(n),
                }
            })
            .collect();
        // Room for a drain twice as long as the schedule; later
        // deliveries land in the last bucket.
        let buckets = vec![0; (profile.total_ticks() * 3 * 1_000_000 / BUCKET_NS) as usize];
        Oracle {
            payload_len: spec.payload,
            pattern: Pattern::new(spec.payload),
            keys: vec![
                KeyState {
                    next_seq: 1,
                    updates: 0
                };
                spec.keys as usize
            ],
            t0_ns: 0,
            seg_end_tick: profile.segments.iter().map(|s| s.end_tick).collect(),
            segments,
            buckets,
            good: 0,
            failures: Failures::default(),
            traced: Vec::new(),
        }
    }

    pub fn set_t0(&mut self, t0_ns: u64) {
        self.t0_ns = t0_ns;
    }

    /// One delivered record: `count` is what the operator put in the
    /// record's `seq` field.
    pub fn deliver(&mut self, key: u64, count: u64, payload: &[u8], recv_ns: u64) {
        let header = match read_header(payload) {
            Some(h) if payload.len() == self.payload_len && key < self.keys.len() as u64 => h,
            _ => {
                self.failures.corrupted += 1;
                return;
            }
        };
        let since_t0 = recv_ns.saturating_sub(self.t0_ns);
        let bucket = ((since_t0 / BUCKET_NS) as usize).min(self.buckets.len() - 1);
        self.buckets[bucket] += 1;

        // File the latency first: a record that fails a check below
        // still arrived, and the analysis counts failures separately.
        let latency = recv_ns.saturating_sub(header.intended_ns);
        let tick = header.intended_ns.saturating_sub(self.t0_ns) / 1_000_000;
        let seg = self
            .seg_end_tick
            .iter()
            .position(|&end| tick < end)
            .unwrap_or(self.seg_end_tick.len() - 1);
        let samples = &mut self.segments[seg];
        samples.lat_ns.push(latency.min(u64::from(u32::MAX)) as u32);
        samples.tick.push(tick as u32);
        if header.flags & FLAG_TRACED != 0 {
            self.traced.push(TracedRecord {
                key,
                seq: header.seq,
                intended_ns: header.intended_ns,
                recv_ns,
            });
        }

        let state = &mut self.keys[key as usize];
        let expected = u64::from(state.next_seq);
        if header.seq < expected {
            self.failures.duplicated += 1;
            return;
        }
        // A gap: this record overtook (or outlived) the ones skipped.
        // They are counted as out of order if they still arrive and as
        // lost if they never do.
        let in_order = header.seq == expected;
        state.next_seq = header.seq as u32 + 1;
        if header.flags & FLAG_READ == 0 {
            state.updates += 1;
        }
        if !in_order {
            self.failures.out_of_order += 1;
        } else if payload[HEADER_LEN..]
            != *self
                .pattern
                .fill(key, header.seq, self.payload_len - HEADER_LEN)
            || payload[17..HEADER_LEN] != [0u8; 7]
        {
            self.failures.corrupted += 1;
        } else if count != u64::from(state.updates) {
            self.failures.wrong_count += 1;
        } else {
            self.good += 1;
        }
    }

    /// Records seen, passing or not.
    pub fn received(&self) -> u64 {
        self.good + self.failures.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::write_payload;
    use crate::spec::spec;

    fn payload(o: &Oracle, key: u64, seq: u64, flags: u8) -> Vec<u8> {
        let mut p = Vec::new();
        write_payload(&mut p, &o.pattern, key, seq, flags, 1_000, o.payload_len);
        p
    }

    fn fresh() -> Oracle {
        let s = spec("durable_mixed").unwrap();
        let p = Profile::new(&s, 1);
        Oracle::new(&s, &p)
    }

    #[test]
    fn accepts_the_reference_stream() {
        let mut o = fresh();
        // update, read, update on one key: counts 1, 1, 2.
        for (seq, flags, count) in [(1, 0, 1), (2, FLAG_READ, 1), (3, 0, 2)] {
            let p = payload(&o, 5, seq, flags);
            o.deliver(5, count, &p, 2_000);
        }
        assert_eq!(o.good, 3);
        assert_eq!(o.failures.total(), 0);
    }

    #[test]
    fn flags_every_kind_of_failure() {
        let mut o = fresh();
        let p1 = payload(&o, 1, 1, 0);
        o.deliver(1, 1, &p1, 2_000);
        o.deliver(1, 1, &p1, 2_000);
        assert_eq!(o.failures.duplicated, 1);

        let p3 = payload(&o, 1, 3, 0);
        o.deliver(1, 2, &p3, 2_000);
        assert_eq!(o.failures.out_of_order, 1);

        let mut bad = payload(&o, 2, 1, 0);
        *bad.last_mut().unwrap() ^= 1;
        o.deliver(2, 1, &bad, 2_000);
        assert_eq!(o.failures.corrupted, 1);

        let p = payload(&o, 3, 1, 0);
        o.deliver(3, 7, &p, 2_000);
        assert_eq!(o.failures.wrong_count, 1);

        o.deliver(1 << 40, 1, &p, 2_000);
        o.deliver(4, 1, &p[..10], 2_000);
        assert_eq!(o.failures.corrupted, 3);
        assert_eq!(o.good, 1);
    }
}
