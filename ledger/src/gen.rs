//! Seeded input generation: the benchmark's own uniform / Zipf / shuffle
//! generators (deliberately not `crates/workload`, so a change there
//! cannot move the inputs), the record payload layout, and frame
//! assembly.
//!
//! The random part of a run — which key each record carries and whether
//! it is a read — is drawn from the seed before timing starts and kept as
//! one `u32` per record. Whole frames are *not* pre-built: a 30 s run of
//! `large_payload` would need > 3 GiB of them. The sender assembles each
//! tick's frame from the key stream and a fixed fill pattern, which costs
//! it ~15 µs per 1 ms tick at the highest rates.

use crate::spec::{EventKind, Profile, Spec};

/// Bytes of the payload the benchmark interprets; the rest is fill.
///
/// ```text
/// [0..8)   intended send time, wall-clock ns (patched at send time)
/// [8..16)  per-key sequence number, from 1
/// [16]     flags: READ | TRACED
/// [17..24) zero
/// [24..)   fill: PATTERN[off..], off = fill_offset(key, seq)
/// ```
pub const HEADER_LEN: usize = 24;
pub const FLAG_READ: u8 = 1;
pub const FLAG_TRACED: u8 = 2;

/// Top bit of a key-stream entry marks a read-only lookup.
const READ_BIT: u32 = 1 << 31;

/// Wire bytes of one record inside a RECORD frame: key, seq, length
/// prefix, payload.
pub fn wire_record_len(payload: usize) -> usize {
    8 + 8 + 4 + payload
}

/// The SplitMix64 finalizer: a fixed bijective scramble of `x`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64: the stream every generator here draws from.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next(&mut self) -> u64 {
        let out = mix(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻³² for the
    /// key spaces used here).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next() >> 32) * u64::from(n)) >> 32) as u32
    }

    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Inverse-CDF Zipf sampler over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u32, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u32
    }
}

fn shuffle(map: &mut [u32], rng: &mut Rng) {
    for i in (1..map.len()).rev() {
        map.swap(i, rng.below(i as u32 + 1) as usize);
    }
}

/// The seeded part of a run's input.
pub struct KeyStream {
    /// One entry per record in send order: key id, [`READ_BIT`] set on
    /// read-only lookups.
    entries: Vec<u32>,
    /// FNV-1a over the workload parameters and every entry: two runs
    /// with the same digest offered the same records on the same ticks.
    pub digest: u64,
}

impl KeyStream {
    pub fn generate(spec: &Spec, profile: &Profile, seed: u64) -> KeyStream {
        let mut rng = Rng::new(seed);
        let total = profile.total_records() as usize;
        let mut entries = Vec::with_capacity(total);
        let zipf = (spec.zipf > 0.0).then(|| Zipf::new(spec.keys, spec.zipf));
        let mut rank_to_key: Vec<u32> = (0..spec.keys).collect();
        if zipf.is_some() {
            shuffle(&mut rank_to_key, &mut rng);
        }
        let mut shuffles = profile
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Shuffle)
            .map(|e| e.tick)
            .peekable();
        for (tick, &n) in profile.per_tick.iter().enumerate() {
            while shuffles.next_if(|&t| t <= tick as u64).is_some() {
                shuffle(&mut rank_to_key, &mut rng);
            }
            for _ in 0..n {
                let key = match &zipf {
                    Some(z) => rank_to_key[z.sample(&mut rng) as usize],
                    None => rng.below(spec.keys),
                };
                let read = spec.reads && entries.len() % 2 == 1;
                entries.push(key | if read { READ_BIT } else { 0 });
            }
        }
        let mut digest = Fnv::new();
        digest.write(spec.name.as_bytes());
        for v in [
            spec.payload as u64,
            u64::from(spec.keys),
            profile.total_ticks(),
            total as u64,
        ] {
            digest.write(&v.to_le_bytes());
        }
        for e in &entries {
            digest.write(&e.to_le_bytes());
        }
        KeyStream {
            entries,
            digest: digest.0,
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn key(&self, i: usize) -> u32 {
        self.entries[i] & !READ_BIT
    }

    pub fn is_read(&self, i: usize) -> bool {
        self.entries[i] & READ_BIT != 0
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The fill every payload is cut from. A fixed pseudo-random page (it
/// does not depend on the seed): the receiver checks a payload with one
/// `memcmp` against the same page.
pub struct Pattern(Vec<u8>);

const PATTERN_WINDOW: usize = 4096;

impl Pattern {
    pub fn new(max_payload: usize) -> Pattern {
        let mut rng = Rng::new(0x1ED6_E200);
        let mut bytes = vec![0u8; PATTERN_WINDOW + max_payload];
        for chunk in bytes.chunks_mut(8) {
            let v = rng.next().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
        Pattern(bytes)
    }

    /// The `len` fill bytes of record `(key, seq)`.
    pub fn fill(&self, key: u64, seq: u64, len: usize) -> &[u8] {
        let off =
            (key.wrapping_mul(31).wrapping_add(seq.wrapping_mul(17)) as usize) % PATTERN_WINDOW;
        &self.0[off..off + len]
    }
}

/// Assembles RECORD frames for the sender, tick by tick.
pub struct FrameBuilder<'a> {
    stream: &'a KeyStream,
    pattern: Pattern,
    payload: usize,
    /// Next per-key sequence number, indexed by key id.
    next_seq: Vec<u32>,
    /// Records emitted so far (the index of the next one).
    cursor: usize,
    /// Stamp one record in this many as traced; 0 stamps none.
    trace_every: u64,
}

/// Starts a RECORD frame of `n` records in `out`: wire header (version,
/// type, body length) and the record count.
fn begin_frame(out: &mut Vec<u8>, n: u32, payload: usize) {
    let body = 4 + n as usize * wire_record_len(payload);
    out.extend_from_slice(&[
        elasticutor_core::wire::WIRE_VERSION,
        elasticutor_ingress::RECORD_FRAME,
    ]);
    out.extend_from_slice(&(body as u32).to_le_bytes());
    out.extend_from_slice(&n.to_le_bytes());
}

impl<'a> FrameBuilder<'a> {
    pub fn new(spec: &Spec, stream: &'a KeyStream) -> FrameBuilder<'a> {
        FrameBuilder {
            stream,
            pattern: Pattern::new(spec.payload),
            payload: spec.payload,
            next_seq: vec![1; spec.keys as usize],
            cursor: 0,
            trace_every: 0,
        }
    }

    /// From the next frame on, stamp one record in `every` as traced
    /// (0: none). Which ones is a hash of the record's index, not a
    /// stride: a stride of 64 at 2 records per tick picks a record every
    /// 32 ms, which beats against the egress sender's 10 ms poll and
    /// samples the same poll phases over and over.
    pub fn trace_every(&mut self, every: u64) {
        self.trace_every = every;
    }

    /// Builds the frame carrying the next `n` records, each stamped with
    /// `intended_ns`, into `out` (cleared first).
    pub fn build(&mut self, out: &mut Vec<u8>, n: u32, intended_ns: u64) {
        out.clear();
        begin_frame(out, n, self.payload);
        for _ in 0..n {
            let i = self.cursor;
            self.cursor += 1;
            let key = u64::from(self.stream.key(i));
            let seq = u64::from(self.next_seq[key as usize]);
            self.next_seq[key as usize] += 1;
            let mut flags = 0;
            if self.stream.is_read(i) {
                flags |= FLAG_READ;
            }
            if self.trace_every > 0 && mix(i as u64).is_multiple_of(self.trace_every) {
                flags |= FLAG_TRACED;
            }
            write_record(
                out,
                &self.pattern,
                key,
                seq,
                flags,
                intended_ns,
                self.payload,
            );
        }
    }
}

/// Appends one record as it travels inside a RECORD frame: key, seq,
/// length prefix, payload.
fn write_record(
    out: &mut Vec<u8>,
    pattern: &Pattern,
    key: u64,
    seq: u64,
    flags: u8,
    intended_ns: u64,
    len: usize,
) {
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(len as u32).to_le_bytes());
    write_payload(out, pattern, key, seq, flags, intended_ns, len);
}

/// Appends one payload in the layout above.
pub fn write_payload(
    out: &mut Vec<u8>,
    pattern: &Pattern,
    key: u64,
    seq: u64,
    flags: u8,
    intended_ns: u64,
    len: usize,
) {
    out.extend_from_slice(&intended_ns.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.push(flags);
    out.extend_from_slice(&[0u8; 7]);
    out.extend_from_slice(pattern.fill(key, seq, len - HEADER_LEN));
}

/// A complete one-record RECORD frame — the set-up probe, and the unit
/// the isolated layer harness feeds.
pub fn single_record_frame(
    pattern: &Pattern,
    key: u64,
    seq: u64,
    len: usize,
    now_ns: u64,
) -> Vec<u8> {
    let mut out = Vec::new();
    begin_frame(&mut out, 1, len);
    write_record(&mut out, pattern, key, seq, 0, now_ns, len);
    out
}

/// The fields of a payload header, as both processes read them.
#[derive(Clone, Copy, Debug)]
pub struct Header {
    pub intended_ns: u64,
    pub seq: u64,
    pub flags: u8,
}

pub fn read_header(payload: &[u8]) -> Option<Header> {
    if payload.len() < HEADER_LEN {
        return None;
    }
    Some(Header {
        intended_ns: u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes")),
        seq: u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes")),
        flags: payload[16],
    })
}

/// Wall-clock nanoseconds. Every stamp in both processes uses this clock,
/// so child-side spans line up with the generator's send and receive
/// times without a handshake.
pub fn now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{spec, Profile};

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for name in crate::spec::WORKLOADS {
            let s = spec(name).unwrap();
            let p = Profile::new(&s, 2);
            let a = KeyStream::generate(&s, &p, 7);
            let b = KeyStream::generate(&s, &p, 7);
            let c = KeyStream::generate(&s, &p, 8);
            assert_eq!(a.digest, b.digest);
            assert_ne!(a.digest, c.digest);
            assert_eq!(a.len() as u64, p.total_records());
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.8);
        let mut rng = Rng::new(1);
        let mut head = 0;
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                head += 1;
            }
        }
        // Ranks 0..10 hold ~14 % of the mass at s = 0.8; uniform would be 1 %.
        assert!(head > 800, "head = {head}");
    }

    #[test]
    fn frames_decode_to_the_generated_records() {
        let s = spec("durable_mixed").unwrap();
        let p = Profile::new(&s, 1);
        let ks = KeyStream::generate(&s, &p, 3);
        let mut fb = FrameBuilder::new(&s, &ks);
        let mut frame = Vec::new();
        fb.build(&mut frame, 5, 42);
        let recs = elasticutor_ingress::decode_batch(&frame[6..]).unwrap();
        assert_eq!(recs.len(), 5);
        let pattern = Pattern::new(s.payload);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.key.value(), u64::from(ks.key(i)));
            let h = read_header(&r.payload).unwrap();
            assert_eq!(h.intended_ns, 42);
            assert_eq!(h.seq, r.seq);
            assert_eq!(h.flags & FLAG_READ != 0, i % 2 == 1);
            assert_eq!(
                &r.payload[HEADER_LEN..],
                pattern.fill(r.key.value(), r.seq, s.payload - HEADER_LEN)
            );
        }
    }
}
