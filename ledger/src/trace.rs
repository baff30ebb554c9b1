//! The traced run: joining the generator's own two stamps (intended send
//! time, receive time) with the five the child's seam wrappers took, per
//! sampled record, into the six segments of a record's life.
//!
//! ```text
//! intended send ─wire_in→ TracedIngest ─ingest_to_parse→ parse
//!   ─parse_to_count→ count ─count_to_sink→ TracedSink::consume
//!   ─sink_consume→ consume returns ─outbox_to_recv→ receiver callback
//! ```
//!
//! A record's segments add up to its latency by construction, so the
//! segment rows say which seam holds the milliseconds. All stamps are
//! wall-clock nanoseconds, taken by benchmark-owned code only.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::child::STAGES;
use crate::oracle::TracedRecord;
use crate::run::{metric, Metric};
use crate::stats::quantile;

pub const SEGMENTS: [&str; 6] = [
    "wire_in",
    "ingest_to_parse",
    "parse_to_count",
    "count_to_sink",
    "sink_consume",
    "outbox_to_recv",
];

/// A load level segment rows are reported at: records whose intended
/// send time falls in `[from_ns, to_ns)`.
pub struct Level {
    pub label: &'static str,
    pub from_ns: u64,
    pub to_ns: u64,
}

pub struct Traced {
    /// `trace.seg.<segment>_ms.<level>.<p50|p99>` and the sample's own
    /// median latency per level.
    pub metrics: Vec<Metric>,
    /// The span file: one JSON object per span and line.
    pub spans: String,
    /// Sampled records that carried every stamp.
    pub records: usize,
    /// Mean time from `TracedIngest` to `TracedSink` at the last level —
    /// what the §4 model's `E[T]` is compared with.
    pub in_dag_mean_ms: f64,
}

/// Parses the child's stamp file (`stage\tkey\tseq\tt_ns` per line),
/// keeping a record's first stamp per stage.
fn child_stamps(tsv: &str) -> Result<HashMap<(u64, u64), [u64; 5]>, String> {
    let mut by_record: HashMap<(u64, u64), [u64; 5]> = HashMap::new();
    for (n, line) in tsv.lines().enumerate() {
        let mut f = line.split('\t').map(str::parse::<u64>);
        let (Some(Ok(stage)), Some(Ok(key)), Some(Ok(seq)), Some(Ok(t))) =
            (f.next(), f.next(), f.next(), f.next())
        else {
            return Err(format!("stamp file line {}: malformed", n + 1));
        };
        let slot = by_record
            .entry((key, seq))
            .or_default()
            .get_mut(stage as usize)
            .ok_or(format!("stamp file line {}: unknown stage", n + 1))?;
        if *slot == 0 || t < *slot {
            *slot = t;
        }
    }
    Ok(by_record)
}

pub fn analyse(
    traced: &[TracedRecord],
    stamps_tsv: &str,
    levels: &[Level],
) -> Result<Traced, String> {
    let child = child_stamps(stamps_tsv)?;
    let mut metrics = Vec::new();
    let mut spans = String::new();
    let mut records = 0;
    let mut in_dag_mean_ms = f64::NAN;
    for level in levels {
        let mut segs: [Vec<u64>; 6] = Default::default();
        let mut latencies = Vec::new();
        let mut in_dag = Vec::new();
        for r in traced
            .iter()
            .filter(|r| (level.from_ns..level.to_ns).contains(&r.intended_ns))
        {
            let Some(c) = child.get(&(r.key, r.seq)) else {
                continue;
            };
            if c.contains(&0) {
                continue;
            }
            // The seven stamps in path order; a later one that reads
            // earlier (clock adjustment) yields an empty segment.
            let at = [r.intended_ns, c[0], c[1], c[2], c[3], c[4], r.recv_ns];
            let id = format!("{}:{}", r.key, r.seq);
            let _ = writeln!(
                spans,
                "{{\"record\": \"{id}\", \"name\": \"record\", \"parent\": null, \"level\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                level.label, at[0], at[6]
            );
            for (i, name) in SEGMENTS.iter().enumerate() {
                segs[i].push(at[i + 1].saturating_sub(at[i]));
                let _ = writeln!(
                    spans,
                    "{{\"record\": \"{id}\", \"name\": \"{name}\", \"parent\": \"record\", \"level\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                    level.label,
                    at[i],
                    at[i + 1]
                );
            }
            latencies.push(at[6].saturating_sub(at[0]));
            in_dag.push(at[4].saturating_sub(at[1]));
            records += 1;
        }
        for (name, samples) in SEGMENTS.iter().zip(&mut segs) {
            for (q, pct) in [(0.5, "p50"), (0.99, "p99")] {
                metrics.push(metric(
                    format!("trace.seg.{name}_ms.{}.{pct}", level.label),
                    quantile(samples, q).map_or(f64::NAN, |v| v as f64 / 1e6),
                    "ms",
                ));
            }
        }
        metrics.push(metric(
            format!("trace.sample_p50_ms.{}", level.label),
            quantile(&mut latencies, 0.5).map_or(f64::NAN, |v| v as f64 / 1e6),
            "ms",
        ));
        metrics.push(metric(
            format!("trace.samples.{}", level.label),
            latencies.len() as f64,
            "count",
        ));
        in_dag_mean_ms = in_dag.iter().sum::<u64>() as f64 / in_dag.len().max(1) as f64 / 1e6;
    }
    debug_assert_eq!(STAGES.len() + 1, SEGMENTS.len());
    Ok(Traced {
        metrics,
        spans,
        records,
        in_dag_mean_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_add_up_to_the_latency() {
        let traced = [TracedRecord {
            key: 7,
            seq: 3,
            intended_ns: 1_000_000,
            recv_ns: 10_000_000,
        }];
        // Stage 0 stamped twice (a retried admission): the first counts.
        let tsv = "0\t7\t3\t2000000\n0\t7\t3\t2500000\n1\t7\t3\t3000000\n2\t7\t3\t4000000\n3\t7\t3\t6000000\n4\t7\t3\t7000000\n";
        let levels = [Level {
            label: "lo",
            from_ns: 0,
            to_ns: 5_000_000,
        }];
        let t = analyse(&traced, tsv, &levels).unwrap();
        assert_eq!(t.records, 1);
        let sum: f64 = t
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("trace.seg.") && m.name.ends_with(".p50"))
            .map(|m| m.value)
            .sum();
        assert!((sum - 9.0).abs() < 1e-9, "sum = {sum}");
        assert!((t.in_dag_mean_ms - 4.0).abs() < 1e-9);
        assert_eq!(t.spans.lines().count(), 7);
        for line in t.spans.lines() {
            crate::json::Json::parse(line).unwrap();
        }
    }

    #[test]
    fn a_record_missing_a_stamp_is_left_out() {
        let traced = [TracedRecord {
            key: 1,
            seq: 1,
            intended_ns: 10,
            recv_ns: 20,
        }];
        let levels = [Level {
            label: "lo",
            from_ns: 0,
            to_ns: 100,
        }];
        let t = analyse(&traced, "0\t1\t1\t12\n", &levels).unwrap();
        assert_eq!(t.records, 0);
        assert!(analyse(&traced, "zero\t1\t1\t12\n", &levels).is_err());
    }
}
