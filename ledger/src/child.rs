//! `ledger serve` — the system under test, run as a child process:
//! `TcpIngress{readers: 1}` → `LiveDag` (`parse` → key edge → stateful
//! `count`) → `TcpEgress`. Every config field is set explicitly, so a
//! changed default shows up as a diff here and not as a silent shift in
//! the numbers.
//!
//! The child gets the workload name and the run length, never the seed.
//! It talks to the generator over three channels: the ingress socket
//! (records in), the egress socket (records out) and stdio (one `READY`
//! line, `snap` requests answered with one JSON line of cumulative
//! counters, and `stop`, answered with the final dump).

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use elasticutor_core::ids::{Key, OperatorId};
use elasticutor_egress::{EgressConfig, EgressStats, TcpEgress};
use elasticutor_ingress::{IngressConfig, IngressStats, TcpIngress};
use elasticutor_runtime::{
    Backoff, ControllerConfig, ExecutorConfig, Ingest, LiveDag, Operator, Record, RecordBatch, Sink,
};
use elasticutor_scheduler::scheduler::SchedulerPolicy;
use elasticutor_state::StateHandle;

use crate::gen::{now_ns, read_header, FLAG_READ, FLAG_TRACED};
use crate::json::Json;
use crate::spec::{EventKind, Profile, Spec, PROBE_KEY};

/// Environment variables that change what the crates do. `main` removes
/// them before anything else runs — in the generator, and so from what
/// the child inherits — so the environment a benchmark is launched from
/// cannot change what is measured.
const SCRUBBED_ENV: [&str; 3] = [
    "ELASTICUTOR_BASELINE",
    "ELASTICUTOR_DURABILITY",
    "ELASTICUTOR_TEST_PARALLELISM",
];
const SCRUBBED_ENV_PREFIX: &str = "ELASTICUTOR_FAILPOINTS";

/// A deliberate defect in the benchmark's own `count` wrapper, so the
/// tests can show that the oracle is able to fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    Drop,
    Dup,
    Reorder,
    Flip,
    Miscount,
}

impl Fault {
    pub fn parse(s: &str) -> Option<Fault> {
        Some(match s {
            "drop" => Fault::Drop,
            "dup" => Fault::Dup,
            "reorder" => Fault::Reorder,
            "flip" => Fault::Flip,
            "miscount" => Fault::Miscount,
            _ => return None,
        })
    }
}

/// One record in this many is hit by the armed fault.
const FAULT_EVERY: u64 = 101;

pub struct ServeArgs {
    pub spec: Spec,
    pub seconds: u64,
    /// Address of the generator's `EgressServer`.
    pub sink: String,
    /// Per-run scratch directory (outbox, WAL, stamp file); the parent
    /// creates and removes it.
    pub dir: PathBuf,
    pub fault: Option<Fault>,
    pub trace: bool,
}

// ---------------------------------------------------------------------------
// Tracing: benchmark-owned stamps at the layer seams.
// ---------------------------------------------------------------------------

/// Seams a traced record is stamped at inside the child, in path order.
pub const STAGES: [&str; 5] = [
    "ingest_entered",
    "parse_entered",
    "count_entered",
    "sink_entered",
    "sink_left",
];

/// `(key, per-key seq, wall-clock ns)` per stage. One short lock per
/// *traced* record (1 in 64); untraced records never touch it.
#[derive(Default)]
pub(crate) struct Stamps {
    stages: [Mutex<Vec<(u64, u64, u64)>>; 5],
}

/// `(key, per-key seq)` of a record the generator marked for tracing.
fn traced_id(r: &Record) -> Option<(u64, u64)> {
    let h = read_header(&r.payload)?;
    (h.flags & FLAG_TRACED != 0).then_some((r.key.value(), h.seq))
}

impl Stamps {
    fn stamp(&self, stage: usize, ids: impl IntoIterator<Item = (u64, u64)>) {
        let now = now_ns();
        let mut ids = ids.into_iter().peekable();
        if ids.peek().is_some() {
            self.stages[stage]
                .lock()
                .expect("stamp lock")
                .extend(ids.map(|(key, seq)| (key, seq, now)));
        }
    }

    /// One line per stamp: `stage index \t key \t seq \t wall-clock ns`.
    /// (Tab-separated, not JSON: the generator joins a few hundred
    /// thousand of these and writes the span file itself.)
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (stage, stamps) in self.stages.iter().enumerate() {
            for &(key, seq, t) in stamps.lock().expect("stamp lock").iter() {
                writeln!(out, "{stage}\t{key}\t{seq}\t{t}")?;
            }
        }
        out.flush()
    }
}

/// The `Ingest` seam: stamps traced records as `TcpIngress` hands them
/// to the DAG's source port.
struct TracedIngest<I> {
    inner: I,
    stamps: Arc<Stamps>,
}

impl<I: Ingest> Ingest for TracedIngest<I> {
    fn ingest_batch(&self, batch: RecordBatch) {
        self.stamps.stamp(0, batch.iter().filter_map(traced_id));
        self.inner.ingest_batch(batch);
    }
    fn try_ingest_batch(&self, batch: RecordBatch) -> Result<(), RecordBatch> {
        // A rejected suffix comes back and is stamped again on retry;
        // the analysis keeps a record's first stamp per stage.
        self.stamps.stamp(0, batch.iter().filter_map(traced_id));
        self.inner.try_ingest_batch(batch)
    }
    fn accepted(&self) -> u64 {
        self.inner.accepted()
    }
}

/// The `Sink` seam: `TcpEgress`, stamped around `consume` (the outbox
/// append) in a traced run.
struct EgressSink {
    inner: TcpEgress,
    stamps: Option<Arc<Stamps>>,
}

impl Sink for EgressSink {
    fn consume(&mut self, batch: RecordBatch) {
        let Some(stamps) = &self.stamps else {
            return self.inner.consume(batch);
        };
        let ids: Vec<(u64, u64)> = batch.iter().filter_map(traced_id).collect();
        stamps.stamp(3, ids.iter().copied());
        self.inner.consume(batch);
        stamps.stamp(4, ids);
    }
    fn flush(&mut self) {
        self.inner.flush();
    }
}

// ---------------------------------------------------------------------------
// Operators.
// ---------------------------------------------------------------------------

/// `parse`: checks that the payload carries a header and forwards the
/// record (the payload is `Arc`-shared, so this copies no bytes).
pub(crate) struct ParseOp {
    stamps: Option<Arc<Stamps>>,
}

pub(crate) fn parse_op(stamps: Option<Arc<Stamps>>) -> ParseOp {
    ParseOp { stamps }
}

impl Operator for ParseOp {
    fn process(&self, record: &Record, _state: &StateHandle) -> Vec<Record> {
        if let Some(s) = &self.stamps {
            s.stamp(1, traced_id(record));
        }
        if read_header(&record.payload).is_none() {
            return Vec::new();
        }
        vec![record.clone()]
    }
}

/// `count`: the key's running count lives in the state store; an update
/// increments it, a read-only lookup only reads it. The count leaves in
/// the output record's `seq` field (the payload already carries the
/// per-key sequence number), so the operator itself copies no payload
/// bytes and what `large_payload` measures is the system's per-byte
/// cost, not the benchmark's.
pub(crate) struct CountOp {
    service: Duration,
    fault: Option<Fault>,
    stamps: Option<Arc<Stamps>>,
    seen: AtomicU64,
    /// `Fault::Reorder` holds one record per key back here.
    held: Mutex<HashMap<Key, Record>>,
}

pub(crate) fn count_op(spec: &Spec, fault: Option<Fault>, stamps: Option<Arc<Stamps>>) -> CountOp {
    CountOp {
        service: Duration::from_micros(spec.service_us),
        fault,
        stamps,
        seen: AtomicU64::new(0),
        held: Mutex::new(HashMap::new()),
    }
}

fn stored_count(v: Option<&Bytes>) -> u64 {
    v.and_then(|b| b.as_ref().try_into().ok())
        .map_or(0, u64::from_le_bytes)
}

impl Operator for CountOp {
    fn process(&self, record: &Record, state: &StateHandle) -> Vec<Record> {
        if let Some(s) = &self.stamps {
            s.stamp(2, traced_id(record));
        }
        if !self.service.is_zero() {
            std::thread::sleep(self.service);
        }
        let read_only = record.payload.get(16).is_some_and(|f| f & FLAG_READ != 0);
        let count = if read_only {
            stored_count(state.get(record.key).as_ref())
        } else {
            stored_count(
                state
                    .update(record.key, |old| {
                        Some(Bytes::copy_from_slice(
                            &(stored_count(old) + 1).to_le_bytes(),
                        ))
                    })
                    .as_ref(),
            )
        };
        let out = Record {
            key: record.key,
            payload: record.payload.clone(),
            created_ns: record.created_ns,
            seq: count,
        };
        match self.fault {
            Some(fault) if record.key.value() != PROBE_KEY => self.inject(fault, out),
            _ => vec![out],
        }
    }
}

impl CountOp {
    fn inject(&self, fault: Fault, mut out: Record) -> Vec<Record> {
        let hit = self.seen.fetch_add(1, Ordering::Relaxed) % FAULT_EVERY == FAULT_EVERY - 1;
        match fault {
            Fault::Reorder => {
                let mut held = self.held.lock().expect("held lock");
                if let Some(earlier) = held.remove(&out.key) {
                    return vec![out, earlier];
                }
                if hit {
                    held.insert(out.key, out);
                    return Vec::new();
                }
                vec![out]
            }
            _ if !hit => vec![out],
            Fault::Drop => Vec::new(),
            Fault::Dup => vec![out.clone(), out],
            Fault::Flip => {
                let mut bytes = out.payload.to_vec();
                let last = bytes.len() - 1;
                bytes[last] ^= 0x10;
                out.payload = Bytes::from(bytes);
                vec![out]
            }
            Fault::Miscount => {
                out.seq += 1;
                vec![out]
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stats dumps.
// ---------------------------------------------------------------------------

fn n(v: u64) -> Json {
    Json::Num(v as f64)
}

fn ingress_json(s: &IngressStats) -> Json {
    Json::obj([
        ("accepted", n(s.accepted)),
        ("closed", n(s.closed)),
        ("protocol_errors", n(s.protocol_errors)),
        ("frames_in", n(s.frames_in)),
        ("records_in", n(s.records_in)),
        ("records_delivered", n(s.records_delivered)),
        ("bytes_in", n(s.bytes_in)),
        ("stalls", n(s.stalls)),
    ])
}

fn egress_json(s: &EgressStats) -> Json {
    Json::obj([
        ("records_accepted", n(s.records_accepted)),
        ("last_appended", n(s.last_appended)),
        ("acked", n(s.acked)),
        ("records_sent", n(s.records_sent)),
        ("records_retransmitted", n(s.records_retransmitted)),
        ("frames_sent", n(s.frames_sent)),
        ("connects", n(s.connects)),
        ("connect_failures", n(s.connect_failures)),
        ("spill_frames", n(s.spill_frames)),
        ("spill_bytes", n(s.spill_bytes)),
        ("backlog", n(s.backlog())),
    ])
}

/// Cumulative counters of every layer, from the layers' own public stats.
fn snapshot(
    dag: &LiveDag,
    ops: [OperatorId; 2],
    ingress: &TcpIngress,
    egress: &EgressStats,
) -> Json {
    let op_json = |op: OperatorId| {
        let g = dag.group(op);
        let load = g.load_sample();
        Json::obj([
            ("arrivals", n(load.arrivals)),
            ("processed", n(load.processed)),
            ("busy_ns", n(load.busy_ns)),
            ("state_bytes", n(load.state_bytes)),
            ("tasks", n(g.total_tasks() as u64)),
            ("instances", n(g.num_live() as u64)),
        ])
    };
    let durable = dag.executor(ops[1]).state().durable_stats();
    Json::obj([
        ("t_ns", n(now_ns())),
        ("ingress", ingress_json(&ingress.stats())),
        ("parse", op_json(ops[0])),
        ("count", op_json(ops[1])),
        ("egress", egress_json(egress)),
        (
            "durable",
            durable.map_or(Json::Null, |d| {
                Json::obj([
                    ("wal_bytes", n(d.wal_bytes)),
                    ("wal_epoch", n(d.wal_epoch)),
                    ("runs", n(d.runs as u64)),
                    ("manifest_seq", n(d.manifest_seq)),
                ])
            }),
        ),
    ])
}

/// A scripted rescale the child performed: what, when, how long the call
/// took and how it ended.
struct ScaleRecord {
    kind: EventKind,
    at_ns: u64,
    took: Duration,
    ok: bool,
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

pub(crate) fn executor_config(tasks: u32, durability: Option<PathBuf>) -> ExecutorConfig {
    ExecutorConfig {
        num_shards: 256,
        initial_tasks: tasks,
        imbalance_threshold: 1.2,
        max_moves_per_rebalance: 64,
        output_capacity: None,
        max_task_slots: 64,
        baseline_locked_routing: false,
        single_producer: false,
        ring_capacity: None,
        quarantine_after: None,
        durability,
    }
}

pub(crate) fn egress_config(primary: &str, spill_dir: PathBuf) -> EgressConfig {
    EgressConfig {
        primary: primary.to_string(),
        standby: None,
        spill_dir,
        retry: Backoff {
            base: Duration::from_millis(50),
            factor: 2.0,
            cap: Duration::from_secs(2),
            max_attempts: 3,
        },
        jitter: 0.2,
        ack_deadline: Duration::from_millis(500),
        io_timeout: Duration::from_secs(1),
        poll_interval: Duration::from_millis(10),
        segment_bytes: 8 * 1024 * 1024,
    }
}

pub fn scrub_env() {
    let doomed: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| SCRUBBED_ENV.contains(&k.as_str()) || k.starts_with(SCRUBBED_ENV_PREFIX))
        .collect();
    for k in doomed {
        std::env::remove_var(k);
    }
}

pub fn serve(args: ServeArgs) -> Result<(), String> {
    let spec = &args.spec;
    let stamps = args.trace.then(|| Arc::new(Stamps::default()));

    let mut b = LiveDag::builder();
    let parse = b.source("parse", executor_config(1, None), parse_op(stamps.clone()));
    let count = b.operator(
        "count",
        executor_config(1, spec.durable.then(|| args.dir.join("wal"))),
        count_op(spec, args.fault, stamps.clone()),
    );
    b.key_edge(parse, count)
        .parallelism(parse, 1)
        .parallelism(count, 1)
        .capacity(4096)
        .max_batch(64);
    if spec.controller {
        b.controller(ControllerConfig {
            interval: Duration::from_millis(200),
            total_cores: 8,
            latency_target: crate::spec::LATENCY_LIMIT_MS / 1000.0,
            default_mu: 10_000.0,
            min_mu_samples: 50,
            policy: SchedulerPolicy::Optimized,
            reclaim_surplus: true,
            reclaim_patience: 3,
            auto_instances: false,
            max_tasks_per_instance: 4,
            instance_patience: 3,
            verbose: false,
        });
    }
    let controller_started_ns = now_ns();
    let dag = b.build().map_err(|e| format!("build dag: {e}"))?;

    let egress = TcpEgress::new(egress_config(&args.sink, args.dir.join("outbox")))
        .map_err(|e| format!("open egress: {e}"))?;
    let egress_handle = egress.handle();
    let sink = EgressSink {
        inner: egress,
        stamps: stamps.clone(),
    };
    let sink_handle = dag
        .attach_sink(count, "egress", sink)
        .expect("count is the sink operator");

    let port = dag.port(parse);
    let target: Arc<dyn Ingest> = match &stamps {
        Some(s) => Arc::new(TracedIngest {
            inner: port.clone(),
            stamps: Arc::clone(s),
        }),
        None => Arc::new(port.clone()),
    };
    let ingress = TcpIngress::bind(
        IngressConfig {
            addr: "127.0.0.1:0".to_string(),
            readers: 1,
            credit: 1024,
            max_batch: 256,
            read_buffer: 64 << 10,
        },
        target,
    )
    .map_err(|e| format!("bind ingress: {e}"))?;

    let stdout = std::io::stdout();
    let say = |line: String| {
        let mut out = stdout.lock();
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    };
    say(format!("READY {}", ingress.local_addr()));

    let stop = AtomicBool::new(false);
    let profile = Profile::new(spec, args.seconds);
    let scales: Mutex<Vec<ScaleRecord>> = Mutex::new(Vec::new());

    let parent_gone = std::thread::scope(|scope| {
        // Scripted rescales, counted from the first record after the
        // set-up probe (which is the first tick of the profile).
        scope.spawn(|| {
            let script: Vec<_> = profile
                .events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::ScaleOut | EventKind::ScaleIn))
                .collect();
            if script.is_empty() {
                return;
            }
            while port.accepted() <= 1 {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            let t0 = Instant::now();
            for ev in script {
                let due = t0 + Duration::from_millis(ev.tick);
                while Instant::now() < due {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                let at_ns = now_ns();
                let started = Instant::now();
                let ok = match ev.kind {
                    EventKind::ScaleOut => dag.scale_out(count).is_ok(),
                    _ => dag.scale_in(count).is_ok(),
                };
                scales.lock().expect("scale log").push(ScaleRecord {
                    kind: ev.kind,
                    at_ns,
                    took: started.elapsed(),
                    ok,
                });
            }
        });

        // Control loop. EOF without `stop` means the generator died:
        // leave at once rather than linger as an orphan.
        let mut gone = true;
        for line in std::io::stdin().lock().lines() {
            match line.as_deref().map(str::trim) {
                Ok("snap") => say(format!(
                    "SNAP {}",
                    snapshot(&dag, [parse, count], &ingress, &egress_handle.stats()).dump()
                )),
                Ok("stop") => {
                    gone = false;
                    break;
                }
                _ => {}
            }
        }
        stop.store(true, Ordering::Release);
        gone
    });
    if parent_gone {
        std::process::exit(3);
    }

    // Orderly teardown, reading each layer's final public stats.
    let last = snapshot(&dag, [parse, count], &ingress, &egress_handle.stats());
    let controller_log = dag.controller_log();
    let rescale_log = dag.group(count).rescale_log();
    let ingress_stats = ingress.shutdown();
    let op_stats = dag.shutdown();
    let (sink, _consumed) = sink_handle.join();
    let egress_stats = sink.inner.shutdown(Duration::from_secs(10));

    let count_stats = &op_stats[count.index()].stats;
    let mut fin = match last {
        Json::Obj(m) => m,
        _ => unreachable!("snapshot is an object"),
    };
    fin.insert("controller_started_ns".into(), n(controller_started_ns));
    fin.insert("ingress".into(), ingress_json(&ingress_stats));
    fin.insert("egress".into(), egress_json(&egress_stats));
    fin.insert(
        "count_latency".into(),
        Json::obj([
            ("p50_ns", Json::Num(count_stats.latency.p50_ns())),
            ("p99_ns", Json::Num(count_stats.latency.p99_ns())),
            ("mean_ns", Json::Num(count_stats.latency.mean_ns())),
            ("samples", n(count_stats.latency.count())),
        ]),
    );
    fin.insert(
        "operator_panics".into(),
        n(op_stats.iter().map(|o| o.stats.operator_panics).sum()),
    );
    fin.insert(
        "reassignments".into(),
        Json::Arr(
            count_stats
                .reassignments
                .iter()
                .map(|&(sync, total)| Json::Arr(vec![n(sync), n(total)]))
                .collect(),
        ),
    );
    fin.insert(
        "controller".into(),
        Json::Arr(
            controller_log
                .iter()
                .map(|e| {
                    let list = |v: &[u32]| Json::Arr(v.iter().map(|&c| n(u64::from(c))).collect());
                    let flist = |v: &[f64]| Json::Arr(v.iter().map(|&c| Json::Num(c)).collect());
                    Json::obj([
                        ("at_ms", n(e.at_ms)),
                        ("lambda", flist(&e.lambda)),
                        ("mu", flist(&e.mu)),
                        ("targets", list(&e.targets)),
                        ("cores", list(&e.cores)),
                        ("rebalance_moves", n(e.rebalance_moves as u64)),
                    ])
                })
                .collect(),
        ),
    );
    fin.insert(
        "rescales".into(),
        Json::Arr(
            rescale_log
                .iter()
                .map(|r| {
                    Json::obj([
                        ("grew", Json::Bool(r.grew)),
                        ("shards_moved", n(r.shards_moved as u64)),
                        ("live_after", n(r.live_after as u64)),
                    ])
                })
                .collect(),
        ),
    );
    fin.insert(
        "scale_calls".into(),
        Json::Arr(
            scales
                .lock()
                .expect("scale log")
                .iter()
                .map(|s| {
                    Json::obj([
                        ("out", Json::Bool(s.kind == EventKind::ScaleOut)),
                        ("at_ns", n(s.at_ns)),
                        ("took_us", n(s.took.as_micros() as u64)),
                        ("ok", Json::Bool(s.ok)),
                    ])
                })
                .collect(),
        ),
    );
    if let Some(s) = &stamps {
        s.write(&args.dir.join("stamps.tsv"))
            .map_err(|e| format!("write stamps: {e}"))?;
    }
    say(format!("FINAL {}", Json::Obj(fin).dump()));
    Ok(())
}
