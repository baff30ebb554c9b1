//! `ledger layers` — the isolated layer harness.
//!
//! Every number here is taken **from outside** a crate: by timing calls
//! into its public functions, fed the workload's own generated records.
//! Each measurement is short (tens of milliseconds) and prints under the
//! layer's crate name; the README says which end-to-end metric each one
//! should move, and on which workload.
//!
//! The counting allocator is armed only around single sections, so the
//! `*_allocs_per_rec` rows are exact counts.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use elasticutor_core::hash::key_to_shard;
use elasticutor_core::ids::{Key, NodeId, OperatorId, ShardId};
use elasticutor_core::routing::AtomicShardTable;
use elasticutor_core::wire;
use elasticutor_egress::frame::encode_data_frame;
use elasticutor_egress::{EgressServer, EgressServerConfig, SpillQueue, TcpEgress};
use elasticutor_ingress::{decode_batch, FrameScanner, IngressConfig, TcpIngress};
use elasticutor_metrics::LatencyHistogram;
use elasticutor_runtime::{
    monotonic_ns, ElasticExecutor, Ingest, LiveDag, Record, RecordBatch, Sink,
};
use elasticutor_scheduler::assignment::{Assignment, ClusterSpec};
use elasticutor_scheduler::scheduler::{DynamicScheduler, ExecutorMeasurement, SchedulerConfig};
use elasticutor_state::{DurableOptions, StateHandle, StateStore};

use crate::alloc;
use crate::child::{count_op, egress_config, executor_config, parse_op};
use crate::gen::{FrameBuilder, KeyStream};
use crate::harness::ScratchDir;
use crate::run::{metric, value_of, Metric};
use crate::spec::{Profile, Spec};
use crate::stats::quantile;

/// Records per frame / batch the harness feeds, matching the DAG's
/// `max_batch`.
const BATCH: usize = 64;

/// Inputs shared by the sections: the workload's first records as wire
/// frames, as decoded batches, and as a flat list.
struct Inputs {
    /// Whole RECORD frames (header included), [`BATCH`] records each.
    frames: Vec<Vec<u8>>,
    batches: Vec<RecordBatch>,
    records: usize,
}

impl Inputs {
    fn new(spec: &Spec, seed: u64, want: usize) -> Inputs {
        let profile = Profile::new(spec, 4);
        let stream = KeyStream::generate(spec, &profile, seed);
        let n = want.min(stream.len()) / BATCH * BATCH;
        let mut builder = FrameBuilder::new(spec, &stream);
        let mut frames = Vec::with_capacity(n / BATCH);
        let mut batches = Vec::with_capacity(n / BATCH);
        for _ in 0..n / BATCH {
            let mut f = Vec::new();
            builder.build(&mut f, BATCH as u32, 0);
            batches.push(decode_batch(&f[6..]).expect("own frame decodes"));
            frames.push(f);
        }
        Inputs {
            frames,
            batches,
            records: n,
        }
    }

    fn wire_bytes(&self) -> usize {
        self.frames.iter().map(Vec::len).sum()
    }
}

fn ns_per(n: usize, elapsed: Duration) -> f64 {
    elapsed.as_nanos() as f64 / n.max(1) as f64
}

fn rate(n: usize, elapsed: Duration) -> f64 {
    n as f64 / elapsed.as_secs_f64().max(1e-9)
}

fn pcts(
    name: &str,
    samples_ns: &mut [u64],
    unit_div: f64,
    unit: &'static str,
    out: &mut Vec<Metric>,
) {
    for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
        out.push(metric(
            format!("{name}.{label}"),
            quantile(samples_ns, q).map_or(f64::NAN, |v| v as f64 / unit_div),
            unit,
        ));
    }
}

/// An `Ingest` that only counts — what `ingress.tcp_rps` delivers into.
#[derive(Default)]
struct NullIngest(AtomicU64);

impl Ingest for NullIngest {
    fn ingest_batch(&self, batch: RecordBatch) {
        self.0.fetch_add(batch.len() as u64, Ordering::Release);
    }
    fn try_ingest_batch(&self, batch: RecordBatch) -> Result<(), RecordBatch> {
        self.ingest_batch(batch);
        Ok(())
    }
    fn accepted(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

fn noop(_r: &Record, _s: &StateHandle) -> Vec<Record> {
    Vec::new()
}

fn ingress(inputs: &Inputs, out: &mut Vec<Metric>) {
    // FrameScanner over the byte stream, fed in socket-read-sized pieces.
    let stream: Vec<u8> = inputs.frames.concat();
    let started = Instant::now();
    let mut scanner = FrameScanner::new();
    let mut frames = 0;
    for chunk in stream.chunks(64 << 10) {
        scanner.extend(chunk);
        while let Some(f) = scanner.next_frame().expect("own stream scans") {
            std::hint::black_box(&f);
            frames += 1;
        }
    }
    assert_eq!(frames, inputs.frames.len());
    out.push(metric(
        "ingress.scan_ns_per_rec",
        ns_per(inputs.records, started.elapsed()),
        "ns",
    ));

    let started = Instant::now();
    let ((), allocs, bytes) = alloc::count(|| {
        for f in &inputs.frames {
            std::hint::black_box(decode_batch(&f[6..]).expect("own frame decodes"));
        }
    });
    out.push(metric(
        "ingress.decode_ns_per_rec",
        ns_per(inputs.records, started.elapsed()),
        "ns",
    ));
    out.push(metric(
        "ingress.decode_allocs_per_rec",
        allocs as f64 / inputs.records as f64,
        "count",
    ));
    out.push(metric(
        "ingress.decode_alloc_bytes_per_rec",
        bytes as f64 / inputs.records as f64,
        "B",
    ));

    // TcpIngress alone: one loopback connection into a counting sink.
    let null = Arc::new(NullIngest::default());
    let server = TcpIngress::bind(
        IngressConfig {
            addr: "127.0.0.1:0".to_string(),
            readers: 1,
            credit: 1024,
            max_batch: 256,
            read_buffer: 64 << 10,
        },
        Arc::clone(&null) as Arc<dyn Ingest>,
    )
    .expect("bind ingress");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect ingress");
    let started = Instant::now();
    conn.write_all(&stream).expect("write frames");
    while (null.accepted() as usize) < inputs.records {
        std::thread::yield_now();
    }
    out.push(metric(
        "ingress.tcp_rps",
        rate(inputs.records, started.elapsed()),
        "1/s",
    ));
    drop(conn);
    server.shutdown();
}

fn core(inputs: &Inputs, out: &mut Vec<Metric>) {
    let table = AtomicShardTable::new(256, 0);
    let started = Instant::now();
    for batch in &inputs.batches {
        for r in batch {
            let shard = ShardId(key_to_shard(r.key.value(), 256));
            std::hint::black_box(table.begin_route(shard));
        }
    }
    out.push(metric(
        "core.route_ns_per_rec",
        ns_per(inputs.records, started.elapsed()),
        "ns",
    ));

    let block = vec![0xA5u8; 1 << 20];
    let rounds = 64;
    let started = Instant::now();
    for _ in 0..rounds {
        std::hint::black_box(wire::checksum(std::hint::black_box(&block)));
    }
    out.push(metric(
        "core.checksum_mibps",
        rounds as f64 / started.elapsed().as_secs_f64(),
        "MiB/s",
    ));
}

fn runtime(spec: &Spec, inputs: &Inputs, out: &mut Vec<Metric>) {
    // One executor, no-op operator, the ring plane the DAG uses.
    let mut cfg = executor_config(1, None);
    cfg.single_producer = true;
    let exec = ElasticExecutor::start(cfg.clone(), noop);
    let batches = inputs.batches.clone();
    let mut in_ingest = Duration::ZERO;
    let started = Instant::now();
    let ((), allocs, bytes) = alloc::count(|| {
        for b in batches {
            let t = Instant::now();
            exec.ingest_batch(b);
            in_ingest += t.elapsed();
        }
        exec.wait_for_processed(inputs.records as u64);
    });
    let total = started.elapsed();
    out.push(metric(
        "runtime.ingest_ns_per_rec",
        ns_per(inputs.records, in_ingest),
        "ns",
    ));
    out.push(metric(
        "runtime.exec_rps",
        rate(inputs.records, total),
        "1/s",
    ));
    out.push(metric(
        "runtime.exec_allocs_per_rec",
        allocs as f64 / inputs.records as f64,
        "count",
    ));
    out.push(metric(
        "runtime.exec_alloc_bytes_per_rec",
        bytes as f64 / inputs.records as f64,
        "B",
    ));
    exec.shutdown();

    // Idle hand-off: one record at a time, ingest → operator entered.
    let waits: Arc<Mutex<Vec<u64>>> = Arc::default();
    let seen = Arc::clone(&waits);
    let exec = ElasticExecutor::start(cfg.clone(), move |r: &Record, _s: &StateHandle| {
        seen.lock()
            .expect("waits lock")
            .push(monotonic_ns().saturating_sub(r.created_ns));
        Vec::new()
    });
    for i in 0..300u64 {
        exec.ingest(Record::new(Key(i), Bytes::new()));
        exec.wait_for_processed(i + 1);
        std::thread::sleep(Duration::from_micros(100));
    }
    exec.shutdown();
    pcts(
        "runtime.handoff_us",
        &mut waits.lock().expect("waits lock"),
        1e3,
        "us",
        out,
    );

    // The benchmark's own DAG in process: throughput with outputs
    // drained, then the idle two-hop latency.
    let (dag, parse, count) = build_dag(spec);
    let sink = dag.outputs(count).expect("count is the sink").clone();
    let port = dag.port(parse);
    let want = inputs.records;
    let drained = std::thread::scope(|scope| {
        let drain = scope.spawn(|| {
            let mut got = 0;
            while got < want {
                got += sink.recv().map_or(want, |b| b.len());
            }
            Instant::now()
        });
        let started = Instant::now();
        for b in inputs.batches.clone() {
            port.ingest_batch(b);
        }
        drain.join().expect("drain thread") - started
    });
    out.push(metric("runtime.dag_rps", rate(want, drained), "1/s"));

    let mut hops = Vec::with_capacity(300);
    let probe = inputs.batches[0][0].clone();
    for _ in 0..300 {
        let t = Instant::now();
        port.ingest(probe.clone());
        sink.recv().expect("dag output");
        hops.push(t.elapsed().as_nanos() as u64 / 2);
        std::thread::sleep(Duration::from_micros(100));
    }
    pcts("runtime.dag_hop_us", &mut hops, 1e3, "us", out);
    dag.shutdown();

    // §3.3 reassignment under load: 64 moves between two tasks while a
    // feeder keeps the executor busy; the executor's own log times them.
    let mut cfg2 = executor_config(2, None);
    cfg2.single_producer = true;
    let exec = ElasticExecutor::start(cfg2, noop);
    let tasks = exec.tasks();
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut i = 0;
            while !stop.load(Ordering::Acquire) {
                exec.ingest_batch(inputs.batches[i % inputs.batches.len()].clone());
                i += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        let owners = exec.assignment();
        for s in 0..64u32 {
            let to = if owners[s as usize] == tasks[0] {
                tasks[1]
            } else {
                tasks[0]
            };
            let _ = exec.reassign_shard(ShardId(s), to);
            std::thread::sleep(Duration::from_micros(500));
        }
        std::thread::sleep(Duration::from_millis(5));
        stop.store(true, Ordering::Release);
    });
    let stats = exec.shutdown();
    let mut totals: Vec<u64> = stats.reassignments.iter().map(|&(_, t)| t).collect();
    pcts("runtime.reassign_us", &mut totals, 1e3, "us", out);
}

/// The benchmark's DAG, as `serve` builds it, without the network edges.
fn build_dag(spec: &Spec) -> (LiveDag, OperatorId, OperatorId) {
    let mut b = LiveDag::builder();
    let parse = b.source("parse", executor_config(1, None), parse_op(None));
    let count = b.operator(
        "count",
        executor_config(1, None),
        count_op(spec, None, None),
    );
    b.key_edge(parse, count)
        .parallelism(parse, 1)
        .parallelism(count, 1)
        .capacity(4096)
        .max_batch(64);
    (b.build().expect("chain dag builds"), parse, count)
}

fn state(inputs: &Inputs, scratch: &ScratchDir, out: &mut Vec<Metric>) {
    // One update and then one lookup per record; returns the time each
    // pass took.
    let one = Bytes::copy_from_slice(&1u64.to_le_bytes());
    let passes = |store: &Arc<StateStore>| {
        let handles: Vec<StateHandle> = (0..256).map(|s| store.handle(ShardId(s))).collect();
        let handle = |k: Key| &handles[key_to_shard(k.value(), 256) as usize];
        let started = Instant::now();
        for r in inputs.batches.iter().flatten() {
            handle(r.key).update(r.key, |_| Some(one.clone()));
        }
        let updates = started.elapsed();
        let started = Instant::now();
        for r in inputs.batches.iter().flatten() {
            std::hint::black_box(handle(r.key).get(r.key));
        }
        (updates, started.elapsed())
    };

    let mem = Arc::new(StateStore::with_shards(256));
    let (updates, gets) = passes(&mem);
    out.push(metric(
        "state.update_ns",
        ns_per(inputs.records, updates),
        "ns",
    ));
    out.push(metric("state.get_ns", ns_per(inputs.records, gets), "ns"));

    // Extract + encode + decode + install of the largest shard: what a
    // scale-out pays per moved shard.
    let largest = (0..256)
        .map(ShardId)
        .max_by_key(|&s| mem.shard_bytes(s))
        .expect("256 shards");
    let started = Instant::now();
    let snap = mem.extract_shard(largest).expect("hosted shard");
    let wire_form = snap.encode();
    let back = elasticutor_state::ShardSnapshot::decode(&wire_form).expect("own snapshot decodes");
    mem.install_shard(back);
    out.push(metric(
        "state.snapshot_ms",
        started.elapsed().as_secs_f64() * 1e3,
        "ms",
    ));

    // The same passes on the durable backend: a WAL append per update,
    // then one checkpoint of everything dirty.
    let dir = scratch.path().join("layers-wal");
    let durable =
        StateStore::open_durable(256, DurableOptions::new(&dir).manual()).expect("open durable");
    let (updates, gets) = passes(&durable);
    let wal_bytes = durable.durable_stats().map_or(0, |d| d.wal_bytes);
    out.push(metric(
        "state.wal_put_ns",
        ns_per(inputs.records, updates),
        "ns",
    ));
    out.push(metric(
        "state.wal_mibps",
        wal_bytes as f64 / (1 << 20) as f64 / updates.as_secs_f64(),
        "MiB/s",
    ));
    out.push(metric(
        "state.get_ns_durable",
        ns_per(inputs.records, gets),
        "ns",
    ));
    let started = Instant::now();
    durable.checkpoint().expect("checkpoint");
    out.push(metric(
        "state.checkpoint_ms",
        started.elapsed().as_secs_f64() * 1e3,
        "ms",
    ));
}

fn scheduler(out: &mut Vec<Metric>) {
    // 8 operators on one 32-core node, loads spread so allocation has
    // real work to do.
    let cluster = ClusterSpec::uniform(1, 32);
    let current = Assignment::from_matrix(vec![vec![1]; 8]);
    let measurements: Vec<ExecutorMeasurement> = (0..8)
        .map(|j| ExecutorMeasurement {
            lambda: 2_000.0 + 1_500.0 * j as f64,
            mu: 5_000.0,
            state_bytes: 1e6,
            data_rate: 1e5,
            local_node: NodeId(0),
        })
        .collect();
    let sched = DynamicScheduler::new(SchedulerConfig::default());
    let rounds = 200;
    let started = Instant::now();
    for _ in 0..rounds {
        std::hint::black_box(
            sched
                .schedule(&cluster, &current, &measurements, 2_000.0)
                .expect("feasible round"),
        );
    }
    out.push(metric(
        "scheduler.schedule_us",
        started.elapsed().as_secs_f64() * 1e6 / rounds as f64,
        "us",
    ));
}

fn egress(inputs: &Inputs, scratch: &ScratchDir, out: &mut Vec<Metric>) {
    let started = Instant::now();
    let mut buf = Vec::new();
    for (i, b) in inputs.batches.iter().enumerate() {
        buf.clear();
        encode_data_frame(&mut buf, (i * BATCH) as u64 + 1, b);
        std::hint::black_box(&buf);
    }
    out.push(metric(
        "egress.encode_ns_per_rec",
        ns_per(inputs.records, started.elapsed()),
        "ns",
    ));

    let mut q = SpillQueue::open(scratch.path().join("layers-spill"), 8 << 20).expect("open spill");
    let started = Instant::now();
    for b in &inputs.batches {
        q.append(b).expect("append");
    }
    let took = started.elapsed();
    out.push(metric(
        "egress.spill_append_ns_per_rec",
        ns_per(inputs.records, took),
        "ns",
    ));
    out.push(metric(
        "egress.spill_append_mibps",
        q.bytes() as f64 / (1 << 20) as f64 / took.as_secs_f64(),
        "MiB/s",
    ));
    out.push(metric(
        "egress.spill_bytes_per_rec",
        q.bytes() as f64 / inputs.records as f64,
        "B",
    ));
    drop(q);

    // TcpEgress → EgressServer alone, then one idle consume at a time.
    let seen = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&seen);
    let server = EgressServer::bind(
        EgressServerConfig {
            bind: "127.0.0.1:0".to_string(),
            ack_every_frames: 1,
            watermark_path: None,
            io_timeout: Duration::from_millis(50),
        },
        Box::new(move |_, _, _, _| {
            counter.fetch_add(1, Ordering::Release);
        }),
    )
    .expect("bind egress server");
    let mut sink = TcpEgress::new(egress_config(
        &server.local_addr().to_string(),
        scratch.path().join("layers-outbox"),
    ))
    .expect("open egress");
    let wait_for = |n: u64| {
        while seen.load(Ordering::Acquire) < n {
            std::thread::sleep(Duration::from_micros(50));
        }
    };
    // Let the session come up before timing.
    sink.consume(inputs.batches[0].clone());
    wait_for(BATCH as u64);
    let started = Instant::now();
    for b in &inputs.batches {
        sink.consume(b.clone());
    }
    wait_for((BATCH + inputs.records) as u64);
    out.push(metric(
        "egress.deliver_rps",
        rate(inputs.records, started.elapsed()),
        "1/s",
    ));

    let mut idle = Vec::with_capacity(30);
    let mut delivered = (BATCH + inputs.records) as u64;
    for i in 0..30u64 {
        // Off the poll's own period, so the samples cover its phase.
        std::thread::sleep(Duration::from_micros(3_000 + 701 * (i % 10)));
        let t = Instant::now();
        sink.consume(vec![inputs.batches[0][0].clone()]);
        delivered += 1;
        wait_for(delivered);
        idle.push(t.elapsed().as_nanos() as u64);
    }
    pcts("egress.idle_deliver_ms", &mut idle, 1e6, "ms", out);
    sink.shutdown(Duration::from_secs(2));
    server.shutdown();
}

fn metrics_and_baseline(spec: &Spec, inputs: &Inputs, out: &mut Vec<Metric>) {
    let mut hist = LatencyHistogram::new();
    let n = 1_000_000u64;
    let started = Instant::now();
    for i in 0..n {
        hist.record(std::hint::black_box(1_000 + (i & 0xFFFF) * 37));
    }
    std::hint::black_box(hist.p99_ns());
    out.push(metric(
        "metrics.hist_record_ns",
        ns_per(n as usize, started.elapsed()),
        "ns",
    ));

    // The same job — decode → parse → count → encode — inline on one
    // thread with no queues: what every `*_rps` is read against.
    let store = Arc::new(StateStore::with_shards(256));
    let handles: Vec<StateHandle> = (0..256).map(|s| store.handle(ShardId(s))).collect();
    let parse = parse_op(None);
    let count = count_op(spec, None, None);
    use elasticutor_runtime::Operator;
    let mut buf = Vec::new();
    let mut seq = 1;
    let started = Instant::now();
    for f in &inputs.frames {
        let batch = decode_batch(&f[6..]).expect("own frame decodes");
        let mut emitted = Vec::with_capacity(batch.len());
        for r in &batch {
            let h = &handles[key_to_shard(r.key.value(), 256) as usize];
            for p in parse.process(r, h) {
                emitted.extend(count.process(&p, h));
            }
        }
        buf.clear();
        seq = encode_data_frame(&mut buf, seq, &emitted) + 1;
        std::hint::black_box(&buf);
    }
    out.push(metric(
        "baseline.inline_rps",
        rate(inputs.records, started.elapsed()),
        "1/s",
    ));
}

/// Runs every isolated section for `spec` and returns the rows, plus the
/// reconciliation row `ledger.layer_sum_us_per_rec`.
pub fn layers(spec: &Spec, seed: u64) -> Result<Vec<Metric>, String> {
    // Enough records that a section runs for tens of milliseconds, few
    // enough that the large payloads stay in a few tens of MiB.
    let want = (24 << 20) / spec.payload.max(64);
    let inputs = Inputs::new(spec, seed, want.clamp(BATCH * 64, 200_000));
    let scratch = ScratchDir::new().map_err(|e| format!("create scratch dir: {e}"))?;
    let mut out = vec![metric("layers.records", inputs.records as f64, "count")];
    out.push(metric(
        "layers.wire_bytes_per_rec",
        inputs.wire_bytes() as f64 / inputs.records as f64,
        "B",
    ));
    // The modeled service time is the workload's, not a layer's: with it
    // every section that runs `count` would only measure sleeping.
    let awake = Spec {
        service_us: 0,
        ..spec.clone()
    };
    ingress(&inputs, &mut out);
    core(&inputs, &mut out);
    runtime(&awake, &inputs, &mut out);
    state(&inputs, &scratch, &mut out);
    scheduler(&mut out);
    egress(&inputs, &scratch, &mut out);
    metrics_and_baseline(&awake, &inputs, &mut out);

    // Σ of the isolated per-record costs along one record's path.
    let get = |name: &str| value_of(&out, name);
    let state_ns = if spec.durable {
        // Every second record is a read on this workload.
        (get("state.wal_put_ns") + get("state.get_ns_durable")) / 2.0
    } else {
        get("state.update_ns")
    };
    let sum_ns = get("ingress.scan_ns_per_rec")
        + get("ingress.decode_ns_per_rec")
        + 2.0 * (get("core.route_ns_per_rec") + get("runtime.ingest_ns_per_rec"))
        + state_ns
        + get("egress.spill_append_ns_per_rec");
    out.push(metric("ledger.layer_sum_us_per_rec", sum_ns / 1e3, "us"));
    Ok(out)
}
