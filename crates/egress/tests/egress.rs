//! End-to-end egress plane tests: delivery, FIFO, spill-while-
//! unreachable, failover, and rewind-retransmission — all over real
//! loopback TCP.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use elasticutor_core::ids::Key;
use elasticutor_egress::{frame, EgressConfig, EgressServer, EgressServerConfig, TcpEgress};
use elasticutor_ingress::FrameScanner;
use elasticutor_runtime::{Backoff, ExecutorConfig, FifoChecker, Ingest, Pipeline, Record, Sink};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!(
        "elasticutor-egress-test-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    cond()
}

/// Collects deliveries: per-key FIFO check plus a (key → seqs) map.
struct Collector {
    fifo: FifoChecker,
    total: AtomicU64,
    by_key: Mutex<HashMap<u64, Vec<u64>>>,
}

impl Collector {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            fifo: FifoChecker::new(),
            total: AtomicU64::new(0),
            by_key: Mutex::new(HashMap::new()),
        })
    }

    fn deliver_fn(self: &Arc<Self>) -> Box<elasticutor_egress::DeliverFn> {
        let me = Arc::clone(self);
        Box::new(move |_seq, key, rec_seq, _payload| {
            me.fifo.observe(key, rec_seq);
            me.total.fetch_add(1, Ordering::AcqRel);
            me.by_key
                .lock()
                .unwrap()
                .entry(key.value())
                .or_default()
                .push(rec_seq);
        })
    }
}

fn records(keys: u64, per_key: u64) -> Vec<Record> {
    // Round-robin across keys, per-key seqs 1..=per_key.
    let mut out = Vec::new();
    for s in 1..=per_key {
        for k in 0..keys {
            out.push(Record::new(Key(k), Bytes::from(vec![k as u8; 16])).with_seq(s));
        }
    }
    out
}

/// An ephemeral loopback address nothing is listening on (bound, then
/// dropped — the port stays free long enough for a test).
fn dead_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap();
    drop(l);
    addr.to_string()
}

#[test]
fn delivers_everything_in_per_key_fifo_order() {
    let dir = tmp_dir("basic");
    let collector = Collector::new();
    let server = EgressServer::bind(
        EgressServerConfig::new("127.0.0.1:0"),
        collector.deliver_fn(),
    )
    .unwrap();

    let mut egress = TcpEgress::new(EgressConfig::new(
        server.local_addr().to_string(),
        dir.join("spill"),
    ))
    .unwrap();

    const KEYS: u64 = 8;
    const PER_KEY: u64 = 200;
    for chunk in records(KEYS, PER_KEY).chunks(37) {
        egress.consume(chunk.to_vec());
    }
    let handle = egress.handle();
    assert!(handle.drain(Duration::from_secs(10)), "drain timed out");
    let stats = egress.shutdown(Duration::from_secs(5));
    assert_eq!(stats.records_accepted, KEYS * PER_KEY);
    assert_eq!(stats.acked, stats.last_appended);

    assert_eq!(collector.total.load(Ordering::Acquire), KEYS * PER_KEY);
    assert!(collector.fifo.is_clean(), "per-key FIFO violated");
    let by_key = collector.by_key.lock().unwrap();
    for k in 0..KEYS {
        assert_eq!(by_key[&k], (1..=PER_KEY).collect::<Vec<_>>(), "key {k}");
    }
    // Healthy path: the outbox is trimmed at ACK pace, nothing retained.
    assert_eq!(stats.spill_frames, 0);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pipeline_attach_sink_routes_dag_output_through_egress() {
    let dir = tmp_dir("pipeline");
    let collector = Collector::new();
    let server = EgressServer::bind(
        EgressServerConfig::new("127.0.0.1:0"),
        collector.deliver_fn(),
    )
    .unwrap();

    let pipe = Pipeline::builder()
        .stage(
            "pass",
            ExecutorConfig {
                num_shards: 8,
                ..ExecutorConfig::default()
            },
            |r: &Record, _s: &elasticutor_state::StateHandle| vec![r.clone()],
        )
        .build();
    let egress = TcpEgress::new(EgressConfig::new(
        server.local_addr().to_string(),
        dir.join("spill"),
    ))
    .unwrap();
    let handle = egress.handle();
    let sink = pipe.attach_sink("egress", egress);

    const N: u64 = 500;
    for i in 0..N {
        pipe.ingest(Record::new(Key(i % 4), Bytes::from(vec![1u8; 8])).with_seq(i / 4 + 1));
    }
    assert!(
        wait_until(Duration::from_secs(10), || {
            handle.stats().records_accepted == N
        }),
        "DAG output never reached the sink: {:?}",
        handle.stats()
    );
    pipe.shutdown();
    let (egress, consumed) = sink.join();
    assert_eq!(consumed, N);
    assert!(handle.drain(Duration::from_secs(10)), "drain timed out");
    egress.shutdown(Duration::from_secs(5));

    assert_eq!(collector.total.load(Ordering::Acquire), N);
    assert!(collector.fifo.is_clean());
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unreachable_sink_spills_without_blocking_then_drains_on_restore() {
    let dir = tmp_dir("degraded");
    let addr = dead_addr();
    let mut egress = TcpEgress::new(EgressConfig::new(&addr, dir.join("spill")).with_retry(
        Backoff {
            base: Duration::from_millis(10),
            factor: 2.0,
            cap: Duration::from_millis(50),
            max_attempts: u32::MAX,
        },
    ))
    .unwrap();

    // With nobody listening, consume() must accept everything at disk
    // speed: the DAG is never exposed to the dead sink.
    const KEYS: u64 = 4;
    const PER_KEY: u64 = 250;
    let accept_start = Instant::now();
    for chunk in records(KEYS, PER_KEY).chunks(50) {
        egress.consume(chunk.to_vec());
    }
    let accept_elapsed = accept_start.elapsed();
    let stats = egress.stats();
    assert_eq!(stats.records_accepted, KEYS * PER_KEY);
    assert_eq!(stats.acked, 0, "nothing can be acked while unreachable");
    assert!(stats.spill_frames > 0, "outbox should hold the backlog");
    assert!(
        accept_elapsed < Duration::from_secs(2),
        "consume() blocked on a dead sink: {accept_elapsed:?}"
    );
    // (The accept loop above can finish before the sender thread's
    // first connect attempt has even failed — wait for it.)
    assert!(
        wait_until(Duration::from_secs(2), || egress.stats().connect_failures
            > 0),
        "sender should be retrying"
    );

    // Sink comes back on the same address: the backlog drains in order.
    let collector = Collector::new();
    let server =
        EgressServer::bind(EgressServerConfig::new(&addr), collector.deliver_fn()).unwrap();
    let handle = egress.handle();
    assert!(
        handle.drain(Duration::from_secs(10)),
        "backlog never drained"
    );
    egress.shutdown(Duration::from_secs(5));

    assert_eq!(collector.total.load(Ordering::Acquire), KEYS * PER_KEY);
    assert!(collector.fifo.is_clean());
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fails_over_to_standby_when_primary_is_dead() {
    let dir = tmp_dir("failover");
    let collector = Collector::new();
    let standby = EgressServer::bind(
        EgressServerConfig::new("127.0.0.1:0"),
        collector.deliver_fn(),
    )
    .unwrap();

    let mut egress = TcpEgress::new(
        EgressConfig::new(dead_addr(), dir.join("spill"))
            .with_standby(standby.local_addr().to_string())
            .with_retry(Backoff {
                base: Duration::from_millis(5),
                factor: 2.0,
                cap: Duration::from_millis(20),
                max_attempts: 2,
            }),
    )
    .unwrap();

    const N: usize = 300;
    egress.consume(records(3, 100));
    let handle = egress.handle();
    assert!(
        handle.drain(Duration::from_secs(10)),
        "failover never drained"
    );
    let stats = egress.shutdown(Duration::from_secs(5));
    assert!(stats.failovers >= 1, "expected a failover: {stats:?}");
    assert_eq!(collector.total.load(Ordering::Acquire), N as u64);
    assert!(collector.fifo.is_clean());
    standby.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// How the rude receiver of [`ack_starvation`] ends its session.
#[derive(Clone, Copy, PartialEq)]
enum Rude {
    /// Hangs up after swallowing the first frame: the sender sees EOF.
    HangUp,
    /// Keeps the connection open and keeps swallowing until the
    /// *sender* hangs up: only the ACK deadline can end the session.
    HoldOpen,
}

/// A timer-paced sender must fail these tests decisively, not
/// marginally: with this heartbeat, anything that waits for it is
/// seconds late.
const LONG_POLL: Duration = Duration::from_secs(5);

fn long_poll(mut config: EgressConfig) -> EgressConfig {
    config.poll_interval = LONG_POLL;
    config
}

/// A scripted receiver that speaks just enough protocol to be rude: one
/// session that HELLOs (watermark 0), swallows DATA frames and never
/// ACKs. Returns the listener (for a better-behaved successor), the
/// records swallowed, and how long the session lasted past its first
/// frame.
fn rude_session(listener: TcpListener, rude: Rude) -> (TcpListener, u64, Duration) {
    use std::io::{Read, Write};
    let (mut sock, _) = listener.accept().unwrap();
    let mut hello = Vec::new();
    frame::encode_ctrl_frame(&mut hello, frame::MSG_EGRESS_HELLO, 0);
    sock.write_all(&hello).unwrap();
    let mut scanner = FrameScanner::new();
    let mut buf = [0u8; 4096];
    let mut swallowed = 0u64;
    let mut first_frame_at = None;
    loop {
        let n = sock.read(&mut buf).unwrap_or(0);
        if n == 0 {
            break;
        }
        scanner.extend(&buf[..n]);
        while let Some((t, payload)) = scanner.next_frame().unwrap() {
            assert_eq!(t, frame::MSG_EGRESS_DATA);
            let f = frame::decode_data_frame(&payload).unwrap();
            swallowed += f.records.len() as u64;
            first_frame_at.get_or_insert_with(Instant::now);
        }
        if rude == Rude::HangUp && swallowed > 0 {
            break;
        }
    }
    drop(sock);
    let starved_for = first_frame_at.expect("rude server saw no frames").elapsed();
    (listener, swallowed, starved_for)
}

/// The sender must notice a receiver that never ACKs (EOF, or its ACK
/// deadline), reconnect, and retransmit; the real server it reaches
/// next — on the same listener — must see every record exactly once.
fn ack_starvation(name: &str, rude: Rude) {
    let dir = tmp_dir(name);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    const ACK_DEADLINE: Duration = Duration::from_millis(100);
    let session = std::thread::spawn(move || rude_session(listener, rude));

    let mut egress = TcpEgress::new(long_poll(
        EgressConfig::new(addr.to_string(), dir.join("spill")).with_ack_deadline(ACK_DEADLINE),
    ))
    .unwrap();
    const KEYS: u64 = 4;
    const PER_KEY: u64 = 50;
    for chunk in records(KEYS, PER_KEY).chunks(20) {
        egress.consume(chunk.to_vec());
    }
    let (listener, swallowed, starved_for) = session.join().unwrap();
    assert!(swallowed > 0, "rude server saw no frames");
    if rude == Rude::HoldOpen {
        // The sender gave up on the silent link by itself, at its ACK
        // deadline — the wait is bounded by real deadlines, not by the
        // (fifty times longer) heartbeat.
        assert!(
            starved_for >= ACK_DEADLINE / 2 && starved_for < ACK_DEADLINE * 10,
            "rewind after {starved_for:?}, ack deadline {ACK_DEADLINE:?}"
        );
    }

    // Session 2+: a well-behaved server on the SAME listener.
    let collector = Collector::new();
    let server = EgressServer::bind_on(
        listener,
        EgressServerConfig::new("127.0.0.1:0"),
        collector.deliver_fn(),
    )
    .unwrap();
    let handle = egress.handle();
    assert!(
        handle.drain(Duration::from_secs(3)),
        "retransmit never drained"
    );
    let stats = egress.shutdown(Duration::from_secs(5));

    // Everything the rude server swallowed was retransmitted…
    assert!(
        stats.records_retransmitted >= swallowed,
        "expected >= {swallowed} retransmits, got {}",
        stats.records_retransmitted
    );
    // …and the receiver saw every record exactly once (its watermark
    // started at 0, so no overlap was deliverable twice), in order.
    assert_eq!(collector.total.load(Ordering::Acquire), KEYS * PER_KEY);
    assert!(collector.fifo.is_clean());
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ack_starvation_forces_rewind_retransmit_with_bounded_dups() {
    ack_starvation("rewind", Rude::HangUp);
}

#[test]
fn silent_receiver_is_abandoned_at_the_ack_deadline_not_the_heartbeat() {
    ack_starvation("rewind-deadline", Rude::HoldOpen);
}

/// Per-delivery-seq arrival times, for latency assertions.
fn arrival_log() -> (
    Arc<Mutex<HashMap<u64, Instant>>>,
    Box<elasticutor_egress::DeliverFn>,
) {
    let log = Arc::new(Mutex::new(HashMap::new()));
    let sink = Arc::clone(&log);
    (
        log,
        Box::new(move |seq, _key, _rec_seq, _payload| {
            sink.lock().unwrap().insert(seq, Instant::now());
        }),
    )
}

/// The tentpole property: a record handed to an *idle* sink is on the
/// wire when the sender wakes, not when a pacing timer next fires.
#[test]
fn idle_consume_is_delivered_on_wake_not_on_a_timer() {
    let dir = tmp_dir("idle");
    let (arrivals, deliver) = arrival_log();
    let server = EgressServer::bind(EgressServerConfig::new("127.0.0.1:0"), deliver).unwrap();
    let mut egress = TcpEgress::new(long_poll(EgressConfig::new(
        server.local_addr().to_string(),
        dir.join("spill"),
    )))
    .unwrap();

    const N: u64 = 50;
    let mut consumed_at = Vec::new();
    for i in 0..N {
        // Spaced out so every consume finds the sender parked.
        std::thread::sleep(Duration::from_millis(5));
        consumed_at.push(Instant::now());
        egress.consume(vec![
            Record::new(Key(i % 4), Bytes::from_static(b"idle")).with_seq(i / 4 + 1)
        ]);
    }
    assert!(
        egress.handle().drain(Duration::from_secs(3)),
        "idle records never drained: {:?}",
        egress.stats()
    );
    let stats = egress.shutdown(Duration::from_secs(1));
    assert_eq!((stats.connects, stats.records_retransmitted), (1, 0));

    let arrivals = arrivals.lock().unwrap();
    let mut latency: Vec<Duration> = (0..N)
        .map(|i| arrivals[&(i + 1)].saturating_duration_since(consumed_at[i as usize]))
        .collect();
    latency.sort();
    let (median, worst) = (latency[latency.len() / 2], latency[latency.len() - 1]);
    assert!(
        median < Duration::from_millis(5) && worst < Duration::from_millis(500),
        "idle deliveries paced by a timer: median {median:?}, worst {worst:?}"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// No stop path waits out a heartbeat, a back-off or a silent peer.
#[test]
fn stopping_never_waits_for_a_timer() {
    let prompt = Duration::from_millis(200);

    // A drained sink: shutdown has nothing to wait for.
    let dir = tmp_dir("stop-drained");
    let collector = Collector::new();
    let server = EgressServer::bind(
        EgressServerConfig::new("127.0.0.1:0"),
        collector.deliver_fn(),
    )
    .unwrap();
    let mut egress = TcpEgress::new(long_poll(EgressConfig::new(
        server.local_addr().to_string(),
        dir.join("spill"),
    )))
    .unwrap();
    egress.consume(records(2, 10));
    assert!(egress.handle().drain(Duration::from_secs(3)));
    let t = Instant::now();
    let stats = egress.shutdown(Duration::from_secs(5));
    assert!(
        t.elapsed() < prompt,
        "drained shutdown took {:?}",
        t.elapsed()
    );
    assert_eq!(stats.acked, stats.last_appended);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    // The same sink stopped with its last ACK still on the way: the
    // drain ends at that ACK, not at the next heartbeat after it.
    let dir = tmp_dir("stop-draining");
    let collector = Collector::new();
    let server = EgressServer::bind(
        EgressServerConfig::new("127.0.0.1:0"),
        collector.deliver_fn(),
    )
    .unwrap();
    let mut egress = TcpEgress::new(long_poll(EgressConfig::new(
        server.local_addr().to_string(),
        dir.join("spill"),
    )))
    .unwrap();
    egress.consume(records(2, 10));
    assert!(wait_until(Duration::from_secs(3), || {
        collector.total.load(Ordering::Acquire) == 20
    }));
    let t = Instant::now();
    let stats = egress.shutdown(Duration::from_secs(5));
    assert!(
        t.elapsed() < prompt,
        "draining shutdown took {:?}",
        t.elapsed()
    );
    assert_eq!(stats.acked, stats.last_appended);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    // An undrained sink whose peer accepted the frames and went silent:
    // Drop abandons the session at once (the outbox keeps the records).
    let dir = tmp_dir("stop-undrained");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let silent = std::thread::spawn(move || rude_session(listener, Rude::HoldOpen));
    let mut egress = TcpEgress::new(long_poll(
        EgressConfig::new(addr.to_string(), dir.join("spill"))
            .with_ack_deadline(Duration::from_secs(30)),
    ))
    .unwrap();
    egress.consume(records(2, 10));
    assert!(wait_until(Duration::from_secs(3), || {
        egress.stats().records_sent == 20
    }));
    let t = Instant::now();
    drop(egress);
    assert!(
        t.elapsed() < prompt,
        "undrained drop took {:?}",
        t.elapsed()
    );
    silent.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // An undrained sink with no peer at all, asleep in a long connect
    // back-off.
    let dir = tmp_dir("stop-backoff");
    let mut egress = TcpEgress::new(
        EgressConfig::new(dead_addr(), dir.join("spill")).with_retry(Backoff {
            base: Duration::from_secs(5),
            factor: 1.0,
            cap: Duration::from_secs(5),
            max_attempts: u32::MAX,
        }),
    )
    .unwrap();
    egress.consume(records(2, 10));
    assert!(wait_until(Duration::from_secs(3), || {
        egress.stats().connect_failures > 0
    }));
    let t = Instant::now();
    drop(egress);
    assert!(t.elapsed() < prompt, "back-off drop took {:?}", t.elapsed());
    std::fs::remove_dir_all(&dir).ok();
}

/// Frames appended while the sender is busy streaming a backlog ride
/// the same session, in order, without a doorbell: the cursor walks
/// through them — and across segment rolls — burst by burst.
#[test]
fn burst_appended_behind_a_streaming_backlog_arrives_in_order() {
    let dir = tmp_dir("burst");
    // Accepted by the kernel, HELLO'd only once the server adopts the
    // listener: the backlog below is all on disk before streaming starts.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut config = long_poll(EgressConfig::new(
        listener.local_addr().unwrap().to_string(),
        dir.join("spill"),
    ));
    config.segment_bytes = 4 * 1024;
    let mut egress = TcpEgress::new(config).unwrap();

    const KEYS: u64 = 8;
    const PER_KEY: u64 = 600;
    let all = records(KEYS, PER_KEY);
    let (backlog, burst) = all.split_at(all.len() * 3 / 4);
    for chunk in backlog.chunks(16) {
        egress.consume(chunk.to_vec());
    }
    assert!(
        egress.stats().spill_bytes > 20 * 4 * 1024,
        "the backlog should span many segments"
    );
    let collector = Collector::new();
    let server = EgressServer::bind_on(
        listener,
        EgressServerConfig::new("127.0.0.1:0"),
        collector.deliver_fn(),
    )
    .unwrap();
    for chunk in burst.chunks(16) {
        egress.consume(chunk.to_vec());
    }
    assert!(
        egress.handle().drain(Duration::from_secs(3)),
        "backlog + burst never drained: {:?}",
        egress.stats()
    );
    let stats = egress.shutdown(Duration::from_secs(1));
    assert_eq!(stats.connects, 1, "{stats:?}");
    assert_eq!(stats.records_retransmitted, 0, "{stats:?}");
    assert_eq!(stats.records_sent, KEYS * PER_KEY);
    assert!(
        stats.frames_sent == (KEYS * PER_KEY).div_ceil(16),
        "every frame exactly once: {stats:?}"
    );

    assert_eq!(collector.total.load(Ordering::Acquire), KEYS * PER_KEY);
    assert!(collector.fifo.is_clean(), "per-key FIFO violated");
    let by_key = collector.by_key.lock().unwrap();
    for k in 0..KEYS {
        assert_eq!(by_key[&k], (1..=PER_KEY).collect::<Vec<_>>(), "key {k}");
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn egress_restart_resends_unacked_spill() {
    let dir = tmp_dir("restart");
    let spill = dir.join("spill");
    // Phase 1: no sink reachable — accept records, then drop the sink
    // without draining (simulates the egress process dying).
    let addr = dead_addr();
    {
        let mut egress = TcpEgress::new(EgressConfig::new(&addr, &spill)).unwrap();
        egress.consume(records(5, 40));
        let s = egress.stats();
        assert_eq!(s.records_accepted, 200);
        assert_eq!(s.acked, 0);
        // Dropped, not shutdown: the outbox stays on disk.
    }
    // Phase 2: a fresh egress on the same spill dir, sink now alive —
    // the recovered outbox drains with nothing lost.
    let collector = Collector::new();
    let server =
        EgressServer::bind(EgressServerConfig::new(&addr), collector.deliver_fn()).unwrap();
    let egress = TcpEgress::new(EgressConfig::new(&addr, &spill)).unwrap();
    let handle = egress.handle();
    assert!(
        handle.drain(Duration::from_secs(10)),
        "recovered outbox never drained"
    );
    egress.shutdown(Duration::from_secs(5));
    assert_eq!(collector.total.load(Ordering::Acquire), 200);
    assert!(collector.fifo.is_clean());
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn receiver_watermark_dedups_duplicate_frames() {
    // Drive a server directly with raw frames, including a full resend
    // of an already-delivered range — the dedup window must swallow it.
    let collector = Collector::new();
    let server = EgressServer::bind(
        EgressServerConfig::new("127.0.0.1:0"),
        collector.deliver_fn(),
    )
    .unwrap();
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    use std::io::{Read, Write};
    sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();

    // Read the HELLO.
    let mut scanner = FrameScanner::new();
    let mut buf = [0u8; 1024];
    let wm = loop {
        let n = sock.read(&mut buf).unwrap();
        scanner.extend(&buf[..n]);
        if let Some((t, payload)) = scanner.next_frame().unwrap() {
            assert_eq!(t, frame::MSG_EGRESS_HELLO);
            break frame::decode_ctrl_frame(t, &payload).unwrap();
        }
    };
    assert_eq!(wm, 0);

    let batch = records(2, 5); // delivery seqs 1..=10
    let mut data = Vec::new();
    frame::encode_data_frame(&mut data, 1, &batch);
    sock.write_all(&data).unwrap();
    // Resend the identical frame (a rewound sender does exactly this),
    // then a fresh one overlapping nothing.
    sock.write_all(&data).unwrap();
    let mut cont = Vec::new();
    for s in 6..=7u64 {
        for k in 0..2u64 {
            cont.push(Record::new(Key(k), Bytes::from(vec![k as u8; 16])).with_seq(s));
        }
    }
    let mut next = Vec::new();
    frame::encode_data_frame(&mut next, 11, &cont);
    sock.write_all(&next).unwrap();

    assert!(wait_until(Duration::from_secs(5), || {
        server.stats().records_delivered == 14
    }));
    let stats = server.stats();
    assert_eq!(stats.records_delivered, 14, "10 + 4 unique records");
    assert_eq!(stats.duplicates_dropped, 10, "full resend dropped");
    assert_eq!(stats.watermark, 14);
    assert!(collector.fifo.is_clean());
    drop(sock);
    server.shutdown();
}
