//! Live executor-group rescaling: instance counts change under load
//! with per-key FIFO and exact record conservation intact.
//!
//! These tests drive the in-process §3.3 scale handshake four ways:
//! through the DAG (the acceptance path: a hot operator grows 1 → 2
//! instances while records flow), directly against an [`ExecutorGroup`]
//! with *concurrent* submitter threads racing the rescales, with a
//! scale-in whose victim still holds in-flight ring items, and with the
//! live controller revoking task threads from the very instance a
//! scripted scale-in is retiring.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use elasticutor_core::hash::key_to_shard;
use elasticutor_core::ids::{Key, ShardId};
use elasticutor_runtime::Ingest;
use elasticutor_runtime::{
    ControllerConfig, ExecutorConfig, ExecutorGroup, FifoChecker, LiveDag, Operator, Record,
};
use elasticutor_state::StateHandle;

/// Stateful order-checking operator: verifies per-key seq order at the
/// point of processing and counts per key in shard state, so both FIFO
/// and conservation can be asserted after arbitrary shard migration.
struct CountingChecker {
    order: Arc<FifoChecker>,
    processed: Arc<AtomicU64>,
}

impl Operator for CountingChecker {
    fn process(&self, record: &Record, state: &StateHandle) -> Vec<Record> {
        self.order.observe(record.key, record.seq);
        state.update(record.key, |old| {
            let n = old.map_or(0u64, |v| {
                u64::from_le_bytes(v.as_ref().try_into().expect("8 bytes"))
            });
            Some(Bytes::copy_from_slice(&(n + 1).to_le_bytes()))
        });
        self.processed.fetch_add(1, Ordering::Relaxed);
        vec![record.clone()]
    }
}

/// The acceptance path: a hot operator scales 1 → 2 → 3 instances and
/// back down **through the DAG** while a keyed stream flows; nothing is
/// lost, duplicated, or reordered, and the consistent-hash map actually
/// moved shards (with their state) to the newcomers.
#[test]
fn dag_scale_out_under_live_load_keeps_fifo_and_conservation() {
    const KEYS: u64 = 200;
    const TOTAL: u64 = 60_000;
    let order = Arc::new(FifoChecker::new());
    let processed = Arc::new(AtomicU64::new(0));

    let mut b = LiveDag::builder();
    let hot = b.source(
        "hot",
        ExecutorConfig {
            num_shards: 64,
            initial_tasks: 2,
            ..ExecutorConfig::default()
        },
        CountingChecker {
            order: Arc::clone(&order),
            processed: Arc::clone(&processed),
        },
    );
    b.parallelism(hot, 1); // explicit: independent of ELASTICUTOR_TEST_PARALLELISM
    let dag = b.build().expect("single-operator topology");

    let mut seqs = vec![0u64; KEYS as usize];
    for i in 0..TOTAL {
        let key = (i * 17) % KEYS;
        seqs[key as usize] += 1;
        dag.port(hot)
            .ingest(Record::new(Key(key), Bytes::new()).with_seq(seqs[key as usize]));
        match i {
            10_000 => {
                let id = dag.scale_out(hot).expect("grow to 2 instances");
                assert_eq!(id, 1);
            }
            25_000 => {
                dag.scale_out(hot).expect("grow to 3 instances");
            }
            40_000 => {
                dag.scale_in(hot).expect("shrink back to 2");
            }
            _ => {}
        }
    }
    dag.drain();

    assert_eq!(
        order.violations(),
        Vec::<(u64, u64, u64)>::new(),
        "per-key FIFO violated across live rescales"
    );
    assert_eq!(
        processed.load(Ordering::Relaxed),
        TOTAL,
        "lost or duplicated records"
    );

    let group = dag.group(hot);
    assert_eq!(group.num_live(), 2);
    let log = group.rescale_log();
    assert_eq!(log.len(), 3);
    assert!(
        log.iter().all(|e| e.shards_moved > 0),
        "rescales must move shards"
    );
    // Scale-out moves roughly z/(n+1) shards to the newcomer — never
    // the whole space (that is the point of consistent hashing).
    assert!(
        log[0].shards_moved < 64,
        "first scale-out moved every shard"
    );

    // Conservation in state: per-key counters across every instance's
    // store sum to the total despite the migrations.
    let mut sum = 0u64;
    for id in 0..group.num_slots() as u32 {
        let store = Arc::clone(group.instance(id).state());
        for shard in store.shards() {
            for key in 0..KEYS {
                if let Some(v) = store.get(shard, Key(key)) {
                    sum += u64::from_le_bytes(v.as_ref().try_into().expect("8 bytes"));
                }
            }
        }
    }
    assert_eq!(sum, TOTAL, "state lost or duplicated by migration");
    dag.shutdown();
}

/// Concurrent submitters race live rescales against a bare group: four
/// threads own disjoint key ranges and route records themselves (read
/// router → submit to that instance), exactly like external producers
/// would, while the main thread grows and shrinks the group. Per-key
/// FIFO and exact conservation must survive every stale-router submit
/// (those go through the migrated shard's forward path).
#[test]
fn concurrent_submitters_survive_rescales_with_fifo_and_conservation() {
    const SHARDS: u32 = 32;
    const SUBMITTERS: u64 = 4;
    const PER_THREAD: u64 = 15_000;
    let order = Arc::new(FifoChecker::new());
    let processed = Arc::new(AtomicU64::new(0));
    let group = Arc::new(ExecutorGroup::start(
        "racy",
        ExecutorConfig {
            num_shards: SHARDS,
            initial_tasks: 1,
            // Multi-producer path: four submitters plus migration
            // replays may hit one instance concurrently.
            single_producer: false,
            ..ExecutorConfig::default()
        },
        Box::new(CountingChecker {
            order: Arc::clone(&order),
            processed: Arc::clone(&processed),
        }),
        1,
    ));

    let stop = Arc::new(AtomicBool::new(false));
    let submitters: Vec<_> = (0..SUBMITTERS)
        .map(|t| {
            let group = Arc::clone(&group);
            std::thread::spawn(move || {
                for seq in 1..=PER_THREAD {
                    // Keys are disjoint per thread, so per-key order is
                    // each thread's submission order.
                    let key = t * 100 + (seq % 25);
                    let shard = ShardId(key_to_shard(key, SHARDS));
                    let record = Record::new(Key(key), Bytes::new()).with_seq(seq / 25 + 1);
                    let owner = group.instance_of(shard);
                    group.instance(owner).ingest_routed(shard, record);
                }
            })
        })
        .collect();

    // Rescale continuously while the submitters hammer the group.
    let rescaler = {
        let group = Arc::clone(&group);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut grew = 0u32;
            while !stop.load(Ordering::Acquire) {
                if group.num_live() < 3 {
                    group.scale_out().expect("scale out");
                    grew += 1;
                } else {
                    group.scale_in().expect("scale in");
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            grew
        })
    };

    for s in submitters {
        s.join().expect("submitter finishes");
    }
    stop.store(true, Ordering::Release);
    let grew = rescaler.join().expect("rescaler finishes");
    assert!(
        grew >= 1,
        "at least one scale-out must have raced the stream"
    );

    let total = SUBMITTERS * PER_THREAD;
    // Drain: every instance's pending work completes (forwarded
    // stragglers included).
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while processed.load(Ordering::Relaxed) < total {
        assert!(
            std::time::Instant::now() < deadline,
            "drain stalled at {}/{total}",
            processed.load(Ordering::Relaxed)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Nothing duplicated either: the counter settles exactly at total.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(processed.load(Ordering::Relaxed), total);
    assert_eq!(group.processed_count(), total);
    assert_eq!(
        order.violations(),
        Vec::<(u64, u64, u64)>::new(),
        "per-key FIFO violated under concurrent submit + rescale"
    );
}

/// Scale-in while the victim instance still holds queued ring items: a
/// slow operator lets a burst pile up in the rings, then the victim is
/// retired mid-backlog. Every queued record must drain through the
/// migration (begin_migration flushes the shard's in-flight items
/// before the snapshot) — none lost, none processed twice.
#[test]
fn scale_in_drains_in_flight_ring_items() {
    const SHARDS: u32 = 16;
    const TOTAL: u64 = 4_000;
    let order = Arc::new(FifoChecker::new());
    let processed = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&processed);
    let checker = Arc::clone(&order);
    let group = Arc::new(ExecutorGroup::start(
        "slow",
        ExecutorConfig {
            num_shards: SHARDS,
            initial_tasks: 1,
            single_producer: true,
            ring_capacity: Some(4096),
            ..ExecutorConfig::default()
        },
        Box::new(move |r: &Record, _s: &StateHandle| {
            checker.observe(r.key, r.seq);
            counter.fetch_add(1, Ordering::Relaxed);
            // Slow enough that the burst below outruns processing.
            std::thread::sleep(Duration::from_micros(30));
            Vec::new()
        }),
        2,
    ));

    let mut seqs = vec![0u64; 40];
    for i in 0..TOTAL {
        let key = i % 40;
        seqs[key as usize] += 1;
        let shard = ShardId(key_to_shard(key, SHARDS));
        let record = Record::new(Key(key), Bytes::new()).with_seq(seqs[key as usize]);
        let owner = group.instance_of(shard);
        group.instance(owner).ingest_routed(shard, record);
        if i == TOTAL / 2 {
            // Mid-burst: the victim's rings are loaded. Retiring it
            // must flush every queued item through the handshake.
            group.scale_in().expect("retire instance mid-backlog");
            assert_eq!(group.num_live(), 1);
        }
    }

    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while processed.load(Ordering::Relaxed) < TOTAL {
        assert!(
            std::time::Instant::now() < deadline,
            "drain stalled at {}/{TOTAL}",
            processed.load(Ordering::Relaxed)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        processed.load(Ordering::Relaxed),
        TOTAL,
        "lost or duplicated"
    );
    assert_eq!(
        order.violations(),
        Vec::<(u64, u64, u64)>::new(),
        "per-key FIFO violated by the mid-backlog scale-in"
    );
    let log = group.rescale_log();
    assert_eq!(log.len(), 1);
    assert!(!log[0].grew);
    assert!(log[0].shards_moved > 0);
}

/// The controller's core revocation (`remove_task_newest` → the drain
/// loop of `ElasticExecutor::remove_task`) racing scripted rescales of
/// the same operator. Every new instance starts with three task threads
/// under a trickle of load, so each controller tick revokes threads —
/// from the instance with the most, which is the newest, which is the
/// one the next `scale_in` retires. When the retirement halts the
/// instance while a revocation is mid-drain, the revocation must come
/// back as a typed error the controller shrugs off; it used to panic
/// the controller thread (`expect("checked present")`). A dead
/// controller surfaces in `shutdown`, which joins it.
#[test]
fn controller_revocation_racing_scale_in_does_not_panic() {
    const KEYS: u64 = 64;
    const ROUNDS: u64 = 60;
    const PER_STEP: u64 = 150;
    let order = Arc::new(FifoChecker::new());
    let processed = Arc::new(AtomicU64::new(0));

    let mut b = LiveDag::builder();
    let hot = b.source(
        "hot",
        ExecutorConfig {
            num_shards: 64,
            initial_tasks: 3,
            ..ExecutorConfig::default()
        },
        CountingChecker {
            order: Arc::clone(&order),
            processed: Arc::clone(&processed),
        },
    );
    b.parallelism(hot, 1).controller(ControllerConfig {
        interval: Duration::from_millis(1),
        total_cores: 8,
        reclaim_patience: 1,
        ..ControllerConfig::default()
    });
    let dag = b.build().expect("single-operator topology");

    let mut seqs = vec![0u64; KEYS as usize];
    let mut sent = 0u64;
    let mut feed = |n: u64| {
        for _ in 0..n {
            let key = (sent * 17) % KEYS;
            seqs[key as usize] += 1;
            dag.port(hot)
                .ingest(Record::new(Key(key), Bytes::new()).with_seq(seqs[key as usize]));
            sent += 1;
        }
    };
    for _ in 0..ROUNDS {
        feed(PER_STEP);
        dag.scale_out(hot).expect("grow to 2 instances");
        // Long enough for a tick to start revoking the newcomer's
        // surplus threads, short enough that it is rarely done.
        feed(PER_STEP);
        std::thread::sleep(Duration::from_millis(1));
        dag.scale_in(hot).expect("shrink back to 1");
    }
    let total = sent;
    dag.drain();

    assert_eq!(
        order.violations(),
        Vec::<(u64, u64, u64)>::new(),
        "per-key FIFO violated while revocations raced rescales"
    );
    assert_eq!(
        processed.load(Ordering::Relaxed),
        total,
        "lost or duplicated records"
    );
    assert_eq!(dag.group(hot).num_live(), 1);
    assert_eq!(dag.group(hot).rescale_log().len(), 2 * ROUNDS as usize);
    // Joins the controller thread: panics here if it panicked.
    dag.shutdown();
}
