//! Stress tests of the per-task SPSC ring plane: a single-producer
//! executor under shrink/grow churn must preserve per-key FIFO and lose
//! no record while task slots (and their rings) retire and get reused,
//! and the `ring_capacity` knob must hold at pathological sizes. A slow
//! operator's outputs leave as each record finishes, not at the end of
//! its chunk, and fast batches are not split.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bytes::Bytes;
use elasticutor_core::ids::{Key, ShardId};
use elasticutor_runtime::Ingest;
use elasticutor_runtime::{
    ElasticExecutor, ExecutorConfig, FifoChecker, Pipeline, Record, RecordBatch,
};
use elasticutor_state::StateHandle;

fn ring_config(max_task_slots: u32, ring_capacity: Option<usize>) -> ExecutorConfig {
    ExecutorConfig {
        num_shards: 32,
        initial_tasks: 1,
        max_task_slots,
        single_producer: true,
        ring_capacity,
        ..ExecutorConfig::default()
    }
}

/// One submitter thread pushes a per-key sequenced stream through the
/// ring plane while the control plane storms add/remove/rebalance with
/// `max_task_slots` small enough to force every slot (and its ring) to
/// retire and be reused many times. FIFO per key, exact conservation.
#[test]
fn ring_plane_survives_slot_reuse_churn() {
    const KEYS: u64 = 64;
    const PER_KEY: u64 = 400;
    let checker = Arc::new(FifoChecker::new());
    let sink = Arc::clone(&checker);
    // max_task_slots = 3 with up-to-3 live tasks: every grow after a
    // shrink reuses a freed slot, re-creating the ring behind it.
    let exec = Arc::new(ElasticExecutor::start(
        ring_config(3, None),
        move |r: &Record, _s: &StateHandle| {
            sink.observe(r.key, r.seq);
            Vec::new()
        },
    ));

    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let exec = Arc::clone(&exec);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut grown = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Grow to the slot cap, rebalance, then shrink back —
                // each cycle retires slots mid-stream.
                while exec.add_task().is_ok() {
                    grown += 1;
                }
                exec.rebalance();
                std::thread::sleep(std::time::Duration::from_micros(200));
                loop {
                    let tasks = exec.tasks();
                    if tasks.len() <= 1 {
                        break;
                    }
                    let victim = tasks[grown as usize % tasks.len()];
                    if exec.remove_task(victim).is_err() {
                        break;
                    }
                }
            }
            grown
        })
    };

    // The single producer: batched submits, sequenced per key.
    let mut batch = Vec::with_capacity(128);
    for seq in 0..PER_KEY {
        for key in 0..KEYS {
            batch.push(Record::new(Key(key), Bytes::new()).with_seq(seq));
            if batch.len() == 128 {
                exec.ingest_batch(std::mem::take(&mut batch));
            }
        }
    }
    exec.ingest_batch(std::mem::take(&mut batch));
    exec.wait_for_processed(KEYS * PER_KEY);
    stop.store(true, Ordering::Relaxed);
    let cycles = churn.join().expect("churn thread exits");
    assert!(cycles > 0, "the churn thread never grew a task");

    let stats = Arc::try_unwrap(exec)
        .unwrap_or_else(|_| panic!("sole owner"))
        .shutdown();
    assert_eq!(stats.processed, KEYS * PER_KEY, "records lost in flight");
    assert_eq!(stats.operator_panics, 0);
    assert!(
        checker.is_clean(),
        "per-key FIFO violated through the ring plane: {:?}",
        checker.violations()
    );
    assert_eq!(checker.keys_seen() as u64, KEYS);
}

/// A deliberately tiny ring forces the full-edge backoff path on nearly
/// every wave; ordering and conservation must still hold.
#[test]
fn tiny_ring_capacity_exercises_full_edge() {
    const TOTAL: u64 = 20_000;
    let checker = Arc::new(FifoChecker::new());
    let sink = Arc::clone(&checker);
    let exec = ElasticExecutor::start(
        ring_config(4, Some(2)), // minimum legal capacity
        move |r: &Record, _s: &StateHandle| {
            sink.observe(r.key, r.seq);
            Vec::new()
        },
    );
    assert!(exec.add_task().is_ok());
    for seq in 0..TOTAL {
        exec.ingest(Record::new(Key(seq % 16), Bytes::new()).with_seq(seq / 16));
    }
    exec.wait_for_processed(TOTAL);
    let stats = exec.shutdown();
    assert_eq!(stats.processed, TOTAL);
    assert!(checker.is_clean(), "FIFO violated at ring capacity 2");
}

/// The knob accepts a legal custom capacity and reports work done.
#[test]
fn custom_ring_capacity_is_honored() {
    let exec = ElasticExecutor::start(
        ring_config(4, Some(4096)),
        |_r: &Record, _s: &StateHandle| Vec::new(),
    );
    exec.ingest_batch(
        (0..1_000u64)
            .map(|i| Record::new(Key(i), Bytes::new()))
            .collect(),
    );
    exec.wait_for_processed(1_000);
    assert_eq!(exec.shutdown().processed, 1_000);
}

/// Ring capacities outside `2..=2^24` are rejected at build time.
#[test]
#[should_panic(expected = "ring_capacity")]
fn zero_ring_capacity_is_rejected() {
    let _ = ElasticExecutor::start(ring_config(4, Some(0)), |_r: &Record, _s: &StateHandle| {
        Vec::new()
    });
}

/// Reassignments racing the ring plane: the watermarked label must
/// land behind every pre-pause ring record (a shard's records never
/// reorder across a move).
#[test]
fn reassignment_watermarks_preserve_order() {
    const TOTAL: u64 = 50_000;
    let checker = Arc::new(FifoChecker::new());
    let sink = Arc::clone(&checker);
    let exec = Arc::new(ElasticExecutor::start(
        ring_config(4, Some(64)),
        move |r: &Record, _s: &StateHandle| {
            sink.observe(r.key, r.seq);
            Vec::new()
        },
    ));
    for _ in 0..2 {
        exec.add_task().expect("grow");
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mover = {
        let exec = Arc::clone(&exec);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Cycle one hot shard (and a rebalance) as fast as moves
            // complete: every cycle exercises pause → label watermark →
            // buffered flush → reopen against the ring plane.
            let mut moves = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let tasks = exec.tasks();
                for (i, &t) in tasks.iter().enumerate() {
                    let shard = elasticutor_core::ids::ShardId((i % 32) as u32);
                    if exec.reassign_shard(shard, t).is_ok() {
                        moves += 1;
                    }
                }
                std::thread::yield_now();
            }
            moves
        })
    };
    let mut batch = Vec::with_capacity(256);
    for seq in 0..TOTAL {
        batch.push(Record::new(Key(seq % 8), Bytes::new()).with_seq(seq / 8));
        if batch.len() == 256 {
            exec.ingest_batch(std::mem::take(&mut batch));
        }
    }
    exec.ingest_batch(std::mem::take(&mut batch));
    exec.wait_for_processed(TOTAL);
    stop.store(true, Ordering::Relaxed);
    let moves = mover.join().expect("mover exits");
    let stats = Arc::try_unwrap(exec)
        .unwrap_or_else(|_| panic!("sole owner"))
        .shutdown();
    assert_eq!(stats.processed, TOTAL);
    assert!(
        checker.is_clean(),
        "FIFO violated across {moves} reassignments: {:?}",
        checker.violations()
    );
    assert!(moves > 0, "the mover never initiated a reassignment");
}

/// A 2 ms operator handed one 5-record batch of one shard sends the
/// first record's output as soon as that record is done: by the time
/// the third record finishes, output batches are already waiting on
/// the channel (a batch-at-the-end task sends nothing for ~10 ms).
#[test]
fn slow_operator_emits_before_its_batch_ends() {
    let outputs: Arc<OnceLock<crossbeam::channel::Receiver<RecordBatch>>> =
        Arc::new(OnceLock::new());
    let waiting_at_third = Arc::new(AtomicUsize::new(usize::MAX));
    let exec = {
        let outputs = Arc::clone(&outputs);
        let waiting_at_third = Arc::clone(&waiting_at_third);
        ElasticExecutor::start(ring_config(4, None), move |r: &Record, _s: &StateHandle| {
            std::thread::sleep(Duration::from_millis(2));
            if r.seq == 2 {
                let queued = outputs.get().expect("set before ingest").len();
                waiting_at_third.store(queued, Ordering::SeqCst);
            }
            vec![r.clone()]
        })
    };
    outputs.set(exec.outputs().clone()).ok();
    exec.ingest_batch_routed((0..5u64).map(|seq| {
        (
            ShardId(0),
            Record::new(Key(seq), Bytes::new()).with_seq(seq),
        )
    }));
    exec.wait_for_processed(5);
    assert!(
        waiting_at_third.load(Ordering::SeqCst) >= 1,
        "no output had left when the third record finished"
    );
    let first = exec.outputs().recv().expect("an output batch");
    assert_eq!(
        first.iter().map(|r| r.seq).collect::<Vec<_>>(),
        vec![0],
        "the first record's output waited for the rest of its batch"
    );
    let rest: Vec<u64> = exec.outputs().try_iter().flatten().map(|r| r.seq).collect();
    assert_eq!(rest, vec![1, 2, 3, 4]);
    assert_eq!(exec.shutdown().processed, 5);
}

/// A no-op operator finishes a routed 64-record batch far inside the
/// emit budget, so it still leaves as one output batch: at most 1.1×
/// as many output batches as input batches (slack for a preempted
/// task thread).
#[test]
fn fast_batches_are_not_split() {
    const BATCHES: usize = 200;
    const PER_BATCH: u64 = 64;
    let exec = ElasticExecutor::start(
        ExecutorConfig {
            num_shards: 32,
            initial_tasks: 1,
            // The mutex plane routes record by record, so input batches
            // would not reach the task whole.
            baseline_locked_routing: false,
            ..ExecutorConfig::default()
        },
        |r: &Record, _s: &StateHandle| vec![r.clone()],
    );
    for b in 0..BATCHES as u64 {
        exec.ingest_batch_routed((0..PER_BATCH).map(|i| {
            let key = b * PER_BATCH + i;
            (
                ShardId((key % 32) as u32),
                Record::new(Key(key), Bytes::new()),
            )
        }));
    }
    let total = BATCHES as u64 * PER_BATCH;
    exec.wait_for_processed(total);
    let out: Vec<RecordBatch> = exec.outputs().try_iter().collect();
    assert_eq!(out.iter().map(Vec::len).sum::<usize>() as u64, total);
    assert!(
        out.len() * 10 <= BATCHES * 11,
        "{} output batches for {BATCHES} input batches",
        out.len()
    );
    exec.shutdown();
}

/// A slow first stage flushing after every record while a mover thread
/// reassigns its shards between tasks: mid-chunk sends, the §3.3
/// pause-buffer flushes and the labels interleave, yet nothing is lost
/// or reordered per key, and the DAG's counters settle to quiescent.
#[test]
fn mid_chunk_flushes_survive_concurrent_reassignment() {
    const KEYS: u64 = 16;
    const PER_KEY: u64 = 60;
    let stage = ExecutorConfig {
        num_shards: 16,
        initial_tasks: 2,
        max_task_slots: 4,
        ..ExecutorConfig::default()
    };
    let pipe = Pipeline::builder()
        .stage("slow", stage.clone(), |r: &Record, _s: &StateHandle| {
            // Past the emit budget on every record.
            std::thread::sleep(Duration::from_micros(150));
            vec![r.clone()]
        })
        .stage(
            "pass",
            stage,
            |r: &Record, _s: &StateHandle| vec![r.clone()],
        )
        .build();
    let slow = Arc::clone(pipe.executor(0));
    let stop = Arc::new(AtomicBool::new(false));
    let mover = {
        let stop = Arc::clone(&stop);
        let slow = Arc::clone(&slow);
        std::thread::spawn(move || {
            let mut moves = 0u64;
            let mut i = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let tasks = slow.tasks();
                // Offset by one from the round-robin start, so the
                // first pass already moves every shard.
                let to = tasks[(i as usize + 1) % tasks.len()];
                if slow.reassign_shard(ShardId(i % 16), to).is_ok() {
                    moves += 1;
                }
                i = i.wrapping_add(1);
                std::thread::sleep(Duration::from_micros(100));
            }
            moves
        })
    };
    for seq in 0..PER_KEY {
        pipe.ingest_batch(
            (0..KEYS)
                .map(|key| Record::new(Key(key), Bytes::new()).with_seq(seq))
                .collect(),
        );
    }
    pipe.drain();
    stop.store(true, Ordering::Relaxed);
    let moves = mover.join().expect("mover exits");
    assert!(pipe.is_quiescent(), "counters did not settle after drain");
    let checker = FifoChecker::new();
    let mut delivered = 0u64;
    for batch in pipe.outputs().try_iter() {
        for r in batch {
            checker.observe(r.key, r.seq);
            delivered += 1;
        }
    }
    assert_eq!(delivered, KEYS * PER_KEY, "records lost or duplicated");
    assert!(
        checker.is_clean(),
        "FIFO violated across {moves} reassignments: {:?}",
        checker.violations()
    );
    assert!(moves > 0, "the mover never reassigned a shard");
    let stats = slow.stats();
    assert!(
        stats.processed == KEYS * PER_KEY && stats.operator_panics == 0,
        "{stats:?}"
    );
    drop(slow);
    pipe.shutdown();
}
