//! Live controller integration: a hot stage must be grown by the
//! background scheduling loop while records flow, without losing
//! records or per-key order, and an overloaded pipeline must stay
//! within the controller's task budget.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use elasticutor_core::ids::Key;
use elasticutor_runtime::Ingest;
use elasticutor_runtime::{
    ControllerConfig, ExecutorConfig, FifoChecker, Operator, Pipeline, Record,
};
use elasticutor_state::StateHandle;

/// Sink that checks per-key sequence order.
struct OrderedSink {
    order: Arc<FifoChecker>,
}

impl Operator for OrderedSink {
    fn process(&self, record: &Record, _state: &StateHandle) -> Vec<Record> {
        self.order.observe(record.key, record.seq);
        vec![record.clone()]
    }
}

#[test]
fn controller_grows_hot_stage_under_load() {
    let order = Arc::new(FifoChecker::new());
    let pipe = Pipeline::builder()
        .stage(
            "hot",
            ExecutorConfig {
                num_shards: 32,
                initial_tasks: 1,
                ..ExecutorConfig::default()
            },
            // ~200 µs of service per record: one task saturates at
            // ~5 kHz, well under the offered rate below.
            |r: &Record, _s: &StateHandle| {
                std::thread::sleep(Duration::from_micros(200));
                vec![r.clone()]
            },
        )
        .stage(
            "sink",
            ExecutorConfig {
                num_shards: 32,
                initial_tasks: 1,
                ..ExecutorConfig::default()
            },
            OrderedSink {
                order: Arc::clone(&order),
            },
        )
        .capacity(65_536)
        .controller(ControllerConfig {
            interval: Duration::from_millis(80),
            total_cores: 6,
            ..ControllerConfig::default()
        })
        .build();

    // Offer ~12 kHz for 1.5 s (paced): demand ≈ 2.4 busy cores.
    let total = 18_000u64;
    let gap = Duration::from_secs_f64(1.0 / 12_000.0);
    let start = Instant::now();
    let mut next = start;
    let mut seqs = vec![0u64; 64];
    for i in 0..total {
        let key = i % 64;
        seqs[key as usize] += 1;
        pipe.ingest(Record::new(Key(key), Bytes::new()).with_seq(seqs[key as usize]));
        next += gap;
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        }
    }
    pipe.drain();

    // The controller must have grown the hot stage at some point.
    let log = pipe.controller_log();
    assert!(!log.is_empty(), "controller never ticked");
    let peak_hot = log.iter().map(|e| e.cores[0]).max().unwrap_or(1);
    assert!(
        peak_hot >= 2,
        "controller never grew the hot stage (peak {peak_hot} cores)"
    );
    // Budget respected at every decision.
    assert!(
        log.iter().all(|e| e.cores.iter().sum::<u32>() <= 6),
        "task budget exceeded"
    );

    // No record lost, no order violated — despite live regrowth.
    assert_eq!(pipe.outputs().try_iter().flatten().count() as u64, total);
    assert!(
        order.is_clean(),
        "per-key FIFO violated: {:?}",
        order.violations()
    );
    let stats = pipe.shutdown();
    assert_eq!(stats[0].stats.processed, total);
    assert_eq!(stats[1].stats.processed, total);
}

/// Offered far more than the task budget can serve, every stage's
/// stability floor exceeds the budget. The controller must still never
/// hold more than `total_cores` tasks — one tick over would make every
/// later scheduling round infeasible — and it must keep ticking.
#[test]
fn saturated_controller_stays_within_budget_and_keeps_ticking() {
    const BUDGET: u32 = 4;
    const OVERLOAD: Duration = Duration::from_millis(1500);
    let slow = Arc::new(AtomicBool::new(true));
    let stage = |slow: Arc<AtomicBool>, forward: bool| {
        move |r: &Record, _s: &StateHandle| {
            if slow.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_micros(500));
            }
            if forward {
                vec![r.clone()]
            } else {
                Vec::new()
            }
        }
    };
    let config = ExecutorConfig {
        num_shards: 32,
        initial_tasks: 1,
        ..ExecutorConfig::default()
    };
    let pipe = Pipeline::builder()
        .stage("a", config.clone(), stage(Arc::clone(&slow), true))
        .stage("b", config, stage(Arc::clone(&slow), false))
        .capacity(256)
        .controller(ControllerConfig {
            interval: Duration::from_millis(40),
            total_cores: BUDGET,
            min_mu_samples: 10,
            ..ControllerConfig::default()
        })
        .build();

    // Unpaced, blocking feed: four 500 µs tasks over two stages serve a
    // few thousand records/s at most; the backlog in front of them
    // keeps λ far above that.
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < OVERLOAD {
        pipe.ingest_batch(
            (0..64)
                .map(|j| Record::new(Key((i + j) % 64), Bytes::new()))
                .collect(),
        );
        i += 64;
    }
    let log = pipe.controller_log();
    slow.store(false, Ordering::Relaxed);
    pipe.drain();
    pipe.shutdown();

    assert!(log.len() >= 10, "only {} controller ticks", log.len());
    for e in &log {
        assert!(
            e.cores.iter().sum::<u32>() <= BUDGET,
            "t={}ms holds {:?} tasks over a {BUDGET}-task budget",
            e.at_ms,
            e.cores
        );
    }
    let last_ms = log.last().map_or(0, |e| e.at_ms);
    assert!(
        Duration::from_millis(last_ms) >= OVERLOAD * 2 / 3,
        "controller stopped ticking at {last_ms} ms of a {OVERLOAD:?} overload"
    );
    assert!(
        log.iter().any(|e| e.saturated),
        "the model never declared the overload saturated"
    );
}
