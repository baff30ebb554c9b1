//! The live controller sizes an operator for its busiest task, not for a
//! pooled queue. An elastic executor hash-partitions its shards over
//! per-task queues, and the §3.1 balancer only bounds the busiest task
//! to `imbalance_threshold` (1.2) × the mean. Offered about 1.8 μ, the
//! pooled M/M/k floor `⌊λ/μ⌋ + 1` is 2 tasks, at which the busiest task
//! may carry up to 1.08 μ. The partitioned floor `⌊1.2·λ/μ⌋ + 1` is 3,
//! and that is what the operator must hold once the controller settles.

use std::time::{Duration, Instant};

use bytes::Bytes;
use elasticutor::core::ids::Key;
use elasticutor::runtime::dag::LiveDag;
use elasticutor::runtime::{ControllerConfig, ExecutorConfig, Ingest, Record};
use elasticutor::state::StateHandle;

#[test]
fn controller_holds_the_busiest_task_floor() {
    // A task serves at most 1/SERVICE = 500 records/s (a sleep only
    // overshoots), so RATE is at least 1.74 μ: above the partitioned
    // floor's 1.67 μ boundary, below the pooled floor's 2 μ.
    const SERVICE: Duration = Duration::from_millis(2);
    const RATE: f64 = 870.0;
    const SETTLE: Duration = Duration::from_millis(600);
    const RUN: Duration = Duration::from_millis(3000);

    let mut b = LiveDag::builder();
    let count = b.source(
        "count",
        // Start at the pooled floor, where pooled sizing would stay.
        ExecutorConfig {
            initial_tasks: 2,
            ..ExecutorConfig::default()
        },
        |_r: &Record, _s: &StateHandle| {
            std::thread::sleep(SERVICE);
            Vec::new()
        },
    );
    b.parallelism(count, 1).controller(ControllerConfig {
        interval: Duration::from_millis(100),
        total_cores: 6,
        // One task finishes only ~50 records a window.
        min_mu_samples: 10,
        ..ControllerConfig::default()
    });
    let dag = b.build().expect("valid topology");
    let port = dag.port(count);

    // Paced open-loop feed over many keys, so the balancer can get the
    // busiest task near the mean.
    let gap = Duration::from_secs_f64(1.0 / RATE);
    let start = Instant::now();
    let mut next = start;
    let mut i = 0u64;
    while start.elapsed() < RUN {
        port.ingest(Record::new(Key(i % 4096), Bytes::new()).with_seq(i));
        i += 1;
        next += gap;
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        }
    }

    let settled: Vec<u32> = dag
        .controller_log()
        .iter()
        .filter(|e| Duration::from_millis(e.at_ms) >= SETTLE)
        .map(|e| e.cores[count.index()])
        .collect();
    dag.shutdown();

    assert!(settled.len() >= 15, "only {} settled ticks", settled.len());
    let at_floor = settled.iter().filter(|&&c| c == 3).count();
    assert!(
        at_floor * 10 >= settled.len() * 9,
        "count held 3 tasks in {at_floor} of {} settled ticks: {settled:?}",
        settled.len()
    );
}
