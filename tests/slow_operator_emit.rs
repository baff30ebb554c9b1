//! A slow operator as tier-1 sees it (`cargo test -q` at the root runs
//! only this facade package's tests): a `count` operator that sleeps
//! for its service time, fed a burst behind a key edge, hands each
//! record downstream as that record finishes. A task that held a
//! chunk's outputs until the chunk ended would make the median record
//! wait for half the burst — about ten service times here.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use elasticutor::core::ids::Key;
use elasticutor::runtime::dag::LiveDag;
use elasticutor::runtime::{ExecutorConfig, Ingest, Record};
use elasticutor::state::StateHandle;

#[test]
fn slow_count_hands_each_record_to_the_sink_as_it_finishes() {
    const SERVICE: Duration = Duration::from_millis(2);
    const BURST: usize = 21;
    // When `count` finished each record, indexed by seq.
    let finished: Arc<Mutex<Vec<Option<Instant>>>> = Arc::new(Mutex::new(vec![None; BURST]));

    let mut b = LiveDag::builder();
    let src = b.source(
        "src",
        ExecutorConfig::default(),
        |r: &Record, _s: &StateHandle| vec![r.clone()],
    );
    let count = {
        let finished = Arc::clone(&finished);
        b.operator(
            "count",
            ExecutorConfig::default(),
            move |r: &Record, _s: &StateHandle| {
                std::thread::sleep(SERVICE);
                finished.lock().unwrap()[r.seq as usize] = Some(Instant::now());
                vec![r.clone()]
            },
        )
    };
    b.key_edge(src, count);
    let dag = b.build().expect("valid topology");

    // One burst: `count` picks it up as one chunk.
    dag.port(src).ingest_batch(
        (0..BURST as u64)
            .map(|seq| Record::new(Key(seq), Bytes::new()).with_seq(seq))
            .collect(),
    );
    let sink = dag.outputs(count).expect("count is the sink");
    let mut gaps = Vec::with_capacity(BURST);
    while gaps.len() < BURST {
        let batch = sink
            .recv_timeout(Duration::from_secs(5))
            .expect("count delivers the burst");
        let arrived = Instant::now();
        let finished = finished.lock().unwrap();
        for r in batch {
            let done = finished[r.seq as usize].expect("finished before delivery");
            gaps.push(arrived.duration_since(done));
        }
    }
    gaps.sort();
    let median = gaps[BURST / 2];
    assert!(
        median < 2 * SERVICE,
        "median count → sink gap {median:?} for a {SERVICE:?} service time"
    );
    dag.shutdown();
}
