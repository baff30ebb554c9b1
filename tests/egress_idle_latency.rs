//! The egress plane as tier-1 sees it (`cargo test -q` at the root runs
//! only this facade package's tests): a record handed to an idle
//! `TcpEgress` reaches the `EgressServer`'s deliver callback because the
//! sender *woke*, not because a pacing timer fired. The heartbeat is set
//! far beyond the bound, so a timer-paced sender cannot pass.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use elasticutor::core::ids::Key;
use elasticutor::egress::{EgressConfig, EgressServer, EgressServerConfig, TcpEgress};
use elasticutor::runtime::{Record, Sink};

#[test]
fn idle_consume_reaches_the_receiver_without_waiting_for_a_timer() {
    let dir = std::env::temp_dir().join(format!(
        "elasticutor-egress-idle-latency-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let (delivered_tx, delivered) = mpsc::channel();
    let server = EgressServer::bind(
        EgressServerConfig::new("127.0.0.1:0"),
        Box::new(move |seq, _key, _rec_seq, _payload| {
            let _ = delivered_tx.send(seq);
        }),
    )
    .expect("bind egress server");
    let mut config = EgressConfig::new(server.local_addr().to_string(), dir.join("spill"));
    config.poll_interval = Duration::from_secs(30);
    let mut egress = TcpEgress::new(config).expect("open egress");

    // Generous against VM stalls, hopeless for a 30 s timer.
    let bound = Duration::from_millis(500);
    for seq in 1..=10u64 {
        // Let the sender go idle between records.
        std::thread::sleep(Duration::from_millis(10));
        let sent = Instant::now();
        egress.consume(vec![
            Record::new(Key(seq % 3), Bytes::from_static(b"tick")).with_seq(seq)
        ]);
        let got = delivered
            .recv_timeout(bound)
            .unwrap_or_else(|_| panic!("record {seq} not delivered within {bound:?}"));
        assert_eq!(got, seq);
        assert!(sent.elapsed() < bound);
    }

    // Neither does stopping wait for one.
    let stopping = Instant::now();
    let stats = egress.shutdown(Duration::from_secs(5));
    assert!(
        stopping.elapsed() < bound,
        "shutdown waited for the heartbeat"
    );
    assert_eq!((stats.acked, stats.connects), (10, 1));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
