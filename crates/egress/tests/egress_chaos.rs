//! Byte-level chaos against the egress wire protocol, mirroring the
//! WAL's `wal_chaos` and the migration plane's `wire_chaos` suites —
//! but over a **real TCP stream**: a tee proxy between a live
//! [`TcpEgress`] and [`EgressServer`] captures both directions of an
//! actual session (DATA frames one way, HELLO + ACK frames the other),
//! and the sweeps run against those captured bytes.
//!
//! Contract under damage: every truncation point and every single-bit
//! flip yields either a clean prefix of the original frames or a typed
//! error — never a panic, never an altered record, and (for the
//! live-server replay sweep) never a duplicate beyond the watermark
//! dedup window.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use elasticutor_core::ids::Key;
use elasticutor_core::wire::WireError;
use elasticutor_egress::frame::{
    decode_ctrl_frame, decode_data_frame, DataFrame, MSG_EGRESS_ACK, MSG_EGRESS_DATA,
    MSG_EGRESS_HELLO,
};
use elasticutor_egress::{EgressConfig, EgressServer, EgressServerConfig, TcpEgress};
use elasticutor_ingress::FrameScanner;
use elasticutor_runtime::{Record, Sink};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!(
        "elasticutor-egress-chaos-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Captures one real egress session through a tee proxy and returns
/// `(client_to_server_bytes, server_to_client_bytes)`.
fn capture_session() -> (Vec<u8>, Vec<u8>) {
    // Both tests capture a session, on parallel test threads: each call
    // needs a spill directory of its own.
    static CAPTURES: AtomicU64 = AtomicU64::new(0);
    let dir = tmp_dir(&format!(
        "capture{}",
        CAPTURES.fetch_add(1, Ordering::Relaxed)
    ));
    let delivered = Arc::new(AtomicU64::new(0));
    let d = Arc::clone(&delivered);
    let server = EgressServer::bind(
        EgressServerConfig::new("127.0.0.1:0"),
        Box::new(move |_, _, _, _| {
            d.fetch_add(1, Ordering::AcqRel);
        }),
    )
    .unwrap();
    let server_addr = server.local_addr();

    // The tee proxy: one accepted client, bytes copied both ways and
    // recorded.
    let proxy = TcpListener::bind("127.0.0.1:0").unwrap();
    let proxy_addr = proxy.local_addr().unwrap();
    let c2s = Arc::new(Mutex::new(Vec::new()));
    let s2c = Arc::new(Mutex::new(Vec::new()));
    let (c2s_t, s2c_t) = (Arc::clone(&c2s), Arc::clone(&s2c));
    let proxy_thread = std::thread::spawn(move || {
        let (client, _) = proxy.accept().unwrap();
        let upstream = TcpStream::connect(server_addr).unwrap();
        let (mut cr, mut uw) = (client.try_clone().unwrap(), upstream.try_clone().unwrap());
        let (mut ur, mut cw) = (upstream, client);
        let up = std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            while let Ok(n) = cr.read(&mut buf) {
                if n == 0 {
                    break;
                }
                c2s_t.lock().unwrap().extend_from_slice(&buf[..n]);
                if uw.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            let _ = uw.shutdown(std::net::Shutdown::Write);
        });
        let mut buf = [0u8; 4096];
        while let Ok(n) = ur.read(&mut buf) {
            if n == 0 {
                break;
            }
            s2c_t.lock().unwrap().extend_from_slice(&buf[..n]);
            if cw.write_all(&buf[..n]).is_err() {
                break;
            }
        }
        let _ = up.join();
    });

    let mut egress =
        TcpEgress::new(EgressConfig::new(proxy_addr.to_string(), dir.join("spill"))).unwrap();
    // A few frames with mixed batch sizes and payloads.
    for (i, n) in [7usize, 1, 13, 4].iter().enumerate() {
        let batch: Vec<Record> = (0..*n)
            .map(|j| {
                Record::new(
                    Key((j % 3) as u64),
                    Bytes::from(vec![(i * 31 + j) as u8; 5 + (j * 11) % 40]),
                )
                .with_seq((i * 20 + j / 3 + 1) as u64)
            })
            .collect();
        egress.consume(batch);
    }
    assert!(egress.handle().drain(Duration::from_secs(10)));
    egress.shutdown(Duration::from_secs(5));
    server.shutdown();
    let _ = proxy_thread.join();
    assert_eq!(delivered.load(Ordering::Acquire), 25);
    std::fs::remove_dir_all(&dir).ok();
    (
        Arc::try_unwrap(c2s).unwrap().into_inner().unwrap(),
        Arc::try_unwrap(s2c).unwrap().into_inner().unwrap(),
    )
}

/// Scans `data` to the end, returning every decoded DATA frame; any
/// scanner or decode error is returned as `Err` (typed, not a panic).
fn scan_data_frames(data: &[u8]) -> Result<Vec<DataFrame>, WireError> {
    let mut scanner = FrameScanner::new();
    scanner.extend(data);
    let mut frames = Vec::new();
    while let Some((t, payload)) = scanner.next_frame()? {
        if t != MSG_EGRESS_DATA {
            return Err(WireError::Corrupt("unexpected frame type"));
        }
        frames.push(decode_data_frame(&payload)?);
    }
    Ok(frames)
}

/// Scans `data` as the receiver→sender direction: one HELLO, then ACKs.
fn scan_ctrl_frames(data: &[u8]) -> Result<Vec<(u8, u64)>, WireError> {
    let mut scanner = FrameScanner::new();
    scanner.extend(data);
    let mut frames = Vec::new();
    while let Some((t, payload)) = scanner.next_frame()? {
        if t != MSG_EGRESS_HELLO && t != MSG_EGRESS_ACK {
            return Err(WireError::Corrupt("unexpected frame type"));
        }
        frames.push((t, decode_ctrl_frame(t, &payload)?));
    }
    Ok(frames)
}

fn assert_frame_prefix(got: &[DataFrame], original: &[DataFrame], label: &str) {
    assert!(
        got.len() <= original.len(),
        "{label}: more frames out than in"
    );
    for (i, (g, o)) in got.iter().zip(original).enumerate() {
        assert_eq!(g, o, "{label}: frame {i} altered");
    }
}

#[test]
fn captured_stream_truncation_and_flip_sweeps() {
    let (c2s, s2c) = capture_session();
    assert!(!c2s.is_empty() && !s2c.is_empty(), "capture failed");
    let original = scan_data_frames(&c2s).expect("clean capture decodes");
    assert_eq!(
        original.iter().map(|f| f.records.len()).sum::<usize>(),
        25,
        "capture should hold the whole session"
    );
    let original_ctrl = scan_ctrl_frames(&s2c).expect("clean ctrl capture decodes");
    assert_eq!(original_ctrl[0].0, MSG_EGRESS_HELLO);

    // Truncation at every byte of the DATA direction: a cut stream is a
    // clean prefix of the real frames, never an invention.
    for n in 0..=c2s.len() {
        match scan_data_frames(&c2s[..n]) {
            Ok(frames) => assert_frame_prefix(&frames, &original, &format!("truncate {n}")),
            Err(_) => panic!("truncation at {n} must be Ok (partial frame pending), scanner errors only on damage"),
        }
    }

    // Single-bit flip at every byte of the DATA direction: typed error
    // or an unaltered prefix — record corruption is always caught by
    // the frame checksum.
    let mut flip_errors = 0usize;
    for i in 0..c2s.len() {
        let mut bad = c2s.clone();
        bad[i] ^= 1 << (i % 8);
        match scan_data_frames(&bad) {
            Ok(frames) => assert_frame_prefix(&frames, &original, &format!("flip {i}")),
            Err(_) => flip_errors += 1,
        }
    }
    assert!(flip_errors > 0, "flips must surface as typed errors");

    // Same two sweeps over the ACK/HELLO direction.
    for n in 0..=s2c.len() {
        if let Ok(frames) = scan_ctrl_frames(&s2c[..n]) {
            assert!(
                frames.len() <= original_ctrl.len() && frames == original_ctrl[..frames.len()],
                "ctrl truncate {n}: altered prefix"
            );
        }
    }
    for i in 0..s2c.len() {
        let mut bad = s2c.clone();
        bad[i] ^= 1 << (i % 8);
        if let Ok(frames) = scan_ctrl_frames(&bad) {
            for f in &frames {
                assert!(
                    original_ctrl.contains(f),
                    "ctrl flip {i}: invented watermark {f:?}"
                );
            }
        }
    }
}

/// Replays damaged DATA streams at a **live** server over real TCP: the
/// server must never panic, never deliver an altered or extra record,
/// and never duplicate beyond the watermark window — damage costs a
/// tail, never correctness.
#[test]
fn live_server_survives_damaged_streams() {
    let (c2s, _) = capture_session();
    let original = scan_data_frames(&c2s).unwrap();
    let total_records: u64 = original.iter().map(|f| f.records.len() as u64).sum();

    let delivered = Arc::new(Mutex::new(Vec::new()));
    let d = Arc::clone(&delivered);
    let server = EgressServer::bind(
        EgressServerConfig::new("127.0.0.1:0"),
        Box::new(move |seq, key, rec_seq, payload| {
            d.lock().unwrap().push((seq, key, rec_seq, payload));
        }),
    )
    .unwrap();
    let addr = server.local_addr();

    let drive = |bytes: &[u8]| {
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        // Swallow the HELLO and any ACKs; we only care that the server
        // stays alive and correct. Closing our write side hands the
        // server an EOF so each probe finishes promptly.
        let _ = sock.write_all(bytes);
        let _ = sock.shutdown(std::net::Shutdown::Write);
        let mut buf = [0u8; 1024];
        let deadline = Instant::now() + Duration::from_millis(300);
        while Instant::now() < deadline {
            match sock.read(&mut buf) {
                Ok(0) => break, // server dropped us (protocol error) — expected
                Ok(_) => {}
                Err(_) => break,
            }
        }
    };

    // Truncations at a byte-stride sweep, then bit flips at every byte
    // (step 7 keeps the live sweep under a second while still touching
    // headers, lengths, checksums, and payload bytes).
    for n in (0..=c2s.len()).step_by(7) {
        drive(&c2s[..n]);
    }
    for i in (0..c2s.len()).step_by(7) {
        let mut bad = c2s.clone();
        bad[i] ^= 1 << (i % 8);
        drive(&bad);
    }

    // The server is still alive and sane: a clean full replay delivers
    // exactly the records not yet delivered by damaged prefixes.
    drive(&c2s);
    let stats = server.stats();
    assert_eq!(
        stats.watermark, total_records,
        "clean replay must land the full stream"
    );

    let log = delivered.lock().unwrap();
    // Zero loss: every delivery seq 1..=total exactly once.
    let mut seen = vec![0u32; total_records as usize + 1];
    for (seq, _, _, _) in log.iter() {
        assert!(*seq >= 1 && *seq <= total_records, "invented seq {seq}");
        seen[*seq as usize] += 1;
    }
    for (seq, n) in seen.iter().enumerate().skip(1) {
        assert_eq!(
            *n, 1,
            "delivery seq {seq} delivered {n} times — the watermark window allows at most one"
        );
    }
    // No alteration: every delivered record matches the original frame
    // content at its delivery seq.
    let mut by_seq = std::collections::HashMap::new();
    for f in &original {
        for (i, r) in f.records.iter().enumerate() {
            by_seq.insert(f.first_seq + i as u64, r.clone());
        }
    }
    for (seq, key, rec_seq, payload) in log.iter() {
        let orig = &by_seq[seq];
        assert_eq!(
            (orig.key, orig.rec_seq, &orig.payload),
            (*key, *rec_seq, payload),
            "record at seq {seq} altered"
        );
    }
    drop(log);
    server.shutdown();
}
