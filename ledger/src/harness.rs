//! One system under test and the generator's two connections to it: a
//! fresh scratch directory, an `EgressServer` whose deliver callback is
//! the oracle, the spawned child, and the loopback connection into its
//! `TcpIngress`. Starting one *is* the set-up the benchmark times.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use elasticutor_egress::{EgressServer, EgressServerConfig};

use crate::child::Fault;
use crate::gen::{now_ns, single_record_frame, Pattern};
use crate::json::Json;
use crate::oracle::Oracle;
use crate::spec::{Spec, PROBE_KEY};

/// Where a run keeps what it writes: `ledger/out`, inside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-run scratch directory under [`out_dir`], removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new() -> std::io::Result<ScratchDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = out_dir().join(format!(
            "run-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The spawned `ledger serve`. Killed and reaped on drop, so no exit
/// path of the generator leaves it running.
struct ChildProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl ChildProc {
    /// Reads stdout up to the line starting with `tag` and returns the
    /// rest of that line.
    fn expect_line(&mut self, tag: &str) -> Result<String, String> {
        let mut line = String::new();
        loop {
            line.clear();
            match self.stdout.read_line(&mut line) {
                Ok(0) => return Err(format!("child exited before sending {tag}")),
                Ok(_) => {
                    if let Some(rest) = line.strip_prefix(tag) {
                        return Ok(rest.trim().to_string());
                    }
                }
                Err(e) => return Err(format!("read child stdout: {e}")),
            }
        }
    }

    fn send(&mut self, cmd: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("child stdin closed")?;
        writeln!(stdin, "{cmd}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("write child stdin: {e}"))
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        self.stdin.take();
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub struct HarnessOpts<'a> {
    pub spec: &'a Spec,
    pub seconds: u64,
    pub trace: bool,
    pub fault: Option<Fault>,
}

pub struct Harness {
    child: ChildProc,
    server: Option<EgressServer>,
    pub conn: TcpStream,
    pub oracle: Arc<Mutex<Oracle>>,
    /// Records the oracle has seen, readable without its lock.
    pub delivered: Arc<AtomicU64>,
    /// Child spawn → first record delivered end to end.
    pub setup: Duration,
    /// Last field: dropped (and removed) after the child is dead.
    dir: ScratchDir,
}

impl Harness {
    pub fn start(opts: &HarnessOpts, oracle: Oracle) -> Result<Harness, String> {
        let dir = ScratchDir::new().map_err(|e| format!("create scratch dir: {e}"))?;
        let oracle = Arc::new(Mutex::new(oracle));
        let delivered = Arc::new(AtomicU64::new(0));
        let probe_seen = Arc::new(AtomicBool::new(false));
        let server = {
            let oracle = Arc::clone(&oracle);
            let delivered = Arc::clone(&delivered);
            let probe_seen = Arc::clone(&probe_seen);
            EgressServer::bind(
                EgressServerConfig {
                    bind: "127.0.0.1:0".to_string(),
                    ack_every_frames: 1,
                    watermark_path: None,
                    io_timeout: Duration::from_millis(50),
                },
                Box::new(move |_delivery_seq, key, count, payload| {
                    if key.value() == PROBE_KEY {
                        probe_seen.store(true, Ordering::Release);
                        return;
                    }
                    oracle.lock().expect("oracle lock").deliver(
                        key.value(),
                        count,
                        &payload,
                        now_ns(),
                    );
                    delivered.fetch_add(1, Ordering::Release);
                }),
            )
            .map_err(|e| format!("bind egress server: {e}"))?
        };

        let started = Instant::now();
        let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve")
            .args(["--workload", opts.spec.name])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--sink", &server.local_addr().to_string()])
            .arg("--dir")
            .arg(dir.path());
        if opts.trace {
            cmd.args(["--trace", "1"]);
        }
        if let Some(f) = opts.fault {
            cmd.args(["--fault", &format!("{f:?}").to_lowercase()]);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn child: {e}"))?;
        let mut child = ChildProc {
            stdin: child.stdin.take(),
            stdout: BufReader::new(child.stdout.take().expect("piped stdout")),
            child,
        };
        let addr = child.expect_line("READY ")?;
        let mut conn =
            TcpStream::connect(&addr).map_err(|e| format!("connect to child ingress: {e}"))?;
        conn.set_nodelay(true)
            .map_err(|e| format!("set nodelay: {e}"))?;

        // The probe: one record all the way through.
        let pattern = Pattern::new(opts.spec.payload);
        let probe = single_record_frame(&pattern, PROBE_KEY, 1, opts.spec.payload, now_ns());
        conn.write_all(&probe)
            .map_err(|e| format!("send probe: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        while !probe_seen.load(Ordering::Acquire) {
            if Instant::now() > deadline {
                return Err("probe record was not delivered within 20 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let setup = started.elapsed();

        Ok(Harness {
            child,
            server: Some(server),
            conn,
            oracle,
            delivered,
            setup,
            dir,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.child.id()
    }

    pub fn dir(&self) -> &Path {
        self.dir.path()
    }

    /// The child's cumulative layer counters right now.
    pub fn snap(&mut self) -> Result<Json, String> {
        self.child.send("snap")?;
        let line = self.child.expect_line("SNAP ")?;
        Json::parse(&line)
    }

    /// Stops the child in order and returns its final dump. The scratch
    /// directory lives until the harness is dropped.
    pub fn stop(&mut self) -> Result<Json, String> {
        self.child.send("stop")?;
        let line = self.child.expect_line("FINAL ")?;
        let status = self
            .child
            .child
            .wait()
            .map_err(|e| format!("wait for child: {e}"))?;
        if !status.success() {
            return Err(format!("child exited with {status}"));
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        Json::parse(&line)
    }
}
