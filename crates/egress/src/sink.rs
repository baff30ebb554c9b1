//! [`TcpEgress`] — the at-least-once TCP sink.
//!
//! Two threads share the outbox ([`SpillQueue`]): the runtime's sink
//! pump calls [`Sink::consume`], which only appends to disk (the DAG is
//! never exposed to network latency — a dead sink costs it nothing but
//! disk bandwidth), and one **sender thread** owns the connection
//! lifecycle: connect with capped exponential backoff + jitter, fail
//! over between primary and standby, read the receiver's HELLO
//! watermark, stream outbox frames from the cursor, process ACKs, trim,
//! and force a rewind-reconnect when ACKs stall past the deadline.
//!
//! The sender is event-driven: with nothing to send it parks in one
//! epoll over the session socket and a doorbell, and wakes on *work* —
//! a frame `consume` just appended (doorbell), a readable ACK, a stop
//! request (doorbell) — or at the nearest real deadline, never on a
//! pacing timer. `consume` rings only when the sender has published
//! that it is parked, so while a backlog streams, or no sink is
//! reachable, the accept path makes no wakeup syscall.
//!
//! Fail points: `egress.spill` fires before each outbox append (the
//! accept path), `egress.write` before each socket write (the send
//! path). `err` actions model transient disk/link failures — the append
//! retries, the session reconnects; `kill` models process death.

use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use elasticutor_core::fault;
use elasticutor_ingress::{Epoll, Event, EventFd, FrameScanner, EPOLLIN, EPOLLOUT};
use elasticutor_runtime::{Backoff, ProgressNotifier, RecordBatch, Sink};

use crate::frame::{decode_ctrl_frame, MSG_EGRESS_ACK, MSG_EGRESS_HELLO};
use crate::spill::{SpillQueue, SpillReader, DEFAULT_SEGMENT_BYTES};
use crate::EgressError;

/// Tunables of a [`TcpEgress`] sink.
#[derive(Clone, Debug)]
pub struct EgressConfig {
    /// Primary sink address (`host:port`).
    pub primary: String,
    /// Optional standby sink to fail over to when the primary's retry
    /// budget is exhausted.
    pub standby: Option<String>,
    /// Directory of the disk-backed outbox (created if missing).
    pub spill_dir: PathBuf,
    /// Connect retry policy; `max_attempts` is the per-target budget
    /// before failing over (the cycle never gives up — with no sink
    /// reachable the outbox absorbs output indefinitely).
    pub retry: Backoff,
    /// Multiplicative jitter fraction applied to every backoff delay
    /// (`0.2` → uniform in `[0.8, 1.2]` × delay).
    pub jitter: f64,
    /// Reconnect (and thereby retransmit from the receiver's watermark)
    /// when sent frames go unacknowledged this long.
    pub ack_deadline: Duration,
    /// Connect and handshake deadline, and how long a write may stall
    /// on a full socket buffer before the link counts as dead.
    pub io_timeout: Duration,
    /// Liveness heartbeat of the idle sender — **off the data path**.
    /// An idle sender wakes on work (a new outbox frame, an ACK, a
    /// stop), so this bounds no record's latency; it is only how often
    /// a sender with nothing in flight looks around anyway, and how
    /// soon it retries after an outbox read error.
    pub poll_interval: Duration,
    /// Outbox segment roll threshold.
    pub segment_bytes: u64,
}

impl EgressConfig {
    /// A config pointing at `primary` with defaults for everything else.
    pub fn new(primary: impl Into<String>, spill_dir: impl Into<PathBuf>) -> Self {
        Self {
            primary: primary.into(),
            standby: None,
            spill_dir: spill_dir.into(),
            retry: Backoff::default(),
            jitter: 0.2,
            ack_deadline: Duration::from_millis(500),
            io_timeout: Duration::from_secs(1),
            poll_interval: Duration::from_millis(10),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }

    /// Sets the standby sink address.
    pub fn with_standby(mut self, standby: impl Into<String>) -> Self {
        self.standby = Some(standby.into());
        self
    }

    /// Sets the connect retry policy.
    pub fn with_retry(mut self, retry: Backoff) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the ACK deadline.
    pub fn with_ack_deadline(mut self, d: Duration) -> Self {
        self.ack_deadline = d;
        self
    }
}

/// Point-in-time counters of a running [`TcpEgress`].
#[derive(Clone, Copy, Debug, Default)]
pub struct EgressStats {
    /// Records accepted from the DAG (all durably in the outbox).
    pub records_accepted: u64,
    /// Highest delivery seq assigned (0 = none yet).
    pub last_appended: u64,
    /// Receiver watermark: every seq `<= acked` is delivered.
    pub acked: u64,
    /// Records written to a socket (includes retransmissions).
    pub records_sent: u64,
    /// Records re-sent after a rewind (upper bound on receiver-visible
    /// duplicates).
    pub records_retransmitted: u64,
    /// Frames written to a socket.
    pub frames_sent: u64,
    /// Established connections (1 = the initial connect).
    pub connects: u64,
    /// Failed connect attempts.
    pub connect_failures: u64,
    /// Target switches between primary and standby.
    pub failovers: u64,
    /// Transient outbox-append failures retried (injected via
    /// `egress.spill`).
    pub spill_retries: u64,
    /// Whether a connection is currently established.
    pub connected: bool,
    /// Outbox frames not yet trimmed by an ACK.
    pub spill_frames: u64,
    /// Outbox bytes on disk (live segments).
    pub spill_bytes: u64,
}

impl EgressStats {
    /// Records accepted but not yet acknowledged by the receiver.
    pub fn backlog(&self) -> u64 {
        self.last_appended.saturating_sub(self.acked)
    }
}

#[derive(Default)]
struct Counters {
    records_accepted: AtomicU64,
    last_appended: AtomicU64,
    acked: AtomicU64,
    records_sent: AtomicU64,
    records_retransmitted: AtomicU64,
    frames_sent: AtomicU64,
    connects: AtomicU64,
    connect_failures: AtomicU64,
    failovers: AtomicU64,
    spill_retries: AtomicU64,
    max_sent: AtomicU64,
    connected: AtomicBool,
}

struct Shared {
    spill: Mutex<SpillQueue>,
    counters: Counters,
    stop: AtomicBool,
    /// Monotonic-ns deadline for draining after stop (0 = none set).
    drain_deadline_ns: AtomicU64,
    /// Wakes the sender out of its wait: rung by `consume` when
    /// `parked` is set, and by every stop request.
    bell: EventFd,
    /// Set by the sender before it sleeps with an empty outbox cursor;
    /// whoever rings for new work clears it, so a burst of appends
    /// rings once.
    parked: AtomicBool,
    /// Notified at every ACK, for [`EgressHandle::drain`] waiters.
    acks: ProgressNotifier,
}

impl Shared {
    fn stats(&self) -> EgressStats {
        let c = &self.counters;
        let (spill_frames, spill_bytes) = {
            let q = self.spill.lock().unwrap_or_else(|e| e.into_inner());
            (q.frame_count() as u64, q.bytes())
        };
        EgressStats {
            records_accepted: c.records_accepted.load(Ordering::Relaxed),
            last_appended: c.last_appended.load(Ordering::Relaxed),
            acked: c.acked.load(Ordering::Relaxed),
            records_sent: c.records_sent.load(Ordering::Relaxed),
            records_retransmitted: c.records_retransmitted.load(Ordering::Relaxed),
            frames_sent: c.frames_sent.load(Ordering::Relaxed),
            connects: c.connects.load(Ordering::Relaxed),
            connect_failures: c.connect_failures.load(Ordering::Relaxed),
            failovers: c.failovers.load(Ordering::Relaxed),
            spill_retries: c.spill_retries.load(Ordering::Relaxed),
            connected: c.connected.load(Ordering::Relaxed),
            spill_frames,
            spill_bytes,
        }
    }

    fn drained(&self) -> bool {
        let c = &self.counters;
        c.acked.load(Ordering::Acquire) >= c.last_appended.load(Ordering::Acquire)
    }

    /// Should the sender give up now? Only after `stop`: either fully
    /// drained or past the drain deadline.
    fn should_exit(&self) -> bool {
        if !self.stop.load(Ordering::Acquire) {
            return false;
        }
        if self.drained() {
            return true;
        }
        let deadline = self.drain_deadline_ns.load(Ordering::Acquire);
        deadline != 0 && elasticutor_runtime::monotonic_ns() >= deadline
    }

    /// `wait`, cut to what is left of the drain deadline once a stop is
    /// requested — so no sender wait outlives a shutdown's patience.
    fn bounded(&self, wait: Duration) -> Duration {
        if !self.stop.load(Ordering::Acquire) {
            return wait;
        }
        let left = self
            .drain_deadline_ns
            .load(Ordering::Acquire)
            .saturating_sub(elasticutor_runtime::monotonic_ns());
        wait.min(Duration::from_nanos(left))
    }

    /// Asks the sender to stop: drain until `deadline_ns`, then exit.
    fn request_stop(&self, deadline_ns: u64) {
        self.drain_deadline_ns.store(deadline_ns, Ordering::Release);
        self.stop.store(true, Ordering::Release);
        // Unconditional (not gated on `parked`): the sender may be in
        // connect back-off, and a stop is rare enough to afford it.
        self.bell.ring();
    }

    fn on_ack(&self, watermark: u64) {
        let c = &self.counters;
        let prev = c.acked.fetch_max(watermark, Ordering::AcqRel);
        if watermark > prev {
            let mut q = self.spill.lock().unwrap_or_else(|e| e.into_inner());
            // Trim failures are non-fatal (a locked file, a racing
            // unlink): the frames stay on disk and the next ACK retries.
            let _ = q.trim(watermark);
        }
        self.acks.notify();
    }
}

/// Cloneable observer handle onto a [`TcpEgress`] — lets the driving
/// code watch stats and wait for drain while the sink itself is owned
/// by the runtime's pump thread.
#[derive(Clone)]
pub struct EgressHandle {
    shared: Arc<Shared>,
}

impl EgressHandle {
    /// Snapshot of the sink's counters.
    pub fn stats(&self) -> EgressStats {
        self.shared.stats()
    }

    /// Waits until every accepted record is acknowledged, or `timeout`
    /// elapses. Returns whether the backlog reached zero.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.shared
            .acks
            .wait_until(timeout, || self.shared.drained())
    }
}

/// The at-least-once TCP sink. Implements the runtime's [`Sink`] trait:
/// attach with `Pipeline::attach_sink` / `LiveDag::attach_sink`, get it
/// back from `SinkHandle::join` after shutdown, then call
/// [`Self::shutdown`] to drain and stop the sender thread.
pub struct TcpEgress {
    shared: Arc<Shared>,
    sender: Option<JoinHandle<()>>,
}

impl TcpEgress {
    /// Opens (or recovers) the outbox at `config.spill_dir` and starts
    /// the sender thread. Any frames a previous process left
    /// unacknowledged are resent before new output.
    pub fn new(config: EgressConfig) -> Result<Self, EgressError> {
        let spill = SpillQueue::open(&config.spill_dir, config.segment_bytes)?;
        let counters = Counters::default();
        counters
            .last_appended
            .store(spill.next_seq() - 1, Ordering::Relaxed);
        let bell = EventFd::new()?;
        let waiter = Waiter::new(&bell)?;
        let reader = spill.reader();
        let shared = Arc::new(Shared {
            spill: Mutex::new(spill),
            counters,
            stop: AtomicBool::new(false),
            drain_deadline_ns: AtomicU64::new(0),
            bell,
            parked: AtomicBool::new(false),
            acks: ProgressNotifier::new(),
        });
        let sender = {
            let shared = Arc::clone(&shared);
            let config = config.clone();
            std::thread::Builder::new()
                .name("egress-sender".into())
                .spawn(move || sender_loop(&shared, &config, waiter, reader))
                .expect("spawn egress sender")
        };
        Ok(Self {
            shared,
            sender: Some(sender),
        })
    }

    /// Observer handle (stats, drain) usable while the runtime owns the
    /// sink.
    pub fn handle(&self) -> EgressHandle {
        EgressHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Snapshot of the sink's counters.
    pub fn stats(&self) -> EgressStats {
        self.shared.stats()
    }

    /// Stops the sender after draining: keeps (re)connecting and
    /// sending until every accepted record is acknowledged or
    /// `drain_timeout` elapses, then joins the thread. Returns the
    /// final stats — `acked == last_appended` means a clean drain;
    /// anything short is still on disk for the next
    /// [`Self::new`] on the same spill directory.
    pub fn shutdown(mut self, drain_timeout: Duration) -> EgressStats {
        let deadline = elasticutor_runtime::monotonic_ns()
            + drain_timeout.as_nanos().min(u128::from(u64::MAX) / 2) as u64;
        self.shared.request_stop(deadline);
        if let Some(t) = self.sender.take() {
            let _ = t.join();
        }
        self.shared.stats()
    }
}

impl Drop for TcpEgress {
    fn drop(&mut self) {
        // Dropped without shutdown(): stop immediately (no drain wait);
        // unacknowledged frames stay recoverable on disk.
        if let Some(t) = self.sender.take() {
            self.shared.request_stop(1);
            let _ = t.join();
        }
    }
}

impl Sink for TcpEgress {
    fn consume(&mut self, batch: RecordBatch) {
        if batch.is_empty() {
            return;
        }
        // The accept path: one checked frame appended to the outbox.
        // `egress.spill` err-actions model transient disk trouble —
        // retry rather than drop (the contract is at-least-once); a
        // kill action aborts the process here, which is exactly the
        // "egress dies with a non-empty spill queue" chaos arm.
        loop {
            if fault::fail_point("egress.spill").is_err() {
                self.shared
                    .counters
                    .spill_retries
                    .fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            let mut q = self.shared.spill.lock().unwrap_or_else(|e| e.into_inner());
            match q.append(&batch) {
                Ok((_, last_seq)) => {
                    drop(q);
                    let c = &self.shared.counters;
                    c.records_accepted
                        .fetch_add(batch.len() as u64, Ordering::Relaxed);
                    c.last_appended.fetch_max(last_seq, Ordering::SeqCst);
                    // Wake the sender only if it said it is asleep (the
                    // other half of the handshake in `run_session`):
                    // while it streams a backlog, or backs off with no
                    // sink reachable, this is one load and no syscall.
                    let parked = &self.shared.parked;
                    if parked.load(Ordering::SeqCst) && parked.swap(false, Ordering::SeqCst) {
                        self.shared.bell.ring();
                    }
                    return;
                }
                Err(_) => {
                    drop(q);
                    self.shared
                        .counters
                        .spill_retries
                        .fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }
}

/// Multiplies `delay` by a uniform factor in `[1 - jitter, 1 + jitter]`.
fn jittered(delay: Duration, jitter: f64, rng: &mut u64) -> Duration {
    if jitter <= 0.0 {
        return delay;
    }
    // xorshift64 — decorrelates concurrent egresses without a rand dep.
    let mut x = *rng;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *rng = x;
    let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
    let factor = 1.0 - jitter + 2.0 * jitter * unit;
    Duration::from_secs_f64((delay.as_secs_f64() * factor).max(0.0))
}

/// What ended a connected session.
enum SessionEnd {
    /// Link error, EOF, protocol violation, or ACK-deadline expiry —
    /// reconnect (possibly after failover) and rewind.
    Reconnect,
    /// The sink was asked to stop and is drained (or past deadline).
    Exit,
}

/// Most outbox bytes the sender reads and writes per loop turn: large
/// enough that a backlog streams in a few syscalls per hundred frames,
/// small enough that ACKs are read (and the outbox trimmed) between
/// bursts.
const BURST_BYTES: u64 = 256 * 1024;

/// Epoll cookies of the sender's two wake sources.
const BELL: u64 = 0;
const SOCK: u64 = 1;

/// The sender's single wait point: one epoll over the doorbell (for the
/// sender's life) and the session socket (added per session).
struct Waiter {
    epoll: Epoll,
    events: Vec<Event>,
}

impl Waiter {
    fn new(bell: &EventFd) -> std::io::Result<Self> {
        let epoll = Epoll::new()?;
        epoll.add(bell.raw_fd(), EPOLLIN, BELL)?;
        Ok(Self {
            epoll,
            events: Vec::new(),
        })
    }

    /// Sleeps until the doorbell rings, the session socket is ready, or
    /// `timeout` (cut to the drain deadline after a stop) passes; a rung
    /// doorbell is silenced. Callers re-derive what to do from shared
    /// state, so *why* the wait ended is not reported.
    fn wait(&mut self, shared: &Shared, timeout: Duration) {
        // Rounded up: a sub-millisecond remainder must not become a
        // zero-timeout spin.
        let ms = shared.bounded(timeout).as_nanos().div_ceil(1_000_000);
        // An error here would mean a bad fd or pointer, neither of
        // which this struct can produce; with no events the caller just
        // goes around again.
        let _ = self
            .epoll
            .wait(&mut self.events, i32::try_from(ms).unwrap_or(i32::MAX));
        if self.events.iter().any(|e| e.data == BELL) {
            shared.bell.drain();
        }
    }
}

fn sender_loop(
    shared: &Shared,
    config: &EgressConfig,
    mut waiter: Waiter,
    mut reader: SpillReader,
) {
    let mut targets = vec![config.primary.clone()];
    if let Some(s) = &config.standby {
        targets.push(s.clone());
    }
    let mut target_idx = 0usize;
    let mut attempt = 0u32;
    let mut rng = u64::from(std::process::id()) << 17 | 0x9E37_79B9;

    loop {
        if shared.should_exit() {
            return;
        }
        let target = &targets[target_idx];
        let sock = match connect(target, config.io_timeout) {
            Ok(s) => s,
            Err(_) => {
                shared
                    .counters
                    .connect_failures
                    .fetch_add(1, Ordering::Relaxed);
                let delay = jittered(config.retry.delay(attempt), config.jitter, &mut rng);
                attempt += 1;
                if attempt >= config.retry.max_attempts && targets.len() > 1 {
                    // Retry budget on this target exhausted: fail over.
                    target_idx = (target_idx + 1) % targets.len();
                    attempt = 0;
                    shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
                }
                // Back-off is not parking: `parked` stays clear, so with
                // no sink reachable `consume` never pays for a wakeup
                // that could send nothing. Only a stop rings through.
                let until = Instant::now() + delay;
                while !shared.should_exit() {
                    let left = until.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    waiter.wait(shared, left);
                }
                continue;
            }
        };
        attempt = 0;
        shared.counters.connects.fetch_add(1, Ordering::Relaxed);
        let end = match waiter.epoll.add(sock.as_raw_fd(), EPOLLIN, SOCK) {
            Ok(()) => run_session(shared, config, &sock, &mut waiter, &mut reader),
            Err(_) => SessionEnd::Reconnect,
        };
        let _ = waiter.epoll.delete(sock.as_raw_fd());
        let _ = sock.shutdown(Shutdown::Both);
        shared.counters.connected.store(false, Ordering::Relaxed);
        if matches!(end, SessionEnd::Exit) {
            return;
        }
    }
}

fn connect(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "no address resolved")
    })?;
    TcpStream::connect_timeout(&resolved, timeout)
}

/// One connected session: HELLO handshake, then stream-and-ACK until
/// something ends it. The socket is non-blocking throughout; the only
/// place the thread sleeps is [`Waiter::wait`].
fn run_session(
    shared: &Shared,
    config: &EgressConfig,
    sock: &TcpStream,
    waiter: &mut Waiter,
    reader: &mut SpillReader,
) -> SessionEnd {
    let _ = sock.set_nodelay(true);
    if sock.set_nonblocking(true).is_err() {
        return SessionEnd::Reconnect;
    }

    let mut scanner = FrameScanner::new();
    // Handshake: the receiver leads with its watermark.
    let hello_deadline = Instant::now() + config.io_timeout;
    let watermark = loop {
        match read_watermarks(sock, &mut scanner, MSG_EGRESS_HELLO) {
            Ok(Some(wm)) => break wm,
            Ok(None) => {}
            Err(()) => return SessionEnd::Reconnect,
        }
        if shared.should_exit() {
            return SessionEnd::Exit;
        }
        let left = hello_deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return SessionEnd::Reconnect;
        }
        waiter.wait(shared, left);
    };
    shared.on_ack(watermark);
    shared.counters.connected.store(true, Ordering::Relaxed);

    // The rewind: resume exactly after what the receiver has. Frames
    // between its watermark and our previous cursor get resent; the
    // receiver's dedup window swallows the overlap.
    let mut next_to_send = watermark + 1;
    let mut last_ack_progress = Instant::now();
    let mut burst = Vec::with_capacity(BURST_BYTES as usize);

    loop {
        match read_watermarks(sock, &mut scanner, MSG_EGRESS_ACK) {
            Ok(Some(wm)) => {
                shared.on_ack(wm);
                last_ack_progress = Instant::now();
            }
            Ok(None) => {}
            Err(()) => return SessionEnd::Reconnect,
        }
        // After the ACKs, not before: the ACK that completes a drain
        // must end a stopping session now, not at the next wake.
        if shared.should_exit() {
            return SessionEnd::Exit;
        }
        let in_flight = shared.counters.acked.load(Ordering::Acquire) + 1 < next_to_send;
        if in_flight && last_ack_progress.elapsed() >= config.ack_deadline {
            // Sent frames unacknowledged past the deadline: the link or
            // receiver is wedged. Reconnect; the HELLO watermark rewinds
            // the cursor and everything unacked is retransmitted.
            return SessionEnd::Reconnect;
        }

        // Send phase: everything pending, up to one burst. The lock
        // covers the index lookup only — the disk read and the socket
        // write happen outside it, so `consume` never queues behind the
        // sender's I/O.
        let pending = {
            let q = shared.spill.lock().unwrap_or_else(|e| e.into_inner());
            // Nothing indexed at or after the cursor: whatever lies
            // between it and `next_seq` was acknowledged and trimmed (a
            // rewind to a receiver that lost its watermark), so the
            // cursor belongs at `next_seq`.
            q.pending_run(next_to_send, BURST_BYTES)
                .ok_or_else(|| q.next_seq())
        };
        match pending {
            Ok(run) => {
                // An outbox read failure mid-run is transient (EINTR, a
                // full file table): retry on the heartbeat below rather
                // than spin on it.
                if reader.read(&run, &mut burst).is_ok() {
                    if fault::fail_point("egress.write").is_err() {
                        return SessionEnd::Reconnect;
                    }
                    if send_all(sock, &burst, config.io_timeout, shared, waiter).is_err() {
                        return SessionEnd::Reconnect;
                    }
                    let c = &shared.counters;
                    c.frames_sent.fetch_add(run.frames, Ordering::Relaxed);
                    c.records_sent
                        .fetch_add(run.last_seq - run.first_seq + 1, Ordering::Relaxed);
                    let prev_max = c.max_sent.fetch_max(run.last_seq, Ordering::Relaxed);
                    if run.first_seq <= prev_max {
                        let dup = prev_max.min(run.last_seq) - run.first_seq + 1;
                        c.records_retransmitted.fetch_add(dup, Ordering::Relaxed);
                    }
                    if !in_flight {
                        // The ACK clock starts when something is owed.
                        last_ack_progress = Instant::now();
                    }
                    next_to_send = run.last_seq + 1;
                    if burst.capacity() > 2 * BURST_BYTES as usize {
                        // A frame far larger than the budget grew the
                        // buffer: give the excess back rather than keep
                        // its high-water mark resident all session.
                        // (Frames just over the budget — one doubling —
                        // are not worth a realloc per burst.)
                        burst.truncate(BURST_BYTES as usize);
                        burst.shrink_to(BURST_BYTES as usize);
                    }
                    // Straight back for the next burst: a sender with a
                    // backlog never parks.
                    continue;
                }
            }
            Err(next_seq) => {
                next_to_send = next_seq;
                // Park on work. Publish `parked`, then re-check the
                // outbox: `consume` bumps `last_appended`, then reads
                // `parked` — all four accesses SeqCst, so either this
                // load sees the append or `consume` sees the flag and
                // rings (the waiter-gating handshake of
                // `runtime::ProgressNotifier`).
                shared.parked.store(true, Ordering::SeqCst);
                if shared.counters.last_appended.load(Ordering::SeqCst) >= next_to_send {
                    shared.parked.store(false, Ordering::SeqCst);
                    continue;
                }
            }
        }
        // The wait ends at new work (doorbell), a readable ACK, a stop
        // (doorbell), or the nearest real deadline: what is left of the
        // ACK deadline with frames in flight, otherwise the liveness
        // heartbeat.
        let timeout = if in_flight {
            config
                .ack_deadline
                .saturating_sub(last_ack_progress.elapsed())
        } else {
            config.poll_interval
        };
        waiter.wait(shared, timeout);
        shared.parked.store(false, Ordering::SeqCst);
    }
}

/// Writes all of `bytes` to the non-blocking `sock`. A full socket
/// buffer waits for writability on the sender's epoll; `io_timeout`
/// without a byte of progress is a dead link.
fn send_all(
    sock: &TcpStream,
    mut bytes: &[u8],
    io_timeout: Duration,
    shared: &Shared,
    waiter: &mut Waiter,
) -> std::io::Result<()> {
    use std::io::{Error, ErrorKind, Write};
    let mut stalled_since: Option<Instant> = None;
    while !bytes.is_empty() {
        match (&mut (&*sock)).write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => {
                bytes = &bytes[n..];
                stalled_since = None;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let left = io_timeout
                    .saturating_sub(stalled_since.get_or_insert_with(Instant::now).elapsed());
                if left.is_zero() {
                    return Err(Error::new(ErrorKind::TimedOut, "egress write stalled"));
                }
                // ACKs wait their turn (level-triggered: still readable
                // after the write), as they did behind a blocking write.
                waiter.epoll.modify(sock.as_raw_fd(), EPOLLOUT, SOCK)?;
                waiter.wait(shared, left);
                waiter.epoll.modify(sock.as_raw_fd(), EPOLLIN, SOCK)?;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads whatever the socket holds, without blocking, and returns the
/// highest watermark among the control frames that arrived (`Ok(None)`
/// if no complete one did). Every frame must be of type `want` — HELLO
/// during the handshake, ACK after it; anything else, EOF, or a link
/// error is `Err`.
fn read_watermarks(
    sock: &TcpStream,
    scanner: &mut FrameScanner,
    want: u8,
) -> Result<Option<u64>, ()> {
    use std::io::{ErrorKind, Read};
    let mut best: Option<u64> = None;
    let mut buf = [0u8; 4096];
    loop {
        // Frames already buffered first.
        while let Some((t, payload)) = scanner.next_frame().map_err(|_| ())? {
            if t != want {
                return Err(());
            }
            let wm = decode_ctrl_frame(want, &payload).map_err(|_| ())?;
            best = Some(best.map_or(wm, |b| b.max(wm)));
        }
        match (&mut (&*sock)).read(&mut buf) {
            Ok(0) => return Err(()),
            Ok(n) => scanner.extend(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(best),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
}
