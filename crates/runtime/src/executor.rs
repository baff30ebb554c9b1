//! The live elastic executor.
//!
//! # The lock-free data plane
//!
//! Steady-state record flow (`ingest` → route → process → emit) acquires
//! **no global lock**. The two-tier routing table is split in two:
//!
//! * a dense [`AtomicShardTable`] — one `AtomicU64` per shard packing
//!   `slot | epoch | paused | in-flight` — read wait-free by `ingest`
//!   (one `fetch_add`, no retry loop), resolving to a task **slot**: an
//!   index into a fixed array of cache-line-padded sender cells;
//! * the original `Mutex<RoutingState>` survives only as the slow path
//!   taken during reassignments (paused shards buffer there) and by the
//!   control plane (add/remove task, rebalance), which keeps both tiers
//!   coherent under its lock.
//!
//! The §3.3 ordering guarantee rides on a pause handshake instead of
//! mutual exclusion: `pause` sets the shard's paused bit and then waits
//! for the in-flight count to drain, so every fast-path delivery that
//! read the pre-pause owner is enqueued *before* the labeling tuple,
//! and every later ingest observes the bit and diverts to the buffer.
//! Per-key FIFO therefore holds exactly as in the locked design.
//!
//! Metrics are sharded the same way: each task slot owns a cache-line
//! padded latency cell ([`ShardedHistogram`]), locked once per batch by
//! its own thread only and merged on [`ElasticExecutor::stats`]. Records
//! travel the task channels in batches, so channel synchronization and
//! clock reads amortize across the batch (`1 + n` `monotonic_ns` calls
//! per n-record batch — each record's post-process read serves both its
//! latency measurement and the batch's busy accounting — down from four
//! per record).
//!
//! # The SPSC ring plane
//!
//! With [`ExecutorConfig::single_producer`] set (the mode every
//! [`LiveDag`](crate::dag::LiveDag) pump runs in), each task slot also
//! owns a bounded [`crossbeam::spsc`] ring, and the fast path pushes
//! `(shard, record)` items straight into the owner's ring — a slot
//! write and one release store, no mutex, no condvar, no per-batch
//! `Vec` — while the Mutex+Condvar channel survives as a *control lane*
//! for the slow path and the §3.3 protocol (labels, flush markers,
//! pause-buffer replays, stop).
//!
//! Ordering between the two lanes rides on **watermarks**: every
//! control message carries the destination ring's push cursor read at
//! send time, and the task thread processes its ring up to that mark
//! before handling the message. Combined with the pause handshake this
//! reproduces the single-queue order exactly: a label is sent only
//! after the pause drained every in-flight ring push (so the mark
//! covers all pre-pause records), and a pause-buffer replay is sent
//! before the shard's word reopens (so every later ring push lands
//! beyond the replay's mark).
//!
//! Setting [`ExecutorConfig::baseline_locked_routing`] restores the
//! pre-optimization data plane — every record through the global routing
//! mutex and a global latency-histogram lock — and exists solely as the
//! `--baseline` arm of the throughput harness.
//!
//! # Remote egress
//!
//! A shard hosted by a peer process (see [`crate::migrate`]) is marked
//! `remote` in the atomic shard word. The fast path resolves it without
//! the routing lock: the word names the shard remote, a per-shard
//! forwarder mirror supplies the egress closure, and the closure
//! enqueues onto the migration link's lock-free MPSC queue — so
//! steady-state forwarding to a remote shard is wait-free end to end.
//! The route guard spans the enqueue, which lets a migration taking the
//! shard back pause the word and know every in-flight forward already
//! reached the link queue (and therefore precedes its `COMMIT_ACK`).

use std::path::PathBuf;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use crossbeam::utils::CachePadded;
use elasticutor_core::balance::LoadBalancer;
use elasticutor_core::error::{Error, Result};
use elasticutor_core::ids::{ShardId, TaskId};
use elasticutor_core::reassign::ReassignmentTracker;
use elasticutor_core::routing::{AtomicShardTable, FastRoute, RouteDecision, RoutingTable};
use elasticutor_metrics::{LatencyHistogram, ShardedHistogram};
use elasticutor_state::{DurableOptions, ShardSnapshot, StateStore};
use parking_lot::{Mutex, RwLock};

use crate::record::{monotonic_ns, Operator, Record, RecordBatch};

/// Configuration of a live elastic executor.
#[derive(Clone, Debug)]
pub struct ExecutorConfig {
    /// `z` — number of shards (paper default 256).
    pub num_shards: u32,
    /// Task threads to start with (cores initially granted).
    pub initial_tasks: u32,
    /// `θ` — imbalance threshold for [`ElasticExecutor::rebalance`].
    pub imbalance_threshold: f64,
    /// Upper bound on shard moves per rebalance pass.
    pub max_moves_per_rebalance: usize,
    /// Capacity of the output channel **in batches**. `None` (default)
    /// is unbounded — right for a standalone executor whose consumer
    /// drains at its own pace. A pipeline bounds intermediate stages so
    /// that a stalled consumer blocks the emitting task threads,
    /// propagating backpressure upstream hop by hop.
    pub output_capacity: Option<usize>,
    /// Maximum *concurrent* task threads (slot-table size; slots are
    /// reused after [`ElasticExecutor::remove_task`]). Sized well above
    /// any machine's core count; raising it costs one padded sender
    /// cell and one latency cell per slot.
    pub max_task_slots: u32,
    /// Benchmark-only: route every record through the global routing
    /// mutex and a global latency-histogram lock, reproducing the
    /// pre-optimization data plane for `--baseline` comparisons.
    ///
    /// Defaults to `false`, unless the environment variable
    /// `ELASTICUTOR_BASELINE=1` is set — the switch CI uses to run the
    /// whole workspace test suite against the retained mutex plane, so
    /// the baseline path cannot silently rot. Explicit assignments of
    /// the field always win over the environment.
    pub baseline_locked_routing: bool,
    /// Declares that a **single thread** performs all submissions
    /// (`ingest`/`ingest_routed`/`ingest_batch*`), enabling the per-task
    /// SPSC ring fast path: records go straight into the owner task's
    /// bounded ring instead of its Mutex+Condvar channel. The
    /// [`LiveDag`](crate::dag::LiveDag) builder turns this on for every
    /// operator it constructs (each executor is fed by exactly one pump
    /// thread). Submitting from several threads anyway is safe — a
    /// producer guard serializes them — but forfeits the point; leave
    /// this `false` (the default) for multi-submitter ingress, which
    /// keeps the MPMC channel. Ignored in baseline mode.
    pub single_producer: bool,
    /// Capacity, in records, of each task's SPSC ring (rounded up to a
    /// power of two). `None` — the default — sizes the ring to
    /// [`DEFAULT_RING_CAPACITY`]; the DAG/pipeline builders derive it
    /// from their `max_batch` instead. Validated by
    /// [`ElasticExecutor::start`]: a value below 2 or above 2²⁴ panics.
    /// Meaningful only with [`Self::single_producer`]; a full ring makes
    /// the submitter back off and retry, so this knob bounds the
    /// records parked between the submitter and each task.
    pub ring_capacity: Option<usize>,
    /// Failure containment: once a shard accumulates this many operator
    /// panics, the executor flags it for quarantine. Task threads only
    /// *request* — [`ElasticExecutor::take_quarantine_requests`] hands
    /// the flagged shards to a supervisor (see
    /// [`ExecutorGroup::supervise`](crate::group::ExecutorGroup::supervise)),
    /// which parks them with [`ElasticExecutor::quarantine_shard`].
    /// `None` (the default) disables the per-shard panic counter.
    pub quarantine_after: Option<u32>,
    /// Root directory of the durable state backend. `Some(dir)` makes
    /// [`ElasticExecutor::start`] open (or crash-recover) the state
    /// store via [`StateStore::open_durable`]: every mutation is
    /// write-ahead logged, checkpoints spill immutable runs, and a
    /// restart from the same directory replays the WAL over the newest
    /// checkpoint to rebuild every hosted shard exactly. `None` (the
    /// default) keeps the pure in-memory store.
    ///
    /// The environment variable `ELASTICUTOR_DURABILITY` seeds the
    /// default: `tmpdir` picks a unique temporary directory per
    /// executor (the switch CI uses to run the whole workspace suite
    /// against the durable path), any other non-empty value is used as
    /// the directory itself. Explicit assignments win over the
    /// environment.
    pub durability: Option<PathBuf>,
}

/// Ring capacity used when [`ExecutorConfig::ring_capacity`] is `None`.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            num_shards: 256,
            initial_tasks: 1,
            imbalance_threshold: 1.2,
            max_moves_per_rebalance: 64,
            output_capacity: None,
            max_task_slots: 64,
            baseline_locked_routing: std::env::var("ELASTICUTOR_BASELINE").is_ok_and(|v| v == "1"),
            single_producer: false,
            ring_capacity: None,
            quarantine_after: None,
            durability: default_durability(),
        }
    }
}

/// Resolves [`ExecutorConfig::durability`]'s default from the
/// `ELASTICUTOR_DURABILITY` environment variable (see the field docs).
fn default_durability() -> Option<PathBuf> {
    static TMPDIR_SEQ: AtomicU64 = AtomicU64::new(0);
    match std::env::var("ELASTICUTOR_DURABILITY") {
        Ok(v) if v == "tmpdir" => Some(std::env::temp_dir().join(format!(
            "elasticutor-dur-{}-{}",
            std::process::id(),
            TMPDIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ))),
        Ok(v) if !v.is_empty() => Some(PathBuf::from(v)),
        _ => None,
    }
}

/// One item of a task's SPSC data ring: a routed record and its shard.
type RingItem = (ShardId, Record);

/// A control-lane message plus its ring watermark: the task thread
/// processes its data ring up to `mark` items before handling `msg`,
/// which serializes the two lanes into the single-queue order the §3.3
/// protocol assumes. `mark` is zero (a no-op) for executors without
/// rings and for messages that must not wait (stop).
struct TaskEnvelope {
    mark: u64,
    msg: TaskMsg,
}

/// Work delivered to task threads.
enum TaskMsg {
    /// A single routed record (fast path of `ingest`, slow-path
    /// deliveries, and baseline mode).
    One(ShardId, Record),
    /// A routed batch: all records target this task, in arrival order.
    Batch(Vec<(ShardId, Record)>),
    /// The labeling tuple of the §3.3 protocol: when the source task
    /// dequeues it, every pending record of the shard has been processed
    /// and the reassignment can complete.
    Label(u64),
    /// The cross-process analogue of `Label`: when the source task
    /// dequeues it, every record enqueued before the pause has been
    /// processed and its state committed — the migration driver blocked
    /// on the channel may now extract the shard. Carries no label
    /// because the §3.3 bookkeeping for a cross-process move lives in
    /// the migration transport, not the local reassignment tracker.
    Flush(Sender<()>),
    Stop,
}

/// Forwards records of a shard that now lives in another process. Called
/// under the routing lock, so implementations must never block (the
/// migration transport enqueues an encoded frame on an unbounded
/// channel). A forwarder outliving its link may drop records, matching
/// the executor's shutdown semantics.
pub type RemoteForwarder = Arc<dyn Fn(ShardId, Record) + Send + Sync>;

/// A waiter-gated progress condvar: task threads call [`Self::notify`]
/// after each processed batch, and blocked producers (a DAG pump that
/// filled its in-flight window) park in [`Self::wait_until`] instead of
/// spin-polling.
///
/// The hot path pays one relaxed-ish atomic load when nobody is waiting —
/// the same waiter-gating idiom as the SPSC ring's consumer wakeup. The
/// handshake against lost wakeups is the classic Dekker pattern: the
/// waiter publishes its presence (`waiters` RMW + SeqCst fence) *before*
/// re-checking the predicate, and the notifier updates progress *before*
/// its fenced read of `waiters`, so at least one side always observes the
/// other. Waits additionally take a timeout, so even a misuse (predicate
/// never satisfied) degrades to bounded-latency polling, never a hang.
///
/// One notifier may be shared by several executors — an executor group
/// passes the same `Arc` to every instance so a pump waiting on the
/// *sum* of processed counts wakes on progress at any instance.
#[derive(Debug, Default)]
pub struct ProgressNotifier {
    waiters: AtomicU32,
    lock: std::sync::Mutex<()>,
    cv: std::sync::Condvar,
}

impl ProgressNotifier {
    /// Creates an idle notifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wakes every parked waiter. Cheap when none are parked.
    #[inline]
    pub fn notify(&self) {
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::Relaxed) > 0 {
            let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.cv.notify_all();
        }
    }

    /// Parks until `done()` returns true or `timeout` elapses; returns
    /// the final predicate value. The predicate is evaluated with the
    /// waiter flag published, so a concurrent [`Self::notify`] cannot be
    /// missed.
    pub fn wait_until(&self, timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
        if done() {
            return true;
        }
        let deadline = Instant::now() + timeout;
        let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.waiters.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let satisfied = loop {
            if done() {
                break true;
            }
            let now = Instant::now();
            if now >= deadline {
                break done();
            }
            let (g, _) = self
                .cv
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
        satisfied
    }
}

/// One entry of the slot table: the delivery ends of the task thread
/// currently occupying the slot. Padded so submitters routing to
/// different tasks never share a cache line; the `RwLock` reads/writes
/// on the hot path are single uncontended atomics (contended only when
/// a task starts or stops — or when a caller violates the
/// single-producer contract, which then degrades to serialization
/// instead of unsoundness).
struct TaskSlot {
    /// The control-lane channel (and, without rings, the data lane).
    sender: RwLock<Option<Sender<TaskEnvelope>>>,
    /// The data ring's producer end (single-producer mode only). Pushes
    /// need `&mut`, hence a write lock — uncontended, one CAS.
    ring: RwLock<Option<crossbeam::spsc::Producer<RingItem>>>,
}

/// A task's delivery handles as the control plane sees them: the
/// control-lane sender plus (in ring mode) the ring's watermark/wakeup
/// handle.
#[derive(Clone)]
struct TaskLink {
    tx: Sender<TaskEnvelope>,
    ring: Option<crossbeam::spsc::RingHandle<RingItem>>,
}

impl TaskLink {
    /// Sends a control message ordered after every ring item pushed so
    /// far: the watermark read here tells the consumer how deep to
    /// drain its ring first. Callers needing the §3.3 guarantees must
    /// have completed the pause handshake before sending, so the
    /// relevant pushes are already in the cursor.
    fn send(
        &self,
        msg: TaskMsg,
    ) -> std::result::Result<(), crossbeam::channel::SendError<TaskEnvelope>> {
        let mark = self
            .ring
            .as_ref()
            .map_or(0, crossbeam::spsc::RingHandle::tail);
        let res = self.tx.send(TaskEnvelope { mark, msg });
        if let Some(ring) = &self.ring {
            ring.wake_consumer();
        }
        res
    }

    /// Sends a control message that jumps the data ring (watermark 0) —
    /// only for `Stop`, whose semantics are "drop whatever is queued".
    fn send_now(
        &self,
        msg: TaskMsg,
    ) -> std::result::Result<(), crossbeam::channel::SendError<TaskEnvelope>> {
        let res = self.tx.send(TaskEnvelope { mark: 0, msg });
        if let Some(ring) = &self.ring {
            ring.wake_consumer();
        }
        res
    }
}

/// Control state shared by the public handle and the task threads.
struct Inner<O: Operator> {
    /// Slow-path/two-tier routing (shard → task) with pause buffers,
    /// plus the task registry — one lock because every control-plane
    /// update touches both. **Not** taken by steady-state submits.
    routing: Mutex<RoutingState>,
    /// The wait-free fast mirror of tier 2, indexed by shard, resolving
    /// to slot indices. Kept coherent with `routing` by the control
    /// plane under that lock.
    shard_table: AtomicShardTable,
    /// Slot → task channel. Slot indices are what `shard_table` words
    /// carry; the pause handshake guarantees a slot read under a route
    /// guard stays occupied until the guard drops.
    slots: Box<[CachePadded<TaskSlot>]>,
    /// Per-slot latency cells, written by each task thread into its own
    /// padded cell (one lock per batch), merged on `stats`.
    latency: ShardedHistogram,
    /// Latency history of retired task slots — and, in baseline mode,
    /// the single global histogram every record locks.
    retired_latency: Mutex<LatencyHistogram>,
    /// The §3.3 state machine: in-flight reassignments by label, with
    /// exactly-once completion (shared with the simulated engine via
    /// `elasticutor_core::reassign`).
    reassigns: Mutex<ReassignmentTracker<()>>,
    state: Arc<StateStore>,
    operator: O,
    outputs: Sender<RecordBatch>,
    /// Per-shard record counters for the balancer (reset on rebalance).
    shard_counts: Vec<AtomicU64>,
    /// Records accepted by `ingest` (λ numerator for live controllers).
    arrivals: AtomicU64,
    processed: AtomicU64,
    /// Records emitted downstream (lets a pipeline detect quiescence of
    /// the inter-stage channel with monotonic counters alone).
    emitted: AtomicU64,
    /// Nanoseconds task threads spent inside `Operator::process` (μ
    /// denominator for live controllers).
    busy_ns: AtomicU64,
    /// Records whose `Operator::process` panicked (counted under
    /// `processed` as well — they were consumed).
    operator_panics: AtomicU64,
    /// Per-shard cumulative operator panic counts — touched only on the
    /// (already slow) panic path, reset when a quarantined shard is
    /// released. Allocated regardless, consulted only when
    /// `quarantine_after` is set.
    panic_counts: Box<[AtomicU32]>,
    /// See [`ExecutorConfig::quarantine_after`].
    quarantine_after: Option<u32>,
    /// Shards whose panic count crossed the threshold. Task threads
    /// only *flag* shards here — parking one blocks on the owner task's
    /// flush marker, so a supervisor thread must run the actual
    /// [`ElasticExecutor::quarantine_shard`].
    quarantine_req: Mutex<Vec<ShardId>>,
    /// Quarantined shards, parked with their extracted state until
    /// [`ElasticExecutor::release_quarantined`].
    parked: Mutex<std::collections::BTreeMap<ShardId, ShardSnapshot>>,
    /// Records dropped because their shard was quarantined.
    quarantine_dropped: AtomicU64,
    /// Completed reassignments: (sync_ns, total_ns).
    reassignment_log: Mutex<Vec<(u64, u64)>>,
    /// See [`ExecutorConfig::baseline_locked_routing`].
    baseline: bool,
    /// Per-task SPSC rings are live (`single_producer` and not
    /// baseline); the fast path pushes rings, the channel is control.
    use_rings: bool,
    /// Wait-free mirror of `RoutingState::remote`, indexed by shard:
    /// the fast path reads it (one uncontended `RwLock` read) when the
    /// shard word says remote, without touching the routing lock. Kept
    /// coherent by the control plane: set *before* the word flips to
    /// remote, cleared *after* the word is paused back.
    remote_fast: Box<[RwLock<Option<RemoteForwarder>>]>,
    /// Signalled after every processed batch so blocked producers can
    /// park instead of spin-polling `processed`. Shared across all
    /// instances of an executor group.
    progress: Arc<ProgressNotifier>,
}

struct RoutingState {
    table: RoutingTable<Record>,
    /// Shards hosted by a remote process: records route to the peer's
    /// forwarder instead of a local task. A remote shard's atomic word
    /// stays paused permanently, so every fast-path submit diverts here.
    remote: std::collections::BTreeMap<ShardId, RemoteForwarder>,
    senders: std::collections::BTreeMap<TaskId, TaskLink>,
    /// Task → occupied slot index.
    task_slots: std::collections::BTreeMap<TaskId, usize>,
    /// Slot indices available for new tasks.
    free_slots: Vec<usize>,
    /// Tasks currently being drained by `remove_task`: they reject new
    /// inbound shard moves, closing the race where a move begun after
    /// the drain check lands a shard on a task about to stop.
    draining: std::collections::BTreeSet<TaskId>,
    next_task: u32,
}

/// Cumulative load counters sampled by live controllers (see
/// [`ElasticExecutor::load_sample`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadSample {
    /// Records accepted by `ingest` since start.
    pub arrivals: u64,
    /// Records fully processed since start.
    pub processed: u64,
    /// Nanoseconds task threads spent inside the operator since start.
    pub busy_ns: u64,
    /// Bytes of state currently held.
    pub state_bytes: u64,
}

/// Runtime statistics snapshot.
#[derive(Clone, Debug)]
pub struct ExecutorStats {
    /// Records fully processed.
    pub processed: u64,
    /// Records whose operator invocation panicked. The record is dropped
    /// but the task thread, routing state, and shard state all survive —
    /// a poison record cannot take the executor down.
    pub operator_panics: u64,
    /// Live task count.
    pub tasks: usize,
    /// Latency distribution (ingest → processed), merged across task
    /// slots (live and retired).
    pub latency: LatencyHistogram,
    /// Completed reassignments as (sync_ns, total_ns) pairs.
    pub reassignments: Vec<(u64, u64)>,
    /// Total state bytes currently held.
    pub state_bytes: u64,
}

/// A live elastic executor: a pool of task threads behind a two-tier
/// routing table, sharing one in-process state store.
pub struct ElasticExecutor<O: Operator> {
    inner: Arc<Inner<O>>,
    threads: Mutex<Vec<(TaskId, JoinHandle<()>)>>,
    output_rx: Receiver<RecordBatch>,
    config: ExecutorConfig,
}

impl<O: Operator> ElasticExecutor<O> {
    /// Starts the executor with `config.initial_tasks` task threads.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration: zero shards or tasks,
    /// `initial_tasks > max_task_slots`, or a `ring_capacity` outside
    /// `2..=2^24`.
    pub fn start(config: ExecutorConfig, operator: O) -> Self {
        let (out_tx, out_rx) = match config.output_capacity {
            Some(cap) => bounded(cap),
            None => unbounded(),
        };
        Self::start_with_output(config, operator, out_tx, out_rx, Arc::default())
    }

    /// Starts the executor emitting into a **caller-supplied** output
    /// channel, with a caller-supplied progress notifier. This is how an
    /// executor group wires all its instances to one merged output
    /// stream (every instance holds a clone of the same `Sender`, so
    /// downstream consumers see a single channel regardless of the
    /// group's size) and one shared [`ProgressNotifier`] (so a producer
    /// waiting on the group's summed `processed` count wakes on progress
    /// at any instance). `config.output_capacity` is ignored — the
    /// caller already chose the channel's bound.
    ///
    /// # Panics
    ///
    /// Same validation as [`Self::start`].
    pub fn start_with_output(
        config: ExecutorConfig,
        operator: O,
        out_tx: Sender<RecordBatch>,
        out_rx: Receiver<RecordBatch>,
        progress: Arc<ProgressNotifier>,
    ) -> Self {
        assert!(config.num_shards > 0, "need at least one shard");
        assert!(config.initial_tasks > 0, "need at least one task");
        assert!(
            config.initial_tasks <= config.max_task_slots,
            "initial_tasks exceeds max_task_slots"
        );
        if let Some(capacity) = config.ring_capacity {
            assert!(
                (2..=1 << 24).contains(&capacity),
                "ring_capacity {capacity} outside the supported 2..=2^24 range"
            );
        }
        let max_slots = config.max_task_slots as usize;
        let inner = Arc::new(Inner {
            routing: Mutex::new(RoutingState {
                table: RoutingTable::new(config.num_shards, TaskId(0)),
                remote: std::collections::BTreeMap::new(),
                senders: std::collections::BTreeMap::new(),
                task_slots: std::collections::BTreeMap::new(),
                free_slots: (0..max_slots).rev().collect(),
                draining: std::collections::BTreeSet::new(),
                next_task: 0,
            }),
            shard_table: AtomicShardTable::new(config.num_shards, 0),
            slots: (0..max_slots)
                .map(|_| {
                    CachePadded::new(TaskSlot {
                        sender: RwLock::new(None),
                        ring: RwLock::new(None),
                    })
                })
                .collect(),
            latency: ShardedHistogram::new(max_slots),
            retired_latency: Mutex::new(LatencyHistogram::new()),
            reassigns: Mutex::new(ReassignmentTracker::new()),
            state: match &config.durability {
                // Open-or-recover: a fresh directory starts all dense
                // shards hosted empty (same shape as `with_shards`); a
                // reused one replays its WAL over the newest checkpoint.
                Some(dir) => {
                    StateStore::open_durable(config.num_shards, DurableOptions::new(dir.clone()))
                        .unwrap_or_else(|e| panic!("open durable state at {}: {e}", dir.display()))
                }
                None => Arc::new(StateStore::with_shards(config.num_shards)),
            },
            operator,
            outputs: out_tx,
            shard_counts: (0..config.num_shards).map(|_| AtomicU64::new(0)).collect(),
            arrivals: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            emitted: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            operator_panics: AtomicU64::new(0),
            panic_counts: (0..config.num_shards).map(|_| AtomicU32::new(0)).collect(),
            quarantine_after: config.quarantine_after,
            quarantine_req: Mutex::new(Vec::new()),
            parked: Mutex::new(std::collections::BTreeMap::new()),
            quarantine_dropped: AtomicU64::new(0),
            reassignment_log: Mutex::new(Vec::new()),
            baseline: config.baseline_locked_routing,
            use_rings: config.single_producer && !config.baseline_locked_routing,
            remote_fast: (0..config.num_shards).map(|_| RwLock::new(None)).collect(),
            progress,
        });
        let executor = Self {
            inner,
            threads: Mutex::new(Vec::new()),
            output_rx: out_rx,
            config,
        };
        for _ in 0..executor.config.initial_tasks {
            executor.add_task().expect("initial task");
        }
        // Spread shards across the initial tasks (both tiers, under the
        // routing lock, before any record can arrive).
        {
            let mut rs = executor.inner.routing.lock();
            let tasks: Vec<TaskId> = rs.senders.keys().copied().collect();
            for s in 0..executor.config.num_shards {
                let t = tasks[s as usize % tasks.len()];
                rs.table.set_task(ShardId(s), t).expect("fresh shard");
                let slot = rs.task_slots[&t] as u32;
                executor.inner.shard_table.set_slot(ShardId(s), slot);
            }
        }
        executor
    }

    /// Tier-1 hash — no lock, no shared state.
    #[inline]
    fn shard_of(&self, record: &Record) -> ShardId {
        ShardId(elasticutor_core::hash::key_to_shard(
            record.key.value(),
            self.config.num_shards,
        ))
    }

    /// Submits a record to an explicitly chosen shard, bypassing the
    /// key → shard hash — the delivery primitive behind shuffle and
    /// broadcast edges of a [`LiveDag`](crate::dag::LiveDag), whose
    /// shard is picked by the edge's grouping rather than the key. Same
    /// wait-free routing and ordering guarantees as
    /// [`Ingest::ingest`](crate::ingest::Ingest::ingest), but
    /// per-*shard* FIFO instead of per-key (per-key FIFO follows only
    /// when the caller routes each key consistently, as the key hash
    /// does).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is outside `0..num_shards`.
    pub fn ingest_routed(&self, shard: ShardId, record: Record) {
        self.inner.arrivals.fetch_add(1, Ordering::Relaxed);
        self.inner.shard_counts[shard.index()].fetch_add(1, Ordering::Relaxed);
        if self.inner.baseline {
            self.submit_slow(shard, record);
            return;
        }
        let mut record = record;
        loop {
            match self.inner.shard_table.begin_route(shard) {
                FastRoute::Deliver(guard) if self.inner.use_rings => {
                    // Ring mode: push the item into the owner's SPSC
                    // ring. The guard spans the push (a pending pause
                    // waits for it), but never a *blocked* push: on a
                    // full ring we drop the guard, back off, and
                    // re-route — the shard may have been paused or
                    // reassigned while the ring was full.
                    let mut cell = self.inner.slots[guard.slot() as usize].ring.write();
                    match cell.as_mut() {
                        Some(producer) => match producer.try_push((shard, record)) {
                            Ok(()) => return,
                            Err((_, r)) => {
                                record = r;
                                drop(cell);
                                drop(guard);
                                ring_full_backoff();
                            }
                        },
                        // Empty slot: the executor was halted in place.
                        None => {
                            drop(cell);
                            drop(guard);
                            return self.submit_slow(shard, record);
                        }
                    }
                }
                FastRoute::Deliver(guard) => {
                    let cell = self.inner.slots[guard.slot() as usize].sender.read();
                    match cell.as_ref() {
                        // The in-flight guard is held across the send: a
                        // concurrent pause of this shard enqueues its label
                        // only after we finish, so the record lands ahead of
                        // the label in the owner's FIFO queue. A send error
                        // means the executor is halting; the record is
                        // dropped, matching shutdown semantics.
                        Some(sender) => {
                            let _ = sender.send(TaskEnvelope {
                                mark: 0,
                                msg: TaskMsg::One(shard, record),
                            });
                        }
                        // Empty slot: the executor was halted in place
                        // (`halt_shared`). Resolve under the lock (which
                        // will drop the record — no senders remain).
                        None => {
                            drop(cell);
                            drop(guard);
                            self.submit_slow(shard, record);
                        }
                    }
                    return;
                }
                FastRoute::Remote(guard) => {
                    // Wait-free remote egress: the forwarder mirror is
                    // read without the routing lock, and the enqueue it
                    // performs is a lock-free MPSC push. The guard spans
                    // the call so a migration taking the shard back can
                    // drain in-flight forwards.
                    let cell = self.inner.remote_fast[shard.index()].read();
                    match cell.as_ref() {
                        Some(forward) => forward(shard, record),
                        None => {
                            drop(cell);
                            drop(guard);
                            self.submit_slow(shard, record);
                        }
                    }
                    return;
                }
                FastRoute::Paused => return self.submit_slow(shard, record),
            }
        }
    }

    /// Submits a batch of `(shard, record)` pairs with the shard chosen
    /// by the caller — the batched form of [`Self::ingest_routed`],
    /// amortizing channel synchronization: records are routed
    /// individually (wait-free) but grouped per destination task into
    /// one channel send each. Per-key FIFO holds when the caller routes
    /// each key consistently — records of one key share a shard, a
    /// shard's owner cannot change mid-wave (the route guards pin it),
    /// waves preserve submission order, and a shard observed paused
    /// diverts for the rest of the call so no later record can overtake
    /// through the fast path.
    ///
    /// The input iterator is consumed in bounded waves of 256 records:
    /// route guards are held only across one wave's grouping and sends —
    /// never while pulling from the caller's iterator — so a slow or
    /// unbounded iterator cannot stall a concurrent reassignment's pause
    /// handshake, and the number of guards alive per call stays far
    /// below the shard word's in-flight capacity.
    ///
    /// # Panics
    ///
    /// Panics if any shard is outside `0..num_shards`.
    pub fn ingest_batch_routed(&self, records: impl IntoIterator<Item = (ShardId, Record)>) {
        /// Records routed (and guards held) per wave.
        const ROUTE_WAVE: usize = 256;
        if self.inner.baseline {
            for (shard, record) in records {
                self.ingest_routed(shard, record);
            }
            return;
        }
        let mut iter = records.into_iter();
        let mut wave: Vec<(ShardId, Record)> = Vec::new();
        // Shards observed paused during this call: every later record
        // of the same shard must divert too, or it could overtake the
        // diverted one through the fast path once the pause completes.
        let mut diverted: Vec<ShardId> = Vec::new();
        let mut slow: Vec<(ShardId, Record)> = Vec::new();
        loop {
            // Pull the next wave with no guards held.
            wave.extend(iter.by_ref().take(ROUTE_WAVE));
            if wave.is_empty() {
                break;
            }
            self.inner
                .arrivals
                .fetch_add(wave.len() as u64, Ordering::Relaxed);
            for (shard, _) in &wave {
                self.inner.shard_counts[shard.index()].fetch_add(1, Ordering::Relaxed);
            }
            self.route_wave(&mut wave, &mut diverted, &mut slow);
        }
        if !slow.is_empty() {
            let mut rs = self.inner.routing.lock();
            for (shard, record) in slow {
                Self::route_locked(&mut rs, shard, record);
            }
        }
    }

    /// Routes one wave of pre-counted records, leaving `wave` empty:
    /// guards pin every routed shard while per-slot groups are
    /// delivered (ring pushes in ring mode, one channel batch per slot
    /// otherwise). Records a full ring rejects are retried — with all
    /// guards dropped in between, so a pending pause can complete and
    /// the retry re-reads the (possibly changed) routing.
    ///
    /// Per shard, a pass's delivered records precede its diverted ones,
    /// and a retried record precedes every record of its shard diverted
    /// in an earlier pass — so each pass's diversions are spliced in
    /// ahead of the wave's earlier ones, its ring-less groups ahead of
    /// its own.
    fn route_wave(
        &self,
        wave: &mut Vec<(ShardId, Record)>,
        diverted: &mut Vec<ShardId>,
        slow: &mut Vec<(ShardId, Record)>,
    ) {
        let mut retry: Vec<(ShardId, Record)> = Vec::new();
        let wave_start = slow.len();
        loop {
            // This pass's diverted records, in submission order per shard.
            let mut diverted_now: Vec<(ShardId, Record)> = Vec::new();
            {
                // Per-slot groups plus the guards pinning every routed
                // shard.
                let mut groups: Vec<(usize, Vec<(ShardId, Record)>)> = Vec::new();
                let mut guards = Vec::new();
                for (shard, record) in wave.drain(..) {
                    if !diverted.is_empty() && diverted.contains(&shard) {
                        diverted_now.push((shard, record));
                        continue;
                    }
                    match self.inner.shard_table.begin_route(shard) {
                        FastRoute::Deliver(guard) => {
                            let slot = guard.slot() as usize;
                            match groups.iter_mut().find(|(s, _)| *s == slot) {
                                Some((_, group)) => group.push((shard, record)),
                                None => groups.push((slot, vec![(shard, record)])),
                            }
                            guards.push(guard);
                        }
                        FastRoute::Remote(guard) => {
                            let cell = self.inner.remote_fast[shard.index()].read();
                            match cell.as_ref() {
                                Some(forward) => forward(shard, record),
                                None => diverted_now.push((shard, record)),
                            }
                            drop(cell);
                            drop(guard);
                        }
                        FastRoute::Paused => {
                            diverted.push(shard);
                            diverted_now.push((shard, record));
                        }
                    }
                }
                for (slot, group) in groups {
                    if self.inner.use_rings {
                        let mut cell = self.inner.slots[slot].ring.write();
                        match cell.as_mut() {
                            Some(producer) => {
                                let mut queue: std::collections::VecDeque<(ShardId, Record)> =
                                    group.into();
                                producer.try_push_batch(&mut queue);
                                // A full ring keeps the suffix; records
                                // of one shard all share this group, so
                                // retrying the suffix preserves their
                                // order.
                                retry.extend(queue);
                            }
                            None => {
                                drop(cell);
                                diverted_now.splice(0..0, group);
                            }
                        }
                    } else {
                        let cell = self.inner.slots[slot].sender.read();
                        match cell.as_ref() {
                            Some(sender) => {
                                let _ = sender.send(TaskEnvelope {
                                    mark: 0,
                                    msg: TaskMsg::Batch(group),
                                });
                            }
                            None => {
                                drop(cell);
                                diverted_now.splice(0..0, group);
                            }
                        }
                    }
                }
                // Only now may pending pauses of this wave's shards
                // complete.
                drop(guards);
            }
            slow.splice(wave_start..wave_start, diverted_now);
            if retry.is_empty() {
                return;
            }
            ring_full_backoff();
            std::mem::swap(wave, &mut retry);
        }
    }

    /// Slow path: route one record under the routing lock (paused shards
    /// buffer; records for a halted executor drop).
    fn submit_slow(&self, shard: ShardId, record: Record) {
        let mut rs = self.inner.routing.lock();
        Self::route_locked(&mut rs, shard, record);
    }

    fn route_locked(rs: &mut RoutingState, shard: ShardId, record: Record) {
        // Remote shards forward to their peer before the local table is
        // consulted (the stale local mapping is kept only so the table's
        // shard arithmetic stays dense).
        if let Some(forward) = rs.remote.get(&shard) {
            forward(shard, record);
            return;
        }
        match rs.table.route_shard(shard, record) {
            RouteDecision::Buffered(_) => {} // parked until the move completes
            RouteDecision::Deliver(task, record) => {
                // A missing sender means the executor was halted in
                // place (`halt_shared`); drop the record rather than
                // panic the submitter. The watermarked send orders this
                // record behind every ring item already pushed — in
                // particular behind any earlier fast-path record of the
                // same shard.
                if let Some(link) = rs.senders.get(&task) {
                    let _ = link.send(TaskMsg::One(shard, record));
                }
            }
        }
    }

    /// Adds a task thread (a core was granted). Returns its id. Errors
    /// with [`Error::CapacityExceeded`] once
    /// [`ExecutorConfig::max_task_slots`] threads are live.
    pub fn add_task(&self) -> Result<TaskId> {
        let (tx, rx) = unbounded();
        let ring = self.inner.use_rings.then(|| {
            crossbeam::spsc::ring::<RingItem>(
                self.config.ring_capacity.unwrap_or(DEFAULT_RING_CAPACITY),
            )
        });
        let (producer, consumer) = match ring {
            Some((p, c)) => (Some(p), Some(c)),
            None => (None, None),
        };
        let link = TaskLink {
            tx: tx.clone(),
            ring: producer.as_ref().map(crossbeam::spsc::Producer::handle),
        };
        let (id, slot) = {
            let mut rs = self.inner.routing.lock();
            let slot = rs.free_slots.pop().ok_or(Error::CapacityExceeded {
                requested: self.inner.slots.len() + 1,
                available: self.inner.slots.len(),
            })?;
            let id = TaskId(rs.next_task);
            rs.next_task += 1;
            rs.senders.insert(id, link);
            rs.task_slots.insert(id, slot);
            *self.inner.slots[slot].sender.write() = Some(tx);
            *self.inner.slots[slot].ring.write() = producer;
            (id, slot)
        };
        let inner = Arc::clone(&self.inner);
        let handle = std::thread::Builder::new()
            .name(format!("elastic-task-{}", id.0))
            .spawn(move || match consumer {
                Some(ring) => task_loop_ring(inner, id, slot, rx, ring),
                None => task_loop(inner, id, slot, rx),
            })
            .expect("spawn task thread");
        self.threads.lock().push((id, handle));
        Ok(id)
    }

    /// Removes a task thread (its core was revoked): drains its shards to
    /// the survivors via the reassignment protocol, then stops it.
    pub fn remove_task(&self, task: TaskId) -> Result<()> {
        let (loads, assignment, survivors) = {
            let mut rs = self.inner.routing.lock();
            if !rs.senders.contains_key(&task) {
                return Err(Error::UnknownTask(task));
            }
            if rs.senders.len().saturating_sub(rs.draining.len()) <= 1
                || rs.draining.contains(&task)
            {
                return Err(Error::LastTask(task));
            }
            // From here on no new reassignment may target this task
            // (`reassign_shard` checks the flag under the same lock), so
            // once the drain loop below observes "owns nothing, nothing
            // in flight toward it", that stays true.
            rs.draining.insert(task);
            let loads: Vec<f64> = self
                .inner
                .shard_counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed) as f64)
                .collect();
            let assignment = rs.table.assignment().to_vec();
            let survivors: Vec<TaskId> = rs
                .senders
                .keys()
                .copied()
                .filter(|t| *t != task && !rs.draining.contains(t))
                .collect();
            (loads, assignment, survivors)
        };
        let balancer = LoadBalancer {
            imbalance_threshold: self.config.imbalance_threshold,
            max_moves: usize::MAX,
        };
        let moves = balancer.plan_task_removal(&loads, &assignment, task, &survivors);
        for m in &moves {
            let _ = self.reassign_shard(m.shard, m.to);
        }
        // Drain until the task owns nothing and no in-flight reassignment
        // still targets it. The planned moves above are not enough on
        // their own: a reassignment that was already in flight when we
        // snapshotted the assignment can land a *new* shard on this task
        // afterwards, and paused shards reject new moves until their own
        // protocol completes — so keep re-planning stragglers each pass.
        let mut spread = 0usize;
        loop {
            // Read ownership and in-flight state under BOTH locks
            // (routing before reassigns, the global order): the label
            // handler takes the same two locks to complete a move, so a
            // pre-drain move targeting this task cannot land a shard
            // here between the two reads. Once both reads are clean
            // while the `draining` flag blocks new inbound moves, the
            // task stays empty.
            let (owned, pending_to_task) = {
                let mut rs = self.inner.routing.lock();
                if !rs.senders.contains_key(&task) {
                    // Halted under us (the group retired this instance
                    // mid-drain): every task is already stopped and
                    // unregistered, and no survivor is left to take the
                    // local copies this loop would otherwise wait on
                    // forever.
                    rs.draining.remove(&task);
                    return Err(Error::UnknownTask(task));
                }
                let tracker = self.inner.reassigns.lock();
                // Remote shards keep a stale local mapping; they are not
                // owned by anyone here and must not block the drain.
                let owned: Vec<ShardId> = rs
                    .table
                    .shards_of(task)
                    .into_iter()
                    .filter(|s| !rs.remote.contains_key(s))
                    .collect();
                (owned, tracker.targets_task(task))
            };
            if owned.is_empty() && !pending_to_task {
                break;
            }
            for (shard, to) in
                elasticutor_core::reassign::spread_round_robin(&owned, &survivors, spread)
            {
                // Failures (shard paused mid-protocol, concurrent owner
                // change) resolve themselves; retry next pass.
                let _ = self.reassign_shard(shard, to);
            }
            spread = spread.wrapping_add(owned.len());
            std::thread::yield_now();
        }
        // Stop the thread and unregister it. The task owns no shards, so
        // no shard word references its slot and no fast-path submitter
        // can reach the sender cell we are about to clear.
        let (link, slot) = {
            let mut rs = self.inner.routing.lock();
            rs.draining.remove(&task);
            // "Checked present" at entry, but the drain above ran
            // unlocked: a concurrent halt (the group retiring this
            // instance) may have stopped and unregistered every task
            // since. Then there is nothing left to remove.
            let (Some(link), Some(slot)) = (rs.senders.remove(&task), rs.task_slots.remove(&task))
            else {
                return Err(Error::UnknownTask(task));
            };
            *self.inner.slots[slot].sender.write() = None;
            // Dropping the producer closes the ring; it is empty — the
            // drain above moved every shard off this task, and each
            // move's watermark forced the pre-move items through.
            *self.inner.slots[slot].ring.write() = None;
            (link, slot)
        };
        // A halt that has sent its own `Stop` but not yet unregistered
        // the tasks leaves a closed channel here: the thread is already
        // on its way out (and `halt` owns its join handle).
        let _ = link.send_now(TaskMsg::Stop);
        let mut threads = self.threads.lock();
        if let Some(pos) = threads.iter().position(|(id, _)| *id == task) {
            let (_, handle) = threads.remove(pos);
            drop(threads);
            handle.join().expect("task thread exits cleanly");
        }
        // Retire the slot's latency history and free the slot — under
        // the routing lock so `stats` never sees the cell twice.
        {
            let mut rs = self.inner.routing.lock();
            let hist = self.inner.latency.take_cell(slot);
            self.inner.retired_latency.lock().merge(&hist);
            rs.free_slots.push(slot);
        }
        Ok(())
    }

    /// Starts the §3.3 consistent reassignment of `shard` to task `to`.
    /// Returns once the protocol is *initiated*; completion is
    /// asynchronous (when the labeling tuple drains). Errors if the shard
    /// is already in flight, the move is a no-op, or `to` is unknown.
    pub fn reassign_shard(&self, shard: ShardId, to: TaskId) -> Result<()> {
        let mut rs = self.inner.routing.lock();
        if !rs.senders.contains_key(&to) || rs.draining.contains(&to) {
            return Err(Error::UnknownTask(to));
        }
        if rs.remote.contains_key(&shard) {
            return Err(Error::ShardNotLocal(shard));
        }
        let from = rs.table.task_of(shard)?;
        if from == to {
            return Err(Error::ReassignmentNoop(shard, to));
        }
        rs.table.pause(shard)?;
        // The wait-free handshake: set the paused bit, wait out every
        // fast-path route that read the old owner. After this, all of
        // them are enqueued at `from` — the label below lands behind
        // them, and no later record can reach `from` outside the buffer.
        self.inner.shard_table.pause(shard);
        let label = self
            .inner
            .reassigns
            .lock()
            .begin(shard, from, to, monotonic_ns(), ());
        if rs.senders[&from].send(TaskMsg::Label(label)).is_err() {
            // The owner's channel closed under us (a halt stopped the
            // task threads and has not unregistered them yet): unwind
            // the move under this same lock hold.
            let _ = self.inner.reassigns.lock().abort(label);
            let _ = rs.table.abort_reassignment(shard);
            self.inner.shard_table.abort(shard);
            return Err(Error::UnknownTask(from));
        }
        Ok(())
    }

    /// Plans and executes one intra-executor rebalancing pass (paper
    /// §3.1), returning the number of shard moves initiated.
    pub fn rebalance(&self) -> usize {
        let (loads, assignment, tasks) = {
            let rs = self.inner.routing.lock();
            let loads: Vec<f64> = self
                .inner
                .shard_counts
                .iter()
                .map(|c| c.swap(0, Ordering::Relaxed) as f64)
                .collect();
            (
                loads,
                rs.table.assignment().to_vec(),
                rs.senders
                    .keys()
                    .copied()
                    .filter(|t| !rs.draining.contains(t))
                    .collect::<Vec<TaskId>>(),
            )
        };
        let balancer = LoadBalancer {
            imbalance_threshold: self.config.imbalance_threshold,
            max_moves: self.config.max_moves_per_rebalance,
        };
        let plan = balancer.plan(&loads, &assignment, &tasks);
        let mut initiated = 0;
        for m in plan.moves {
            if self.reassign_shard(m.shard, m.to).is_ok() {
                initiated += 1;
            }
        }
        initiated
    }

    /// The output stream of record batches emitted by the operator. Each
    /// batch preserves processing order; flatten for a per-record view.
    pub fn outputs(&self) -> &Receiver<RecordBatch> {
        &self.output_rx
    }

    /// Blocks until at least `n` records have been fully processed.
    pub fn wait_for_processed(&self, n: u64) {
        while !self
            .inner
            .progress
            .wait_until(Duration::from_millis(50), || {
                self.inner.processed.load(Ordering::Acquire) >= n
            })
        {}
    }

    /// The progress notifier task threads signal after each processed
    /// batch — the handle producers park on instead of spin-polling
    /// [`Self::processed_count`].
    pub fn progress_notifier(&self) -> &Arc<ProgressNotifier> {
        &self.inner.progress
    }

    /// Records fully processed so far (cheap atomic read; `stats` clones
    /// histograms and takes locks, this does not).
    pub fn processed_count(&self) -> u64 {
        self.inner.processed.load(Ordering::Acquire)
    }

    /// Records emitted downstream so far (cheap atomic read).
    pub fn emitted_count(&self) -> u64 {
        self.inner.emitted.load(Ordering::Acquire)
    }

    /// A cheap cumulative load sample for live controllers: consecutive
    /// samples differenced over a wall-clock window give λ (arrival
    /// rate), μ (per-core service rate = processed / busy seconds), and
    /// the standing backlog (arrivals − processed).
    pub fn load_sample(&self) -> LoadSample {
        LoadSample {
            arrivals: self.inner.arrivals.load(Ordering::Relaxed),
            processed: self.inner.processed.load(Ordering::Acquire),
            busy_ns: self.inner.busy_ns.load(Ordering::Relaxed),
            state_bytes: self.inner.state.total_bytes(),
        }
    }

    /// A snapshot of runtime statistics.
    pub fn stats(&self) -> ExecutorStats {
        let rs = self.inner.routing.lock();
        let mut latency = self.inner.retired_latency.lock().clone();
        for &slot in rs.task_slots.values() {
            latency.merge(&self.inner.latency.cell(slot));
        }
        ExecutorStats {
            processed: self.inner.processed.load(Ordering::Acquire),
            operator_panics: self.inner.operator_panics.load(Ordering::Relaxed),
            tasks: rs.senders.len(),
            latency,
            reassignments: self.inner.reassignment_log.lock().clone(),
            state_bytes: self.inner.state.total_bytes(),
        }
    }

    /// Current shard→task assignment (snapshot).
    pub fn assignment(&self) -> Vec<TaskId> {
        self.inner.routing.lock().table.assignment().to_vec()
    }

    /// Live task ids (snapshot).
    pub fn tasks(&self) -> Vec<TaskId> {
        self.inner.routing.lock().senders.keys().copied().collect()
    }

    /// Direct read access to the shared state store.
    pub fn state(&self) -> &Arc<StateStore> {
        &self.inner.state
    }

    /// Stops all task threads and returns final statistics. Buffered or
    /// queued records that were not yet processed are dropped, as are
    /// unread outputs.
    pub fn shutdown(self) -> ExecutorStats {
        let Self {
            inner,
            threads,
            output_rx,
            config: _,
        } = self;
        // Drop this handle's output receiver *before* joining: with a
        // bounded output channel and no external consumer, a task thread
        // can be blocked mid-send, and the `Stop` behind it would never
        // be dequeued. Disconnecting the only receiver turns that send
        // into an error the task loop handles (the batch is dropped,
        // matching the documented semantics). Pipelines hold their own
        // receiver clones, so their channels stay open here.
        drop(output_rx);
        halt(&inner, &threads)
    }
}

/// Stops every task thread of the executor behind `inner` and returns
/// final statistics. Idempotent: a second call finds no live senders or
/// join handles and just rebuilds the stats.
fn halt<O: Operator>(
    inner: &Arc<Inner<O>>,
    threads: &Mutex<Vec<(TaskId, JoinHandle<()>)>>,
) -> ExecutorStats {
    {
        let rs = inner.routing.lock();
        for link in rs.senders.values() {
            let _ = link.send_now(TaskMsg::Stop);
        }
    }
    let mut threads = threads.lock();
    for (_, handle) in threads.drain(..) {
        let _ = handle.join();
    }
    drop(threads);
    // Unregister the stopped tasks so the executor reports itself as
    // halted (`tasks()` empty) and late `ingest`s drop records instead
    // of feeding channels nobody drains: both the registry and the
    // fast-path sender cells are cleared, and slot latency history is
    // folded into the retired aggregate.
    {
        let mut rs = inner.routing.lock();
        rs.senders.clear();
        let slots: Vec<usize> = rs.task_slots.values().copied().collect();
        rs.task_slots.clear();
        for slot in slots {
            *inner.slots[slot].sender.write() = None;
            *inner.slots[slot].ring.write() = None;
            let hist = inner.latency.take_cell(slot);
            inner.retired_latency.lock().merge(&hist);
            rs.free_slots.push(slot);
        }
    }
    ExecutorStats {
        processed: inner.processed.load(Ordering::Acquire),
        operator_panics: inner.operator_panics.load(Ordering::Relaxed),
        tasks: 0,
        latency: inner.retired_latency.lock().clone(),
        reassignments: inner.reassignment_log.lock().clone(),
        state_bytes: inner.state.total_bytes(),
    }
}

/// The unified entry surface (see [`crate::ingest`]): key-hash routing
/// over the same wait-free fast path the routed primitives use.
impl<O: Operator> crate::ingest::Ingest for ElasticExecutor<O> {
    /// Routing is synchronous (the caller acts as the receiver daemon)
    /// and, in steady state, wait-free: one atomic RMW on the shard word
    /// plus an uncontended sender-cell read. Processing is asynchronous
    /// on whichever task owns the record's shard.
    fn ingest(&self, record: Record) {
        let shard = self.shard_of(&record);
        self.ingest_routed(shard, record);
    }

    fn ingest_batch(&self, batch: RecordBatch) {
        self.ingest_batch_routed(batch.into_iter().map(|r| (self.shard_of(&r), r)));
    }

    /// The executor has no bounded ingress queue — admission is the
    /// wait-free route itself (a full SPSC ring is absorbed by a bounded
    /// backoff-and-reroute, not a park) — so this never rejects.
    fn try_ingest_batch(&self, batch: RecordBatch) -> std::result::Result<(), RecordBatch> {
        crate::ingest::Ingest::ingest_batch(self, batch);
        Ok(())
    }

    fn accepted(&self) -> u64 {
        self.inner.arrivals.load(Ordering::Acquire)
    }
}

/// Deprecated pre-[`Ingest`](crate::ingest::Ingest) entry points, kept
/// as thin forwarders for one release.
impl<O: Operator> ElasticExecutor<O> {
    /// Renamed: use [`Ingest::ingest`](crate::ingest::Ingest::ingest).
    #[doc(hidden)]
    #[deprecated(note = "use `Ingest::ingest`")]
    pub fn submit(&self, record: Record) {
        crate::ingest::Ingest::ingest(self, record);
    }

    /// Renamed: use [`Self::ingest_routed`].
    #[doc(hidden)]
    #[deprecated(note = "renamed to `ingest_routed`")]
    pub fn submit_routed(&self, shard: ShardId, record: Record) {
        self.ingest_routed(shard, record);
    }

    /// Renamed: use
    /// [`Ingest::ingest_batch`](crate::ingest::Ingest::ingest_batch).
    #[doc(hidden)]
    #[deprecated(note = "use `Ingest::ingest_batch`")]
    pub fn submit_batch(&self, records: impl IntoIterator<Item = Record>) {
        self.ingest_batch_routed(records.into_iter().map(|r| (self.shard_of(&r), r)));
    }

    /// Renamed: use [`Self::ingest_batch_routed`].
    #[doc(hidden)]
    #[deprecated(note = "renamed to `ingest_batch_routed`")]
    pub fn submit_batch_routed(&self, records: impl IntoIterator<Item = (ShardId, Record)>) {
        self.ingest_batch_routed(records);
    }
}

// ---------------------------------------------------------------------------
// Cross-process migration hooks.
//
// These methods are the executor half of the migration transport in
// `crate::migrate`: the §3.3 pause handshake stretched across a process
// boundary. The transport sequences them; each method is individually
// atomic under the routing lock, and every failure path restores a
// consistent local state (the shard is either fully here or fully
// remote — never silently dropped).
// ---------------------------------------------------------------------------
impl<O: Operator> ElasticExecutor<O> {
    /// Starts migrating `shard` out of this process: pauses both routing
    /// tiers, waits for every in-flight fast-path route *and* every
    /// already-enqueued record of the shard to finish processing (the
    /// flush marker plays the labeling tuple's role through the owner's
    /// FIFO queue), then extracts the shard's state.
    ///
    /// On success the shard is **detached**: new records buffer in the
    /// pause buffer until the caller either ships the snapshot and calls
    /// [`Self::complete_migration`], or gives up and calls
    /// [`Self::abort_migration`] with the returned snapshot. Blocks for
    /// the drain; must not be called from a task thread.
    pub fn begin_migration(&self, shard: ShardId) -> Result<ShardSnapshot> {
        elasticutor_core::fault::fail_point("executor.pause")
            .map_err(|e| Error::Infeasible(e.to_string()))?;
        let (flushed, from) = self.pause_and_flush(shard)?;
        if flushed.recv().is_err() {
            // The owner task stopped (executor halting) before it
            // reached the marker: unwind the pause, surface a typed
            // error instead of wedging the transport.
            self.unwind_pause(shard);
            return Err(Error::UnknownTask(from));
        }
        Ok(self
            .inner
            .state
            .extract_shard(shard)
            .unwrap_or_else(|| ShardSnapshot::empty(shard)))
    }

    /// [`Self::begin_migration`] with a staging step between the drain
    /// and the extraction: once the shard is paused and fully drained,
    /// `stage` runs on a **copy** of its state while the store still
    /// hosts it. The durable migration path journals the snapshot there,
    /// so a crash between the journal write and the WAL's `Drop` record
    /// (which `extract_shard` logs) can never leave both sides empty —
    /// whichever write survived carries the same bytes. If `stage`
    /// errors, the pause unwinds and the shard resumes locally.
    pub fn begin_migration_staged<F>(&self, shard: ShardId, stage: F) -> Result<ShardSnapshot>
    where
        F: FnOnce(&ShardSnapshot) -> Result<()>,
    {
        elasticutor_core::fault::fail_point("executor.pause")
            .map_err(|e| Error::Infeasible(e.to_string()))?;
        let (flushed, from) = self.pause_and_flush(shard)?;
        if flushed.recv().is_err() {
            self.unwind_pause(shard);
            return Err(Error::UnknownTask(from));
        }
        let snapshot = self
            .inner
            .state
            .snapshot_shard(shard)
            .unwrap_or_else(|| ShardSnapshot::empty(shard));
        if let Err(e) = stage(&snapshot) {
            self.unwind_pause(shard);
            return Err(e);
        }
        self.inner.state.extract_shard(shard);
        Ok(snapshot)
    }

    /// Pauses both routing tiers of `shard` and enqueues a flush marker
    /// at its owner task. On success the returned channel fires once
    /// every record enqueued before the pause has been processed; the
    /// owner task id rides along for error reporting.
    fn pause_and_flush(&self, shard: ShardId) -> Result<(Receiver<()>, TaskId)> {
        let mut rs = self.inner.routing.lock();
        if rs.remote.contains_key(&shard) {
            return Err(Error::ShardNotLocal(shard));
        }
        let from = rs.table.task_of(shard)?;
        // A halted executor keeps its table but has no senders.
        let sender = rs
            .senders
            .get(&from)
            .cloned()
            .ok_or(Error::UnknownTask(from))?;
        rs.table.pause(shard)?;
        // Same wait-free handshake as `reassign_shard`: after this,
        // every delivery that read the pre-pause owner is enqueued
        // at `from`, and later submits divert to the pause buffer.
        self.inner.shard_table.pause(shard);
        let (tx, rx) = bounded(1);
        if sender.send(TaskMsg::Flush(tx)).is_err() {
            // The task channel closed under us (halt in progress):
            // unwind both pauses under this same lock hold.
            let _ = rs.table.abort_reassignment(shard);
            self.inner.shard_table.abort(shard);
            return Err(Error::UnknownTask(from));
        }
        Ok((rx, from))
    }

    /// Reverts a [`Self::pause_and_flush`] whose drain could not
    /// complete: releases the pause buffer back to the owner (dropped
    /// if the executor halted) and resumes the fast path.
    fn unwind_pause(&self, shard: ShardId) {
        let mut rs = self.inner.routing.lock();
        if let Ok(buffered) = rs.table.abort_reassignment(shard) {
            if !buffered.is_empty() {
                if let Some(sender) = rs
                    .table
                    .task_of(shard)
                    .ok()
                    .and_then(|t| rs.senders.get(&t))
                {
                    let batch: Vec<(ShardId, Record)> =
                        buffered.into_iter().map(|r| (shard, r)).collect();
                    let _ = sender.send(TaskMsg::Batch(batch));
                }
            }
            self.inner.shard_table.abort(shard);
        }
    }

    /// Completes an outbound migration after the peer acknowledged the
    /// installed state: replays the pause buffer through `forward` (in
    /// arrival order), invokes `flush_mark` (the transport enqueues its
    /// DONE marker here, behind the replayed records and ahead of every
    /// future forward), and flips the shard to remote routing — all
    /// atomically under the routing lock, so no record can slip between
    /// the replay and the flip. The shard's atomic word flips to
    /// `remote`: fast-path submits resolve the forwarder from a
    /// per-shard mirror and enqueue on the link's lock-free egress
    /// queue without ever taking this lock.
    pub fn complete_migration(
        &self,
        shard: ShardId,
        forward: RemoteForwarder,
        flush_mark: impl FnOnce(),
    ) -> Result<()> {
        let mut rs = self.inner.routing.lock();
        let buffered = rs.table.abort_reassignment(shard)?;
        for record in buffered {
            forward(shard, record);
        }
        flush_mark();
        *self.inner.remote_fast[shard.index()].write() = Some(Arc::clone(&forward));
        rs.remote.insert(shard, forward);
        // Flip the word paused → remote: fast-path submits now enqueue
        // on the egress wait-free instead of diverting to this lock.
        // The replayed records above happen-before the flip, so every
        // later fast-path forward lands behind them on the link queue.
        self.inner.shard_table.set_remote(shard);
        Ok(())
    }

    /// Aborts an outbound migration (peer rejected, aborted, or
    /// disconnected): reinstalls the snapshot, releases the pause buffer
    /// back to the local owner, and resumes both routing tiers. After
    /// this the shard is exactly as local as it was before
    /// [`Self::begin_migration`] — no record and no state entry is lost.
    pub fn abort_migration(&self, snapshot: ShardSnapshot) -> Result<()> {
        let shard = snapshot.shard;
        // Reinstall before resuming routing: the first record delivered
        // after the resume must see the state again. No task touches the
        // store for a paused shard, so the install cannot race.
        self.inner.state.install_shard(snapshot);
        let mut rs = self.inner.routing.lock();
        let buffered = rs.table.abort_reassignment(shard)?;
        let from = rs.table.task_of(shard)?;
        if !buffered.is_empty() {
            // A missing sender means the executor was halted mid-abort;
            // dropping the buffer matches shutdown semantics.
            if let Some(sender) = rs.senders.get(&from) {
                let batch: Vec<(ShardId, Record)> =
                    buffered.into_iter().map(|r| (shard, r)).collect();
                let _ = sender.send(TaskMsg::Batch(batch));
            }
        }
        self.inner.shard_table.abort(shard);
        Ok(())
    }

    /// Marks `shard` as hosted by a remote peer without a migration —
    /// initial ownership partitioning before any record flows. Discards
    /// the local (empty) copy of the shard's state, flips the shard's
    /// word to remote, and routes future records through `forward`
    /// (wait-free on the fast path). Errors if the shard has local
    /// state, is mid-reassignment, or is already remote.
    pub fn mark_remote(&self, shard: ShardId, forward: RemoteForwarder) -> Result<()> {
        let mut rs = self.inner.routing.lock();
        if rs.remote.contains_key(&shard) {
            return Err(Error::ShardNotLocal(shard));
        }
        if rs.table.is_paused(shard) {
            return Err(Error::ReassignmentInProgress(shard));
        }
        rs.table.task_of(shard)?; // validates the shard id
        if self.inner.state.shard_keys(shard) > 0 {
            return Err(Error::ShardStateConflict(shard));
        }
        self.inner.state.extract_shard(shard); // discard the empty copy
                                               // Pause (draining in-flight local deliveries), publish the
                                               // forwarder mirror, then flip the word to remote.
        self.inner.shard_table.pause(shard);
        *self.inner.remote_fast[shard.index()].write() = Some(Arc::clone(&forward));
        rs.remote.insert(shard, forward);
        self.inner.shard_table.set_remote(shard);
        Ok(())
    }

    /// Checks whether an inbound migration offer for `shard` can be
    /// honored: the shard must not be mid-reassignment or -migration
    /// here, and must not have live local state (two processes must
    /// never both own a shard).
    pub fn can_adopt(&self, shard: ShardId) -> Result<()> {
        let rs = self.inner.routing.lock();
        rs.table.task_of(shard)?;
        if rs.table.is_paused(shard) {
            return Err(Error::ReassignmentInProgress(shard));
        }
        if !rs.remote.contains_key(&shard) && self.inner.state.shard_keys(shard) > 0 {
            return Err(Error::ShardStateConflict(shard));
        }
        Ok(())
    }

    /// Installs an inbound migrated shard (transport `COMMIT`): evicts
    /// the local empty copy if one exists, installs the snapshot, maps
    /// the shard to a local task, and holds routing **closed** — the
    /// atomic word paused and the table buffering — so local submits
    /// queue up behind the peer's replayed records until
    /// [`Self::adopt_finish`]. Replayed records arriving between the
    /// two calls are delivered with [`Self::deliver_to_owner`].
    pub fn adopt_install(&self, snapshot: ShardSnapshot) -> Result<()> {
        let shard = snapshot.shard;
        // Phase 1: close the shard's routing. A remote shard's fast
        // path is already paused and nothing local can touch its state.
        // A shard that is still local (an empty copy) needs the full
        // pause + flush drain first — otherwise a record already queued
        // at its owner task could create state between the emptiness
        // check and the install, and `install_shard` would panic.
        let was_remote = {
            let rs = self.inner.routing.lock();
            if rs.table.is_paused(shard) {
                return Err(Error::ReassignmentInProgress(shard));
            }
            rs.table.task_of(shard)?;
            rs.remote.contains_key(&shard)
        };
        if !was_remote {
            let (flushed, from) = self.pause_and_flush(shard)?;
            if flushed.recv().is_err() {
                self.unwind_pause(shard);
                return Err(Error::UnknownTask(from));
            }
        }
        // Phase 2: install and map. The shard is paused on both tiers
        // either way, so no task thread can race the store mutation and
        // every control-plane operation refuses it until adopt_finish.
        let mut rs = self.inner.routing.lock();
        let state = &self.inner.state;
        if state.hosts(shard) && state.shard_keys(shard) > 0 {
            // Drained records created state after `can_adopt`'s check:
            // a genuine conflict — restore routing and refuse.
            drop(rs);
            if !was_remote {
                self.unwind_pause(shard);
            }
            return Err(Error::ShardStateConflict(shard));
        }
        if was_remote {
            // Map the shard before touching state so a failure leaves
            // nothing half-done. A local shard keeps its current owner
            // (any task works — state is process-shared); a rebalance
            // can move it later.
            let task = rs
                .senders
                .keys()
                .copied()
                .find(|t| !rs.draining.contains(t))
                .ok_or_else(|| Error::Infeasible(format!("no live task to adopt {shard}")))?;
            rs.table.set_task(shard, task)?;
            rs.table.pause(shard)?; // buffer local submits until adopt_finish
            rs.remote.remove(&shard);
            // Close the fast path: pause the word — draining in-flight
            // wait-free forwards, so every pre-install forward is in
            // the egress queue and therefore precedes the COMMIT_ACK
            // sent after this returns — then retire the mirror. The
            // word stays paused (adopt_finish's `finish` reopens it and
            // clears the remote mark).
            self.inner.shard_table.pause(shard);
            *self.inner.remote_fast[shard.index()].write() = None;
        }
        if state.hosts(shard) {
            state.extract_shard(shard); // evict the empty local copy
        }
        state.install_shard(snapshot);
        Ok(())
    }

    /// Finishes an inbound migration (transport `DONE`): flushes local
    /// records buffered during adoption to the shard's new owner task —
    /// behind every replayed record — and reopens the fast path.
    pub fn adopt_finish(&self, shard: ShardId) -> Result<()> {
        let mut rs = self.inner.routing.lock();
        let task = rs.table.task_of(shard)?;
        let buffered = rs.table.finish_reassignment(shard, task)?;
        if !buffered.is_empty() {
            // A missing sender means the executor halted mid-adoption;
            // dropping the buffer matches shutdown semantics.
            if let Some(sender) = rs.senders.get(&task) {
                let batch: Vec<(ShardId, Record)> =
                    buffered.into_iter().map(|r| (shard, r)).collect();
                let _ = sender.send(TaskMsg::Batch(batch));
            }
        }
        match rs.task_slots.get(&task) {
            Some(&slot) => self.inner.shard_table.finish(shard, slot as u32),
            // Halted: no slot to point at. Resume the word to its stale
            // slot — all sender cells are empty, so fast-path submits
            // fall through to the slow path and drop, matching halted
            // semantics.
            None => self.inner.shard_table.abort(shard),
        }
        Ok(())
    }

    /// Delivers a record straight to the task currently mapped to
    /// `shard`, bypassing pause buffering — the transport uses this for
    /// the peer's replayed records during the `COMMIT`→`DONE` window,
    /// which must land *ahead of* the locally buffered ones.
    pub fn deliver_to_owner(&self, shard: ShardId, record: Record) -> Result<()> {
        self.inner.arrivals.fetch_add(1, Ordering::Relaxed);
        self.inner.shard_counts[shard.index()].fetch_add(1, Ordering::Relaxed);
        let rs = self.inner.routing.lock();
        let task = rs.table.task_of(shard)?;
        let sender = rs.senders.get(&task).ok_or(Error::UnknownTask(task))?;
        let _ = sender.send(TaskMsg::One(shard, record));
        Ok(())
    }

    /// Accepts a record arriving from a remote peer (transport `DATA`):
    /// routed like a local submit — delivered to the owning task,
    /// buffered if the shard is paused, or forwarded onward if the
    /// shard has since moved again.
    pub fn receive_remote(&self, shard: ShardId, record: Record) {
        self.inner.arrivals.fetch_add(1, Ordering::Relaxed);
        self.inner.shard_counts[shard.index()].fetch_add(1, Ordering::Relaxed);
        let mut rs = self.inner.routing.lock();
        if let Some(forward) = rs.remote.get(&shard).cloned() {
            // Forward onward outside the lock, as the wait-free path
            // does: an in-process forwarder takes the next executor's
            // routing lock, and that executor may be replaying a
            // migration buffer into this one under its own.
            drop(rs);
            forward(shard, record);
            return;
        }
        Self::route_locked(&mut rs, shard, record);
    }

    /// Shards currently routed to a remote peer, ascending.
    pub fn remote_shards(&self) -> Vec<ShardId> {
        self.inner.routing.lock().remote.keys().copied().collect()
    }

    /// Whether `shard`'s routing is paused — mid-reassignment, or
    /// parked by a migration that died before resolving. Crash
    /// recovery uses this to tell a surviving sender (shard parked,
    /// snapshot extracted) from a freshly restarted process (shard
    /// plain local and empty).
    pub fn is_shard_paused(&self, shard: ShardId) -> bool {
        self.inner.routing.lock().table.is_paused(shard)
    }

    /// Whether this executor currently owns `shard`: mapped to a local
    /// task, not remote, not paused. The peer-side answer to a crash
    /// recovery ownership query.
    pub fn owns_shard(&self, shard: ShardId) -> bool {
        let rs = self.inner.routing.lock();
        !rs.remote.contains_key(&shard)
            && !rs.table.is_paused(shard)
            && rs.table.task_of(shard).is_ok()
    }

    /// Replaces the forwarder of an already-remote shard — a
    /// re-established link rebinds its delegated shards to the new
    /// connection instead of re-marking them remote. Errors if the
    /// shard is not currently remote.
    pub fn rebind_remote(&self, shard: ShardId, forward: RemoteForwarder) -> Result<()> {
        let mut rs = self.inner.routing.lock();
        if !rs.remote.contains_key(&shard) {
            return Err(Error::Infeasible(format!("{shard} is not remote")));
        }
        *self.inner.remote_fast[shard.index()].write() = Some(Arc::clone(&forward));
        rs.remote.insert(shard, forward);
        Ok(())
    }

    /// Drains the pending quarantine requests — shards whose cumulative
    /// operator panic count crossed
    /// [`ExecutorConfig::quarantine_after`]. Task threads only flag
    /// shards; the caller (typically a group supervisor) parks them
    /// with [`Self::quarantine_shard`], which must run off the task
    /// threads.
    pub fn take_quarantine_requests(&self) -> Vec<ShardId> {
        std::mem::take(&mut *self.inner.quarantine_req.lock())
    }

    /// Parks `shard`: pauses and flushes it like an outbound migration,
    /// extracts its state, and installs a black-hole forwarder that
    /// counts (and drops) every record routed to it — isolating keys
    /// that keep panicking the operator without taking the task thread,
    /// or the healthy shards it hosts, down with them. The extracted
    /// snapshot stays parked until [`Self::release_quarantined`]. Must
    /// not be called from a task thread (it blocks on that thread's
    /// flush marker).
    pub fn quarantine_shard(&self, shard: ShardId) -> Result<()> {
        let snapshot = self.begin_migration(shard)?;
        let counter = Arc::clone(&self.inner);
        let forward: RemoteForwarder = Arc::new(move |_, _| {
            counter.quarantine_dropped.fetch_add(1, Ordering::Relaxed);
        });
        match self.complete_migration(shard, forward, || {}) {
            Ok(()) => {
                self.inner.parked.lock().insert(shard, snapshot);
                Ok(())
            }
            Err(e) => {
                self.abort_migration(snapshot)
                    .expect("paused shard restores");
                Err(e)
            }
        }
    }

    /// Restores a quarantined shard: reinstalls its parked snapshot,
    /// reopens local routing, and resets its panic counter. Records
    /// dropped while parked stay dropped (see
    /// [`Self::quarantine_dropped`]).
    pub fn release_quarantined(&self, shard: ShardId) -> Result<()> {
        // Clone rather than remove: if the install fails the snapshot
        // must stay parked. (Rare control-plane path; the copy is the
        // price of not losing state on a failed release.)
        let snapshot = self
            .inner
            .parked
            .lock()
            .get(&shard)
            .cloned()
            .ok_or(Error::UnknownShard(shard))?;
        self.adopt_install(snapshot)?;
        self.adopt_finish(shard)?;
        self.inner.parked.lock().remove(&shard);
        self.inner.panic_counts[shard.index()].store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Shards currently parked by [`Self::quarantine_shard`].
    pub fn quarantined_shards(&self) -> Vec<ShardId> {
        self.inner.parked.lock().keys().copied().collect()
    }

    /// Total records dropped on quarantined shards since start.
    pub fn quarantine_dropped(&self) -> u64 {
        self.inner.quarantine_dropped.load(Ordering::Relaxed)
    }

    /// Reaps task threads that died — a panic escaping the per-record
    /// containment (unwinding inside a destructor, an OOM abort short
    /// of killing the process) takes the whole thread with it — and
    /// re-homes their shards onto survivors, spawning a fresh task
    /// first if none survive. Records queued at a dead task are lost
    /// with it (crash semantics); per-key FIFO is preserved because a
    /// re-homed shard only resumes after the takeover flips the table,
    /// so no stale delivery can trail the re-homed ones. Returns the
    /// number of dead tasks reaped.
    pub fn respawn_dead_tasks(&self) -> usize {
        // Reap finished threads first, outside the routing lock.
        let dead: Vec<(TaskId, JoinHandle<()>)> = {
            let mut threads = self.threads.lock();
            let mut dead = Vec::new();
            let mut i = 0;
            while i < threads.len() {
                if threads[i].1.is_finished() {
                    dead.push(threads.remove(i));
                } else {
                    i += 1;
                }
            }
            dead
        };
        if dead.is_empty() {
            return 0;
        }
        let dead_ids: Vec<TaskId> = dead.iter().map(|(id, _)| *id).collect();
        for (_, handle) in dead {
            let _ = handle.join(); // collect the panic payload, drop it
        }
        // Unregister the corpses: close their slots, retire latency.
        {
            let mut rs = self.inner.routing.lock();
            for &task in &dead_ids {
                rs.draining.remove(&task);
                rs.senders.remove(&task);
                if let Some(slot) = rs.task_slots.remove(&task) {
                    *self.inner.slots[slot].sender.write() = None;
                    *self.inner.slots[slot].ring.write() = None;
                    let hist = self.inner.latency.take_cell(slot);
                    self.inner.retired_latency.lock().merge(&hist);
                    rs.free_slots.push(slot);
                }
            }
        }
        // At least one live task must remain to adopt the orphans.
        if self.inner.routing.lock().senders.is_empty() {
            self.add_task().expect("respawn replacement task");
        }
        self.rehome_orphans(&dead_ids);
        dead_ids.len()
    }

    /// Re-homes every shard stranded by the dead tasks in `dead`:
    /// reassignments whose *source* died lost their labeling tuple with
    /// the source's queue and are taken over directly; shards plainly
    /// mapped to a dead task are paused and taken over the same way.
    /// Labels whose *target* died are left alone — the live source
    /// still processes the tuple and `handle_label` aborts them itself.
    fn rehome_orphans(&self, dead: &[TaskId]) {
        // Lock order: routing before reassigns (the global order).
        let mut rs = self.inner.routing.lock();
        let mut tracker = self.inner.reassigns.lock();
        let survivors: Vec<TaskId> = rs
            .senders
            .keys()
            .copied()
            .filter(|t| !rs.draining.contains(t))
            .collect();
        let mut next = 0usize;
        let mut takeover = |rs: &mut RoutingState, shard: ShardId| {
            let target = survivors[next % survivors.len()];
            next += 1;
            let buffered = rs
                .table
                .finish_reassignment(shard, target)
                .expect("orphan shard is paused");
            // Same order as `handle_label`: buffered records reach the
            // new owner before the word flips, so fast-path deliveries
            // queue behind them.
            if !buffered.is_empty() {
                let batch: Vec<(ShardId, Record)> =
                    buffered.into_iter().map(|r| (shard, r)).collect();
                let _ = rs.senders[&target].send(TaskMsg::Batch(batch));
            }
            let slot = rs.task_slots[&target] as u32;
            self.inner.shard_table.finish(shard, slot);
        };
        let stranded: Vec<u64> = tracker
            .pending_labels()
            .into_iter()
            .filter(|l| tracker.get(*l).is_some_and(|m| dead.contains(&m.from)))
            .collect();
        for label in stranded {
            let inflight = tracker.abort(label).expect("label is pending");
            takeover(&mut rs, inflight.shard);
        }
        // Plainly-owned orphans. Paused shards without a stranded label
        // are mid-migration (or awaiting a live source's label) — their
        // own protocol resolves them; remote shards keep a stale local
        // mapping by design and route past it.
        let orphans: Vec<ShardId> = rs
            .table
            .assignment()
            .iter()
            .enumerate()
            .filter(|(_, t)| dead.contains(t))
            .map(|(s, _)| ShardId(s as u32))
            .filter(|s| !rs.remote.contains_key(s) && !rs.table.is_paused(*s))
            .collect();
        for shard in orphans {
            rs.table.pause(shard).expect("orphan shard is idle");
            // The wait-free handshake: no in-flight fast-path route can
            // still reference the dead slot after this returns.
            self.inner.shard_table.pause(shard);
            takeover(&mut rs, shard);
        }
    }

    /// Stops all task threads without consuming the executor — the
    /// fallback a [`Pipeline`](crate::pipeline::Pipeline) uses at
    /// shutdown when the caller still holds a clone of the stage handle
    /// and the consuming [`Self::shutdown`] is unavailable. The output
    /// channel stays connected (the retained handle keeps it alive), so
    /// callers must ensure no task thread is blocked on a full bounded
    /// output channel before halting.
    pub(crate) fn halt_shared(&self) -> ExecutorStats {
        halt(&self.inner, &self.threads)
    }
}

/// How long `process_items` may hold finished records' outputs before
/// sending them downstream mid-batch. 100 µs is 3–10× one channel
/// hand-off (the ledger's `runtime.handoff_us.p50`), so a flush costs a
/// few percent of the time it saves. A flush also needs the record just
/// finished to have taken half the budget on its own: an operator doing
/// microseconds of work emits one batch per ring chunk even when the
/// chunk as a whole runs past the budget (on a 2-core VM, splitting
/// such chunks bought no latency and raised the ledger's
/// `large_payload` `p99_ms.mid` by ≈ 14 %). A slow operator (the
/// ledger's `skew_shift` sleeps 200 µs per record) emits after every
/// record instead of holding each one behind the rest of its chunk.
/// Internal on purpose: it trades hand-offs for latency at a scale set
/// by the channel, not by the workload.
const EMIT_BUDGET_NS: u64 = 100_000;

/// Processes a routed batch (possibly of one): run the operator on each
/// record and emit the outputs as one batch — or, after a slow record
/// once [`EMIT_BUDGET_NS`] has passed since the last send, send what is
/// finished so far and keep going, so a slow operator's first record
/// does not wait for its last. Every send counts `emitted` before it and
/// the records it covers as `processed` after it, then notifies: a
/// record never counts as processed while its outputs are unsent.
/// Busy time and latencies are accounted once per call. Each record's
/// single post-process clock read serves its latency measurement, the
/// flush check and — via the last one — the busy-time accounting, and
/// latency stays accurate per record even when the operator is slow
/// enough that batch-end stamping would inflate early records.
fn process_items<O: Operator>(inner: &Inner<O>, slot: usize, items: &[(ShardId, Record)]) {
    let service_start = monotonic_ns();
    let mut done = service_start;
    let mut last_send = service_start;
    // When the current record began.
    let mut started = service_start;
    let mut unsent = 0usize;
    let mut outputs: RecordBatch = Vec::new();
    let mut latencies: Vec<u64> = Vec::with_capacity(items.len());
    let mut panics = 0u64;
    for (i, (shard, record)) in items.iter().enumerate() {
        let handle = inner.state.handle(*shard);
        // Failure isolation: a panicking operator must not take the task
        // thread (and with it every shard it owns) down. The record is
        // dropped, the panic counted; state holds whatever the operator
        // committed before unwinding.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inner.operator.process(record, &handle)
        }));
        done = monotonic_ns();
        latencies.push(done.saturating_sub(record.created_ns));
        match outcome {
            Ok(outs) => outputs.extend(outs),
            Err(_) => {
                panics += 1;
                // Escalate a repeatedly poisonous shard to a quarantine
                // request exactly once, when it crosses the threshold.
                if let Some(limit) = inner.quarantine_after {
                    let prev = inner.panic_counts[shard.index()].fetch_add(1, Ordering::Relaxed);
                    if prev + 1 == limit {
                        inner.quarantine_req.lock().push(*shard);
                    }
                }
            }
        }
        unsent += 1;
        let slow = done.saturating_sub(started) >= EMIT_BUDGET_NS / 2;
        started = done;
        if slow && done.saturating_sub(last_send) >= EMIT_BUDGET_NS && i + 1 < items.len() {
            send_outputs(inner, std::mem::take(&mut outputs));
            inner.processed.fetch_add(unsent as u64, Ordering::AcqRel);
            inner.progress.notify();
            unsent = 0;
            last_send = done;
        }
    }
    // Mid-batch sends count as busy: they are per-record work of this
    // task, and the controller's μ must see them.
    inner
        .busy_ns
        .fetch_add(done.saturating_sub(service_start), Ordering::Relaxed);
    if panics > 0 {
        inner.operator_panics.fetch_add(panics, Ordering::Relaxed);
    }
    send_outputs(inner, outputs);
    if inner.baseline {
        // The pre-optimization global histogram lock, once per record.
        for latency in latencies {
            inner.retired_latency.lock().record(latency);
        }
    } else {
        // One uncontended lock on this slot's padded cell per batch.
        let mut cell = inner.latency.cell(slot);
        for latency in latencies {
            cell.record(latency);
        }
    }
    inner.processed.fetch_add(unsent as u64, Ordering::AcqRel);
    // After the counter is visible: wake any producer parked on progress
    // (one fenced load when nobody waits).
    inner.progress.notify();
}

/// Sends one output batch downstream, if there is anything in it.
fn send_outputs<O: Operator>(inner: &Inner<O>, outputs: RecordBatch) {
    if !outputs.is_empty() {
        // Count *before* sending: quiescence checks compare `emitted`
        // against the downstream consumer's counter, so a record must
        // never be in the channel while uncounted. (Receiver may have
        // hung up if the executor handle dropped; the batch is dropped.)
        inner
            .emitted
            .fetch_add(outputs.len() as u64, Ordering::AcqRel);
        let _ = inner.outputs.send(outputs);
    }
}

/// Completes (or aborts) the reassignment named by a labeling tuple —
/// shared by both task-loop flavors.
fn handle_label<O: Operator>(inner: &Inner<O>, label: u64) {
    // All pending records of the shard are done: complete the
    // reassignment via the shared §3.3 state machine. Intra-process
    // state sharing means no state movement — the new task reads the
    // same store.
    let now = monotonic_ns();
    // Lock order: routing before reassigns, matching `reassign_shard`
    // (which begins moves while holding the routing lock).
    let mut rs = inner.routing.lock();
    let mut tracker = inner.reassigns.lock();
    tracker
        .mark_label_reached(label, now)
        .expect("label has a pending entry");
    let to = tracker.get(label).expect("just marked").to;
    if rs.senders.contains_key(&to) {
        let completion = tracker
            .complete(label, monotonic_ns())
            .expect("completes exactly once");
        drop(tracker);
        let shard = completion.shard;
        let buffered = rs
            .table
            .finish_reassignment(shard, completion.to)
            .expect("shard was paused");
        // Flush the pause buffer to the new owner *before* resuming the
        // fast path: once the word flips, new fast-path records reach
        // the same task and must queue behind the buffered ones — the
        // channel order directly, or (ring mode) via the flush's
        // watermark, which every post-flip ring push lands beyond.
        if !buffered.is_empty() {
            let batch: Vec<(ShardId, Record)> = buffered.into_iter().map(|r| (shard, r)).collect();
            let _ = rs.senders[&completion.to].send(TaskMsg::Batch(batch));
        }
        let new_slot = rs.task_slots[&completion.to] as u32;
        inner.shard_table.finish(shard, new_slot);
        drop(rs);
        let total_ns = monotonic_ns().saturating_sub(completion.started_ns);
        inner
            .reassignment_log
            .lock()
            .push((completion.sync_ns, total_ns));
    } else {
        // Destination was removed while the label was in flight: abort
        // — routing resumes to the old owner, and buffered records go
        // there.
        let aborted = tracker.abort(label).expect("aborts exactly once");
        drop(tracker);
        let shard = aborted.shard;
        let from = rs.table.task_of(shard).expect("shard exists");
        let buffered = rs
            .table
            .abort_reassignment(shard)
            .expect("shard was paused");
        if !buffered.is_empty() {
            let batch: Vec<(ShardId, Record)> = buffered.into_iter().map(|r| (shard, r)).collect();
            let _ = rs.senders[&from].send(TaskMsg::Batch(batch));
        }
        inner.shard_table.abort(shard);
    }
}

/// The body of one task thread (channel mode: the MPMC channel carries
/// data and control alike, watermarks are zero and ignored).
fn task_loop<O: Operator>(
    inner: Arc<Inner<O>>,
    _id: TaskId,
    slot: usize,
    rx: Receiver<TaskEnvelope>,
) {
    while let Ok(env) = rx.recv() {
        match env.msg {
            TaskMsg::Stop => return,
            TaskMsg::One(shard, record) => {
                process_items(&inner, slot, &[(shard, record)]);
            }
            TaskMsg::Batch(items) => {
                process_items(&inner, slot, &items);
            }
            TaskMsg::Flush(done) => {
                // Cross-process migration drain: everything enqueued
                // before this marker has been processed and its state
                // committed (messages are handled serially). A closed
                // receiver means the migration was given up; ignore.
                let _ = done.send(());
            }
            TaskMsg::Label(label) => handle_label(&inner, label),
        }
    }
}

/// Items popped from the ring (and processed) per `process_items` call
/// in the ring task loop.
const RING_CHUNK: usize = 256;
/// Fallback park interval of an idle ring task loop. Wakeups normally
/// arrive through the ring's empty-edge notify or a control-lane kick;
/// the timeout only bounds the damage if one is lost.
const RING_IDLE_PARK: std::time::Duration = std::time::Duration::from_millis(10);
/// A submitter that finds a task's ring full backs off by yielding:
/// the consumer is saturated (this is backpressure), and on a loaded or
/// single-core box a yield hands it the CPU immediately where a timed
/// sleep would round-trip the scheduler's timer wheel.
fn ring_full_backoff() {
    std::thread::yield_now();
}

/// The ring consumer's in-hand chunk: items are popped straight into
/// `items` (one move per record) and processed as slices; `done` marks
/// the processed prefix, so a watermark drain can stop mid-chunk
/// without shuffling records around.
#[derive(Default)]
struct RingChunk {
    items: Vec<RingItem>,
    done: usize,
}

impl RingChunk {
    fn unprocessed(&self) -> usize {
        self.items.len() - self.done
    }

    /// Refills from the ring if fully processed; returns items popped.
    fn refill(&mut self, ring: &mut crossbeam::spsc::Consumer<RingItem>) -> usize {
        if self.done == self.items.len() {
            self.items.clear();
            self.done = 0;
            ring.pop_batch(&mut self.items, RING_CHUNK)
        } else {
            0
        }
    }

    /// Processes up to `max` unprocessed items in place.
    fn process<O: Operator>(&mut self, inner: &Inner<O>, slot: usize, max: usize) -> u64 {
        let n = self.unprocessed().min(max);
        if n > 0 {
            process_items(inner, slot, &self.items[self.done..self.done + n]);
            self.done += n;
        }
        n as u64
    }
}

/// Processes ring items until `consumed` reaches `mark` — the prefix of
/// the ring that a control message is ordered after. The items are
/// guaranteed present: marks are read from the push cursor, after the
/// pushes they cover completed.
fn drain_ring_to<O: Operator>(
    inner: &Inner<O>,
    slot: usize,
    ring: &mut crossbeam::spsc::Consumer<RingItem>,
    chunk: &mut RingChunk,
    consumed: &mut u64,
    mark: u64,
) {
    while *consumed < mark {
        if chunk.unprocessed() == 0 && chunk.refill(ring) == 0 {
            // The push completed before the mark was read; the item is
            // instants away from being visible.
            std::hint::spin_loop();
            continue;
        }
        *consumed += chunk.process(inner, slot, (mark - *consumed) as usize);
    }
}

/// The body of one task thread in ring mode: data arrives on the SPSC
/// ring, control (and slow-path deliveries) on the channel, serialized
/// by watermarks.
///
/// Each iteration pops ring items **first** and checks the channel
/// **second**: any control message ordered before a popped item (its
/// watermark ≤ the item's position) was sent before the item was
/// pushed, so popping first guarantees the message is already visible
/// when the channel is checked — it is then handled, in order, before
/// the item is processed.
fn task_loop_ring<O: Operator>(
    inner: Arc<Inner<O>>,
    _id: TaskId,
    slot: usize,
    rx: Receiver<TaskEnvelope>,
    mut ring: crossbeam::spsc::Consumer<RingItem>,
) {
    use crossbeam::channel::TryRecvError;
    let mut chunk = RingChunk::default();
    // Ring items fully processed (the watermark domain).
    let mut consumed: u64 = 0;
    loop {
        // Phase 1: pop a chunk of data items.
        let popped = chunk.refill(&mut ring);
        // Phase 2: the control lane, each message behind its watermark.
        loop {
            match rx.try_recv() {
                Ok(env) => {
                    drain_ring_to(&inner, slot, &mut ring, &mut chunk, &mut consumed, env.mark);
                    match env.msg {
                        TaskMsg::Stop => return,
                        TaskMsg::One(shard, record) => {
                            process_items(&inner, slot, &[(shard, record)]);
                        }
                        TaskMsg::Batch(items) => process_items(&inner, slot, &items),
                        TaskMsg::Flush(done) => {
                            let _ = done.send(());
                        }
                        TaskMsg::Label(label) => handle_label(&inner, label),
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return,
            }
        }
        // Phase 3: process the data in hand.
        while chunk.unprocessed() > 0 {
            consumed += chunk.process(&inner, slot, RING_CHUNK);
        }
        // Phase 4: idle — park until a push, a control kick, or close.
        // (A closed ring returns immediately; the executor sends Stop
        // before closing, so the residual spin is bounded.)
        if popped == 0 {
            ring.wait(RING_IDLE_PARK);
        }
    }
}

impl<O: Operator> std::fmt::Debug for ElasticExecutor<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElasticExecutor")
            .field("tasks", &self.tasks())
            .field("num_shards", &self.config.num_shards)
            .finish()
    }
}
