//! Executor groups: one operator, `y` live [`ElasticExecutor`]
//! instances, resizable while records flow.
//!
//! The paper's premise (§2, Figure 3) is that an operator's executors
//! are a *set* whose size and shard assignment change at runtime. An
//! [`ExecutorGroup`] realizes that in-process: the operator's shard
//! space `0..z` is split across its instances by a consistent-hash
//! [`ShardInstanceMap`] (rendezvous hashing — a resize moves only ~1/n
//! of the shards), mirrored into a dense array of per-shard
//! `AtomicU32`s the data plane reads wait-free.
//!
//! # Shared output, shared operator, shared progress
//!
//! Every instance emits into **one** shared output channel (each holds
//! a clone of the same `Sender`), so downstream wiring — direct edges,
//! fan-out forwarders, sink receivers — is oblivious to the group's
//! size. All instances box a clone of one `Arc<dyn Operator>`: the same
//! sharing contract task threads inside a single executor already live
//! under (`process` takes `&self`, operators are `Send + Sync`). And
//! all instances signal one [`ProgressNotifier`], so a producer parked
//! on the group's summed `processed` count wakes on progress anywhere.
//!
//! # Live rescaling = the §3.3 handshake, in-process
//!
//! [`ExecutorGroup::scale_out`] adds an instance and migrates the
//! shards the rendezvous map awards it — each via the same
//! `begin_migration` → `adopt_install` → `complete_migration` →
//! `adopt_finish` sequence the cross-process transport drives, run here
//! by the rescaling thread while the pump keeps submitting:
//!
//! 1. `new.can_adopt(s)` — destination sanity check.
//! 2. `old.begin_migration(s)` — pause `s` at the old owner, drain
//!    every in-flight and ring-queued record of `s`, extract its state.
//!    New submits for `s` divert to the old owner's pause buffer; the
//!    pump never blocks.
//! 3. `new.adopt_install(snapshot)` — install the state, keep routing
//!    *closed* at the destination (local submits buffer).
//! 4. Flip the group router word for `s` — later submits reach the new
//!    instance (and buffer there, step 3).
//! 5. `old.complete_migration(s, forward)` — replay the old pause
//!    buffer through `forward` (a [`ElasticExecutor::deliver_to_owner`]
//!    closure that bypasses the destination's pause buffer), then mark
//!    `s` remote at the old instance so any straggler submit that read
//!    the router before the flip forwards the same way (until step 6;
//!    a later straggler is routed at the destination like any submit,
//!    so it follows the shard if it has moved on again).
//! 6. `new.adopt_finish(s)` — flush the destination's buffered records
//!    *behind* the replays and reopen the fast path.
//!
//! Per-key FIFO holds throughout: the operator's single pump is the
//! only submitter, so for each shard the records split into "before the
//! flip" (old instance: processed, buffered-then-replayed, or
//! remote-forwarded — all reaching the new owner's task channel before
//! step 6's flush) and "after the flip" (buffered at the destination
//! until step 6, or ring-pushed after reopening — behind every earlier
//! channel send by watermark order). Conservation holds because every
//! record is processed at exactly one instance — the §3.3 machinery
//! never drops or duplicates.
//!
//! [`ExecutorGroup::scale_in`] is the mirror: drain every shard of the
//! victim to its next-best rendezvous owner (same handshake per shard,
//! which also flushes the victim's in-flight ring items), then halt the
//! victim's task threads. The halted instance stays in the group as a
//! retired husk so its monotonic `processed`/`emitted` counters keep
//! contributing to the group sums that quiescence checks compare.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use elasticutor_core::error::{Error, Result};
use elasticutor_core::ids::{ShardId, TaskId};
use elasticutor_core::instances::ShardInstanceMap;
use parking_lot::{Mutex, RwLock};

use crate::executor::{
    ElasticExecutor, ExecutorConfig, ExecutorStats, LoadSample, ProgressNotifier,
};
use crate::pipeline::BoxedOperator;
use crate::record::{Operator, RecordBatch};

/// One instance slot. Instance ids are append-only indices into the
/// group's instance vector; a retired instance keeps its slot (its
/// counters still feed the group sums) but is excluded from routing.
struct InstanceSlot {
    exec: Arc<ElasticExecutor<BoxedOperator>>,
    retired: bool,
}

/// One completed rescale, for observability and tests.
#[derive(Clone, Debug)]
pub struct RescaleEvent {
    /// `true` for scale-out, `false` for scale-in.
    pub grew: bool,
    /// The instance added or retired.
    pub instance: u32,
    /// Shards migrated by the §3.3 handshake.
    pub shards_moved: usize,
    /// Live instances after the rescale.
    pub live_after: usize,
}

/// Outcome of one [`ExecutorGroup::supervise`] pass.
#[derive(Clone, Debug, Default)]
pub struct SupervisionReport {
    /// Shards parked by this pass (panic threshold crossed).
    pub quarantined: Vec<ShardId>,
    /// Dead task threads reaped and replaced.
    pub respawned: usize,
    /// Flagged shards whose quarantine could not start (mid-protocol);
    /// they stay flagged by their counters and surface again.
    pub quarantine_failures: usize,
}

/// A live, resizable set of executor instances for one operator. See
/// the module docs for the routing and rescaling model.
pub struct ExecutorGroup {
    name: String,
    /// Per-instance config template (`output_capacity` is consumed once
    /// at group start — instances share the group channel).
    template: ExecutorConfig,
    operator: Arc<dyn Operator>,
    out_tx: Sender<RecordBatch>,
    out_rx: Receiver<RecordBatch>,
    progress: Arc<ProgressNotifier>,
    /// Dense wait-free shard→instance routing mirror, kept coherent
    /// with `map` by the rescale path (which owns the only writes).
    router: Box<[AtomicU32]>,
    /// The consistent-hash assignment (control plane). Held for the
    /// duration of a rescale, serializing concurrent rescales.
    map: Mutex<ShardInstanceMap>,
    /// Append-only instance table; read-locked by the data plane.
    instances: RwLock<Vec<InstanceSlot>>,
    rescales: Mutex<Vec<RescaleEvent>>,
}

impl ExecutorGroup {
    /// Starts a group of `parallelism` instances. The config is the
    /// per-instance template: each instance gets `initial_tasks` task
    /// threads and the full `num_shards`-slot routing table (shards it
    /// does not own simply never receive records).
    pub fn start(
        name: impl Into<String>,
        config: ExecutorConfig,
        operator: BoxedOperator,
        parallelism: u32,
    ) -> Self {
        assert!(
            parallelism > 0,
            "executor group needs at least one instance"
        );
        let (out_tx, out_rx) = match config.output_capacity {
            Some(cap) => bounded(cap),
            None => unbounded(),
        };
        let progress: Arc<ProgressNotifier> = Arc::default();
        let operator: Arc<dyn Operator> = Arc::from(operator);
        let map = ShardInstanceMap::new(config.num_shards, parallelism);
        let router: Box<[AtomicU32]> = (0..config.num_shards)
            .map(|s| AtomicU32::new(map.instance_of(s)))
            .collect();
        let instances = (0..parallelism)
            .map(|i| InstanceSlot {
                exec: Arc::new(ElasticExecutor::start_with_output(
                    // Each instance needs its own durable directory: a
                    // WAL is single-writer, and instance i's shards are
                    // disjoint from instance j's.
                    ExecutorConfig {
                        durability: config
                            .durability
                            .as_ref()
                            .map(|p| p.join(format!("instance-{i}"))),
                        ..config.clone()
                    },
                    Box::new(Arc::clone(&operator)) as BoxedOperator,
                    out_tx.clone(),
                    out_rx.clone(),
                    Arc::clone(&progress),
                )),
                retired: false,
            })
            .collect();
        Self {
            name: name.into(),
            template: config,
            operator,
            out_tx,
            out_rx,
            progress,
            router,
            map: Mutex::new(map),
            instances: RwLock::new(instances),
            rescales: Mutex::new(Vec::new()),
        }
    }

    /// The operator's name (from the DAG builder).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instance currently owning `shard` (wait-free read).
    #[inline]
    pub fn instance_of(&self, shard: ShardId) -> u32 {
        self.router[shard.index()].load(Ordering::Acquire)
    }

    /// A handle to instance `id` (live or retired).
    pub fn instance(&self, id: u32) -> Arc<ElasticExecutor<BoxedOperator>> {
        Arc::clone(&self.instances.read()[id as usize].exec)
    }

    /// The first live instance — the handle
    /// [`LiveDag::executor`](crate::dag::LiveDag::executor) hands out
    /// for manual task-granular elasticity.
    pub fn primary(&self) -> Arc<ElasticExecutor<BoxedOperator>> {
        let slots = self.instances.read();
        let slot = slots
            .iter()
            .find(|s| !s.retired)
            .expect("a group always has a live instance");
        Arc::clone(&slot.exec)
    }

    /// Live instance ids, ascending.
    pub fn live_instances(&self) -> Vec<u32> {
        self.instances
            .read()
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.retired)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Number of live instances.
    pub fn num_live(&self) -> usize {
        self.instances.read().iter().filter(|s| !s.retired).count()
    }

    /// Total instance slots ever created (live + retired).
    pub fn num_slots(&self) -> usize {
        self.instances.read().len()
    }

    /// The group's shared output receiver.
    pub fn outputs(&self) -> &Receiver<RecordBatch> {
        &self.out_rx
    }

    /// The progress notifier shared by every instance.
    pub fn progress(&self) -> &Arc<ProgressNotifier> {
        &self.progress
    }

    /// Records fully processed, summed across all instances (monotonic:
    /// retired husks keep contributing their history).
    pub fn processed_count(&self) -> u64 {
        self.instances
            .read()
            .iter()
            .map(|s| s.exec.processed_count())
            .sum()
    }

    /// Records emitted downstream, summed across all instances.
    pub fn emitted_count(&self) -> u64 {
        self.instances
            .read()
            .iter()
            .map(|s| s.exec.emitted_count())
            .sum()
    }

    /// Cumulative load counters summed across instances — the group is
    /// one λ/μ measurement point for the live controller.
    pub fn load_sample(&self) -> LoadSample {
        let mut sum = LoadSample::default();
        for slot in self.instances.read().iter() {
            let s = slot.exec.load_sample();
            sum.arrivals += s.arrivals;
            sum.processed += s.processed;
            sum.busy_ns += s.busy_ns;
            sum.state_bytes += s.state_bytes;
        }
        sum
    }

    /// Aggregated statistics: counters summed, latency histograms and
    /// reassignment logs merged across every instance (live and
    /// retired), `tasks` the live total.
    pub fn stats(&self) -> ExecutorStats {
        let slots = self.instances.read();
        let mut iter = slots.iter();
        let first = iter.next().expect("a group always has an instance");
        let mut agg = first.exec.stats();
        for slot in iter {
            let s = slot.exec.stats();
            agg.processed += s.processed;
            agg.operator_panics += s.operator_panics;
            agg.tasks += s.tasks;
            agg.latency.merge(&s.latency);
            agg.reassignments.extend(s.reassignments);
            agg.state_bytes += s.state_bytes;
        }
        agg
    }

    /// The §3.1 balancer's bound on busiest-task load over the mean
    /// task load (`ExecutorConfig::imbalance_threshold`) — the skew the
    /// controller sizes the group's busiest task for.
    pub(crate) fn imbalance_threshold(&self) -> f64 {
        self.template.imbalance_threshold
    }

    /// Live task threads across all live instances (the group's "core"
    /// count as the controller sees it).
    pub fn total_tasks(&self) -> usize {
        self.instances
            .read()
            .iter()
            .filter(|s| !s.retired)
            .map(|s| s.exec.tasks().len())
            .sum()
    }

    /// Adds a task thread to the live instance with the fewest tasks
    /// (the controller's core-grant primitive).
    pub fn add_task(&self) -> Result<TaskId> {
        let slots = self.instances.read();
        let target = slots
            .iter()
            .filter(|s| !s.retired)
            .min_by_key(|s| s.exec.tasks().len())
            .ok_or_else(|| Error::Infeasible("no live instance".into()))?;
        target.exec.add_task()
    }

    /// Removes the newest task from the live instance with the most
    /// tasks, never dropping an instance below one task (the
    /// controller's core-revocation primitive). Returns `false` when
    /// every live instance is already at one task.
    pub fn remove_task_newest(&self) -> bool {
        let slots = self.instances.read();
        let Some(victim) = slots
            .iter()
            .filter(|s| !s.retired && s.exec.tasks().len() > 1)
            .max_by_key(|s| s.exec.tasks().len())
        else {
            return false;
        };
        let tasks = victim.exec.tasks();
        match tasks.last() {
            Some(&t) if tasks.len() > 1 => victim.exec.remove_task(t).is_ok(),
            _ => false,
        }
    }

    /// Runs an intra-executor §3.1 rebalance pass on every live
    /// instance; returns the total shard moves initiated.
    pub fn rebalance(&self) -> usize {
        self.instances
            .read()
            .iter()
            .filter(|s| !s.retired)
            .map(|s| s.exec.rebalance())
            .sum()
    }

    /// Completed rescale events, oldest first.
    pub fn rescale_log(&self) -> Vec<RescaleEvent> {
        self.rescales.lock().clone()
    }

    /// One supervision pass over every live instance: reaps and
    /// replaces dead task threads
    /// ([`ElasticExecutor::respawn_dead_tasks`]) and parks every shard
    /// the instances flagged as poisonous
    /// ([`ElasticExecutor::take_quarantine_requests`] →
    /// [`ElasticExecutor::quarantine_shard`]). Meant to be called
    /// periodically from a control thread — e.g. alongside the
    /// controller's sampling tick; it blocks on task flush markers and
    /// must not run on a task thread.
    pub fn supervise(&self) -> SupervisionReport {
        // Snapshot the live executors first: quarantining blocks on a
        // flush marker and must not hold the instances lock against a
        // concurrent rescale.
        let live: Vec<Arc<ElasticExecutor<BoxedOperator>>> = {
            let instances = self.instances.read();
            instances
                .iter()
                .filter(|s| !s.retired)
                .map(|s| Arc::clone(&s.exec))
                .collect()
        };
        let mut report = SupervisionReport::default();
        for exec in live {
            report.respawned += exec.respawn_dead_tasks();
            for shard in exec.take_quarantine_requests() {
                match exec.quarantine_shard(shard) {
                    Ok(()) => report.quarantined.push(shard),
                    // Shard already mid-protocol (rescale migration in
                    // flight) or re-flagged concurrently: skip — the
                    // counter stays above threshold, so it cannot be
                    // re-requested and silently forgotten.
                    Err(_) => report.quarantine_failures += 1,
                }
            }
        }
        report
    }

    /// All shards currently quarantined, across live instances.
    pub fn quarantined_shards(&self) -> Vec<ShardId> {
        self.instances
            .read()
            .iter()
            .filter(|s| !s.retired)
            .flat_map(|s| s.exec.quarantined_shards())
            .collect()
    }

    /// Releases a quarantined shard on whichever live instance parked
    /// it. Errors with [`Error::UnknownShard`] if no instance holds it.
    pub fn release_quarantined(&self, shard: ShardId) -> Result<()> {
        let live: Vec<Arc<ElasticExecutor<BoxedOperator>>> = {
            let instances = self.instances.read();
            instances
                .iter()
                .filter(|s| !s.retired)
                .map(|s| Arc::clone(&s.exec))
                .collect()
        };
        for exec in live {
            if exec.quarantined_shards().contains(&shard) {
                return exec.release_quarantined(shard);
            }
        }
        Err(Error::UnknownShard(shard))
    }

    /// Adds a live instance and migrates the shards the rendezvous map
    /// awards it (~`z / (n+1)`), each through the in-process §3.3
    /// handshake — records keep flowing throughout. Returns the new
    /// instance id. Serializes with other rescales.
    pub fn scale_out(&self) -> Result<u32> {
        let mut map = self.map.lock();
        let new_id = self.num_slots() as u32;
        let new_exec = Arc::new(ElasticExecutor::start_with_output(
            ExecutorConfig {
                output_capacity: None,
                durability: self
                    .template
                    .durability
                    .as_ref()
                    .map(|p| p.join(format!("instance-{new_id}"))),
                ..self.template.clone()
            },
            Box::new(Arc::clone(&self.operator)) as BoxedOperator,
            self.out_tx.clone(),
            self.out_rx.clone(),
            Arc::clone(&self.progress),
        ));
        self.instances.write().push(InstanceSlot {
            exec: Arc::clone(&new_exec),
            retired: false,
        });
        let moves = map.add_instance(new_id);
        let mut moved = 0usize;
        for mv in &moves {
            let from = self.instance(mv.from);
            self.migrate_shard(&from, &new_exec, new_id, ShardId(mv.shard))?;
            moved += 1;
        }
        self.rescales.lock().push(RescaleEvent {
            grew: true,
            instance: new_id,
            shards_moved: moved,
            live_after: self.num_live(),
        });
        Ok(new_id)
    }

    /// Retires the highest-id live instance: migrates every shard it
    /// owns to its next-best rendezvous owner (draining the victim's
    /// in-flight ring items shard by shard), then halts its task
    /// threads. The husk stays in the group so its counters keep
    /// feeding the sums. Returns the retired id; errors when only one
    /// live instance remains.
    pub fn scale_in(&self) -> Result<u32> {
        let victim = *self
            .live_instances()
            .last()
            .ok_or_else(|| Error::Infeasible("no live instance".into()))?;
        self.scale_in_instance(victim)
    }

    /// Retires a specific live instance (see [`Self::scale_in`]).
    pub fn scale_in_instance(&self, victim: u32) -> Result<u32> {
        let mut map = self.map.lock();
        if map.live_instances().len() <= 1 {
            return Err(Error::Infeasible(format!(
                "group {} cannot retire its last instance",
                self.name
            )));
        }
        if !map.live_instances().contains(&victim) {
            return Err(Error::Infeasible(format!(
                "instance {victim} of group {} is not live",
                self.name
            )));
        }
        let moves = map.remove_instance(victim);
        let from = self.instance(victim);
        let mut moved = 0usize;
        for mv in &moves {
            let to = self.instance(mv.to);
            self.migrate_shard(&from, &to, mv.to, ShardId(mv.shard))?;
            moved += 1;
        }
        // Every owned shard is gone and flushed; stop the victim's task
        // threads. The slot stays (counters keep contributing), marked
        // retired so routing and task grants skip it.
        from.halt_shared();
        self.instances.write()[victim as usize].retired = true;
        self.rescales.lock().push(RescaleEvent {
            grew: false,
            instance: victim,
            shards_moved: moved,
            live_after: self.num_live(),
        });
        Ok(victim)
    }

    /// One in-process §3.3 migration: moves `shard` (with its state and
    /// buffered records) from `from` to `to`, flipping the group router
    /// mid-handshake. See the module docs for the six-step sequence and
    /// its FIFO argument.
    ///
    /// An intra-executor reassignment of the same shard — a §3.1
    /// rebalance move, or the drain of a task the controller is
    /// revoking — may hold it paused at either end. Such a move is
    /// over as soon as its label drains, and every refusal on that
    /// ground leaves both ends exactly as they were, so it is waited
    /// out here: failing the rescale instead would strand the group
    /// half-migrated, its map ahead of its router.
    fn migrate_shard(
        &self,
        from: &Arc<ElasticExecutor<BoxedOperator>>,
        to: &Arc<ElasticExecutor<BoxedOperator>>,
        to_id: u32,
        shard: ShardId,
    ) -> Result<()> {
        loop {
            match self.try_migrate_shard(from, to, to_id, shard) {
                Err(Error::ReassignmentInProgress(_)) => {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
                done => return done,
            }
        }
    }

    fn try_migrate_shard(
        &self,
        from: &Arc<ElasticExecutor<BoxedOperator>>,
        to: &Arc<ElasticExecutor<BoxedOperator>>,
        to_id: u32,
        shard: ShardId,
    ) -> Result<()> {
        to.can_adopt(shard)?;
        let snapshot = from.begin_migration(shard)?;
        // `adopt_install` consumes the snapshot; keep a copy so a
        // refusal (which cannot normally happen in-process — the
        // destination was just checked and nothing routes to it) can
        // restore the source exactly.
        if let Err(e) = to.adopt_install(snapshot.clone()) {
            from.abort_migration(snapshot)?;
            return Err(e);
        }
        // Flip the router: later pump submits land at the destination
        // (buffering there until `adopt_finish`).
        self.router[shard.index()].store(to_id, Ordering::Release);
        // Replay the source's pause buffer straight to the owner task,
        // and leave a forwarder behind for straggler submits that read
        // the router pre-flip. The closure holds a `Weak` so a retired
        // husk's forwarder never keeps the destination alive at
        // shutdown.
        //
        // Bypassing the destination's pause buffer is right only while
        // this adoption is open. The forwarder outlives it: a submitter
        // descheduled between its router read and its submit can come
        // through after the shard has moved on again (remote at the
        // destination too, or paused for its next move), and a direct
        // delivery then would run the record against a store that no
        // longer hosts the shard. Once adopted, stragglers route like
        // any submit — the same split the cross-process transport makes
        // between DATA inside and outside the COMMIT→DONE window.
        let target = Arc::downgrade(to);
        let adopted = Arc::new(AtomicBool::new(false));
        let adoption_over = Arc::clone(&adopted);
        from.complete_migration(
            shard,
            Arc::new(move |s, r| {
                if let Some(t) = target.upgrade() {
                    if adoption_over.load(Ordering::Acquire) {
                        t.receive_remote(s, r);
                    } else {
                        let _ = t.deliver_to_owner(s, r);
                    }
                }
            }),
            || {},
        )?;
        to.adopt_finish(shard)?;
        adopted.store(true, Ordering::Release);
        Ok(())
    }

    /// Tears the group down, consuming it: every instance is shut down
    /// (retired husks are already halted — their stats are folded in),
    /// and the aggregate statistics are returned. `degraded` reports
    /// whether any live instance had a foreign handle still alive and
    /// had to be halted in place instead of consumed.
    pub(crate) fn dismantle(self) -> (ExecutorStats, bool) {
        let Self {
            out_tx,
            out_rx,
            instances,
            ..
        } = self;
        // Drop the group's channel ends first so instance shutdowns can
        // disconnect the shared output channel once the last clone goes.
        drop(out_tx);
        drop(out_rx);
        let mut degraded = false;
        let mut agg: Option<ExecutorStats> = None;
        for slot in instances.into_inner() {
            let stats = match Arc::try_unwrap(slot.exec) {
                Ok(exec) => exec.shutdown(),
                Err(shared) => {
                    // Retired husks are already halted — `halt_shared`
                    // is idempotent and just rebuilds their stats; only
                    // a *live* instance kept alive by a foreign handle
                    // degrades the teardown.
                    if !slot.retired {
                        degraded = true;
                    }
                    shared.halt_shared()
                }
            };
            agg = Some(match agg {
                None => stats,
                Some(mut a) => {
                    a.processed += stats.processed;
                    a.operator_panics += stats.operator_panics;
                    a.tasks += stats.tasks;
                    a.latency.merge(&stats.latency);
                    a.reassignments.extend(stats.reassignments);
                    a.state_bytes += stats.state_bytes;
                    a
                }
            });
        }
        (agg.expect("a group always has an instance"), degraded)
    }

    /// Halts every live instance in place without consuming the group —
    /// the degraded teardown used when a foreign `Arc` of the whole
    /// group is still alive. Returns the aggregate statistics.
    pub(crate) fn halt_in_place(&self) -> ExecutorStats {
        for slot in self.instances.read().iter() {
            slot.exec.halt_shared();
        }
        self.stats()
    }
}

/// The unified entry surface (see [`crate::ingest`]): key → shard by
/// the stable hash, shard → instance by the wait-free router, then the
/// owning instance's routed fast path. Safe under a concurrent rescale:
/// a record routed to an instance that just lost the shard lands in the
/// §3.3 pause buffer and is flushed to the new owner by the migration.
impl crate::ingest::Ingest for ExecutorGroup {
    fn ingest(&self, record: crate::record::Record) {
        let shard = ShardId(elasticutor_core::hash::key_to_shard(
            record.key.value(),
            self.template.num_shards,
        ));
        let owner = self.instance_of(shard);
        self.instance(owner).ingest_routed(shard, record);
    }

    /// Records are bucketed per owning instance — one routed-batch call
    /// each — preserving order within every bucket. Per-key FIFO holds
    /// because a key's shard is stable and a shard's records stay in one
    /// bucket per call.
    fn ingest_batch(&self, batch: RecordBatch) {
        let num_shards = self.template.num_shards;
        let mut buckets: Vec<(u32, Vec<(ShardId, crate::record::Record)>)> = Vec::new();
        for record in batch {
            let shard = ShardId(elasticutor_core::hash::key_to_shard(
                record.key.value(),
                num_shards,
            ));
            let owner = self.instance_of(shard);
            match buckets.iter_mut().find(|(o, _)| *o == owner) {
                Some((_, bucket)) => bucket.push((shard, record)),
                None => buckets.push((owner, vec![(shard, record)])),
            }
        }
        for (owner, bucket) in buckets {
            self.instance(owner).ingest_batch_routed(bucket);
        }
    }

    /// Group admission never parks (instances absorb bursts in their
    /// rings and pause buffers), so this never rejects.
    fn try_ingest_batch(&self, batch: RecordBatch) -> std::result::Result<(), RecordBatch> {
        crate::ingest::Ingest::ingest_batch(self, batch);
        Ok(())
    }

    fn accepted(&self) -> u64 {
        self.load_sample().arrivals
    }
}

impl std::fmt::Debug for ExecutorGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorGroup")
            .field("name", &self.name)
            .field("live", &self.num_live())
            .field("slots", &self.num_slots())
            .field("shards", &self.template.num_shards)
            .finish()
    }
}
