//! A live multi-operator elastic pipeline — the chain-shaped
//! convenience API.
//!
//! [`Pipeline`] wires N [`ElasticExecutor`]s into a chain (source →
//! operators → sink) with **bounded-queue backpressure** between
//! stages: each stage admits at most `capacity` in-flight records
//! (ingested but not yet processed); the pump feeding it blocks until
//! the stage drains, and the stall propagates upstream hop by hop until
//! the pipeline's blocking [`Ingest`] entry itself stalls — the live
//! analog of the simulated engine's high/low-watermark source pausing.
//!
//! Since the DAG generalization, `Pipeline` is a thin wrapper over
//! [`LiveDag`]: [`PipelineBuilder::build`]
//! constructs a trivial chain-shaped
//! [`Topology`](elasticutor_core::topology::Topology) (stage 0 a
//! source, each later stage a transform fed by a key-grouped edge) and
//! hands it to the DAG layer. A chain's wiring is *identical* to the
//! original dedicated implementation — one pump per stage reading the
//! previous stage's output channel directly, no forwarder threads — so
//! the buffering bounds below are unchanged; the chain is simply the
//! one-in/one-out special case of the DAG's pump layer. Need fan-out,
//! fan-in, shuffle, or broadcast edges? Use
//! [`LiveDag`] directly.
//!
//! Per-key FIFO order holds end to end: within a stage the two-tier
//! routing table serializes a key's records through one task at a time
//! (the §3.3 protocol preserves order across shard moves), task threads
//! emit outputs in processing order, and a single pump thread per hop
//! preserves channel order between stages.
//!
//! Channels carry [`RecordBatch`]es, not single records: task threads
//! emit each processed batch's outputs as one send, and every pump
//! drains up to [`PipelineBuilder::max_batch`] records per wakeup before
//! handing them to the next stage through one amortized routed batch.
//! Batching never reorders — batches preserve arrival order and per-key
//! order is per-shard order, which batch grouping respects.

use std::collections::BTreeSet;
use std::sync::Arc;

use crossbeam::channel::Receiver;
use elasticutor_core::ids::OperatorId;

use crate::controller::{ControllerConfig, ControllerEvent};
use crate::dag::{LiveDag, LiveDagBuilder, SourcePort};
use crate::executor::{ElasticExecutor, ExecutorConfig, ExecutorStats};
use crate::group::ExecutorGroup;
use crate::ingest::{spawn_sink, Ingest, Sink, SinkHandle};
use crate::record::{Operator, Record, RecordBatch};

/// A type-erased operator, letting one pipeline mix operator types.
pub type BoxedOperator = Box<dyn Operator>;

/// One stage awaiting construction.
struct StageSpec {
    name: String,
    config: ExecutorConfig,
    operator: BoxedOperator,
}

/// Builder for [`Pipeline`].
pub struct PipelineBuilder {
    stages: Vec<StageSpec>,
    capacity: usize,
    max_batch: usize,
    controller: Option<ControllerConfig>,
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PipelineBuilder {
    /// Starts an empty builder with the default per-stage capacity.
    pub fn new() -> Self {
        Self {
            stages: Vec::new(),
            capacity: 4096,
            max_batch: 64,
            controller: None,
        }
    }

    /// Appends a stage (order of calls = order in the chain).
    pub fn stage(
        mut self,
        name: impl Into<String>,
        config: ExecutorConfig,
        operator: impl Operator,
    ) -> Self {
        self.stages.push(StageSpec {
            name: name.into(),
            config,
            operator: Box::new(operator),
        });
        self
    }

    /// Sets the bounded in-flight budget per stage: each stage admits at
    /// most this many ingested-but-unprocessed **records** (enforced by
    /// its pump). The ingress and inter-stage channels are bounded to
    /// the same number of **batch slots**; ingress slots and pump
    /// submissions hold at most [`Self::max_batch`] records each, and an
    /// output batch carries the outputs of at most one input batch (a
    /// slow operator sends one input batch's outputs as several smaller
    /// batches), so the records buffered per hop are bounded by
    /// `capacity × max_batch × fanout`
    /// (fanout = the operator's output amplification, 1 for
    /// filters/maps) and the stall still propagates to the pipeline's
    /// blocking [`Ingest`] entry.
    ///
    /// One knob family across the three builders: this `capacity` and
    /// [`LiveDagBuilder::capacity`] are the same per-operator budget
    /// (the DAG adds per-edge [`LiveDagBuilder::edge_capacity`]
    /// overrides), while `ExecutorConfig::ring_capacity` sizes the
    /// per-task SPSC rings *inside* one executor.
    pub fn capacity(mut self, records: usize) -> Self {
        self.capacity = records.max(1);
        self
    }

    /// Renamed: use [`Self::capacity`].
    #[doc(hidden)]
    #[deprecated(note = "renamed to `capacity`")]
    pub fn stage_capacity(self, capacity: usize) -> Self {
        self.capacity(capacity)
    }

    /// Sets the batch amortization window: the record count at which a
    /// pump stops coalescing inbound batches per wakeup, and the cap on
    /// each ingress slot and per-pump stage submission. Since
    /// coalescing stops only after crossing the threshold, a pump's
    /// hand can transiently hold up to `max_batch − 1` records plus one
    /// inbound batch (itself up to `max_batch × fanout` records when
    /// the upstream operator amplifies volume). Larger windows amortize
    /// channel and clock costs further but let a pump hold more in hand
    /// while backpressured; 1 disables pump-side batching.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Attaches a [`LiveController`](crate::controller::LiveController)
    /// that reallocates task threads across stages while the pipeline
    /// runs.
    pub fn controller(mut self, config: ControllerConfig) -> Self {
        self.controller = Some(config);
        self
    }

    /// Starts every stage, the pump threads, and (if configured) the
    /// controller, by building the equivalent chain-shaped [`LiveDag`].
    ///
    /// # Panics
    ///
    /// Panics if no stage was added.
    pub fn build(self) -> Pipeline {
        assert!(!self.stages.is_empty(), "pipeline needs at least one stage");
        let mut dag = LiveDagBuilder::new();
        dag.capacity(self.capacity);
        dag.max_batch(self.max_batch);
        if let Some(config) = self.controller {
            dag.controller(config);
        }
        // Topology names must be unique; the pipeline API never required
        // that of stage names, so disambiguate quietly (stage_stats and
        // stage_names still report the caller's names).
        let mut names = Vec::with_capacity(self.stages.len());
        let mut used: BTreeSet<String> = BTreeSet::new();
        let mut prev: Option<OperatorId> = None;
        for (i, spec) in self.stages.into_iter().enumerate() {
            let mut dag_name = spec.name.clone();
            while used.contains(&dag_name) {
                dag_name = format!("{dag_name}#{i}");
            }
            used.insert(dag_name.clone());
            let id = match prev {
                None => dag.source(dag_name, spec.config, spec.operator),
                Some(prev) => {
                    let id = dag.operator(dag_name, spec.config, spec.operator);
                    dag.key_edge(prev, id);
                    id
                }
            };
            names.push(spec.name);
            prev = Some(id);
        }
        let sink = prev.expect("at least one stage");
        let dag = dag.build().expect("a chain topology is always valid");
        Pipeline {
            dag,
            names,
            source: OperatorId(0),
            sink,
        }
    }
}

/// Per-stage snapshot returned by [`Pipeline::stage_stats`].
#[derive(Clone, Debug)]
pub struct StageStats {
    /// Stage name (from the builder).
    pub name: String,
    /// Records handed to the stage by its pump.
    pub submitted: u64,
    /// Executor statistics.
    pub stats: ExecutorStats,
}

/// A running multi-operator elastic pipeline. See the module docs.
pub struct Pipeline {
    dag: LiveDag,
    names: Vec<String>,
    source: OperatorId,
    sink: OperatorId,
}

impl Pipeline {
    /// Starts building a pipeline.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::new()
    }

    /// The first stage's [`SourcePort`] — a cloneable, `'static`
    /// [`Ingest`] handle external feeders (TCP readers, replay pumps)
    /// hold without owning the pipeline. Records ingested after
    /// [`Self::shutdown`] are dropped silently.
    pub fn port(&self) -> SourcePort {
        self.dag.port(self.source)
    }

    /// Renamed: use [`Ingest::ingest`].
    #[doc(hidden)]
    #[deprecated(note = "use `Ingest::ingest`")]
    pub fn submit(&self, record: Record) {
        self.ingest(record);
    }

    /// Renamed: use [`Ingest::ingest_batch`].
    #[doc(hidden)]
    #[deprecated(note = "use `Ingest::ingest_batch`")]
    pub fn submit_batch(&self, batch: RecordBatch) {
        self.ingest_batch(batch);
    }

    /// The output stream of the last stage, in batches (flatten for a
    /// per-record view; batch order is processing order).
    pub fn outputs(&self) -> &Receiver<RecordBatch> {
        self.dag.outputs(self.sink).expect("last stage is the sink")
    }

    /// Attaches a [`Sink`] consumer to the pipeline's output stream on
    /// a dedicated pump thread (see [`spawn_sink`]). The returned
    /// handle joins after [`Self::shutdown`] drains the channel.
    /// Multiple attached sinks **split** the output batches between
    /// them (the channel is MPMC), so attach one sink per pipeline
    /// unless splitting is the intent.
    pub fn attach_sink<S: Sink>(&self, name: &str, sink: S) -> SinkHandle<S> {
        spawn_sink(name, self.outputs().clone(), sink)
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.names.len()
    }

    /// Stage names, in chain order.
    pub fn stage_names(&self) -> &[String] {
        &self.names
    }

    /// Direct handle to stage `i`'s executor (manual elasticity:
    /// `add_task`, `remove_task`, `rebalance`, `reassign_shard`).
    ///
    /// Cloning the `Arc` is fine for driving elasticity from other
    /// threads, but a clone still alive when [`Self::shutdown`] runs
    /// degrades that stage's teardown: its tasks are halted in place
    /// and the dependent pump threads are detached rather than joined
    /// (they exit when the last clone drops).
    pub fn executor(&self, i: usize) -> &Arc<ElasticExecutor<BoxedOperator>> {
        self.dag.executor(OperatorId::from_index(i))
    }

    /// The executor group running stage `i`: per-instance handles, the
    /// shard→instance router, and live rescaling
    /// ([`ExecutorGroup::scale_out`]/[`ExecutorGroup::scale_in`]).
    pub fn group(&self, i: usize) -> &Arc<ExecutorGroup> {
        self.dag.group(OperatorId::from_index(i))
    }

    /// Live task-thread count per stage (the "core" allocation).
    pub fn cores_per_stage(&self) -> Vec<usize> {
        self.dag.cores_per_operator()
    }

    /// Per-stage statistics snapshots.
    pub fn stage_stats(&self) -> Vec<StageStats> {
        self.dag
            .operator_stats()
            .into_iter()
            .zip(&self.names)
            .map(|(op, name)| StageStats {
                name: name.clone(),
                submitted: op.submitted,
                stats: op.stats,
            })
            .collect()
    }

    /// Events logged by the attached controller (empty when none).
    pub fn controller_log(&self) -> Vec<ControllerEvent> {
        self.dag.controller_log()
    }

    /// Whether every submitted record has been processed through every
    /// stage and no record sits in any inter-stage channel.
    ///
    /// Uses monotonic counters only, so a `true` from a single call is
    /// trustworthy provided no concurrent ingest is racing it:
    /// ingress-accepted = stage-0 submitted = stage-0 processed, and for
    /// each hop, stage i's emitted = stage i+1's submitted = processed.
    pub fn is_quiescent(&self) -> bool {
        self.dag.is_quiescent()
    }

    /// Blocks until the pipeline is quiescent (all submitted records
    /// fully processed end to end).
    pub fn drain(&self) {
        self.dag.drain();
    }

    /// Stops the controller, drains every stage in order, shuts the
    /// executors down, and returns final per-stage statistics.
    pub fn shutdown(self) -> Vec<StageStats> {
        self.dag
            .shutdown()
            .into_iter()
            .zip(self.names)
            .map(|(op, name)| StageStats {
                name,
                submitted: op.submitted,
                stats: op.stats,
            })
            .collect()
    }
}

/// The unified entry surface (see [`crate::ingest`]), feeding the
/// first stage. The blocking forms stall while the pipeline is
/// backpressured (first stage at capacity and ingress channel full);
/// [`Ingest::try_ingest_batch`] instead hands the overflow back —
/// see [`SourcePort`] for the exact admission semantics. Single records
/// cost a one-record batch allocation; high-rate sources should
/// accumulate and use [`Ingest::ingest_batch`], which amortizes both
/// the allocation and the channel synchronization (batches are split so
/// one ingress slot never exceeds the builder's
/// [`max_batch`](PipelineBuilder::max_batch), keeping the
/// [`capacity`](PipelineBuilder::capacity) buffering bound honest).
impl Ingest for Pipeline {
    fn ingest_batch(&self, batch: RecordBatch) {
        self.dag.port(self.source).ingest_batch(batch);
    }

    fn try_ingest_batch(&self, batch: RecordBatch) -> Result<(), RecordBatch> {
        self.dag.port(self.source).try_ingest_batch(batch)
    }

    fn accepted(&self) -> u64 {
        self.dag.port(self.source).accepted()
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("stages", &self.names)
            .field("cores", &self.cores_per_stage())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use elasticutor_core::ids::Key;
    use elasticutor_state::StateHandle;
    use std::time::Duration;

    fn passthrough() -> impl Operator {
        |r: &Record, _s: &StateHandle| vec![r.clone()]
    }

    #[test]
    fn records_flow_through_three_stages() {
        let pipe = Pipeline::builder()
            .stage("a", ExecutorConfig::default(), passthrough())
            .stage("b", ExecutorConfig::default(), passthrough())
            .stage(
                "sink",
                ExecutorConfig::default(),
                |r: &Record, _s: &StateHandle| vec![r.clone()],
            )
            .build();
        for i in 0..1_000u64 {
            pipe.ingest(Record::new(Key(i % 17), Bytes::new()).with_seq(i));
        }
        pipe.drain();
        let out: Vec<Record> = pipe.outputs().try_iter().flatten().collect();
        assert_eq!(out.len(), 1_000);
        let stats = pipe.shutdown();
        assert_eq!(stats.len(), 3);
        assert!(stats.iter().all(|s| s.stats.processed == 1_000));
    }

    #[test]
    fn operators_can_fan_volume_and_filter() {
        // Stage a duplicates; stage b drops odd keys.
        let pipe = Pipeline::builder()
            .stage(
                "dup",
                ExecutorConfig::default(),
                |r: &Record, _s: &StateHandle| vec![r.clone(), r.clone()],
            )
            .stage(
                "filter",
                ExecutorConfig::default(),
                |r: &Record, _s: &StateHandle| {
                    if r.key.value().is_multiple_of(2) {
                        vec![r.clone()]
                    } else {
                        Vec::new()
                    }
                },
            )
            .build();
        for i in 0..100u64 {
            pipe.ingest(Record::new(Key(i), Bytes::new()));
        }
        pipe.drain();
        assert_eq!(pipe.outputs().try_iter().flatten().count(), 100); // 50 even keys × 2
        pipe.shutdown();
    }

    #[test]
    fn duplicate_stage_names_are_tolerated() {
        // The pipeline API never required unique names; the chain
        // topology underneath does, so the wrapper disambiguates.
        let pipe = Pipeline::builder()
            .stage("same", ExecutorConfig::default(), passthrough())
            .stage("same", ExecutorConfig::default(), passthrough())
            .build();
        for i in 0..50u64 {
            pipe.ingest(Record::new(Key(i), Bytes::new()));
        }
        pipe.drain();
        let stats = pipe.shutdown();
        assert_eq!(stats[0].name, "same");
        assert_eq!(stats[1].name, "same");
        assert_eq!(stats[1].stats.processed, 50);
    }

    #[test]
    fn backpressure_bounds_in_flight_records() {
        // A deliberately slow sink with a tiny capacity: the submitter
        // must never get more than capacity + channel ahead.
        let pipe = Pipeline::builder()
            .stage(
                "slow",
                ExecutorConfig {
                    num_shards: 4,
                    initial_tasks: 1,
                    ..ExecutorConfig::default()
                },
                |r: &Record, _s: &StateHandle| {
                    std::thread::sleep(Duration::from_micros(300));
                    vec![r.clone()]
                },
            )
            .capacity(8)
            .max_batch(8)
            .build();
        for i in 0..200u64 {
            pipe.ingest(Record::new(Key(i), Bytes::new()));
            let in_flight = i + 1 - pipe.group(0).processed_count().min(i + 1);
            // capacity (8) + ingress channel (8 one-record batches) +
            // the pump's hand (up to max_batch = 8 drained records).
            assert!(in_flight <= 24, "in-flight {in_flight} exceeds the bound");
        }
        pipe.drain();
        pipe.shutdown();
    }

    #[test]
    fn backpressure_propagates_upstream_across_stages() {
        // Fast stage feeding a slow sink: the stall must reach the
        // submitter through BOTH hops — the fast stage's bounded output
        // channel blocks its task threads once the slow stage's pump
        // stops reading, so records pile up nowhere unbounded.
        let cap = 8u64;
        let pipe = Pipeline::builder()
            .stage(
                "fast",
                ExecutorConfig {
                    num_shards: 4,
                    initial_tasks: 1,
                    ..ExecutorConfig::default()
                },
                passthrough(),
            )
            .stage(
                "slow",
                ExecutorConfig {
                    num_shards: 4,
                    initial_tasks: 1,
                    ..ExecutorConfig::default()
                },
                |r: &Record, _s: &StateHandle| {
                    std::thread::sleep(Duration::from_micros(400));
                    vec![r.clone()]
                },
            )
            .capacity(cap as usize)
            .max_batch(8)
            .build();
        // Per hop a record can sit in: the ingress channel (cap
        // one-record batches), a pump's hand (< max_batch + an emitted
        // batch), a stage's in-flight budget (cap), or the inter-stage
        // channel (cap batches × up to max_batch records each: a task
        // sends a processed batch's outputs in one batch, or — with this
        // 400 µs operator — record by record, never more than one input
        // batch's worth in one). Two stages, max_batch = 8.
        let b = 8u64;
        let bound = cap + 2 * (2 * b) + 2 * cap + cap * b;
        for i in 0..400u64 {
            pipe.ingest(Record::new(Key(i), Bytes::new()));
            let done = pipe.group(1).processed_count();
            let in_flight = (i + 1).saturating_sub(done);
            assert!(
                in_flight <= bound,
                "accepted-but-unprocessed {in_flight} exceeds the two-hop bound {bound}: \
                 backpressure did not propagate"
            );
        }
        pipe.drain();
        assert_eq!(pipe.outputs().try_iter().flatten().count(), 400);
        pipe.shutdown();
    }

    #[test]
    fn shutdown_completes_with_bounded_outputs_and_no_consumer() {
        // A standalone executor with a bounded output channel nobody
        // reads: shutdown must drop the unread outputs, not deadlock on
        // a task blocked mid-send.
        let exec = crate::executor::ElasticExecutor::start(
            ExecutorConfig {
                num_shards: 4,
                initial_tasks: 1,
                output_capacity: Some(2),
                ..ExecutorConfig::default()
            },
            |r: &Record, _s: &StateHandle| vec![r.clone()],
        );
        for i in 0..50u64 {
            exec.ingest(Record::new(Key(i), Bytes::new()));
        }
        let stats = exec.shutdown();
        // Everything processed up to the moment the channel filled was
        // at most 2 + in-flight; the rest was dropped — but shutdown
        // returned, which is the property under test.
        assert!(stats.processed <= 50);
    }

    #[test]
    fn shutdown_survives_retained_executor_handle() {
        let pipe = Pipeline::builder()
            .stage("a", ExecutorConfig::default(), passthrough())
            .stage("b", ExecutorConfig::default(), passthrough())
            .build();
        for i in 0..500u64 {
            pipe.ingest(Record::new(Key(i % 7), Bytes::new()));
        }
        pipe.drain();
        // A clone of stage 0's handle outlives the pipeline — shutdown
        // must degrade gracefully, not panic.
        let retained = Arc::clone(pipe.executor(0));
        let stats = pipe.shutdown();
        assert_eq!(stats[0].stats.processed, 500);
        assert_eq!(stats[1].stats.processed, 500);
        assert_eq!(retained.tasks().len(), 0, "tasks were halted in place");
        drop(retained); // lets the detached pump exit
    }

    #[test]
    fn manual_scaling_mid_stream_keeps_all_records() {
        let pipe = Pipeline::builder()
            .stage(
                "grow",
                ExecutorConfig {
                    num_shards: 32,
                    initial_tasks: 1,
                    ..ExecutorConfig::default()
                },
                passthrough(),
            )
            .build();
        for i in 0..20_000u64 {
            pipe.ingest(Record::new(Key(i % 100), Bytes::new()));
            if i == 5_000 {
                pipe.executor(0).add_task().expect("grow");
                pipe.executor(0).rebalance();
            }
            if i == 10_000 {
                let victim = pipe.executor(0).tasks()[0];
                pipe.executor(0).remove_task(victim).expect("shrink");
            }
        }
        pipe.drain();
        assert_eq!(pipe.outputs().try_iter().flatten().count(), 20_000);
        let stats = pipe.shutdown();
        assert_eq!(stats[0].stats.processed, 20_000);
    }
}
