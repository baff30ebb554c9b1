//! The live controller: coarse-grained CPU scheduling over the
//! operators of a running [`LiveDag`](crate::dag::LiveDag) (and
//! therefore over the stages of a [`Pipeline`](crate::pipeline::Pipeline),
//! which is a chain-shaped DAG).
//!
//! A background thread samples each operator's cumulative load counters
//! ([`ExecutorGroup::load_sample`], summed over the group's instances)
//! every `interval`, differences them into the paper's per-executor
//! measurements (λ from arrivals + standing backlog, μ from processed
//! records over busy nanoseconds), and feeds them to the model-based
//! [`DynamicScheduler`] (§4) against a single-node [`ClusterSpec`]
//! whose core count is the graph's task budget.
//!
//! The scheduler models each operator as one pooled M/M/k queue, which
//! a live group is not: it hash-partitions its shards over per-task
//! queues. So its targets pass two live clamps, always within the
//! budget. First, the **instance floor**: a group never holds fewer
//! than one task per live instance, and the slackest stages are shaved
//! when the floored sum overruns the budget. Second, the **busiest-task
//! floor**: spare budget raises each operator, largest deficit first,
//! toward the task count at which its busiest task is stable, given the
//! §3.1 balancer's bound `imbalance_threshold` on busiest over mean
//! ([`min_partitioned_servers`]).
//!
//! The clamped targets are applied **live**: grants call
//! [`ExecutorGroup::add_task`] (placed on the least-loaded instance),
//! revocations call [`ExecutorGroup::remove_task_newest`] (which drains
//! the victim's shards through the §3.3 reassignment protocol while
//! records keep flowing). After reallocation each operator gets an
//! intra-executor rebalance pass (§3.1). The graph's shape never enters
//! the decision — the scheduler sees one λ/μ pair per operator group —
//! so a load spike on one branch of a diamond pulls cores from the idle
//! branch exactly as it would from an upstream stage in a chain.
//!
//! With [`ControllerConfig::auto_instances`] the same λ/μ model also
//! drives the **instance count**: when an operator's core target
//! exceeds `max_tasks_per_instance × live instances`, the controller
//! scales the group out (a live shard migration); when the target fits
//! comfortably in one fewer instance for `instance_patience`
//! consecutive ticks, it scales back in. Core grants within the group
//! always go to the least-loaded instance, so the two levers compose.
//!
//! This is the live counterpart of the simulated engine's `SchedTick`
//! handler — same scheduler crate, same measurement definitions, real
//! threads instead of simulated cores.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use elasticutor_core::ids::NodeId;
use elasticutor_scheduler::assignment::{Assignment, ClusterSpec};
use elasticutor_scheduler::queueing::min_partitioned_servers;
use elasticutor_scheduler::scheduler::{
    DynamicScheduler, ExecutorMeasurement, SchedulerConfig, SchedulerPolicy,
};
use parking_lot::Mutex;

use crate::executor::LoadSample;
use crate::group::ExecutorGroup;

/// A cumulative arrival-count probe for one stage: returns the number
/// of records accepted *upstream* of the stage's executors (e.g. at a
/// [`SourcePort`](crate::dag::SourcePort), before the ingress channel).
/// When present, the controller differentiates this count instead of
/// the executor's own arrival counter, so records parked in an ingress
/// channel — the system-edge backlog an external feeder builds up —
/// inflate the stage's λ and draw cores to it (paper §4's demand model
/// measured at the true edge of the system).
pub type LambdaProbe = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Configuration of the [`LiveController`].
#[derive(Clone, Debug)]
pub struct ControllerConfig {
    /// Scheduling interval (the measurement window).
    pub interval: Duration,
    /// Total task threads the pipeline may use across all stages (the
    /// single simulated node's core count).
    pub total_cores: u32,
    /// Latency target `T_max` handed to the queueing model, seconds.
    pub latency_target: f64,
    /// Fallback per-core service rate (records/s) used until a stage has
    /// processed enough records for a measured μ.
    pub default_mu: f64,
    /// Minimum records processed in a window for μ to be trusted.
    pub min_mu_samples: u64,
    /// Core-placement policy (the paper's optimized Algorithm 1 or the
    /// naive-EC ablation; placement is trivial on one node, but the
    /// policy also controls allocation hysteresis).
    pub policy: SchedulerPolicy,
    /// Retry a revocation that did not take. Each tick already revokes
    /// every stage down to its target; when a removal fails (the victim
    /// is already draining, or every instance is at one task), the stage
    /// stays above target. With this set, once a stage has sat above
    /// target for [`Self::reclaim_patience`] consecutive ticks, each
    /// further tick retries one removal. Never below one task per live
    /// instance.
    pub reclaim_surplus: bool,
    /// Consecutive over-target ticks before the surplus retry starts.
    pub reclaim_patience: u32,
    /// Let the controller resize operator **instance counts** too: when
    /// an operator's core target exceeds
    /// [`Self::max_tasks_per_instance`] × its live instances, the group
    /// scales out (one instance per tick, a live §3.3 shard migration);
    /// when the target fits in one fewer instance for
    /// [`Self::instance_patience`] consecutive ticks, it scales back
    /// in. Off by default — instance counts then stay wherever the
    /// builder/user put them.
    pub auto_instances: bool,
    /// Task threads one executor instance is allowed to hold before the
    /// controller prefers adding an instance over piling on more
    /// threads (the paper's executor-as-scaling-unit boundary).
    pub max_tasks_per_instance: u32,
    /// Consecutive ticks an operator's target must fit in fewer
    /// instances before the controller scales the group in.
    pub instance_patience: u32,
    /// Log each decision to stderr.
    pub verbose: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(200),
            total_cores: 8,
            latency_target: 0.05,
            default_mu: 10_000.0,
            min_mu_samples: 50,
            policy: SchedulerPolicy::Optimized,
            reclaim_surplus: true,
            reclaim_patience: 3,
            auto_instances: false,
            max_tasks_per_instance: 4,
            instance_patience: 3,
            verbose: false,
        }
    }
}

/// One controller decision, recorded for inspection.
#[derive(Clone, Debug)]
pub struct ControllerEvent {
    /// Milliseconds since the controller started.
    pub at_ms: u64,
    /// Measured arrival rate per stage (records/s, backlog-inflated).
    pub lambda: Vec<f64>,
    /// Measured (or fallback) per-core service rate per stage.
    pub mu: Vec<f64>,
    /// Core targets the scheduler requested per stage, **before** the
    /// live clamps (the one-task-per-instance floor, the budget shave,
    /// the busiest-task floor); `cores` shows what was applied.
    pub targets: Vec<u32>,
    /// Live task counts per stage after applying the decision.
    pub cores: Vec<u32>,
    /// Live executor-instance counts per stage after applying the
    /// decision (constant unless `auto_instances` or a manual rescale
    /// changes them).
    pub instances: Vec<u32>,
    /// Shard moves initiated by the post-decision rebalance passes.
    pub rebalance_moves: usize,
    /// Whether the queueing model declared the cluster saturated.
    pub saturated: bool,
}

/// Join handle + shared state of a running controller.
pub struct ControllerHandle {
    stop: Arc<AtomicBool>,
    log: Arc<Mutex<Vec<ControllerEvent>>>,
    thread: Option<JoinHandle<()>>,
}

impl ControllerHandle {
    /// Snapshot of the decisions taken so far.
    pub fn log(&self) -> Vec<ControllerEvent> {
        self.log.lock().clone()
    }

    /// Stops the controller thread and waits for it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            thread.join().expect("controller exits cleanly");
        }
    }
}

impl Drop for ControllerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The live scheduling loop. Constructed by
/// [`PipelineBuilder::controller`](crate::pipeline::PipelineBuilder::controller).
pub struct LiveController {
    config: ControllerConfig,
    stages: Vec<Arc<ExecutorGroup>>,
    names: Vec<String>,
    scheduler: DynamicScheduler,
    cluster: ClusterSpec,
    prev: Vec<LoadSample>,
    /// Per-stage arrival probes; `None` falls back to the stage's own
    /// arrival counter.
    probes: Vec<Option<LambdaProbe>>,
    mu_estimate: Vec<f64>,
    /// Consecutive ticks each stage has sat above its target.
    surplus_ticks: Vec<u32>,
    /// Consecutive ticks each stage's target has fit in one fewer
    /// instance (the `auto_instances` scale-in hysteresis).
    shrink_ticks: Vec<u32>,
    started: Instant,
    log: Arc<Mutex<Vec<ControllerEvent>>>,
}

impl LiveController {
    /// Spawns the controller thread over the pipeline's stages.
    /// `probes` supplies an optional [`LambdaProbe`] per stage (same
    /// order as `stages`).
    pub(crate) fn spawn(
        config: ControllerConfig,
        stages: Vec<Arc<ExecutorGroup>>,
        names: Vec<String>,
        probes: Vec<Option<LambdaProbe>>,
    ) -> ControllerHandle {
        assert_eq!(probes.len(), stages.len(), "one probe slot per stage");
        let stop = Arc::new(AtomicBool::new(false));
        let log = Arc::new(Mutex::new(Vec::new()));
        let initial_tasks: u32 = stages.iter().map(|s| s.total_tasks() as u32).sum();
        assert!(
            initial_tasks <= config.total_cores,
            "pipeline starts {initial_tasks} task threads but the controller budget is {} cores",
            config.total_cores
        );
        let mut controller = LiveController {
            scheduler: DynamicScheduler::new(SchedulerConfig {
                latency_target: config.latency_target,
                policy: config.policy,
                ..SchedulerConfig::default()
            }),
            cluster: ClusterSpec::uniform(1, config.total_cores),
            prev: Self::sample_stages(&stages, &probes),
            probes,
            mu_estimate: vec![config.default_mu; stages.len()],
            surplus_ticks: vec![0; stages.len()],
            shrink_ticks: vec![0; stages.len()],
            started: Instant::now(),
            log: Arc::clone(&log),
            config,
            stages,
            names,
        };
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("live-controller".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Acquire) {
                    std::thread::sleep(controller.config.interval);
                    if stop_flag.load(Ordering::Acquire) {
                        break;
                    }
                    controller.tick();
                }
            })
            .expect("spawn controller thread");
        ControllerHandle {
            stop,
            log,
            thread: Some(thread),
        }
    }

    /// Samples every stage, substituting each probed stage's arrival
    /// count with its [`LambdaProbe`] reading (taken *after* the
    /// executor sample, so `arrivals >= processed` still holds — a
    /// record is probe-counted before it can ever be processed).
    fn sample_stages(
        stages: &[Arc<ExecutorGroup>],
        probes: &[Option<LambdaProbe>],
    ) -> Vec<LoadSample> {
        stages
            .iter()
            .zip(probes)
            .map(|(stage, probe)| {
                let mut sample = stage.load_sample();
                if let Some(probe) = probe {
                    sample.arrivals = probe();
                }
                sample
            })
            .collect()
    }

    /// One scheduling round: measure → model → reallocate → rebalance.
    fn tick(&mut self) {
        let window_s = self.config.interval.as_secs_f64();
        let samples: Vec<LoadSample> = Self::sample_stages(&self.stages, &self.probes);

        let mut lambda = Vec::with_capacity(samples.len());
        let mut mu = Vec::with_capacity(samples.len());
        for (j, (cur, prev)) in samples.iter().zip(&self.prev).enumerate() {
            let d_arrivals = cur.arrivals.saturating_sub(prev.arrivals) as f64;
            let d_processed = cur.processed.saturating_sub(prev.processed);
            let d_busy_s = cur.busy_ns.saturating_sub(prev.busy_ns) as f64 / 1e9;
            // Demand = admitted arrivals + standing backlog (a censored,
            // backlog-blind rate would freeze a saturated stage at its
            // current size — same reasoning as the simulated engine).
            let backlog = cur.arrivals.saturating_sub(cur.processed) as f64;
            lambda.push(d_arrivals / window_s + backlog / window_s);
            if d_processed >= self.config.min_mu_samples && d_busy_s > 0.0 {
                self.mu_estimate[j] = d_processed as f64 / d_busy_s;
            }
            mu.push(self.mu_estimate[j].max(1.0));
        }
        // Consume the window now, whatever happens below: an infeasible
        // round must not leave `prev` stale, or the next tick would
        // difference two windows of counters over one window of time and
        // overstate λ roughly 2×.
        self.prev = samples.clone();

        // The scheduler sees the *actual* task layout (self-healing: if
        // a previous revocation was skipped to keep a stage alive, the
        // assignment reflects reality, not the plan).
        let current = Assignment::from_matrix(
            self.stages
                .iter()
                .map(|s| vec![s.total_tasks() as u32])
                .collect(),
        );
        let measurements: Vec<ExecutorMeasurement> = samples
            .iter()
            .zip(lambda.iter().zip(&mu))
            .map(|(sample, (&l, &m))| ExecutorMeasurement {
                lambda: l,
                mu: m,
                state_bytes: sample.state_bytes as f64,
                // One node: data intensity cannot force remote placement.
                data_rate: 0.0,
                local_node: NodeId(0),
            })
            .collect();
        let lambda0 = lambda.first().copied().unwrap_or(0.0).max(1.0);

        let decision =
            match self
                .scheduler
                .schedule(&self.cluster, &current, &measurements, lambda0)
            {
                Ok(decision) => decision,
                Err(_) => return, // infeasible round: keep the current layout
            };

        // Clamp the plan to what the live layout can actually do: a
        // group can never drop below one task per live instance, so a
        // target under that floor leaves threads the plan thought it
        // freed — reality would drift above the budget and the next
        // tick's `current` would be infeasible. Raise each target to
        // its group's floor, then shave the slackest stages until the
        // sum fits the budget again.
        let floors: Vec<u32> = self.stages.iter().map(|s| s.num_live() as u32).collect();
        let mut targets: Vec<u32> = decision
            .targets
            .iter()
            .zip(&floors)
            .map(|(&t, &f)| t.max(f).max(1))
            .collect();
        while targets.iter().sum::<u32>() > self.config.total_cores {
            let Some(j) = (0..targets.len())
                .filter(|&j| targets[j] > floors[j].max(1))
                .max_by_key(|&j| targets[j] - floors[j].max(1))
            else {
                break; // the floors alone exceed the budget
            };
            targets[j] -= 1;
        }

        // The scheduler sizes each operator as one pooled M/M/k queue,
        // but a group hash-partitions its shards over per-task queues
        // and the §3.1 balancer only bounds the busiest task to
        // `imbalance_threshold` × the mean. Raise each target toward the
        // count at which that busiest task is stable, largest deficit
        // first, from spare budget only: a sum above `total_cores`
        // would make the next tick's `current` infeasible for good.
        let busiest_floors: Vec<u32> = self
            .stages
            .iter()
            .zip(lambda.iter().zip(&mu))
            .map(|(s, (&l, &m))| min_partitioned_servers(l, m, s.imbalance_threshold()))
            .collect();
        let mut spare = self.config.total_cores.saturating_sub(targets.iter().sum());
        while spare > 0 {
            let Some(j) = (0..targets.len())
                .filter(|&j| busiest_floors[j] > targets[j])
                .max_by_key(|&j| busiest_floors[j] - targets[j])
            else {
                break;
            };
            targets[j] += 1;
            spare -= 1;
        }

        // Apply: grants first so revoked shards can drain onto the new
        // threads directly; never drop a stage below one task per live
        // instance. Grants land on the group's least-loaded live
        // instance, revocations retire the newest thread of its
        // most-loaded one (cheapest shard drain: it has had the least
        // time to accumulate ownership).
        let totals: Vec<u32> = self.stages.iter().map(|s| s.total_tasks() as u32).collect();
        for (j, stage) in self.stages.iter().enumerate() {
            for _ in totals[j]..targets[j] {
                let _ = stage.add_task();
            }
        }
        for (j, stage) in self.stages.iter().enumerate() {
            for _ in targets[j]..totals[j] {
                if !stage.remove_task_newest() {
                    break;
                }
            }
        }

        // Retry revocations the apply step could not complete (see
        // `ControllerConfig::reclaim_surplus`).
        if self.config.reclaim_surplus {
            for (j, stage) in self.stages.iter().enumerate() {
                let target = targets[j];
                if (stage.total_tasks() as u32) > target {
                    self.surplus_ticks[j] += 1;
                    if self.surplus_ticks[j] >= self.config.reclaim_patience {
                        stage.remove_task_newest();
                    }
                } else {
                    self.surplus_ticks[j] = 0;
                }
            }
        }

        // Instance-count decisions (the tentpole lever): the same core
        // target, divided by the per-instance task ceiling, says how
        // many executor instances the operator needs. Scale out
        // eagerly (the spike is live *now*), scale in patiently (a
        // migration costs a pause — don't thrash on a noisy λ). One
        // rescale per stage per tick.
        if self.config.auto_instances {
            let per = self.config.max_tasks_per_instance.max(1);
            for (j, stage) in self.stages.iter().enumerate() {
                let target = decision.targets[j].max(1);
                let desired = target.div_ceil(per).max(1);
                let live = stage.num_live() as u32;
                if desired > live {
                    self.shrink_ticks[j] = 0;
                    let _ = stage.scale_out();
                } else if desired < live {
                    self.shrink_ticks[j] += 1;
                    if self.shrink_ticks[j] >= self.config.instance_patience {
                        let _ = stage.scale_in();
                        self.shrink_ticks[j] = 0;
                    }
                } else {
                    self.shrink_ticks[j] = 0;
                }
            }
        }

        // Intra-executor balancing pass per stage (§3.1).
        let rebalance_moves: usize = self.stages.iter().map(|s| s.rebalance()).sum();

        let cores: Vec<u32> = self.stages.iter().map(|s| s.total_tasks() as u32).collect();
        let instances: Vec<u32> = self.stages.iter().map(|s| s.num_live() as u32).collect();
        let event = ControllerEvent {
            at_ms: self.started.elapsed().as_millis() as u64,
            lambda,
            mu,
            targets: decision.targets.clone(),
            cores,
            instances,
            rebalance_moves,
            saturated: decision.saturated,
        };
        if self.config.verbose {
            let rates = |v: &[f64]| v.iter().map(|&r| r as u64).collect::<Vec<_>>();
            eprintln!(
                "[controller t={:>6}ms] cores={:?} targets={:?} applied={:?} lambda={:?} mu={:?} \
                 moves={} saturated={}",
                event.at_ms,
                event
                    .cores
                    .iter()
                    .zip(&self.names)
                    .map(|(c, n)| format!("{n}:{c}"))
                    .collect::<Vec<_>>(),
                event.targets,
                targets,
                rates(&event.lambda),
                rates(&event.mu),
                event.rebalance_moves,
                event.saturated,
            );
        }
        self.log.lock().push(event);
    }
}
