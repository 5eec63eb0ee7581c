//! The traced run: per-layer numbers from timing wrappers around the
//! public seams the engine is handed — `RecordSource`, `Mapper`,
//! `Combiner`, `Reducer`, `RoutingPlan`, `OutputCollector` and
//! `TaskExecutor` — each delegating to the real implementation.
//!
//! Every wrapped call is counted. Per-record calls (read, key map,
//! partition) are timed on a fixed 1-in-[`STRIDE`] subsample and scaled
//! up by calls / sampled calls, after subtracting the measured cost of
//! reading the clock; each sample is capped at [`SAMPLE_CAP`]. Per-key-
//! group and per-task calls (combine, reduce, stream, source open,
//! commit, fleet dispatch) are timed every time. Counts are kept per
//! thread with plain stores and summed after the job, so counting adds
//! no shared-cache-line traffic.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sidr_analyze::{analyze_spec, AnalyzeOptions};
use sidr_coords::Coord;
use sidr_core::exec::{ExecOptions, SpecExecutor};
use sidr_core::framework::{run_spec_on_pool, run_spec_with_executor, SpecRunOptions};
use sidr_core::operators::OperatorReducer;
use sidr_core::source::{scinc_source_factory, StructuralMapper};
use sidr_core::spec::JobSpec;
use sidr_core::SidrPlanner;
use sidr_mapreduce::tier::tier_metrics;
use sidr_mapreduce::{
    run_job_with_executor, Combiner, Counters, Executor, InputSplit, JobConfig, JobResult,
    MapTaskId, Mapper, OutputCollector, RecordSource, ReduceSource, Reducer, RemoteReduceError,
    RoutingPlan, SlotPool, TaskEvent, TaskExecutor, TaskKind,
};
use sidr_scifile::ScincFile;
use sidr_serve::{fleet_metrics, Client, Fleet, FleetConfig};
use sidr_worker::Worker;

use crate::check::Reference;
use crate::timed::{local_job, serve_job, JobSample, Sink};
use crate::workload::{spawn_workers, stop_workers, Daemon, Workload, MAP_SLOTS, REDUCE_SLOTS};
use crate::{alloc, stats};

/// One in this many per-record calls is timed. Prime, so the sampled
/// calls do not alias with the periodic costs of the record stream
/// (a buffer refill every row of 200 or 360 cells, say): with a stride
/// sharing a factor with such a period, the expensive calls would be
/// sampled several times too often or never.
pub const STRIDE: u64 = 61;

#[derive(Clone, Copy)]
enum Layer {
    Open,
    Read,
    Keymap,
    Partition,
    Combine,
    Reduce,
    Commit,
    StreamGroup,
}
const LAYERS: usize = 8;

/// One layer's tally on one thread. Only the owning thread writes it
/// (load + store, no read-modify-write); readers sum after the job's
/// threads have been joined.
#[derive(Default)]
struct Slot {
    calls: AtomicU64,
    timed: AtomicU64,
    nanos: AtomicU64,
    /// Clock reads to subtract, in units of one pair of reads.
    clocks: AtomicU64,
    /// Layer-specific item count (records read, records emitted).
    items: AtomicU64,
    /// Samples cut to [`SAMPLE_CAP`].
    clamped: AtomicU64,
}

fn bump(a: &AtomicU64, n: u64) {
    a.store(a.load(Relaxed) + n, Relaxed);
}

/// Longest a sampled call may count for. Reading a chunk of the
/// dataset, the slowest legitimate per-record call, takes well under
/// a millisecond; a longer sample is a stall or a descheduling, and
/// scaled up by the stride a single one would add seconds to a layer.
/// The cut-off time stays in `mapreduce.map_self_ms`.
const SAMPLE_CAP: Duration = Duration::from_millis(1);

/// A sample's nanoseconds, cut to [`SAMPLE_CAP`] (counted in `clamped`).
fn clamp(clamped: &AtomicU64, d: Duration) -> u64 {
    if d > SAMPLE_CAP {
        bump(clamped, 1);
    }
    d.min(SAMPLE_CAP).as_nanos() as u64
}

#[derive(Default)]
struct ThreadTally([Slot; LAYERS]);

static REGISTRY: Mutex<Vec<Arc<ThreadTally>>> = Mutex::new(Vec::new());

thread_local! {
    static MINE: Arc<ThreadTally> = {
        let t = Arc::new(ThreadTally::default());
        REGISTRY.lock().expect("registry lock").push(Arc::clone(&t));
        t
    };
}

/// A layer's totals across threads.
#[derive(Clone, Copy, Default)]
struct Totals {
    calls: u64,
    timed: u64,
    nanos: u64,
    clocks: u64,
    items: u64,
    clamped: u64,
}

impl Totals {
    /// Estimated busy time: sampled time less clock cost, scaled to
    /// all calls.
    fn busy_ms(&self, clock_ns: f64) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        let sampled = self.nanos as f64 - clock_ns * self.clocks as f64;
        sampled * (self.calls as f64 / self.timed as f64) / 1e6
    }
}

fn snapshot() -> [Totals; LAYERS] {
    let mut out = [Totals::default(); LAYERS];
    for t in REGISTRY.lock().expect("registry lock").iter() {
        for (o, s) in out.iter_mut().zip(&t.0) {
            o.calls += s.calls.load(Relaxed);
            o.timed += s.timed.load(Relaxed);
            o.nanos += s.nanos.load(Relaxed);
            o.clocks += s.clocks.load(Relaxed);
            o.items += s.items.load(Relaxed);
            o.clamped += s.clamped.load(Relaxed);
        }
    }
    out
}

fn delta(after: &[Totals; LAYERS], before: &[Totals; LAYERS]) -> [Totals; LAYERS] {
    let mut out = *after;
    for (o, b) in out.iter_mut().zip(before) {
        o.calls -= b.calls;
        o.timed -= b.timed;
        o.nanos -= b.nanos;
        o.clocks -= b.clocks;
        o.items -= b.items;
        o.clamped -= b.clamped;
    }
    out
}

/// Counts a call to `layer`, timing it when it falls on the stride;
/// `items` reports how many items the call produced.
#[inline]
fn call<R>(layer: Layer, stride: u64, f: impl FnOnce() -> R, items: impl Fn(&R) -> u64) -> R {
    MINE.with(|t| {
        let s = &t.0[layer as usize];
        let n = s.calls.load(Relaxed);
        s.calls.store(n + 1, Relaxed);
        let r = if n % stride == 0 {
            let t0 = Instant::now();
            let r = f();
            let d = t0.elapsed();
            // Only a subsampled layer's samples are scaled up.
            let ns = if stride > 1 {
                clamp(&s.clamped, d)
            } else {
                d.as_nanos() as u64
            };
            bump(&s.nanos, ns);
            bump(&s.timed, 1);
            bump(&s.clocks, 1);
            r
        } else {
            f()
        };
        bump(&s.items, items(&r));
        r
    })
}

/// Median cost of one pair of clock reads, ns.
fn clock_cost_ns() -> f64 {
    let samples: Vec<f64> = (0..20_000)
        .map(|_| {
            let t0 = Instant::now();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

struct TracedSource<S>(S);

impl<S: RecordSource> RecordSource for TracedSource<S> {
    type Key = S::Key;
    type Value = S::Value;

    fn next_record(&mut self) -> sidr_mapreduce::Result<Option<(S::Key, S::Value)>> {
        call(
            Layer::Read,
            STRIDE,
            || self.0.next_record(),
            |r| u64::from(matches!(r, Ok(Some(_)))),
        )
    }

    fn total_hint(&self) -> Option<u64> {
        self.0.total_hint()
    }
}

struct TracedMapper<'a>(&'a StructuralMapper);

impl Mapper for TracedMapper<'_> {
    type InKey = Coord;
    type InValue = f64;
    type OutKey = Coord;
    type OutValue = f64;

    /// Times the map function's own work: the engine's emit callback
    /// (partition and buffer push) is timed separately and taken out.
    fn map(&self, key: &Coord, value: &f64, emit: &mut dyn FnMut(Coord, f64)) {
        MINE.with(|t| {
            let s = &t.0[Layer::Keymap as usize];
            let n = s.calls.load(Relaxed);
            s.calls.store(n + 1, Relaxed);
            let mut emitted = 0u64;
            if n % STRIDE == 0 {
                let mut inner = Duration::ZERO;
                let t0 = Instant::now();
                self.0.map(key, value, &mut |k, v| {
                    emitted += 1;
                    let t1 = Instant::now();
                    emit(k, v);
                    inner += t1.elapsed();
                });
                let own = t0.elapsed().saturating_sub(inner);
                bump(&s.nanos, clamp(&s.clamped, own));
                bump(&s.timed, 1);
                // One outer pair plus one extra per nested pair.
                bump(&s.clocks, 1 + emitted);
            } else {
                self.0.map(key, value, &mut |k, v| {
                    emitted += 1;
                    emit(k, v);
                });
            }
            bump(&s.items, emitted);
        })
    }
}

struct TracedPlan<'a>(&'a dyn RoutingPlan<Coord>);

impl RoutingPlan<Coord> for TracedPlan<'_> {
    fn num_reducers(&self) -> usize {
        self.0.num_reducers()
    }

    fn partition(&self, key: &Coord) -> usize {
        call(Layer::Partition, STRIDE, || self.0.partition(key), |_| 0)
    }

    fn reduce_deps(&self, reducer: usize) -> Option<Vec<MapTaskId>> {
        self.0.reduce_deps(reducer)
    }

    fn fetch_sources(&self, reducer: usize) -> Option<Vec<MapTaskId>> {
        self.0.fetch_sources(reducer)
    }

    fn invert_scheduling(&self) -> bool {
        self.0.invert_scheduling()
    }

    fn reduce_order(&self) -> Vec<usize> {
        self.0.reduce_order()
    }

    fn expected_raw_count(&self, reducer: usize) -> Option<u64> {
        self.0.expected_raw_count(reducer)
    }
}

struct TracedCombiner<'a>(&'a dyn Combiner<Key = Coord, Value = f64>);

impl Combiner for TracedCombiner<'_> {
    type Key = Coord;
    type Value = f64;

    fn combine(&self, key: &Coord, values: &mut Vec<f64>) {
        call(Layer::Combine, 1, || self.0.combine(key, values), |_| 0)
    }
}

struct TracedReducer<'a>(&'a OperatorReducer);

impl Reducer for TracedReducer<'_> {
    type Key = Coord;
    type InValue = f64;
    type OutValue = f64;

    fn reduce(&self, key: &Coord, values: &[f64], emit: &mut dyn FnMut(f64)) {
        let mut emitted = 0u64;
        call(
            Layer::Reduce,
            1,
            || {
                self.0.reduce(key, values, &mut |v| {
                    emitted += 1;
                    emit(v)
                })
            },
            |_| 0,
        );
        MINE.with(|t| bump(&t.0[Layer::Reduce as usize].items, emitted));
    }
}

struct TracedSink<'a>(&'a Sink);

impl OutputCollector<Coord, f64> for TracedSink<'_> {
    fn commit(&self, reducer: usize, records: Vec<(Coord, f64)>) -> sidr_mapreduce::Result<()> {
        let n = records.len() as u64;
        call(Layer::Commit, 1, || self.0.commit(reducer, records), |_| n)
    }

    fn stream_group(&self, reducer: usize, records: &[(Coord, f64)]) -> sidr_mapreduce::Result<()> {
        call(
            Layer::StreamGroup,
            1,
            || self.0.stream_group(reducer, records),
            |_| records.len() as u64,
        )
    }
}

/// Per-attempt round trips through the fleet's `TaskExecutor`.
#[derive(Default)]
struct Rtts {
    map_ms: Vec<f64>,
    reduce_ms: Vec<f64>,
    reduce_first_group_ms: Vec<f64>,
}

struct TracedExecutor<'a> {
    inner: &'a dyn TaskExecutor<Coord, f64>,
    rtts: Mutex<Rtts>,
}

impl TracedExecutor<'_> {
    fn timed_map(
        &self,
        f: impl FnOnce() -> sidr_mapreduce::Result<()>,
    ) -> sidr_mapreduce::Result<()> {
        let t0 = Instant::now();
        let r = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.rtts.lock().expect("rtt lock").map_ms.push(ms);
        r
    }
}

impl TaskExecutor<Coord, f64> for TracedExecutor<'_> {
    fn execute_map(
        &self,
        task: MapTaskId,
        attempt: u32,
        split: &InputSplit,
        counters: &Counters,
    ) -> sidr_mapreduce::Result<()> {
        self.timed_map(|| self.inner.execute_map(task, attempt, split, counters))
    }

    fn execute_map_speculative(
        &self,
        task: MapTaskId,
        attempt: u32,
        split: &InputSplit,
        counters: &Counters,
    ) -> sidr_mapreduce::Result<()> {
        self.timed_map(|| {
            self.inner
                .execute_map_speculative(task, attempt, split, counters)
        })
    }

    fn execute_reduce(
        &self,
        reducer: usize,
        attempt: u32,
        sources: &[ReduceSource],
        expected_raw: Option<u64>,
        emit: &mut dyn FnMut(Vec<(Coord, f64)>) -> sidr_mapreduce::Result<()>,
    ) -> Result<u64, RemoteReduceError> {
        let t0 = Instant::now();
        let mut first: Option<Duration> = None;
        let r = self
            .inner
            .execute_reduce(reducer, attempt, sources, expected_raw, &mut |batch| {
                first.get_or_insert_with(|| t0.elapsed());
                emit(batch)
            });
        let total = t0.elapsed();
        let mut rtts = self.rtts.lock().expect("rtt lock");
        rtts.reduce_ms.push(total.as_secs_f64() * 1e3);
        rtts.reduce_first_group_ms
            .push(first.unwrap_or(total).as_secs_f64() * 1e3);
        r
    }
}

/// The body of `run_spec_on_pool` / `run_spec_with_executor` for an
/// f32 dataset, with every engine-facing object wrapped.
fn traced_run(
    file: &ScincFile,
    spec: &JobSpec,
    validate: bool,
    pool: &SlotPool,
    sink: &Sink,
    executor: Executor<'_, Coord, f64>,
) -> sidr_core::Result<JobResult> {
    let query = spec.query()?;
    let mapper = StructuralMapper::for_query(&query);
    let reducer = OperatorReducer { op: query.operator };
    let combiner = query.operator.combiner();
    let plan = SidrPlanner::new(&query, spec.num_reducers)
        .skip_preflight()
        .build(&spec.splits)?;
    let config = JobConfig {
        validate_annotations: validate,
        volatile_intermediate: matches!(executor, Executor::Remote(_)),
        ..JobConfig::default()
    };
    let factory = scinc_source_factory::<f32>(file, &query.variable);
    let traced_factory = |task: MapTaskId, split: &InputSplit| {
        call(Layer::Open, 1, || factory(task, split), |_| 0).map(TracedSource)
    };
    let traced_combiner = combiner
        .as_ref()
        .map(|c| TracedCombiner(c as &dyn Combiner<Key = Coord, Value = f64>));
    Ok(run_job_with_executor(
        &spec.splits,
        &traced_factory,
        &TracedMapper(&mapper),
        traced_combiner
            .as_ref()
            .map(|c| c as &dyn Combiner<Key = Coord, Value = f64>),
        &TracedReducer(&reducer),
        &TracedPlan(&plan),
        &TracedSink(sink),
        &config,
        pool,
        None,
        executor,
    )?)
}

/// Sum over attempts of the time from each `from` event to the
/// matching `to` event of the same task attempt, ms.
fn phase_ms(events: &[TaskEvent], from: TaskKind, to: TaskKind) -> f64 {
    let mut open: HashMap<(usize, u32), Duration> = HashMap::new();
    let mut total = 0.0;
    for e in events {
        if e.kind == from {
            open.insert((e.task, e.attempt), e.at);
        } else if e.kind == to {
            if let Some(start) = open.remove(&(e.task, e.attempt)) {
                total += (e.at.saturating_sub(start)).as_secs_f64() * 1e3;
            }
        }
    }
    total
}

type Metrics = BTreeMap<&'static str, f64>;

/// Scheduling-side numbers of one job from its timeline and counters.
fn engine_metrics(m: &mut Metrics, result: &JobResult, call_ms: f64, maps: usize) {
    let ev = &result.events;
    m.insert(
        "mapreduce.barrier_wait_ms",
        phase_ms(ev, TaskKind::ReduceStart, TaskKind::ReduceBarrierMet),
    );
    m.insert(
        "mapreduce.merge_ms",
        phase_ms(ev, TaskKind::ReduceBarrierMet, TaskKind::ReduceMergeDone),
    );
    m.insert(
        "mapreduce.reduce_tail_ms",
        phase_ms(ev, TaskKind::ReduceMergeDone, TaskKind::ReduceEnd),
    );
    m.insert(
        "mapreduce.teardown_ms",
        call_ms - result.elapsed.as_secs_f64() * 1e3,
    );
    let c = &result.counters;
    m.insert("mapreduce.shuffled_records", c.shuffled_records as f64);
    m.insert("mapreduce.combined_records", c.combined_records as f64);
    m.insert(
        "mapreduce.shuffle_connections",
        c.shuffle_connections as f64,
    );
    let attempts = ev.iter().filter(|e| e.kind == TaskKind::MapStart).count();
    m.insert(
        "mapreduce.useful_attempt_ratio",
        maps as f64 / attempts.max(1) as f64,
    );
}

/// Layer numbers of one wrapped local job.
fn layer_metrics(m: &mut Metrics, t: &[Totals; LAYERS], result: &JobResult, clock_ns: f64) {
    let read =
        t[Layer::Read as usize].busy_ms(clock_ns) + t[Layer::Open as usize].busy_ms(clock_ns);
    let keymap = t[Layer::Keymap as usize].busy_ms(clock_ns);
    let combine = t[Layer::Combine as usize].busy_ms(clock_ns);
    let partition = t[Layer::Partition as usize].busy_ms(clock_ns);
    let span = phase_ms(&result.events, TaskKind::MapStart, TaskKind::MapEnd);
    let wrapped = read + keymap + combine + partition;
    m.insert("scifile.read_ms", read);
    m.insert("scifile.cells", t[Layer::Read as usize].items as f64);
    m.insert("core.source.keymap_ms", keymap);
    m.insert(
        "core.source.records_out",
        t[Layer::Keymap as usize].items as f64,
    );
    m.insert("core.operators.combine_ms", combine);
    m.insert(
        "core.operators.reduce_ms",
        t[Layer::Reduce as usize].busy_ms(clock_ns),
    );
    m.insert("core.plan.partition_ms", partition);
    m.insert("mapreduce.map_span_ms", span);
    m.insert("mapreduce.map_self_ms", span - wrapped);
    m.insert(
        "trace.wrapped_share_pct",
        100.0 * wrapped / span.max(f64::MIN_POSITIVE),
    );
    m.insert(
        "output.commit_ms",
        t[Layer::Commit as usize].busy_ms(clock_ns),
    );
    m.insert(
        "output.stream_group_ms",
        t[Layer::StreamGroup as usize].busy_ms(clock_ns),
    );
    m.insert(
        "trace.clamped_samples",
        t.iter().map(|l| l.clamped).sum::<u64>() as f64,
    );
}

/// Jobs run and jobs whose output failed the check.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Median over jobs of each metric.
fn medians(jobs: &[Metrics]) -> Metrics {
    let mut out = Metrics::new();
    if let Some(first) = jobs.first() {
        for k in first.keys() {
            let v: Vec<f64> = jobs.iter().filter_map(|m| m.get(k).copied()).collect();
            out.insert(k, stats::median(&v));
        }
    }
    out
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Alternates untraced and traced runs of `untraced` / `traced` until
/// `window` has passed (at least one pair); returns every traced
/// job's metrics and the tracing overhead, percent of the untraced
/// median wall.
fn alternate(
    window: Duration,
    jobs: &mut Outcome,
    mut untraced: impl FnMut() -> JobSample,
    mut traced: impl FnMut() -> (JobSample, Metrics),
) -> (Vec<Metrics>, f64) {
    let start = Instant::now();
    let (mut plain, mut wrapped, mut metrics) = (Vec::new(), Vec::new(), Vec::new());
    while plain.is_empty() || start.elapsed() < window {
        let u = untraced();
        let (t, m) = traced();
        jobs.note(u.ok);
        jobs.note(t.ok);
        plain.push(u.wall_ms);
        wrapped.push(t.wall_ms);
        metrics.push(m);
    }
    let base = stats::median(&plain);
    (metrics, 100.0 * (stats::median(&wrapped) - base) / base)
}

/// Entry point of one traced repetition process: prints `layer <name>
/// <value>` lines for the parent.
pub fn repetition(
    workload: Workload,
    spec: &JobSpec,
    input: &Path,
    reference: &Reference,
    window: Duration,
    scratch: &Path,
) {
    let clock_ns = clock_cost_ns();
    let file = ScincFile::open(input).expect("dataset opens");
    let cells = file
        .metadata()
        .variable_shape(&spec.query().expect("spec query").variable)
        .expect("variable shape")
        .count();
    let maps = spec.splits.len();
    let mut jobs = Outcome::default();
    let mut out = Metrics::new();

    // Planning and admission pre-flight, timed directly.
    let query = spec.query().expect("spec query");
    let build: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            SidrPlanner::new(&query, spec.num_reducers)
                .skip_preflight()
                .build(&spec.splits)
                .expect("plan builds");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let preflight: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            analyze_spec(spec, &AnalyzeOptions::default()).expect("pre-flight runs");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.insert("core.plan.build_ms", stats::median(&build));
    out.insert("analyze.preflight_ms", stats::median(&preflight));

    // The engine layers, on the in-process engine (for served
    // workloads this replicates on one process what the workers run).
    let validate = workload.is_served();
    let pool = SlotPool::new(MAP_SLOTS, REDUCE_SLOTS).expect("pool");
    let opts = SpecRunOptions {
        validate_annotations: validate,
        ..SpecRunOptions::default()
    };
    let untraced_local = || {
        local_job(reference, |sink| {
            run_spec_on_pool(&file, spec, &opts, sink, &pool, None)
        })
        .0
    };
    let traced_local = || {
        let before = snapshot();
        let allocs_before = alloc::totals();
        alloc::counting(true);
        let (sample, result) = local_job(reference, |sink| {
            traced_run(&file, spec, validate, &pool, sink, Executor::Local)
        });
        alloc::counting(false);
        let mut m = Metrics::new();
        if let Some(result) = &result {
            let t = delta(&snapshot(), &before);
            layer_metrics(&mut m, &t, result, clock_ns);
            let (a, b) = alloc::totals();
            m.insert(
                "alloc.per_cell",
                (a - allocs_before.0) as f64 / cells as f64,
            );
            m.insert(
                "alloc.bytes_per_cell",
                (b - allocs_before.1) as f64 / cells as f64,
            );
            engine_metrics(&mut m, result, sample.wall_ms, maps);
        }
        (sample, m)
    };
    jobs.note(untraced_local().ok); // warm-up
    let local_window = if workload.is_served() {
        window / 4
    } else {
        window
    };
    let (local, overhead) = alternate(local_window, &mut jobs, untraced_local, traced_local);
    out.extend(medians(&local));
    out.insert("trace.overhead_pct", overhead);

    let input_str = input.to_str().expect("utf-8 path");
    if workload.is_served() {
        // Client-side phases through the daemon.
        let daemon = Daemon::spawn(workload.worker_budget(), scratch);
        let mut client = Client::connect_binary(&daemon.addr).expect("client connects");
        jobs.note(serve_job(reference, &mut client, spec, input_str).ok); // warm-up
        let start = Instant::now();
        let mut served = Vec::new();
        while served.len() < 3 || start.elapsed() < window / 4 {
            let s = serve_job(reference, &mut client, spec, input_str);
            jobs.note(s.ok);
            served.push(s);
        }
        let col =
            |f: fn(&JobSample) -> f64| stats::median(&served.iter().map(f).collect::<Vec<_>>());
        out.insert("serve.admit_ms", col(|j| j.admit_ms));
        out.insert("serve.stream_ms", col(|j| j.stream_ms));
        out.insert("serve.keyblock_frames", col(|j| j.keyblock_frames as f64));
        drop(client);
        daemon.shutdown();

        // The fleet seam, driven directly with a timing wrapper.
        let workers = spawn_workers(workload.worker_budget(), scratch);
        let fleet = Fleet::connect(FleetConfig::new(
            workers.iter().map(|w| w.addr().to_string()).collect(),
        ))
        .expect("fleet connects");
        let exec_opts = ExecOptions {
            validate_annotations: true,
            ..ExecOptions::default()
        };
        let untraced_fleet = || {
            let remote = fleet
                .prepare_job(spec, input_str, &exec_opts)
                .expect("prepare");
            let s = local_job(reference, |sink| {
                run_spec_with_executor(&file, spec, &opts, sink, &pool, None, &remote)
            })
            .0;
            remote.finish();
            s
        };
        let traced_fleet = || {
            fleet_traced_job(
                &fleet, &workers, spec, input_str, &file, &pool, reference, &exec_opts, maps,
            )
        };
        jobs.note(untraced_fleet().ok); // warm-up
        let (fleet_jobs, fleet_overhead) =
            alternate(window / 4, &mut jobs, untraced_fleet, traced_fleet);
        // The served path's scheduling numbers replace the replica's.
        out.extend(medians(&fleet_jobs));
        out.insert("trace.overhead_pct", fleet_overhead);
        fleet.shutdown();
        stop_workers(&workers);

        // Isolated map attempts on the worker-side executor.
        let exec = SpecExecutor::new(input, spec.clone(), exec_opts).expect("executor prepares");
        let map_ms: Vec<f64> = (0..maps)
            .map(|m| {
                let t0 = Instant::now();
                exec.run_map(m, 0).expect("map attempt runs");
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let worker_map = mean(&map_ms);
        out.insert("worker.map_ms", worker_map);
        let rtt = out.get("fleet.map_rtt_ms").copied().unwrap_or(0.0);
        out.insert("fleet.dispatch_overhead_ms", rtt - worker_map);
    } else {
        for k in [
            "serve.admit_ms",
            "serve.stream_ms",
            "serve.keyblock_frames",
            "fleet.map_rtt_ms",
            "fleet.reduce_rtt_ms",
            "fleet.reduce_first_group_ms",
            "fleet.fetch_ms",
            "fleet.attempt_share_max",
            "fleet.dispatch_overhead_ms",
            "worker.map_ms",
            "tier.spills",
            "tier.spilled_bytes",
            "tier.spill_ms",
            "tier.readback_ms",
            "tier.peak_resident_bytes",
        ] {
            out.insert(k, 0.0);
        }
    }
    out.insert("trace.clock_ns", clock_ns);
    println!("jobs {} {}", jobs.attempted, jobs.failed);
    for (k, v) in &out {
        println!("layer {k} {v}");
    }
}

/// One fleet job through the timing `TaskExecutor`, with the tier and
/// fleet deltas it caused.
#[allow(clippy::too_many_arguments)]
fn fleet_traced_job(
    fleet: &Fleet,
    workers: &[Worker],
    spec: &JobSpec,
    input: &str,
    file: &ScincFile,
    pool: &SlotPool,
    reference: &Reference,
    exec_opts: &ExecOptions,
    maps: usize,
) -> (JobSample, Metrics) {
    let tier = tier_metrics();
    let fm = fleet_metrics();
    let attempts = |w: &Worker| {
        let s = w.stat();
        s.map_attempts + s.reduce_attempts
    };
    let attempts_before: Vec<u64> = workers.iter().map(attempts).collect();
    let spills = tier.spills.get();
    let spilled = tier.spill_file_bytes.sum();
    let spill_s = tier.spill_seconds.sum();
    let readback_s = tier.readback_seconds.sum();
    let fetch_s = fm.fetch_seconds.sum();

    let remote = fleet.prepare_job(spec, input, exec_opts).expect("prepare");
    let traced = TracedExecutor {
        inner: &remote,
        rtts: Mutex::new(Rtts::default()),
    };
    let (sample, result) = local_job(reference, |sink| {
        traced_run(file, spec, true, pool, sink, Executor::Remote(&traced))
    });
    remote.finish();

    let mut m = Metrics::new();
    if let Some(result) = &result {
        engine_metrics(&mut m, result, sample.wall_ms, maps);
    }
    let rtts = traced.rtts.into_inner().expect("rtt lock");
    m.insert("fleet.map_rtt_ms", mean(&rtts.map_ms));
    m.insert("fleet.reduce_rtt_ms", mean(&rtts.reduce_ms));
    m.insert(
        "fleet.reduce_first_group_ms",
        mean(&rtts.reduce_first_group_ms),
    );
    m.insert("fleet.fetch_ms", (fm.fetch_seconds.sum() - fetch_s) * 1e3);
    let per_worker: Vec<u64> = workers
        .iter()
        .zip(&attempts_before)
        .map(|(w, b)| attempts(w) - b)
        .collect();
    let total: u64 = per_worker.iter().sum();
    m.insert(
        "fleet.attempt_share_max",
        *per_worker.iter().max().unwrap_or(&0) as f64 / total.max(1) as f64,
    );
    m.insert("tier.spills", (tier.spills.get() - spills) as f64);
    m.insert("tier.spilled_bytes", tier.spill_file_bytes.sum() - spilled);
    m.insert("tier.spill_ms", (tier.spill_seconds.sum() - spill_s) * 1e3);
    m.insert(
        "tier.readback_ms",
        (tier.readback_seconds.sum() - readback_s) * 1e3,
    );
    m.insert(
        "tier.peak_resident_bytes",
        workers
            .iter()
            .map(|w| w.stat().peak_resident_bytes)
            .max()
            .unwrap_or(0) as f64,
    );
    (sample, m)
}
