//! One untraced repetition: set up, warm up, then drive a fixed number
//! of closed-loop jobs, checking every job's output.

use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sidr_coords::Coord;
use sidr_core::framework::{run_spec_on_pool, SpecRunOptions};
use sidr_core::spec::JobSpec;
use sidr_mapreduce::{JobResult, OutputCollector, SlotPool};
use sidr_scifile::ScincFile;
use sidr_serve::{Client, SubmitOptions};

use crate::check::{Block, Reference};
use crate::stats;
use crate::workload::{Daemon, Workload, MAP_SLOTS, REDUCE_SLOTS};

/// What the caller saw of one job.
#[derive(Clone, Debug, Default)]
pub struct JobSample {
    /// Call (local) or `Submit` (daemon) until return or `Done`.
    pub wall_ms: f64,
    /// Call or `Submit` until the first committed keyblock arrived.
    pub first_ms: f64,
    /// `Submit` until `Accepted` (daemon jobs only).
    pub admit_ms: f64,
    /// First keyblock until `Done` (daemon jobs only).
    pub stream_ms: f64,
    pub keyblock_frames: u64,
    /// Output matched the direct evaluation.
    pub ok: bool,
    /// Time spent checking the output (not part of the job).
    pub check_ms: f64,
}

/// The caller-side output sink of a local job: keeps every committed
/// keyblock and the time the first one arrived.
pub struct Sink {
    start: Instant,
    first: Mutex<Option<Duration>>,
    blocks: Mutex<Vec<Block>>,
}

impl Sink {
    pub fn new(start: Instant) -> Sink {
        Sink {
            start,
            first: Mutex::new(None),
            blocks: Mutex::new(Vec::new()),
        }
    }

    pub fn first_ms(&self) -> f64 {
        self.first
            .lock()
            .expect("sink lock")
            .map_or(f64::NAN, |d| d.as_secs_f64() * 1e3)
    }

    pub fn take(&self) -> Vec<Block> {
        std::mem::take(&mut *self.blocks.lock().expect("sink lock"))
    }
}

impl OutputCollector<Coord, f64> for Sink {
    fn commit(&self, reducer: usize, records: Vec<(Coord, f64)>) -> sidr_mapreduce::Result<()> {
        let at = self.start.elapsed();
        self.first.lock().expect("sink lock").get_or_insert(at);
        self.blocks
            .lock()
            .expect("sink lock")
            .push((reducer, records));
        Ok(())
    }
}

/// Runs `job` into a fresh sink, then checks the sink's output against
/// the reference.
pub fn local_job(
    reference: &Reference,
    job: impl FnOnce(&Sink) -> sidr_core::Result<JobResult>,
) -> (JobSample, Option<JobResult>) {
    let start = Instant::now();
    let sink = Sink::new(start);
    let result = job(&sink);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let checked = Instant::now();
    let verdict = match &result {
        Ok(_) => reference.check(&sink.take()),
        Err(e) => Err(format!("job failed: {e}")),
    };
    if let Err(e) = &verdict {
        eprintln!("perfbench: job output rejected: {e}");
    }
    let sample = JobSample {
        wall_ms,
        first_ms: sink.first_ms(),
        ok: verdict.is_ok(),
        check_ms: checked.elapsed().as_secs_f64() * 1e3,
        ..JobSample::default()
    };
    (sample, result.ok())
}

/// One job through the public local entry point.
pub fn plain_local_job(
    reference: &Reference,
    file: &ScincFile,
    spec: &JobSpec,
    pool: &SlotPool,
) -> JobSample {
    local_job(reference, |sink| {
        run_spec_on_pool(file, spec, &SpecRunOptions::default(), sink, pool, None)
    })
    .0
}

/// One job submitted through a daemon connection, streamed to `Done`.
pub fn serve_job(
    reference: &Reference,
    client: &mut Client,
    spec: &JobSpec,
    input: &str,
) -> JobSample {
    let start = Instant::now();
    let mut blocks: Vec<Block> = Vec::new();
    let mut first: Option<Instant> = None;
    let outcome = client
        .submit(spec, input, SubmitOptions::default())
        .and_then(|ticket| {
            let admitted = start.elapsed();
            client
                .stream_job(ticket.job, |reducer, _, records| {
                    first.get_or_insert_with(Instant::now);
                    blocks.push((reducer, records.to_vec()));
                })
                .map(|o| (admitted, o))
        });
    let done = Instant::now();
    let checked = Instant::now();
    let verdict = match &outcome {
        Ok((_, o)) if o.completed => reference.check(&blocks),
        Ok(_) => Err("job was cancelled".into()),
        Err(e) => Err(format!("job failed: {e}")),
    };
    if let Err(e) = &verdict {
        eprintln!("perfbench: job output rejected: {e}");
    }
    let first = first.unwrap_or(done);
    JobSample {
        wall_ms: (done - start).as_secs_f64() * 1e3,
        first_ms: (first - start).as_secs_f64() * 1e3,
        admit_ms: outcome
            .as_ref()
            .map_or(f64::NAN, |(a, _)| a.as_secs_f64() * 1e3),
        stream_ms: (done - first).as_secs_f64() * 1e3,
        keyblock_frames: blocks.len() as u64,
        ok: verdict.is_ok(),
        check_ms: checked.elapsed().as_secs_f64() * 1e3,
    }
}

/// Closed loop: each of `clients` threads runs `job` back to back
/// `jobs` times. Returns every sample and the loop's effective length
/// in seconds: its wall time less the clients' mean time spent
/// checking outputs.
pub fn closed_loop<C>(
    clients: Vec<C>,
    jobs: usize,
    job: impl Fn(&mut C) -> JobSample + Sync,
) -> (Vec<JobSample>, f64)
where
    C: Send,
{
    let n = clients.len() as f64;
    let start = Instant::now();
    let samples: Vec<JobSample> = std::thread::scope(|s| {
        let threads: Vec<_> = clients
            .into_iter()
            .map(|mut c| {
                let job = &job;
                s.spawn(move || (0..jobs).map(|_| job(&mut c)).collect::<Vec<_>>())
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    let checking: f64 = samples.iter().map(|s| s.check_ms).sum::<f64>() / 1e3 / n;
    (samples, start.elapsed().as_secs_f64() - checking)
}

/// Entry point of one untraced repetition process. Prints its results
/// as `key value…` lines for the parent.
pub fn repetition(
    workload: Workload,
    spec: &JobSpec,
    input: &Path,
    reference: &Reference,
    scratch: &Path,
) {
    let jobs = workload.jobs_per_process();
    let set_up = Instant::now();
    let input_str = input.to_str().expect("utf-8 path");
    let (samples, effective_s) = if workload.is_served() {
        let daemon = Daemon::spawn(workload.worker_budget(), scratch);
        let mut clients: Vec<Client> = (0..workload.clients())
            .map(|_| Client::connect_binary(&daemon.addr).expect("client connects"))
            .collect();
        let mut warm = true;
        for c in &mut clients {
            warm &= serve_job(reference, c, spec, input_str).ok;
        }
        println!("setup_s {}", set_up.elapsed().as_secs_f64());
        println!("warmup_ok {}", u8::from(warm));
        stats::reset_peak_rss();
        let out = closed_loop(clients, jobs, |c| serve_job(reference, c, spec, input_str));
        daemon.shutdown();
        out
    } else {
        // One job per process (see `Workload::jobs_per_process`), so
        // there is no warm-up job: the dataset is page-cache-warm from
        // its generation and nothing else carries over between jobs.
        let file = ScincFile::open(input).expect("dataset opens");
        let pool = SlotPool::new(MAP_SLOTS, REDUCE_SLOTS).expect("pool");
        println!("setup_s {}", set_up.elapsed().as_secs_f64());
        stats::reset_peak_rss();
        closed_loop(vec![()], jobs, |_| {
            plain_local_job(reference, &file, spec, &pool)
        })
    };
    println!("peak_rss_mb {}", stats::peak_rss_mb());
    println!("window_s {effective_s}");
    for s in &samples {
        println!("job {} {} {}", s.wall_ms, s.first_ms, u8::from(s.ok));
    }
}
