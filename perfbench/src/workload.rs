//! The three workloads: geometry, generated input and the execution
//! environment each one runs in.
//!
//! The seed only changes the generated values; the geometry (dataset
//! shape, extraction, splits, keyblocks) is fixed per workload.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

use sidr_coords::Shape;
use sidr_core::spec::JobSpec;
use sidr_core::{Operator, SidrPlanner, StructuralQuery};
use sidr_mapreduce::SplitGenerator;
use sidr_scifile::gen::DatasetSpec;
use sidr_serve::{Server, ServerConfig, ServerHandle};
use sidr_worker::{Worker, WorkerOptions};

/// Map and reduce slots of the shared pool in every workload: sized
/// for a 2-core machine.
pub const MAP_SLOTS: usize = 2;
pub const REDUCE_SLOTS: usize = 2;

/// Resident-partition budget of each `median-fleet` worker: about 3 of
/// the job's ~4.2 MB partitions, so roughly a quarter of them pass
/// through the disk tier.
pub const MEDIAN_FLEET_BUDGET: u64 = 12_500_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Map side dominates: one local closed-loop caller on the fig08
    /// weekly-means job.
    Fig08Mean,
    /// Reduce side and spill tier dominate: a holistic median shuffled
    /// over TCP to two budgeted workers.
    MedianFleet,
    /// Per-job fixed costs and queueing dominate: two clients submit
    /// a tiny job back to back through one daemon.
    TinyServe,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fig08-mean" => Some(Workload::Fig08Mean),
            "median-fleet" => Some(Workload::MedianFleet),
            "tiny-serve" => Some(Workload::TinyServe),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig08Mean => "fig08-mean",
            Workload::MedianFleet => "median-fleet",
            Workload::TinyServe => "tiny-serve",
        }
    }

    /// Whether jobs run on a worker fleet behind a `sidr-serve` daemon
    /// (otherwise on the in-process engine).
    pub fn is_served(self) -> bool {
        self != Workload::Fig08Mean
    }

    /// Closed-loop clients driving load.
    pub fn clients(self) -> usize {
        match self {
            Workload::TinyServe => 2,
            _ => 1,
        }
    }

    /// Jobs each client runs in one repetition process. An untraced
    /// run starts processes one after another while the next is
    /// expected to end inside the window; every process repeats the
    /// set-up, and peak RSS is read per process. The count is fixed
    /// because heap a job leaves behind raises the next job's peak: in
    /// one process a second fig08 job runs markedly slower and peaks
    /// higher than the first, and a served process's peak climbs with
    /// every job, so peaks are only comparable at equal job counts.
    pub fn jobs_per_process(self) -> usize {
        match self {
            Workload::Fig08Mean => 1,
            Workload::MedianFleet => 3,
            Workload::TinyServe => 10,
        }
    }

    /// Worker resident budget (0 = unbounded).
    pub fn worker_budget(self) -> u64 {
        match self {
            Workload::MedianFleet => MEDIAN_FLEET_BUDGET,
            _ => 0,
        }
    }

    /// Dataset and job of this workload for `seed`.
    pub fn fixture(self, seed: u64) -> Fixture {
        let shape = |v: &[u64]| Shape::new(v.to_vec()).expect("valid shape");
        let (dataset, query, splits, reducers) = match self {
            Workload::Fig08Mean => {
                let job = sidr_analyze::presets::preset("fig08").expect("fig08 preset exists");
                let data = DatasetSpec::temperature(job.query.input_space().clone(), seed);
                (data, job.query, job.splits, job.reducer_counts[0])
            }
            Workload::MedianFleet => {
                // Query 1-style median, 8 rows per split: 24 maps, 16
                // keyblocks of 12 keys, 25,920 values per key.
                let query = StructuralQuery::new(
                    "windspeed",
                    shape(&[192, 36, 72, 10]),
                    shape(&[2, 36, 36, 10]),
                    Operator::Median,
                )
                .expect("query is structural");
                let splits = SplitGenerator::new(query.input_space().clone(), 4)
                    .aligned(36 * 72 * 10 * 4 * 8, 2)
                    .expect("splits generate");
                let data = DatasetSpec::windspeed(query.input_space().clone(), seed);
                (data, query, splits, 16)
            }
            Workload::TinyServe => {
                let job = sidr_analyze::presets::preset("query1-tiny")
                    .expect("query1-tiny preset exists");
                let data = DatasetSpec::windspeed(job.query.input_space().clone(), seed);
                (data, job.query, job.splits, job.reducer_counts[0])
            }
        };
        let plan = SidrPlanner::new(&query, reducers)
            .build(&splits)
            .expect("workload plans");
        let spec = JobSpec::from_plan(&query, &splits, &plan).expect("spec builds");
        Fixture {
            dataset,
            spec,
            query,
        }
    }
}

/// One workload instance: the generated dataset's description and the
/// job that runs over it.
pub struct Fixture {
    pub dataset: DatasetSpec,
    pub spec: JobSpec,
    pub query: StructuralQuery,
}

impl Fixture {
    pub fn cells(&self) -> u64 {
        self.dataset.space.count()
    }

    /// Writes the dataset as f32 values.
    pub fn generate(&self, path: &Path) {
        self.dataset
            .generate::<f32>(path)
            .expect("dataset generates");
    }
}

/// In-process `sidr-worker`s behind an in-process `sidr-serve`
/// coordinator, all on loopback.
pub struct Daemon {
    pub workers: Vec<Worker>,
    pub addr: String,
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    pub fn spawn(budget: u64, spill_root: &Path) -> Daemon {
        let workers = spawn_workers(budget, spill_root);
        let config = ServerConfig {
            map_slots: MAP_SLOTS,
            reduce_slots: REDUCE_SLOTS,
            workers: workers.iter().map(|w| w.addr().to_string()).collect(),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).expect("server binds");
        let addr = server.local_addr().expect("bound address").to_string();
        let handle = server.handle();
        let thread = Some(std::thread::spawn(move || server.run()));
        Daemon {
            workers,
            addr,
            handle,
            thread,
        }
    }

    pub fn shutdown(mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            t.join()
                .expect("server thread panicked")
                .expect("server accept loop");
        }
        stop_workers(&self.workers);
    }
}

/// Two loopback workers with the given resident budget, spilling
/// under `spill_root`.
pub fn spawn_workers(budget: u64, spill_root: &Path) -> Vec<Worker> {
    (0..2)
        .map(|i| {
            let opts = WorkerOptions {
                budget_bytes: budget,
                spill_dir: Some(spill_dir(spill_root, i)),
                fail_spills: false,
            };
            Worker::spawn_with("127.0.0.1:0", opts).expect("worker binds loopback")
        })
        .collect()
}

pub fn stop_workers(workers: &[Worker]) {
    for w in workers {
        w.kill();
    }
    for w in workers {
        w.wait();
    }
}

fn spill_dir(root: &Path, i: usize) -> PathBuf {
    root.join(format!("spill-{}-{i}", std::process::id()))
}
