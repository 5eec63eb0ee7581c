//! Coordinator panic regression, the counterpart of the worker's
//! `panicked_task_attempt_leaves_worker_serving`: a panic inside the
//! coordinator's dispatch or heartbeat path must leave `sidr-serve`
//! admitting and completing the next job — no poisoned lock, no hung
//! client, no stopped heartbeat.
//!
//! The panic hook is process-global, so this test has its own binary:
//! no other fleet test can consume an armed panic.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use sidr_analyze::presets;
use sidr_core::spec::JobSpec;
use sidr_core::SidrPlanner;
use sidr_mapreduce::TaskKind;
use sidr_scifile::gen::{DatasetSpec, ValueModel};
use sidr_serve::fleet::inject_coordinator_panics;
use sidr_serve::{Client, JobOutcome, Server, ServerConfig, SubmitOptions};
use sidr_worker::Worker;

/// Upper bound on one job's wall before the client counts as hung.
const CLIENT_PATIENCE: Duration = Duration::from_secs(60);

fn tiny_job() -> (JobSpec, String) {
    let job = presets::preset("query1-tiny").expect("preset exists");
    let plan = SidrPlanner::new(&job.query, job.reducer_counts[0])
        .build(&job.splits)
        .unwrap();
    let spec = JobSpec::from_plan(&job.query, &job.splits, &plan).unwrap();
    let dir = std::env::temp_dir().join("sidr-worker-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("coordinator-panic-{}.scinc", std::process::id()));
    let space = job.query.input_space().clone();
    DatasetSpec {
        variable: job.query.variable.clone(),
        dim_names: (0..space.rank()).map(|d| format!("d{d}")).collect(),
        space,
        model: ValueModel::LinearIndex,
        seed: 0,
    }
    .generate::<f32>(&path)
    .unwrap();
    (spec, path.to_string_lossy().into_owned())
}

/// Submits one job on a fresh connection and streams it to its end,
/// failing the test if no terminal frame arrives in time.
fn run_job(addr: std::net::SocketAddr, spec: &JobSpec, input: &str) -> (JobOutcome, usize) {
    let (tx, rx) = mpsc::channel();
    let (spec, input) = (spec.clone(), input.to_string());
    thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let ticket = client
            .submit(&spec, &input, SubmitOptions::default())
            .expect("job admitted");
        let mut streamed = 0usize;
        let outcome = client.stream_job(ticket.job, |_, _, records| streamed += records.len());
        tx.send(outcome.map(|o| (o, streamed))).ok();
    });
    rx.recv_timeout(CLIENT_PATIENCE)
        .expect("client hung: no terminal frame")
        .expect("job completes")
}

#[test]
fn coordinator_panics_leave_server_admitting_and_completing_jobs() {
    let (spec, input) = tiny_job();
    let workers: Vec<Worker> = (0..2)
        .map(|_| Worker::spawn("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: workers.iter().map(|w| w.addr().to_string()).collect(),
            heartbeat_every: Duration::from_millis(20),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    thread::spawn(move || server.run());

    // Two dispatches and two heartbeat probes panic on entry. Each is
    // caught at its boundary: the dispatches become retryable attempt
    // failures, the probes skip one heartbeat round.
    inject_coordinator_panics(2, 2);
    let (first, streamed) = run_job(addr, &spec, &input);
    assert!(first.completed, "the job under panics must complete");
    assert_eq!(streamed, 24, "query1-tiny yields one mean per K′ row");
    // The heartbeat panics fire on the monitor's clock: re-arm what is
    // left until both have fired.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (dispatch_left, heartbeat_left) = inject_coordinator_panics(0, 0);
        assert_eq!(
            dispatch_left, 0,
            "both dispatch panics fire in the first job"
        );
        if heartbeat_left == 0 {
            break;
        }
        inject_coordinator_panics(0, heartbeat_left);
        assert!(
            Instant::now() < deadline,
            "armed heartbeat panics never fired"
        );
        thread::sleep(Duration::from_millis(20));
    }
    let failed = first
        .events
        .iter()
        .filter(|e| matches!(e.kind, TaskKind::MapFailed | TaskKind::ReduceFailed))
        .count();
    assert!(
        failed >= 1,
        "a panicked dispatch must surface as an attempt failure"
    );

    // The next job runs on the same daemon without any injected fault.
    let (second, streamed) = run_job(addr, &spec, &input);
    assert!(second.completed);
    assert_eq!(streamed, 24);

    let stats = handle.stats();
    assert_eq!(stats.jobs_done, 2);
    assert_eq!(stats.jobs_failed, 0);
    for w in &stats.workers {
        assert!(w.alive, "worker {} should be alive", w.addr);
        assert!(
            w.heartbeat_age_ms < 5_000,
            "the heartbeat must survive its panics ({} ms old for {})",
            w.heartbeat_age_ms,
            w.addr
        );
    }
    handle.shutdown();
}
