//! `sidr-perfbench`: the repository benchmark (see `BENCHMARK.json`
//! at the repository root and `perfbench/README.md`).
//!
//! ```text
//! bash perfbench/run.sh --workload fig08-mean --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run generates the workload's dataset from the seed, evaluates
//! the query directly for the output check, then starts repetition
//! processes one after another while the window lasts — each sets up
//! its own engine or daemon, warms it up and drives a fixed number of
//! closed-loop jobs — and aggregates their raw samples. `--trace 1` runs one
//! traced repetition instead and reports per-layer numbers. The last
//! line of standard output is the JSON result.

mod alloc;
mod check;
mod stats;
mod timed;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use check::Reference;
use workload::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The end-to-end metrics of an untraced run and their units (the
/// `end_to_end` list of `BENCHMARK.json`).
const END_TO_END: &[(&str, &str)] = &[
    ("job_ms.p50", "ms"),
    ("job_ms.p90", "ms"),
    ("first_keyblock_ms.iqm", "ms"),
    ("cells_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of a traced run and their units (the
/// `per_layer` list of `BENCHMARK.json`). Times are per job, summed
/// over the job's tasks, except the per-attempt `fleet.*` and
/// `worker.map_ms` means and the per-job medians of `serve.*`.
const PER_LAYER: &[(&str, &str)] = &[
    ("scifile.read_ms", "ms"),
    ("scifile.cells", "count"),
    ("core.source.keymap_ms", "ms"),
    ("core.source.records_out", "count"),
    ("core.operators.combine_ms", "ms"),
    ("core.operators.reduce_ms", "ms"),
    ("core.plan.build_ms", "ms"),
    ("analyze.preflight_ms", "ms"),
    ("core.plan.partition_ms", "ms"),
    ("mapreduce.map_span_ms", "ms"),
    ("mapreduce.map_self_ms", "ms"),
    ("mapreduce.barrier_wait_ms", "ms"),
    ("mapreduce.merge_ms", "ms"),
    ("mapreduce.reduce_tail_ms", "ms"),
    ("mapreduce.teardown_ms", "ms"),
    ("mapreduce.shuffled_records", "count"),
    ("mapreduce.combined_records", "count"),
    ("mapreduce.shuffle_connections", "count"),
    ("mapreduce.useful_attempt_ratio", "ratio"),
    ("tier.spills", "count"),
    ("tier.spilled_bytes", "bytes"),
    ("tier.spill_ms", "ms"),
    ("tier.readback_ms", "ms"),
    ("tier.peak_resident_bytes", "bytes"),
    ("fleet.map_rtt_ms", "ms"),
    ("fleet.reduce_rtt_ms", "ms"),
    ("fleet.reduce_first_group_ms", "ms"),
    ("fleet.fetch_ms", "ms"),
    ("worker.map_ms", "ms"),
    ("fleet.dispatch_overhead_ms", "ms"),
    ("fleet.attempt_share_max", "ratio"),
    ("output.commit_ms", "ms"),
    ("output.stream_group_ms", "ms"),
    ("serve.admit_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.keyblock_frames", "count"),
    ("alloc.per_cell", "count/cell"),
    ("alloc.bytes_per_cell", "bytes/cell"),
    ("trace.overhead_pct", "%"),
    ("trace.wrapped_share_pct", "%"),
    ("trace.clock_ns", "ns"),
    ("trace.clamped_samples", "count"),
    ("check.reference_ms", "ms"),
];

/// Directory (under the working directory) holding each run's
/// generated inputs and spill files; removed when the run ends.
const WORK_DIR: &str = ".perfbench-work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in repetition processes: `(input, reference, scratch dir)`.
    repetition: Option<(PathBuf, PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1).peekable();
    let child = it.peek().is_some_and(|a| a == "repetition");
    if child {
        it.next();
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut input, mut reference, mut scratch) = (None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (fig08-mean, median-fleet, tiny-serve)")
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--input" if child => input = Some(PathBuf::from(value)),
            "--reference" if child => reference = Some(PathBuf::from(value)),
            "--scratch" if child => scratch = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    Ok(Args {
        workload: workload.ok_or(missing("--workload"))?,
        seed: seed.ok_or(missing("--seed"))?,
        seconds: seconds.ok_or(missing("--seconds"))?,
        trace: trace.ok_or(missing("--trace"))?,
        repetition: if child {
            Some((
                input.ok_or(missing("--input"))?,
                reference.ok_or(missing("--reference"))?,
                scratch.ok_or(missing("--scratch"))?,
            ))
        } else {
            None
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("sidr-perfbench: {msg}");
            eprintln!("usage: sidr-perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match &args.repetition {
        Some((input, reference, scratch)) => {
            let fixture = args.workload.fixture(args.seed);
            let reference = Reference::load(reference, &fixture.query, fixture.spec.num_reducers);
            if args.trace {
                let window = Duration::from_secs_f64(args.seconds);
                trace::repetition(
                    args.workload,
                    &fixture.spec,
                    input,
                    &reference,
                    window,
                    scratch,
                );
            } else {
                timed::repetition(args.workload, &fixture.spec, input, &reference, scratch);
            }
            ExitCode::SUCCESS
        }
        None => parent(&args),
    }
}

/// What one repetition process reported.
#[derive(Default)]
struct Repetition {
    setup_s: f64,
    window_s: f64,
    peak_rss_mb: f64,
    jobs: Vec<(f64, f64, bool)>,
    attempted: u64,
    failed: u64,
    layers: Vec<(String, f64)>,
}

fn parse_repetition(out: &str) -> Result<Repetition, String> {
    let mut r = Repetition::default();
    for line in out.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| -> Result<f64, String> {
            f.get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| format!("malformed repetition line {line:?}"))
        };
        match f.first().copied() {
            Some("setup_s") => r.setup_s = num(1)?,
            Some("window_s") => r.window_s = num(1)?,
            Some("peak_rss_mb") => r.peak_rss_mb = num(1)?,
            Some("warmup_ok") => {
                r.attempted += 1;
                r.failed += u64::from(num(1)? == 0.0);
            }
            Some("job") => {
                let ok = num(3)? != 0.0;
                r.jobs.push((num(1)?, num(2)?, ok));
                r.attempted += 1;
                r.failed += u64::from(!ok);
            }
            Some("jobs") => {
                r.attempted += num(1)? as u64;
                r.failed += num(2)? as u64;
            }
            Some("layer") => r.layers.push((
                f.get(1).ok_or("layer line without a name")?.to_string(),
                num(2)?,
            )),
            _ => {}
        }
    }
    Ok(r)
}

fn parent(args: &Args) -> ExitCode {
    let w = args.workload;
    let work = Path::new(WORK_DIR).join(format!("{}-{}", w.name(), std::process::id()));
    let tmp = work.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("sidr-perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let result = run(args, &work, &tmp);
    std::fs::remove_dir_all(&work).ok();
    std::fs::remove_dir(WORK_DIR).ok();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("sidr-perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, work: &Path, tmp: &Path) -> Result<(), String> {
    let w = args.workload;
    let fixture = w.fixture(args.seed);
    let input = work.join("input.scinc");
    let generated = Instant::now();
    fixture.generate(&input);
    let gen_s = generated.elapsed().as_secs_f64();

    let evaluated = Instant::now();
    let reference = Reference::compute(&input, &fixture.query, fixture.spec.num_reducers);
    let reference_ms = evaluated.elapsed().as_secs_f64() * 1e3;
    let reference_path = work.join("reference.f64");
    reference.save(&reference_path);
    let self_test = reference.self_test(&fixture.spec.keyblock_covers);
    if let Err(e) = &self_test {
        eprintln!("sidr-perfbench: {e}");
    }
    drop(reference);

    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let spawn = |window: f64| -> Result<Repetition, String> {
        let out = Command::new(&exe)
            .arg("repetition")
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &window.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--input")
            .arg(&input)
            .arg("--reference")
            .arg(&reference_path)
            .arg("--scratch")
            .arg(tmp)
            .env("TMPDIR", tmp)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("repetition process: {e}"))?;
        if !out.status.success() {
            return Err(format!("repetition process failed: {}", out.status));
        }
        parse_repetition(&String::from_utf8_lossy(&out.stdout))
    };
    let mut results = Vec::new();
    if args.trace {
        results.push(spawn(args.seconds)?);
    } else {
        // Repetition processes while the next is expected to end inside
        // the window.
        let (mut used, mut last) = (0.0, 0.0);
        while results.is_empty() || used + last <= args.seconds {
            let r = spawn(args.seconds)?;
            last = r.window_s;
            used += last;
            results.push(r);
        }
    }

    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let correct = failed == 0 && self_test.is_ok();
    let mut report = vec![
        format!(
            "workload={} seed={} seconds={}",
            w.name(),
            args.seed,
            args.seconds
        ),
        format!("commit={} nproc={}", commit(), nproc()),
        format!(
            "dataset: {} cells generated in {gen_s:.3} s; direct evaluation {reference_ms:.1} ms \
             (not part of setup_s)",
            fixture.cells()
        ),
        format!(
            "output check: {} keys per job, mean tolerance {:e} relative, median exact; \
             self-test {}",
            fixture.query.intermediate_space().count(),
            check::MEAN_REL_TOL,
            if self_test.is_ok() {
                "passed"
            } else {
                "FAILED"
            }
        ),
        format!("jobs: attempted={attempted} failed={failed}"),
    ];
    let metrics: BTreeMap<String, f64> = if args.trace {
        report.push(format!(
            "traced run: per-record calls timed 1 in {}",
            trace::STRIDE
        ));
        let mut m: BTreeMap<String, f64> = results[0].layers.iter().cloned().collect();
        m.insert("check.reference_ms".into(), reference_ms);
        m
    } else {
        let walls: Vec<f64> = results
            .iter()
            .flat_map(|r| r.jobs.iter().map(|j| j.0))
            .collect();
        let firsts: Vec<f64> = results
            .iter()
            .flat_map(|r| r.jobs.iter().map(|j| j.1))
            .collect();
        if walls.is_empty() {
            return Err("no job completed in the window".into());
        }
        let setups: Vec<f64> = results.iter().map(|r| r.setup_s).collect();
        let peaks: Vec<f64> = results.iter().map(|r| r.peak_rss_mb).collect();
        let window_s: f64 = results.iter().map(|r| r.window_s).sum();
        let busy_s: f64 = walls.iter().sum::<f64>() / 1e3;
        report.push(stats::summary("job_ms", &walls));
        report.push(format!(
            "job_ms.p90: n={} with {} samples beyond it",
            walls.len(),
            stats::beyond(walls.len(), 90.0)
        ));
        report.push(stats::summary("first_keyblock_ms", &firsts));
        report.push(format!(
            "setup_s = generation {gen_s:.3} + median of {} per-process set-ups {setups:?}",
            setups.len()
        ));
        report.push(format!("peak_rss_mb per repetition {peaks:?}"));
        [
            ("job_ms.p50", stats::median(&walls)),
            ("job_ms.p90", stats::percentile(&walls, 90.0)),
            ("first_keyblock_ms.iqm", stats::interquartile_mean(&firsts)),
            (
                "cells_per_s",
                fixture.cells() as f64 * walls.len() as f64 / busy_s,
            ),
            ("jobs_per_s", walls.len() as f64 / window_s),
            ("setup_s", gen_s + stats::median(&setups)),
            ("peak_rss_mb", stats::interquartile_mean(&peaks)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    };
    for line in &report {
        println!("# {line}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut body = Vec::new();
    for (name, unit) in table {
        let v = metrics
            .get(*name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*v)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The commit being measured, when the working directory is a git
/// checkout of its own.
fn commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().map(Path::to_path_buf).unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
