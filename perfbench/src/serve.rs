//! `serve`: the measurement service on loopback under an open loop.
//!
//! Set-up starts `Server::start` with `ServerConfig::new` defaults
//! (replay LRU of 4), submits six Tiny jobs whose seeds derive from the
//! workload seed, waits for them, and fetches each report once so that
//! every job has its `TREECACHE/`. The timed window then offers a
//! seeded, Zipf-skewed mix over the six jobs — text report, JSON
//! report, CSV exports and `If-None-Match` revalidation — at a fixed
//! rate over two connections, while a seventh job is submitted and
//! polled to `Done`. Six jobs do not fit the LRU of four: the hot jobs
//! stay cached, and the cold ones take turns in the remaining slots,
//! each turn a bundle replay. Replays set the p99, cache hits the p50.

use crate::common::{Run, Telemetry};
use crate::gate::{Rendered, ReportDigest, CSV_NAMES};
use crate::http::{get, request, Reply};
use crate::loadgen;
use crate::stats::{derived_seed, fnv64, mb, quantile, SplitMix};
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use wmtree::{Experiment, Report};
use wmtree_server::{JobRecord, JobSpec, JobState, Server, ServerConfig};

/// Jobs in the working set (the LRU holds four).
pub const JOBS: usize = 6;
/// Jobs `0..HOT` are hot: requested often enough to stay cached.
pub const HOT: usize = 2;
/// Zipf exponent of popularity among the hot jobs, and of
/// revalidations over all jobs.
pub const ZIPF_S: f64 = 1.0;
/// Share of requests that are `If-None-Match` revalidations.
pub const REVALIDATE_SHARE: f64 = 0.25;
/// Period of the cold rotation: every this many seconds the next cold
/// job (`HOT..JOBS`, in turn) is requested once; it was evicted since
/// its last turn, so it replays its bundle and evicts the cold job
/// least recently used.
pub const ROTATION_S: f64 = 1.0;
/// Concurrent load connections.
pub const CONNECTIONS: usize = 2;
/// Offered load of the window, requests per second: 1000 requests in a
/// 20 s window, so the p99 has ten samples beyond it.
pub const RATE: f64 = 50.0;
/// How often the in-window job is polled.
const POLL: Duration = Duration::from_millis(25);
/// Longest a job may take before the run gives up on it.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// What one load request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// `GET /jobs/{id}/report`.
    Report,
    /// `GET /jobs/{id}/report.json`.
    Json,
    /// `GET /jobs/{id}/csv/{name}` (index into [`CSV_NAMES`]).
    Csv(usize),
    /// `GET /jobs/{id}/report` with a matching `If-None-Match`.
    Revalidate,
}

impl Route {
    fn label(self) -> &'static str {
        match self {
            Route::Report => "report",
            Route::Json => "json",
            Route::Csv(_) => "csv",
            Route::Revalidate => "revalidate",
        }
    }
}

/// `n` split over `weights` in proportion, rounded, summing to `n`.
fn split(n: usize, weights: &[f64]) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let mut counts: Vec<usize> = weights
        .iter()
        .map(|w| (n as f64 * w / total).floor() as usize)
        .collect();
    let slots = counts.len();
    let mut k = 0;
    while counts.iter().sum::<usize>() < n {
        counts[k % slots] += 1;
        k += 1;
    }
    counts
}

fn zipf(jobs: usize) -> Vec<f64> {
    (0..jobs)
        .map(|k| 1.0 / ((k + 1) as f64).powf(ZIPF_S))
        .collect()
}

/// The request mix of a window of `count` requests at `rate`: one cold
/// request every [`ROTATION_S`] (rotating over the cold jobs, so the
/// window holds the same number of replay misses whatever the seed),
/// and between them a fixed multiset — report, JSON and CSV requests
/// over the hot jobs and revalidations over all jobs, both
/// Zipf-skewed — in a seeded order.
fn mix(seed: u64, count: usize, rate: f64) -> Vec<(usize, Route)> {
    let mut rng = SplitMix::new(seed, 0x5e_7e);
    let period = ((ROTATION_S * rate).round() as usize).max(1);
    let phase = (rng.next_u64() % period as u64) as usize;
    let first_cold = (rng.next_u64() % (JOBS - HOT) as u64) as usize;
    let is_cold = |i: usize| i % period == phase;
    let others = (0..count).filter(|i| !is_cold(*i)).count();

    let revalidations = (others as f64 * REVALIDATE_SHARE).round() as usize;
    let mut pool: Vec<(usize, Route)> = Vec::with_capacity(others);
    for (job, n) in split(others - revalidations, &zipf(HOT))
        .into_iter()
        .enumerate()
    {
        for k in 0..n {
            let route = match k % 3 {
                0 => Route::Report,
                1 => Route::Json,
                _ => Route::Csv((rng.next_u64() % CSV_NAMES.len() as u64) as usize),
            };
            pool.push((job, route));
        }
    }
    for (job, n) in split(revalidations, &zipf(JOBS)).into_iter().enumerate() {
        pool.extend(std::iter::repeat_n((job, Route::Revalidate), n));
    }
    for i in (1..pool.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        pool.swap(i, j);
    }

    let mut pool = pool.into_iter();
    let mut rotations = 0;
    (0..count)
        .map(|i| {
            if is_cold(i) {
                let job = HOT + (first_cold + rotations) % (JOBS - HOT);
                rotations += 1;
                let route = match rng.next_u64() % 3 {
                    0 => Route::Report,
                    1 => Route::Json,
                    _ => Route::Csv((rng.next_u64() % CSV_NAMES.len() as u64) as usize),
                };
                (job, route)
            } else {
                pool.next().expect("the pool holds every non-cold request")
            }
        })
        .collect()
}

/// The spec of job `k` (0..=JOBS; job JOBS is the in-window job).
fn spec(seed: u64, k: usize) -> JobSpec {
    JobSpec {
        scale: "tiny".to_string(),
        seed: Some(derived_seed(seed, 1 + k as u64)),
        workers: None,
    }
}

fn post_job(addr: SocketAddr, spec: &JobSpec) -> Result<JobRecord, String> {
    let body = serde_json::to_string(spec).map_err(|e| format!("job spec: {e}"))?;
    let reply = request(
        addr,
        "POST",
        "/jobs",
        &[("Content-Type", "application/json")],
        body.as_bytes(),
    )?;
    if reply.status != 201 {
        return Err(format!(
            "POST /jobs: status {} ({})",
            reply.status,
            reply.text()
        ));
    }
    serde_json::from_str(&reply.text()).map_err(|e| format!("POST /jobs: {e}"))
}

fn wait_done(addr: SocketAddr, id: usize) -> Result<JobRecord, String> {
    let start = Instant::now();
    loop {
        let reply = get(addr, &format!("/jobs/{id}"))?;
        let job: JobRecord =
            serde_json::from_str(&reply.text()).map_err(|e| format!("GET /jobs/{id}: {e}"))?;
        match job.state {
            JobState::Done => return Ok(job),
            JobState::Failed => return Err(format!("job {id} failed: {:?}", job.error)),
            _ if start.elapsed() > JOB_TIMEOUT => {
                return Err(format!("job {id} not done after {JOB_TIMEOUT:?}"))
            }
            _ => std::thread::sleep(POLL),
        }
    }
}

fn etag(job: &JobRecord) -> Result<String, String> {
    job.bundle_hash
        .as_ref()
        .map(|h| format!("\"{h}\""))
        .ok_or_else(|| format!("done job {} has no bundle hash", job.id))
}

/// What the client kept of one response.
#[derive(Debug, Clone)]
struct Got {
    status: u16,
    etag: Option<String>,
    digest: u64,
    bytes: usize,
}

impl Got {
    fn of(reply: &Reply) -> Got {
        Got {
            status: reply.status,
            etag: reply.header("etag").map(str::to_string),
            digest: fnv64(&reply.body),
            bytes: reply.body.len(),
        }
    }
}

/// Check one response against the offline expectation; `None` when it
/// is right.
fn verdict(route: Route, got: &Got, expected: &ReportDigest, etag: &str) -> Option<String> {
    let want_status = if route == Route::Revalidate { 304 } else { 200 };
    if got.status != want_status {
        return Some(format!(
            "{}: status {} (want {want_status})",
            route.label(),
            got.status
        ));
    }
    if got.etag.as_deref() != Some(etag) {
        return Some(format!(
            "{}: ETag {:?} (want {etag})",
            route.label(),
            got.etag
        ));
    }
    let want = match route {
        Route::Revalidate => return None,
        Route::Report => expected.text,
        Route::Json => expected.json,
        Route::Csv(n) => expected.csv[n],
    };
    (got.digest != want).then(|| format!("{}: body differs from the offline report", route.label()))
}

/// The value of `name` in a `/metrics` body (`name value` lines).
fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Run the workload.
pub fn run(run: &mut Run) -> Result<(), String> {
    let opts = run.opts;
    let root_dir = opts.work_dir.join("jobs");

    // Set-up: start the service, crawl six jobs, replay each once.
    let setup_start = Instant::now();
    let tel_setup = Telemetry::now();
    let setup_span = run.tracer.open("setup", Some(run.root));
    let handle =
        Server::start(ServerConfig::new(&root_dir)).map_err(|e| format!("starting server: {e}"))?;
    let addr = handle.addr();
    let outcome = (|| -> Result<_, String> {
        let mut jobs = Vec::new();
        for k in 0..JOBS {
            jobs.push(post_job(addr, &spec(opts.seed, k))?);
        }
        let jobs: Vec<JobRecord> = jobs
            .iter()
            .map(|j| wait_done(addr, j.id))
            .collect::<Result<_, _>>()?;
        let mut first = Vec::new();
        // Least popular first, so the LRU ends up holding jobs 0..=3
        // with the hot ones most recent.
        for job in jobs.iter().rev() {
            first.push(Got::of(&get(addr, &format!("/jobs/{}/report", job.id))?));
        }
        first.reverse();
        run.tracer.close(setup_span);
        run.setups.push(setup_start.elapsed().as_secs_f64());
        let tel_window = Telemetry::now();
        run.values.set(
            "webgen.generate_ms",
            tel_window
                .span_since(&tel_setup, "experiment.generate")
                .as_secs_f64()
                * 1e3,
        );
        let w = window(run, addr, &jobs)?;
        Ok((jobs, first, w))
    })();
    handle.shutdown();
    let (jobs, first, w) = outcome?;

    // Correctness: every body against the offline report of its job.
    let expected: Vec<ReportDigest> = (0..=JOBS)
        .map(|k| {
            let cfg = spec(opts.seed, k)
                .config()
                .map_err(|e| format!("job spec: {e}"))?;
            let rendered = Rendered::of(&Report::generate(&Experiment::new(cfg).run()));
            if k == 0 {
                run.values.set("report.bytes", rendered.bytes() as f64);
            }
            Ok(rendered.digest())
        })
        .collect::<Result<_, String>>()?;
    let etags: Vec<String> = jobs.iter().map(etag).collect::<Result<_, _>>()?;
    for (k, got) in first.iter().enumerate() {
        run.gate.expect(
            verdict(Route::Report, got, &expected[k], &etags[k])
                .map(|e| format!("set-up job {k} {e}")),
        );
    }
    for ((job, route), (timing, got)) in w.mix.iter().zip(&w.samples) {
        let failure = match got {
            Ok(got) => verdict(*route, got, &expected[*job], &etags[*job]),
            Err(e) => Some(e.clone()),
        };
        run.gate.expect(failure.map(|e| format!("job {job} {e}")));
        run.ops_ms.push(timing.latency_ms());
    }
    let job_check = w
        .job
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|(record, reply)| {
            verdict(Route::Report, reply, &expected[JOBS], &etag(record)?).map_or(Ok(()), Err)
        });
    run.gate
        .expect(job_check.err().map(|e| format!("in-window job {e}")));

    // Per-layer figures.
    let v = &mut run.values;
    let timings: Vec<loadgen::Timing> = w.samples.iter().map(|(t, _)| *t).collect();
    let route_ms = |label: &str, q: f64| -> f64 {
        let lat: Vec<f64> = w
            .mix
            .iter()
            .zip(&timings)
            .filter(|((_, r), _)| r.label() == label)
            .map(|(_, t)| t.latency_ms())
            .collect();
        quantile(&lat, q).unwrap_or(0.0)
    };
    v.set("server.report_ms.p50", route_ms("report", 0.5));
    v.set("server.report_ms.p99", route_ms("report", 0.99));
    v.set("server.json_ms.p50", route_ms("json", 0.5));
    v.set("server.csv_ms.p50", route_ms("csv", 0.5));
    v.set("server.revalidate_ms.p50", route_ms("revalidate", 0.5));
    v.set("server.revalidate_ms.p99", route_ms("revalidate", 0.99));
    let (hit, miss) = (
        w.metric_delta("server.replay.cache.hit"),
        w.metric_delta("server.replay.cache.miss"),
    );
    v.set("server.replay_cache.hit", hit);
    v.set("server.replay_cache.miss", miss);
    v.set("server.replay_cache.hit_share", hit / (hit + miss).max(1.0));
    let bytes: usize = w
        .samples
        .iter()
        .filter_map(|(_, g)| g.as_ref().ok())
        .map(|g| g.bytes)
        .sum();
    v.set("server.response_bytes", bytes as f64);
    v.set("loadgen.sent", timings.len() as f64);
    let late: Vec<f64> = timings.iter().map(loadgen::Timing::late_ms).collect();
    v.set("loadgen.late_ms.p99", quantile(&late, 0.99).unwrap_or(0.0));
    v.set("loadgen.backlog_max", loadgen::backlog_max(&timings) as f64);
    if w.job.is_ok() {
        v.set("step.serve_job_s", w.job_wall.as_secs_f64());
    }
    // The service runs in this process, so its layers' own telemetry
    // over the window is readable directly.
    let (t0, t1) = (&w.tel_before, &w.tel_after);
    let span_ms = |name: &str| t1.span_since(t0, name).as_secs_f64() * 1e3;
    let checkpoint = span_ms("bundle.checkpoint");
    v.set(
        "crawler.crawl_ms",
        span_ms("crawl.run_resumable") - checkpoint,
    );
    v.set("bundle.write_ms", checkpoint);
    v.set(
        "bundle.bytes_written",
        t1.counter_since(t0, "bundle.bytes.written") as f64,
    );
    v.set("bundle.read_ms", span_ms("bundle.read_db"));
    let read = t1.counter_since(t0, "bundle.bytes.read");
    v.set("bundle.bytes_read", read as f64);
    if read > 0 {
        v.set(
            "bundle.read_mb_per_s",
            mb(read) / (span_ms("bundle.read_db") / 1e3),
        );
    }
    v.set("tree.build_ms", span_ms("experiment.build_trees"));
    v.set(
        "tree.cache.hit",
        t1.counter_since(t0, "tree.cache.hit") as f64,
    );
    v.set(
        "tree.cache.miss",
        t1.counter_since(t0, "tree.cache.miss") as f64,
    );
    v.set("analysis.analyze_ms", span_ms("analysis.node_similarity"));
    v.set("analysis.fold_ms", span_ms("analysis.partial.finish"));
    v.set("report.render_ms", span_ms("report.render"));
    v.set("serve.rate_per_s", RATE);
    v.set("serve.connections", CONNECTIONS as f64);
    v.set("trace.overhead_share", 0.0);

    // Spans: each request is a step made of its wait for a connection
    // and the server's answer; the spans come from the timestamps the
    // load generator takes in every run.
    if run.tracer.enabled() {
        for ((_, route), t) in w.mix.iter().zip(&timings) {
            let step = run.tracer.record("request", Some(run.root), t.due, t.end);
            run.tracer
                .record("loadgen.wait", Some(step), t.due, t.start);
            run.tracer.record(
                &format!("server.{}", route.label()),
                Some(step),
                t.start,
                t.end,
            );
        }
        run.tracer.record(
            "serve_job",
            Some(run.root),
            w.job_start,
            w.job_start + w.job_wall,
        );
        let spans = run.tracer.snapshot();
        let worst = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "request")
            .map(|(i, _)| crate::trace::breakdown(&spans, i).unattributed_share())
            .fold(0.0, f64::max);
        run.values.set("trace.unattributed_share", worst);
    }
    Ok(())
}

/// What the timed window produced.
struct Window {
    mix: Vec<(usize, Route)>,
    samples: Vec<(loadgen::Timing, Result<Got, String>)>,
    job: Result<(JobRecord, Got), String>,
    job_start: Instant,
    job_wall: Duration,
    metrics_before: String,
    metrics_after: String,
    tel_before: Telemetry,
    tel_after: Telemetry,
}

impl Window {
    fn metric_delta(&self, name: &str) -> f64 {
        metric(&self.metrics_after, name) - metric(&self.metrics_before, name)
    }
}

/// The open-loop window plus the in-window job.
fn window(run: &Run, addr: SocketAddr, jobs: &[JobRecord]) -> Result<Window, String> {
    let opts = run.opts;
    let count = ((RATE * opts.seconds).round() as usize).max(1);
    let mix = mix(opts.seed, count, RATE);
    let etags: Vec<String> = jobs.iter().map(etag).collect::<Result<_, _>>()?;
    let metrics_before = get(addr, "/metrics")?.text();
    let tel_before = Telemetry::now();

    let interval = Duration::from_secs_f64(1.0 / RATE);
    let origin = Instant::now() + Duration::from_millis(20);
    let exec = |i: usize| -> Result<Got, String> {
        let (job, route) = mix[i];
        let id = jobs[job].id;
        let reply = match route {
            Route::Report => get(addr, &format!("/jobs/{id}/report")),
            Route::Json => get(addr, &format!("/jobs/{id}/report.json")),
            Route::Csv(n) => get(addr, &format!("/jobs/{id}/csv/{}", CSV_NAMES[n])),
            Route::Revalidate => request(
                addr,
                "GET",
                &format!("/jobs/{id}/report"),
                &[("If-None-Match", etags[job].as_str())],
                b"",
            ),
        };
        reply.map(|r| Got::of(&r))
    };
    let (samples, (job, job_start, job_wall)) = std::thread::scope(|scope| {
        let job_thread = scope.spawn(|| {
            std::thread::sleep(origin.saturating_duration_since(Instant::now()));
            let start = Instant::now();
            let done = post_job(addr, &spec(opts.seed, JOBS)).and_then(|j| wait_done(addr, j.id));
            (done, start, start.elapsed())
        });
        let samples = loadgen::run(origin, interval, count, CONNECTIONS, exec);
        (
            samples,
            job_thread.join().expect("in-window job thread panicked"),
        )
    });
    let tel_after = Telemetry::now();
    let metrics_after = get(addr, "/metrics")?.text();
    // Fetch the in-window job's report once (after the window) so its
    // replay is checked too.
    let job = job.and_then(|record| {
        let reply = get(addr, &format!("/jobs/{}/report", record.id))?;
        Ok((record, Got::of(&reply)))
    });
    Ok(Window {
        mix,
        samples,
        job,
        job_start,
        job_wall,
        metrics_before,
        metrics_after,
        tel_before,
        tel_after,
    })
}
