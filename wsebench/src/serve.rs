//! The `serve-mix` workload: a [`JobServer`] with two workers and a live
//! [`MetricsHub`], fed in a closed loop by one client that keeps at most
//! two jobs outstanding. Most jobs name a recurring problem and hit the
//! compile cache; one in eight compiles a fresh one. Every fourth job is
//! preempted after its first progress update; the client encodes and
//! decodes its checkpoint, then resumes it. The hub is scraped once per
//! round of jobs. Every two rounds run on a freshly set-up server.

use std::collections::HashMap;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use tpfa_dataflow::DataflowFluxSimulator;
use wse_metrics::MetricsHub;
use wse_serve::{
    Checkpoint, CompiledProblem, JobId, JobServer, JobSpec, JobState, ProblemSpec, ProgressUpdate,
    ServerConfig,
};
use wse_stencil::{compile, StencilSpec};

use crate::check;
use crate::trace::{SpanId, Tracer};
use crate::{host, layer_metrics, median, metric, mix, ops_for, Outcome};

/// Jobs the client keeps outstanding.
const WINDOW: usize = 2;
/// The server's queue capacity; at least [`WINDOW`], so no submission of
/// the closed loop is ever rejected.
const QUEUE_CAPACITY: usize = 4;
/// Rounds of jobs run on one server. The timed phase sets up a fresh
/// server for every segment of this many rounds, so set-up is timed in
/// the same phases of the host as the jobs; `setup_s` is the median over
/// these set-ups, whose time is left out of the phase.
const ROUNDS_PER_SETUP: usize = 2;
/// Nominal seconds per round of [`ROUND`] jobs, from which the round
/// count is derived.
const NOMINAL_ROUND_S: f64 = 0.9;
/// Events per step chunk of a preempted job: fine enough that the job
/// still has many chunks to run when the preemption lands.
const PREEMPT_CHUNK_EVENTS: u64 = 2048;
/// How long the client sleeps when a poll of its jobs found nothing new.
const POLL: Duration = Duration::from_micros(100);

/// Recurring problem shapes `(nx, ny, nz)`; their permeability seeds come
/// from the workload seed, and set-up compiles each once.
const RECURRING: [(usize, usize, usize); 6] = [
    (16, 16, 4),
    (24, 24, 8),
    (32, 32, 6),
    (40, 24, 12),
    (48, 48, 4),
    (32, 48, 10),
];

/// Where a job's problem comes from.
#[derive(Clone, Copy)]
enum Source {
    /// An index into [`RECURRING`]: a compile-cache hit.
    Recurring(usize),
    /// A shape compiled with a fresh permeability seed: a cache miss.
    Fresh(usize, usize, usize),
}

/// One round of jobs: `(problem, applications)`. The cost mix is fixed;
/// the seed sets permeabilities and pressures. Jobs 3 and 7 of a round
/// (every fourth job) are preempted.
const ROUND: [(Source, usize); 8] = [
    (Source::Recurring(0), 2),
    (Source::Recurring(1), 3),
    (Source::Recurring(2), 4),
    (Source::Recurring(3), 2),
    (Source::Recurring(4), 3),
    (Source::Fresh(24, 40, 6), 2),
    (Source::Recurring(5), 2),
    (Source::Recurring(2), 3),
];

struct Planned {
    spec: JobSpec,
    preempt: bool,
}

/// A job the client has seen to `Done`.
struct Finished {
    /// The job's index in its run's plan; `op / ROUND.len()` is its round.
    op: u64,
    spec: JobSpec,
    preempt: bool,
    parked: bool,
    latency_s: f64,
    residual: Vec<f32>,
    fabric_time: u64,
    events: u64,
    hops: u64,
    cache_hit: bool,
    setup_s: f64,
}

/// A job between submit and `Done`.
struct Live {
    plan: Planned,
    id: JobId,
    /// The operation id shared by the job's spans.
    op: u64,
    submitted: Instant,
    span: SpanId,
    updates: Option<Receiver<ProgressUpdate>>,
    parking: Option<(Instant, SpanId)>,
    resuming: Option<(Instant, SpanId)>,
}

/// What one pass of the client over a list of jobs saw.
#[derive(Default)]
struct Drive {
    finished: Vec<Finished>,
    failed: u64,
    park_s: Vec<f64>,
    resume_s: Vec<f64>,
    encode_s: Vec<f64>,
    decode_s: Vec<f64>,
    ckpt_bytes: Vec<f64>,
    scrape_s: Vec<f64>,
    wrong: Vec<String>,
    /// The operation id of the next job's spans.
    next_op: u64,
}

fn problem_spec(seed: u64, job: u64, source: Source) -> ProblemSpec {
    let (nx, ny, nz, perm_seed) = match source {
        Source::Recurring(k) => {
            let (nx, ny, nz) = RECURRING[k];
            (nx, ny, nz, mix(seed, 100 + k as u64))
        }
        Source::Fresh(nx, ny, nz) => (nx, ny, nz, mix(seed, 1 << 32 | job)),
    };
    ProblemSpec {
        nx,
        ny,
        nz,
        perm_seed,
    }
}

fn job_spec(problem: ProblemSpec, applications: usize, pressure_seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(problem, applications);
    // Kept below 2^48 so `pressure_seed + application` cannot overflow.
    spec.pressure_seed = pressure_seed >> 16;
    spec
}

/// The timed phase's jobs: `rounds` rounds of [`ROUND`].
fn plan(seed: u64, rounds: usize) -> Vec<Planned> {
    (0..rounds * ROUND.len())
        .map(|j| {
            let (source, apps) = ROUND[j % ROUND.len()];
            let mut spec = job_spec(
                problem_spec(seed, j as u64, source),
                apps,
                mix(seed, 2 << 32 | j as u64),
            );
            let preempt = j % 4 == 3;
            if preempt {
                spec.checkpoint_every = Some(PREEMPT_CHUNK_EVENTS);
            }
            Planned { spec, preempt }
        })
        .collect()
}

/// One single-application job per recurring problem: fills the cache.
fn warmups(seed: u64) -> Vec<Planned> {
    (0..RECURRING.len())
        .map(|k| Planned {
            spec: job_spec(
                problem_spec(seed, 0, Source::Recurring(k)),
                1,
                mix(seed, 3 << 32 | k as u64),
            ),
            preempt: false,
        })
        .collect()
}

/// The closed-loop client: submits `jobs` in order with at most
/// [`WINDOW`] outstanding, polls them, preempts, parks and resumes the
/// marked ones, and scrapes the hub after every `scrape_every` finished
/// jobs (never when 0). Adds what it saw to `out`.
fn drive(
    server: &JobServer,
    hub: &MetricsHub,
    jobs: Vec<Planned>,
    scrape_every: usize,
    out: &mut Drive,
    tr: &mut Tracer,
) {
    let mut pending = jobs.into_iter();
    let mut live: Vec<Live> = Vec::with_capacity(WINDOW);
    loop {
        while live.len() < WINDOW {
            let Some(plan) = pending.next() else { break };
            let op = out.next_op;
            out.next_op += 1;
            let span = tr.begin("serve.job", op, None);
            let submitted = Instant::now();
            match server.submit(plan.spec.clone()) {
                Ok(id) => {
                    let updates = if plan.preempt {
                        server.subscribe(id)
                    } else {
                        None
                    };
                    live.push(Live {
                        plan,
                        id,
                        op,
                        submitted,
                        span,
                        updates,
                        parking: None,
                        resuming: None,
                    });
                }
                Err(e) => {
                    eprintln!("submission rejected: {e}");
                    out.failed += 1;
                }
            }
        }
        if live.is_empty() {
            return;
        }
        let mut moved = false;
        let mut k = 0;
        while k < live.len() {
            let job = &mut live[k];
            // Preempt after the first progress update that shows work done.
            let ready = job
                .updates
                .as_ref()
                .is_some_and(|rx| rx.try_iter().any(|u| u.events > 0));
            if ready {
                job.updates = None;
                let span = tr.begin("serve.park", job.op, Some(job.span));
                let t0 = Instant::now();
                if server.preempt(job.id) {
                    job.parking = Some((t0, span));
                } else {
                    tr.end(span);
                }
                moved = true;
            }
            let status = server.status(job.id).expect("a submitted job is known");
            match status.state {
                JobState::Checkpointed if job.resuming.is_none() => {
                    if let Some((t0, span)) = job.parking {
                        out.park_s.push(t0.elapsed().as_secs_f64());
                        tr.end(span);
                    }
                    match server.checkpoint_of(job.id) {
                        Some(ckpt) => round_trip(&ckpt, job.op, job.span, out, tr),
                        None => out
                            .wrong
                            .push(format!("{} parked without a checkpoint", job.id)),
                    }
                    let span = tr.begin("serve.resume", job.op, Some(job.span));
                    let t0 = Instant::now();
                    if !server.resume(job.id) {
                        // Left parked it would never finish: cancel it,
                        // and it ends as a failed job.
                        out.wrong.push(format!("{} refused resume", job.id));
                        server.cancel(job.id);
                    }
                    job.resuming = Some((t0, span));
                    moved = true;
                }
                JobState::Done => {
                    let latency_s = job.submitted.elapsed().as_secs_f64();
                    if let Some((t0, span)) = job.resuming {
                        out.resume_s.push(t0.elapsed().as_secs_f64());
                        tr.end(span);
                    }
                    tr.end(job.span);
                    let job = live.remove(k);
                    let residual = server.result(job.id).unwrap_or_default();
                    out.finished.push(Finished {
                        op: job.op,
                        parked: job.resuming.is_some(),
                        spec: job.plan.spec,
                        preempt: job.plan.preempt,
                        latency_s,
                        residual,
                        fabric_time: status.fabric_time,
                        events: status.events,
                        hops: status.stats.fabric_hops,
                        cache_hit: status.cache_hit == Some(true),
                        setup_s: status.setup_nanos.unwrap_or(0) as f64 * 1e-9,
                    });
                    if scrape_every > 0 && out.finished.len().is_multiple_of(scrape_every) {
                        scrape(hub, out, tr);
                    }
                    moved = true;
                    continue;
                }
                JobState::Failed(why) => {
                    eprintln!("{} failed: {why:?}", job.id);
                    tr.end(job.span);
                    live.remove(k);
                    out.failed += 1;
                    moved = true;
                    continue;
                }
                _ => {}
            }
            k += 1;
        }
        if !moved {
            std::thread::sleep(POLL);
        }
    }
}

/// Encodes and decodes a parked checkpoint; the decoded copy must equal
/// the original.
fn round_trip(ckpt: &Checkpoint, op: u64, parent: SpanId, out: &mut Drive, tr: &mut Tracer) {
    let span = tr.begin("serve.ckpt_encode", op, Some(parent));
    let t0 = Instant::now();
    let bytes = ckpt.encode();
    out.encode_s.push(t0.elapsed().as_secs_f64());
    tr.end(span);
    let span = tr.begin("serve.ckpt_decode", op, Some(parent));
    let t0 = Instant::now();
    let decoded = Checkpoint::decode(&bytes);
    out.decode_s.push(t0.elapsed().as_secs_f64());
    tr.end(span);
    out.ckpt_bytes.push(bytes.len() as f64);
    match decoded {
        Ok(d) if d == *ckpt => {}
        Ok(_) => out
            .wrong
            .push("decoded checkpoint differs from the original".into()),
        Err(e) => out.wrong.push(format!("checkpoint does not decode: {e}")),
    }
}

fn scrape(hub: &MetricsHub, out: &mut Drive, tr: &mut Tracer) {
    let span = tr.begin("metrics.scrape", out.scrape_s.len() as u64, None);
    let t0 = Instant::now();
    let text = hub.prometheus_text();
    out.scrape_s.push(t0.elapsed().as_secs_f64());
    tr.end(span);
    if !text.contains("serve_jobs_done_total") {
        out.wrong.push("scrape lacks serve_jobs_done_total".into());
    }
}

/// `serve_jobs_done_total` as the hub exposes it.
fn jobs_done_total(hub: &MetricsHub) -> Option<u64> {
    hub.prometheus_text()
        .lines()
        .find_map(|l| l.strip_prefix("serve_jobs_done_total "))
        .and_then(|v| v.trim().parse().ok())
}

/// Starts a server and fills its cache: the set-up that `setup_s` times.
fn setup(seed: u64, op: u64, tr: &mut Tracer) -> (JobServer, MetricsHub, Drive) {
    tr.span("setup", op, |tr| {
        let hub = MetricsHub::new_live();
        let server = tr.span("serve.start", op, |_| {
            JobServer::start(ServerConfig {
                workers: 2,
                queue_capacity: QUEUE_CAPACITY,
                metrics: hub.clone(),
            })
        });
        let mut wrong = Vec::new();
        if let Err(e) = tr.span("stencil.compile", op, |_| compile(&StencilSpec::tpfa())) {
            wrong.push(format!("TPFA stencil does not compile: {e}"));
        }
        let mut warm = Drive::default();
        tr.span("serve.warmup", op, |tr| {
            drive(&server, &hub, warmups(seed), 0, &mut warm, tr)
        });
        warm.wrong.extend(wrong);
        (server, hub, warm)
    })
}

/// One timed set-up; a warm-up that did not finish every job is wrong.
fn timed_setup(
    seed: u64,
    op: u64,
    tr: &mut Tracer,
    setup_s: &mut Vec<f64>,
    wrong: &mut Vec<String>,
) -> (JobServer, MetricsHub, u64) {
    let t0 = Instant::now();
    let (server, hub, warm) = setup(seed, op, tr);
    setup_s.push(t0.elapsed().as_secs_f64());
    if warm.failed > 0 || warm.finished.len() != RECURRING.len() {
        wrong.push(format!(
            "warm-up: {} of {} jobs done",
            warm.finished.len(),
            RECURRING.len()
        ));
    }
    wrong.extend(warm.wrong);
    (server, hub, warm.finished.len() as u64)
}

pub fn run(seed: u64, seconds: u64, tr: &mut Tracer) -> Outcome {
    let rounds = ops_for(seconds, NOMINAL_ROUND_S);
    let jobs = plan(seed, rounds);
    let attempted = jobs.len() as u64;
    let mut wrong = Vec::new();
    let mut setup_s = Vec::new();

    // ---- timed phase: segments of rounds, each on a fresh server ---------
    let mut d = Drive::default();
    let mut phase_s = 0.0;
    let mut jobs = jobs.into_iter();
    let probe_before = host::probe_s();
    for k in 0u64.. {
        let segment: Vec<Planned> = jobs.by_ref().take(ROUNDS_PER_SETUP * ROUND.len()).collect();
        if segment.is_empty() {
            break;
        }
        let (server, hub, warm_done) = timed_setup(seed, k, tr, &mut setup_s, &mut wrong);
        let seen_before = d.finished.len();
        let t0 = Instant::now();
        drive(&server, &hub, segment, ROUND.len(), &mut d, tr);
        phase_s += t0.elapsed().as_secs_f64();
        let expected = warm_done + (d.finished.len() - seen_before) as u64;
        let done_total = jobs_done_total(&hub);
        if done_total != Some(expected) {
            wrong.push(format!(
                "server {k}: hub reports {done_total:?} jobs done, the client saw {expected}"
            ));
        }
        JobServer::shutdown(server);
    }
    let probe_after = host::probe_s();
    println!("probe: before {probe_before:.4} s, after {probe_after:.4} s");
    wrong.extend(d.wrong.iter().cloned());

    // ---- checks, outside the timed phase ---------------------------------
    let problem_s = check_jobs(&d.finished, &mut wrong, tr);

    let cycles: Vec<f64> = d.finished.iter().map(|f| f.fabric_time as f64).collect();
    let lat_p50 = median(&round_latency_s(&d.finished));
    let end_to_end = vec![
        metric("setup_s", "s", median(&setup_s)),
        metric("latency_s_p50", "s", lat_p50),
        metric("ops_per_s", "1/s", d.finished.len() as f64 / phase_s),
        metric("sim_cycles", "cycles", median(&cycles)),
        metric("peak_rss_mb", "MiB", host::peak_rss_mb()),
    ];
    let per_layer = if tr.on() {
        let misses: Vec<f64> = d
            .finished
            .iter()
            .filter(|f| !f.cache_hit)
            .map(|f| f.setup_s)
            .collect();
        let hits = d.finished.iter().filter(|f| f.cache_hit).count();
        let events: Vec<f64> = d.finished.iter().map(|f| f.events as f64).collect();
        let hops: Vec<f64> = d.finished.iter().map(|f| f.hops as f64).collect();
        let mut layers = layer_metrics(tr, probe_before, probe_after, lat_p50);
        for m in &mut layers {
            m.value = match m.name {
                "fv.problem_s" => median(&problem_s),
                "sim.events" => median(&events),
                "sim.fabric_hops" => median(&hops),
                "serve.compile_s" => median(&misses),
                "serve.cache_hit_ratio" => hits as f64 / d.finished.len().max(1) as f64,
                "serve.park_s" => median(&d.park_s),
                "serve.resume_s" => median(&d.resume_s),
                "serve.ckpt_encode_s" => median(&d.encode_s),
                "serve.ckpt_decode_s" => median(&d.decode_s),
                "serve.ckpt_bytes" => median(&d.ckpt_bytes),
                "metrics.scrape_s" => median(&d.scrape_s),
                _ => m.value,
            };
        }
        layers
    } else {
        Vec::new()
    };
    Outcome {
        attempted,
        failed: attempted - d.finished.len() as u64,
        wrong,
        end_to_end,
        per_layer,
    }
}

/// The mean job latency of every round whose jobs all finished. Each
/// round holds the same mix of job sizes, so its mean is one steady
/// sample; single jobs range from 10 ms to 0.5 s, and the median of
/// that lumpy spread jumps between the size classes.
fn round_latency_s(finished: &[Finished]) -> Vec<f64> {
    let mut rounds: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for f in finished {
        rounds
            .entry(f.op / ROUND.len() as u64)
            .or_default()
            .push(f.latency_s);
    }
    rounds
        .values()
        .filter(|l| l.len() == ROUND.len())
        .map(|l| l.iter().sum::<f64>() / l.len() as f64)
        .collect()
}

/// Checks every finished job against the host reference, every preempted
/// job bit for bit against an uninterrupted simulator run of the same
/// spec, and that jobs of one shape report one fabric clock. Returns the
/// problem-generation times.
fn check_jobs(finished: &[Finished], wrong: &mut Vec<String>, tr: &mut Tracer) -> Vec<f64> {
    let mut problems: HashMap<ProblemSpec, CompiledProblem> = HashMap::new();
    let mut problem_s = Vec::new();
    for (op, f) in finished.iter().enumerate() {
        let ps = f.spec.problem;
        problems.entry(ps).or_insert_with(|| {
            let t0 = Instant::now();
            let p = tr.span("fv.problem", op as u64, |_| CompiledProblem::compile(ps));
            problem_s.push(t0.elapsed().as_secs_f64());
            p
        });
    }
    let mut worst = (0.0f64, 0.0f64);
    let mut clocks: HashMap<(ProblemSpec, usize), u64> = HashMap::new();
    for (j, f) in finished.iter().enumerate() {
        let problem = &problems[&f.spec.problem];
        let last = check::pressure(
            problem,
            f.spec.pressure_seed + f.spec.applications as u64 - 1,
        );
        match check::check(problem, &last, &f.residual) {
            Ok((rel, cons)) => worst = (worst.0.max(rel), worst.1.max(cons)),
            Err(why) => wrong.push(format!("job {j}: {why}")),
        }
        let shape = ProblemSpec {
            perm_seed: 0,
            ..f.spec.problem
        };
        let clock = *clocks
            .entry((shape, f.spec.applications))
            .or_insert(f.fabric_time);
        if clock != f.fabric_time {
            wrong.push(format!(
                "job {j}: fabric clock {} differs from {clock} of its shape",
                f.fabric_time
            ));
        }
    }
    println!(
        "checked {} job residuals: worst rel-max {:.2e}, worst |sum r|/sum|r| {:.2e}",
        finished.len(),
        worst.0,
        worst.1
    );

    // Every job marked for preemption must have parked and resumed.
    let marked = finished.iter().filter(|f| f.preempt).count();
    let preempted: Vec<(usize, &Finished)> = finished
        .iter()
        .enumerate()
        .filter(|(_, f)| f.parked)
        .collect();
    println!(
        "parked {} of {marked} jobs marked for preemption",
        preempted.len()
    );
    if preempted.len() != marked {
        wrong.push(format!(
            "{} jobs parked, {marked} were marked for preemption",
            preempted.len()
        ));
    }

    // Uninterrupted controls for the parked jobs, on two threads.
    let halves = preempted.split_at(preempted.len() / 2);
    let control_wrong: Vec<String> = std::thread::scope(|s| {
        let problems = &problems;
        let handles: Vec<_> = [halves.0, halves.1]
            .into_iter()
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .filter_map(|&(j, f)| {
                            control_differs(&problems[&f.spec.problem], f)
                                .map(|why| format!("job {j}: {why}"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a control thread panicked"))
            .collect()
    });
    println!(
        "checked {} preempted jobs bit for bit against uninterrupted runs",
        preempted.len()
    );
    wrong.extend(control_wrong);
    problem_s
}

/// Runs the job's spec uninterrupted on a fresh simulator; `Some(why)`
/// when its residual is not bit-identical to the served one.
fn control_differs(problem: &CompiledProblem, f: &Finished) -> Option<String> {
    let mut sim = match DataflowFluxSimulator::builder(&problem.mesh)
        .fluid(&problem.fluid)
        .transmissibilities(&problem.trans)
        .execution(f.spec.execution)
        .fast_forward(f.spec.fast_forward)
        .build()
    {
        Ok(sim) => sim,
        Err(e) => return Some(format!("control build failed: {e}")),
    };
    let mut residual = Vec::new();
    for i in 0..f.spec.applications {
        match sim.apply(&check::pressure(problem, f.spec.pressure_seed + i as u64)) {
            Ok(r) => residual = r,
            Err(e) => return Some(format!("control apply failed: {e}")),
        }
    }
    let same = residual.len() == f.residual.len()
        && residual
            .iter()
            .zip(&f.residual)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    (!same).then(|| "preempted residual differs from the uninterrupted run".to_string())
}
