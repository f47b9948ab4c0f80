//! The fabric workloads, `paper-mesh` and `tile-64`: set a TPFA problem up
//! in timed batches, apply one simulator to a fixed number of fresh
//! pressure vectors, and check every residual against the host reference.

use std::time::Instant;

use tpfa_dataflow::DataflowFluxSimulator;
use wse_serve::{CompiledProblem, ProblemSpec};
use wse_sim::fabric::Execution;
use wse_stencil::{compile, StencilSpec};

use crate::check;
use crate::trace::Tracer;
use crate::{host, layer_metrics, median, metric, mix, ops_for, Outcome};

/// A fabric workload's fixed shape.
pub struct FabricWorkload {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub execution: Execution,
    /// Batches of set-ups before the timed phase (the last batch's
    /// simulator is the one applied) and after it (with that simulator
    /// dropped, so two paper-scale fabrics never coexist).
    pub batches_before: usize,
    pub batches_after: usize,
    /// Applies between two set-up batches made inside the timed phase, 0
    /// for none. Batches inside the phase sample the same phases of the
    /// host as the applies; their time is left out of the phase.
    pub applies_per_batch: usize,
    pub setups_per_batch: usize,
    /// Nominal seconds per apply, from which the apply count is derived.
    pub nominal_apply_s: f64,
}

/// The paper's 746 × 989 PE footprint with a 2-cell column, on the
/// sharded engine.
pub const PAPER_MESH: FabricWorkload = FabricWorkload {
    nx: 746,
    ny: 989,
    nz: 2,
    execution: Execution::Sharded {
        shards: 4,
        threads: 2,
    },
    batches_before: 2,
    batches_after: 1,
    applies_per_batch: 0,
    setups_per_batch: 1,
    nominal_apply_s: 22.0,
};

/// The 64 × 64 × 6 reference fabric on the sequential engine.
pub const TILE_64: FabricWorkload = FabricWorkload {
    nx: 64,
    ny: 64,
    nz: 6,
    execution: Execution::Sequential,
    batches_before: 1,
    batches_after: 0,
    applies_per_batch: 4,
    setups_per_batch: 8,
    nominal_apply_s: 0.33,
};

/// Largest share of an apply's latency that the inject, run and collect
/// spans may leave unexplained.
const GAP_TOLERANCE: f64 = 0.01;

/// Shards over which `sim.shard_hop_imbalance` is taken.
const IMBALANCE_SHARDS: usize = 4;

/// Problem generation, a stencil compile and the simulator build, each in
/// its own span under `setup`.
fn setup(
    w: &FabricWorkload,
    perm_seed: u64,
    op: u64,
    tr: &mut Tracer,
) -> Result<(CompiledProblem, DataflowFluxSimulator), String> {
    tr.span("setup", op, |tr| {
        let problem = tr.span("fv.problem", op, |_| {
            CompiledProblem::compile(ProblemSpec {
                nx: w.nx,
                ny: w.ny,
                nz: w.nz,
                perm_seed,
            })
        });
        tr.span("stencil.compile", op, |_| compile(&StencilSpec::tpfa()))
            .map_err(|e| format!("TPFA stencil does not compile: {e}"))?;
        let sim = tr
            .span("core.build", op, |_| {
                DataflowFluxSimulator::builder(&problem.mesh)
                    .fluid(&problem.fluid)
                    .transmissibilities(&problem.trans)
                    .execution(w.execution)
                    .build()
            })
            .map_err(|e| format!("simulator build failed: {e}"))?;
        Ok((problem, sim))
    })
}

/// Per-apply counts read between applies in the traced run.
#[derive(Default, Clone, Copy)]
struct Counts {
    events: u64,
    hops: u64,
    queue_wait: u64,
    ff_jumps: u64,
}

fn counts(sim: &DataflowFluxSimulator) -> Counts {
    Counts {
        events: 0,
        hops: sim.stats().fabric_hops,
        queue_wait: sim.queue_wait_cycles(),
        ff_jumps: sim.region_ff_jumps(),
    }
}

/// One application in spans: `core.apply` over `core.inject` (upload and
/// launch), `sim.run` (the event loop to quiescence) and `core.collect`.
fn apply(
    sim: &mut DataflowFluxSimulator,
    pressure: &[f32],
    op: u64,
    tr: &mut Tracer,
    cpu_s: &mut f64,
) -> Result<Vec<f32>, String> {
    tr.span("core.apply", op, |tr| {
        tr.span("core.inject", op, |_| sim.begin_apply(pressure));
        let cpu0 = if tr.on() { host::cpu_seconds() } else { 0.0 };
        tr.span("sim.run", op, |_| loop {
            match sim.step_events(u64::MAX) {
                Ok(step) if step.complete => return Ok(()),
                Ok(_) => {}
                Err(e) => return Err(format!("fabric error: {e}")),
            }
        })?;
        if tr.on() {
            *cpu_s += host::cpu_seconds() - cpu0;
        }
        tr.span("core.collect", op, |_| sim.finish_apply())
            .map_err(|e| format!("fabric error at collect: {e}"))
    })
}

/// One batch of set-ups: the mean seconds per set-up and the last
/// set-up's problem and simulator.
fn setup_batch(
    w: &FabricWorkload,
    perm_seed: u64,
    first_op: u64,
    tr: &mut Tracer,
) -> Result<(f64, (CompiledProblem, DataflowFluxSimulator)), String> {
    let mut total_s = 0.0;
    let mut last = None;
    for k in 0..w.setups_per_batch {
        drop(last.take());
        let t0 = Instant::now();
        let pair = setup(w, perm_seed, first_op + k as u64, tr)?;
        total_s += t0.elapsed().as_secs_f64();
        last = Some(pair);
    }
    let last = last.expect("a batch holds at least one set-up");
    Ok((total_s / w.setups_per_batch as f64, last))
}

/// A run's set-up batches: the mean set-up time of each, and the
/// operation id of the next set-up's spans.
struct Setups<'a> {
    w: &'a FabricWorkload,
    perm_seed: u64,
    op: u64,
    secs: Vec<f64>,
}

impl Setups<'_> {
    /// Runs one batch and hands back its last simulator, or records why
    /// it failed.
    fn batch(
        &mut self,
        tr: &mut Tracer,
        wrong: &mut Vec<String>,
    ) -> Option<(CompiledProblem, DataflowFluxSimulator)> {
        let result = setup_batch(self.w, self.perm_seed, self.op, tr);
        self.op += self.w.setups_per_batch as u64;
        match result {
            Ok((s, pair)) => {
                self.secs.push(s);
                Some(pair)
            }
            Err(why) => {
                wrong.push(why);
                None
            }
        }
    }
}

/// The most frequent value of `v` (the smallest among ties).
fn mode(v: &[u64]) -> u64 {
    let mut counts = std::collections::BTreeMap::new();
    for &x in v {
        *counts.entry(x).or_insert(0usize) += 1;
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map_or(0, |(x, _)| x)
}

pub fn run(w: &FabricWorkload, seed: u64, seconds: u64, tr: &mut Tracer) -> Outcome {
    let applies = ops_for(seconds, w.nominal_apply_s);
    let mut wrong = Vec::new();
    let mut setups = Setups {
        w,
        perm_seed: mix(seed, 1),
        op: 0,
        secs: Vec::new(),
    };

    // ---- set-up batches before the timed phase; the last one is applied --
    let mut built = None;
    for _ in 0..w.batches_before {
        drop(built.take());
        built = setups.batch(tr, &mut wrong);
        if built.is_none() {
            break;
        }
    }
    let Some((problem, mut sim)) = built else {
        return Outcome {
            attempted: applies as u64,
            failed: applies as u64,
            wrong,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        };
    };
    let pressures: Vec<Vec<f32>> = (0..applies)
        .map(|i| check::pressure(&problem, mix(seed, 1000 + i as u64)))
        .collect();

    // ---- timed phase -----------------------------------------------------
    let mut latency_s = Vec::with_capacity(applies);
    let mut residuals = Vec::with_capacity(applies);
    let mut cycles = Vec::with_capacity(applies);
    let mut per_op: Vec<Counts> = Vec::new();
    let mut run_cpu_s = 0.0;
    let mut failed = 0u64;
    let mut clock = 0u64;
    let mut before = if tr.on() {
        counts(&sim)
    } else {
        Counts::default()
    };
    let mut between_s = 0.0;
    let probe_before = host::probe_s();
    let phase = Instant::now();
    for (i, p) in pressures.iter().enumerate() {
        if w.applies_per_batch > 0 && i > 0 && i % w.applies_per_batch == 0 {
            let t0 = Instant::now();
            drop(setups.batch(tr, &mut wrong));
            between_s += t0.elapsed().as_secs_f64();
        }
        let t0 = Instant::now();
        let result = apply(&mut sim, p, i as u64, tr, &mut run_cpu_s);
        let lat = t0.elapsed().as_secs_f64();
        match result {
            Ok(r) => {
                latency_s.push(lat);
                residuals.push(r);
                let report = sim
                    .last_run()
                    .expect("a finished apply leaves a run report");
                cycles.push(report.final_time - clock);
                clock = report.final_time;
                if tr.on() {
                    let after = counts(&sim);
                    per_op.push(Counts {
                        events: report.events,
                        hops: after.hops - before.hops,
                        queue_wait: after.queue_wait - before.queue_wait,
                        ff_jumps: after.ff_jumps - before.ff_jumps,
                    });
                    before = after;
                }
            }
            Err(why) => {
                // The fabric is in a failed state: the remaining applies
                // cannot run and count as failed with this one.
                eprintln!("apply {i} failed: {why}");
                failed = (applies - i) as u64;
                break;
            }
        }
    }
    let phase_s = phase.elapsed().as_secs_f64() - between_s;
    let probe_after = host::probe_s();
    println!("probe: before {probe_before:.4} s, after {probe_after:.4} s");
    let eq_classes = sim.eq_classes();
    let shard_hops: Vec<f64> = sim
        .shard_stats(IMBALANCE_SHARDS)
        .iter()
        .map(|s| s.fabric_hops as f64)
        .collect();
    drop(sim);

    // ---- set-up batches after the timed phase ----------------------------
    for _ in 0..w.batches_after {
        if setups.batch(tr, &mut wrong).is_none() {
            break;
        }
    }

    // ---- checks, outside the timed phase ---------------------------------
    let mut worst = (0.0f64, 0.0f64);
    for (i, r) in residuals.iter().enumerate() {
        match check::check(&problem, &pressures[i], r) {
            Ok((rel, cons)) => worst = (worst.0.max(rel), worst.1.max(cons)),
            Err(why) => wrong.push(format!("apply {i}: {why}")),
        }
    }
    println!(
        "checked {} residuals: worst rel-max {:.2e}, worst |sum r|/sum|r| {:.2e}",
        residuals.len(),
        worst.0,
        worst.1
    );
    // Every apply does the same work, so the fabric clock must advance by
    // the same number of cycles each time. An apply whose clock change
    // differs from the most common one counts as failed; its residual is
    // checked and its time counted like any other's.
    let steady = mode(&cycles);
    let odd: Vec<(usize, u64)> = cycles
        .iter()
        .enumerate()
        .filter(|(_, &c)| c != steady)
        .map(|(i, &c)| (i, c))
        .collect();
    if !odd.is_empty() {
        println!("clock: applies advancing the fabric clock by other than {steady} cycles, as (apply, cycles): {odd:?}");
    }
    failed += odd.len() as u64;

    let lat_p50 = median(&latency_s);
    let end_to_end = vec![
        metric("setup_s", "s", median(&setups.secs)),
        metric("latency_s_p50", "s", lat_p50),
        metric("ops_per_s", "1/s", latency_s.len() as f64 / phase_s),
        metric("sim_cycles", "cycles", steady as f64),
        metric("peak_rss_mb", "MiB", host::peak_rss_mb()),
    ];

    let per_layer = if tr.on() {
        let run_s = tr.secs("sim.run");
        let events: Vec<f64> = per_op.iter().map(|c| c.events as f64).collect();
        let total_events: f64 = events.iter().sum();
        let gap: Vec<f64> = tr
            .self_secs("core.apply")
            .iter()
            .zip(tr.secs("core.apply"))
            .map(|(s, d)| s / d)
            .collect();
        let mean_hops = shard_hops.iter().sum::<f64>() / shard_hops.len().max(1) as f64;
        let max_hops = shard_hops.iter().copied().fold(0.0, f64::max);
        let med =
            |f: fn(&Counts) -> u64| median(&per_op.iter().map(|c| f(c) as f64).collect::<Vec<_>>());
        let worst_gap = gap.iter().copied().fold(0.0, f64::max);
        println!(
            "attribution: inject, run and collect spans leave at most {:.4}% of an apply unexplained (tolerance {}%)",
            worst_gap * 100.0,
            GAP_TOLERANCE * 100.0
        );
        if worst_gap > GAP_TOLERANCE {
            wrong.push(format!(
                "inject, run and collect spans leave {:.4}% of an apply unexplained",
                worst_gap * 100.0
            ));
        }
        let mut layers = layer_metrics(tr, probe_before, probe_after, lat_p50);
        for m in &mut layers {
            m.value = match m.name {
                "core.inject_s" => median(&tr.secs("core.inject")),
                "core.collect_s" => median(&tr.secs("core.collect")),
                "sim.run_s" => median(&run_s),
                "sim.events" => median(&events),
                "sim.ns_per_event" => run_s.iter().sum::<f64>() / total_events * 1e9,
                "sim.region_ff_jumps" => med(|c| c.ff_jumps),
                "sim.eq_classes" => eq_classes as f64,
                "sim.fabric_hops" => med(|c| c.hops),
                "sim.queue_wait_cycles" => med(|c| c.queue_wait),
                "sim.shard_hop_imbalance" => max_hops / mean_hops,
                "sim.cpu_per_wall" => run_cpu_s / run_s.iter().sum::<f64>(),
                "trace.apply_gap_share" => median(&gap),
                _ => m.value,
            };
        }
        layers
    } else {
        Vec::new()
    };
    Outcome {
        attempted: applies as u64,
        failed,
        wrong,
        end_to_end,
        per_layer,
    }
}
