//! **wsebench** — end-to-end and per-layer benchmark of the TPFA dataflow
//! simulator (`tpfa-dataflow`) and its job server (`wse-serve`).
//!
//! ```text
//! wsebench --workload <paper-mesh|tile-64|serve-mix> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run prints the host fingerprint, a readable line per metric, and
//! as its last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the run records spans around its calls into each layer
//! and reports the per-layer metrics instead, writing the spans to
//! `wsebench/out/`. See `README.md` for the workloads and the metrics.

mod check;
mod fabric;
mod host;
mod serve;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;

use trace::Tracer;

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;
/// Run length used when `--seconds` is absent: `run_seconds` of
/// `BENCHMARK.json`, the length behind the reference figures.
pub const DEFAULT_SECONDS: u64 = 24;

/// One named figure with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What a workload run hands back.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; empty when every output was correct.
    pub wrong: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// Every per-layer metric, in `BENCHMARK.json` order, with the values
/// every workload measures the same way filled in and the rest at 0 (a
/// layer the workload does not pass through).
pub fn layer_metrics(
    tr: &Tracer,
    probe_before: f64,
    probe_after: f64,
    lat_p50: f64,
) -> Vec<Metric> {
    vec![
        metric("fv.problem_s", "s", median(&tr.secs("fv.problem"))),
        metric(
            "stencil.compile_s",
            "s",
            median(&tr.secs("stencil.compile")),
        ),
        metric("core.build_s", "s", median(&tr.secs("core.build"))),
        metric("core.inject_s", "s", 0.0),
        metric("core.collect_s", "s", 0.0),
        metric("sim.run_s", "s", 0.0),
        metric("sim.events", "events/op", 0.0),
        metric("sim.ns_per_event", "ns", 0.0),
        metric("sim.region_ff_jumps", "jumps/op", 0.0),
        metric("sim.eq_classes", "classes", 0.0),
        metric("sim.fabric_hops", "hops/op", 0.0),
        metric("sim.queue_wait_cycles", "cycles/op", 0.0),
        metric("sim.shard_hop_imbalance", "max/mean", 0.0),
        metric("sim.cpu_per_wall", "ratio", 0.0),
        metric("serve.compile_s", "s", 0.0),
        metric("serve.cache_hit_ratio", "hits/attempts", 0.0),
        metric("serve.park_s", "s", 0.0),
        metric("serve.resume_s", "s", 0.0),
        metric("serve.ckpt_encode_s", "s", 0.0),
        metric("serve.ckpt_decode_s", "s", 0.0),
        metric("serve.ckpt_bytes", "bytes", 0.0),
        metric("metrics.scrape_s", "s", 0.0),
        metric("host.probe_s", "s", (probe_before + probe_after) / 2.0),
        metric("trace.latency_s_p50", "s", lat_p50),
        metric("trace.apply_gap_share", "ratio", 0.0),
    ]
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    (s[(n - 1) / 2] + s[n / 2]) / 2.0
}

/// SplitMix64: derives independent input seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Operations a run performs: `seconds` divided by the operation's
/// nominal cost, at least one. The count depends only on the arguments,
/// so every run with the same `--seconds` does the same work whatever the
/// host's speed.
pub fn ops_for(seconds: u64, nominal_s: f64) -> usize {
    ((seconds as f64 / nominal_s).round() as usize).max(1)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn json(outcome: &Outcome, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.wrong.is_empty(),
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = parse_args().unwrap_or_else(|why| {
        eprintln!("error: {why}");
        std::process::exit(2);
    });
    println!("host: {}", host::fingerprint());
    println!(
        "workload: {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut tracer = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "paper-mesh" => fabric::run(&fabric::PAPER_MESH, args.seed, args.seconds, &mut tracer),
        "tile-64" => fabric::run(&fabric::TILE_64, args.seed, args.seconds, &mut tracer),
        "serve-mix" => serve::run(args.seed, args.seconds, &mut tracer),
        other => {
            eprintln!("error: unknown workload {other:?} (paper-mesh, tile-64, serve-mix)");
            std::process::exit(2);
        }
    };
    if tracer.on() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
        }
    }
    for why in &outcome.wrong {
        eprintln!("WRONG: {why}");
    }
    let shown = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for m in shown {
        println!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "ops: attempted {} failed {} correct {}",
        outcome.attempted,
        outcome.failed,
        outcome.wrong.is_empty()
    );
    println!("{}", json(&outcome, shown));
}
