//! The repository benchmark. One workload per process:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign_paper64|stall16|noc_synth --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --record
//! ```
//!
//! With `--trace 0` it repeats the workload's timed phase for about `S`
//! seconds and prints the end-to-end metrics (medians over the passes). With
//! `--trace 1` it runs one untraced and one traced pass and prints the
//! per-layer metrics; spans go to `perfbench/out/trace-<workload>.json`.
//! The last line of standard output is one JSON result object. Every
//! simulated result is checked against `fingerprints.json` when the seed
//! has recorded fingerprints, and otherwise against every other run of the
//! same operation in the process. `--record` regenerates that file at the
//! default seed (the `stall16` entries through `CmpSystem::run_naive`).
//! See `perfbench/README.md` for the workloads and metrics.

mod noc;
mod report;
mod scenarios;
mod trace;

use loco::campaign::{stall_stress_system, CampaignPlan, Executor, FigureSpec, Scenario};
use loco::json::Value;
use loco::{ExperimentParams, NetworkStats, RouterKind, SimResults, StressKind};
use loco_bench::{figure_spec, Scale, FIGURE_NUMBERS};
use report::{median, peak_rss_mb, Metrics};
use std::collections::HashMap;
use std::time::Instant;
use trace::Tracer;

/// The seed whose fingerprints are recorded; `ExperimentParams::paper_64`'s.
const DEFAULT_SEED: u64 = 42;
/// Executor workers of the campaign workload.
const CAMPAIGN_WORKERS: usize = 2;
/// Trace length of the `stall16` scenarios (memory ops per core).
const STALL_MEM_OPS: u64 = 16_000;
/// Trace length of the stall probe that fills the system layers on a traced
/// `noc_synth` run (the campaign's own stall-scenario length).
const STALL_PROBE_MEM_OPS: u64 = 2_000;
/// Set-up is repeated this many times per run; the median is reported.
const SETUP_REPEATS: usize = 3;

const RECORDED: &str = include_str!("../fingerprints.json");

const WORKLOADS: [&str; 3] = ["campaign_paper64", "stall16", "noc_synth"];
const NOC_SWEEP: [RouterKind; 3] = [
    RouterKind::Smart,
    RouterKind::Conventional,
    RouterKind::HighRadix,
];

/// 64-bit FNV-1a of a string, as hex.
pub fn fnv_hex(s: &str) -> String {
    let h = s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |a, b| {
        (a ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{h:#018x}")
}

/// The fingerprint of one simulation: its full `SimResults` rendering.
pub fn fingerprint(r: &SimResults) -> String {
    fnv_hex(&format!("{r:?}"))
}

/// Checks every operation's result and counts attempts and failures.
///
/// An operation fails if it did not complete (or drain), if its seed has
/// recorded fingerprints and its fingerprint differs from (or is missing
/// in) the record, or if an earlier run of the same operation in this
/// process produced a different fingerprint.
pub struct Oracle {
    workload: &'static str,
    recorded: Option<HashMap<String, String>>,
    seen: HashMap<String, String>,
    attempted: u64,
    failed: u64,
}

impl Oracle {
    fn new(workload: &'static str, seed: u64) -> Self {
        let doc = loco::json::parse(RECORDED).expect("fingerprints.json is valid JSON");
        let recorded = (doc.get("seed").and_then(Value::as_f64) == Some(seed as f64)).then(|| {
            match doc.get(workload) {
                Some(Value::Object(fields)) => fields
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                    .collect(),
                _ => HashMap::new(),
            }
        });
        Oracle {
            workload,
            recorded,
            seen: HashMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Adds another oracle's counts (a probe's) to this one.
    fn absorb(&mut self, other: &Oracle) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn check(&mut self, label: &str, fp: &str, completed: bool) {
        self.attempted += 1;
        let mut why = Vec::new();
        if !completed {
            why.push("did not complete".to_string());
        }
        if let Some(rec) = &self.recorded {
            match rec.get(label) {
                Some(r) if r == fp => {}
                Some(r) => why.push(format!("fingerprint {fp} != recorded {r}")),
                None => why.push("no recorded fingerprint".to_string()),
            }
        }
        match self.seen.get(label) {
            Some(prev) if prev != fp => why.push(format!("fingerprint {fp} != earlier run {prev}")),
            Some(_) => {}
            None => {
                self.seen.insert(label.to_string(), fp.to_string());
            }
        }
        if !why.is_empty() {
            self.failed += 1;
            eprintln!(
                "FAILED {} operation {label}: {}",
                self.workload,
                why.join("; ")
            );
        }
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn bad(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 | --record",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

enum Mode {
    Run(Args),
    Record,
}

fn parse_args() -> Mode {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            return Mode::Record;
        }
        let value = it
            .next()
            .unwrap_or_else(|| bad(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .unwrap_or_else(|| bad(&format!("unknown workload '{value}'"))),
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| bad("--seed takes an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .unwrap_or_else(|| bad("--seconds takes a positive number")),
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad("--trace takes 0 or 1"),
                });
            }
            _ => bad(&format!("unknown argument '{flag}'")),
        }
    }
    Mode::Run(Args {
        workload: workload.unwrap_or_else(|| bad("--workload is required")),
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Repeats `pass` (which returns its own duration in seconds) for about
/// `seconds`: at least once, and never starting a pass that would end past
/// the budget.
fn repeat(seconds: f64, mut pass: impl FnMut() -> f64) {
    let start = Instant::now();
    loop {
        let d = pass();
        if start.elapsed().as_secs_f64() + d > seconds {
            break;
        }
    }
}

// ---------------------------------------------------------------- campaign

fn campaign_params(seed: u64) -> ExperimentParams {
    ExperimentParams {
        seed,
        ..ExperimentParams::paper_64()
    }
}

/// `reproduce --params paper64 --figures all`: every figure spec and the
/// deduplicated plan.
fn campaign_plan(params: &ExperimentParams) -> (Vec<FigureSpec>, CampaignPlan) {
    let specs: Vec<FigureSpec> = FIGURE_NUMBERS
        .map(|n| figure_spec(Scale::Cores64, n, None).expect("known figure number"))
        .collect();
    let mut plan = CampaignPlan::new();
    for s in &specs {
        plan.add_figure(s, params);
    }
    (specs, plan)
}

/// Trace generation plus system construction for every scenario, one
/// thread; the median of [`SETUP_REPEATS`] rounds, in seconds.
fn scenario_setup_s(params: &ExperimentParams, scenarios: &[Scenario]) -> f64 {
    let rounds: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let start = Instant::now();
            for &s in scenarios {
                std::hint::black_box(scenarios::generate(params, s).build());
            }
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&rounds)
}

/// One untraced campaign pass: execute on [`CAMPAIGN_WORKERS`] threads and
/// assemble every figure. Returns the wall seconds and the results in plan
/// order.
fn campaign_pass(
    params: &ExperimentParams,
    specs: &[FigureSpec],
    plan: &CampaignPlan,
    oracle: &mut Oracle,
) -> (f64, Vec<SimResults>) {
    let start = Instant::now();
    let results = Executor::new(CAMPAIGN_WORKERS).execute(params, plan);
    let figures: usize = specs
        .iter()
        .map(|s| s.assemble(params, &results).len())
        .sum();
    std::hint::black_box(figures);
    let wall = start.elapsed().as_secs_f64();
    let ordered: Vec<SimResults> = plan
        .scenarios()
        .iter()
        .map(|s| results.expect(s).clone())
        .collect();
    for (s, r) in plan.scenarios().iter().zip(&ordered) {
        oracle.check(&s.label(), &fingerprint(r), r.completed);
    }
    (wall, ordered)
}

// ----------------------------------------------------------------- stall16

fn stall_params(seed: u64, mem_ops: u64) -> ExperimentParams {
    ExperimentParams {
        seed,
        mem_ops_per_core: mem_ops,
        ..ExperimentParams::paper_64()
    }
}

fn stall_scenarios() -> Vec<Scenario> {
    StressKind::ALL
        .iter()
        .flat_map(|&kind| {
            NOC_SWEEP
                .iter()
                .map(move |&router| Scenario::StallStress { kind, router })
        })
        .collect()
}

/// One untraced stall16 pass: build the six systems (set-up), then run them
/// serially (the timed phase). Returns (set-up seconds, run seconds, results).
fn stall_pass(params: &ExperimentParams, oracle: &mut Oracle) -> (f64, f64, Vec<SimResults>) {
    let setup = Instant::now();
    let mut systems: Vec<(Scenario, loco::CmpSystem)> = stall_scenarios()
        .into_iter()
        .map(|s| {
            let Scenario::StallStress { kind, router } = s else {
                unreachable!("stall scenarios only")
            };
            (s, stall_stress_system(params, kind, router))
        })
        .collect();
    let setup_s = setup.elapsed().as_secs_f64();
    let start = Instant::now();
    let results: Vec<SimResults> = systems
        .iter_mut()
        .map(|(_, sys)| sys.run(params.max_cycles))
        .collect();
    let wall = start.elapsed().as_secs_f64();
    for ((s, _), r) in systems.iter().zip(&results) {
        oracle.check(&s.label(), &fingerprint(r), r.completed);
    }
    (setup_s, wall, results)
}

// ------------------------------------------------------------- end to end

fn end_to_end(args: &Args, oracle: &mut Oracle) -> Metrics {
    let (mut walls, mut cycles) = (Vec::new(), Vec::<u64>::new());
    let setup_s = match args.workload {
        "campaign_paper64" => {
            let params = campaign_params(args.seed);
            let (specs, plan) = campaign_plan(&params);
            let setup = scenario_setup_s(&params, plan.scenarios());
            repeat(args.seconds, || {
                let (wall, results) = campaign_pass(&params, &specs, &plan, oracle);
                walls.push(wall);
                cycles.push(results.iter().map(|r| r.runtime_cycles).sum());
                wall
            });
            setup
        }
        "stall16" => {
            let params = stall_params(args.seed, STALL_MEM_OPS);
            let mut setups = Vec::new();
            repeat(args.seconds, || {
                let (setup, wall, results) = stall_pass(&params, oracle);
                setups.push(setup);
                walls.push(wall);
                cycles.push(results.iter().map(|r| r.runtime_cycles).sum());
                setup + wall
            });
            median(&setups)
        }
        "noc_synth" => {
            let mut setups = Vec::new();
            let mut traffic = Vec::new();
            for _ in 0..SETUP_REPEATS {
                let start = Instant::now();
                traffic = noc::generate_all(args.seed);
                setups.push(start.elapsed().as_secs_f64());
            }
            repeat(args.seconds, || {
                let (wall, c, _) = noc::untraced_pass(&traffic, oracle);
                walls.push(wall);
                cycles.push(c);
                wall
            });
            median(&setups)
        }
        _ => unreachable!("workload names are validated"),
    };
    eprintln!("{} timed passes: {walls:.3?} s", walls.len());
    let rates: Vec<f64> = walls
        .iter()
        .zip(&cycles)
        .map(|(w, &c)| c as f64 / w / 1e3)
        .collect();
    let mut m = Metrics::default();
    m.push("wall_s", median(&walls), "s");
    m.push("setup_s", setup_s, "s");
    m.push("sim_kcycles_per_s", median(&rates), "kcycles/s");
    m.push("peak_rss_mb", peak_rss_mb(), "MB");
    m
}

// ---------------------------------------------------------------- per layer

/// Alternates `reps` untraced and traced stall passes at `mem_ops`. Pushes
/// the campaign/workloads/sim/cache layer metrics of the last traced pass
/// and returns its tracer, the overhead (fastest traced run time / fastest
/// untraced run time - 1) and the results' NoC stats.
fn stall_layers(
    seed: u64,
    mem_ops: u64,
    reps: usize,
    oracle: &mut Oracle,
    m: &mut Metrics,
) -> (Tracer, f64, Vec<NetworkStats>) {
    let params = stall_params(seed, mem_ops);
    let (mut untraced, mut traced) = (f64::MAX, f64::MAX);
    let mut last = None;
    for _ in 0..reps {
        untraced = untraced.min(stall_pass(&params, oracle).1);
        let mut tracer = Tracer::new(Instant::now());
        let (records, wall) = scenarios::traced_pass(
            &params,
            &stall_scenarios(),
            &[FigureSpec::Fig19Stall],
            1,
            &mut tracer,
            oracle,
        );
        traced = traced.min(tracer.durations_secs("run").iter().sum());
        last = Some((tracer, records, wall));
    }
    let (tracer, records, wall) = last.expect("at least one repetition");
    scenarios::layer_metrics(&tracer, &records, wall, 1, m);
    let stats = records.into_iter().map(|r| r.results.network).collect();
    (tracer, traced / untraced - 1.0, stats)
}

/// Alternates `reps` untraced and traced NoC passes. Pushes the
/// `noc.<fabric>.*` metrics of the last traced pass and returns its tracer,
/// the overhead (fastest traced / fastest untraced wall - 1) and the runs'
/// NoC stats.
fn noc_layers(
    seed: u64,
    reps: usize,
    oracle: &mut Oracle,
    m: &mut Metrics,
) -> (Tracer, f64, Vec<NetworkStats>) {
    let traffic = noc::generate_all(seed);
    let (mut untraced, mut traced) = (f64::MAX, f64::MAX);
    let mut last = None;
    for _ in 0..reps {
        untraced = untraced.min(noc::untraced_pass(&traffic, oracle).0);
        let mut tracer = Tracer::new(Instant::now());
        let mut metrics = Metrics::default();
        let (wall, stats) = noc::traced_pass(&traffic, &mut tracer, oracle, &mut metrics);
        traced = traced.min(wall);
        last = Some((tracer, metrics, stats));
    }
    let (tracer, metrics, stats) = last.expect("at least one repetition");
    m.extend(metrics);
    (tracer, traced / untraced - 1.0, stats)
}

/// Untraced/traced pass pairs per traced run on the short workloads (the
/// overhead compares the fastest pass of each kind).
const TRACE_REPS: usize = 2;

/// The traced run. Layers the workload does not use are filled by a probe
/// of the workload that does (see README), so every layer metric is a
/// measured value on every workload; `trace_overhead_frac` and the NoC
/// totals always describe the workload itself.
fn per_layer(args: &Args, oracle: &mut Oracle) -> Metrics {
    let mut sys_m = Metrics::default();
    let mut noc_m = Metrics::default();
    let (own, probe) = match args.workload {
        "campaign_paper64" => {
            let params = campaign_params(args.seed);
            let (specs, plan) = campaign_plan(&params);
            let (untraced, results) = campaign_pass(&params, &specs, &plan, oracle);
            let mut tracer = Tracer::new(Instant::now());
            let (records, traced) = scenarios::traced_pass(
                &params,
                plan.scenarios(),
                &specs,
                CAMPAIGN_WORKERS,
                &mut tracer,
                oracle,
            );
            scenarios::layer_metrics(&tracer, &records, traced, CAMPAIGN_WORKERS, &mut sys_m);
            let stats = results.into_iter().map(|r| r.network).collect();
            let mut probe_oracle = Oracle::new("noc_synth", args.seed);
            let probe = noc_layers(args.seed, TRACE_REPS, &mut probe_oracle, &mut noc_m);
            oracle.absorb(&probe_oracle);
            ((tracer, traced / untraced - 1.0, stats), probe.0)
        }
        "stall16" => {
            let own = stall_layers(args.seed, STALL_MEM_OPS, TRACE_REPS, oracle, &mut sys_m);
            let mut probe_oracle = Oracle::new("noc_synth", args.seed);
            let probe = noc_layers(args.seed, TRACE_REPS, &mut probe_oracle, &mut noc_m);
            oracle.absorb(&probe_oracle);
            (own, probe.0)
        }
        "noc_synth" => {
            let own = noc_layers(args.seed, TRACE_REPS, oracle, &mut noc_m);
            // The campaign runs the stall scenarios at this length, so its
            // recorded fingerprints check the probe.
            let mut probe_oracle = Oracle::new("campaign_paper64", args.seed);
            let probe = stall_layers(
                args.seed,
                STALL_PROBE_MEM_OPS,
                TRACE_REPS,
                &mut probe_oracle,
                &mut sys_m,
            );
            oracle.absorb(&probe_oracle);
            (own, probe.0)
        }
        _ => unreachable!("workload names are validated"),
    };
    let (tracer, overhead, stats) = own;
    let mut m = sys_m;
    m.extend(noc_m);
    scenarios::noc_totals(stats.iter(), &mut m);
    m.push("trace_overhead_frac", overhead, "ratio");
    write_trace(args.workload, &tracer, &probe);
    m
}

fn write_trace(workload: &str, tracer: &Tracer, probe: &Tracer) {
    let doc = Value::Object(vec![
        ("workload".into(), Value::String(workload.into())),
        ("spans".into(), tracer.to_json()),
        ("probe_spans".into(), probe.to_json()),
    ]);
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace-{workload}.json"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.to_pretty() + "\n"))
    {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

// ------------------------------------------------------------------ record

/// Regenerates `perfbench/fingerprints.json` at [`DEFAULT_SEED`].
fn record() {
    let seed = DEFAULT_SEED;
    let entries = |pairs: Vec<(String, String)>| -> Value {
        let mut seen = std::collections::HashSet::new();
        for (k, _) in &pairs {
            assert!(seen.insert(k.clone()), "duplicate operation label {k}");
        }
        Value::Object(
            pairs
                .into_iter()
                .map(|(k, v)| (k, Value::String(v)))
                .collect(),
        )
    };

    let params = campaign_params(seed);
    let (_, plan) = campaign_plan(&params);
    let results = Executor::new(CAMPAIGN_WORKERS).execute(&params, &plan);
    let campaign: Vec<(String, String)> = plan
        .scenarios()
        .iter()
        .map(|s| (s.label(), fingerprint(results.expect(s))))
        .collect();

    // The reference semantics: naive per-cycle stepping.
    let stall = stall_params(seed, STALL_MEM_OPS);
    let stall16: Vec<(String, String)> = stall_scenarios()
        .into_iter()
        .map(|s| {
            let Scenario::StallStress { kind, router } = s else {
                unreachable!("stall scenarios only")
            };
            let r = stall_stress_system(&stall, kind, router).run_naive(stall.max_cycles);
            assert!(r.completed, "{} did not complete", s.label());
            (s.label(), fingerprint(&r))
        })
        .collect();

    // Per-cycle driving, without the next_event/advance_to skips.
    let mut noc_fps = Vec::new();
    let traffic = noc::generate_all(seed);
    for (fabric, router) in noc::FABRICS {
        for (load, t) in noc::LOADS.iter().zip(&traffic) {
            let o = noc::drive(
                &mut noc::build_network(router),
                t.clone(),
                false,
                &mut noc::Untimed,
            );
            assert!(o.drained, "{fabric}/{} did not drain", load.name);
            noc_fps.push((format!("{fabric}/{}", load.name), o.fingerprint()));
        }
    }

    let doc = Value::Object(vec![
        ("seed".into(), Value::Number(seed as f64)),
        ("campaign_paper64".into(), entries(campaign)),
        ("stall16".into(), entries(stall16)),
        ("noc_synth".into(), entries(noc_fps)),
    ]);
    std::fs::write("perfbench/fingerprints.json", doc.to_pretty() + "\n")
        .expect("write perfbench/fingerprints.json");
    eprintln!("wrote perfbench/fingerprints.json");
}

fn main() {
    let args = match parse_args() {
        Mode::Record => return record(),
        Mode::Run(args) => args,
    };
    let mut oracle = Oracle::new(args.workload, args.seed);
    eprintln!(
        "perfbench {} seed {} ({} fingerprints) seconds {} trace {}",
        args.workload,
        args.seed,
        if oracle.recorded.is_some() {
            "recorded"
        } else {
            "no recorded"
        },
        args.seconds,
        u8::from(args.trace)
    );
    let m = if args.trace {
        per_layer(&args, &mut oracle)
    } else {
        end_to_end(&args, &mut oracle)
    };
    print!("{}", m.table());
    println!(
        "{}",
        m.result_line(oracle.failed == 0, oracle.attempted, oracle.failed)
    );
}
