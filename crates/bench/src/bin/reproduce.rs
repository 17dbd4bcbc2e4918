//! Regenerates every table and figure of the LOCO ASPLOS 2014 evaluation —
//! as one *campaign*: the requested figures are planned (their scenarios
//! enumerated and deduplicated), executed in parallel across all cores, and
//! assembled from the completed result set.
//!
//! ```text
//! cargo run --release -p loco-bench --bin reproduce -- \
//!     [--params quick|paper64|paper256] [--figures fig06,fig11,...|all] \
//!     [--list-figures] [--threads N] [--json out.json] \
//!     [--markdown EXPERIMENTS.md] [--benchmarks lu,fft,...] [--mem-ops N]
//! ```
//!
//! * `--params` — the experiment scale (default `paper64`; the original
//!   `--scale quick|64|256` spelling is still accepted).
//! * `--figures` — comma-separated figure list, `figNN` or bare numbers
//!   (default: all of 6–19; 17 and 18 are the energy figures, 19 the
//!   stall-heavy stress sweep).
//! * `--list-figures` — print every known figure id and title, then exit.
//! * `--threads` — worker count for the execute phase (default: all cores).
//!   Values that parse but make no sense (above
//!   `loco::campaign::MAX_EXPLICIT_THREADS`) are rejected with an error
//!   instead of silently spawning thousands of idle workers. Figures are
//!   **byte-identical for any thread count**: planning fixes the scenario
//!   order, every scenario is an independent deterministic simulation, and
//!   results are merged in plan order.
//! * `--json PATH` — additionally writes one JSON document containing every
//!   assembled figure.
//! * `--markdown PATH` — additionally writes a markdown report (this is how
//!   `EXPERIMENTS.md` is generated: `--params quick --markdown
//!   EXPERIMENTS.md`).
//! * `--benchmarks` — overrides the benchmark x-axis of figures 6–16.
//!
//! Everything nondeterministic (wall-clock timings, thread count, progress)
//! goes to **stderr**; stdout and both output files depend only on the
//! campaign inputs.
//!
//! A scenario that hits its cycle budget before every core finishes would
//! plot a truncated run: `reproduce` then names each such scenario on
//! stderr and exits 1 without writing any figure.

use loco::campaign::{CampaignPlan, Executor};
use loco::json::Value;
use loco::{Benchmark, Figure, FigureSpec};
use loco_bench::{figure_spec, Scale, FIGURE_NUMBERS};
use std::time::Instant;

struct Options {
    scale: Scale,
    figures: Vec<u32>,
    benchmarks: Option<Vec<Benchmark>>,
    threads: usize,
    mem_ops: Option<u64>,
    json_path: Option<String>,
    markdown_path: Option<String>,
    list_figures: bool,
}

fn usage() -> ! {
    println!(
        "usage: reproduce [--params quick|paper64|paper256] [--figures fig06,fig11,...|all]\n\
         \x20                [--list-figures] [--threads N] [--json FILE.json] [--markdown FILE.md]\n\
         \x20                [--benchmarks lu,fft,...] [--mem-ops N]"
    );
    std::process::exit(0);
}

fn bad(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn parse_figure(token: &str) -> u32 {
    let digits = token.strip_prefix("fig").unwrap_or(token);
    match digits.parse::<u32>() {
        Ok(n) if FIGURE_NUMBERS.contains(&n) => n,
        _ => bad(&format!(
            "unknown figure '{token}' (expected fig{:02}..fig{:02}, bare numbers, or 'all' — \
             run with --list-figures to see every id and title)",
            FIGURE_NUMBERS.start(),
            FIGURE_NUMBERS.end()
        )),
    }
}

/// `--list-figures`: every known figure id + title at the requested scale.
fn list_figures(scale: Scale) -> ! {
    let params = scale.params();
    for n in FIGURE_NUMBERS {
        let spec = figure_spec(scale, n, None).expect("range is exhaustive");
        println!("fig{:02}  {}", spec.number(), spec.title(&params));
    }
    std::process::exit(0);
}

fn parse_args() -> Options {
    let mut opts = Options {
        scale: Scale::Cores64,
        figures: FIGURE_NUMBERS.collect(),
        benchmarks: None,
        threads: 0, // 0 = all cores (Executor::new semantics)
        mem_ops: None,
        json_path: None,
        markdown_path: None,
        list_figures: false,
    };
    let mut it = std::env::args().skip(1);
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| -> String {
        it.next().unwrap_or_else(|| bad(&format!("{flag} needs a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--params" | "--scale" => {
                let v = value(&arg, &mut it);
                opts.scale = Scale::parse(&v)
                    .unwrap_or_else(|| bad(&format!("unknown params '{v}', expected quick|paper64|paper256")));
            }
            "--list-figures" => opts.list_figures = true,
            "--figures" | "--fig" => {
                let v = value(&arg, &mut it);
                if v == "all" {
                    opts.figures = FIGURE_NUMBERS.collect();
                } else {
                    let mut figs: Vec<u32> = Vec::new();
                    for n in v.split(',').map(parse_figure) {
                        if !figs.contains(&n) {
                            figs.push(n);
                        }
                    }
                    opts.figures = figs;
                }
            }
            "--benchmarks" => {
                let v = value(&arg, &mut it);
                opts.benchmarks = Some(
                    v.split(',')
                        .map(|name| {
                            Benchmark::parse(name)
                                .unwrap_or_else(|| bad(&format!("unknown benchmark '{name}'")))
                        })
                        .collect(),
                );
            }
            "--threads" => {
                let v = value(&arg, &mut it);
                let n: usize = v
                    .parse()
                    .unwrap_or_else(|_| bad("--threads takes a number (0 = all cores)"));
                // Validate here (not at executor construction) so the error
                // points at the flag before any planning work happens.
                if let Err(e) = Executor::try_new(n) {
                    bad(&format!("--threads {v}: {e}"));
                }
                opts.threads = n;
            }
            "--mem-ops" => {
                let v = value(&arg, &mut it);
                opts.mem_ops = Some(v.parse().unwrap_or_else(|_| bad("--mem-ops takes a number")));
            }
            "--json" => opts.json_path = Some(value(&arg, &mut it)),
            "--markdown" => opts.markdown_path = Some(value(&arg, &mut it)),
            "--help" | "-h" => usage(),
            other => bad(&format!("unknown argument '{other}' (try --help)")),
        }
    }
    opts
}

fn params_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Quick => "quick",
        Scale::Cores64 => "paper64",
        Scale::Cores256 => "paper256",
    }
}

fn json_document(scale: Scale, figures: &[Figure]) -> String {
    Value::Object(vec![
        ("schema".into(), Value::String("loco-campaign/1".into())),
        ("params".into(), Value::String(params_name(scale).into())),
        (
            "figures".into(),
            Value::Array(figures.iter().map(Figure::to_json_value).collect()),
        ),
    ])
    .to_pretty()
}

fn markdown_document(scale: Scale, n_scenarios: usize, figures: &[Figure]) -> String {
    let mut out = String::new();
    out.push_str("# EXPERIMENTS — reproduced figures of the LOCO evaluation\n\n");
    out.push_str(
        "This file is generated mechanically by the campaign CLI; do not edit by\nhand. Regenerate with:\n\n",
    );
    out.push_str(&format!(
        "```sh\ncargo run --release -p loco-bench --bin reproduce -- \\\n    --params {} --figures all --markdown EXPERIMENTS.md\n```\n\n",
        params_name(scale)
    ));
    out.push_str(&format!(
        "Campaign: params `{}`, {} distinct scenarios (deduplicated across\nfigures), executed by `loco::campaign::Executor` and assembled into the\ntables below. Output is byte-identical for any `--threads` value.\n\n",
        params_name(scale),
        n_scenarios
    ));
    out.push_str(
        "Absolute magnitudes are not comparable to the paper (synthetic workload\nmodels, scaled working sets — see DESIGN.md §3); the *trends* of each\nfigure are the reproduction target and are asserted by the integration\ntests (`tests/integration_experiments.rs`, `tests/integration_system.rs`).\n\n",
    );
    for fig in figures {
        out.push_str(&format!("## {} — {}\n\n", fig.id, fig.title));
        out.push_str("```text\n");
        out.push_str(&fig.to_text_table());
        out.push_str("```\n\n");
    }
    out
}

fn main() {
    let opts = parse_args();
    if opts.list_figures {
        list_figures(opts.scale);
    }
    let mut params = opts.scale.params();
    if let Some(m) = opts.mem_ops {
        params = params.with_mem_ops(m);
    }

    // --- Plan: enumerate every requested figure, deduplicating scenarios.
    let specs: Vec<FigureSpec> = opts
        .figures
        .iter()
        .map(|&n| figure_spec(opts.scale, n, opts.benchmarks.as_deref()).expect("figure numbers validated"))
        .collect();
    let mut plan = CampaignPlan::new();
    for spec in &specs {
        plan.add_figure(spec, &params);
    }

    let executor = Executor::new(opts.threads);
    eprintln!(
        "LOCO campaign — params {} ({} cores, {} memory ops/core): {} figures, {} distinct scenarios, {} worker threads",
        params_name(opts.scale),
        params.num_cores(),
        params.mem_ops_per_core,
        specs.len(),
        plan.len(),
        executor.threads(),
    );

    // --- Execute: every scenario, in parallel, each in its own system.
    let start = Instant::now();
    let results = executor.execute(&params, &plan);
    eprintln!(
        "executed {} simulations in {:.1}s",
        results.len(),
        start.elapsed().as_secs_f64()
    );
    let incomplete = results.incomplete();
    if !incomplete.is_empty() {
        eprintln!(
            "{} of {} scenarios hit max_cycles ({}) before finishing; no figures written:",
            incomplete.len(),
            results.len(),
            params.max_cycles
        );
        for s in &incomplete {
            eprintln!("  {}", s.label());
        }
        std::process::exit(1);
    }

    // --- Assemble: pure figure construction from the completed result set.
    let mut figures: Vec<Figure> = Vec::new();
    for spec in &specs {
        figures.extend(spec.assemble(&params, &results));
    }
    for fig in &figures {
        println!("{fig}");
    }
    if let Some(path) = &opts.json_path {
        std::fs::write(path, json_document(opts.scale, &figures) + "\n").expect("write --json file");
        eprintln!("wrote {path}");
    }
    if let Some(path) = &opts.markdown_path {
        std::fs::write(path, markdown_document(opts.scale, plan.len(), &figures))
            .expect("write --markdown file");
        eprintln!("wrote {path}");
    }
}
