//! End-to-end, layer-by-layer benchmark of the STANCE runtime.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-rsb|sweep-large|cg-tcp|adaptive-sim> \
//!     --seed <n> --seconds <s> --trace <0|1> [--scale small] [--corrupt]
//! ```
//!
//! Each run generates its inputs from the seed, repeats the workload's
//! whole pipeline for the given seconds, checks every result, and prints
//! as its last line one JSON object: `correct`, `attempted`, `failed` and
//! the metrics — the end-to-end ones with `--trace 0`, the per-layer ones
//! with `--trace 1`. The line before it holds the host facts, the
//! workload's facts and the metrics only that workload's layers produce.
//! A traced run also writes its spans to `out/` in this package.
//!
//! `--scale small` shrinks every input for the benchmark's own tests;
//! `--corrupt` flips one bit of every result before it is checked, to show
//! that a wrong result is reported as a failed operation.

mod cg;
mod heap;
mod rank;
mod relax;
mod report;
mod trace;

use stance::locality::meshgen::{paper_mesh, shuffle_labels, triangulated_grid};
use stance::prelude::*;

use crate::report::{metric, metrics_json, peak_rss_kb, Host, Outcome};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub small: bool,
    pub corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        small: false,
        corrupt: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--scale" => {
                args.small = match value()?.as_str() {
                    "small" => true,
                    "full" => false,
                    other => return Err(format!("--scale takes small or full, not {other}")),
                };
            }
            "--corrupt" => args.corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

/// A uniform number in `[0, 1)` drawn from `seed` and `stream`
/// (SplitMix64), for the inputs that are not meshes.
fn unit(seed: u64, stream: u64) -> f64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as f64 / 2f64.powi(64)
}

/// A jittered triangulated `side × side` grid with shuffled labels.
fn shuffled_grid(side: usize, seed: u64) -> Graph {
    shuffle_labels(
        &triangulated_grid(side, side, 0.6, seed),
        seed ^ 0x0BAD_C0DE,
    )
}

/// Facts about a workload, printed with every run.
struct Info {
    backend: &'static str,
    p: usize,
    /// Bytes the iteration touches: CSR adjacency (4-byte neighbors, 8-byte
    /// offsets) plus `arrays` f64 arrays of one entry per vertex.
    working_set_bytes: usize,
}

fn working_set(g: &Graph, arrays: usize) -> usize {
    2 * g.num_edges() * 4 + (g.num_vertices() + 1) * 8 + arrays * g.num_vertices() * 8
}

const P: usize = 2;

fn run(args: &Args) -> Result<(Info, Outcome), String> {
    check_nproc(P)?;
    let phase = unit(args.seed, 1) * std::f64::consts::TAU;
    let relax = |raw: Graph, method, backend, iters| {
        let info = Info {
            backend: match backend {
                relax::Backend::Native => "native",
                relax::Backend::Sim { .. } => "sim",
            },
            p: P,
            working_set_bytes: working_set(&raw, 2),
        };
        let w = relax::Relax {
            raw,
            method,
            backend,
            p: P,
            iters,
            phase,
        };
        Ok((info, relax::run(&w, args)))
    };
    match args.workload.as_str() {
        "paper-rsb" => {
            let raw = if args.small {
                shuffled_grid(30, args.seed)
            } else {
                paper_mesh(args.seed)
            };
            let iters = if args.small { 200 } else { 500 };
            relax(raw, OrderingMethod::Spectral, relax::Backend::Native, iters)
        }
        "sweep-large" => {
            let (side, iters) = if args.small { (40, 200) } else { (600, 1000) };
            relax(
                shuffled_grid(side, args.seed),
                OrderingMethod::Hilbert,
                relax::Backend::Native,
                iters,
            )
        }
        "adaptive-sim" => {
            let iters = if args.small { 300 } else { 2000 };
            relax(
                paper_mesh(args.seed),
                OrderingMethod::Rcb,
                relax::Backend::Sim { period: 20.0 },
                iters,
            )
        }
        "cg-tcp" => {
            let (raw, steps) = if args.small {
                (shuffled_grid(30, args.seed), 3)
            } else {
                (paper_mesh(args.seed), 20)
            };
            // Smooth manufactured solutions over the mesh geometry, a new
            // one every step.
            let (kx, ky) = (
                0.02 + 0.06 * unit(args.seed, 2),
                0.02 + 0.06 * unit(args.seed, 3),
            );
            let x_star = (0..steps)
                .map(|t| {
                    raw.coords()
                        .iter()
                        .map(|c| (kx * c[0] + ky * c[1] + phase + 0.3 * t as f64).sin() + 0.5)
                        .collect()
                })
                .collect();
            let info = Info {
                backend: "tcp",
                p: P,
                working_set_bytes: working_set(&raw, 6),
            };
            Ok((info, cg::run(&cg::Cg::new(raw, P, x_star), args)))
        }
        other => Err(format!(
            "unknown workload {other:?}; one of paper-rsb, sweep-large, cg-tcp, adaptive-sim"
        )),
    }
}

/// Refuses to start more ranks than the host has processors.
fn check_nproc(p: usize) -> Result<(), String> {
    let nproc = Host::read().nproc;
    if p > nproc {
        return Err(format!(
            "{p} ranks need {p} processors; this host has {nproc}"
        ));
    }
    Ok(())
}

fn write_spans(args: &Args, out: &Outcome) -> std::io::Result<String> {
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, trace::to_json(&out.spans))?;
    Ok(path.display().to_string())
}

fn main() {
    // A TCP rank process is this same binary; it never returns from here.
    stance_tcp::maybe_rank_main(cg::SCENARIOS);

    let args = match parse_args() {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("perfbench: --workload is required");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (info, mut out) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    out.detail
        .push(metric("peak_rss_mb", peak_rss_kb() as f64 / 1024.0, "MB"));
    let spans_file = if args.trace {
        match write_spans(&args, &out) {
            Ok(path) => format!("\"{path}\""),
            Err(e) => {
                eprintln!("perfbench: writing spans: {e}");
                std::process::exit(1);
            }
        }
    } else {
        "null".into()
    };
    let host = Host::read();
    let opt = |v: Option<u64>| v.map_or_else(|| "null".into(), |b| b.to_string());
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host\": {{\"nproc\": {}, \"l2_bytes\": {}, \"l3_bytes\": {}}}, \"backend\": \"{}\", \"p\": {}, \"working_set_bytes\": {}, \"spans_file\": {spans_file}, \"detail\": {}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        host.nproc,
        opt(host.l2_bytes),
        opt(host.l3_bytes),
        info.backend,
        info.p,
        info.working_set_bytes,
        metrics_json(&out.detail),
    );
    let correct = out.failed == 0 && out.attempted > 0;
    let metrics = if args.trace { &out.layers } else { &out.e2e };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        if correct {
            metrics_json(metrics)
        } else {
            "{}".into()
        },
    );
    if !correct {
        std::process::exit(1);
    }
}
