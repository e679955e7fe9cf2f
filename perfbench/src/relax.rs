//! The three relaxation workloads: `paper-rsb` and `sweep-large` on the
//! native backend, `adaptive-sim` on the simulator. Each repetition runs the
//! whole pipeline — ordering, relabel, backend launch, session setup, the
//! iterations with checks and checkpoints, reassembly — and is checked
//! bitwise against `sequential_relaxation` on the same ordered mesh.

use stance::executor::sequential_relaxation;
use stance::locality::metrics::edge_cut;
use stance::locality::{compute_ordering, Ordering};
use stance::prelude::*;
use stance::sim::{EnvStats, LoadPhase};
use stance_native::NativeCluster;

use crate::rank::{initial, leg_body, relax_body, Leg, RankStats};
use crate::report::{
    checkpoint_ms_p50, dedicated_efficiency, e2e_metrics, layer_metrics, median, metric,
    peak_heap_mb, percentile, repeat, select, steal_metrics, vupdates_per_s, Metric, Outcome, Rep,
};
use crate::trace::{now_ns, Span, Tracer};
use crate::Args;

/// Repetitions per run at least, so `setup_s` is a median of three.
const MIN_REPS: usize = 3;

/// Virtual seconds the alternating load is defined for; a run that ends
/// later is refused.
const LOAD_HORIZON_S: f64 = 100_000.0;

/// Where the ranks run.
#[derive(Clone, Copy)]
pub enum Backend {
    Native,
    /// The simulated paper cluster with the competing load alternating
    /// between the workstations every `period` virtual seconds.
    Sim {
        period: f64,
    },
}

/// One relaxation workload's generated inputs and settings.
pub struct Relax {
    pub raw: Graph,
    pub method: OrderingMethod,
    pub backend: Backend,
    pub p: usize,
    pub iters: usize,
    /// Phase of the initial values, drawn from the seed.
    pub phase: f64,
}

type RankOut = (Vec<f64>, BlockPartition, RankStats, Vec<Span>);

fn rank_main<C: Comm>(comm: &mut C, w: &Relax, mesh: &Graph, trace: bool, run: usize) -> RankOut {
    let mut tr = Tracer::new(trace, Some(comm.rank()), run);
    let (values, partition, stats) = relax_body(
        comm,
        mesh,
        w.phase,
        w.iters,
        &StanceConfig::default(),
        &mut tr,
    );
    (values, partition, stats, tr.into_spans())
}

/// What one repetition leaves for checking.
struct Done {
    rep: Rep,
    ordering: Ordering,
    mesh: Graph,
    result: Vec<f64>,
    sim: Option<(f64, EnvStats)>,
}

fn relax_rep(w: &Relax, p: usize, trace: bool, run: usize) -> Done {
    let mut tr = Tracer::new(trace, None, run);
    let solve = tr.begin("solve");
    let mut rep = Rep {
        traced: trace,
        n: w.raw.num_vertices(),
        t0: now_ns(),
        ..Rep::default()
    };
    let ordering = tr.time("locality.order", || compute_ordering(&w.raw, w.method));
    let mesh = tr.time("locality.relabel", || ordering.apply(&w.raw));
    let open = tr.begin(match w.backend {
        Backend::Native => "native.run",
        Backend::Sim { .. } => "sim.run",
    });
    rep.run_start = now_ns();
    let (outs, sim) = match &w.backend {
        Backend::Native => {
            let report = NativeCluster::new(p).run(|comm| rank_main(comm, w, &mesh, trace, run));
            (report.into_results(), None)
        }
        Backend::Sim { period } => {
            let spec = loaded_cluster(p, *period, LOAD_HORIZON_S);
            let report = Cluster::new(spec).run(|env| rank_main(env, w, &mesh, trace, run));
            let sim = (report.makespan(), report.total_stats());
            (report.into_results(), Some(sim))
        }
    };
    rep.run_end = now_ns();
    let mut blocks = Vec::with_capacity(outs.len());
    let mut partition = None;
    for (values, part, stats, spans) in outs {
        tr.adopt(spans);
        blocks.push(values);
        partition = Some(part);
        rep.ranks.push(stats);
    }
    tr.end(open);
    let partition = partition.expect("at least one rank");
    let result = tr.time("core.reassemble", || reassemble(&partition, blocks));
    rep.end = now_ns();
    tr.end(solve);
    rep.spans = tr.into_spans();
    Done {
        rep,
        ordering,
        mesh,
        result,
        sim,
    }
}

/// Flips the sign bit of the largest-magnitude entry: the corruption the
/// benchmark's own tests use to show that a wrong result is caught.
pub fn corrupt(values: &mut [f64]) {
    let i = (0..values.len())
        .max_by(|&a, &b| values[a].abs().total_cmp(&values[b].abs()))
        .expect("a non-empty result");
    values[i] = f64::from_bits(values[i].to_bits() ^ (1 << 63));
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The sequential reference: `sequential_relaxation` on the first
/// repetition's ordered mesh, advanced a check interval at a time (bitwise
/// the same as one call) so its rate can be sampled right after every
/// repetition.
struct Reference {
    mesh: Graph,
    y: Vec<f64>,
    done: usize,
    iters: usize,
}

impl Reference {
    /// Chunks the reference is sampled in; more than any run has
    /// repetitions.
    const CHUNKS: usize = 12;

    fn new(w: &Relax, mesh: Graph) -> Self {
        let y = (0..mesh.num_vertices())
            .map(|g| initial(w.phase, g))
            .collect();
        Reference {
            mesh,
            y,
            done: 0,
            iters: w.iters,
        }
    }

    /// Advances up to `iters` iterations; returns the median vertex-update
    /// rate of its check-interval slices (NaN if already finished).
    fn advance(&mut self, iters: usize) -> f64 {
        let slice = StanceConfig::default().check_interval;
        let end = (self.done + iters).min(self.iters);
        let mut rates = Vec::new();
        while self.done < end {
            let k = slice.min(end - self.done);
            let t = std::time::Instant::now();
            sequential_relaxation(&self.mesh, &mut self.y, k);
            rates.push((self.mesh.num_vertices() * k) as f64 / t.elapsed().as_secs_f64());
            self.done += k;
        }
        if rates.is_empty() {
            f64::NAN
        } else {
            median(&rates)
        }
    }

    /// One chunk of the reference.
    fn chunk(&mut self) -> f64 {
        let slice = StanceConfig::default().check_interval;
        self.advance((self.iters / Self::CHUNKS).div_ceil(slice).max(1) * slice)
    }

    /// Runs the rest.
    fn finish(&mut self) {
        self.advance(self.iters);
    }
}

/// What the first repetition keeps for checking the others: its ordering,
/// its result and the simulator's makespan and stats.
type FirstRep = (Ordering, Vec<f64>, Option<(f64, EnvStats)>);

/// Runs a relaxation workload for `args.seconds` and checks every
/// repetition.
pub fn run(w: &Relax, args: &Args) -> Outcome {
    // Every repetition must match the first bitwise, and the first must
    // match the reference; only the first repetition's result is kept.
    let mut first: Option<FirstRep> = None;
    let mut reference: Option<Reference> = None;
    let mut same_as_first = Vec::new();
    let dedicated = matches!(w.backend, Backend::Native);
    let reps = repeat(args.seconds, MIN_REPS, args.trace, |run, traced| {
        let mut done = relax_rep(w, w.p, traced, run);
        if args.corrupt {
            corrupt(&mut done.result);
        }
        let mut rep = std::mem::take(&mut done.rep);
        match &first {
            Some((ordering, result, _)) => same_as_first.push(
                ordering.positions() == done.ordering.positions()
                    && bitwise_eq(result, &done.result),
            ),
            None => {
                same_as_first.push(true);
                reference = Some(Reference::new(w, done.mesh));
                first = Some((done.ordering, done.result, done.sim));
            }
        }
        if dedicated {
            rep.seq_rate = reference
                .as_mut()
                .expect("set by the first repetition")
                .chunk();
        }
        rep
    });
    // Peak memory of the inputs and every repetition.
    let heap = crate::heap::peak_bytes() as u64;
    let (ordering, result, sim) = first.expect("at least one repetition");
    let mut reference = reference.expect("set by the first repetition");
    reference.finish();
    let first_ok = bitwise_eq(&result, &reference.y);
    let mut reps = reps;
    for (rep, same) in reps.iter_mut().zip(same_as_first) {
        rep.ok = first_ok && same;
    }
    let failed = reps.iter().filter(|r| !r.ok).count() as u64;
    let mut out = Outcome {
        attempted: reps.len() as u64,
        failed,
        ..Outcome::default()
    };
    let untraced = select(&reps, false);
    if untraced.is_empty() {
        return out;
    }
    let n = w.raw.num_vertices();
    let cut = edge_cut(&w.raw, &ordering, &BlockPartition::uniform(n, 8));
    let efficiency = match (w.backend, &sim) {
        (Backend::Sim { period }, Some((makespan, stats))) => {
            assert!(*makespan < LOAD_HORIZON_S, "the run outlasted its load");
            out.detail = sim_detail(*makespan, stats, &untraced);
            adaptive_efficiency(&could_have_completed(w, period, *makespan))
        }
        _ => dedicated_efficiency(&untraced, w.p),
    };
    out.e2e = e2e_metrics(&untraced, efficiency);
    out.detail.push(checkpoint_ms_p50(&untraced));
    out.detail.push(peak_heap_mb(heap));
    out.detail.extend(steal_metrics(&reps));
    if args.trace && !select(&reps, true).is_empty() {
        traced_extras(w, &reps, &reference, cut, &mut out);
    }
    out
}

/// The traced run's extra legs and its per-layer metrics.
fn traced_extras(w: &Relax, reps: &[Rep], reference: &Reference, cut: usize, out: &mut Outcome) {
    let mesh = &reference.mesh;
    let leg: Vec<Leg> = match &w.backend {
        Backend::Native => NativeCluster::new(w.p)
            .run(|comm| leg_body(comm, mesh, &RelaxationKernel))
            .into_results(),
        Backend::Sim { period } => Cluster::new(loaded_cluster(w.p, *period, LOAD_HORIZON_S))
            .run(|env| leg_body(env, mesh, &RelaxationKernel))
            .into_results(),
    };
    let traced = select(reps, true);
    let untraced_solve = median(
        &select(reps, false)
            .iter()
            .map(|r| r.solve_s())
            .collect::<Vec<_>>(),
    );
    let overhead = median(
        &traced
            .iter()
            .map(|r| r.run_overhead_s())
            .collect::<Vec<_>>(),
    );
    out.layers = match &w.backend {
        // Session sweep seconds are virtual on the simulator; estimate the
        // wall seconds from the leg's per-sweep kernel time instead.
        Backend::Sim { .. } => {
            let kernel: Vec<f64> = leg.iter().flat_map(|l| l.kernel.iter().copied()).collect();
            let per_sweep = median(&kernel);
            let est = move |s: &RankStats| per_sweep * s.applications as f64;
            out.detail.push(metric("sim.run_overhead_s", overhead, "s"));
            layer_metrics(&traced, &leg, &est, untraced_solve, cut)
        }
        Backend::Native => {
            out.detail
                .push(metric("native.run_overhead_s", overhead, "s"));
            layer_metrics(
                &traced,
                &leg,
                &|s: &RankStats| s.sweep_s,
                untraced_solve,
                cut,
            )
        }
    };
    if matches!(w.backend, Backend::Native) && w.p > 1 {
        // The same pipeline on one rank, checked like the others: parallel
        // efficiency at p over p× the one-rank throughput.
        let one = relax_rep(w, 1, false, reps.len());
        out.attempted += 1;
        if !bitwise_eq(&one.result, &reference.y) {
            out.failed += 1;
        }
        out.detail.push(metric(
            "native.parallel_eff",
            vupdates_per_s(&traced) / (w.p as f64 * vupdates_per_s(&[&one.rep])),
            "ratio",
        ));
    }
    out.spans = reps.iter().flat_map(|r| r.spans.iter().cloned()).collect();
}

/// The alternating competing load: 2 competing processes (availability
/// 1/3) on workstation `rank` during every other `period` of virtual time,
/// starting with workstation 0, up to `horizon`.
pub fn alternating_load(rank: usize, period: f64, horizon: f64) -> Vec<LoadPhase> {
    let loaded = 1.0 / 3.0;
    (0..)
        .map(|k| k as f64 * period)
        .take_while(|&t| t < horizon)
        .enumerate()
        .map(|(k, start)| LoadPhase {
            start,
            available: if k % 2 == rank { loaded } else { 1.0 },
        })
        .collect()
}

/// The paper's cluster of `p` equal workstations on point-to-point
/// 10 Mbit/s Ethernet, with the alternating load.
pub fn loaded_cluster(p: usize, period: f64, horizon: f64) -> ClusterSpec {
    (0..p).fold(ClusterSpec::paper_cluster(p), |spec, r| {
        spec.with_load(
            r,
            LoadTimeline::from_phases(alternating_load(r, period, horizon)),
        )
    })
}

/// `fᵢ(T)`: the share of the whole task workstation `i` could have run by
/// itself during `[0, T)` — its capability integrated over the load
/// timeline, over the task's sequential work on a reference workstation.
fn could_have_completed(w: &Relax, period: f64, makespan: f64) -> Vec<f64> {
    let refs = 2 * w.raw.num_edges();
    let work = w.iters as f64
        * StanceConfig::default()
            .compute_cost
            .sweep_work(w.raw.num_vertices(), refs);
    let spec = ClusterSpec::paper_cluster(w.p);
    (0..w.p)
        .map(|r| {
            let phases = alternating_load(r, period, LOAD_HORIZON_S);
            let capacity: f64 = phases
                .iter()
                .enumerate()
                .map(|(k, ph)| {
                    let end = phases.get(k + 1).map_or(makespan, |next| next.start);
                    (end.min(makespan) - ph.start).max(0.0) * ph.available
                })
                .sum();
            spec.machines[r].speed * capacity / work
        })
        .collect()
}

fn sim_detail(makespan: f64, stats: &EnvStats, untraced: &[&Rep]) -> Vec<Metric> {
    let remaps: Vec<f64> = untraced.iter().flat_map(|r| r.remap_secs()).collect();
    let r0 = &untraced[0].ranks;
    let mut d = vec![
        metric("modeled_makespan_s", makespan, "s"),
        metric("remap_samples", remaps.len() as f64, "count"),
        metric("sim.compute_s", stats.compute_time, "s"),
        metric("sim.wait_s", stats.wait_time, "s"),
        metric("sim.messages", stats.messages_sent as f64, "count"),
        metric("sim.bytes", stats.bytes_sent as f64, "B"),
        metric(
            "balance.check_cost_s",
            r0.iter().map(|s| s.check_cost).fold(0.0, f64::max),
            "s",
        ),
        metric(
            "balance.rebalance_cost_s",
            r0.iter().map(|s| s.rebalance_cost).fold(0.0, f64::max),
            "s",
        ),
    ];
    if !remaps.is_empty() {
        d.push(metric("remap_ms_p50", percentile(&remaps, 0.5) * 1e3, "ms"));
        d.push(metric("remap_ms_p90", percentile(&remaps, 0.9) * 1e3, "ms"));
        let remap_s: Vec<f64> = untraced
            .iter()
            .map(|r| r.ranks.iter().map(|s| s.check_s(true)).fold(0.0, f64::max))
            .collect();
        d.push(metric("balance.remap_s", median(&remap_s), "s"));
    }
    d
}
