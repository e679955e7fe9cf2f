//! `cg-tcp`: implicit diffusion on the TCP backend. Every time step solves
//! `(L + σI) x = b_t` for a manufactured `x*_t` with Jacobi-preconditioned
//! CG through a `DataflowSession` whose graph is the two-stage
//! `precond` → `matvec` pass of `examples/cg_solver.rs`: one fused ghost
//! exchange and three allreduces per iteration, over loopback sockets
//! between two rank processes.

use std::path::Path;

use stance::executor::sequential_laplacian_matvec;
use stance::inspector::TranslatedAdjacency;
use stance::locality::metrics::edge_cut;
use stance::locality::{compute_ordering, Ordering};
use stance::prelude::*;
use stance_tcp::codec::Wire;
use stance_tcp::{RankOutcome, ScenarioRegistry, TcpCluster, TcpComm};

use crate::rank::{leg_body, Check, Leg, RankStats};
use crate::relax::corrupt;
use crate::report::{
    checkpoint_ms_p50, dedicated_efficiency, e2e_metrics, layer_metrics, median, metric,
    peak_heap_mb, repeat, select, steal_metrics, Outcome, Rep,
};
use crate::trace::{now_ns, secs, Tracer};
use crate::Args;

/// The scenarios a rank process of this benchmark runs.
pub const SCENARIOS: ScenarioRegistry = &[
    ("perfbench-cg", cg_scenario),
    ("perfbench-leg", leg_scenario),
];

/// Tag of the solver's allreduces.
const DOT_TAG: Tag = Tag(1);

/// Repetitions per run at least, so `setup_s` is a median of three.
const MIN_REPS: usize = 3;

/// One cg-tcp run's generated inputs and settings.
pub struct Cg {
    pub raw: Graph,
    pub p: usize,
    pub sigma: f64,
    /// Relative residual each solve reaches.
    pub tol: f64,
    pub max_iters: usize,
    /// Manufactured solutions `x*_t`, in the raw mesh's labels.
    pub x_star: Vec<Vec<f64>>,
    /// Right-hand sides `b_t = (L + σI) x*_t`, in the raw mesh's labels.
    pub rhs: Vec<Vec<f64>>,
}

impl Cg {
    pub fn new(raw: Graph, p: usize, x_star: Vec<Vec<f64>>) -> Self {
        let sigma = 0.01;
        let rhs = x_star
            .iter()
            .map(|x| {
                let mut b = vec![0.0; x.len()];
                sequential_laplacian_matvec(&raw, x, sigma, &mut b);
                b
            })
            .collect();
        Cg {
            raw,
            p,
            sigma,
            tol: 1e-8,
            max_iters: 5000,
            x_star,
            rhs,
        }
    }

    /// Largest relative error a solve at relative residual `tol` may have:
    /// `‖e‖/‖x*‖ ≤ tol · ‖A‖/λ_min(A)`, with `‖A‖ ≤ 2·maxdeg + σ`
    /// (Gershgorin) and `λ_min ≥ σ`, times 10 for the drift of the
    /// recurrence residual from the true one.
    fn error_bound(&self) -> f64 {
        10.0 * self.tol * (2.0 * self.raw.max_degree() as f64 + self.sigma) / self.sigma
    }
}

/// What the coordinating process ships to every rank process.
#[derive(Debug, Default, PartialEq)]
pub struct CgArgs {
    pub trace: bool,
    pub run: usize,
    pub n: usize,
    /// Edges of the ordered mesh, flattened pairs.
    pub edges: Vec<u32>,
    pub sigma: f64,
    pub tol: f64,
    pub max_iters: usize,
    /// Right-hand sides in the ordered mesh's labels.
    pub rhs: Vec<Vec<f64>>,
}

impl Wire for CgArgs {
    fn put(&self, out: &mut Vec<u8>) {
        self.trace.put(out);
        self.run.put(out);
        self.n.put(out);
        self.edges.put(out);
        self.sigma.put(out);
        self.tol.put(out);
        self.max_iters.put(out);
        self.rhs.put(out);
    }
    fn take(input: &mut &[u8]) -> Self {
        CgArgs {
            trace: Wire::take(input),
            run: Wire::take(input),
            n: Wire::take(input),
            edges: Wire::take(input),
            sigma: Wire::take(input),
            tol: Wire::take(input),
            max_iters: Wire::take(input),
            rhs: Wire::take(input),
        }
    }
}

/// What every rank process sends back.
#[derive(Debug, Default, PartialEq)]
pub struct CgOut {
    pub stats: RankStats,
    /// Per step: this rank's owned block of `x`, the partition's block
    /// sizes it belongs to, and the CG iterations the solve took.
    pub x: Vec<Vec<f64>>,
    pub sizes: Vec<Vec<usize>>,
    pub iters: Vec<usize>,
}

impl Wire for CgOut {
    fn put(&self, out: &mut Vec<u8>) {
        self.stats.put(out);
        self.x.put(out);
        self.sizes.put(out);
        self.iters.put(out);
    }
    fn take(input: &mut &[u8]) -> Self {
        CgOut {
            stats: Wire::take(input),
            x: Wire::take(input),
            sizes: Wire::take(input),
            iters: Wire::take(input),
        }
    }
}

fn graph_of(n: usize, edges: &[u32]) -> Graph {
    let pairs: Vec<(u32, u32)> = edges.chunks_exact(2).map(|e| (e[0], e[1])).collect();
    Graph::from_edges(n, &pairs, vec![[0.0; 3]; n], 2)
}

/// The Jacobi preconditioner `u = r / (deg + σ)` as a local stage.
struct Jacobi {
    shift: f64,
}

impl Kernel<f64> for Jacobi {
    fn sweep(&self, tadj: &TranslatedAdjacency, combined: &[f64], out: &mut [f64]) {
        for (l, o) in out.iter_mut().enumerate() {
            *o = combined[l] / (tadj.neighbors_of(l).len() as f64 + self.shift);
        }
    }
}

fn cg_scenario(comm: &mut TcpComm, args: &[u8]) -> Vec<u8> {
    let args = CgArgs::from_wire(args);
    let mut out = cg_body(comm, &args);
    out.stats.peak_heap_bytes = crate::heap::peak_bytes() as u64;
    out.to_wire()
}

fn leg_scenario(comm: &mut TcpComm, args: &[u8]) -> Vec<u8> {
    let args = CgArgs::from_wire(args);
    let mesh = graph_of(args.n, &args.edges);
    leg_body(comm, &mesh, &LaplacianKernel { shift: args.sigma }).to_wire()
}

/// The solver's host-side vectors for this rank's owned block.
#[derive(Default)]
struct Vectors {
    x: Vec<f64>,
    r: Vec<f64>,
    u: Vec<f64>,
    au: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

const FIELDS: [&str; 6] = ["x", "r", "u", "Au", "p", "Ap"];

impl Vectors {
    fn field(&mut self, name: &str) -> &mut Vec<f64> {
        match name {
            "x" => &mut self.x,
            "r" => &mut self.r,
            "u" => &mut self.u,
            "Au" => &mut self.au,
            "p" => &mut self.p,
            _ => &mut self.ap,
        }
    }
    fn push(&mut self, s: &mut DataflowSession) {
        for name in FIELDS {
            s.set_local(name, self.field(name));
        }
    }
    fn pull(&mut self, s: &DataflowSession, names: &[&str]) {
        for &name in names {
            let v = self.field(name);
            v.clear();
            v.extend_from_slice(s.local(name));
        }
    }
}

/// One rank's time steps: a CG solve per right-hand side, a load-balance
/// check every `check_interval` iterations and a checkpoint after every
/// step.
pub fn cg_body<C: Comm>(comm: &mut C, a: &CgArgs) -> CgOut {
    let mut tr = Tracer::new(a.trace, Some(comm.rank()), a.run);
    let body = tr.begin("rank.body");
    let mut st = RankStats {
        body_start: now_ns(),
        ..RankStats::default()
    };
    let mesh = tr.time("tcp.decode", || graph_of(a.n, &a.edges));
    let config = StanceConfig::default();
    let stages = StageGraphBuilder::new()
        .field("x")
        .field("r")
        .field("u")
        .field("Au")
        .field("p")
        .field("Ap")
        .stage_local("precond", Jacobi { shift: a.sigma }, "r", "u")
        .stage("matvec", LaplacianKernel { shift: a.sigma }, "u", "Au")
        .build();
    let mut s = tr.time("inspector.setup", || {
        DataflowSession::setup(comm, &mesh, stages, |_, _| 0.0, &config)
    });
    st.setup_done = now_ns();
    st.ghosts = u64::from(s.schedule().num_ghosts());
    st.send_volume = s.schedule().total_send_volume() as u64;

    let dot = |comm: &mut C, tr: &mut Tracer, st: &mut RankStats, a: &[f64], b: &[f64]| {
        let local: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let t = now_ns();
        let v = tr.time("solver.allreduce", || {
            comm.allreduce_f64(DOT_TAG, local, |u, v| u + v)
        });
        st.allreduces.push(secs(t, now_ns()));
        v
    };
    let pass = |comm: &mut C, tr: &mut Tracer, st: &mut RankStats, s: &mut DataflowSession| {
        let t = now_ns();
        let stats = tr.time("executor.run_block", || s.run_block(comm, 1));
        st.iterate_s += secs(t, now_ns());
        st.sweep_s += stats.compute_time;
        st.applications += 1;
    };

    let mut out = CgOut::default();
    let mut v = Vectors::default();
    // The controller weighs a remap against the passes left in the run,
    // estimated from the previous step's iterations (the cap before the
    // first step ends).
    let mut per_step = a.max_iters;
    for (step, b) in a.rhs.iter().enumerate() {
        let (step_start, apps_before) = (now_ns(), st.applications);
        let iv = s.partition().interval_of(comm.rank());
        v.r = b[iv.start..iv.end].to_vec();
        v.x = vec![0.0; iv.len()];
        s.set_local("r", &v.r);
        let rr0 = dot(comm, &mut tr, &mut st, &v.r, &v.r);
        pass(comm, &mut tr, &mut st, &mut s);
        v.pull(&s, &["u", "Au"]);
        let mut gamma = dot(comm, &mut tr, &mut st, &v.r, &v.u);
        let delta = dot(comm, &mut tr, &mut st, &v.au, &v.u);
        v.p.clone_from(&v.u);
        v.ap.clone_from(&v.au);
        let mut alpha = gamma / delta;
        let mut iters = a.max_iters;
        for k in 0..a.max_iters {
            tr.time("solver.update", || {
                for i in 0..v.x.len() {
                    v.x[i] += alpha * v.p[i];
                    v.r[i] -= alpha * v.ap[i];
                }
            });
            let rr = dot(comm, &mut tr, &mut st, &v.r, &v.r);
            if rr <= rr0 * a.tol * a.tol {
                iters = k + 1;
                break;
            }
            s.set_local("r", &v.r);
            pass(comm, &mut tr, &mut st, &mut s);
            v.pull(&s, &["u", "Au"]);
            let gamma_new = dot(comm, &mut tr, &mut st, &v.r, &v.u);
            let delta = dot(comm, &mut tr, &mut st, &v.au, &v.u);
            let beta = gamma_new / gamma;
            alpha = gamma_new / (delta - beta * gamma_new / alpha);
            gamma = gamma_new;
            tr.time("solver.update", || {
                for i in 0..v.p.len() {
                    v.p[i] = v.u[i] + beta * v.p[i];
                    v.ap[i] = v.au[i] + beta * v.ap[i];
                }
            });
            if (k + 1) % config.check_interval == 0 {
                // The session moves every field on a remap; the host
                // vectors go in first and come back out after.
                v.push(&mut s);
                let before = s.partition().clone();
                let t = now_ns();
                let remaining =
                    per_step.saturating_sub(k + 1) + (a.rhs.len() - step - 1) * per_step;
                let (remapped, check_cost, rebalance_cost) =
                    tr.time("balance.check", || s.check_and_rebalance(comm, remaining));
                st.checks.push(Check {
                    secs: secs(t, now_ns()),
                    remapped,
                    moved: crate::rank::moved_elements(&before, s.partition()),
                });
                st.check_cost += check_cost;
                if remapped {
                    st.rebalance_cost += rebalance_cost;
                    v.pull(&s, &FIELDS);
                }
            }
        }
        st.slices
            .push((st.applications - apps_before, secs(step_start, now_ns())));
        per_step = iters;
        out.iters.push(iters);
        out.x.push(v.x.clone());
        out.sizes.push(s.partition().sizes());
        v.push(&mut s);
        let t = now_ns();
        let ckpt = tr.time("core.checkpoint", || s.checkpoint(comm));
        st.checkpoints.push(secs(t, now_ns()));
        if st.checkpoint_bytes == 0 {
            st.checkpoint_bytes = ckpt.to_bytes().len() as u64;
        }
    }
    st.iter_end = now_ns();
    st.body_end = now_ns();
    tr.end(body);
    st.spans = tr.into_spans();
    out.stats = st;
    out
}

/// One repetition's results for checking: `x` per step in raw labels (or
/// `None` if a rank did not complete) and the iterations per step.
struct Done {
    rep: Rep,
    ordering: Ordering,
    mesh: Graph,
    x: Option<Vec<Vec<f64>>>,
    iters: Vec<usize>,
}

fn args_for(w: &Cg, mesh: &Graph, ordering: &Ordering, trace: bool, run: usize) -> CgArgs {
    let pos = ordering.positions();
    let rhs = w
        .rhs
        .iter()
        .map(|b| {
            let mut ordered = vec![0.0; b.len()];
            for (v, &bv) in b.iter().enumerate() {
                ordered[pos[v] as usize] = bv;
            }
            ordered
        })
        .collect();
    CgArgs {
        trace,
        run,
        n: mesh.num_vertices(),
        edges: mesh.edges().flat_map(|(u, v)| [u, v]).collect(),
        sigma: w.sigma,
        tol: w.tol,
        max_iters: w.max_iters,
        rhs,
    }
}

fn cg_rep(w: &Cg, exe: &Path, trace: bool, run: usize) -> Done {
    let mut tr = Tracer::new(trace, None, run);
    let solve = tr.begin("solve");
    let mut rep = Rep {
        traced: trace,
        n: w.raw.num_vertices(),
        t0: now_ns(),
        ..Rep::default()
    };
    let ordering = tr.time("locality.order", || {
        compute_ordering(&w.raw, OrderingMethod::Rcb)
    });
    let (mesh, args) = tr.time("locality.relabel", || {
        let mesh = ordering.apply(&w.raw);
        let args = args_for(w, &mesh, &ordering, trace, run);
        (mesh, args)
    });
    let open = tr.begin("tcp.run");
    rep.run_start = now_ns();
    let report = TcpCluster::new(w.p, exe).run_scenario("perfbench-cg", &args.to_wire());
    rep.run_end = now_ns();
    let mut outs = Vec::with_capacity(w.p);
    for outcome in report.outcomes() {
        match outcome {
            RankOutcome::Completed(bytes) => outs.push(CgOut::from_wire(bytes)),
            other => eprintln!("cg-tcp: a rank did not complete: {other:?}"),
        }
    }
    for o in &mut outs {
        tr.adopt(std::mem::take(&mut o.stats.spans));
    }
    tr.end(open);
    let complete = outs.len() == w.p;
    let x = complete.then(|| {
        tr.time("core.reassemble", || {
            let pos = ordering.positions();
            (0..w.rhs.len())
                .map(|t| {
                    let partition = BlockPartition::from_sizes(&outs[0].sizes[t]);
                    let blocks = outs.iter().map(|o| o.x[t].clone()).collect();
                    let ordered = reassemble(&partition, blocks);
                    pos.iter().map(|&q| ordered[q as usize]).collect()
                })
                .collect()
        })
    });
    rep.end = now_ns();
    tr.end(solve);
    rep.spans = tr.into_spans();
    let iters = outs.first().map(|o| o.iters.clone()).unwrap_or_default();
    rep.ranks = outs.into_iter().map(|o| o.stats).collect();
    Done {
        rep,
        ordering,
        mesh,
        x,
        iters,
    }
}

fn rel_error(x: &[f64], x_star: &[f64]) -> f64 {
    let num: f64 = x.iter().zip(x_star).map(|(a, b)| (a - b) * (a - b)).sum();
    let den: f64 = x_star.iter().map(|b| b * b).sum();
    (num / den).sqrt()
}

/// Sequential Jacobi-preconditioned CG on one process: the single-processor
/// rate of the efficiency metric. Returns the iterations the solve took.
fn sequential_cg(mesh: &Graph, b: &[f64], sigma: f64, tol: f64, max_iters: usize) -> usize {
    let n = mesh.num_vertices();
    let dinv: Vec<f64> = (0..n)
        .map(|i| 1.0 / (mesh.degree(i) as f64 + sigma))
        .collect();
    let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut z: Vec<f64> = r.iter().zip(&dinv).map(|(a, d)| a * d).collect();
    let mut p = z.clone();
    let mut ap = vec![0.0; n];
    let rr0 = dot(&r, &r);
    let mut rz = dot(&r, &z);
    for k in 0..max_iters {
        sequential_laplacian_matvec(mesh, &p, sigma, &mut ap);
        let alpha = rz / dot(&p, &ap);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        if dot(&r, &r) <= rr0 * tol * tol {
            std::hint::black_box(&x);
            return k + 1;
        }
        for i in 0..n {
            z[i] = r[i] * dinv[i];
        }
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    max_iters
}

pub fn run(w: &Cg, args: &Args) -> Outcome {
    let exe = std::env::current_exe().expect("the benchmark knows its own executable");
    let bound = w.error_bound();
    let n = w.raw.num_vertices();
    // The first checked repetition's ordered mesh and right-hand sides; the
    // sequential reference solves one step of them right after every
    // repetition.
    let mut first: Option<(Done, Vec<Vec<f64>>)> = None;
    let mut iters_seen: Vec<Vec<usize>> = Vec::new();
    let mut heap = 0;
    let mut reps = repeat(args.seconds, MIN_REPS, args.trace, |run, traced| {
        let mut done = cg_rep(w, &exe, traced, run);
        let ok = match &mut done.x {
            Some(x) => {
                if args.corrupt {
                    corrupt(&mut x[0]);
                }
                done.iters.iter().all(|&i| i < w.max_iters)
                    && x.iter()
                        .zip(&w.x_star)
                        .all(|(x, x_star)| rel_error(x, x_star) <= bound)
            }
            None => false,
        };
        let mut rep = std::mem::take(&mut done.rep);
        rep.ok = ok;
        iters_seen.push(done.iters.clone());
        // Peak memory of the largest rank process over every repetition.
        heap = rep
            .ranks
            .iter()
            .map(|s| s.peak_heap_bytes)
            .fold(heap, u64::max);
        if first.is_none() && ok {
            let rhs = args_for(w, &done.mesh, &done.ordering, false, 0).rhs;
            first = Some((done, rhs));
        }
        if let Some((f, rhs)) = &first {
            let b = &rhs[run % rhs.len()];
            let t = std::time::Instant::now();
            let k = sequential_cg(&f.mesh, b, w.sigma, w.tol, w.max_iters);
            rep.seq_rate = (n * k) as f64 / t.elapsed().as_secs_f64();
        }
        rep
    });
    let failed = reps.iter().filter(|r| !r.ok).count() as u64;
    let mut out = Outcome {
        attempted: reps.len() as u64,
        failed,
        ..Outcome::default()
    };
    let Some((first, _)) = first else {
        return out;
    };
    let untraced = select(&reps, false);
    if untraced.is_empty() {
        return out;
    }
    let cut = edge_cut(&w.raw, &first.ordering, &BlockPartition::uniform(n, 8));
    out.e2e = e2e_metrics(&untraced, dedicated_efficiency(&untraced, w.p));
    out.detail = vec![
        metric(
            "solver.cg_iters",
            first.iters.iter().sum::<usize>() as f64,
            "count",
        ),
        metric(
            "solver.cg_iters_changed",
            iters_seen
                .iter()
                .filter(|i| !i.is_empty() && **i != first.iters)
                .count() as f64,
            "count",
        ),
        checkpoint_ms_p50(&untraced),
        peak_heap_mb(heap),
    ];
    out.detail.extend(steal_metrics(&reps));
    if args.trace {
        let leg_args = args_for(w, &first.mesh, &first.ordering, false, 0).to_wire();
        let leg: Vec<Leg> = TcpCluster::new(w.p, &exe)
            .run_scenario("perfbench-leg", &leg_args)
            .into_results()
            .iter()
            .map(|b| Leg::from_wire(b))
            .collect();
        let traced = select(&reps, true);
        if !traced.is_empty() {
            let untraced_solve = median(&untraced.iter().map(|r| r.solve_s()).collect::<Vec<_>>());
            out.layers = layer_metrics(
                &traced,
                &leg,
                &|s: &RankStats| s.sweep_s,
                untraced_solve,
                cut,
            );
            let allreduce: Vec<f64> = traced
                .iter()
                .flat_map(|r| r.ranks.iter().flat_map(|s| s.allreduces.iter().copied()))
                .collect();
            out.detail.push(metric(
                "tcp.launch_s",
                median(
                    &traced
                        .iter()
                        .map(|r| r.run_overhead_s())
                        .collect::<Vec<_>>(),
                ),
                "s",
            ));
            out.detail.push(metric(
                "tcp.allreduce_us_p50",
                median(&allreduce) * 1e6,
                "us",
            ));
        }
        out.spans = reps
            .iter_mut()
            .flat_map(|r| std::mem::take(&mut r.spans))
            .collect();
    }
    out
}
