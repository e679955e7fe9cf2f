//! What every rank runs, on any backend: the relaxation body (the paper's
//! Fig. 8 loop with load-balance checks and checkpoints) and the traced
//! gather/kernel leg. Both are generic over `Comm`, so the native, TCP and
//! simulated workloads time the same calls.

use stance::executor::{gather, ComputeCostModel};
use stance::inspector::{build_schedule_symmetric, LocalAdjacency};
use stance::prelude::*;
use stance_tcp::codec::Wire;

use crate::trace::{now_ns, secs, Span, Tracer};

/// Iterations between checkpoints, on every relaxation workload.
pub const CHECKPOINT_EVERY: usize = 100;

/// Iterations of the traced gather/kernel leg.
pub const LEG_ITERS: usize = 200;

/// The relaxation's initial value of (ordered) vertex `g`.
pub fn initial(phase: f64, g: usize) -> f64 {
    (0.37 * g as f64 + phase).sin()
}

/// One `check_and_rebalance` call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Check {
    pub secs: f64,
    pub remapped: bool,
    /// Elements whose owner changed.
    pub moved: u64,
}

/// One rank's timings and counts for one repetition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankStats {
    pub body_start: u64,
    pub setup_done: u64,
    pub iter_end: u64,
    pub body_end: u64,
    /// Kernel applications (sweeps or solver passes).
    pub applications: u64,
    /// Seconds inside `run_block`.
    pub iterate_s: f64,
    /// The iteration phase cut into slices — a check interval's blocks and
    /// its check, or a solver's time step — as (kernel applications, wall
    /// seconds); checkpoints are timed on their own.
    pub slices: Vec<(u64, f64)>,
    /// `SessionReport::compute_time` summed over blocks: virtual seconds
    /// on the simulator, wall seconds elsewhere.
    pub sweep_s: f64,
    pub checks: Vec<Check>,
    /// Modeled check and remap cost the session reported.
    pub check_cost: f64,
    pub rebalance_cost: f64,
    /// Wall seconds of each `checkpoint()` call.
    pub checkpoints: Vec<f64>,
    pub checkpoint_bytes: u64,
    pub ghosts: u64,
    pub send_volume: u64,
    /// Wall seconds of each `allreduce_f64` call (solver workloads).
    pub allreduces: Vec<f64>,
    /// Peak live heap bytes, measured by rank processes.
    pub peak_heap_bytes: u64,
    pub spans: Vec<Span>,
}

impl RankStats {
    pub fn setup_s(&self) -> f64 {
        secs(self.body_start, self.setup_done)
    }
    pub fn body_s(&self) -> f64 {
        secs(self.body_start, self.body_end)
    }
    pub fn check_s(&self, remapped: bool) -> f64 {
        self.checks
            .iter()
            .filter(|c| c.remapped == remapped)
            .map(|c| c.secs)
            .sum()
    }
}

impl Wire for Check {
    fn put(&self, out: &mut Vec<u8>) {
        self.secs.put(out);
        self.remapped.put(out);
        self.moved.put(out);
    }
    fn take(input: &mut &[u8]) -> Self {
        Check {
            secs: Wire::take(input),
            remapped: Wire::take(input),
            moved: Wire::take(input),
        }
    }
}

impl Wire for RankStats {
    fn put(&self, out: &mut Vec<u8>) {
        for v in [
            self.body_start,
            self.setup_done,
            self.iter_end,
            self.body_end,
        ] {
            v.put(out);
        }
        self.applications.put(out);
        self.slices.put(out);
        for v in [
            self.iterate_s,
            self.sweep_s,
            self.check_cost,
            self.rebalance_cost,
        ] {
            v.put(out);
        }
        self.checks.put(out);
        self.checkpoints.put(out);
        for v in [self.checkpoint_bytes, self.ghosts, self.send_volume] {
            v.put(out);
        }
        self.allreduces.put(out);
        self.peak_heap_bytes.put(out);
        self.spans.put(out);
    }
    fn take(input: &mut &[u8]) -> Self {
        RankStats {
            body_start: Wire::take(input),
            setup_done: Wire::take(input),
            iter_end: Wire::take(input),
            body_end: Wire::take(input),
            applications: Wire::take(input),
            slices: Wire::take(input),
            iterate_s: Wire::take(input),
            sweep_s: Wire::take(input),
            check_cost: Wire::take(input),
            rebalance_cost: Wire::take(input),
            checks: Wire::take(input),
            checkpoints: Wire::take(input),
            checkpoint_bytes: Wire::take(input),
            ghosts: Wire::take(input),
            send_volume: Wire::take(input),
            allreduces: Wire::take(input),
            peak_heap_bytes: Wire::take(input),
            spans: Wire::take(input),
        }
    }
}

/// Elements whose owner differs between two partitions of the same range.
pub fn moved_elements(before: &BlockPartition, after: &BlockPartition) -> u64 {
    let kept: usize = (0..before.num_procs())
        .map(|r| {
            let (a, b) = (before.interval_of(r), after.interval_of(r));
            b.end.min(a.end).saturating_sub(b.start.max(a.start))
        })
        .sum();
    (before.n() - kept) as u64
}

/// One rank's relaxation: setup, then `iters` sweeps in blocks of the
/// configured check interval, a checkpoint every [`CHECKPOINT_EVERY`]
/// iterations and a load-balance check between blocks — the loop of
/// `AdaptiveSession::run_adaptive`, driven call by call so each call is
/// timed. Returns the owned values, the final partition and the stats.
pub fn relax_body<C: Comm>(
    comm: &mut C,
    mesh: &Graph,
    phase: f64,
    iters: usize,
    config: &StanceConfig,
    tr: &mut Tracer,
) -> (Vec<f64>, BlockPartition, RankStats) {
    let body = tr.begin("rank.body");
    let mut st = RankStats {
        body_start: now_ns(),
        ..RankStats::default()
    };
    let mut session = tr.time("inspector.setup", || {
        AdaptiveSession::setup(comm, mesh, RelaxationKernel, |g| initial(phase, g), config)
    });
    st.setup_done = now_ns();
    st.ghosts = u64::from(session.schedule().num_ghosts());
    st.send_volume = session.schedule().total_send_volume() as u64;
    let mut done = 0;
    while done < iters {
        let block = config.check_interval.min(iters - done);
        let t = now_ns();
        let stats = tr.time("executor.run_block", || session.run_block(comm, block));
        let mut slice = secs(t, now_ns());
        st.iterate_s += slice;
        st.sweep_s += stats.compute_time;
        st.applications += block as u64;
        done += block;
        if done % CHECKPOINT_EVERY == 0 && done < iters {
            let t = now_ns();
            let ckpt = tr.time("core.checkpoint", || session.checkpoint(comm, &[]));
            st.checkpoints.push(secs(t, now_ns()));
            if st.checkpoint_bytes == 0 {
                st.checkpoint_bytes = ckpt.to_bytes().len() as u64;
            }
        }
        if done < iters {
            let before = session.partition().clone();
            let t = now_ns();
            let (remapped, check_cost, rebalance_cost) = tr.time("balance.check", || {
                session.check_and_rebalance(comm, iters - done)
            });
            let elapsed = secs(t, now_ns());
            slice += elapsed;
            st.check_cost += check_cost;
            if remapped {
                st.rebalance_cost += rebalance_cost;
            }
            st.checks.push(Check {
                secs: elapsed,
                remapped,
                moved: moved_elements(&before, session.partition()),
            });
        }
        st.slices.push((block as u64, slice));
    }
    st.iter_end = now_ns();
    let values = session.local_values().to_vec();
    let partition = session.partition().clone();
    st.body_end = now_ns();
    tr.end(body);
    (values, partition, st)
}

/// Per-call wall seconds of the traced leg.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Leg {
    pub gather: Vec<f64>,
    pub kernel: Vec<f64>,
}

impl Wire for Leg {
    fn put(&self, out: &mut Vec<u8>) {
        self.gather.put(out);
        self.kernel.put(out);
    }
    fn take(input: &mut &[u8]) -> Self {
        Leg {
            gather: Wire::take(input),
            kernel: Wire::take(input),
        }
    }
}

/// The traced leg: builds this rank's schedule for a uniform partition and
/// drives it through the public `gather` and `Kernel::sweep`, timing each
/// call on its own.
pub fn leg_body<C: Comm, K: Kernel<f64>>(comm: &mut C, mesh: &Graph, kernel: &K) -> Leg {
    let rank = comm.rank();
    let partition = BlockPartition::uniform(mesh.num_vertices(), comm.size());
    let adj = LocalAdjacency::extract(mesh, &partition, rank);
    let (schedule, _) = build_schedule_symmetric(&partition, &adj, rank, ScheduleStrategy::Sort2);
    let tadj = schedule.translate_adjacency(&adj);
    let local: Vec<f64> = partition
        .interval_of(rank)
        .iter()
        .map(|g| initial(0.0, g))
        .collect();
    let mut values = GhostedArray::from_local(local, schedule.num_ghosts() as usize);
    let mut bufs = CommBuffers::for_schedule(&schedule);
    let cost = ComputeCostModel::sun4();
    let mut out = vec![0.0; values.local_len()];
    let mut leg = Leg::default();
    for _ in 0..LEG_ITERS {
        let t = now_ns();
        gather(comm, &schedule, &mut values, &cost, &mut bufs);
        let t1 = now_ns();
        kernel.sweep(&tadj, values.combined(), &mut out);
        let t2 = now_ns();
        std::hint::black_box(&out);
        values.local_mut().copy_from_slice(&out);
        leg.gather.push(secs(t, t1));
        leg.kernel.push(secs(t1, t2));
    }
    leg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moved_elements_counts_owner_changes() {
        let a = BlockPartition::from_sizes(&[5, 5]);
        let b = BlockPartition::from_sizes(&[3, 7]);
        assert_eq!(moved_elements(&a, &b), 2);
        assert_eq!(moved_elements(&a, &a), 0);
    }

    #[test]
    fn rank_stats_survive_the_wire() {
        let st = RankStats {
            body_start: 1,
            setup_done: 2,
            checks: vec![Check {
                secs: 0.5,
                remapped: true,
                moved: 9,
            }],
            checkpoints: vec![0.25],
            peak_heap_bytes: 77,
            ..RankStats::default()
        };
        assert_eq!(RankStats::from_wire(&st.to_wire()), st);
    }
}
