//! Repetitions, the statistics over them, host facts and the JSON the
//! benchmark prints.

use crate::rank::{Leg, RankStats};
use crate::trace::{accounted, children, secs, Span};

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Gated end-to-end metrics (untraced repetitions).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics every workload has (traced repetitions).
    pub layers: Vec<Metric>,
    /// Metrics only this workload's backend or layers produce.
    pub detail: Vec<Metric>,
    pub spans: Vec<Span>,
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile, `q` in (0, 1].
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One repetition of a workload: the coordinator's timestamps (nanoseconds
/// since the Unix epoch) around its calls, and every rank's stats.
#[derive(Debug, Default)]
pub struct Rep {
    pub traced: bool,
    /// Whether the repetition's result passed its check; only checked
    /// repetitions become numbers.
    pub ok: bool,
    /// Vertices of the mesh.
    pub n: usize,
    pub t0: u64,
    pub run_start: u64,
    pub run_end: u64,
    pub end: u64,
    pub ranks: Vec<RankStats>,
    pub spans: Vec<Span>,
    /// Sequential reference rate (vertex updates per second) sampled right
    /// after this repetition, on dedicated hosts.
    pub seq_rate: f64,
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    pub steal: f64,
}

impl Rep {
    /// Generated inputs to reassembled result.
    pub fn solve_s(&self) -> f64 {
        secs(self.t0, self.end)
    }
    /// Generated inputs to the first iteration (the last rank to finish
    /// setup starts the collective iteration).
    pub fn setup_s(&self) -> f64 {
        secs(self.t0, self.max_of(|r| r.setup_done))
    }
    fn max_of(&self, f: impl Fn(&RankStats) -> u64) -> u64 {
        self.ranks.iter().map(f).max().expect("at least one rank")
    }
    fn max_f(&self, f: impl Fn(&RankStats) -> f64) -> f64 {
        self.ranks.iter().map(f).fold(f64::MIN, f64::max)
    }
    fn min_f(&self, f: impl Fn(&RankStats) -> f64) -> f64 {
        self.ranks.iter().map(f).fold(f64::MAX, f64::min)
    }
    /// Owned vertices × kernel applications per second in every slice of
    /// the iteration phase, each slice timed on its slowest rank.
    pub fn slice_rates(&self) -> Vec<f64> {
        (0..self.ranks[0].slices.len())
            .map(|i| {
                let apps = self.ranks[0].slices[i].0;
                self.n as f64 * apps as f64 / self.max_f(|r| r.slices[i].1)
            })
            .collect()
    }
    /// The backend call's wall time beyond the slowest rank body.
    pub fn run_overhead_s(&self) -> f64 {
        secs(self.run_start, self.run_end) - self.max_f(RankStats::body_s)
    }
    /// `checkpoint()` calls, each timed on the rank that entered it last
    /// (the others' time also holds their wait for it).
    pub fn checkpoint_secs(&self) -> Vec<f64> {
        (0..self.ranks[0].checkpoints.len())
            .map(|i| self.min_f(|r| r.checkpoints[i]))
            .collect()
    }
    /// `check_and_rebalance` calls that remapped, each timed on the rank
    /// that entered it last.
    pub fn remap_secs(&self) -> Vec<f64> {
        let r0 = &self.ranks[0].checks;
        (0..r0.len())
            .filter(|&i| r0[i].remapped)
            .map(|i| self.min_f(|r| r.checks[i].secs))
            .collect()
    }
    /// Seconds in the coordinator's spans named `name`.
    pub fn span_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.rank.is_none() && s.name == name)
            .map(Span::secs)
            .sum()
    }
    /// Share of `solve_s` that no layer span accounts for.
    pub fn unaccounted_frac(&self) -> f64 {
        let kids = children(&self.spans);
        let root = self
            .spans
            .iter()
            .position(|s| s.name == "solve")
            .expect("a traced repetition has a solve span");
        1.0 - accounted(&self.spans, &kids, root) / self.spans[root].secs()
    }
}

/// Median vertex-update rate over every slice of every repetition: the
/// iteration phase's throughput, robust to the stalls a shared host
/// injects into single slices.
pub fn vupdates_per_s(reps: &[&Rep]) -> f64 {
    median(
        &reps
            .iter()
            .flat_map(|r| r.slice_rates())
            .collect::<Vec<_>>(),
    )
}

/// The §4 efficiency `E = 1/Σ fᵢ(T)` on dedicated processors, where
/// `fᵢ(T) = T/T_seq`: each repetition's parallel rate over `p` times the
/// sequential rate sampled right after it — so a host whose speed drifts
/// during the run cancels out of the ratio — and the median over
/// repetitions.
pub fn dedicated_efficiency(reps: &[&Rep], p: usize) -> f64 {
    let e: Vec<f64> = reps
        .iter()
        .filter(|r| r.seq_rate.is_finite() && r.seq_rate > 0.0)
        .map(|r| median(&r.slice_rates()) / (p as f64 * r.seq_rate))
        .collect();
    median(&e)
}

/// Median wall milliseconds per `checkpoint()` call over every repetition.
pub fn checkpoint_ms_p50(reps: &[&Rep]) -> Metric {
    let ckpt: Vec<f64> = reps.iter().flat_map(|r| r.checkpoint_secs()).collect();
    metric("checkpoint_ms_p50", median(&ckpt) * 1e3, "ms")
}

/// The gated end-to-end metrics every workload prints.
pub fn e2e_metrics(reps: &[&Rep], efficiency: f64) -> Vec<Metric> {
    let per = |f: fn(&Rep) -> f64| median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>());
    vec![
        metric("solve_s", per(Rep::solve_s), "s"),
        metric("setup_s", per(Rep::setup_s), "s"),
        metric("vupdates_per_s", vupdates_per_s(reps), "1/s"),
        metric("adaptive_efficiency", efficiency, "ratio"),
    ]
}

/// Peak live heap bytes as a metric in MB.
pub fn peak_heap_mb(bytes: u64) -> Metric {
    metric("peak_heap_mb", bytes as f64 / (1024.0 * 1024.0), "MB")
}

/// The per-layer metrics every workload prints, as medians over the traced
/// repetitions. `sweep_s` gives a rank's executor sweep seconds (the
/// session's own report on wall-clock backends). `untraced_solve_s` is the
/// median `solve_s` of the untraced repetitions of the same run;
/// `cut_edges_p8` is the ordering's edge cut under a uniform 8-way block
/// partition.
pub fn layer_metrics(
    traced: &[&Rep],
    leg: &[Leg],
    sweep_s: &dyn Fn(&RankStats) -> f64,
    untraced_solve_s: f64,
    cut_edges_p8: usize,
) -> Vec<Metric> {
    let per = |f: &dyn Fn(&Rep) -> f64| median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
    let slowest =
        |r: &Rep, f: &dyn Fn(&RankStats) -> f64| r.ranks.iter().map(f).fold(f64::MIN, f64::max);
    let sum = |r: &Rep, f: &dyn Fn(&RankStats) -> f64| r.ranks.iter().map(f).sum::<f64>();
    let first = traced[0];
    let send_volume = sum(first, &|s| s.send_volume as f64);
    let gather: Vec<f64> = leg.iter().flat_map(|l| l.gather.iter().copied()).collect();
    let kernel: Vec<f64> = leg.iter().flat_map(|l| l.kernel.iter().copied()).collect();
    let iterate = per(&|r| slowest(r, &|s| s.iterate_s));
    let sweep = per(&|r| slowest(r, sweep_s));
    vec![
        metric(
            "locality.order_s",
            per(&|r| r.span_s("locality.order")),
            "s",
        ),
        metric("locality.cut_edges_p8", cut_edges_p8 as f64, "count"),
        metric(
            "locality.relabel_s",
            per(&|r| r.span_s("locality.relabel")),
            "s",
        ),
        metric(
            "inspector.setup_s",
            per(&|r| slowest(r, &RankStats::setup_s)),
            "s",
        ),
        metric(
            "inspector.ghosts",
            sum(first, &|s| s.ghosts as f64),
            "count",
        ),
        metric("inspector.send_volume", send_volume, "count"),
        metric("executor.iterate_s", iterate, "s"),
        metric("executor.sweep_s", sweep, "s"),
        metric("executor.exchange_s", iterate - sweep, "s"),
        metric(
            "executor.rank_imbalance",
            per(&|r| {
                let v: Vec<f64> = r.ranks.iter().map(sweep_s).collect();
                v.iter().copied().fold(f64::MIN, f64::max)
                    / v.iter().copied().fold(f64::MAX, f64::min)
            }),
            "ratio",
        ),
        metric("executor.gather_s", median(&gather), "s"),
        metric("executor.kernel_s", median(&kernel), "s"),
        metric("executor.bytes_per_iter", send_volume * 8.0, "B"),
        metric(
            "balance.checks",
            first.ranks[0].checks.len() as f64,
            "count",
        ),
        metric(
            "balance.remaps",
            first.ranks[0].checks.iter().filter(|c| c.remapped).count() as f64,
            "count",
        ),
        metric(
            "balance.check_s",
            per(&|r| slowest(r, &|s| s.check_s(false))),
            "s",
        ),
        metric(
            "onedim.moved_elements",
            first.ranks[0].checks.iter().map(|c| c.moved as f64).sum(),
            "count",
        ),
        metric(
            "core.checkpoint_s",
            per(&|r| slowest(r, &|s| s.checkpoints.iter().sum())),
            "s",
        ),
        metric(
            "core.checkpoint_bytes",
            first.ranks[0].checkpoint_bytes as f64,
            "B",
        ),
        metric(
            "core.reassemble_s",
            per(&|r| r.span_s("core.reassemble")),
            "s",
        ),
        metric(
            "trace.unaccounted_frac",
            per(&Rep::unaccounted_frac),
            "ratio",
        ),
        metric(
            "trace.overhead_frac",
            per(&Rep::solve_s) / untraced_solve_s - 1.0,
            "ratio",
        ),
    ]
}

/// Largest share of the machine's CPU time the hypervisor may steal during
/// a repetition for its timings to count. On a shared virtual machine,
/// steal episodes slow every rank by up to 3× for tens of seconds; the
/// timings then measure the neighbours, not this program.
pub const MAX_STEAL: f64 = 0.05;

/// System-wide (stolen, total) CPU jiffies from `/proc/stat`, if readable.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// Runs `rep(run, traced)` until `seconds` have passed and at least
/// `min_reps` repetitions are done without steal above [`MAX_STEAL`]; a
/// stolen repetition is still checked, but its timings count only if no
/// clean one exists. Stops adding repetitions for steal once `2 × seconds`
/// have passed. With tracing on, repetitions alternate untraced and traced,
/// so the traced run also measures its own overhead.
pub fn repeat(
    seconds: f64,
    min_reps: usize,
    trace: bool,
    mut rep: impl FnMut(usize, bool) -> Rep,
) -> Vec<Rep> {
    let start = std::time::Instant::now();
    let min_reps = if trace { min_reps.max(2) * 2 } else { min_reps };
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let clean = reps.iter().filter(|r| r.steal <= MAX_STEAL).count();
        if reps.len() >= min_reps
            && elapsed >= seconds
            && (clean >= min_reps || elapsed >= 2.0 * seconds)
        {
            return reps;
        }
        let run = reps.len();
        let before = cpu_jiffies();
        let mut r = rep(run, trace && run % 2 == 1);
        if let (Some((s0, t0)), Some((s1, t1))) = (before, cpu_jiffies()) {
            r.steal = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        }
        reps.push(r);
    }
}

/// The checked repetitions with the given tracing state: those without
/// steal above [`MAX_STEAL`], or all of them if none is clean.
pub fn select(reps: &[Rep], traced: bool) -> Vec<&Rep> {
    let ok: Vec<&Rep> = reps.iter().filter(|r| r.ok && r.traced == traced).collect();
    let clean: Vec<&Rep> = ok
        .iter()
        .copied()
        .filter(|r| r.steal <= MAX_STEAL)
        .collect();
    if clean.is_empty() {
        ok
    } else {
        clean
    }
}

/// The host's steal over a run: the median share of CPU time stolen per
/// repetition, and how many repetitions lost more than [`MAX_STEAL`].
pub fn steal_metrics(reps: &[Rep]) -> [Metric; 2] {
    let steal: Vec<f64> = reps.iter().map(|r| r.steal).collect();
    [
        metric("host.steal_frac", median(&steal), "ratio"),
        metric(
            "host.stolen_reps",
            steal.iter().filter(|&&s| s > MAX_STEAL).count() as f64,
            "count",
        ),
    ]
}

/// Peak resident set of this process in KiB (`VmHWM`), for information.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Host facts read at run time.
pub struct Host {
    pub nproc: usize,
    pub l2_bytes: Option<u64>,
    pub l3_bytes: Option<u64>,
}

impl Host {
    pub fn read() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let cache = |level: &str| -> Option<u64> {
            (0..8).find_map(|i| {
                let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
                let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
                let ty = read("type")?;
                if read("level")?.trim() != level || ty.trim() == "Instruction" {
                    return None;
                }
                let size = read("size")?;
                let size = size.trim();
                let (num, mult) = match size.strip_suffix('K') {
                    Some(k) => (k, 1024),
                    None => match size.strip_suffix('M') {
                        Some(m) => (m, 1024 * 1024),
                        None => (size, 1),
                    },
                };
                num.parse::<u64>().ok().map(|v| v * mult)
            })
        };
        Host {
            nproc,
            l2_bytes: cache("2"),
            l3_bytes: cache("3"),
        }
    }
}

/// A number as JSON (`null` if not finite).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
    }

    #[test]
    fn metrics_render_as_json() {
        let s = metrics_json(&[metric("a", 1.5, "s"), metric("b", 2.0, "count")]);
        assert_eq!(
            s,
            "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}"
        );
    }
}
