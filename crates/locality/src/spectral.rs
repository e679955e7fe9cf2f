//! Recursive spectral bisection (RSB) indexing.
//!
//! The paper's experiments transform the mesh "into a one-dimensional array
//! using Recursive Spectral Bisection-based indexing \[19\]". RSB sorts the
//! vertices of (each recursive half of) the graph by their component in the
//! **Fiedler vector** — the eigenvector of the graph Laplacian `L = D − A`
//! belonging to the second-smallest eigenvalue — which is the classic
//! smoothest nontrivial embedding of the graph on a line (Pothen, Simon &
//! Liou \[26\] in the paper's bibliography).
//!
//! Everything is self-contained. A graph of `n ≥ 160` vertices gets its
//! Fiedler vector from a Lanczos iteration (deflating the trivial constant
//! eigenvector) with partial reorthogonalization: Simon's ω-recurrence
//! estimates how far the basis has drifted from orthogonal, and the new
//! vector is orthogonalized against the whole basis only when an estimate
//! passes `√ε`. A smaller graph, on which the 80-step run would span more
//! than half the space (`2·steps > n`) and lose orthogonality faster than
//! the estimate tracks, is solved exactly instead: its dense Laplacian is
//! reduced to tridiagonal form by Householder reflections. Either way the
//! one eigenpair needed from a tridiagonal matrix comes from a Sturm-count
//! bisection for the eigenvalue and inverse iteration for its vector.
//! Each subproblem's graph is induced from its parent's, so the
//! bookkeeping shrinks with the recursion.
//!
//! # Concurrency and determinism
//!
//! The two halves of a bisection (and the pieces of a disconnected graph)
//! are independent subproblems. When both sides hold at least
//! `PARALLEL_CUTOFF` vertices, [`spectral_ordering`] orders the left side on
//! a scoped thread and the right side on the current one, splitting the
//! `available_parallelism()` budget in halves down the tree. Each subproblem
//! is a pure function of its vertex set, and the segments are always
//! concatenated left then right, so the returned [`Ordering`] is
//! bit-for-bit the same for every thread count and every schedule.

use std::num::NonZeroUsize;

use crate::graph::Graph;
use crate::ordering::Ordering;

/// Subproblems at or below this size are ordered by BFS instead of another
/// eigen-solve (an eigen-solve on tiny graphs is all overhead).
const SMALL_CUTOFF: usize = 8;

/// Sibling subproblems are ordered concurrently only when both sides have at
/// least this many vertices (below it a thread spawn costs more than it
/// saves).
const PARALLEL_CUTOFF: usize = 1024;

/// Maximum Lanczos steps per bisection level.
const MAX_LANCZOS_STEPS: usize = 80;

/// Computes the recursive-spectral-bisection ordering, using up to
/// `available_parallelism()` threads. The result does not depend on the
/// thread count.
pub fn spectral_ordering(graph: &Graph) -> Ordering {
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    spectral_ordering_with(graph, threads)
}

/// [`spectral_ordering`] with an explicit thread budget (`threads ≥ 1`).
fn spectral_ordering_with(graph: &Graph, threads: usize) -> Ordering {
    let ids: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    Ordering::from_sequence(&rsb(graph, &ids, threads))
}

/// Orders the subproblem `sub`, whose vertex `i` is root vertex `back[i]`;
/// returns the root ids as a sequence segment.
fn rsb(sub: &Graph, back: &[u32], threads: usize) -> Vec<u32> {
    if sub.num_vertices() <= SMALL_CUTOFF {
        return order_small(sub, back);
    }
    let (comp, count) = sub.connected_components();
    if count > 1 {
        // Order per component in component order (components are
        // discovered in ascending vertex order, so this is deterministic).
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); count];
        for (v, &c) in comp.iter().enumerate() {
            groups[c as usize].push(v as u32);
        }
        return rsb_groups(sub, back, groups, threads);
    }
    let fiedler = fiedler_vector(sub);
    let mut order: Vec<u32> = (0..sub.num_vertices() as u32).collect();
    order.sort_by(|&a, &b| {
        fiedler[a as usize]
            .partial_cmp(&fiedler[b as usize])
            .expect("Fiedler components are finite")
            .then(a.cmp(&b))
    });
    // Orient to agree with the parent's order: sub id i is the vertex at
    // parent position i (induced_subgraph preserves the passed order), so
    // flipping when the rank correlation is negative keeps sibling segments
    // consistently directed — otherwise the seam edge between two halves can
    // span a whole segment.
    orient_to_parent(&mut order);
    let right = order.split_off(order.len() / 2);
    rsb_groups(sub, back, vec![order, right], threads)
}

/// Orders each group (vertex ids of `parent`) and concatenates the segments
/// in group order. Each group is ordered on its subgraph induced from
/// `parent`, so the induced-subgraph work shrinks with the recursion. The
/// group list is halved recursively; the two halves run concurrently when
/// the budget allows and both hold at least [`PARALLEL_CUTOFF`] vertices.
fn rsb_groups(parent: &Graph, back: &[u32], mut groups: Vec<Vec<u32>>, threads: usize) -> Vec<u32> {
    if groups.len() == 1 {
        let group = groups.pop().expect("one group");
        let (sub, _) = parent.induced_subgraph(&group);
        let sub_back: Vec<u32> = group.iter().map(|&v| back[v as usize]).collect();
        return rsb(&sub, &sub_back, threads);
    }
    let right = groups.split_off(groups.len() / 2);
    let size = |gs: &[Vec<u32>]| gs.iter().map(Vec::len).sum::<usize>();
    let concurrent =
        threads > 1 && size(&groups) >= PARALLEL_CUTOFF && size(&right) >= PARALLEL_CUTOFF;
    let (mut seq, tail) = if concurrent {
        let left_threads = threads / 2;
        std::thread::scope(|s| {
            let left = s.spawn(|| rsb_groups(parent, back, groups, left_threads));
            let tail = rsb_groups(parent, back, right, threads - left_threads);
            (left.join().expect("RSB subtree thread panicked"), tail)
        })
    } else {
        (
            rsb_groups(parent, back, groups, threads),
            rsb_groups(parent, back, right, threads),
        )
    };
    seq.extend(tail);
    seq
}

/// Reverses `order` if it anti-correlates with parent positions (sub ids
/// equal parent ranks, so the Spearman numerator is enough).
fn orient_to_parent(order: &mut [u32]) {
    let n = order.len();
    if n < 2 {
        return;
    }
    let mean = (n as f64 - 1.0) / 2.0;
    let corr: f64 = order
        .iter()
        .enumerate()
        .map(|(pos, &v)| (pos as f64 - mean) * (f64::from(v) - mean))
        .sum();
    if corr < 0.0 {
        order.reverse();
    }
}

/// Orders a small subproblem (vertex `i` is root vertex `back[i]`) by BFS,
/// starting from a pseudo-peripheral vertex (the Cuthill–McKee trick: BFS
/// from an endpoint keeps chains sequential), oriented to match the parent
/// order.
fn order_small(sub: &Graph, back: &[u32]) -> Vec<u32> {
    let n = sub.num_vertices();
    let mut local: Vec<u32> = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        // Double BFS: find the farthest vertex from `start` within this
        // component, then BFS from there.
        let far = bfs_farthest(sub, start, &seen);
        let mut queue = std::collections::VecDeque::new();
        seen[far] = true;
        queue.push_back(far);
        while let Some(u) = queue.pop_front() {
            local.push(u as u32);
            for &v in sub.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    queue.push_back(v as usize);
                }
            }
        }
    }
    orient_to_parent(&mut local);
    local.into_iter().map(|v| back[v as usize]).collect()
}

/// The vertex (within the unvisited component containing `start`) farthest
/// from `start` in BFS hops, ties broken by smallest id.
fn bfs_farthest(sub: &Graph, start: usize, global_seen: &[bool]) -> usize {
    let n = sub.num_vertices();
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[start] = 0;
    queue.push_back(start);
    let mut best = start;
    while let Some(u) = queue.pop_front() {
        if dist[u] > dist[best] || (dist[u] == dist[best] && u < best) {
            best = u;
        }
        for &v in sub.neighbors(u) {
            let v = v as usize;
            if dist[v] == usize::MAX && !global_seen[v] {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    best
}

/// Computes the Fiedler vector of a **connected** graph: the eigenvector of
/// `L = D − A` for the second-smallest eigenvalue, normalized to unit
/// length. The sign is fixed so the first nonzero component is positive
/// (deterministic output).
///
/// A graph on which an 80-step Lanczos run would span more than half the
/// space (`2·steps > n`, i.e. `n < 160`) is solved exactly and densely: the
/// Laplacian is reduced to tridiagonal form by Householder reflections, λ₂
/// is found by Sturm-count bisection, its eigenvector by inverse iteration,
/// and the reflections map that one vector back. Larger graphs get two
/// Lanczos runs of up to 80 steps with partial reorthogonalization (the
/// basis is orthogonalized only when its estimated loss of orthogonality
/// passes `√ε`), the second restarted from the first run's Ritz vector.
///
/// # Panics
/// Panics if the graph is empty.
pub fn fiedler_vector(graph: &Graph) -> Vec<f64> {
    let n = graph.num_vertices();
    assert!(n > 0, "Fiedler vector of an empty graph");
    if n == 1 {
        return vec![0.0];
    }
    if n == 2 {
        return vec![
            -std::f64::consts::FRAC_1_SQRT_2,
            std::f64::consts::FRAC_1_SQRT_2,
        ];
    }

    let mut estimate = if 2 * MAX_LANCZOS_STEPS.min(n - 1) > n {
        dense_fiedler(graph)
    } else {
        // Two passes: the second restarts from the first estimate, which is
        // plenty for partitioning accuracy on meshes.
        let start = deterministic_start(n);
        let restart = lanczos_smallest(graph, &start);
        lanczos_smallest(graph, &restart)
    };

    // Fix sign.
    if let Some(&first) = estimate.iter().find(|&&x| x.abs() > 1e-12) {
        if first < 0.0 {
            for x in &mut estimate {
                *x = -*x;
            }
        }
    }
    estimate
}

/// A deterministic pseudo-random start vector orthogonal to the constant
/// vector.
fn deterministic_start(n: usize) -> Vec<f64> {
    let mut v = weyl(n);
    project_out_ones(&mut v);
    normalize(&mut v);
    v
}

/// `n` terms of a Weyl sequence centred on zero: an irrational rotation is
/// uniform and cheap.
fn weyl(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64 + 1.0) * std::f64::consts::SQRT_2).fract() - 0.5)
        .collect()
}

/// One Lanczos run on the Laplacian, deflating the constant vector; returns
/// the Ritz vector for the smallest remaining eigenvalue (≈ λ₂).
fn lanczos_smallest(graph: &Graph, start: &[f64]) -> Vec<f64> {
    let krylov = lanczos(graph, start);
    let theta = tridiag_eigenvalue(&krylov.alphas, &krylov.betas, 0);
    let s = tridiag_eigenvector(&krylov.alphas, &krylov.betas, theta);
    let mut out = vec![0.0; graph.num_vertices()];
    for (&sj, b) in s.iter().zip(&krylov.basis) {
        axpy(&mut out, sj, b);
    }
    normalize(&mut out);
    out
}

/// The exact Fiedler vector of a small connected graph (`n ≥ 3`), before
/// the sign fix. The dense Laplacian is reduced to a tridiagonal `T = QᵀLQ`
/// with `Q = H_0 ⋯ H_{n−3}`; the eigenvector `y` of `T` for λ₂ maps back to
/// `Q y`. The matrix is stored whole (row-major), so every inner loop runs
/// along a contiguous row.
fn dense_fiedler(graph: &Graph) -> Vec<f64> {
    let n = graph.num_vertices();
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        a[i * n + i] = graph.degree(i) as f64;
        for &j in graph.neighbors(i) {
            a[i * n + j as usize] = -1.0;
        }
    }
    let mut diag = vec![0.0; n];
    let mut offdiag = vec![0.0; n - 1];
    // Step k reflects rows and columns k+1.. with H_k = I − τ_k v vᵀ, which
    // maps row (and column) k past the diagonal to `offdiag[k]·e_{k+1}`;
    // `v` is kept in that row for the back-transform.
    let mut taus = vec![0.0; n - 2];
    let mut v = vec![0.0; n];
    let mut p = vec![0.0; n];
    for k in 0..n - 2 {
        diag[k] = a[k * n + k];
        let lo = k + 1;
        let row_k = k * n + lo..(k + 1) * n;
        v[lo..].copy_from_slice(&a[row_k.clone()]);
        let alpha = norm(&v[lo..]);
        if alpha == 0.0 {
            continue;
        }
        let beta = if v[lo] > 0.0 { -alpha } else { alpha };
        offdiag[k] = beta;
        v[lo] -= beta;
        let tau = -1.0 / (beta * v[lo]);
        taus[k] = tau;
        a[row_k].copy_from_slice(&v[lo..]);
        // p = τ·A₂₂v, column by column (A₂₂ is symmetric).
        p[lo..].fill(0.0);
        for j in lo..n {
            axpy(&mut p[lo..], tau * v[j], &a[j * n + lo..(j + 1) * n]);
        }
        // A₂₂ ← H A₂₂ H = A₂₂ − v wᵀ − w vᵀ with w = p − (τ/2)(pᵀv) v.
        let half = 0.5 * tau * dot(&p[lo..], &v[lo..]);
        axpy(&mut p[lo..], -half, &v[lo..]);
        for i in lo..n {
            let (vi, wi) = (v[i], p[i]);
            let row = a[i * n + lo..(i + 1) * n].iter_mut();
            for ((x, &wj), &vj) in row.zip(&p[lo..]).zip(&v[lo..]) {
                *x -= vi * wj + wi * vj;
            }
        }
    }
    diag[n - 2] = a[(n - 2) * n + n - 2];
    diag[n - 1] = a[(n - 1) * n + n - 1];
    offdiag[n - 2] = a[(n - 2) * n + n - 1];

    let lambda2 = tridiag_eigenvalue(&diag, &offdiag, 1);
    let mut y = tridiag_eigenvector(&diag, &offdiag, lambda2);
    for k in (0..n - 2).rev() {
        let lo = k + 1;
        let v = &a[k * n + lo..(k + 1) * n];
        let s = taus[k] * dot(v, &y[lo..]);
        axpy(&mut y[lo..], -s, v);
    }
    project_out_ones(&mut y);
    normalize(&mut y);
    y
}

/// One Lanczos run: the basis `q_0 … q_{k−1}` and the tridiagonal model
/// (`alphas` of length `k`, `betas` of length `k − 1`).
struct Krylov {
    basis: Vec<Vec<f64>>,
    alphas: Vec<f64>,
    betas: Vec<f64>,
    /// Steps that orthogonalized against the whole basis (read by tests).
    #[cfg_attr(not(test), allow(dead_code))]
    reorthogonalized: usize,
}

/// Lanczos on the Laplacian with the constant vector projected out at every
/// step and partial reorthogonalization (Simon 1984). The ω-recurrence
/// estimates `|q_{j+1}·q_k|`; only when an estimate exceeds `√ε` is the new
/// vector orthogonalized against the whole basis, and the next one after
/// it. That keeps the basis semi-orthogonal at a fraction of the cost.
fn lanczos(graph: &Graph, start: &[f64]) -> Krylov {
    let n = graph.num_vertices();
    let steps = MAX_LANCZOS_STEPS.min(n - 1);
    // A run that nearly spans the space loses orthogonality faster than the
    // estimate tracks it; `fiedler_vector` solves such graphs densely.
    debug_assert!(
        2 * steps <= n,
        "Lanczos on {n} vertices would need full reorthogonalization"
    );
    let eps1 = f64::EPSILON * (n as f64).sqrt();
    let threshold = f64::EPSILON.sqrt();
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(steps);
    let mut alphas: Vec<f64> = Vec::with_capacity(steps);
    let mut betas: Vec<f64> = Vec::with_capacity(steps);
    let mut reorthogonalized = 0;
    // ω_{j−1}, ω_j and ω_{j+1}: the estimated inner products of q_{j−1},
    // q_j and the next vector with the basis.
    let mut omega_prev: Vec<f64> = Vec::with_capacity(steps + 1);
    let mut omega: Vec<f64> = vec![1.0];
    let mut next: Vec<f64> = Vec::with_capacity(steps + 1);
    // Set when the estimate triggered a reorthogonalization: the next step
    // reorthogonalizes too (Simon's rule covers both new vectors).
    let mut pending = false;

    let mut v = start.to_vec();
    project_out_ones(&mut v);
    if normalize(&mut v) < 1e-12 {
        // Degenerate start (e.g. constant): fall back to the Weyl start.
        v = deterministic_start(n);
    }
    basis.push(v);

    for j in 0..steps {
        let mut w = laplacian_matvec(graph, &basis[j]);
        let alpha = dot(&w, &basis[j]);
        alphas.push(alpha);
        if j + 1 == steps {
            break;
        }
        axpy(&mut w, -alpha, &basis[j]);
        if j > 0 {
            axpy(&mut w, -betas[j - 1], &basis[j - 1]);
        }
        project_out_ones(&mut w);
        let mut beta = norm(&w);

        next.clear();
        for k in 0..j {
            let mut t = betas[k] * omega[k + 1] + (alphas[k] - alpha) * omega[k]
                - betas[j - 1] * omega_prev[k];
            if k > 0 {
                t += betas[k - 1] * omega[k - 1];
            }
            next.push((t + eps1.copysign(t)) / beta);
        }
        next.extend([eps1, 1.0]);
        let forced = std::mem::take(&mut pending);
        if forced || next[..j].iter().any(|x| x.abs() > threshold) {
            for b in &basis {
                let c = dot(&w, b);
                axpy(&mut w, -c, b);
            }
            beta = norm(&w);
            next[..=j].fill(eps1);
            pending = !forced;
            reorthogonalized += 1;
        }
        if beta < 1e-10 {
            break;
        }
        betas.push(beta);
        for x in &mut w {
            *x /= beta;
        }
        basis.push(w);
        std::mem::swap(&mut omega_prev, &mut omega);
        std::mem::swap(&mut omega, &mut next);
    }
    Krylov {
        basis,
        alphas,
        betas,
        reorthogonalized,
    }
}

/// `y = L x` for the combinatorial Laplacian.
fn laplacian_matvec(graph: &Graph, x: &[f64]) -> Vec<f64> {
    let n = graph.num_vertices();
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut acc = graph.degree(i) as f64 * x[i];
        for &j in graph.neighbors(i) {
            acc -= x[j as usize];
        }
        y[i] = acc;
    }
    y
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y += c * x`.
fn axpy(y: &mut [f64], c: f64, x: &[f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += c * xi;
    }
}

/// Removes the mean (projects out the constant eigenvector of `L`).
fn project_out_ones(v: &mut [f64]) {
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    for x in v.iter_mut() {
        *x -= mean;
    }
}

/// Normalizes to unit length; returns the original norm.
fn normalize(v: &mut [f64]) -> f64 {
    let n = norm(v);
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
    n
}

/// The `index`-th smallest (0-based) eigenvalue of the symmetric
/// tridiagonal `(diag, offdiag)` by bisection on the Sturm count, to within
/// `2ε‖T‖`. `offdiag[i]` couples `i` and `i + 1`.
fn tridiag_eigenvalue(diag: &[f64], offdiag: &[f64], index: usize) -> f64 {
    let k = diag.len();
    assert!(index < k, "eigenvalue {index} of a {k}×{k} matrix");
    assert_eq!(offdiag.len(), k - 1, "offdiag must have length n - 1");
    // Gershgorin interval: count(lo) = 0 ≤ index < k = count(hi).
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (i, &d) in diag.iter().enumerate() {
        let r = offdiag.get(i).map_or(0.0, |e| e.abs())
            + offdiag.get(i.wrapping_sub(1)).map_or(0.0, |e| e.abs());
        lo = lo.min(d - r);
        hi = hi.max(d + r);
    }
    let tol = 2.0 * f64::EPSILON * lo.abs().max(hi.abs());
    lo -= tol;
    hi += tol;
    let squares: Vec<f64> = offdiag.iter().map(|e| e * e).collect();
    // Smallest pivot magnitude in the Sturm recurrence (LAPACK's `pivmin`).
    let pivmin = f64::MIN_POSITIVE * squares.iter().fold(1.0, |m: f64, &e| m.max(e));
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        // Sturm count: the number of negative pivots of `T − mid·I` is the
        // number of eigenvalues below `mid`.
        let mut q = diag[0] - mid;
        let mut count = 0;
        for i in 0..k {
            if i > 0 {
                q = diag[i] - mid - squares[i - 1] / q;
            }
            if q.abs() < pivmin {
                q = -pivmin;
            }
            count += usize::from(q < 0.0);
        }
        if count > index {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The unit eigenvector of the symmetric tridiagonal `(diag, offdiag)` for
/// its eigenvalue `lambda` (as returned by [`tridiag_eigenvalue`]), by
/// inverse iteration: `T − λI` is factored once by LU with partial
/// pivoting, then solved three times from a deterministic start,
/// normalizing in between. Each solve scales the wanted eigenvector's
/// component by `|λ̂ − λ|⁻¹ ≈ (ε‖T‖)⁻¹` and every other one by at most the
/// inverse gap.
fn tridiag_eigenvector(diag: &[f64], offdiag: &[f64], lambda: f64) -> Vec<f64> {
    let k = diag.len();
    if k == 1 {
        return vec![1.0];
    }
    let scale = diag
        .iter()
        .chain(offdiag)
        .fold(0.0, |m: f64, x| m.max(x.abs()));
    // A pivot below this is replaced by it (λ is an eigenvalue to within a
    // few ulps, so one pivot is ~0 by design).
    let tiny = f64::EPSILON * if scale > 0.0 { scale } else { 1.0 };
    // U has diagonal `u0` and superdiagonals `u1`, `u2`; L is unit lower
    // bidiagonal with multipliers `l`; `swapped[i]` records a row exchange.
    let mut u0: Vec<f64> = diag.iter().map(|d| d - lambda).collect();
    let mut u1 = offdiag.to_vec();
    let mut u2 = vec![0.0; k];
    let mut l = vec![0.0; k - 1];
    let mut swapped = vec![false; k - 1];
    for i in 0..k - 1 {
        let below = offdiag[i];
        if below.abs() > u0[i].abs().max(tiny) {
            swapped[i] = true;
            l[i] = u0[i] / below;
            u0[i] = below;
            let upper = u1[i];
            u1[i] = u0[i + 1];
            u0[i + 1] = upper - l[i] * u0[i + 1];
            if i + 2 < k {
                u2[i] = u1[i + 1];
                u1[i + 1] *= -l[i];
            }
        } else {
            if u0[i].abs() < tiny {
                u0[i] = tiny;
            }
            l[i] = below / u0[i];
            u0[i + 1] -= l[i] * u1[i];
        }
    }
    if u0[k - 1].abs() < tiny {
        u0[k - 1] = tiny;
    }
    let mut x = weyl(k);
    for _ in 0..3 {
        for i in 0..k - 1 {
            if swapped[i] {
                x.swap(i, i + 1);
            }
            x[i + 1] -= l[i] * x[i];
        }
        for i in (0..k).rev() {
            let mut r = x[i];
            if i + 1 < k {
                r -= u1[i] * x[i + 1];
            }
            if i + 2 < k {
                r -= u2[i] * x[i + 2];
            }
            x[i] = r / u0[i];
        }
        normalize(&mut x);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meshgen;
    use crate::metrics::average_edge_span;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Eigen-decomposition of a symmetric tridiagonal matrix via implicit QL
    /// with shifts (the classic `tql2`). `diag` has length `k`; `offdiag` has
    /// length `k − 1` (`offdiag[i]` couples `i` and `i + 1`).
    ///
    /// Returns `(eigenvalues ascending, eigenvectors)` with `eigenvectors[j]`
    /// the unit eigenvector for `eigenvalues[j]`.
    fn tridiag_eigen(diag: &[f64], offdiag: &[f64]) -> (Vec<f64>, Vec<Vec<f64>>) {
        let n = diag.len();
        // Column-major: z[c * n + r] is row r of column c, so each Givens
        // rotation sweeps two contiguous columns. Columns become eigenvectors.
        let mut z = vec![0.0; n * n];
        for i in 0..n {
            z[i * n + i] = 1.0;
        }
        let d = implicit_ql(diag, offdiag, |i, c, s| {
            let (head, tail) = z.split_at_mut((i + 1) * n);
            let zi = &mut head[i * n..];
            let zi1 = &mut tail[..n];
            for (a, b) in zi.iter_mut().zip(zi1.iter_mut()) {
                let h = *b;
                *b = s * *a + c * h;
                *a = c * *a - s * h;
            }
        });

        // Sort ascending, carrying eigenvectors (columns of z).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).expect("eigenvalues are finite"));
        let eigvals: Vec<f64> = order.iter().map(|&j| d[j]).collect();
        let eigvecs: Vec<Vec<f64>> = order
            .iter()
            .map(|&j| z[j * n..(j + 1) * n].to_vec())
            .collect();
        (eigvals, eigvecs)
    }

    /// The recurrences of `tql2` on the symmetric tridiagonal `(diag, offdiag)`.
    /// Each Givens rotation is reported as `rotate(i, c, s)`: it maps columns
    /// `i` and `i + 1` of the eigenvector accumulator to `c·z_i − s·z_{i+1}`
    /// and `s·z_i + c·z_{i+1}`. Returns the eigenvalues, unsorted, in the
    /// accumulator's column order.
    fn implicit_ql(
        diag: &[f64],
        offdiag: &[f64],
        mut rotate: impl FnMut(usize, f64, f64),
    ) -> Vec<f64> {
        let n = diag.len();
        assert!(n > 0, "empty tridiagonal matrix");
        assert_eq!(offdiag.len(), n - 1, "offdiag must have length n - 1");
        let mut d = diag.to_vec();
        let mut e = vec![0.0; n];
        e[..n - 1].copy_from_slice(offdiag);

        let eps = f64::EPSILON;
        let mut f = 0.0;
        let mut tst1: f64 = 0.0;
        for l in 0..n {
            tst1 = tst1.max(d[l].abs() + e[l].abs());
            let mut m = l;
            while m < n {
                if e[m].abs() <= eps * tst1 {
                    break;
                }
                m += 1;
            }
            if m > l {
                let mut iter = 0;
                loop {
                    iter += 1;
                    // Compute implicit shift.
                    let g = d[l];
                    let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                    let mut r = p.hypot(1.0);
                    if p < 0.0 {
                        r = -r;
                    }
                    d[l] = e[l] / (p + r);
                    d[l + 1] = e[l] * (p + r);
                    let dl1 = d[l + 1];
                    let h = g - d[l];
                    for item in d.iter_mut().skip(l + 2) {
                        *item -= h;
                    }
                    f += h;
                    // Implicit QL transformation.
                    p = d[m];
                    let mut c = 1.0;
                    let mut c2 = c;
                    let mut c3 = c;
                    let el1 = e[l + 1];
                    let mut s = 0.0;
                    let mut s2 = 0.0;
                    for i in (l..m).rev() {
                        c3 = c2;
                        c2 = c;
                        s2 = s;
                        let g2 = c * e[i];
                        let h = c * p;
                        r = p.hypot(e[i]);
                        e[i + 1] = s * r;
                        s = e[i] / r;
                        c = p / r;
                        p = c * d[i] - s * g2;
                        d[i + 1] = h + s * (c * g2 + s * d[i]);
                        rotate(i, c, s);
                    }
                    p = -s * s2 * c3 * el1 * e[l] / dl1;
                    e[l] = s * p;
                    d[l] = c * p;
                    if e[l].abs() <= eps * tst1 || iter >= 50 {
                        break;
                    }
                }
            }
            d[l] += f;
            e[l] = 0.0;
        }
        d
    }

    fn path(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let coords = (0..n).map(|i| [i as f64, 0.0, 0.0]).collect();
        Graph::from_edges(n, &edges, coords, 2)
    }

    fn grid(nx: u32, ny: u32) -> Graph {
        let n = (nx * ny) as usize;
        let mut edges = Vec::new();
        let mut coords = Vec::new();
        for y in 0..ny {
            for x in 0..nx {
                let v = y * nx + x;
                if x + 1 < nx {
                    edges.push((v, v + 1));
                }
                if y + 1 < ny {
                    edges.push((v, v + nx));
                }
                coords.push([f64::from(x), f64::from(y), 0.0]);
            }
        }
        Graph::from_edges(n, &edges, coords, 2)
    }

    #[test]
    fn tridiag_2x2() {
        // [[2, 1], [1, 2]] → eigenvalues 1 and 3.
        let (vals, vecs) = tridiag_eigen(&[2.0, 2.0], &[1.0]);
        assert!((vals[0] - 1.0).abs() < 1e-12);
        assert!((vals[1] - 3.0).abs() < 1e-12);
        // Eigenvector for 1 is (1, -1)/√2 up to sign.
        let v = &vecs[0];
        assert!((v[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((v[0] + v[1]).abs() < 1e-12);
    }

    #[test]
    fn tridiag_diagonal_matrix() {
        let (vals, vecs) = tridiag_eigen(&[3.0, 1.0, 2.0], &[0.0, 0.0]);
        assert_eq!(vals, vec![1.0, 2.0, 3.0]);
        // Each eigenvector is a standard basis vector.
        assert!((vecs[0][1].abs() - 1.0).abs() < 1e-12);
        assert!((vecs[2][0].abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tridiag_path_laplacian_eigenvalues() {
        // Path of 4 vertices: Laplacian eigenvalues are 2 − 2cos(kπ/4)
        // = 0, 2−√2, 2, 2+√2.
        let (vals, _) = tridiag_eigen(&[1.0, 2.0, 2.0, 1.0], &[-1.0, -1.0, -1.0]);
        let expected = [
            0.0,
            2.0 - std::f64::consts::SQRT_2,
            2.0,
            2.0 + std::f64::consts::SQRT_2,
        ];
        for (got, want) in vals.iter().zip(expected) {
            assert!((got - want).abs() < 1e-10, "got {got}, want {want}");
        }
    }

    #[test]
    fn tridiag_eigenvectors_satisfy_equation() {
        let d = [4.0, 3.0, 2.0, 1.0, 5.0];
        let e = [1.0, 0.5, 2.0, 0.25];
        let (vals, vecs) = tridiag_eigen(&d, &e);
        for (lambda, v) in vals.iter().zip(&vecs) {
            // Residual of (T − λI)v.
            for i in 0..5 {
                let mut r = d[i] * v[i] - lambda * v[i];
                if i > 0 {
                    r += e[i - 1] * v[i - 1];
                }
                if i < 4 {
                    r += e[i] * v[i + 1];
                }
                assert!(r.abs() < 1e-9, "residual {r} at row {i} for λ = {lambda}");
            }
        }
    }

    #[test]
    fn fiedler_of_path_is_monotone() {
        let g = path(20);
        let f = fiedler_vector(&g);
        // The path's Fiedler vector is cos((i+1/2)π/n): strictly monotone.
        let increasing = f.windows(2).all(|w| w[1] > w[0]);
        let decreasing = f.windows(2).all(|w| w[1] < w[0]);
        assert!(
            increasing || decreasing,
            "path Fiedler vector must be monotone: {f:?}"
        );
    }

    #[test]
    fn fiedler_rayleigh_quotient_close_to_lambda2() {
        // Path of n: λ₂ = 2(1 − cos(π/n)).
        let n = 16;
        let g = path(n);
        let f = fiedler_vector(&g);
        let lf = laplacian_matvec(&g, &f);
        let rayleigh = dot(&f, &lf) / dot(&f, &f);
        let lambda2 = 2.0 * (1.0 - (std::f64::consts::PI / n as f64).cos());
        assert!(
            (rayleigh - lambda2).abs() < 1e-6,
            "Rayleigh {rayleigh} vs λ₂ {lambda2}"
        );
    }

    #[test]
    fn fiedler_orthogonal_to_ones() {
        let g = grid(5, 4);
        let f = fiedler_vector(&g);
        let sum: f64 = f.iter().sum();
        assert!(sum.abs() < 1e-8, "Fiedler must be mean-free, sum = {sum}");
        assert!((norm(&f) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fiedler_splits_dumbbell() {
        // Two 4-cliques joined by one edge: the Fiedler vector separates the
        // cliques by sign.
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                edges.push((a, b));
                edges.push((a + 4, b + 4));
            }
        }
        edges.push((3, 4));
        let g = Graph::from_edges(8, &edges, vec![[0.0; 3]; 8], 2);
        let f = fiedler_vector(&g);
        let left_sign = f[0].signum();
        assert!(f[..4].iter().all(|&x| x.signum() == left_sign));
        assert!(f[4..].iter().all(|&x| x.signum() == -left_sign));
    }

    #[test]
    fn spectral_ordering_recovers_path() {
        // A shuffled path: spectral ordering must restore span 1.
        let g = path(24);
        let perm: Vec<u32> = (0..24u32).map(|v| (v * 7) % 24).collect();
        let shuffled = g.relabel(&perm);
        let o = spectral_ordering(&shuffled);
        let span = average_edge_span(&shuffled, &o);
        assert!(
            span <= 1.0 + 1e-9,
            "spectral ordering of a path must have span 1, got {span}"
        );
    }

    #[test]
    fn spectral_ordering_is_permutation_on_grid() {
        let g = grid(7, 5);
        let o = spectral_ordering(&g);
        let mut seq = o.sequence();
        seq.sort_unstable();
        assert_eq!(seq, (0..35).collect::<Vec<u32>>());
    }

    #[test]
    fn spectral_beats_shuffled_natural_on_grid() {
        let g = grid(8, 8);
        let perm: Vec<u32> = (0..64u32).map(|v| (v * 37) % 64).collect();
        let shuffled = g.relabel(&perm);
        let natural = average_edge_span(&shuffled, &Ordering::identity(64));
        let spectral = average_edge_span(&shuffled, &spectral_ordering(&shuffled));
        assert!(
            spectral < natural / 2.0,
            "spectral {spectral} should strongly beat shuffled natural {natural}"
        );
    }

    #[test]
    fn spectral_handles_disconnected_graphs() {
        // Two disjoint paths.
        let edges = [(0u32, 1u32), (1, 2), (3, 4), (4, 5)];
        let coords = (0..6).map(|i| [f64::from(i as u32), 0.0, 0.0]).collect();
        let g = Graph::from_edges(6, &edges, coords, 2);
        let o = spectral_ordering(&g);
        assert_eq!(o.len(), 6);
        let mut seq = o.sequence();
        seq.sort_unstable();
        assert_eq!(seq, (0..6).collect::<Vec<u32>>());
    }

    #[test]
    fn spectral_tiny_graphs() {
        let g1 = Graph::from_edges(1, &[], vec![[0.0; 3]], 2);
        assert_eq!(spectral_ordering(&g1).len(), 1);
        let g2 = path(2);
        assert_eq!(spectral_ordering(&g2).len(), 2);
        let g3 = path(3);
        assert_eq!(spectral_ordering(&g3).len(), 3);
    }

    #[test]
    fn spectral_deterministic() {
        let g = grid(6, 6);
        assert_eq!(spectral_ordering(&g), spectral_ordering(&g));
    }

    /// Frozen reference: the row-major `tql2` that [`tridiag_eigen`]
    /// replaced (`z[r][c]`, so each rotation strides across `k` heap rows).
    /// The column-major version must reproduce it bit for bit.
    fn tridiag_eigen_row_major(diag: &[f64], offdiag: &[f64]) -> (Vec<f64>, Vec<Vec<f64>>) {
        let n = diag.len();
        assert!(n > 0, "empty tridiagonal matrix");
        assert_eq!(offdiag.len(), n - 1, "offdiag must have length n - 1");
        let mut d = diag.to_vec();
        let mut e = vec![0.0; n];
        e[..n - 1].copy_from_slice(offdiag);
        // Row-major; z[r][c]; columns become eigenvectors.
        let mut z = vec![vec![0.0; n]; n];
        for (i, row) in z.iter_mut().enumerate() {
            row[i] = 1.0;
        }

        let eps = f64::EPSILON;
        let mut f = 0.0;
        let mut tst1: f64 = 0.0;
        for l in 0..n {
            tst1 = tst1.max(d[l].abs() + e[l].abs());
            let mut m = l;
            while m < n {
                if e[m].abs() <= eps * tst1 {
                    break;
                }
                m += 1;
            }
            if m > l {
                let mut iter = 0;
                loop {
                    iter += 1;
                    // Compute implicit shift.
                    let g = d[l];
                    let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                    let mut r = p.hypot(1.0);
                    if p < 0.0 {
                        r = -r;
                    }
                    d[l] = e[l] / (p + r);
                    d[l + 1] = e[l] * (p + r);
                    let dl1 = d[l + 1];
                    let mut h = g - d[l];
                    for item in d.iter_mut().skip(l + 2) {
                        *item -= h;
                    }
                    f += h;
                    // Implicit QL transformation.
                    p = d[m];
                    let mut c = 1.0;
                    let mut c2 = c;
                    let mut c3 = c;
                    let el1 = e[l + 1];
                    let mut s = 0.0;
                    let mut s2 = 0.0;
                    for i in (l..m).rev() {
                        c3 = c2;
                        c2 = c;
                        s2 = s;
                        let g2 = c * e[i];
                        h = c * p;
                        r = p.hypot(e[i]);
                        e[i + 1] = s * r;
                        s = e[i] / r;
                        c = p / r;
                        p = c * d[i] - s * g2;
                        d[i + 1] = h + s * (c * g2 + s * d[i]);
                        for row in &mut z {
                            h = row[i + 1];
                            row[i + 1] = s * row[i] + c * h;
                            row[i] = c * row[i] - s * h;
                        }
                    }
                    p = -s * s2 * c3 * el1 * e[l] / dl1;
                    e[l] = s * p;
                    d[l] = c * p;
                    if e[l].abs() <= eps * tst1 || iter >= 50 {
                        break;
                    }
                }
            }
            d[l] += f;
            e[l] = 0.0;
        }

        // Sort ascending, carrying eigenvectors (columns of z).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).expect("eigenvalues are finite"));
        let eigvals: Vec<f64> = order.iter().map(|&j| d[j]).collect();
        let eigvecs: Vec<Vec<f64>> = order
            .iter()
            .map(|&j| (0..n).map(|r| z[r][j]).collect())
            .collect();
        (eigvals, eigvecs)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Seeded random tridiagonals of every size up to the Lanczos step cap.
    /// About one off-diagonal in five is exactly zero (splitting the matrix
    /// into independent blocks), and the diagonal draws from a small set of
    /// values so split blocks share eigenvalues (ties in the sort).
    fn random_tridiagonals() -> impl Iterator<Item = (Vec<f64>, Vec<f64>)> {
        let mut rng = StdRng::seed_from_u64(0x7D1A6);
        (1..=MAX_LANCZOS_STEPS).flat_map(move |k| {
            (0..3)
                .map(|_| {
                    let diag: Vec<f64> = (0..k)
                        .map(|_| {
                            if rng.random::<f64>() < 0.3 {
                                f64::from(rng.random::<u32>() % 4)
                            } else {
                                4.0 * rng.random::<f64>() - 1.0
                            }
                        })
                        .collect();
                    let offdiag: Vec<f64> = (0..k - 1)
                        .map(|_| {
                            if rng.random::<f64>() < 0.2 {
                                0.0
                            } else {
                                2.0 * rng.random::<f64>() - 1.0
                            }
                        })
                        .collect();
                    (diag, offdiag)
                })
                .collect::<Vec<_>>()
        })
    }

    #[test]
    fn column_major_tql2_matches_frozen_row_major_bitwise() {
        // Diagonal matrices with exactly tied eigenvalues: tied columns must
        // come out in the reference's (stable-sort) order.
        let ties = [
            (vec![0.5; 4], vec![0.0; 3]),
            (vec![3.0, -1.0, 2.0, -1.0], vec![0.0; 3]),
        ];
        let mut split = 0;
        for (diag, offdiag) in random_tridiagonals().chain(ties) {
            split += usize::from(offdiag.contains(&0.0));
            let (vals, vecs) = tridiag_eigen(&diag, &offdiag);
            let (ref_vals, ref_vecs) = tridiag_eigen_row_major(&diag, &offdiag);
            let k = diag.len();
            assert_eq!(bits(&vals), bits(&ref_vals), "eigenvalues, k = {k}");
            assert_eq!(vecs.len(), k);
            for (j, (v, r)) in vecs.iter().zip(&ref_vecs).enumerate() {
                assert_eq!(bits(v), bits(r), "eigenvector {j}, k = {k}");
            }
        }
        assert!(split > 100, "only {split} inputs had a zero off-diagonal");
    }

    /// `‖T‖∞`, the largest absolute row sum of a symmetric tridiagonal.
    fn tridiag_norm(diag: &[f64], offdiag: &[f64]) -> f64 {
        (0..diag.len())
            .map(|i| {
                diag[i].abs()
                    + offdiag.get(i).map_or(0.0, |e| e.abs())
                    + offdiag.get(i.wrapping_sub(1)).map_or(0.0, |e| e.abs())
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn smallest_eigenvector_matches_tridiag_eigen_column_0() {
        let ties = [
            (vec![0.5; 4], vec![0.0; 3]),
            (vec![3.0, -1.0, 2.0, -1.0], vec![0.0; 3]),
        ];
        let mut compared = 0;
        for (diag, offdiag) in random_tridiagonals().chain(ties) {
            let k = diag.len();
            let t_norm = tridiag_norm(&diag, &offdiag);
            let (vals, vecs) = tridiag_eigen(&diag, &offdiag);
            let lambda = tridiag_eigenvalue(&diag, &offdiag, 0);
            assert!(
                (lambda - vals[0]).abs() <= 8.0 * f64::EPSILON * t_norm,
                "k = {k}: bisection {lambda} vs QL {}",
                vals[0]
            );
            let v = tridiag_eigenvector(&diag, &offdiag, lambda);
            assert!((norm(&v) - 1.0).abs() < 1e-12, "k = {k}: not unit length");
            for i in 0..k {
                let mut r = (diag[i] - lambda) * v[i];
                if i > 0 {
                    r += offdiag[i - 1] * v[i - 1];
                }
                if i + 1 < k {
                    r += offdiag[i] * v[i + 1];
                }
                assert!(
                    r.abs() <= 1e-12 * t_norm,
                    "k = {k}: residual {r:e} at row {i}"
                );
            }
            if k == 1 || vals[1] - vals[0] > 1e-8 {
                compared += 1;
                let agreement = dot(&v, &vecs[0]).abs();
                assert!(
                    agreement >= 1.0 - 1e-10,
                    "k = {k}: |<v, z_0>| = {agreement}"
                );
            }
        }
        assert!(
            compared > 200,
            "only {compared} inputs had a gap above 1e-8"
        );
    }

    fn cycle(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        let coords = (0..n).map(|i| [i as f64, 0.0, 0.0]).collect();
        Graph::from_edges(n, &edges, coords, 2)
    }

    /// `max_i |(Lf − ρf)_i|` with `ρ` the Rayleigh quotient of unit `f`.
    fn fiedler_residual(g: &Graph, f: &[f64]) -> f64 {
        let lf = laplacian_matvec(g, f);
        let rho = dot(f, &lf);
        lf.iter()
            .zip(f)
            .map(|(y, x)| (y - rho * x).abs())
            .fold(0.0, f64::max)
    }

    /// Unit norm, orthogonal to the constant vector, and an eigenvector of
    /// `L` to `tol · ‖L‖∞` (`‖L‖∞ = 2·max degree`).
    fn assert_exact_fiedler(g: &Graph, f: &[f64], tol: f64) {
        let n = g.num_vertices();
        assert!((norm(f) - 1.0).abs() < 1e-12, "n = {n}: not unit length");
        let sum: f64 = f.iter().sum();
        assert!(sum.abs() < 1e-10, "n = {n}: not mean-free, sum = {sum:e}");
        let bound = tol * 2.0 * g.max_degree() as f64;
        let residual = fiedler_residual(g, f);
        assert!(
            residual <= bound,
            "n = {n}: residual {residual:e} > {bound:e}"
        );
    }

    #[test]
    fn dense_fiedler_is_an_exact_eigenvector() {
        // λ₂ in closed form: 2 − 2cos(π/n) on a path, 2 − 2cos(2π/n) on a
        // cycle, the longer side's path value on a grid. Cycles and the
        // 3 × 3 grid have a doubly degenerate λ₂.
        let lambda = |angle: f64| 2.0 - 2.0 * angle.cos();
        let pi = std::f64::consts::PI;
        let graphs = [
            (path(9), Some(lambda(pi / 9.0))),
            (cycle(9), Some(lambda(2.0 * pi / 9.0))),
            (grid(3, 3), Some(lambda(pi / 3.0))),
            (path(20), Some(lambda(pi / 20.0))),
            (cycle(20), Some(lambda(2.0 * pi / 20.0))),
            (grid(5, 4), Some(lambda(pi / 5.0))),
            (path(159), Some(lambda(pi / 159.0))),
            (cycle(159), Some(lambda(2.0 * pi / 159.0))),
            (shuffled_mesh(53, 3, 4), None),
        ];
        for (g, lambda2) in &graphs {
            let n = g.num_vertices();
            assert!((9..160).contains(&n), "n = {n}");
            let f = fiedler_vector(g);
            assert_exact_fiedler(g, &f, 1e-10);
            if let Some(lambda2) = lambda2 {
                let rho = dot(&f, &laplacian_matvec(g, &f));
                assert!(
                    (rho - lambda2).abs() < 1e-10,
                    "n = {n}: ρ = {rho}, λ₂ = {lambda2}"
                );
            }
        }
    }

    /// The Lanczos runs behind the top-level Fiedler vector of `g`: the
    /// first from the Weyl start, the second restarted from its estimate.
    fn top_level_runs(g: &Graph) -> [Krylov; 2] {
        let start = deterministic_start(g.num_vertices());
        let restart = lanczos_smallest(g, &start);
        [lanczos(g, &start), lanczos(g, &restart)]
    }

    fn max_inner_product(basis: &[Vec<f64>]) -> f64 {
        let mut worst: f64 = 0.0;
        for (i, a) in basis.iter().enumerate() {
            for b in &basis[..i] {
                worst = worst.max(dot(a, b).abs());
            }
        }
        worst
    }

    #[test]
    fn lanczos_basis_is_semi_orthogonal() {
        // 20 and 150 vertices would run at most 80 steps over more than
        // half the space, so they are solved densely instead (exact to
        // 1e-10·‖L‖); 200, 400 and 4 356 run Lanczos.
        for g in [shuffled_mesh(5, 4, 2), shuffled_mesh(15, 10, 2)] {
            assert_exact_fiedler(&g, &fiedler_vector(&g), 1e-10);
        }
        let meshes = [
            shuffled_mesh(20, 10, 2),
            shuffled_mesh(20, 20, 3),
            shuffled_mesh(66, 66, 5),
        ];
        for g in &meshes {
            let n = g.num_vertices();
            for run in top_level_runs(g) {
                let steps = run.alphas.len();
                assert_eq!(run.basis.len(), steps);
                let worst = max_inner_product(&run.basis);
                assert!(worst <= 1e-6, "n = {n}: max |q_i·q_j| = {worst:e}");
            }
        }
    }

    #[test]
    fn reorthogonalization_is_partial_on_large_graphs() {
        let g = shuffled_mesh(66, 66, 5);
        for run in top_level_runs(&g) {
            let steps = run.alphas.len();
            assert_eq!(steps, MAX_LANCZOS_STEPS);
            assert!(
                2 * run.reorthogonalized < steps,
                "{} of {steps} steps reorthogonalized",
                run.reorthogonalized
            );
        }
    }

    /// A shuffled, thinned triangulated grid (the paper-mesh construction
    /// at a smaller size).
    fn shuffled_mesh(nx: usize, ny: usize, seed: u64) -> Graph {
        let grid = meshgen::triangulated_grid(nx, ny, 0.5, seed);
        let thinned = meshgen::thin_to_edges(&grid, grid.num_vertices() * 3 / 2, seed);
        meshgen::shuffle_labels(&thinned, seed)
    }

    #[test]
    fn ordering_is_independent_of_thread_count() {
        // 4 356 vertices: the top split and both second-level splits have
        // halves above PARALLEL_CUTOFF, so budgets 2..8 take the concurrent
        // path at one or two levels.
        let g = shuffled_mesh(66, 66, 5);
        assert!(g.num_vertices() >= 4 * PARALLEL_CUTOFF);
        let serial = spectral_ordering_with(&g, 1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                spectral_ordering_with(&g, threads),
                serial,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn disconnected_ordering_is_independent_of_thread_count() {
        // Two meshes above PARALLEL_CUTOFF plus an isolated vertex, labels
        // interleaved: the component pieces are ordered concurrently.
        let a = shuffled_mesh(36, 36, 8);
        let b = shuffled_mesh(33, 40, 9);
        let (na, nb) = (a.num_vertices(), b.num_vertices());
        assert!(na >= PARALLEL_CUTOFF && nb >= PARALLEL_CUTOFF);
        let shift = na as u32;
        let edges: Vec<(u32, u32)> = a
            .edges()
            .chain(b.edges().map(|(u, v)| (u + shift, v + shift)))
            .collect();
        let mut coords = a.coords().to_vec();
        coords.extend_from_slice(b.coords());
        coords.push([0.0; 3]);
        let union = Graph::from_edges(na + nb + 1, &edges, coords, 2);
        let g = meshgen::shuffle_labels(&union, 3);
        assert_eq!(g.connected_components().1, 3);
        let serial = spectral_ordering_with(&g, 1);
        let mut seq = serial.sequence();
        seq.sort_unstable();
        assert_eq!(seq, (0..g.num_vertices() as u32).collect::<Vec<u32>>());
        for threads in [2, 3, 4] {
            assert_eq!(
                spectral_ordering_with(&g, threads),
                serial,
                "threads = {threads}"
            );
        }
    }
}
