//! Golden pins and a quality gate for the recursive-spectral-bisection
//! (RSB) ordering.
//!
//! RSB is the paper's Phase A indexing, and every paper table built on it
//! depends on its exact output. These tests hash `Ordering::positions()`
//! with FNV-1a 64 and compare against pinned values, so any bit-level change
//! to the Fiedler vectors, the sort or the segment merge order (which must
//! not depend on the thread count) fails here. Changing a pin is a
//! deliberate re-bless of every RSB-derived artifact.
//!
//! The pins were last re-blessed when the Lanczos solver moved from full to
//! partial reorthogonalization and the tridiagonal solve to a single Ritz
//! vector. That change was not bit-preserving, so it was gated on ordering
//! quality instead: `paper_mesh_ordering_quality_holds` bounds the summed
//! edge cut and communication volume over 24 paper meshes against the
//! previous solver. From then on the exact bits are pinned again.
//!
//! The paper-mesh tests take seconds in a release build and far longer in
//! debug, so they are `#[ignore]`d; run them with
//! `cargo test --release --test ordering_golden -- --ignored`.

use stance::locality::meshgen;
use stance::locality::metrics::quality_report;
use stance::locality::spectral::spectral_ordering;

/// FNV-1a 64 over the vertex positions, one position per step.
fn fnv1a(positions: &[u32]) -> u64 {
    positions.iter().fold(0xcbf2_9ce4_8422_2325, |h, &p| {
        (h ^ u64::from(p)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn spectral_ordering_matches_golden_hash() {
    // 3 600 vertices: both halves of the top bisection are large enough to
    // be ordered concurrently on a multi-core host.
    let grid = meshgen::triangulated_grid(60, 60, 0.5, 3);
    let thinned = meshgen::thin_to_edges(&grid, grid.num_vertices() * 3 / 2, 3);
    let mesh = meshgen::shuffle_labels(&thinned, 3);
    let ordering = spectral_ordering(&mesh);
    assert_eq!(fnv1a(ordering.positions()), 0x475f_d54d_558f_5777);
}

#[test]
#[ignore = "paper-size mesh; run in release with --ignored"]
fn paper_mesh_spectral_ordering_matches_golden_hashes() {
    for (seed, golden) in [
        (42, 0x8e6b_7ce8_de9a_846f_u64),
        (7, 0x9ad2_75f0_6272_4937),
        (1234, 0x9077_f083_92c3_ea6b),
    ] {
        let ordering = spectral_ordering(&meshgen::paper_mesh(seed));
        assert_eq!(
            fnv1a(ordering.positions()),
            golden,
            "paper mesh, seed {seed}"
        );
    }
}

/// Summed over paper-mesh seeds 1..=24, the edge cut and the total
/// communication volume of an equal-block partition into `p` parts stay
/// within 3% of the full-reorthogonalization solver that preceded partial
/// reorthogonalization. Single seeds move more than that (one seed's p = 8
/// cut by ±10%), so only the sums are bounded.
#[test]
#[ignore = "24 paper-size meshes; run in release with --ignored"]
fn paper_mesh_ordering_quality_holds() {
    // (p, edge cut, total comm volume) of the previous solver.
    const BASELINE: [(usize, usize, usize); 6] = [
        (2, 5_961, 9_175),
        (4, 12_293, 19_025),
        (8, 19_611, 30_318),
        (16, 29_934, 46_302),
        (32, 43_911, 67_902),
        (64, 62_807, 97_162),
    ];
    let mut sums = [(0, 0); BASELINE.len()];
    for seed in 1..=24 {
        let mesh = meshgen::paper_mesh(seed);
        let ordering = spectral_ordering(&mesh);
        for ((p, _, _), (cut, volume)) in BASELINE.iter().zip(&mut sums) {
            let report = quality_report(&mesh, &ordering, *p);
            *cut += report.edge_cut;
            *volume += report.total_comm_volume;
        }
    }
    for ((p, base_cut, base_volume), (cut, volume)) in BASELINE.iter().zip(sums) {
        assert!(
            cut * 100 <= base_cut * 103,
            "p = {p}: summed edge cut {cut} exceeds 1.03 × {base_cut}"
        );
        assert!(
            volume * 100 <= base_volume * 103,
            "p = {p}: summed comm volume {volume} exceeds 1.03 × {base_volume}"
        );
    }
}
