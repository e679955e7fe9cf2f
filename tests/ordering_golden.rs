//! Golden pins of the recursive-spectral-bisection (RSB) ordering.
//!
//! RSB is the paper's Phase A indexing, and every paper table built on it
//! depends on its exact output. These tests hash `Ordering::positions()`
//! with FNV-1a 64 and compare against pinned values, so any bit-level change
//! to the Fiedler vectors, the sort or the segment merge order (which must
//! not depend on the thread count) fails here. Changing a pin is a
//! deliberate re-bless of every RSB-derived artifact.
//!
//! The paper-mesh pins take seconds in a release build and far longer in
//! debug, so they are `#[ignore]`d; run them with
//! `cargo test --release --test ordering_golden -- --ignored`.

use stance::locality::meshgen;
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
    assert_eq!(fnv1a(ordering.positions()), 0xe8f4_146f_a00f_8155);
}

#[test]
#[ignore = "paper-size mesh; run in release with --ignored"]
fn paper_mesh_spectral_ordering_matches_golden_hashes() {
    for (seed, golden) in [
        (42, 0xa754_caaf_a911_39f3_u64),
        (7, 0x9db8_1b9d_aee8_fbe5),
        (1234, 0x2849_dc19_5054_cc2f),
    ] {
        let ordering = spectral_ordering(&meshgen::paper_mesh(seed));
        assert_eq!(
            fnv1a(ordering.positions()),
            golden,
            "paper mesh, seed {seed}"
        );
    }
}
