//! Wire-backed QCD driver: the solver's global reductions as NBC
//! allreduce schedules over a real [`rtmpi::Transport`], with Wilson
//! Dslash as the overlap compute (paper §5.1 lifted onto sockets).
//!
//! Each rank owns a deterministic fermion field (the seed folds in the
//! rank), reduces its per-site norms in `LANES` lanes with an f64-sum
//! allreduce — the shape of the CG dot products — and verifies every
//! result against the globally expected sums, which any rank can
//! recompute locally because the fields are deterministic. The overlap
//! panel inserts real Dslash applications between the collective's post
//! and wait, so the measurement is the paper's: lattice math hiding
//! reduction rounds.

use approaches::live::{CollKind, LiveApproach};
use harness::{overlap_live, OverlapRow};
use mpisim::types::{bytes_to_f64s, f64s_to_bytes, Dtype, ReduceOp};
use numeric::SplitMix64;
use rtmpi::Transport;

use crate::dslash::{dslash, FermionField, GaugeField};

/// Lattice for the wire panel: big enough that a Dslash application is
/// real work, small enough for a CI smoke lane.
pub const DIMS: [usize; 4] = [4, 8, 8, 8];

/// Reduction lanes per allreduce — 2048 × 8 B = 16 KiB, comfortably in
/// the rendezvous regime, so every round is a real RTS/CTS/DATA exchange.
pub const LANES: usize = 2048;

fn rank_seed(rank: usize) -> u64 {
    0x9e37_79b9_7f4a_7c15 ^ (rank as u64 + 1)
}

/// This rank's deterministic field.
pub fn rank_field(rank: usize) -> FermionField<f64> {
    let mut rng = SplitMix64::new(rank_seed(rank));
    FermionField::random(DIMS, &mut rng)
}

/// The allreduce payload: per-site spinor norms folded into `LANES`
/// contiguous lanes (the same shape as a blocked CG dot product).
pub fn lane_dots(field: &FermionField<f64>) -> Vec<f64> {
    let sites = field.data.len();
    assert!(
        sites.is_multiple_of(LANES),
        "lattice folds evenly into lanes"
    );
    let per = sites / LANES;
    (0..LANES)
        .map(|l| {
            field.data[l * per..(l + 1) * per]
                .iter()
                .map(|s| s.norm_sqr())
                .sum()
        })
        .collect()
}

/// What the allreduce must produce — every rank's lanes summed — computed
/// locally from the deterministic per-rank seeds.
pub fn expected_sums(size: usize) -> Vec<f64> {
    let mut acc = vec![0.0f64; LANES];
    for r in 0..size {
        for (a, d) in acc.iter_mut().zip(lane_dots(&rank_field(r))) {
            *a += d;
        }
    }
    acc
}

/// Check an allreduce result against the expected global sums. The NBC
/// schedules associate the sum differently per algorithm (recursive
/// doubling vs Rabenseifner), so equality is relative, not bitwise.
pub fn check_sums(out: &[u8], expected: &[f64]) {
    let got = bytes_to_f64s(out);
    assert_eq!(got.len(), expected.len(), "lane count");
    for (i, (g, e)) in got.iter().zip(expected).enumerate() {
        let rel = (g - e).abs() / e.abs().max(1e-300);
        assert!(rel < 1e-9, "lane {i}: got {g}, want {e} (rel {rel:.3e})");
    }
}

/// Run the fig-3-style NBC overlap measurement for one strategy: f64-sum
/// allreduce of this rank's lane dots, verified against the global
/// expectation, with Dslash applications as the inserted compute.
/// Returns the measured row and the reclaimed transport.
pub fn nbc_overlap_panel<T: Transport>(
    approach: LiveApproach,
    transport: T,
    iters: usize,
) -> (OverlapRow, T) {
    let rank = transport.rank();
    let size = transport.size();
    let payload = f64s_to_bytes(&lane_dots(&rank_field(rank)));
    let bytes = payload.len();
    let expected = expected_sums(size);
    let mut rng = SplitMix64::new(rank_seed(rank) ^ 0x5u64);
    let gauge = GaugeField::random(DIMS, &mut rng);
    let psi = rank_field(rank);
    overlap_live(
        approach,
        transport,
        bytes,
        iters,
        |comm| {
            comm.icollective(CollKind::Allreduce {
                dtype: Dtype::F64,
                op: ReduceOp::Sum,
                data: payload.clone(),
            })
        },
        |comm, req| check_sums(&comm.coll_wait(req).expect("allreduce"), &expected),
        // Real lattice kernel between post and wait.
        || {
            std::hint::black_box(dslash(&gauge, &psi));
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_sums_match_per_rank_contributions() {
        let size = 4;
        let exp = expected_sums(size);
        assert_eq!(exp.len(), LANES);
        // Norms are positive, so every lane's sum must exceed each single
        // rank's contribution.
        let mine = lane_dots(&rank_field(2));
        for (e, m) in exp.iter().zip(&mine) {
            assert!(e > m);
        }
        // And the check accepts a reference summation of the same data.
        check_sums(&f64s_to_bytes(&exp), &exp);
    }

    #[test]
    fn lane_payload_is_rendezvous_sized() {
        let bytes = f64s_to_bytes(&lane_dots(&rank_field(0))).len();
        assert_eq!(bytes, LANES * 8);
        assert!(bytes > 4096, "must exceed the default eager crossover");
    }
}
