//! Wire-backed FFT driver: the transpose-algorithm distributed FFT of
//! [`crate::dist`] run over a real [`rtmpi::Transport`], its global
//! transpose issued as an NBC alltoall schedule through
//! [`LiveComm::alltoall`] (paper §5.2 lifted onto sockets).
//!
//! Two entry points: [`fft_dist_live`] is the blocking correctness
//! transform (numerically identical to [`crate::dist::fft_dist`]), and
//! [`nbc_overlap_panel`] is the fig-5-style overlap measurement — the
//! alltoall of one row-FFT'd slab re-issued with local row FFTs as the
//! inserted compute, its result checked byte-for-byte against a locally
//! simulated transpose (every rank's slab is deterministic, so any rank
//! can reconstruct exactly what it must receive).

use approaches::live::{CollKind, LiveApproach, LiveComm};
use harness::{overlap_live, OverlapRow};
use numeric::{Complex, Complex64, SplitMix64};
use rtmpi::{Transport, TransportError};

use crate::dist::{decode, rows_fft_twiddle_pack, unpack_block, DistPlan};
use crate::local::fft;

/// Panel plan: 128×128 points over `p` ranks. At p = 4 each alltoall
/// block is 32·32·16 B = 16 KiB — rendezvous rounds, not eager drops.
pub fn panel_plan(p: usize) -> DistPlan {
    DistPlan::new(128, 128, p)
}

/// This rank's deterministic input slab (decimated layout rows).
pub fn rank_slab(plan: &DistPlan, rank: usize) -> Vec<Complex64> {
    let mut rng = SplitMix64::new(0x5eed_f0f0 ^ (rank as u64 + 1));
    (0..plan.local_len())
        .map(|_| Complex::new(rng.next_gaussian(), rng.next_gaussian()))
        .collect()
}

/// Blocking distributed FFT over a live transport: row FFTs + twiddles,
/// one alltoall transpose through the NBC schedule, column FFTs.
/// Numerically identical to the simulated [`crate::dist::fft_dist`].
pub fn fft_dist_live<T: Transport>(
    comm: &mut LiveComm<T>,
    plan: &DistPlan,
    mut local: Vec<Complex64>,
) -> Result<Vec<Complex64>, TransportError> {
    assert_eq!(local.len(), plan.local_len());
    let rank = comm.rank();
    let rows_local = plan.rows_local();
    let cols = plan.cols_local();
    let buf = rows_fft_twiddle_pack(plan, rank, &mut local, 0, rows_local);
    let block_bytes = rows_local * cols * 16;
    let out = comm.alltoall(buf, block_bytes)?;
    let mut cols_mat: Vec<Vec<Complex64>> = vec![vec![Complex64::zero(); plan.n1]; cols];
    for src in 0..plan.p {
        let block = decode(&out[src * block_bytes..(src + 1) * block_bytes]);
        unpack_block(plan, src, 0, rows_local, &block, &mut cols_mat);
    }
    let mut result = Vec::with_capacity(plan.local_len());
    for col in cols_mat.iter_mut() {
        fft(col);
        result.extend_from_slice(col);
    }
    Ok(result)
}

/// The byte-exact alltoall expectation for `rank`: concatenate, per
/// source rank, the block that source's (deterministic) packed slab
/// addresses to us. An alltoall is a permutation — no arithmetic — so
/// the comparison is bitwise, a protocol-level correctness check.
pub fn expected_transpose(plan: &DistPlan, rank: usize) -> Vec<u8> {
    let rows_local = plan.rows_local();
    let block_bytes = rows_local * plan.cols_local() * 16;
    let mut out = Vec::with_capacity(plan.p * block_bytes);
    for src in 0..plan.p {
        let mut slab = rank_slab(plan, src);
        let packed = rows_fft_twiddle_pack(plan, src, &mut slab, 0, rows_local);
        out.extend_from_slice(&packed[rank * block_bytes..(rank + 1) * block_bytes]);
    }
    out
}

/// Run the fig-5-style NBC overlap measurement for one strategy: the
/// transpose alltoall of this rank's row-FFT'd slab, verified bitwise
/// against [`expected_transpose`], with local row FFTs as the inserted
/// compute. Returns the measured row and the reclaimed transport.
pub fn nbc_overlap_panel<T: Transport>(
    approach: LiveApproach,
    transport: T,
    iters: usize,
) -> (OverlapRow, T) {
    let rank = transport.rank();
    let plan = panel_plan(transport.size());
    let rows_local = plan.rows_local();
    let block = rows_local * plan.cols_local() * 16;
    let mut slab = rank_slab(&plan, rank);
    let input = rows_fft_twiddle_pack(&plan, rank, &mut slab, 0, rows_local);
    let expected = expected_transpose(&plan, rank);
    // Scratch rows for the compute kernel: repeated in-place FFTs of the
    // local slab, the stage the pipelined variant overlaps.
    let mut scratch = rank_slab(&plan, rank);
    let n2 = plan.n2;
    overlap_live(
        approach,
        transport,
        input.len(),
        iters,
        |comm| {
            comm.icollective(CollKind::Alltoall {
                input: input.clone(),
                block,
            })
        },
        |comm, req| {
            let out = comm.coll_wait(req).expect("alltoall");
            assert_eq!(out, expected, "transpose blocks permuted intact");
        },
        || {
            for row in scratch.chunks_exact_mut(n2) {
                fft(row);
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{encode, gather_natural, scatter_natural};
    use crate::local::max_rel_error;

    /// `expected_transpose` really is what an alltoall of the packed
    /// slabs delivers: reassembling all ranks' expectations and running
    /// the column FFTs must reproduce the reference spectrum.
    #[test]
    fn expected_transpose_matches_reference_fft() {
        let plan = DistPlan::new(16, 16, 4);
        // Build the global signal the per-rank slabs represent.
        let slabs: Vec<Vec<Complex64>> = (0..plan.p).map(|r| rank_slab(&plan, r)).collect();
        let mut x = vec![Complex64::zero(); plan.n()];
        let rows = plan.rows_local();
        for (r, slab) in slabs.iter().enumerate() {
            for i_local in 0..rows {
                let i = r * rows + i_local;
                for j in 0..plan.n2 {
                    x[j * plan.n1 + i] = slab[i_local * plan.n2 + j];
                }
            }
        }
        let mut want = x.clone();
        fft(&mut want);

        // Column-FFT each rank's expected receive buffer.
        let block = rows * plan.cols_local() * 16;
        let outs: Vec<Vec<Complex64>> = (0..plan.p)
            .map(|r| {
                let bytes = expected_transpose(&plan, r);
                let mut cols_mat = vec![vec![Complex64::zero(); plan.n1]; plan.cols_local()];
                for src in 0..plan.p {
                    let blk = decode(&bytes[src * block..(src + 1) * block]);
                    unpack_block(&plan, src, 0, rows, &blk, &mut cols_mat);
                }
                let mut res = Vec::with_capacity(plan.local_len());
                for col in cols_mat.iter_mut() {
                    fft(col);
                    res.extend_from_slice(col);
                }
                res
            })
            .collect();
        let got = gather_natural(&plan, &outs);
        assert!(max_rel_error(&got, &want) < 1e-9);
    }

    #[test]
    fn panel_blocks_are_rendezvous_sized() {
        let plan = panel_plan(4);
        assert!(plan.rows_local() * plan.cols_local() * 16 > 4096);
    }

    /// The decimated-layout helpers round-trip (guards the test above's
    /// hand-built signal assembly against layout drift).
    #[test]
    fn scatter_matches_rank_slab_layout() {
        let plan = DistPlan::new(8, 8, 2);
        let slabs: Vec<Vec<Complex64>> = (0..plan.p).map(|r| rank_slab(&plan, r)).collect();
        let mut x = vec![Complex64::zero(); plan.n()];
        let rows = plan.rows_local();
        for (r, slab) in slabs.iter().enumerate() {
            for i_local in 0..rows {
                for j in 0..plan.n2 {
                    x[j * plan.n1 + (r * rows + i_local)] = slab[i_local * plan.n2 + j];
                }
            }
        }
        let rescattered = scatter_natural(&plan, &x);
        for (a, b) in rescattered.iter().zip(&slabs) {
            assert_eq!(encode(a), encode(b));
        }
    }
}
