//! Distributed 1-D FFT with real data over the `Comm` abstraction.
//!
//! The transpose ("four/six-step") factorization of Cooley–Tukey: view the
//! length-`N = N1·N2` signal as an `N1 × N2` row-major matrix,
//!
//! 1. FFT each row (length `N2`),
//! 2. multiply by twiddles `e^{-2πi·n1·k2/N}`,
//! 3. globally transpose (the all-to-all that stresses the fabric),
//! 4. FFT each column (length `N1`).
//!
//! Input is block-distributed by rows (rank `r` holds rows
//! `[r·N1/P, (r+1)·N1/P)`), output is block-distributed in natural
//! frequency order.
//!
//! [`fft_dist_pipelined`] is the low-communication variant in the spirit of
//! SOI FFT (paper §5.2, [32]): the rows are processed in `segments`, each
//! segment's all-to-all posted nonblocking as soon as its row FFTs finish,
//! overlapping the remaining segments' compute with communication — the
//! pipelining the paper exploits for overlap.

use approaches::{Comm, CommReq, SimColl};
use mpisim::Bytes;
use numeric::{Complex, Complex64};
use std::f64::consts::TAU;

use crate::local::fft;

/// Encode complex values as little-endian f64 pairs.
pub fn encode(values: &[Complex64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 16);
    for v in values {
        out.extend_from_slice(&v.re.to_le_bytes());
        out.extend_from_slice(&v.im.to_le_bytes());
    }
    out
}

/// Inverse of [`encode`].
pub fn decode(bytes: &[u8]) -> Vec<Complex64> {
    assert_eq!(bytes.len() % 16, 0, "complex payload misaligned");
    bytes
        .chunks_exact(16)
        .map(|c| {
            Complex::new(
                f64::from_le_bytes(c[..8].try_into().expect("re")),
                f64::from_le_bytes(c[8..].try_into().expect("im")),
            )
        })
        .collect()
}

/// Plan for a distributed FFT of `n1 * n2` points over `p` ranks.
#[derive(Clone, Copy, Debug)]
pub struct DistPlan {
    pub n1: usize,
    pub n2: usize,
    pub p: usize,
}

impl DistPlan {
    pub fn new(n1: usize, n2: usize, p: usize) -> Self {
        assert!(n1.is_power_of_two() && n2.is_power_of_two());
        assert_eq!(n1 % p, 0, "rows must divide evenly over ranks");
        assert_eq!(n2 % p, 0, "columns must divide evenly over ranks");
        Self { n1, n2, p }
    }

    pub fn n(&self) -> usize {
        self.n1 * self.n2
    }

    /// Rows held per rank.
    pub fn rows_local(&self) -> usize {
        self.n1 / self.p
    }

    /// Output columns (k2 values) held per rank.
    pub fn cols_local(&self) -> usize {
        self.n2 / self.p
    }

    /// Local input/output element count.
    pub fn local_len(&self) -> usize {
        self.n() / self.p
    }
}

/// Row FFT + twiddle for rows `[row0, row0+rows)` of the local slab, then
/// pack the all-to-all send buffer (one block per destination rank).
pub(crate) fn rows_fft_twiddle_pack(
    plan: &DistPlan,
    rank: usize,
    local: &mut [Complex64],
    row0: usize,
    rows: usize,
) -> Vec<u8> {
    let DistPlan { n1, n2, p } = *plan;
    let n = n1 * n2;
    let cols = n2 / p;
    for i in row0..row0 + rows {
        let row = &mut local[i * n2..(i + 1) * n2];
        fft(row);
        let g_n1 = rank * (n1 / p) + i;
        for (k2, v) in row.iter_mut().enumerate() {
            let ang = -TAU * (g_n1 as f64) * (k2 as f64) / n as f64;
            *v *= Complex64::cis(ang);
        }
    }
    // Pack per destination: dest d gets my rows × its k2 range.
    let mut buf = Vec::with_capacity(rows * n2 * 16);
    for d in 0..p {
        for i in row0..row0 + rows {
            let row = &local[i * n2..(i + 1) * n2];
            buf.extend_from_slice(&encode(&row[d * cols..(d + 1) * cols]));
        }
    }
    buf
}

/// Scatter one source rank's all-to-all block into the column-major
/// receive matrix `cols_mat[k2_local][n1]`.
pub(crate) fn unpack_block(
    plan: &DistPlan,
    src: usize,
    seg_row0: usize,
    seg_rows: usize,
    block: &[Complex64],
    cols_mat: &mut [Vec<Complex64>],
) {
    let rows_local = plan.rows_local();
    let cols = plan.cols_local();
    assert_eq!(block.len(), seg_rows * cols);
    for (bi, v) in block.iter().enumerate() {
        let i = seg_row0 + bi / cols; // row index within src's slab
        let k2l = bi % cols;
        let g_n1 = src * rows_local + i;
        cols_mat[k2l][g_n1] = *v;
    }
}

/// Map a natural-order signal into the distributed input layout: rank
/// `r`'s local buffer holds, at position `(i_local, j)` (row-major rows of
/// length `n2`), the global element `x[j·n1 + (r·rows_local + i_local)]`.
///
/// This is the *decimated* input layout of the single-transpose algorithm
/// (FFTW's MPI interface calls the analogous convention "transposed
/// order"); it avoids two of the three all-to-alls a natural-order
/// in/natural-order out transform would need.
pub fn scatter_natural(plan: &DistPlan, x: &[Complex64]) -> Vec<Vec<Complex64>> {
    assert_eq!(x.len(), plan.n());
    let rows = plan.rows_local();
    (0..plan.p)
        .map(|r| {
            let mut local = Vec::with_capacity(plan.local_len());
            for i_local in 0..rows {
                let i = r * rows + i_local;
                for j in 0..plan.n2 {
                    local.push(x[j * plan.n1 + i]);
                }
            }
            local
        })
        .collect()
}

/// Reassemble the natural-order spectrum from each rank's output: rank
/// `r`'s value at `(k_local, m)` is `X[m·n2 + (r·cols_local + k_local)]`.
pub fn gather_natural(plan: &DistPlan, outs: &[Vec<Complex64>]) -> Vec<Complex64> {
    assert_eq!(outs.len(), plan.p);
    let cols = plan.cols_local();
    let mut x = vec![Complex64::zero(); plan.n()];
    for (r, out) in outs.iter().enumerate() {
        assert_eq!(out.len(), plan.local_len());
        for k_local in 0..cols {
            let k = r * cols + k_local;
            for m in 0..plan.n1 {
                x[m * plan.n2 + k] = out[k_local * plan.n1 + m];
            }
        }
    }
    x
}

/// Blocking transpose-algorithm distributed FFT in decimated layouts (see
/// [`scatter_natural`]/[`gather_natural`] for the index mapping). `local`
/// holds this rank's `n1/p` rows of length `n2`.
pub async fn fft_dist(comm: &Comm, plan: &DistPlan, mut local: Vec<Complex64>) -> Vec<Complex64> {
    assert_eq!(local.len(), plan.local_len());
    assert_eq!(comm.size(), plan.p);
    let rank = comm.rank();
    let rows_local = plan.rows_local();
    let cols = plan.cols_local();
    let buf = rows_fft_twiddle_pack(plan, rank, &mut local, 0, rows_local);
    let block_bytes = rows_local * cols * 16;
    let out = comm.alltoall(Bytes::real(buf), block_bytes).await;
    let out = out.to_vec();
    // Reassemble per-column vectors and FFT them.
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
    result
}

/// Segmented, pipelined low-communication variant: the rows are split into
/// `segments`; each segment's all-to-all is posted as soon as its row FFTs
/// complete, so later segments' compute overlaps earlier segments'
/// communication. Numerically identical to [`fft_dist`].
pub async fn fft_dist_pipelined(
    comm: &Comm,
    plan: &DistPlan,
    mut local: Vec<Complex64>,
    segments: usize,
) -> Vec<Complex64> {
    assert_eq!(local.len(), plan.local_len());
    let rank = comm.rank();
    let rows_local = plan.rows_local();
    let cols = plan.cols_local();
    let segments = segments.clamp(1, rows_local);
    assert_eq!(
        rows_local % segments,
        0,
        "segments must divide the local row count"
    );
    let seg_rows = rows_local / segments;
    let seg_block = seg_rows * cols * 16;
    // Pipeline: compute a segment, post its exchange, move on.
    let mut pending: Vec<CommReq> = Vec::with_capacity(segments);
    for s in 0..segments {
        let buf = rows_fft_twiddle_pack(plan, rank, &mut local, s * seg_rows, seg_rows);
        let (input, block) = (Bytes::real(buf), seg_block);
        pending.push(comm.icollective(SimColl::Alltoall { input, block }).await);
        comm.progress_hint().await;
    }
    // Drain in order, scattering into the column matrix.
    let mut cols_mat: Vec<Vec<Complex64>> = vec![vec![Complex64::zero(); plan.n1]; cols];
    for (s, req) in pending.iter().enumerate() {
        comm.wait(req).await;
        let data = req.take_data().expect("segment exchange data").to_vec();
        for src in 0..plan.p {
            let block = decode(&data[src * seg_block..(src + 1) * seg_block]);
            unpack_block(plan, src, s * seg_rows, seg_rows, &block, &mut cols_mat);
        }
    }
    let mut result = Vec::with_capacity(plan.local_len());
    for col in cols_mat.iter_mut() {
        fft(col);
        result.extend_from_slice(col);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use numeric::SplitMix64;

    #[test]
    fn codec_roundtrips() {
        let mut rng = SplitMix64::new(1);
        let xs: Vec<Complex64> = (0..33)
            .map(|_| Complex::new(rng.next_gaussian(), rng.next_gaussian()))
            .collect();
        assert_eq!(decode(&encode(&xs)), xs);
    }

    #[test]
    fn plan_shapes() {
        let p = DistPlan::new(8, 16, 4);
        assert_eq!(p.n(), 128);
        assert_eq!(p.rows_local(), 2);
        assert_eq!(p.cols_local(), 4);
        assert_eq!(p.local_len(), 32);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn plan_rejects_indivisible() {
        let _ = DistPlan::new(8, 16, 3);
    }
}
