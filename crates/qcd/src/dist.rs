//! Distributed Wilson-Dslash with *real data* over the `Comm` abstraction.
//!
//! A T-dimension slab decomposition whose ghost planes travel through the
//! simulated (or offloaded) MPI as actual encoded spinors. This is the
//! end-to-end correctness anchor for the whole stack: the same halo
//! exchange the performance drivers model, except every byte is checked
//! against the single-rank reference operator.

use approaches::Comm;
use mpisim::Bytes;
use numeric::Complex;

use crate::dslash::{dslash_generic, GaugeField};
use crate::lattice::SiteIndex;
use crate::su3::Spinor;

/// Serialize spinors as little-endian f64 pairs.
pub fn encode_spinors(spinors: &[Spinor<f64>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(spinors.len() * 192);
    for sp in spinors {
        for s in 0..4 {
            for c in 0..3 {
                out.extend_from_slice(&sp.s[s][c].re.to_le_bytes());
                out.extend_from_slice(&sp.s[s][c].im.to_le_bytes());
            }
        }
    }
    out
}

/// Inverse of [`encode_spinors`].
pub fn decode_spinors(bytes: &[u8]) -> Vec<Spinor<f64>> {
    assert_eq!(bytes.len() % 192, 0, "spinor payload misaligned");
    bytes
        .chunks_exact(192)
        .map(|chunk| {
            let mut sp = Spinor::zero();
            let mut vals = chunk
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte lane")));
            for s in 0..4 {
                for c in 0..3 {
                    let re = vals.next().expect("re");
                    let im = vals.next().expect("im");
                    sp.s[s][c] = Complex::new(re, im);
                }
            }
            sp
        })
        .collect()
}

/// Apply Dslash to this rank's T-slab `[t0, t0 + lt_local)` of a lattice
/// with global extents `global_dims`. `psi_local` is stored x-fastest over
/// `[lx, ly, lz, lt_local]`; `gauge` is the full global gauge field
/// (replicated — these tests run tiny lattices). Ghost planes are
/// exchanged with ring neighbors through `comm`.
pub async fn dslash_slab(
    comm: &Comm,
    gauge: &GaugeField<f64>,
    global_dims: [usize; 4],
    psi_local: &[Spinor<f64>],
    t0: usize,
    lt_local: usize,
) -> Vec<Spinor<f64>> {
    let [lx, ly, lz, gt] = global_dims;
    let plane = lx * ly * lz;
    assert_eq!(psi_local.len(), plane * lt_local);
    let p = comm.size();
    let r = comm.rank();
    let left = (r + p - 1) % p;
    let right = (r + 1) % p;

    // Exchange ghost planes (full spinors; the production code would send
    // spin-projected half-spinors — same wire pattern, double the volume).
    let first_plane = encode_spinors(&psi_local[..plane]);
    let last_plane = encode_spinors(&psi_local[(lt_local - 1) * plane..]);
    let (ghost_minus, ghost_plus) = if p == 1 {
        // Periodic wrap within the single rank.
        (decode_spinors(&last_plane), decode_spinors(&first_plane))
    } else {
        let rx_minus = comm.irecv(Some(left), Some(100)).await;
        let rx_plus = comm.irecv(Some(right), Some(101)).await;
        // Send my first plane backwards (it is my left neighbor's +T
        // ghost) and my last plane forwards.
        let tx1 = comm.isend(left, 101, Bytes::real(first_plane)).await;
        let tx2 = comm.isend(right, 100, Bytes::real(last_plane)).await;
        comm.waitall(&[rx_minus.clone(), rx_plus.clone(), tx1, tx2])
            .await;
        (
            decode_spinors(&rx_minus.take_data().expect("ghost -T").to_vec()),
            decode_spinors(&rx_plus.take_data().expect("ghost +T").to_vec()),
        )
    };

    let local_site = SiteIndex::new([lx, ly, lz, lt_local]);
    let global_site = SiteIndex::new(global_dims);
    let wrap3 = |v: isize, l: usize| -> usize { v.rem_euclid(l as isize) as usize };
    let psi_at = |c: [isize; 4]| -> Spinor<f64> {
        let x = wrap3(c[0], lx);
        let y = wrap3(c[1], ly);
        let z = wrap3(c[2], lz);
        let t = c[3];
        if t < 0 {
            ghost_minus[x + lx * (y + ly * z)]
        } else if t >= lt_local as isize {
            ghost_plus[x + lx * (y + ly * z)]
        } else {
            psi_local[local_site.index([x, y, z, t as usize])]
        }
    };
    let link_at = |mu: usize, c: [isize; 4]| {
        let x = wrap3(c[0], lx);
        let y = wrap3(c[1], ly);
        let z = wrap3(c[2], lz);
        let t = wrap3(c[3] + t0 as isize, gt);
        gauge.links[mu][global_site.index([x, y, z, t])]
    };
    dslash_generic([lx, ly, lz, lt_local], psi_at, link_at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use numeric::SplitMix64;

    #[test]
    fn spinor_codec_roundtrips() {
        let mut r = SplitMix64::new(3);
        let spinors: Vec<Spinor<f64>> = (0..10).map(|_| Spinor::random(&mut r)).collect();
        let decoded = decode_spinors(&encode_spinors(&spinors));
        assert_eq!(decoded.len(), spinors.len());
        for (a, b) in spinors.iter().zip(&decoded) {
            assert_eq!(a, b);
        }
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn codec_rejects_bad_lengths() {
        let _ = decode_spinors(&[0u8; 100]);
    }
}
