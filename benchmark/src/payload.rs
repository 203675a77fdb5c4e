//! The benchmark's only inputs: payload buffers generated from `--seed`.
//!
//! The program under test never sees the seed, a clock or an environment
//! variable — only these bytes. Each (rank, size) pair gets [`SETS`]
//! distinct buffers, rotated by round, so a received payload can be told
//! from the previous round's and from the other direction's.

use std::sync::Arc;

/// Distinct buffers per (rank, size), rotated per round.
pub const SETS: usize = 8;

/// Every this-many-th round compares the whole payload; the rounds in
/// between compare length and [`SAMPLED_WORDS`] words.
pub const FULL_CHECK_EVERY: u64 = 16;

const SAMPLED_WORDS: usize = 16;

/// SplitMix64: a fixed, dependency-free generator, so the same seed gives
/// the same bytes on every machine and every build.
pub struct Rng(u64);

impl Rng {
    /// One independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// `len` pseudo-random bytes.
pub fn bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// `lanes` little-endian f64 values, each a whole number below 1024, so a
/// sum over a handful of ranks is exact in every association order and
/// the expected allreduce result is a closed form, not a replay.
pub fn whole_f64s(rng: &mut Rng, lanes: usize) -> Vec<u8> {
    (0..lanes)
        .flat_map(|_| ((rng.next_u64() % 1024) as f64).to_le_bytes())
        .collect()
}

/// The [`SETS`] buffers of `len` bytes that `rank` sends; `stream`
/// separates the message kinds of one workload.
pub fn buffer_sets(seed: u64, stream: u64, rank: usize, len: usize) -> Vec<Arc<[u8]>> {
    let mut rng = Rng::new(seed, stream.wrapping_mul(1 << 20) ^ ((rank as u64) << 8));
    (0..SETS).map(|_| Arc::from(bytes(&mut rng, len))).collect()
}

/// Does `got` equal `want`? Length always; the whole payload on every
/// [`FULL_CHECK_EVERY`]-th round, [`SAMPLED_WORDS`] words spread over it
/// (positions shifting with the round) otherwise.
pub fn matches(got: &[u8], want: &[u8], round: u64) -> bool {
    if got.len() != want.len() {
        return false;
    }
    let words = got.len() / 8;
    if round.is_multiple_of(FULL_CHECK_EVERY) || words <= SAMPLED_WORDS {
        return got == want;
    }
    let step = words / SAMPLED_WORDS;
    (0..SAMPLED_WORDS).all(|k| {
        let w = (k * step + round as usize % step) % words;
        got[w * 8..w * 8 + 8] == want[w * 8..w * 8 + 8]
    })
}

/// Element-wise f64 sum of equally long lane buffers: the allreduce's
/// expected result, computed without the code under test.
pub fn sum_f64_lanes(inputs: &[&[u8]]) -> Vec<u8> {
    let lanes = inputs[0].len() / 8;
    (0..lanes)
        .flat_map(|l| {
            let s: f64 = inputs
                .iter()
                .map(|b| f64::from_le_bytes(b[l * 8..l * 8 + 8].try_into().expect("8-byte lane")))
                .sum();
            s.to_le_bytes()
        })
        .collect()
}

/// What `rank` holds after an all-to-all of `block`-byte blocks: block
/// `j` is block `rank` of rank `j`'s input.
pub fn alltoall_expected(inputs: &[&[u8]], rank: usize, block: usize) -> Vec<u8> {
    inputs
        .iter()
        .flat_map(|input| input[rank * block..(rank + 1) * block].iter().copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_payload_sets() {
        let a = buffer_sets(42, 3, 1, 1024);
        let b = buffer_sets(42, 3, 1, 1024);
        assert_eq!(a.len(), SETS);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x[..], y[..]);
        }
        // Another seed, stream or rank gives other bytes.
        assert_ne!(a[0][..], buffer_sets(43, 3, 1, 1024)[0][..]);
        assert_ne!(a[0][..], buffer_sets(42, 4, 1, 1024)[0][..]);
        assert_ne!(a[0][..], buffer_sets(42, 3, 2, 1024)[0][..]);
        // The eight buffers of one set differ from each other.
        for i in 1..SETS {
            assert_ne!(a[0][..], a[i][..]);
        }
        assert_eq!(
            whole_f64s(&mut Rng::new(7, 0), 4),
            whole_f64s(&mut Rng::new(7, 0), 4)
        );
    }

    #[test]
    fn matches_catches_length_and_content() {
        let want = bytes(&mut Rng::new(1, 1), 4096);
        assert!(matches(&want, &want, 0));
        assert!(matches(&want, &want, 5));
        assert!(!matches(&want[..4095], &want, 5));
        let mut bad = want.clone();
        bad[4000] ^= 1;
        // The full check on round 0 sees any byte; 32 consecutive rounds of
        // sampled checks cover every word of a 512-word buffer.
        assert!(!matches(&bad, &want, 0));
        assert!((1..=32).any(|r| !matches(&bad, &want, r)));
        // Short payloads are always compared whole.
        assert!(!matches(&[1, 2, 3], &[1, 2, 4], 3));
    }

    #[test]
    fn closed_form_collective_results() {
        let a = [1.0f64, 2.0].map(f64::to_le_bytes).concat();
        let b = [10.0f64, 20.0].map(f64::to_le_bytes).concat();
        let s = sum_f64_lanes(&[&a, &b]);
        assert_eq!(s, [11.0f64, 22.0].map(f64::to_le_bytes).concat());
        // Two ranks, 2-byte blocks: rank 1 ends with block 1 of each input.
        let i0 = [0u8, 1, 2, 3];
        let i1 = [10u8, 11, 12, 13];
        assert_eq!(alltoall_expected(&[&i0, &i1], 1, 2), vec![2, 3, 12, 13]);
    }
}
