//! Public value types of the simulated MPI library.

use std::rc::Rc;

/// Rank within a communicator.
pub type Rank = usize;

/// Message tag. Application tags must stay below [`TAG_INTERNAL_BASE`].
pub type Tag = u32;

/// Tags at or above this value are reserved for internal collective
/// schedules. This is the one shared reserved-tag constant for the whole
/// workspace, re-exported from `rtmpi`. The simulator and both live
/// substrates match through the same [`rtmpi::MatchQueue`], whose
/// wildcard rule (`ANY_TAG` never matches a reserved tag) is therefore
/// the one rule on every clock, and all three draw per-collective tags
/// from the same span (`rtmpi::TAG_COLL_BASE + seq % TAG_COLL_SPAN`).
pub const TAG_INTERNAL_BASE: Tag = rtmpi::TAG_RESERVED_BASE;

/// Wildcard source for receives (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: Option<Rank> = None;

/// Wildcard tag for receives (`MPI_ANY_TAG`).
pub const ANY_TAG: Option<Tag> = None;

/// Thread support level requested at init (`MPI_Init_thread`).
///
/// `Funneled` and `Serialized` behave identically in the model: only one
/// thread is inside MPI at a time and the library takes no lock. `Multiple`
/// wraps every call in the global library lock *plus* the extra
/// critical-section cost the paper measures (~2.5 µs on Intel MPI).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadLevel {
    Single,
    Funneled,
    Serialized,
    Multiple,
}

impl ThreadLevel {
    pub fn locked(self) -> bool {
        matches!(self, ThreadLevel::Multiple)
    }
}

/// Message payload. `Synthetic` carries only a nominal length so that
/// cluster-scale simulations (e.g. 2^29-point FFTs per node) do not allocate
/// the actual gigabytes; all costs and protocol decisions use the nominal
/// length either way.
#[derive(Clone, Debug)]
pub enum Bytes {
    Real(Rc<Vec<u8>>),
    Synthetic(usize),
}

impl Bytes {
    pub fn real(data: Vec<u8>) -> Self {
        Bytes::Real(Rc::new(data))
    }

    pub fn synthetic(len: usize) -> Self {
        Bytes::Synthetic(len)
    }

    pub fn len(&self) -> usize {
        match self {
            Bytes::Real(v) => v.len(),
            Bytes::Synthetic(n) => *n,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow the real bytes; `None` for synthetic payloads.
    pub fn as_real(&self) -> Option<&[u8]> {
        match self {
            Bytes::Real(v) => Some(v),
            Bytes::Synthetic(_) => None,
        }
    }

    /// Copy out as a vector; synthetic payloads materialize as zeros (only
    /// sensible for small test payloads).
    pub fn to_vec(&self) -> Vec<u8> {
        match self {
            Bytes::Real(v) => v.as_ref().clone(),
            Bytes::Synthetic(n) => vec![0; *n],
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::real(v)
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::real(v.to_vec())
    }
}

/// Completion status of a receive (`MPI_Status`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Status {
    pub source: Rank,
    pub tag: Tag,
    pub len: usize,
}

/// Element type for reductions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dtype {
    F64,
    F32,
    I64,
    U8,
}

impl Dtype {
    pub fn size(self) -> usize {
        match self {
            Dtype::F64 | Dtype::I64 => 8,
            Dtype::F32 => 4,
            Dtype::U8 => 1,
        }
    }
}

/// Reduction operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Max,
    Min,
}

/// Element-wise combine `acc[i] = op(acc[i], other[i])` over raw bytes.
///
/// Both operands must be real and of equal length, a multiple of the dtype
/// size. Synthetic payload reductions are handled by the caller (result is
/// synthetic).
pub fn combine(dtype: Dtype, op: ReduceOp, acc: &mut [u8], other: &[u8]) {
    assert_eq!(acc.len(), other.len(), "reduce length mismatch");
    assert_eq!(acc.len() % dtype.size(), 0, "reduce dtype misalignment");
    macro_rules! lanes {
        ($t:ty) => {{
            let n = core::mem::size_of::<$t>();
            for (a, b) in acc.chunks_exact_mut(n).zip(other.chunks_exact(n)) {
                let x = <$t>::from_le_bytes(a.try_into().expect("chunk size"));
                let y = <$t>::from_le_bytes(b.try_into().expect("chunk size"));
                let r = match op {
                    ReduceOp::Sum => x + y,
                    ReduceOp::Max => {
                        if y > x {
                            y
                        } else {
                            x
                        }
                    }
                    ReduceOp::Min => {
                        if y < x {
                            y
                        } else {
                            x
                        }
                    }
                };
                a.copy_from_slice(&r.to_le_bytes());
            }
        }};
    }
    match dtype {
        Dtype::F64 => lanes!(f64),
        Dtype::F32 => lanes!(f32),
        Dtype::I64 => lanes!(i64),
        Dtype::U8 => lanes!(u8),
    }
}

/// Encode a slice of f64 into little-endian bytes (test/workload helper).
pub fn f64s_to_bytes(xs: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(xs.len() * 8);
    for x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Decode little-endian bytes into f64 values.
pub fn bytes_to_f64s(b: &[u8]) -> Vec<f64> {
    assert_eq!(b.len() % 8, 0);
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_sum_f64() {
        let mut a = f64s_to_bytes(&[1.0, 2.0]);
        let b = f64s_to_bytes(&[10.0, 20.0]);
        combine(Dtype::F64, ReduceOp::Sum, &mut a, &b);
        assert_eq!(bytes_to_f64s(&a), vec![11.0, 22.0]);
    }

    #[test]
    fn combine_max_min_i64() {
        let enc = |xs: &[i64]| xs.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<_>>();
        let mut a = enc(&[1, 9, -5]);
        combine(Dtype::I64, ReduceOp::Max, &mut a, &enc(&[3, 2, -7]));
        let dec: Vec<i64> = a
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(dec, vec![3, 9, -5]);
        let mut b = enc(&[3, 9, -5]);
        combine(Dtype::I64, ReduceOp::Min, &mut b, &enc(&[1, 20, -7]));
        let dec: Vec<i64> = b
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(dec, vec![1, 9, -7]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn combine_rejects_mismatched_lengths() {
        let mut a = vec![0u8; 8];
        combine(Dtype::F64, ReduceOp::Sum, &mut a, &[0u8; 16]);
    }

    #[test]
    fn bytes_nominal_lengths() {
        assert_eq!(Bytes::synthetic(1 << 30).len(), 1 << 30);
        assert_eq!(Bytes::real(vec![1, 2, 3]).len(), 3);
        assert!(Bytes::synthetic(0).is_empty());
        assert_eq!(Bytes::real(vec![7]).as_real(), Some(&[7u8][..]));
        assert!(Bytes::synthetic(4).as_real().is_none());
    }

    #[test]
    fn f64_roundtrip() {
        let xs = [0.5, -3.25, 1e100];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&xs)), xs.to_vec());
    }

    #[test]
    fn thread_level_lock_requirements() {
        assert!(ThreadLevel::Multiple.locked());
        assert!(!ThreadLevel::Funneled.locked());
        assert!(!ThreadLevel::Serialized.locked());
        assert!(!ThreadLevel::Single.locked());
    }
}
