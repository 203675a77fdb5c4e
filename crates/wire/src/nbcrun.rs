//! The one NBC schedule runner lives in [`mpisim::nbc`]; these re-exports
//! keep the path the wire fixtures, `protocheck` and `opbench` import.

pub use mpisim::nbc::{Coll, NbcRun};
pub use mpisim::types::{Dtype, ReduceOp};
