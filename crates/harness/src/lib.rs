//! `harness` — experiment infrastructure: the paper's microbenchmarks over
//! `approaches::Comm`, table/CSV reporting, and wall-clock calibration of the
//! real lock-free structures.

pub mod benchjson;
pub mod calibrate;
pub mod micro;
pub mod obsreport;
pub mod overlap;
pub mod table;

pub use benchjson::{
    bench_repeats, emit_snapshot, quick_mode, CompareOpts, Direction, PanelSnapshot, Series,
};
pub use calibrate::{calibrate, Calibration};
pub use micro::{
    isend_issue_cost, live_isend_issue_rate, nbc_issue_cost, nbc_overlap, osu_bandwidth,
    osu_latency, osu_mt_latency, osu_mt_latency_observed, overlap_p2p, overlap_p2p_observed,
    CollOp, LiveIssueResult, ObservedOverlap, OverlapResult,
};
pub use obsreport::{
    append_metrics, dump_trace, dump_trace_prefixed, merge_traces, metrics_table,
    trace_path_from_args,
};
pub use overlap::{
    overlap_live, overlap_snapshot, overlap_table, p2p_overlap_live, run_overlap_panel, OverlapRow,
};
pub use table::{fmt_bytes, fmt_ns, Table};
