//! End-to-end flight-recorder export: run an offloaded exchange under a
//! virtual-clock recorder, emit Chrome trace JSON, and check it with the
//! hand-rolled structural validator — including per-track timestamp
//! monotonicity, which must hold exactly under the DES clock.
#![cfg(feature = "obs-enabled")]

use approaches::{run_approach_traced, Approach, Comm};
use mpisim::Bytes;
use obs::chrome::{check_monotone_per_track, validate_chrome_trace};
use simnet::MachineProfile;

async fn exchange_with_compute(comm: Comm) -> usize {
    let env = comm.env().clone();
    let peer = 1 - comm.rank();
    let rx = comm.irecv(Some(peer), Some(1)).await;
    let tx = comm.isend(peer, 1, Bytes::synthetic(1 << 20)).await;
    env.advance(5_000_000).await;
    comm.waitall(&[rx.clone(), tx]).await;
    // A second, smaller round so the service loop has several wakeups.
    let rx2 = comm.irecv(Some(peer), Some(2)).await;
    let tx2 = comm.isend(peer, 2, Bytes::synthetic(256)).await;
    comm.waitall(&[rx2, tx2]).await;
    rx.take_data().map(|d| d.len()).unwrap_or(0)
}

#[test]
fn offload_trace_is_structurally_valid_and_monotone() {
    let recorder = obs::Recorder::virtual_clock();
    let (outs, _) = run_approach_traced(
        2,
        MachineProfile::xeon(),
        Approach::Offload,
        false,
        recorder.clone(),
        exchange_with_compute,
    );
    assert_eq!(outs, vec![1 << 20, 1 << 20], "payloads delivered");

    let json = recorder.to_chrome_json();
    let events = validate_chrome_trace(&json).expect("structurally valid Chrome trace");
    // One metadata event per rank's offload track, plus real events.
    let meta = events.iter().filter(|e| e.ph == "M").count();
    assert_eq!(meta, 2, "one thread_name record per offload track");
    let real = events.len() - meta;
    assert!(real >= 4, "expected drain/retire events, got {real}");
    assert!(
        events.iter().any(|e| e.ph == "X"),
        "service spans present (drain)"
    );
    // Virtual timestamps never go backwards within a track.
    check_monotone_per_track(&events).expect("monotone virtual timestamps");
}

#[test]
fn disabled_recorder_exports_an_empty_valid_trace() {
    let recorder = obs::Recorder::disabled();
    let (outs, _) = run_approach_traced(
        2,
        MachineProfile::xeon(),
        Approach::Offload,
        false,
        recorder.clone(),
        exchange_with_compute,
    );
    assert_eq!(outs.len(), 2);
    let events = validate_chrome_trace(&recorder.to_chrome_json()).expect("valid");
    assert!(events.is_empty(), "disabled recorder records nothing");
}
