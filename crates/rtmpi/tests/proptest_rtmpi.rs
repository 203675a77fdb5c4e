//! Property-based tests of the real-threads message layer: arbitrary tagged
//! message scripts must be delivered completely, with per-tag FIFO order,
//! under real concurrency.

use proptest::prelude::*;
use std::sync::Arc;
use std::thread;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sender pushes an arbitrary tagged script; receiver drains per-tag.
    /// Every message arrives exactly once and in per-tag order.
    #[test]
    fn tagged_script_is_delivered_in_per_tag_order(tags in prop::collection::vec(0u32..4, 1..60)) {
        let mut world = rtmpi::world(2);
        let rx_side = world.pop().expect("rank 1");
        let tx_side = world.pop().expect("rank 0");
        let tags = Arc::new(tags);
        let tags2 = tags.clone();
        let sender = thread::spawn(move || {
            for (i, &t) in tags2.iter().enumerate() {
                tx_side.send(1, t, Arc::from(vec![i as u8]));
            }
        });
        // Receive per tag, in tag order — message payloads must appear in
        // ascending send order within each tag.
        let mut per_tag: Vec<Vec<u8>> = vec![Vec::new(); 4];
        for t in 0..4u32 {
            let n = tags.iter().filter(|&&x| x == t).count();
            for _ in 0..n {
                let (st, d) = rx_side.recv(Some(0), Some(t));
                prop_assert_eq!(st.tag, t);
                per_tag[t as usize].push(d[0]);
            }
        }
        sender.join().expect("sender");
        for (t, seq) in per_tag.iter().enumerate() {
            prop_assert!(
                seq.windows(2).all(|w| w[0] < w[1]),
                "tag {t} out of order: {seq:?}"
            );
        }
        let total: usize = per_tag.iter().map(Vec::len).sum();
        prop_assert_eq!(total, tags.len());
    }

    /// Probe never lies: after a send the sender was joined on, iprobe
    /// sees the message with the right metadata and recv consumes exactly
    /// it.
    #[test]
    fn probe_agrees_with_recv(len in 0usize..200, tag in 0u32..100) {
        let mut world = rtmpi::world(2);
        let rx_side = world.pop().expect("rank 1");
        let tx_side = world.pop().expect("rank 0");
        thread::spawn(move || tx_side.send(1, tag, Arc::from(vec![7u8; len])))
            .join()
            .expect("sender");
        let st = rx_side.iprobe(Some(0), None).expect("message visible");
        prop_assert_eq!(st.tag, tag);
        prop_assert_eq!(st.len, len);
        let (st2, d) = rx_side.recv(Some(0), Some(tag));
        prop_assert_eq!(st2.len, len);
        prop_assert_eq!(d.len(), len);
        prop_assert!(rx_side.iprobe(Some(0), None).is_none());
    }
}
