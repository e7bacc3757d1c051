//! Host memory, asserted like the copy budget
//! (`rdma-verbs/tests/copy_budget.rs`): registered memory costs what a
//! run touches, not what it registers. Every endpoint registers a 16 MiB
//! intermediate ring by default; a ping-pong uses a sliver of it, and
//! `MemoryTable::backed_bytes` says so exactly, where a peak-RSS reading
//! would be noisy.

use std::time::Duration;

use exs::{ExsConfig, ThreadStream};

const MIB: usize = 1 << 20;

#[test]
fn a_thread_pingpong_backs_under_a_mebibyte_of_its_16_mib_rings() {
    const TRIPS: u32 = 1_000;
    let cfg = ExsConfig::default();
    assert_eq!(cfg.ring_capacity, 16 << 20);
    let (a, b) = ThreadStream::pair(&cfg, Duration::ZERO);
    let backed = |s: &ThreadStream| s.node().with_hca(|h| h.mem().backed_bytes());
    assert_eq!((backed(&a), backed(&b)), (0, 0), "set-up touches nothing");

    std::thread::scope(|s| {
        s.spawn(|| {
            let mut buf = [0u8; 64];
            for _ in 0..TRIPS {
                b.recv_exact(&mut buf).unwrap();
                b.send_bytes(&buf).unwrap();
            }
        });
        let mut pong = [0u8; 64];
        for trip in 0..TRIPS {
            let ping = [trip as u8; 64];
            a.send_bytes(&ping).unwrap();
            a.recv_exact(&mut pong).unwrap();
            assert_eq!(ping, pong);
        }
    });

    for (name, node) in [("client", &a), ("echo", &b)] {
        let backed = backed(node);
        assert!(backed > 0 && backed < MIB, "{name} backs {backed} bytes");
    }
}
