//! Real threads, real blocking sockets — the thread-safety the paper's
//! algorithm was designed for (§I: "a thread-safe algorithm").
//!
//! Two OS threads run a scripted chat over one EXS stream connection on
//! the real-thread fabric (`ThreadNet`): no virtual clock, genuine
//! concurrency, blocking `send_bytes`/`recv_exact` calls. A third and
//! fourth thread concurrently push framed telemetry over the same
//! connection to show that interleaved senders never tear the stream.
//!
//! Run with:
//! ```text
//! cargo run --release --example threaded_chat
//! ```

use std::sync::Arc;
use std::time::Duration;

use rdma_stream::exs::{ExsConfig, ThreadStream};

fn main() {
    let (alice, bob) = ThreadStream::pair(&ExsConfig::default(), Duration::from_micros(100));
    let alice = Arc::new(alice);
    let bob = Arc::new(bob);

    // A scripted conversation, strictly alternating.
    let script = [
        ("alice", "hey bob, this stream runs on real threads"),
        ("bob", "nice - zero-copy when I post receives early?"),
        ("alice", "yes, and buffered when you fall behind"),
        ("bob", "same bytes either way. goodbye!"),
    ];

    let a = alice.clone();
    let b = bob.clone();
    let chat = std::thread::spawn(move || {
        for (who, line) in script {
            let (tx, rx) = if who == "alice" { (&a, &b) } else { (&b, &a) };
            // Frame: 4-byte length + text.
            let mut frame = (line.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(line.as_bytes());
            tx.send_bytes(&frame).expect("send");
            let mut len_buf = [0u8; 4];
            rx.recv_exact(&mut len_buf).expect("recv len");
            let mut text = vec![0u8; u32::from_le_bytes(len_buf) as usize];
            rx.recv_exact(&mut text).expect("recv text");
            println!("[{who}] {}", String::from_utf8_lossy(&text));
        }
    });
    chat.join().unwrap();

    // Concurrent framed telemetry: two writers share Alice's endpoint.
    println!();
    println!("two threads now share one connection for framed telemetry...");
    const FRAMES: usize = 100;
    let reader = {
        let bob = bob.clone();
        std::thread::spawn(move || {
            let mut counts = [0usize; 2];
            for _ in 0..FRAMES * 2 {
                let mut header = [0u8; 8];
                bob.recv_exact(&mut header).expect("telemetry header");
                let writer = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
                let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
                let mut payload = vec![0u8; len];
                bob.recv_exact(&mut payload).expect("telemetry payload");
                assert!(payload.iter().all(|&b| b == writer as u8), "frame torn!");
                counts[writer] += 1;
            }
            counts
        })
    };
    std::thread::scope(|s| {
        for writer in 0..2u32 {
            let alice = alice.clone();
            s.spawn(move || {
                for i in 0..FRAMES {
                    let len = 32 + (i * 13) % 400;
                    let mut frame = Vec::with_capacity(len + 8);
                    frame.extend_from_slice(&writer.to_le_bytes());
                    frame.extend_from_slice(&(len as u32).to_le_bytes());
                    frame.extend(std::iter::repeat_n(writer as u8, len));
                    alice.send_bytes(&frame).expect("telemetry send");
                }
            });
        }
    });
    let counts = reader.join().unwrap();
    println!(
        "received {} + {} intact frames, zero torn",
        counts[0], counts[1]
    );

    let stats = alice.stats();
    println!(
        "alice sent {} bytes: {} direct / {} indirect transfers, {} mode switches",
        stats.bytes_sent, stats.direct_transfers, stats.indirect_transfers, stats.mode_switches
    );

    // Every `send_bytes`/`recv_exact` above staged through the
    // endpoint's registered-memory pool: a handful of registrations
    // serve hundreds of transfers.
    let ps = alice.pool().stats();
    println!(
        "alice's mempool: {} hits / {} misses, {} registrations, {} KiB pinned at peak",
        ps.hits,
        ps.misses,
        ps.registrations,
        ps.pinned_peak / 1024
    );

    // Teardown: `close()` sends whatever the endpoint still owes,
    // releases every socket registration, and unpins the pools.
    let mut alice = Arc::try_unwrap(alice).ok().expect("chat threads joined");
    let mut bob = Arc::try_unwrap(bob).ok().expect("chat threads joined");
    alice.close();
    bob.close();
    println!("closed both endpoints; all registered memory reclaimed");
}
