//! Quickstart: two hosts, one stream socket, a few messages.
//!
//! Demonstrates the library's shape end to end:
//!
//! 1. build a simulated two-node RDMA fabric (FDR InfiniBand profile),
//! 2. open a connected EXS stream socket pair,
//! 3. stage client sends through the registered-memory pool
//!    ([`MemPool`] leases amortize `ibv_reg_mr` across transfers),
//! 4. drive the event loop and drain each socket's completion events,
//! 5. print the connection statistics (direct vs indirect transfers),
//! 6. tear everything down and verify no registration leaks.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::collections::HashMap;

use rdma_stream::exs::{ExsConfig, ExsEvent, MemPool, MrLease, StreamSocket};
use rdma_stream::simnet::SimTime;
use rdma_stream::verbs::{profiles, Access, MrInfo, NodeApi, NodeApp, SimNet};

/// The client sends three greetings as one byte stream, staging each
/// through a pooled lease instead of registering per message.
struct Client {
    sock: StreamSocket,
    /// Events drained from the socket and not yet handled.
    events: Vec<ExsEvent>,
    pool: MemPool,
    leases: HashMap<u64, MrLease>,
    sent: usize,
    acked: usize,
}

const GREETINGS: [&str; 3] = [
    "hello, stream semantics over RDMA!",
    "this byte stream travels as RDMA WRITE WITH IMM transfers,",
    "directly into advertised user memory whenever the receiver is ahead.",
];

impl Client {
    /// Acquires a pooled lease, stages the next greeting into it, and
    /// posts the send. After the first message the acquire is a cache
    /// hit: the region registered for greeting 0 is reused.
    fn send_next(&mut self, api: &mut NodeApi<'_>) {
        let text = GREETINGS[self.sent];
        let lease = self.pool.acquire(api, text.len(), Access::NONE);
        lease
            .write(api, 0, text.as_bytes())
            .expect("stage greeting");
        let id = self.sent as u64;
        self.sock
            .exs_send(api, lease.info(), 0, text.len() as u64, id);
        self.events.extend(self.sock.take_events());
        self.leases.insert(id, lease);
        self.sent += 1;
    }
}

impl NodeApp for Client {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.send_next(api);
    }

    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        self.sock.handle_wake(api);
        self.events.extend(self.sock.take_events());
        for ev in std::mem::take(&mut self.events) {
            if let ExsEvent::SendComplete { id, len } = ev {
                println!(
                    "[client] send #{id} complete ({len} bytes) at {}",
                    api.now()
                );
                // Dropping the lease returns the region to the pool.
                self.leases.remove(&id);
                self.acked += 1;
                if self.sent < GREETINGS.len() {
                    self.send_next(api);
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.acked == GREETINGS.len()
    }
}

/// The server receives the stream into fixed-size chunks.
struct Server {
    sock: StreamSocket,
    /// Events drained from the socket and not yet handled.
    events: Vec<ExsEvent>,
    mr: Option<MrInfo>,
    received: usize,
    expected: usize,
    next_id: u64,
    text: String,
}

impl Server {
    fn post(&mut self, api: &mut NodeApi<'_>) {
        let mr = self.mr.expect("registered in main");
        // One 64-byte receive at a time: the stream layer splits and
        // coalesces as needed.
        self.sock.exs_recv(api, &mr, 0, 64, false, self.next_id);
        self.events.extend(self.sock.take_events());
        self.next_id += 1;
    }
}

impl NodeApp for Server {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.post(api);
    }

    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        let mr = self.mr.expect("registered");
        self.sock.handle_wake(api);
        self.events.extend(self.sock.take_events());
        loop {
            let events = std::mem::take(&mut self.events);
            if events.is_empty() {
                break;
            }
            for ev in events {
                if let ExsEvent::RecvComplete { len, .. } = ev {
                    let mut buf = vec![0u8; len as usize];
                    api.read_mr(mr.key, mr.addr, &mut buf).expect("read");
                    self.text.push_str(&String::from_utf8_lossy(&buf));
                    self.received += len as usize;
                    println!("[server] {len:3} bytes at {}", api.now());
                }
            }
            if self.received < self.expected {
                self.post(api);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.received >= self.expected
    }
}

fn main() {
    // 1. Fabric: two nodes joined by an FDR InfiniBand link.
    let profile = profiles::fdr_infiniband();
    let mut net = SimNet::new();
    let a = net.add_node(profile.host.clone(), profile.hca.clone());
    let b = net.add_node(profile.host.clone(), profile.hca.clone());
    net.connect_nodes(a, b, profile.link.clone(), 42);

    // 2. A connected stream socket pair.
    let cfg = ExsConfig::default();
    let (sock_a, sock_b) = StreamSocket::pair(&mut net, a, b, &cfg);

    // 3. I/O memory: the client stages sends through the registered
    //    memory pool (one slab registration, reused per message); the
    //    server registers its receive window directly.
    let total: usize = GREETINGS.iter().map(|g| g.len()).sum();
    let pool = MemPool::new(cfg.pool.clone());
    let server_mr = net.with_api(b, |api| api.register_mr(64, Access::local_remote_write()));

    // 4. Run the applications.
    let mut client = Client {
        sock: sock_a,
        events: Vec::new(),
        pool: pool.clone(),
        leases: HashMap::new(),
        sent: 0,
        acked: 0,
    };
    let mut server = Server {
        sock: sock_b,
        events: Vec::new(),
        mr: Some(server_mr),
        received: 0,
        expected: total,
        next_id: 0,
        text: String::new(),
    };
    let outcome = net.run(&mut [&mut client, &mut server], SimTime::from_secs(1));
    assert!(outcome.completed, "quickstart did not finish: {outcome:?}");

    // 5. Results.
    println!();
    println!("reassembled stream: {:?}", server.text);
    let stats = client.sock.stats();
    println!(
        "client stats: {} direct / {} indirect transfers, {} mode switches, {} adverts received",
        stats.direct_transfers,
        stats.indirect_transfers,
        stats.mode_switches,
        stats.adverts_received,
    );
    println!("simulated time: {}", net.now());
    assert_eq!(server.text, GREETINGS.concat());

    // 6. Teardown: close the sockets, drain the pool, and verify that
    //    every memory registration on both nodes has been reclaimed.
    let ps = pool.stats();
    println!(
        "client pool: {} hits / {} misses ({} registrations for {} sends)",
        ps.hits,
        ps.misses,
        ps.registrations,
        GREETINGS.len()
    );
    net.with_api(a, |api| {
        client.sock.close(api);
        pool.trim(api);
        assert_eq!(api.mr_count(), 0, "client leaked a registration");
    });
    net.with_api(b, |api| {
        server.sock.close(api);
        api.hca_deregister(server_mr.key).expect("deregister");
        assert_eq!(api.mr_count(), 0, "server leaked a registration");
    });
    println!("teardown: 0 registrations left on either node");
    println!("OK");
}
