//! A [`VerbsPort`] that times and counts every verb `exs` issues.
//!
//! The traced pass hands `StreamSocket` a `TracedPort` around the
//! backend's own port, so time spent below the `exs`/`rdma-verbs`
//! boundary shows up as [`Layer::Port`](crate::span::Layer::Port)
//! spans nested inside the `exs` call that caused them. Every trait
//! method is forwarded — including the ones with default bodies, whose
//! defaults would silently change what the backend charges.

use std::cell::RefCell;

use exs::{CqPressure, VerbsPort};
use rdma_verbs::{Access, CqId, Cqe, MrInfo, MrKey, QpNum, RecvWr, Result, SendWr};

use crate::span::{in_span, Kind, Recorder};

/// Wraps `inner`, recording one span per call into `rec`.
pub struct TracedPort<'a, P: VerbsPort> {
    inner: &'a mut P,
    rec: &'a RefCell<Recorder>,
    /// Message the enclosing `exs` call works on (span `msg_id`).
    msg_id: u64,
}

impl<'a, P: VerbsPort> TracedPort<'a, P> {
    pub fn new(inner: &'a mut P, rec: &'a RefCell<Recorder>, msg_id: u64) -> Self {
        TracedPort { inner, rec, msg_id }
    }
}

impl<P: VerbsPort> VerbsPort for TracedPort<'_, P> {
    fn post_send(&mut self, qpn: QpNum, wr: SendWr) -> Result<()> {
        self.rec.borrow_mut().counters.send_wqes += 1;
        in_span(self.rec, Kind::PostSend, self.msg_id, || {
            self.inner.post_send(qpn, wr)
        })
    }

    fn post_send_list(&mut self, qpn: QpNum, wrs: Vec<SendWr>) -> Result<()> {
        self.rec.borrow_mut().counters.send_wqes += wrs.len() as u64;
        in_span(self.rec, Kind::PostSendList, self.msg_id, || {
            self.inner.post_send_list(qpn, wrs)
        })
    }

    fn post_recv(&mut self, qpn: QpNum, wr: RecvWr) -> Result<()> {
        in_span(self.rec, Kind::PostRecv, self.msg_id, || {
            self.inner.post_recv(qpn, wr)
        })
    }

    fn poll_cq(&mut self, cq: CqId, max: usize, out: &mut Vec<Cqe>) -> Result<usize> {
        let r = in_span(self.rec, Kind::PollCq, self.msg_id, || {
            self.inner.poll_cq(cq, max, out)
        });
        let counters = &mut self.rec.borrow_mut().counters;
        match r {
            Ok(0) => counters.empty_polls += 1,
            Ok(n) => counters.cqes += n as u64,
            Err(_) => {}
        }
        r
    }

    fn read_mr(&self, key: MrKey, addr: u64, buf: &mut [u8]) -> Result<()> {
        in_span(self.rec, Kind::ReadMr, self.msg_id, || {
            self.inner.read_mr(key, addr, buf)
        })
    }

    fn copy_mr(
        &mut self,
        src_key: MrKey,
        src_addr: u64,
        dst_key: MrKey,
        dst_addr: u64,
        len: u64,
    ) -> Result<u64> {
        let r = in_span(self.rec, Kind::CopyMr, self.msg_id, || {
            self.inner
                .copy_mr(src_key, src_addr, dst_key, dst_addr, len)
        });
        if let Ok(copied) = r {
            self.rec.borrow_mut().counters.copy_bytes += copied;
        }
        r
    }

    fn charge_cqe_cost(&mut self) {
        in_span(self.rec, Kind::ChargeCqeCost, self.msg_id, || {
            self.inner.charge_cqe_cost()
        })
    }

    fn sq_outstanding(&self, qpn: QpNum) -> usize {
        in_span(self.rec, Kind::SqOutstanding, self.msg_id, || {
            self.inner.sq_outstanding(qpn)
        })
    }

    fn register_mr(&mut self, len: usize, access: Access) -> MrInfo {
        in_span(self.rec, Kind::RegisterMr, self.msg_id, || {
            self.inner.register_mr(len, access)
        })
    }

    fn deregister_mr(&mut self, key: MrKey) -> Result<()> {
        in_span(self.rec, Kind::DeregisterMr, self.msg_id, || {
            self.inner.deregister_mr(key)
        })
    }

    fn register_mr_charged(&mut self, len: usize, access: Access) -> MrInfo {
        in_span(self.rec, Kind::RegisterMrCharged, self.msg_id, || {
            self.inner.register_mr_charged(len, access)
        })
    }

    fn deregister_mr_charged(&mut self, key: MrKey) -> Result<()> {
        in_span(self.rec, Kind::DeregisterMrCharged, self.msg_id, || {
            self.inner.deregister_mr_charged(key)
        })
    }

    fn write_mr(&mut self, key: MrKey, addr: u64, data: &[u8]) -> Result<()> {
        in_span(self.rec, Kind::WriteMr, self.msg_id, || {
            self.inner.write_mr(key, addr, data)
        })
    }

    fn cq_pressure(&self, cq: CqId) -> CqPressure {
        in_span(self.rec, Kind::CqPressure, self.msg_id, || {
            self.inner.cq_pressure(cq)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_verbs::Sge;
    use std::time::Instant;

    /// Records which trait method was reached. Every method is
    /// overridden, so a call that fell through to a *default* body of
    /// the trait (e.g. `post_send_list` decomposed into `post_send`s)
    /// shows up under the wrong name.
    #[derive(Default)]
    struct MockPort {
        calls: RefCell<Vec<&'static str>>,
    }

    impl MockPort {
        fn hit(&self, name: &'static str) {
            self.calls.borrow_mut().push(name);
        }
    }

    fn mr() -> MrInfo {
        MrInfo {
            key: MrKey(1),
            addr: 0x1000,
            len: 64,
        }
    }

    impl VerbsPort for MockPort {
        fn post_send(&mut self, _: QpNum, _: SendWr) -> Result<()> {
            self.hit("post_send");
            Ok(())
        }
        fn post_send_list(&mut self, _: QpNum, _: Vec<SendWr>) -> Result<()> {
            self.hit("post_send_list");
            Ok(())
        }
        fn post_recv(&mut self, _: QpNum, _: RecvWr) -> Result<()> {
            self.hit("post_recv");
            Ok(())
        }
        fn poll_cq(&mut self, _: CqId, _: usize, _: &mut Vec<Cqe>) -> Result<usize> {
            self.hit("poll_cq");
            Ok(0)
        }
        fn read_mr(&self, _: MrKey, _: u64, _: &mut [u8]) -> Result<()> {
            self.hit("read_mr");
            Ok(())
        }
        fn copy_mr(&mut self, _: MrKey, _: u64, _: MrKey, _: u64, len: u64) -> Result<u64> {
            self.hit("copy_mr");
            Ok(len)
        }
        fn charge_cqe_cost(&mut self) {
            self.hit("charge_cqe_cost");
        }
        fn sq_outstanding(&self, _: QpNum) -> usize {
            self.hit("sq_outstanding");
            3
        }
        fn register_mr(&mut self, _: usize, _: Access) -> MrInfo {
            self.hit("register_mr");
            mr()
        }
        fn deregister_mr(&mut self, _: MrKey) -> Result<()> {
            self.hit("deregister_mr");
            Ok(())
        }
        fn register_mr_charged(&mut self, _: usize, _: Access) -> MrInfo {
            self.hit("register_mr_charged");
            mr()
        }
        fn deregister_mr_charged(&mut self, _: MrKey) -> Result<()> {
            self.hit("deregister_mr_charged");
            Ok(())
        }
        fn write_mr(&mut self, _: MrKey, _: u64, _: &[u8]) -> Result<()> {
            self.hit("write_mr");
            Ok(())
        }
        fn cq_pressure(&self, _: CqId) -> CqPressure {
            self.hit("cq_pressure");
            CqPressure {
                overflowed: false,
                max_batch: 9,
                nonempty_polls: 1,
            }
        }
    }

    #[test]
    fn forwards_every_verbs_port_method() {
        let mut mock = MockPort::default();
        let rec = RefCell::new(Recorder::new(Instant::now(), 0, 64));
        {
            let mut port = TracedPort::new(&mut mock, &rec, 5);
            let sge = Sge {
                addr: 0x1000,
                len: 8,
                lkey: MrKey(1),
            };
            let wr = || SendWr::send(1, sge);
            port.post_send(QpNum(1), wr()).unwrap();
            port.post_send_list(QpNum(1), vec![wr(), wr()]).unwrap();
            port.post_recv(QpNum(1), RecvWr::new(2, sge)).unwrap();
            assert_eq!(port.poll_cq(CqId(0), 8, &mut Vec::new()).unwrap(), 0);
            port.read_mr(MrKey(1), 0x1000, &mut [0u8; 4]).unwrap();
            assert_eq!(
                port.copy_mr(MrKey(1), 0x1000, MrKey(1), 0x1010, 16)
                    .unwrap(),
                16
            );
            port.charge_cqe_cost();
            assert_eq!(port.sq_outstanding(QpNum(1)), 3);
            assert_eq!(port.register_mr(64, Access::NONE), mr());
            port.deregister_mr(MrKey(1)).unwrap();
            assert_eq!(port.register_mr_charged(64, Access::NONE), mr());
            port.deregister_mr_charged(MrKey(1)).unwrap();
            port.write_mr(MrKey(1), 0x1000, &[1, 2]).unwrap();
            assert_eq!(port.cq_pressure(CqId(0)).max_batch, 9);
        }
        assert_eq!(
            *mock.calls.borrow(),
            [
                "post_send",
                "post_send_list",
                "post_recv",
                "poll_cq",
                "read_mr",
                "copy_mr",
                "charge_cqe_cost",
                "sq_outstanding",
                "register_mr",
                "deregister_mr",
                "register_mr_charged",
                "deregister_mr_charged",
                "write_mr",
                "cq_pressure",
            ]
        );
        let rec = rec.borrow();
        // One span per call, all tagged with the message id.
        assert_eq!(rec.spans().len(), 14);
        assert!(rec.spans().iter().all(|s| s.msg_id == 5));
        assert_eq!(rec.counters.send_wqes, 3);
        assert_eq!(rec.counters.empty_polls, 1);
        assert_eq!(rec.counters.copy_bytes, 16);
    }
}
