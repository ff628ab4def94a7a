//! The fabric: per-node NIC queues and per-endpoint connections.
//!
//! A [`Connection`] is the software endpoint a message is injected through.
//! The process backend creates one connection per UPC thread; the pthread
//! backend one per node shared by all its threads — the single modeling
//! decision behind the process-vs-pthread contrast of thesis §4.3.1.
//!
//! An optional [`FaultInjector`] makes the wire lossy: each traversal may be
//! dropped or jittered according to the installed `FaultPlan`, and per-node
//! degraded-NIC windows scale the NIC service time. The fabric only *models*
//! the loss — recovery (retransmission, backoff, retry budgets) lives a
//! layer up in `hupc-gasnet`.

use std::sync::Arc;

use hupc_fault::FaultInjector;
use hupc_sim::{Kernel, ResourceId, Time};
use hupc_topo::NodeId;

use crate::conduit::Conduit;
use crate::error::NetError;

/// A message-injection endpoint bound to a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Connection {
    pub node: NodeId,
    res: ResourceId,
}

/// Outcome of one fabric transaction.
///
/// `local` is always meaningful: the source-side resources were held until
/// then and the source buffer is reusable. `remote` exists only if the data
/// actually arrived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use = "a Delivery may be Dropped; ignoring it loses the completion times"]
pub enum Delivery {
    /// The message arrived: source free at `local`, visible at `remote`.
    Delivered { local: Time, remote: Time },
    /// The message was lost on the wire after the source finished
    /// transmitting at `local`. The destination never sees it.
    Dropped { local: Time },
}

impl Delivery {
    /// When the source-side buffer is reusable (drop or not).
    pub fn local(&self) -> Time {
        match *self {
            Delivery::Delivered { local, .. } | Delivery::Dropped { local } => local,
        }
    }

    /// `Some((local, remote))` if the message arrived.
    pub fn delivered(&self) -> Option<(Time, Time)> {
        match *self {
            Delivery::Delivered { local, remote } => Some((local, remote)),
            Delivery::Dropped { .. } => None,
        }
    }

    /// Unwrap a delivery that cannot have been dropped (no fault plan
    /// installed). Panics on `Dropped`.
    pub fn expect_delivered(&self) -> (Time, Time) {
        self.delivered()
            .expect("message dropped by fault injection; caller must retransmit")
    }
}

/// The inter-node network: conduit parameters plus NIC resources.
#[derive(Clone, Debug)]
pub struct Fabric {
    conduit: Conduit,
    tx: Vec<ResourceId>,
    rx: Vec<ResourceId>,
    /// Effective-NIC slowdown from network-progress oversubscription
    /// (≥ 1.0): when more polling endpoints than physical cores share a
    /// node (SMT-density process runs), progress threads time-slice and the
    /// adapter is driven below line rate. 1.0 = no penalty.
    nic_factor: f64,
    /// Optional fault injection (shared with the runtime layer so straggler
    /// CPU scaling and wire faults come from one plan + one PRNG stream).
    fault: Option<Arc<FaultInjector>>,
}

impl Fabric {
    /// Register NIC resources for `nodes` nodes on the kernel.
    pub fn build(kernel: &mut Kernel, conduit: Conduit, nodes: usize) -> Self {
        let tx = (0..nodes)
            .map(|n| kernel.new_resource(format!("nic-tx[{n}]")))
            .collect();
        let rx = (0..nodes)
            .map(|n| kernel.new_resource(format!("nic-rx[{n}]")))
            .collect();
        Fabric {
            conduit,
            tx,
            rx,
            nic_factor: 1.0,
            fault: None,
        }
    }

    /// Set the progress-oversubscription factor (call before sharing).
    pub fn set_nic_factor(&mut self, f: f64) {
        assert!(f >= 1.0, "nic factor must be >= 1");
        self.nic_factor = f;
    }

    /// Install a fault injector (call before sharing). All subsequent
    /// transactions consult it for drops, jitter and degraded-NIC windows.
    pub fn set_fault(&mut self, inj: Arc<FaultInjector>) {
        self.fault = Some(inj);
    }

    /// The installed injector, if any.
    pub fn fault(&self) -> Option<&Arc<FaultInjector>> {
        self.fault.as_ref()
    }

    /// Scaled NIC service time for `bytes` on `node` at virtual time `now`:
    /// oversubscription factor × any open degraded-NIC fault window.
    fn nic_service(&self, node: NodeId, now: Time, bytes: usize) -> Time {
        let mut f = self.nic_factor;
        if let Some(inj) = &self.fault {
            f *= inj.plan().nic_factor(node.0, now);
        }
        hupc_sim::time::from_secs_f64(
            hupc_sim::time::as_secs_f64(self.conduit.nic_service(bytes)) * f,
        )
    }

    /// Consult the injector for one wire traversal; identity when no plan.
    fn xmit(&self, src: NodeId, dst: NodeId) -> hupc_fault::Xmit {
        match &self.fault {
            Some(inj) => inj.xmit(src.0, dst.0),
            None => hupc_fault::Xmit {
                dropped: false,
                jitter: 0,
            },
        }
    }

    pub fn conduit(&self) -> &Conduit {
        &self.conduit
    }

    pub fn nodes(&self) -> usize {
        self.tx.len()
    }

    fn check_node(&self, node: NodeId) -> Result<(), NetError> {
        if node.0 < self.tx.len() {
            Ok(())
        } else {
            Err(NetError::NodeOutOfRange {
                node,
                nodes: self.tx.len(),
            })
        }
    }

    fn check_pair(&self, src: NodeId, dst: NodeId) -> Result<(), NetError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(NetError::SelfMessage { node: src });
        }
        Ok(())
    }

    /// Open a new connection on `node` (one per process endpoint, or one per
    /// node shared by a pthread backend).
    pub fn open_connection(&self, kernel: &mut Kernel, node: NodeId) -> Result<Connection, NetError> {
        self.check_node(node)?;
        let res = kernel.new_resource(format!("conn[n{}]", node.0));
        Ok(Connection { node, res })
    }

    /// Sender-side CPU overhead per message (charge on the initiating actor
    /// before calling [`Fabric::inject`]).
    pub fn send_overhead(&self) -> Time {
        self.conduit.send_overhead
    }

    /// Compute the delivery time of a `bytes`-long message injected now
    /// through `conn` towards `dst`. Advances the fabric's resource queues;
    /// does not block the caller (callers decide whether to wait on local or
    /// remote completion).
    ///
    /// With a fault plan installed the message may be [`Delivery::Dropped`]:
    /// the source still pays connection + tx-NIC occupancy (the packet *was*
    /// transmitted — it died on the wire), but the destination rx NIC is
    /// never touched and there is no remote completion.
    pub fn inject(
        &self,
        kernel: &mut Kernel,
        conn: Connection,
        dst: NodeId,
        bytes: usize,
    ) -> Result<Delivery, NetError> {
        self.check_pair(conn.node, dst)?;
        let now = kernel.now();
        let injected = kernel.acquire(conn.res, self.conduit.conn_service(bytes));
        let on_wire = kernel.acquire_after(
            self.tx[conn.node.0],
            injected,
            self.nic_service(conn.node, now, bytes),
        );
        let fate = self.xmit(conn.node, dst);
        if fate.dropped {
            return Ok(Delivery::Dropped { local: injected });
        }
        let arrived = on_wire + self.conduit.wire_latency + fate.jitter;
        let delivered = kernel.acquire_after(
            self.rx[dst.0],
            arrived,
            self.nic_service(dst, now, bytes),
        );
        Ok(Delivery::Delivered {
            local: injected,
            remote: delivered,
        })
    }

    /// Intra-node message that loops back through the network API (the
    /// no-PSHM process backend): it occupies the connection and both NIC
    /// directions of the node — competing with genuine remote traffic —
    /// but skips the wire, so it cannot be dropped or jittered. Degraded-NIC
    /// windows still apply (the adapter itself is slow, not the wire).
    pub fn inject_loopback(&self, kernel: &mut Kernel, conn: Connection, bytes: usize) -> Time {
        let now = kernel.now();
        let injected = kernel.acquire(conn.res, self.conduit.conn_service(bytes));
        let through = kernel.acquire_after(
            self.tx[conn.node.0],
            injected,
            self.nic_service(conn.node, now, bytes),
        );
        kernel.acquire_after(
            self.rx[conn.node.0],
            through,
            self.nic_service(conn.node, now, bytes),
        )
    }

    /// One-sided RDMA read: a small request travels to `remote`, then
    /// `bytes` flow back. The requester's connection accounts the injection
    /// gap (its endpoint drives the transaction); `remote`'s tx NIC and the
    /// requester's rx NIC carry the payload.
    ///
    /// Either leg can be dropped by the fault plan. A lost request costs
    /// only the connection occupancy; a lost response additionally ties up
    /// the remote tx NIC (the payload was sent — it died on the way back).
    pub fn rdma_get(
        &self,
        kernel: &mut Kernel,
        conn: Connection,
        remote: NodeId,
        bytes: usize,
    ) -> Result<Delivery, NetError> {
        self.check_pair(conn.node, remote)?;
        let now = kernel.now();
        let req_sent = kernel.acquire(conn.res, self.conduit.conn_service(bytes));
        let req = self.xmit(conn.node, remote);
        if req.dropped {
            return Ok(Delivery::Dropped { local: req_sent });
        }
        let req_arrived = req_sent + self.conduit.wire_latency + req.jitter;
        let on_wire = kernel.acquire_after(
            self.tx[remote.0],
            req_arrived,
            self.nic_service(remote, now, bytes),
        );
        let resp = self.xmit(remote, conn.node);
        if resp.dropped {
            return Ok(Delivery::Dropped { local: req_sent });
        }
        let back = on_wire + self.conduit.wire_latency + resp.jitter;
        let delivered = kernel.acquire_after(
            self.rx[conn.node.0],
            back,
            self.nic_service(conn.node, now, bytes),
        );
        Ok(Delivery::Delivered {
            local: req_sent,
            remote: delivered,
        })
    }

    /// Total bytes×time the tx NIC of `node` has been busy (utilization
    /// reporting in the bench harness).
    pub fn tx_busy(&self, kernel: &Kernel, node: NodeId) -> Time {
        kernel.resource_busy_total(self.tx[node.0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hupc_fault::{FaultPlan, Jitter};
    use hupc_sim::{time, Simulation};

    fn delivered(d: Result<Delivery, NetError>) -> (Time, Time) {
        d.unwrap().expect_delivered()
    }

    #[test]
    fn single_message_delivery_time() {
        let sim = Simulation::new();
        let mut k = sim.kernel();
        let fab = Fabric::build(&mut k, Conduit::ib_qdr(), 2);
        let conn = fab.open_connection(&mut k, NodeId(0)).unwrap();
        let (_local, remote) = delivered(fab.inject(&mut k, conn, NodeId(1), 8));
        let expected = fab.conduit().conn_service(8)
            + fab.conduit().nic_service(8) // tx NIC
            + fab.conduit().wire_latency
            + fab.conduit().nic_service(8); // rx NIC
        assert_eq!(remote, expected);
    }

    #[test]
    fn shared_connection_serializes_injection() {
        let sim = Simulation::new();
        let mut k = sim.kernel();
        let fab = Fabric::build(&mut k, Conduit::ib_qdr(), 2);
        let conn = fab.open_connection(&mut k, NodeId(0)).unwrap();
        let (l1, _) = delivered(fab.inject(&mut k, conn, NodeId(1), 1 << 20));
        let (l2, _) = delivered(fab.inject(&mut k, conn, NodeId(1), 1 << 20));
        // Second message queues behind the first on the connection.
        assert!(l2 >= l1 * 2 - time::ns(1));
    }

    #[test]
    fn separate_connections_share_only_the_nic() {
        let sim = Simulation::new();
        let mut k = sim.kernel();
        let fab = Fabric::build(&mut k, Conduit::ib_qdr(), 2);
        let c1 = fab.open_connection(&mut k, NodeId(0)).unwrap();
        let c2 = fab.open_connection(&mut k, NodeId(0)).unwrap();
        let bytes = 1 << 20;
        let (i1, _) = delivered(fab.inject(&mut k, c1, NodeId(1), bytes));
        let (i2, _) = delivered(fab.inject(&mut k, c2, NodeId(1), bytes));
        // Both inject concurrently: i2 ≈ i1, not 2×i1.
        assert_eq!(i1, i2);
        // But the NIC serializes the wire transfer of the second message.
        let (_, r2) = (i2, fab.tx_busy(&k, NodeId(0)));
        assert_eq!(r2, fab.conduit().nic_service(bytes) * 2);
    }

    #[test]
    fn aggregate_two_connections_beats_one() {
        // Flood 8 mid-size messages through 1 vs 2 connections.
        let bytes = 16 << 10;
        let run = |nconn: usize| -> Time {
            let sim = Simulation::new();
            let mut k = sim.kernel();
            let fab = Fabric::build(&mut k, Conduit::ib_qdr(), 2);
            let conns: Vec<_> = (0..nconn)
                .map(|_| fab.open_connection(&mut k, NodeId(0)).unwrap())
                .collect();
            let mut last = 0;
            for i in 0..8 {
                let (_, r) = delivered(fab.inject(&mut k, conns[i % nconn], NodeId(1), bytes));
                last = last.max(r);
            }
            last
        };
        assert!(run(2) < run(1));
    }

    #[test]
    fn same_node_injection_is_typed_error() {
        let sim = Simulation::new();
        let mut k = sim.kernel();
        let fab = Fabric::build(&mut k, Conduit::ib_qdr(), 2);
        let conn = fab.open_connection(&mut k, NodeId(0)).unwrap();
        let err = fab.inject(&mut k, conn, NodeId(0), 8).unwrap_err();
        assert_eq!(err, NetError::SelfMessage { node: NodeId(0) });
        assert!(err.to_string().contains("inter-node"));
    }

    #[test]
    fn out_of_range_destination_is_typed_error() {
        let sim = Simulation::new();
        let mut k = sim.kernel();
        let fab = Fabric::build(&mut k, Conduit::ib_qdr(), 2);
        let conn = fab.open_connection(&mut k, NodeId(0)).unwrap();
        let err = fab.inject(&mut k, conn, NodeId(9), 8).unwrap_err();
        assert_eq!(err, NetError::NodeOutOfRange { node: NodeId(9), nodes: 2 });
        assert!(fab.open_connection(&mut k, NodeId(7)).is_err());
        let err = fab.rdma_get(&mut k, conn, NodeId(3), 8).unwrap_err();
        assert_eq!(err, NetError::NodeOutOfRange { node: NodeId(3), nodes: 2 });
    }

    #[test]
    fn identity_fault_plan_changes_nothing() {
        let run = |plan: Option<FaultPlan>| -> (Time, Time) {
            let sim = Simulation::new();
            let mut k = sim.kernel();
            let mut fab = Fabric::build(&mut k, Conduit::gige(), 2);
            if let Some(p) = plan {
                fab.set_fault(std::sync::Arc::new(hupc_fault::FaultInjector::new(p)));
            }
            let conn = fab.open_connection(&mut k, NodeId(0)).unwrap();
            let mut acc = (0, 0);
            for i in 0..16 {
                let (l, r) = delivered(fab.inject(&mut k, conn, NodeId(1), 64 << i.min(10)));
                acc = (l, r);
            }
            let (_, g) = delivered(fab.rdma_get(&mut k, conn, NodeId(1), 4096));
            (acc.1, g)
        };
        assert_eq!(run(None), run(Some(FaultPlan::new(123))));
    }

    #[test]
    fn lossy_link_drops_and_charges_tx_only() {
        let sim = Simulation::new();
        let mut k = sim.kernel();
        let mut fab = Fabric::build(&mut k, Conduit::gige(), 2);
        fab.set_fault(std::sync::Arc::new(hupc_fault::FaultInjector::new(
            FaultPlan::new(7).loss(1.0),
        )));
        let conn = fab.open_connection(&mut k, NodeId(0)).unwrap();
        let d = fab.inject(&mut k, conn, NodeId(1), 1024).unwrap();
        match d {
            Delivery::Dropped { local } => assert!(local > 0),
            Delivery::Delivered { .. } => panic!("p=1 must drop"),
        }
        // tx NIC transmitted the doomed packet; rx NIC never saw it.
        assert_eq!(fab.tx_busy(&k, NodeId(0)), fab.conduit().nic_service(1024));
    }

    #[test]
    fn jitter_delays_delivery() {
        let base = {
            let sim = Simulation::new();
            let mut k = sim.kernel();
            let fab = Fabric::build(&mut k, Conduit::gige(), 2);
            let conn = fab.open_connection(&mut k, NodeId(0)).unwrap();
            delivered(fab.inject(&mut k, conn, NodeId(1), 512)).1
        };
        let mut saw_delay = false;
        for seed in 0..8 {
            let sim = Simulation::new();
            let mut k = sim.kernel();
            let mut fab = Fabric::build(&mut k, Conduit::gige(), 2);
            fab.set_fault(std::sync::Arc::new(hupc_fault::FaultInjector::new(
                FaultPlan::new(seed).jitter(Jitter::Uniform { max: time::ms(2) }),
            )));
            let conn = fab.open_connection(&mut k, NodeId(0)).unwrap();
            let (_, r) = delivered(fab.inject(&mut k, conn, NodeId(1), 512));
            assert!(r >= base, "jitter can only delay");
            if r > base {
                saw_delay = true;
            }
        }
        assert!(saw_delay, "uniform 2ms jitter never delayed any of 8 seeds");
    }

    #[test]
    fn degraded_window_slows_nic_service() {
        let service = |plan: Option<FaultPlan>| -> Time {
            let sim = Simulation::new();
            let mut k = sim.kernel();
            let mut fab = Fabric::build(&mut k, Conduit::gige(), 2);
            if let Some(p) = plan {
                fab.set_fault(std::sync::Arc::new(hupc_fault::FaultInjector::new(p)));
            }
            let conn = fab.open_connection(&mut k, NodeId(0)).unwrap();
            delivered(fab.inject(&mut k, conn, NodeId(1), 4096)).1
        };
        let healthy = service(None);
        let degraded = service(Some(FaultPlan::new(0).degraded_nic(
            0,
            0,
            time::secs(1),
            4.0,
        )));
        assert!(degraded > healthy, "{degraded} <= {healthy}");
    }

    /// The degraded-NIC bandwidth math, exactly: a factor-`f` window on one
    /// endpoint scales only that endpoint's NIC leg of the delivery by `f`;
    /// connection service and wire latency are untouched.
    #[test]
    fn degraded_window_scales_exactly_one_nic_leg() {
        let remote_time = |plan: Option<FaultPlan>| -> Time {
            let sim = Simulation::new();
            let mut k = sim.kernel();
            let mut fab = Fabric::build(&mut k, Conduit::gige(), 2);
            if let Some(p) = plan {
                fab.set_fault(std::sync::Arc::new(hupc_fault::FaultInjector::new(p)));
            }
            let conn = fab.open_connection(&mut k, NodeId(0)).unwrap();
            delivered(fab.inject(&mut k, conn, NodeId(1), 4096)).1
        };
        let c = Conduit::gige();
        let scaled =
            |f: f64| time::from_secs_f64(time::as_secs_f64(c.nic_service(4096)) * f);
        let base = c.conn_service(4096) + c.wire_latency;
        // Window on the sender: tx leg × 3, rx leg untouched.
        let tx = remote_time(Some(FaultPlan::new(0).degraded_nic(0, 0, time::secs(1), 3.0)));
        assert_eq!(tx, base + scaled(3.0) + c.nic_service(4096));
        // Window on the receiver: rx leg × 3, tx leg untouched.
        let rx = remote_time(Some(FaultPlan::new(0).degraded_nic(1, 0, time::secs(1), 3.0)));
        assert_eq!(rx, base + c.nic_service(4096) + scaled(3.0));
        // Both endpoints degraded: both legs scale.
        let both = remote_time(Some(
            FaultPlan::new(0)
                .degraded_nic(0, 0, time::secs(1), 2.0)
                .degraded_nic(1, 0, time::secs(1), 5.0),
        ));
        assert_eq!(both, base + scaled(2.0) + scaled(5.0));
        // Window that opens after the injection instant: free.
        let later = remote_time(Some(FaultPlan::new(0).degraded_nic(
            0,
            time::secs(1),
            time::secs(2),
            9.0,
        )));
        assert_eq!(later, remote_time(None));
    }

    /// Fault-window degradation compounds multiplicatively with the static
    /// progress-oversubscription factor.
    #[test]
    fn fault_window_compounds_with_oversubscription_factor() {
        let remote_time = |static_f: f64, window: Option<f64>| -> Time {
            let sim = Simulation::new();
            let mut k = sim.kernel();
            let mut fab = Fabric::build(&mut k, Conduit::gige(), 2);
            fab.set_nic_factor(static_f);
            if let Some(w) = window {
                fab.set_fault(std::sync::Arc::new(hupc_fault::FaultInjector::new(
                    FaultPlan::new(0).degraded_nic(0, 0, time::secs(1), w),
                )));
            }
            let conn = fab.open_connection(&mut k, NodeId(0)).unwrap();
            delivered(fab.inject(&mut k, conn, NodeId(1), 8192)).1
        };
        let c = Conduit::gige();
        let scaled =
            |f: f64| time::from_secs_f64(time::as_secs_f64(c.nic_service(8192)) * f);
        // 2× oversubscription × 3× window = 6× on the tx leg; the static
        // factor also applies to the healthy rx leg.
        assert_eq!(
            remote_time(2.0, Some(3.0)),
            c.conn_service(8192) + scaled(6.0) + c.wire_latency + scaled(2.0),
        );
    }

    /// Loopback messages skip the wire but not the adapter: a degraded
    /// window scales both NIC passes of the loopback.
    #[test]
    fn loopback_applies_degraded_window_to_both_passes() {
        let through = |window: Option<f64>| -> Time {
            let sim = Simulation::new();
            let mut k = sim.kernel();
            let mut fab = Fabric::build(&mut k, Conduit::gige(), 2);
            if let Some(w) = window {
                fab.set_fault(std::sync::Arc::new(hupc_fault::FaultInjector::new(
                    FaultPlan::new(0).degraded_nic(0, 0, time::secs(1), w),
                )));
            }
            let conn = fab.open_connection(&mut k, NodeId(0)).unwrap();
            fab.inject_loopback(&mut k, conn, 2048)
        };
        let c = Conduit::gige();
        let scaled =
            |f: f64| time::from_secs_f64(time::as_secs_f64(c.nic_service(2048)) * f);
        assert_eq!(through(None), c.conn_service(2048) + scaled(1.0) * 2);
        assert_eq!(
            through(Some(4.0)),
            c.conn_service(2048) + scaled(4.0) * 2,
            "both adapter passes must scale"
        );
    }
}
