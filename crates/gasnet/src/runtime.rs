//! The GASNet-like runtime: segments + one-sided communication with
//! backend-aware cost paths.

use std::sync::Arc;

use hupc_fault::{FaultInjector, FaultPlan};
use hupc_net::{Conduit, Connection, CpuModel, Delivery, Fabric, MemoryModel};
use hupc_sim::{time, BarrierId, CompletionId, Ctx, Simulation, SimCell, Time};
use hupc_topo::{BindPolicy, Machine, MachineSpec, NodeId, Placement, PuId, SocketId};

use crate::backend::{AccessPath, Backend};
use crate::error::{CommError, RetryPolicy};
use crate::segment::{Segment, WORD_BYTES};

/// Stable payload code for an access path in trace events.
fn path_code(p: AccessPath) -> u64 {
    match p {
        AccessPath::Local => 0,
        AccessPath::SameProcess => 1,
        AccessPath::Pshm => 2,
        AccessPath::Loopback => 3,
        AccessPath::Network => 4,
    }
}

/// Software overhead constants of the runtime (ns-scale knobs the thesis'
/// Chapter 3 results turn on).
#[derive(Clone, Copy, Debug)]
pub struct Overheads {
    /// Function-call + address-check cost of a shared access that resolves
    /// to the same process (pthread sibling).
    pub same_process_call: Time,
    /// Per-call cost of a PSHM cross-mapped copy.
    pub pshm_call: Time,
    /// Extra software cost of an intra-node message that loops back through
    /// the network API (no shared memory): send+receive bounce.
    pub loopback_per_message: Time,
    /// Cost of translating a pointer-to-shared to an address on every
    /// element access (the overhead `bupc_cast` privatization removes;
    /// drives Table 3.1).
    pub ptr_translation: Time,
    /// Base latency of an all-threads barrier round (per dissemination
    /// stage).
    pub barrier_stage: Time,
}

impl Default for Overheads {
    fn default() -> Self {
        Overheads {
            same_process_call: time::ns(60),
            pshm_call: time::ns(180),
            loopback_per_message: time::ns(1_400),
            ptr_translation: time::ns(17),
            barrier_stage: time::ns(500),
        }
    }
}

/// Everything needed to bring up a runtime instance.
#[derive(Clone, Debug)]
pub struct GasnetConfig {
    pub machine: MachineSpec,
    /// Total UPC threads.
    pub n_threads: usize,
    /// Nodes the threads are spread over.
    pub nodes_used: usize,
    pub bind: BindPolicy,
    pub backend: Backend,
    pub conduit: Conduit,
    /// Initial segment size per thread, in words.
    pub segment_words: usize,
    /// Override the runtime software-overhead constants (None = defaults).
    /// The bench harness uses this for the "+cast" manual-optimization
    /// variants of thesis Fig 3.4, which zero the intra-node per-call costs.
    pub overheads: Option<Overheads>,
    /// Optional fault-injection plan (packet loss, jitter, degraded NICs,
    /// stragglers). `None` — and any identity plan — leaves every modeled
    /// time bit-identical to the fault-free runtime.
    pub fault: Option<FaultPlan>,
    /// Retransmission policy for dropped messages (only consulted when a
    /// fault plan can actually drop something).
    pub retry: RetryPolicy,
    /// Optional watchdog on blocking barriers: a thread stuck longer than
    /// this fails with [`CommError::BarrierTimeout`] instead of deadlocking
    /// the simulation. `None` (the default) keeps barriers untimed.
    pub barrier_timeout: Option<Time>,
}

impl GasnetConfig {
    /// A reasonable default for tests: small machine, processes+PSHM, QDR.
    pub fn test_default(n_threads: usize, nodes_used: usize) -> Self {
        GasnetConfig {
            machine: MachineSpec::small_test(nodes_used.max(1)),
            n_threads,
            nodes_used,
            bind: BindPolicy::PackedCores,
            backend: Backend::processes_pshm(),
            conduit: Conduit::ib_qdr(),
            segment_words: 1 << 16,
            overheads: None,
            fault: None,
            retry: RetryPolicy::default(),
            barrier_timeout: None,
        }
    }
}

/// Non-blocking operation handle.
#[derive(Clone, Copy, Debug)]
#[must_use = "dropping a Handle without syncing loses the only way to observe completion"]
pub struct Handle {
    /// Source buffer reusable (injection finished).
    pub local: CompletionId,
    /// Data visible at the destination.
    pub remote: CompletionId,
}

/// The runtime. One instance per simulated job; shared by all actors via
/// `Arc`.
pub struct Gasnet {
    machine: Machine,
    placement: Placement,
    /// Node of each UPC thread, precomputed from the placement.
    thread_nodes: Vec<NodeId>,
    backend: Backend,
    conduit_kind: &'static str,
    fabric: Fabric,
    mem: MemoryModel,
    cpu: SimCell<CpuModel>,
    overheads: Overheads,
    conns: Vec<Connection>,
    segments: Vec<Segment>,
    barrier_all: BarrierId,
    outstanding: Vec<SimCell<Vec<CompletionId>>>,
    n_threads: usize,
    nodes_used: usize,
    // Fault model + recovery knobs.
    fault: Option<Arc<FaultInjector>>,
    retry: RetryPolicy,
    barrier_timeout: Option<Time>,
    // Split-phase (notify/wait) barrier state.
    split_arrived: SimCell<usize>,
    split_gen: SimCell<u64>,
    split_cond: hupc_sim::CondId,
    split_target: Vec<SimCell<u64>>,
    /// Per-thread "notified but not yet waited" flag: catches double-notify
    /// and wait-without-notify misuse.
    split_notified: Vec<SimCell<bool>>,
}

impl Gasnet {
    /// Build the runtime on a simulation (call before spawning actors).
    pub fn new(sim: &mut Simulation, cfg: GasnetConfig) -> Arc<Gasnet> {
        let machine = Machine::new(cfg.machine.clone());
        let placement = Placement::build(&machine, cfg.n_threads, cfg.nodes_used, cfg.bind);
        let mut k = sim.kernel();
        let mut fabric = Fabric::build(&mut k, cfg.conduit.clone(), cfg.machine.nodes);
        // One injector (one plan, one PRNG stream) shared by the fabric
        // (drops/jitter/NIC windows) and the runtime (straggler CPUs).
        let fault = cfg.fault.clone().map(|p| Arc::new(FaultInjector::new(p)));
        if let Some(inj) = &fault {
            fabric.set_fault(Arc::clone(inj));
        }
        // Network-progress oversubscription: when a node hosts more polling
        // endpoints (processes) than physical cores — the SMT-density
        // configurations of thesis Figs 4.4–4.6 — the adapter is driven
        // below line rate (§4.3.3.3: processes "swamp the runtime and
        // communication system").
        {
            let per_node = placement.threads_per_node();
            let procs = cfg.backend.procs_per_node(per_node);
            let cores = machine.spec().cores_per_node();
            let oversub = procs.saturating_sub(cores) as f64 / cores as f64;
            fabric.set_nic_factor(1.0 + 0.5 * oversub);
        }
        let mem = MemoryModel::build(&mut k, &machine);
        let mut cpu = CpuModel::build(&mut k, &machine);
        for t in 0..cfg.n_threads {
            cpu.occupy(&machine, placement.thread_pu(t));
        }
        // One connection per process; pthread siblings share.
        let per_node = placement.threads_per_node();
        let mut proc_conns: std::collections::HashMap<(usize, usize), Connection> =
            std::collections::HashMap::new();
        let thread_nodes: Vec<NodeId> = (0..cfg.n_threads)
            .map(|t| placement.thread_node(&machine, t))
            .collect();
        let mut conns = Vec::with_capacity(cfg.n_threads);
        for (t, &node) in thread_nodes.iter().enumerate() {
            let local = t % per_node;
            let proc = cfg.backend.proc_of(local);
            let conn = *proc_conns.entry((node.0, proc)).or_insert_with(|| {
                fabric
                    .open_connection(&mut k, node)
                    .expect("placement only assigns threads to nodes inside the machine")
            });
            conns.push(conn);
        }
        let barrier_all = k.new_barrier(cfg.n_threads);
        let split_cond = k.new_cond();
        drop(k);
        let segments = (0..cfg.n_threads)
            .map(|_| Segment::new(cfg.segment_words))
            .collect();
        let outstanding = (0..cfg.n_threads).map(|_| SimCell::default()).collect();
        let kind = match cfg.conduit.kind {
            hupc_net::ConduitKind::IbQdr => "ibv-qdr",
            hupc_net::ConduitKind::IbDdr => "ibv-ddr",
            hupc_net::ConduitKind::GigE => "udp-gige",
        };
        Arc::new(Gasnet {
            machine,
            placement,
            thread_nodes,
            backend: cfg.backend,
            conduit_kind: kind,
            fabric,
            mem,
            cpu: SimCell::new(cpu),
            overheads: cfg.overheads.unwrap_or_default(),
            conns,
            segments,
            barrier_all,
            outstanding,
            n_threads: cfg.n_threads,
            nodes_used: cfg.nodes_used,
            fault,
            retry: cfg.retry,
            barrier_timeout: cfg.barrier_timeout,
            split_arrived: SimCell::new(0),
            split_gen: SimCell::new(0),
            split_cond,
            split_target: (0..cfg.n_threads).map(|_| SimCell::new(0)).collect(),
            split_notified: (0..cfg.n_threads).map(|_| SimCell::new(false)).collect(),
        })
    }

    // ----- introspection ----------------------------------------------------

    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    pub fn nodes_used(&self) -> usize {
        self.nodes_used
    }

    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    pub fn backend(&self) -> Backend {
        self.backend
    }

    pub fn conduit_name(&self) -> &'static str {
        self.conduit_kind
    }

    pub fn overheads(&self) -> &Overheads {
        &self.overheads
    }

    pub fn mem(&self) -> &MemoryModel {
        &self.mem
    }

    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The installed fault injector, if any.
    pub fn fault(&self) -> Option<&Arc<FaultInjector>> {
        self.fault.as_ref()
    }

    /// The retransmission policy for dropped messages.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Node of a UPC thread.
    pub fn thread_node(&self, t: usize) -> NodeId {
        self.thread_nodes[t]
    }

    /// Bound PU of a UPC thread.
    pub fn thread_pu(&self, t: usize) -> PuId {
        self.placement.thread_pu(t)
    }

    /// Home socket of a thread's segment (first-touch by the bound thread).
    pub fn segment_home(&self, t: usize) -> SocketId {
        self.placement.thread_socket(&self.machine, t)
    }

    /// Access path between two threads (thesis §3.1's castability query:
    /// anything better than [`AccessPath::Network`]/`Loopback` is
    /// memory-reachable).
    pub fn path(&self, src: usize, dst: usize) -> AccessPath {
        let per_node = self.placement.threads_per_node();
        let same_node = self.thread_node(src) == self.thread_node(dst);
        self.backend
            .path(same_node, src % per_node, dst % per_node, src == dst)
    }

    /// Whether `dst`'s segment can be cast to a local pointer from `src`
    /// (the `bupc_cast` castability extension of §3.2.1).
    pub fn castable(&self, src: usize, dst: usize) -> bool {
        matches!(
            self.path(src, dst),
            AccessPath::Local | AccessPath::SameProcess | AccessPath::Pshm
        )
    }

    /// Segment of a thread.
    pub fn segment(&self, t: usize) -> &Segment {
        &self.segments[t]
    }

    // ----- compute charging ---------------------------------------------------

    /// CPU slowdown of the node hosting `pu` under the fault plan (1.0 when
    /// no plan or the node is healthy — a multiply by 1.0 is exact, so
    /// healthy nodes keep bit-identical timings).
    fn straggler_factor(&self, pu: PuId) -> f64 {
        match &self.fault {
            Some(inj) => inj.plan().cpu_slowdown(self.machine.pu_node(pu).0),
            None => 1.0,
        }
    }

    /// Charge `work` at full core speed on `pu` (sub-thread aware: the
    /// occupancy recorded via [`Gasnet::occupy_pu`] sets the SMT factor).
    /// Straggler nodes in the fault plan stretch the charge.
    pub fn compute_on(&self, ctx: &Ctx, pu: PuId, work: Time) {
        let slow = self.straggler_factor(pu);
        let work = if slow > 1.0 {
            time::from_secs_f64(time::as_secs_f64(work) * slow)
        } else {
            work
        };
        self.cpu.with(|c| c.compute(ctx, &self.machine, pu, work));
    }

    /// Charge `flops` at `efficiency` of peak on `pu`. Straggler nodes
    /// deliver proportionally less of their peak.
    pub fn compute_flops_on(&self, ctx: &Ctx, pu: PuId, flops: f64, efficiency: f64) {
        let efficiency = efficiency / self.straggler_factor(pu);
        self.cpu
            .with(|c| c.compute_flops(ctx, &self.machine, pu, flops, efficiency));
    }

    /// Charge `work` on the bound PU of UPC thread `me`.
    pub fn compute(&self, ctx: &Ctx, me: usize, work: Time) {
        self.compute_on(ctx, self.thread_pu(me), work);
    }

    /// Record a sub-thread binding (affects SMT factors).
    pub fn occupy_pu(&self, pu: PuId) {
        self.cpu.with_mut(|c| c.occupy(&self.machine, pu));
    }

    /// Release a sub-thread binding.
    pub fn release_pu(&self, pu: PuId) {
        self.cpu.with_mut(|c| c.release(&self.machine, pu));
    }

    /// Stream `bytes` of memory traffic from thread `me` against `home`.
    pub fn mem_stream(&self, ctx: &Ctx, me: usize, home: SocketId, bytes: usize) {
        self.mem
            .stream(ctx, &self.machine, self.thread_pu(me), home, bytes);
    }

    /// Stream `bytes` of memory traffic from an explicit PU (sub-threads).
    pub fn mem_stream_on(&self, ctx: &Ctx, pu: PuId, home: SocketId, bytes: usize) {
        self.mem.stream(ctx, &self.machine, pu, home, bytes);
    }

    // ----- one-sided communication --------------------------------------------

    /// Trace location of a UPC thread (node + thread).
    fn tloc(&self, t: usize) -> hupc_trace::Loc {
        hupc_trace::Loc::new(self.thread_node(t).0 as u32, t as u32)
    }

    /// Advance past the failed attempt's injection, then sit out the ack
    /// timeout before retransmitting.
    fn await_retry(&self, ctx: &Ctx, local: Time, attempt: u32) {
        let now = ctx.now();
        let resume = local.max(now) + self.retry.backoff_after(attempt);
        ctx.trace_emit(hupc_trace::EventKind::Backoff, resume - now, attempt as u64);
        // Lazy: the backoff coalesces with the next attempt's send overhead
        // into a single advance at the retransmission's kernel interaction.
        ctx.advance_lazy(resume - now);
    }

    fn retries_exhausted(
        &self,
        op: &'static str,
        me: usize,
        peer: usize,
        bytes: usize,
    ) -> CommError {
        CommError::RetriesExhausted {
            op,
            src: me,
            dst: peer,
            src_node: self.thread_node(me),
            dst_node: self.thread_node(peer),
            bytes,
            attempts: self.retry.max_attempts,
        }
    }

    /// Inject towards `dst`'s node, retransmitting dropped messages with
    /// exponential backoff until delivered or the retry budget runs out.
    fn net_send(
        &self,
        ctx: &Ctx,
        op: &'static str,
        me: usize,
        dst: usize,
        bytes: usize,
    ) -> Result<(Time, Time), CommError> {
        let dst_node = self.thread_node(dst);
        for attempt in 1..=self.retry.max_attempts.max(1) {
            // Lazy: folded into the inject's kernel interaction just below.
            ctx.advance_lazy(self.fabric.send_overhead());
            let d = ctx
                .with_kernel(|k| self.fabric.inject(k, self.conns[me], dst_node, bytes))
                .expect("placement guarantees valid inter-node addressing");
            match d {
                Delivery::Delivered { local, remote } => return Ok((local, remote)),
                Delivery::Dropped { local } => {
                    ctx.trace_emit(hupc_trace::EventKind::Retry, attempt as u64, bytes as u64);
                    if ctx.tracer().is_some() {
                        ctx.trace_count("gasnet.retries", self.tloc(me), 1);
                    }
                    self.await_retry(ctx, local, attempt)
                }
            }
        }
        Err(self.retries_exhausted(op, me, dst, bytes))
    }

    /// RDMA read from `src`'s node with the same retransmission loop.
    fn net_get(
        &self,
        ctx: &Ctx,
        op: &'static str,
        me: usize,
        src: usize,
        bytes: usize,
    ) -> Result<(Time, Time), CommError> {
        let src_node = self.thread_node(src);
        for attempt in 1..=self.retry.max_attempts.max(1) {
            // Lazy: folded into the rdma_get's kernel interaction just below.
            ctx.advance_lazy(self.fabric.send_overhead());
            let d = ctx
                .with_kernel(|k| self.fabric.rdma_get(k, self.conns[me], src_node, bytes))
                .expect("placement guarantees valid inter-node addressing");
            match d {
                Delivery::Delivered { local, remote } => return Ok((local, remote)),
                Delivery::Dropped { local } => {
                    ctx.trace_emit(hupc_trace::EventKind::Retry, attempt as u64, bytes as u64);
                    if ctx.tracer().is_some() {
                        ctx.trace_count("gasnet.retries", self.tloc(me), 1);
                    }
                    self.await_retry(ctx, local, attempt)
                }
            }
        }
        Err(self.retries_exhausted(op, me, src, bytes))
    }

    /// Fallible non-blocking put: like [`Gasnet::put_nb`] but surfaces
    /// [`CommError::RetriesExhausted`] instead of panicking when the fault
    /// plan eats every retransmission.
    pub fn try_put_nb(
        &self,
        ctx: &Ctx,
        me: usize,
        dst: usize,
        dst_off: usize,
        data: &[u64],
    ) -> Result<Handle, CommError> {
        self.segments[dst].write(dst_off, data);
        self.charge_transfer(ctx, "put", me, dst, data.len() * WORD_BYTES)
    }

    /// Non-blocking put of `data` into `dst`'s segment at word offset
    /// `dst_off`. Bytes move immediately; the returned handle's completions
    /// fire at the modeled times.
    pub fn put_nb(
        &self,
        ctx: &Ctx,
        me: usize,
        dst: usize,
        dst_off: usize,
        data: &[u64],
    ) -> Handle {
        self.try_put_nb(ctx, me, dst, dst_off, data)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible blocking put.
    pub fn try_put(
        &self,
        ctx: &Ctx,
        me: usize,
        dst: usize,
        dst_off: usize,
        data: &[u64],
    ) -> Result<(), CommError> {
        let h = self.try_put_nb(ctx, me, dst, dst_off, data)?;
        self.wait_sync(ctx, me, h);
        Ok(())
    }

    /// Blocking put: returns when the data is visible at the destination
    /// (`upc_memput` semantics).
    pub fn put(&self, ctx: &Ctx, me: usize, dst: usize, dst_off: usize, data: &[u64]) {
        self.try_put(ctx, me, dst, dst_off, data)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible non-blocking get.
    pub fn try_get_nb(
        &self,
        ctx: &Ctx,
        me: usize,
        src: usize,
        src_off: usize,
        out: &mut [u64],
    ) -> Result<Handle, CommError> {
        self.segments[src].read(src_off, out);
        let bytes = out.len() * WORD_BYTES;
        self.charge_get(ctx, "get", me, src, bytes)
    }

    /// Non-blocking get from `src`'s segment at `src_off` into `out`.
    /// Bytes are copied immediately; wait on the handle before *using* them
    /// to respect modeled timing.
    pub fn get_nb(
        &self,
        ctx: &Ctx,
        me: usize,
        src: usize,
        src_off: usize,
        out: &mut [u64],
    ) -> Handle {
        self.try_get_nb(ctx, me, src, src_off, out)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible blocking get.
    pub fn try_get(
        &self,
        ctx: &Ctx,
        me: usize,
        src: usize,
        src_off: usize,
        out: &mut [u64],
    ) -> Result<(), CommError> {
        let h = self.try_get_nb(ctx, me, src, src_off, out)?;
        self.wait_sync(ctx, me, h);
        Ok(())
    }

    /// Blocking get (`upc_memget` semantics).
    pub fn get(&self, ctx: &Ctx, me: usize, src: usize, src_off: usize, out: &mut [u64]) {
        self.try_get(ctx, me, src, src_off, out)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    // ----- scoped zero-copy transfers ---------------------------------------
    //
    // The `_with` family charges exactly like the buffer-based calls above
    // but hands the caller a borrowed view of the segment range instead of
    // copying through a staging `Vec`. The closures run under the segment's
    // `SimCell` borrow, so they must not issue simcalls and must not touch
    // the same segment again.

    /// Fallible non-blocking put that lets `f` write the destination words
    /// in place. Mirrors [`Gasnet::try_put_nb`]: bytes "move" (the closure
    /// runs) before the transfer is charged, and the charge is identical to
    /// a put of `words * 8` bytes.
    pub fn try_put_nb_with<R>(
        &self,
        ctx: &Ctx,
        me: usize,
        dst: usize,
        dst_off: usize,
        words: usize,
        f: impl FnOnce(&mut [u64]) -> R,
    ) -> Result<(R, Handle), CommError> {
        let r = self.segments[dst].with_range_mut(dst_off, words, f);
        let h = self.charge_transfer(ctx, "put", me, dst, words * WORD_BYTES)?;
        Ok((r, h))
    }

    /// Non-blocking in-place put; panics on exhausted retries.
    pub fn put_nb_with<R>(
        &self,
        ctx: &Ctx,
        me: usize,
        dst: usize,
        dst_off: usize,
        words: usize,
        f: impl FnOnce(&mut [u64]) -> R,
    ) -> (R, Handle) {
        self.try_put_nb_with(ctx, me, dst, dst_off, words, f)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Blocking in-place put (`upc_memput` timing, no staging buffer).
    pub fn put_with<R>(
        &self,
        ctx: &Ctx,
        me: usize,
        dst: usize,
        dst_off: usize,
        words: usize,
        f: impl FnOnce(&mut [u64]) -> R,
    ) -> R {
        let (r, h) = self
            .try_put_nb_with(ctx, me, dst, dst_off, words, f)
            .unwrap_or_else(|e| panic!("{e}"));
        self.wait_sync(ctx, me, h);
        r
    }

    /// Fallible blocking get that lets `f` read the source words in place.
    /// Mirrors [`Gasnet::try_get_nb`] + [`Gasnet::wait_sync`]: the data is
    /// observed at issue time (exactly when `try_get_nb` copies it out),
    /// then the caller's virtual time advances to the modeled completion.
    pub fn try_get_with<R>(
        &self,
        ctx: &Ctx,
        me: usize,
        src: usize,
        src_off: usize,
        words: usize,
        f: impl FnOnce(&[u64]) -> R,
    ) -> Result<R, CommError> {
        let r = self.segments[src].with_range(src_off, words, f);
        let h = self.charge_get(ctx, "get", me, src, words * WORD_BYTES)?;
        self.wait_sync(ctx, me, h);
        Ok(r)
    }

    /// Blocking in-place get (`upc_memget` timing, no staging buffer).
    pub fn get_with<R>(
        &self,
        ctx: &Ctx,
        me: usize,
        src: usize,
        src_off: usize,
        words: usize,
        f: impl FnOnce(&[u64]) -> R,
    ) -> R {
        self.try_get_with(ctx, me, src, src_off, words, f)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible non-blocking memcpy.
    #[allow(clippy::too_many_arguments)]
    pub fn try_memcpy_nb(
        &self,
        ctx: &Ctx,
        me: usize,
        dst: usize,
        dst_off: usize,
        src: usize,
        src_off: usize,
        len: usize,
    ) -> Result<Handle, CommError> {
        Segment::copy_between(&self.segments[src], src_off, &self.segments[dst], dst_off, len);
        let bytes = len * WORD_BYTES;
        // Dominant cost: whichever leg leaves the initiator's node.
        let src_path = self.path(me, src);
        let dst_path = self.path(me, dst);
        if dst_path == AccessPath::Network {
            self.charge_transfer(ctx, "memcpy", me, dst, bytes)
        } else if src_path == AccessPath::Network {
            self.charge_get(ctx, "memcpy", me, src, bytes)
        } else {
            let worst = src_path.max(dst_path);
            Ok(self.charge_local_copy(ctx, me, dst, bytes, worst))
        }
    }

    /// Segment-to-segment memcpy (`upc_memcpy`): word range from
    /// (`src`,`src_off`) to (`dst`,`dst_off`), charged as a get+put pipeline
    /// from `me`'s point of view.
    #[allow(clippy::too_many_arguments)]
    pub fn memcpy_nb(
        &self,
        ctx: &Ctx,
        me: usize,
        dst: usize,
        dst_off: usize,
        src: usize,
        src_off: usize,
        len: usize,
    ) -> Handle {
        self.try_memcpy_nb(ctx, me, dst, dst_off, src, src_off, len)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible blocking memcpy.
    #[allow(clippy::too_many_arguments)]
    pub fn try_memcpy(
        &self,
        ctx: &Ctx,
        me: usize,
        dst: usize,
        dst_off: usize,
        src: usize,
        src_off: usize,
        len: usize,
    ) -> Result<(), CommError> {
        let h = self.try_memcpy_nb(ctx, me, dst, dst_off, src, src_off, len)?;
        self.wait_sync(ctx, me, h);
        Ok(())
    }

    /// Blocking memcpy.
    #[allow(clippy::too_many_arguments)]
    pub fn memcpy(
        &self,
        ctx: &Ctx,
        me: usize,
        dst: usize,
        dst_off: usize,
        src: usize,
        src_off: usize,
        len: usize,
    ) {
        self.try_memcpy(ctx, me, dst, dst_off, src, src_off, len)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible variant of [`Gasnet::transfer_nb`].
    pub fn try_transfer_nb(
        &self,
        ctx: &Ctx,
        me: usize,
        dst: usize,
        bytes: usize,
    ) -> Result<Handle, CommError> {
        self.charge_transfer(ctx, "transfer", me, dst, bytes)
    }

    /// Charge the cost of moving `bytes` from `me` to `dst` without touching
    /// segment data — the timing primitive layered protocols (e.g. the MPI
    /// baseline's two-sided messages) build on.
    pub fn transfer_nb(&self, ctx: &Ctx, me: usize, dst: usize, bytes: usize) -> Handle {
        self.try_transfer_nb(ctx, me, dst, bytes)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Charge the transfer cost of `bytes` from `me` to `dst` and build a
    /// handle (data already moved).
    fn charge_transfer(
        &self,
        ctx: &Ctx,
        op: &'static str,
        me: usize,
        dst: usize,
        bytes: usize,
    ) -> Result<Handle, CommError> {
        let path = self.path(me, dst);
        ctx.trace_emit(hupc_trace::EventKind::PutIssue, dst as u64, bytes as u64);
        if ctx.tracer().is_some() {
            let loc = self.tloc(me);
            ctx.trace_count("gasnet.puts", loc, 1);
            ctx.trace_count("gasnet.put_bytes", loc, bytes as u64);
        }
        let h = match path {
            AccessPath::Network => {
                let (local_t, remote_t) = self.net_send(ctx, op, me, dst, bytes)?;
                self.make_handle(ctx, me, local_t, remote_t)
            }
            path => self.charge_local_copy(ctx, me, dst, bytes, path),
        };
        ctx.trace_emit(hupc_trace::EventKind::PutCharge, bytes as u64, path_code(path));
        Ok(h)
    }

    /// Charge the cost of reading `bytes` from `src` into `me` and build a
    /// handle (data already observed by the caller). Shared by the buffer,
    /// zero-copy and memcpy get paths.
    fn charge_get(
        &self,
        ctx: &Ctx,
        op: &'static str,
        me: usize,
        src: usize,
        bytes: usize,
    ) -> Result<Handle, CommError> {
        let path = self.path(me, src);
        ctx.trace_emit(hupc_trace::EventKind::GetIssue, src as u64, bytes as u64);
        if ctx.tracer().is_some() {
            let loc = self.tloc(me);
            ctx.trace_count("gasnet.gets", loc, 1);
            ctx.trace_count("gasnet.get_bytes", loc, bytes as u64);
        }
        let h = match path {
            AccessPath::Network => {
                // Request + RDMA read response.
                let (req_done, data_here) = self.net_get(ctx, op, me, src, bytes)?;
                self.make_handle(ctx, me, req_done, data_here)
            }
            path => self.charge_local_copy(ctx, me, src, bytes, path),
        };
        ctx.trace_emit(hupc_trace::EventKind::GetCharge, bytes as u64, path_code(path));
        Ok(h)
    }

    /// Intra-node copy charge along `path`; returns the handle.
    fn charge_local_copy(
        &self,
        ctx: &Ctx,
        me: usize,
        peer: usize,
        bytes: usize,
        path: AccessPath,
    ) -> Handle {
        let (overhead, copies) = match path {
            AccessPath::Local => (0, 1),
            AccessPath::SameProcess => (self.overheads.same_process_call, 1),
            AccessPath::Pshm => (self.overheads.pshm_call, 1),
            AccessPath::Loopback => (self.overheads.loopback_per_message, 2),
            AccessPath::Network => unreachable!("handled by caller"),
        };
        ctx.advance_lazy(overhead); // folded into the copy charge below
        let pu = self.thread_pu(me);
        let my_home = self.segment_home(me);
        let peer_home = self.segment_home(peer);
        let done = ctx.with_kernel(|k| {
            // Without shared memory the message loops back through the
            // network API, occupying the node's connection and NIC — the
            // contention PSHM/pthreads eliminate (thesis §3.1 / Fig 3.4).
            let mut t = if path == AccessPath::Loopback {
                self.fabric.inject_loopback(k, self.conns[me], bytes)
            } else {
                k.now()
            };
            for _ in 0..copies {
                t = self
                    .mem
                    .copy_after(k, &self.machine, pu, my_home, peer_home, bytes, t);
            }
            t
        });
        self.make_handle(ctx, me, done, done)
    }

    fn make_handle(&self, ctx: &Ctx, me: usize, local_t: Time, remote_t: Time) -> Handle {
        let h = ctx.with_kernel(|k| {
            let local = k.new_completion();
            let remote = k.new_completion();
            k.complete_at(local_t, local);
            k.complete_at(remote_t, remote);
            Handle { local, remote }
        });
        self.outstanding[me].with_mut(|v| v.push(h.remote));
        h
    }

    // ----- synchronization ------------------------------------------------------

    /// Wait until the source buffer of `h` is reusable.
    pub fn wait_local(&self, ctx: &Ctx, h: Handle) {
        ctx.wait(h.local);
    }

    /// Wait until `h` is fully complete (`upc_waitsync`).
    pub fn wait_sync(&self, ctx: &Ctx, me: usize, h: Handle) {
        ctx.wait(h.remote);
        self.retire(me, h);
    }

    /// Poll for completion (`upc_trysync`).
    pub fn try_sync(&self, ctx: &Ctx, me: usize, h: Handle) -> bool {
        if ctx.test(h.remote) {
            self.retire(me, h);
            true
        } else {
            false
        }
    }

    /// Drop a synced handle from `me`'s outstanding list. Completion ids are
    /// unique, so the first match is the only one; the order-preserving
    /// `remove` keeps the rest in issue order, which [`Gasnet::quiesce`]
    /// waits them in.
    fn retire(&self, me: usize, h: Handle) {
        self.outstanding[me].with_mut(|v| {
            if let Some(i) = v.iter().position(|&c| c == h.remote) {
                let _synced = v.remove(i);
            }
        });
    }

    /// Drain all outstanding non-blocking operations issued by `me`.
    pub fn quiesce(&self, ctx: &Ctx, me: usize) {
        let pending = self.outstanding[me].with_mut(std::mem::take);
        for c in pending {
            ctx.wait(c);
        }
    }

    /// Fallible full-job barrier: like [`Gasnet::barrier`], but when
    /// `GasnetConfig::barrier_timeout` is set, a thread stuck longer than
    /// the timeout aborts with [`CommError::BarrierTimeout`] instead of
    /// hanging the simulation until the deadlock detector fires.
    ///
    /// A timed-out thread's arrival is withdrawn: the barrier round is
    /// broken for everyone still parked in it (they too will time out), which
    /// is the honest failure shape — a barrier with a missing participant
    /// cannot be "partially" passed.
    pub fn try_barrier(&self, ctx: &Ctx, me: usize) -> Result<(), CommError> {
        self.quiesce(ctx, me);
        ctx.trace_emit(hupc_trace::EventKind::BarrierEnter, self.barrier_cost(), 0);
        if ctx.tracer().is_some() {
            ctx.trace_count("gasnet.barriers", self.tloc(me), 1);
        }
        let r = match self.barrier_timeout {
            None => {
                ctx.barrier_wait_cost(self.barrier_all, self.barrier_cost());
                Ok(())
            }
            Some(timeout) => ctx
                .barrier_wait_timeout_cost(self.barrier_all, self.barrier_cost(), timeout)
                .map_err(|_| CommError::BarrierTimeout { thread: me, timeout }),
        };
        if r.is_ok() {
            ctx.trace_emit(hupc_trace::EventKind::BarrierExit, 0, 0);
        }
        r
    }

    /// Full-job barrier (`upc_barrier`): drains outstanding ops, then a
    /// dissemination barrier whose release cost scales with log₂(nodes).
    pub fn barrier(&self, ctx: &Ctx, me: usize) {
        self.try_barrier(ctx, me).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Split-phase barrier, arrival half (`upc_notify`): signals this
    /// thread's arrival and returns immediately. Outstanding non-blocking
    /// operations are drained first (UPC's barrier memory semantics).
    /// Panics on a double notify (two `upc_notify` with no `upc_wait`
    /// between them — erroneous per the UPC spec).
    pub fn barrier_notify(&self, ctx: &Ctx, me: usize) {
        self.split_notified[me].with_mut(|n| {
            assert!(!*n, "upc_notify twice without an intervening upc_wait");
            *n = true;
        });
        self.quiesce(ctx, me);
        ctx.trace_emit(hupc_trace::EventKind::BarrierNotify, 0, 0);
        // Initiation cost; lazy — folded into the arrival interaction below.
        ctx.advance_lazy(self.overheads.barrier_stage);
        self.split_target[me].with_mut(|t| *t = self.split_gen.get() + 1);
        let arrived = self.split_arrived.with_mut(|a| {
            *a += 1;
            *a
        });
        if arrived == self.n_threads {
            self.split_arrived.set(0);
            self.split_gen.with_mut(|g| *g += 1);
            ctx.cond_notify_all(self.split_cond);
        }
    }

    /// Split-phase barrier, completion half (`upc_wait`): blocks until the
    /// phase this thread notified for has completed. Panics if called
    /// without a preceding [`Gasnet::barrier_notify`].
    pub fn barrier_wait_phase(&self, ctx: &Ctx, me: usize) {
        assert!(
            self.split_notified[me].get(),
            "upc_wait without a matching upc_notify"
        );
        let target = self.split_target[me].get();
        while self.split_gen.get() < target {
            ctx.cond_wait(self.split_cond);
        }
        self.split_notified[me].set(false);
        ctx.advance(self.barrier_cost()); // release propagation
        ctx.trace_emit(hupc_trace::EventKind::BarrierWait, 0, 0);
    }

    /// Modeled release cost of the all-threads barrier.
    pub fn barrier_cost(&self) -> Time {
        let stages = (self.nodes_used.max(2) as f64).log2().ceil() as u64;
        let intra = self.overheads.barrier_stage;
        if self.nodes_used > 1 {
            intra + stages * (self.fabric.conduit().wire_latency + self.overheads.barrier_stage)
        } else {
            intra
        }
    }
}

impl std::fmt::Debug for Gasnet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gasnet")
            .field("threads", &self.n_threads)
            .field("nodes", &self.nodes_used)
            .field("backend", &self.backend)
            .field("conduit", &self.conduit_kind)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn launch<F>(cfg: GasnetConfig, body: F) -> hupc_sim::SimulationStats
    where
        F: Fn(&Ctx, &Gasnet, usize) + Send + Sync + 'static,
    {
        let mut sim = Simulation::new();
        let gn = Gasnet::new(&mut sim, cfg);
        let body = Arc::new(body);
        for t in 0..gn.n_threads() {
            let gn = Arc::clone(&gn);
            let body = Arc::clone(&body);
            sim.spawn(format!("upc{t}"), move |ctx| body(ctx, &gn, t));
        }
        sim.run()
    }

    #[test]
    fn put_moves_data_and_time() {
        let cfg = GasnetConfig::test_default(4, 2);
        launch(cfg, |ctx, gn, me| {
            if me == 0 {
                gn.put(ctx, 0, 3, 10, &[7, 8, 9]);
                assert!(ctx.now() > 0);
            }
            gn.barrier(ctx, me);
            if me == 3 {
                assert_eq!(gn.segment(3).read_word(10), 7);
                assert_eq!(gn.segment(3).read_word(12), 9);
            }
        });
    }

    #[test]
    fn get_round_trips() {
        let cfg = GasnetConfig::test_default(4, 2);
        launch(cfg, |ctx, gn, me| {
            gn.segment(me).write_word(0, me as u64 + 100);
            gn.barrier(ctx, me);
            let peer = (me + 1) % 4;
            let mut out = [0u64];
            gn.get(ctx, me, peer, 0, &mut out);
            assert_eq!(out[0], peer as u64 + 100);
        });
    }

    #[test]
    fn remote_put_slower_than_local_put() {
        let cfg = GasnetConfig::test_default(4, 2);
        let times = Arc::new(Mutex::new(Vec::new()));
        let t2 = Arc::clone(&times);
        launch(cfg, move |ctx, gn, me| {
            if me == 0 {
                let data = vec![1u64; 1024];
                let t0 = ctx.now();
                gn.put(ctx, 0, 1, 0, &data); // same node (threads 0,1 on node 0)
                let t1 = ctx.now();
                gn.put(ctx, 0, 2, 0, &data); // remote node
                let t2_ = ctx.now();
                t2.lock().unwrap().push((t1 - t0, t2_ - t1));
            }
            gn.barrier(ctx, me);
        });
        let v = times.lock().unwrap();
        let (local, remote) = v[0];
        assert!(remote > local, "remote {remote} vs local {local}");
    }

    #[test]
    fn paths_match_layout() {
        let mut cfg = GasnetConfig::test_default(8, 2);
        cfg.backend = Backend::processes_pshm();
        let mut sim = Simulation::new();
        let gn = Gasnet::new(&mut sim, cfg);
        // 4 threads per node
        assert_eq!(gn.path(0, 0), AccessPath::Local);
        assert_eq!(gn.path(0, 1), AccessPath::Pshm);
        assert_eq!(gn.path(0, 4), AccessPath::Network);
        assert!(gn.castable(0, 1));
        assert!(!gn.castable(0, 4));
    }

    #[test]
    fn pthread_backend_shares_connection_and_process() {
        let mut cfg = GasnetConfig::test_default(8, 2);
        cfg.backend = Backend::pthreads(4);
        let mut sim = Simulation::new();
        let gn = Gasnet::new(&mut sim, cfg);
        assert_eq!(gn.path(0, 3), AccessPath::SameProcess);
        assert_eq!(gn.conns[0], gn.conns[3]);
        assert_ne!(gn.conns[0], gn.conns[4]);
    }

    #[test]
    fn loopback_is_most_expensive_intranode_path() {
        // Compare intra-node put cost: plain processes vs PSHM vs pthreads.
        fn intranode_put_time(backend: Backend) -> Time {
            let mut cfg = GasnetConfig::test_default(4, 1);
            cfg.backend = backend;
            let out = Arc::new(Mutex::new(0));
            let o2 = Arc::clone(&out);
            launch(cfg, move |ctx, gn, me| {
                if me == 0 {
                    let data = vec![0u64; 4096];
                    let t0 = ctx.now();
                    gn.put(ctx, 0, 1, 0, &data);
                    *o2.lock().unwrap() = ctx.now() - t0;
                }
                gn.barrier(ctx, me);
            });
            let v = *out.lock().unwrap();
            v
        }
        let plain = intranode_put_time(Backend::processes());
        let pshm = intranode_put_time(Backend::processes_pshm());
        let pthr = intranode_put_time(Backend::pthreads(4));
        assert!(plain > pshm, "loopback {plain} vs pshm {pshm}");
        assert!(pshm > pthr, "pshm {pshm} vs pthreads {pthr}");
    }

    #[test]
    fn nonblocking_overlap_beats_blocking() {
        fn run(nb: bool) -> Time {
            let cfg = GasnetConfig::test_default(4, 2);
            let out = Arc::new(Mutex::new(0));
            let o2 = Arc::clone(&out);
            launch(cfg, move |ctx, gn, me| {
                if me == 0 {
                    let data = vec![0u64; 1 << 14];
                    let t0 = ctx.now();
                    if nb {
                        let hs: Vec<Handle> = (0..4)
                            .map(|i| gn.put_nb(ctx, 0, 2, i << 14, &data))
                            .collect();
                        for h in hs {
                            gn.wait_sync(ctx, 0, h);
                        }
                    } else {
                        for i in 0..4 {
                            gn.put(ctx, 0, 2, i << 14, &data);
                        }
                    }
                    *o2.lock().unwrap() = ctx.now() - t0;
                }
                gn.barrier(ctx, me);
            });
            let v = *out.lock().unwrap();
            v
        }
        // Pipelining across connection/NIC/wire stages shortens the total.
        assert!(run(true) < run(false));
    }

    #[test]
    fn out_of_order_syncs_retire_only_their_handles() {
        // Wait handles out of issue order: exactly those leave the
        // outstanding list, and the rest keep issue order — the order
        // `quiesce` waits them in, which the wake sequence numbers expose.
        let cfg = GasnetConfig::test_default(4, 2);
        launch(cfg, |ctx, gn, me| {
            if me == 0 {
                let data = vec![1u64; 1024];
                let hs: Vec<Handle> = (0..5)
                    .map(|i| gn.put_nb(ctx, 0, 2, i * 1024, &data))
                    .collect();
                gn.wait_sync(ctx, 0, hs[2]);
                // Same path, FIFO stages: h0 finished before h2, h4 after.
                assert!(gn.try_sync(ctx, 0, hs[0]));
                assert!(!gn.try_sync(ctx, 0, hs[4]));
                let left: Vec<CompletionId> =
                    [1, 3, 4].iter().map(|&i| hs[i].remote).collect();
                assert_eq!(gn.outstanding[0].get_clone(), left);
                gn.quiesce(ctx, 0);
                assert!(gn.outstanding[0].get_clone().is_empty());
                assert!(hs.iter().all(|h| ctx.test(h.remote)));
            }
            gn.barrier(ctx, me);
        });
    }

    #[test]
    fn barrier_synchronizes_and_drains() {
        let cfg = GasnetConfig::test_default(4, 2);
        launch(cfg, |ctx, gn, me| {
            if me == 1 {
                let data = vec![3u64; 2048];
                let _ = gn.put_nb(ctx, 1, 2, 0, &data); // deliberately un-waited
            }
            gn.barrier(ctx, me);
            // After the barrier everyone observes the same virtual time
            // ordering and the put has fully completed.
            if me == 2 {
                assert_eq!(gn.segment(2).read_word(2047), 3);
            }
        });
    }

    #[test]
    fn split_phase_barrier_overlaps_work() {
        let cfg = GasnetConfig::test_default(4, 2);
        launch(cfg, |ctx, gn, me| {
            gn.segment(me).write_word(0, me as u64 + 1);
            gn.barrier_notify(ctx, me);
            // Overlappable local work between notify and wait.
            ctx.advance(hupc_sim::time::us(me as u64 * 10));
            gn.barrier_wait_phase(ctx, me);
            // After wait, everyone's pre-notify writes are visible.
            for t in 0..4 {
                assert_eq!(gn.segment(t).read_word(0), t as u64 + 1);
            }
            // Reusable: a second phase works.
            gn.barrier_notify(ctx, me);
            gn.barrier_wait_phase(ctx, me);
        });
    }

    #[test]
    fn memcpy_third_party() {
        let cfg = GasnetConfig::test_default(4, 2);
        launch(cfg, |ctx, gn, me| {
            gn.segment(me).write_word(5, 40 + me as u64);
            gn.barrier(ctx, me);
            if me == 0 {
                // copy from thread 1's segment to thread 2's segment
                gn.memcpy(ctx, 0, 2, 77, 1, 5, 1);
            }
            gn.barrier(ctx, me);
            assert_eq!(gn.segment(2).read_word(77), 41);
        });
    }

    // ----- split-phase barrier edge cases ---------------------------------

    #[test]
    #[should_panic(expected = "upc_wait without a matching upc_notify")]
    fn split_wait_without_notify_panics() {
        let cfg = GasnetConfig::test_default(2, 1);
        launch(cfg, |ctx, gn, me| {
            if me == 0 {
                gn.barrier_wait_phase(ctx, 0); // never notified
            }
        });
    }

    #[test]
    #[should_panic(expected = "upc_wait without a matching upc_notify")]
    fn split_second_wait_without_renotify_panics() {
        // A full notify/wait cycle, then a second wait: the flag must have
        // been cleared by the first wait, so the second is misuse even
        // though split_target is non-zero by now.
        let cfg = GasnetConfig::test_default(2, 1);
        launch(cfg, |ctx, gn, me| {
            gn.barrier_notify(ctx, me);
            gn.barrier_wait_phase(ctx, me);
            if me == 0 {
                gn.barrier_wait_phase(ctx, 0);
            }
        });
    }

    #[test]
    #[should_panic(expected = "upc_notify twice without an intervening upc_wait")]
    fn split_double_notify_panics() {
        let cfg = GasnetConfig::test_default(2, 1);
        launch(cfg, |ctx, gn, me| {
            if me == 0 {
                gn.barrier_notify(ctx, 0);
                gn.barrier_notify(ctx, 0);
            } else {
                gn.barrier_notify(ctx, 1);
                gn.barrier_wait_phase(ctx, 1);
            }
        });
    }

    // ----- fault injection + recovery -------------------------------------

    #[test]
    fn lossy_put_retries_and_delivers() {
        // 20% loss: every put must still land (the retry budget makes the
        // chance of 8 consecutive drops ~2.6e-6 per message) and data must
        // be correct.
        let mut cfg = GasnetConfig::test_default(4, 2);
        cfg.conduit = Conduit::gige();
        cfg.fault = Some(FaultPlan::new(11).loss(0.20));
        launch(cfg, |ctx, gn, me| {
            if me == 0 {
                for i in 0..32u64 {
                    gn.try_put(ctx, 0, 2, i as usize, &[i * 3]).unwrap();
                }
            }
            gn.barrier(ctx, me);
            if me == 2 {
                for i in 0..32u64 {
                    assert_eq!(gn.segment(2).read_word(i as usize), i * 3);
                }
            }
        });
    }

    #[test]
    fn lossy_put_takes_longer_than_clean_put() {
        let run = |plan: Option<FaultPlan>| -> Time {
            let mut cfg = GasnetConfig::test_default(4, 2);
            cfg.conduit = Conduit::gige();
            cfg.fault = plan;
            let out = Arc::new(Mutex::new(0));
            let o2 = Arc::clone(&out);
            launch(cfg, move |ctx, gn, me| {
                if me == 0 {
                    for i in 0..64 {
                        gn.put(ctx, 0, 2, i, &[1]);
                    }
                    *o2.lock().unwrap() = ctx.now();
                }
                gn.barrier(ctx, me);
            });
            let v = *out.lock().unwrap();
            v
        };
        let clean = run(None);
        let lossy = run(Some(FaultPlan::new(3).loss(0.25)));
        assert!(lossy > clean, "lossy {lossy} vs clean {clean}");
        // And an identity plan is *exactly* the clean run.
        assert_eq!(run(Some(FaultPlan::new(3))), clean);
    }

    #[test]
    fn dead_link_exhausts_retries_with_typed_error() {
        let mut cfg = GasnetConfig::test_default(4, 2);
        cfg.conduit = Conduit::gige();
        // Only the node0 → node1 direction is dead.
        cfg.fault = Some(FaultPlan::new(5).link_loss(0, 1, 1.0));
        cfg.retry.max_attempts = 4;
        let errs = Arc::new(Mutex::new(Vec::new()));
        let e2 = Arc::clone(&errs);
        launch(cfg, move |ctx, gn, me| {
            if me == 0 {
                let err = gn.try_put(ctx, 0, 2, 0, &[9]).unwrap_err();
                e2.lock().unwrap().push(err);
            }
        });
        let errs = errs.lock().unwrap();
        match &errs[0] {
            CommError::RetriesExhausted {
                op,
                src,
                dst,
                attempts,
                ..
            } => {
                assert_eq!(*op, "put");
                assert_eq!((*src, *dst), (0, 2));
                assert_eq!(*attempts, 4);
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
        assert!(errs[0].to_string().contains("retry budget exhausted"));
    }

    #[test]
    fn lossy_get_retries_and_delivers() {
        let mut cfg = GasnetConfig::test_default(4, 2);
        cfg.conduit = Conduit::gige();
        cfg.fault = Some(FaultPlan::new(21).loss(0.2));
        launch(cfg, |ctx, gn, me| {
            gn.segment(me).write_word(0, 500 + me as u64);
            gn.barrier(ctx, me);
            if me == 0 {
                let mut out = [0u64];
                gn.try_get(ctx, 0, 2, 0, &mut out).unwrap();
                assert_eq!(out[0], 502);
            }
            gn.barrier(ctx, me);
        });
    }

    #[test]
    fn barrier_timeout_surfaces_typed_error() {
        // Thread 1 never reaches the barrier (it "crashes" after a long
        // sleep); the others give up with BarrierTimeout instead of
        // deadlocking, and the simulation drains cleanly.
        let mut cfg = GasnetConfig::test_default(4, 2);
        cfg.barrier_timeout = Some(time::ms(1));
        let failures = Arc::new(Mutex::new(Vec::new()));
        let f2 = Arc::clone(&failures);
        launch(cfg, move |ctx, gn, me| {
            if me == 1 {
                ctx.advance(time::secs(1)); // outlives everyone's timeout
                return;
            }
            let r = gn.try_barrier(ctx, me);
            match r.unwrap_err() {
                CommError::BarrierTimeout { thread, timeout } => {
                    assert_eq!(thread, me);
                    assert_eq!(timeout, time::ms(1));
                    f2.lock().unwrap().push(me);
                }
                other => panic!("expected BarrierTimeout, got {other}"),
            }
        });
        let mut seen = failures.lock().unwrap().clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 2, 3]);
    }

    #[test]
    fn barrier_without_timeout_is_unchanged() {
        let cfg = GasnetConfig::test_default(4, 2);
        launch(cfg, |ctx, gn, me| {
            assert!(gn.try_barrier(ctx, me).is_ok());
        });
    }

    #[test]
    fn straggler_node_slows_compute() {
        let run = |plan: Option<FaultPlan>| -> Time {
            let mut cfg = GasnetConfig::test_default(4, 2);
            cfg.fault = plan;
            let out = Arc::new(Mutex::new(0));
            let o2 = Arc::clone(&out);
            launch(cfg, move |ctx, gn, me| {
                gn.compute(ctx, me, time::us(100));
                gn.barrier(ctx, me);
                if me == 0 {
                    *o2.lock().unwrap() = ctx.now();
                }
            });
            let v = *out.lock().unwrap();
            v
        };
        let healthy = run(None);
        // Node 1 (threads 2,3) computes 3× slower; the barrier waits for it.
        let straggling = run(Some(FaultPlan::new(0).straggler(1, 3.0)));
        assert!(straggling > healthy, "{straggling} <= {healthy}");
    }

    /// The straggler stretch, exactly: only threads on the straggling node
    /// pay the factor, and they pay precisely `work × factor` through the
    /// same float path `compute_on` uses. Healthy nodes stay bit-identical.
    #[test]
    fn straggler_stretch_is_exact_and_per_node() {
        let per_thread = |plan: Option<FaultPlan>| -> Vec<Time> {
            let mut cfg = GasnetConfig::test_default(4, 2);
            cfg.fault = plan;
            let out = Arc::new(Mutex::new(vec![0; 4]));
            let o2 = Arc::clone(&out);
            launch(cfg, move |ctx, gn, me| {
                let t0 = ctx.now();
                gn.compute(ctx, me, time::us(100));
                o2.lock().unwrap()[me] = ctx.now() - t0;
            });
            let v = out.lock().unwrap().clone();
            v
        };
        let healthy = per_thread(None);
        let slowed = per_thread(Some(FaultPlan::new(0).straggler(1, 2.5)));
        // Threads 0,1 live on node 0: untouched, bit-identical.
        assert_eq!(slowed[0], healthy[0]);
        assert_eq!(slowed[1], healthy[1]);
        // Threads 2,3 live on node 1: stretched by exactly 2.5×.
        let stretched = time::from_secs_f64(time::as_secs_f64(time::us(100)) * 2.5);
        let base = time::us(100);
        for t in 2..4 {
            assert_eq!(healthy[t], base);
            assert_eq!(slowed[t], stretched, "thread {t}");
        }
        // An identity plan (factor 1.0) takes the untouched branch.
        let identity = per_thread(Some(FaultPlan::new(0).straggler(1, 1.0)));
        assert_eq!(identity, healthy);
    }
}
