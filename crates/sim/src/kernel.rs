//! The simulation kernel: event queue, virtual clock, and the blocking /
//! resource primitives actors synchronize through.
//!
//! The kernel has no lock: only the running actor (or the scheduler between
//! actors) touches it, so the engine keeps it in a single-owner cell with a
//! re-entrancy flag (`KernelCell` in the engine). All mutation goes through
//! methods here so invariants —
//! monotone time, at most one pending wake per actor, FIFO resource queues —
//! hold in one place.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};

use crate::time::Time;

/// Process-wide default for the scheduler-bypass fast path; freshly created
/// kernels inherit it. Benchmarks toggle this around whole runs; tests that
/// need a per-run setting use [`Kernel::set_fast_path`] instead (which always
/// wins over the default).
static FAST_PATH_DEFAULT: AtomicBool = AtomicBool::new(true);

/// Set the process-wide default for the scheduler-bypass fast path (see
/// [`Kernel::set_fast_path`]). Only affects simulations created afterwards.
pub fn set_fast_path_default(on: bool) {
    FAST_PATH_DEFAULT.store(on, Ordering::SeqCst);
}

/// Current process-wide fast-path default.
pub fn fast_path_default() -> bool {
    FAST_PATH_DEFAULT.load(Ordering::SeqCst)
}

/// Identifies an actor within one simulation.
pub(crate) type ActorId = usize;

/// Handle to a FIFO queueing resource (a core, a NIC, a link, …).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ResourceId(pub(crate) usize);

/// Handle to a one-shot completion (an async operation's "done" flag).
///
/// `#[must_use]`: a dropped completion is a lost-completion bug — nobody can
/// ever wait on or poll the operation it represents.
#[must_use = "dropping a CompletionId loses the only way to observe the operation"]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CompletionId(pub(crate) usize);

/// Handle to a condition variable (standalone; the engine's serialization
/// makes the usual lost-wakeup race impossible).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CondId(pub(crate) usize);

/// Handle to a reusable N-party barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BarrierId(pub(crate) usize);

/// Handle to a FIFO-fair simulated mutex.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MutexId(pub(crate) usize);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EventKind {
    Wake(ActorId),
    Complete(CompletionId),
    /// Timed-wait deadline for an actor; the `u64` is the actor's wake
    /// epoch at scheduling time — a stale epoch means the actor was woken
    /// (and possibly re-blocked) in the meantime and the timeout is void.
    Timeout(ActorId, u64),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Event {
    pub time: Time,
    pub seq: u64,
    pub kind: EventKind,
}

/// One entry of the set of events tied at the earliest pending virtual time,
/// as shown to a [`SchedulePolicy`]. Entries are sorted by sequence number;
/// index 0 is what the default (policy-free) scheduler would dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadyEvent {
    /// The shared virtual time of the tie.
    pub time: Time,
    /// Queue sequence number (smaller = scheduled earlier).
    pub seq: u64,
    pub kind: ReadyEventKind,
}

/// Public mirror of the internal event kinds, for schedule policies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadyEventKind {
    /// An actor resumes.
    Wake { actor: usize },
    /// A completion fires (waking its registered waiters).
    Complete { completion: usize },
    /// A timed-wait deadline (may be stale by the time it is processed).
    Timeout { actor: usize },
}

/// The schedule-exploration seam: a tie-break hook consulted whenever two or
/// more events are pending at the same earliest virtual time.
///
/// Events at *different* virtual times are causally ordered and never
/// reorderable; events tied at one instant model operations that are truly
/// concurrent on a real machine, where hardware would order them arbitrarily.
/// The default scheduler breaks ties by sequence number (a fixed, legal
/// ordering). A `SchedulePolicy` picks any other member of the tie instead,
/// which lets an explorer (see the `hupc-check` crate) enumerate or randomly
/// sample interleavings while keeping each individual run fully
/// deterministic: the same policy decisions always yield the same run.
///
/// The scheduler-bypass fast path is unaffected: bypass requires a wake
/// *strictly* earlier than every pending event, so ties — the only points a
/// policy is consulted — never take it, and explored schedules are identical
/// with the fast path on or off.
pub trait SchedulePolicy: Send {
    /// Choose which tied event dispatches next. `ready` has at least two
    /// entries, sorted by sequence number. Out-of-range returns are clamped.
    fn choose(&mut self, ready: &[ReadyEvent]) -> usize;
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ActorStatus {
    /// Has a pending `Wake` event in the queue.
    Runnable,
    /// Currently executing user code (resumed, wake consumed).
    Running,
    /// Parked in a simcall with no pending wake (waiting on a completion,
    /// condition, barrier or mutex).
    Blocked,
    Finished,
}

/// What a blocked actor is waiting for — typed, so the deadlock detector can
/// walk the wait graph (who holds the mutex, how many arrived at the
/// barrier) instead of printing an opaque string.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BlockKind {
    /// Spawned, first wake not yet delivered.
    Start,
    /// Pure time delay ([`crate::Ctx::advance`]); always has a pending wake.
    Advance,
    /// FIFO resource service; always has a pending wake.
    Resource(ResourceId),
    Completion(CompletionId),
    Cond(CondId),
    Barrier(BarrierId),
    Mutex(MutexId),
}

/// Payload code for structured `Park` trace events.
fn park_code(on: BlockKind) -> u64 {
    match on {
        BlockKind::Start => hupc_trace::park::START,
        BlockKind::Advance => hupc_trace::park::ADVANCE,
        BlockKind::Resource(_) => hupc_trace::park::RESOURCE,
        BlockKind::Completion(_) => hupc_trace::park::COMPLETION,
        BlockKind::Cond(_) => hupc_trace::park::COND,
        BlockKind::Barrier(_) => hupc_trace::park::BARRIER,
        BlockKind::Mutex(_) => hupc_trace::park::MUTEX,
    }
}

pub(crate) struct ActorMeta {
    pub name: String,
    pub status: ActorStatus,
    /// Completed when the actor finishes; joiners wait on it.
    pub exit: CompletionId,
    /// What the actor is blocked on, for timeouts and deadlock diagnostics.
    pub blocked_on: BlockKind,
    /// Bumped on every wake; outstanding `Timeout` events carrying an older
    /// epoch are stale and ignored.
    pub wake_epoch: u64,
    /// Set when the last wake was a timed-wait expiry (consumed by `Ctx`).
    pub timed_out: bool,
    /// Virtual time of the most recent `mark_blocked` (for deadlock reports).
    pub blocked_since: Time,
    /// Ring of the actor's last few scheduler interactions, kept so a
    /// deadlock report can show what each stuck actor was doing just before
    /// it parked for good. Bounded at [`RECENT_CAP`]; no allocation per push
    /// once warm.
    pub recent: VecDeque<RecentOp>,
}

/// How many trailing scheduler interactions are retained per actor for the
/// deadlock report's activity tail.
pub(crate) const RECENT_CAP: usize = 4;

/// One retained scheduler interaction of an actor (see [`ActorMeta::recent`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RecentOp {
    /// A wake was scheduled at `.1` while the clock stood at `.0`.
    Scheduled(Time, Time),
    /// The actor resumed inline via the scheduler-bypass fast path.
    Bypassed(Time),
    /// The actor parked, blocked on the given primitive.
    Parked(Time, BlockKind),
}

impl RecentOp {
    /// Compact single-token rendering (`sched@0ns->5ns`, `park@5ns(barrier#0)`).
    fn render(&self) -> String {
        fn block_tag(on: BlockKind) -> String {
            match on {
                BlockKind::Start => "start".into(),
                BlockKind::Advance => "advance".into(),
                BlockKind::Resource(r) => format!("resource#{}", r.0),
                BlockKind::Completion(c) => format!("completion#{}", c.0),
                BlockKind::Cond(c) => format!("cond#{}", c.0),
                BlockKind::Barrier(b) => format!("barrier#{}", b.0),
                BlockKind::Mutex(m) => format!("mutex#{}", m.0),
            }
        }
        match self {
            RecentOp::Scheduled(at, wake) => format!(
                "sched@{}->{}",
                crate::time::format(*at),
                crate::time::format(*wake)
            ),
            RecentOp::Bypassed(t) => format!("bypass@{}", crate::time::format(*t)),
            RecentOp::Parked(t, on) => {
                format!("park@{}({})", crate::time::format(*t), block_tag(*on))
            }
        }
    }
}

impl ActorMeta {
    /// Push into the bounded recent-activity ring. Consecutive duplicates
    /// collapse (blocking simcalls mark the park twice: once registering the
    /// wait, once in the generic block path).
    fn note(&mut self, op: RecentOp) {
        if self.recent.back() == Some(&op) {
            return;
        }
        if self.recent.len() == RECENT_CAP {
            self.recent.pop_front();
        }
        self.recent.push_back(op);
    }
}

#[derive(Debug)]
struct ResourceState {
    name: String,
    next_free: Time,
    busy_total: Time,
}

#[derive(Debug, Default)]
struct CompletionState {
    done: bool,
    waiters: Vec<ActorId>,
}

#[derive(Debug, Default)]
struct CondState {
    waiters: Vec<ActorId>,
}

#[derive(Debug)]
struct BarrierState {
    parties: usize,
    arrived: Vec<ActorId>,
}

#[derive(Debug, Default)]
struct MutexState {
    owner: Option<ActorId>,
    queue: Vec<ActorId>,
}

/// One processed scheduler event: the kernel's dispatch log, projected out
/// of a `Full` tracer's event stream by [`TraceEvent::project`]. A bypassed
/// event projects exactly as the full scheduler path would have logged it —
/// same time, same sequence number, same kind — which is what lets tests
/// assert bit-identical traces with the fast path on and off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub time: Time,
    pub seq: u64,
    pub kind: TraceKind,
}

/// Public mirror of the internal event kinds for trace logging.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// An actor resumed (scheduler wake or inline bypass).
    Wake(usize),
    /// A completion fired.
    Complete(usize),
    /// A timed-wait deadline event was processed (live or stale).
    Timeout(usize),
}

impl TraceEvent {
    /// The kernel's dispatch log inside a merged trace, in dispatch order:
    /// `Wake` and `FastPathBypass` become `Wake(actor)` with seq `a`,
    /// `Complete` becomes `Complete(a)` with seq `b`, and `Timeout` becomes
    /// `Timeout(actor)` with seq `b`. Every other kind is dropped.
    pub fn project(trace: &[hupc_trace::Event]) -> Vec<TraceEvent> {
        use hupc_trace::EventKind as K;
        trace
            .iter()
            .filter_map(|e| {
                let (seq, kind) = match e.kind {
                    K::Wake | K::FastPathBypass => (e.a, TraceKind::Wake(e.actor as usize)),
                    K::Complete => (e.b, TraceKind::Complete(e.a as usize)),
                    K::Timeout => (e.b, TraceKind::Timeout(e.actor as usize)),
                    _ => return None,
                };
                Some(TraceEvent { time: e.time, seq, kind })
            })
            .collect()
    }

    /// [`TraceEvent::project`] over everything `tracer` recorded. Panics if
    /// a ring evicted events: a truncated log could compare equal to
    /// another truncated log and hide a divergence.
    pub fn log_of(tracer: &hupc_trace::Tracer) -> Vec<TraceEvent> {
        let dropped = tracer.events_dropped();
        assert_eq!(dropped, 0, "tracer evicted {dropped} events; the dispatch log is incomplete");
        TraceEvent::project(&tracer.merge())
    }
}

/// Central simulation state. Obtain mutable access through
/// [`crate::Simulation::kernel`] (before the run) or
/// [`crate::Ctx::with_kernel`] (from inside an actor).
pub struct Kernel {
    now: Time,
    /// Near bucket of the split event queue: events scheduled *at* `now`,
    /// in push (= sequence) order. `wake_at(now, ..)`, every completion
    /// fire, mutex handover and cond notify land here, making the hot-path
    /// insert and pop O(1) instead of a heap churn.
    near: VecDeque<Event>,
    /// Far half: every event scheduled past `now` at push time.
    far: BinaryHeap<Reverse<Event>>,
    /// Next event sequence number.
    next_seq: u64,
    events_processed: u64,
    resources: Vec<ResourceState>,
    completions: Vec<CompletionState>,
    conds: Vec<CondState>,
    barriers: Vec<BarrierState>,
    mutexes: Vec<MutexState>,
    pub(crate) actors: Vec<ActorMeta>,
    pub(crate) live_actors: usize,
    /// Scheduler-bypass fast path enabled for this kernel (defaults to the
    /// process-wide [`fast_path_default`]).
    fast_path: bool,
    /// Simcalls resolved inline without a scheduler handoff.
    pub(crate) fast_path_hits: u64,
    /// Scheduler → actor dispatches that went through a full handoff (a
    /// resume/yield context-switch round trip).
    pub(crate) handoffs: u64,
    /// Pushes + pops on the far (binary-heap) half of the event queue.
    pub(crate) heap_ops: u64,
    /// Optional tie-break hook for schedule exploration (see
    /// [`SchedulePolicy`]). `None` (the default) keeps the plain
    /// sequence-order pop path with zero overhead.
    policy: Option<Box<dyn SchedulePolicy>>,
    /// First actor panic of the run: `(actor, payload rendering)`. Set by
    /// the panicking actor in one kernel borrow (before it switches back to
    /// the scheduler) and drained by the scheduler loop — the typed channel
    /// behind [`crate::SimError::ActorPanic`].
    panic_note: Option<(ActorId, String)>,
    /// Structured virtual-time tracer (hupc-trace), if one is attached.
    /// Emitting never touches `now`, the queue, or any seq the simulation
    /// observes — tracing is observationally free by construction.
    tracer: Option<std::sync::Arc<hupc_trace::Tracer>>,
}

impl Kernel {
    pub(crate) fn new() -> Self {
        Kernel {
            now: 0,
            near: VecDeque::new(),
            far: BinaryHeap::new(),
            next_seq: 0,
            events_processed: 0,
            resources: Vec::new(),
            completions: Vec::new(),
            conds: Vec::new(),
            barriers: Vec::new(),
            mutexes: Vec::new(),
            actors: Vec::new(),
            live_actors: 0,
            fast_path: fast_path_default(),
            fast_path_hits: 0,
            handoffs: 0,
            heap_ops: 0,
            policy: None,
            panic_note: None,
            tracer: None,
        }
    }

    /// Install (or remove) a schedule-exploration tie-break policy. With a
    /// policy installed, every instant at which two or more events are
    /// pending becomes a decision point: the policy picks which one
    /// dispatches. Without one, ties break by sequence number as always.
    pub fn set_schedule_policy(&mut self, p: Option<Box<dyn SchedulePolicy>>) {
        self.policy = p;
    }

    /// Record the first actor panic of the run (later ones are dropped; the
    /// run is already doomed and the first failure is the one to report).
    pub(crate) fn note_panic(&mut self, actor: ActorId, message: String) {
        if self.panic_note.is_none() {
            self.panic_note = Some((actor, message));
        }
    }

    /// Drain the pending panic note, if any.
    pub(crate) fn take_panic_note(&mut self) -> Option<(ActorId, String)> {
        self.panic_note.take()
    }

    /// Attach (or detach) a structured tracer. All kernel-level events
    /// (schedule / wake / fast-path bypass / park / complete / timeout) are
    /// emitted through it when its level is `Full`.
    pub fn set_tracer(&mut self, t: Option<std::sync::Arc<hupc_trace::Tracer>>) {
        self.tracer = t;
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&std::sync::Arc<hupc_trace::Tracer>> {
        self.tracer.as_ref()
    }

    /// Emit a structured trace event at the kernel clock (single branch when
    /// no tracer is attached or its level is below `Full`).
    #[inline]
    pub(crate) fn temit(&self, time: Time, actor: usize, kind: hupc_trace::EventKind, a: u64, b: u64) {
        if let Some(t) = &self.tracer {
            t.emit(time, actor as u32, kind, a, b);
        }
    }

    /// Emit the structured counterpart of a dispatched scheduler event.
    pub(crate) fn trace_dispatch(&self, e: &Event) {
        match e.kind {
            EventKind::Wake(a) => self.temit(e.time, a, hupc_trace::EventKind::Wake, e.seq, 0),
            EventKind::Complete(c) => {
                self.temit(e.time, usize::MAX, hupc_trace::EventKind::Complete, c.0 as u64, e.seq)
            }
            EventKind::Timeout(a, epoch) => {
                let live = self.timeout_is_live(a, epoch);
                self.temit(e.time, a, hupc_trace::EventKind::Timeout, live as u64, e.seq)
            }
        }
    }

    /// Enable / disable the scheduler-bypass fast path for this kernel.
    ///
    /// With the fast path **on** (the default), a simcall whose resulting
    /// wake is provably the next event to run — strictly earlier than every
    /// pending event — is processed inline by the calling actor, which keeps
    /// running without a scheduler handoff. Virtual-time behavior is
    /// bit-identical either way (same event times, sequence numbers and
    /// order); only host wall-clock and the `fast_path_hits` / `handoffs`
    /// counters differ.
    pub fn set_fast_path(&mut self, on: bool) {
        self.fast_path = on;
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events processed so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    pub(crate) fn set_now(&mut self, t: Time) {
        debug_assert!(t >= self.now, "virtual time must be monotone");
        self.now = t;
        self.events_processed += 1;
    }

    pub(crate) fn push_event(&mut self, time: Time, kind: EventKind) {
        debug_assert!(time >= self.now, "cannot schedule into the past");
        let ev = Event {
            time,
            seq: self.next_seq,
            kind,
        };
        self.next_seq += 1;
        if time == self.now {
            // Near bucket: all entries share `time == now` (the clock cannot
            // advance past a pending now-event, so the bucket drains before
            // `now` moves) and FIFO order is sequence order.
            self.near.push_back(ev);
        } else {
            self.heap_ops += 1;
            self.far.push(Reverse(ev));
        }
    }

    /// Pop the earliest pending event by `(time, seq)`.
    pub(crate) fn pop_event(&mut self) -> Option<Event> {
        if self.policy.is_some() {
            return self.pop_event_policy();
        }
        let take_far = match (self.near.front(), self.far.peek()) {
            (Some(n), Some(Reverse(f))) => (f.time, f.seq) < (n.time, n.seq),
            (None, Some(_)) => true,
            (_, None) => false,
        };
        if take_far {
            self.heap_ops += 1;
            self.far.pop().map(|Reverse(e)| e)
        } else {
            self.near.pop_front()
        }
    }

    /// Policy-mediated pop: gather every event tied at the earliest pending
    /// time, let the [`SchedulePolicy`] pick one, and reinsert the rest with
    /// their original sequence numbers (so the un-chosen members of the tie
    /// keep their identity for later decision points).
    fn pop_event_policy(&mut self) -> Option<Event> {
        let t = self.earliest_pending()?;
        let mut ready: Vec<Event> = Vec::new();
        while self.far.peek().is_some_and(|Reverse(f)| f.time == t) {
            self.heap_ops += 1;
            ready.push(self.far.pop().map(|Reverse(e)| e).unwrap());
        }
        // Near entries all share `now`; they tie only at it.
        while self.near.front().is_some_and(|n| n.time == t) {
            ready.push(self.near.pop_front().unwrap());
        }
        // The policy sees the tie in sequence order (its contract).
        ready.sort_unstable_by_key(|e| e.seq);
        let choice = if ready.len() > 1 {
            let view: Vec<ReadyEvent> = ready
                .iter()
                .map(|e| ReadyEvent {
                    time: e.time,
                    seq: e.seq,
                    kind: match e.kind {
                        EventKind::Wake(a) => ReadyEventKind::Wake { actor: a },
                        EventKind::Complete(c) => {
                            ReadyEventKind::Complete { completion: c.0 }
                        }
                        EventKind::Timeout(a, _) => ReadyEventKind::Timeout { actor: a },
                    },
                })
                .collect();
            // Temporarily lift the policy out to sidestep the simultaneous
            // &mut self borrow; `choose` must not touch the kernel anyway.
            let mut policy = self.policy.take().expect("checked in pop_event");
            let c = policy.choose(&view).min(ready.len() - 1);
            self.policy = Some(policy);
            c
        } else {
            0
        };
        let ev = ready.remove(choice);
        for e in ready {
            // Ties at the current clock go back to the near bucket — fully
            // drained above, and reinsertion in seq order keeps its
            // FIFO-by-seq invariant (future pushes carry strictly larger
            // seqs). Everything else returns to the far heap.
            if e.time == self.now {
                self.near.push_back(e);
            } else {
                self.heap_ops += 1;
                self.far.push(Reverse(e));
            }
        }
        Some(ev)
    }

    /// Time of the earliest pending event, if any.
    fn earliest_pending(&self) -> Option<Time> {
        let near = self.near.front().map(|e| e.time);
        let far = self.far.peek().map(|Reverse(e)| e.time);
        near.into_iter().chain(far).min()
    }

    /// Whether an actor resuming itself at `t` may take the scheduler-bypass
    /// fast path: its wake must be *strictly* earlier than every pending
    /// event. (An existing event at the same time holds a smaller sequence
    /// number and must run first, so ties disqualify.)
    pub(crate) fn bypass_eligible(&self, t: Time) -> bool {
        self.fast_path && self.earliest_pending().map_or(true, |p| t < p)
    }

    /// Process an actor's own wake inline: consume the sequence number the
    /// wake event would have used, advance the clock, and account the event
    /// — without ever enqueueing it or handing off to the scheduler. The
    /// caller must have checked [`Kernel::bypass_eligible`]; the actor keeps
    /// running afterwards.
    pub(crate) fn bypass_resume(&mut self, actor: ActorId, t: Time) {
        // Bugfix-by-construction: taking the fast path while any other event
        // is pending at an earlier-or-equal (time, sequence) would silently
        // reorder the schedule — fail loudly instead.
        debug_assert!(
            self.earliest_pending().map_or(true, |p| t < p),
            "fast path taken at t={t} while an earlier event is pending"
        );
        debug_assert_eq!(
            self.actors[actor].status,
            ActorStatus::Running,
            "fast path requires the calling actor to be the running actor"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.actors[actor].wake_epoch += 1; // voids outstanding timeouts
        self.actors[actor].note(RecentOp::Bypassed(t));
        self.temit(t, actor, hupc_trace::EventKind::FastPathBypass, seq, 0);
        self.set_now(t);
        self.fast_path_hits += 1;
    }

    /// Schedule a wake for `actor` at `time`, marking it runnable.
    pub(crate) fn wake_at(&mut self, time: Time, actor: ActorId) {
        debug_assert_ne!(
            self.actors[actor].status,
            ActorStatus::Runnable,
            "actor {} ({}) already has a pending wake",
            actor,
            self.actors[actor].name
        );
        self.actors[actor].status = ActorStatus::Runnable;
        self.actors[actor].wake_epoch += 1; // voids outstanding timeouts
        let now = self.now;
        self.actors[actor].note(RecentOp::Scheduled(now, time));
        self.temit(self.now, actor, hupc_trace::EventKind::Schedule, time, 0);
        self.push_event(time, EventKind::Wake(actor));
    }

    pub(crate) fn mark_blocked(&mut self, actor: ActorId, on: BlockKind) {
        self.actors[actor].status = ActorStatus::Blocked;
        self.actors[actor].blocked_on = on;
        let now = self.now;
        self.actors[actor].blocked_since = now;
        self.actors[actor].note(RecentOp::Parked(now, on));
        self.temit(self.now, actor, hupc_trace::EventKind::Park, park_code(on), 0);
    }

    /// Arm a timed-wait deadline for `actor` at `at`. Must be called while
    /// the actor is (about to be) blocked; voided automatically if the actor
    /// is woken before the deadline.
    pub(crate) fn schedule_timeout(&mut self, actor: ActorId, at: Time) {
        let epoch = self.actors[actor].wake_epoch;
        self.push_event(at, EventKind::Timeout(actor, epoch));
    }

    /// Whether a `Timeout(actor, epoch)` event is still live when popped.
    pub(crate) fn timeout_is_live(&self, actor: ActorId, epoch: u64) -> bool {
        self.actors[actor].status == ActorStatus::Blocked
            && self.actors[actor].wake_epoch == epoch
    }

    /// Withdraw `actor` from whatever wait registration it holds (the
    /// cleanup half of a timed-wait expiry). A barrier arrival is taken
    /// back — the barrier will need a fresh arrival from someone to release,
    /// which is exactly the "broken barrier" semantics a timeout reports.
    pub(crate) fn cancel_wait(&mut self, actor: ActorId) {
        match self.actors[actor].blocked_on {
            BlockKind::Completion(c) => {
                self.completions[c.0].waiters.retain(|&w| w != actor);
            }
            BlockKind::Cond(c) => {
                self.conds[c.0].waiters.retain(|&w| w != actor);
            }
            BlockKind::Barrier(b) => {
                self.barriers[b.0].arrived.retain(|&w| w != actor);
            }
            BlockKind::Mutex(m) => {
                self.mutexes[m.0].queue.retain(|&w| w != actor);
            }
            BlockKind::Start | BlockKind::Advance | BlockKind::Resource(_) => {}
        }
    }

    pub(crate) fn mark_running(&mut self, actor: ActorId) {
        debug_assert_eq!(self.actors[actor].status, ActorStatus::Runnable);
        self.actors[actor].status = ActorStatus::Running;
    }

    // ----- resources ------------------------------------------------------

    /// Register a FIFO queueing resource.
    pub fn new_resource(&mut self, name: impl Into<String>) -> ResourceId {
        self.resources.push(ResourceState {
            name: name.into(),
            next_free: 0,
            busy_total: 0,
        });
        ResourceId(self.resources.len() - 1)
    }

    /// FIFO-acquire `res` for `service` time, starting no earlier than
    /// `earliest`. Returns the completion time. This is the single queueing
    /// primitive every contention effect in the platform model reduces to.
    pub fn acquire_after(
        &mut self,
        res: ResourceId,
        earliest: Time,
        service: Time,
    ) -> Time {
        let r = &mut self.resources[res.0];
        let start = earliest.max(r.next_free);
        r.next_free = start + service;
        r.busy_total += service;
        r.next_free
    }

    /// FIFO-acquire starting no earlier than the current time.
    pub fn acquire(&mut self, res: ResourceId, service: Time) -> Time {
        let now = self.now;
        self.acquire_after(res, now, service)
    }

    /// Earliest instant `res` is free (its queue tail).
    pub fn resource_free_at(&self, res: ResourceId) -> Time {
        self.resources[res.0].next_free
    }

    /// Total busy time accumulated on `res` (for utilization reporting).
    pub fn resource_busy_total(&self, res: ResourceId) -> Time {
        self.resources[res.0].busy_total
    }

    /// Name the resource was registered with.
    pub fn resource_name(&self, res: ResourceId) -> &str {
        &self.resources[res.0].name
    }

    // ----- completions ----------------------------------------------------

    /// Create a fresh not-yet-done completion.
    pub fn new_completion(&mut self) -> CompletionId {
        self.completions.push(CompletionState::default());
        CompletionId(self.completions.len() - 1)
    }

    /// Install `meta` under the next dense actor id.
    pub(crate) fn alloc_actor(&mut self, meta: ActorMeta) -> ActorId {
        self.actors.push(meta);
        self.actors.len() - 1
    }

    /// Schedule `comp` to become done at `time`.
    pub fn complete_at(&mut self, time: Time, comp: CompletionId) {
        self.push_event(time, EventKind::Complete(comp));
    }

    /// Whether `comp` has fired.
    pub fn is_complete(&self, comp: CompletionId) -> bool {
        self.completions[comp.0].done
    }

    /// Mark done immediately and wake waiters at the current time.
    pub(crate) fn fire_completion(&mut self, comp: CompletionId) {
        let c = &mut self.completions[comp.0];
        if c.done {
            return;
        }
        c.done = true;
        let waiters = std::mem::take(&mut c.waiters);
        let now = self.now;
        for w in waiters {
            self.wake_at(now, w);
        }
    }

    pub(crate) fn add_completion_waiter(&mut self, comp: CompletionId, actor: ActorId) {
        debug_assert!(!self.completions[comp.0].done);
        self.completions[comp.0].waiters.push(actor);
    }

    // ----- condition variables --------------------------------------------

    /// Create a condition variable.
    pub fn new_cond(&mut self) -> CondId {
        self.conds.push(CondState::default());
        CondId(self.conds.len() - 1)
    }

    pub(crate) fn add_cond_waiter(&mut self, cond: CondId, actor: ActorId) {
        self.conds[cond.0].waiters.push(actor);
    }

    /// Wake one waiter (FIFO). Returns whether anybody was woken.
    pub fn cond_notify_one(&mut self, cond: CondId) -> bool {
        if self.conds[cond.0].waiters.is_empty() {
            return false;
        }
        let w = self.conds[cond.0].waiters.remove(0);
        let now = self.now;
        self.wake_at(now, w);
        true
    }

    /// Wake all waiters. Returns how many were woken.
    pub fn cond_notify_all(&mut self, cond: CondId) -> usize {
        let waiters = std::mem::take(&mut self.conds[cond.0].waiters);
        let n = waiters.len();
        let now = self.now;
        for w in waiters {
            self.wake_at(now, w);
        }
        n
    }

    // ----- barriers ---------------------------------------------------------

    /// Create a reusable barrier for `parties` actors.
    pub fn new_barrier(&mut self, parties: usize) -> BarrierId {
        assert!(parties > 0, "barrier needs at least one party");
        self.barriers.push(BarrierState {
            parties,
            arrived: Vec::new(),
        });
        BarrierId(self.barriers.len() - 1)
    }

    /// Arrive at the barrier. Returns `true` if this arrival released the
    /// barrier (the caller is the last party and must NOT block); the kernel
    /// has then scheduled wakes for all the earlier arrivals at
    /// `now + release_cost`, and the caller should advance itself by
    /// `release_cost`.
    pub(crate) fn barrier_arrive(
        &mut self,
        bar: BarrierId,
        actor: ActorId,
        release_cost: Time,
    ) -> bool {
        let parties = self.barriers[bar.0].parties;
        self.barriers[bar.0].arrived.push(actor);
        if self.barriers[bar.0].arrived.len() < parties {
            return false;
        }
        let arrived = std::mem::take(&mut self.barriers[bar.0].arrived);
        let t = self.now + release_cost;
        for w in arrived {
            if w != actor {
                self.wake_at(t, w);
            }
        }
        true
    }

    // ----- mutexes ----------------------------------------------------------

    /// Create a FIFO-fair simulated mutex.
    pub fn new_mutex(&mut self) -> MutexId {
        self.mutexes.push(MutexState::default());
        MutexId(self.mutexes.len() - 1)
    }

    /// Attempt the fast path of a lock. Returns `true` on success; on
    /// failure the caller was queued and must block.
    pub(crate) fn mutex_lock_or_enqueue(&mut self, m: MutexId, actor: ActorId) -> bool {
        let st = &mut self.mutexes[m.0];
        if st.owner.is_none() {
            st.owner = Some(actor);
            true
        } else {
            st.queue.push(actor);
            false
        }
    }

    /// Try-lock without queueing.
    pub(crate) fn mutex_try_lock(&mut self, m: MutexId, actor: ActorId) -> bool {
        let st = &mut self.mutexes[m.0];
        if st.owner.is_none() {
            st.owner = Some(actor);
            true
        } else {
            false
        }
    }

    pub(crate) fn mutex_unlock(&mut self, m: MutexId, actor: ActorId) {
        let st = &mut self.mutexes[m.0];
        assert_eq!(
            st.owner,
            Some(actor),
            "mutex unlocked by non-owner actor {actor}"
        );
        if st.queue.is_empty() {
            st.owner = None;
        } else {
            let next = st.queue.remove(0);
            st.owner = Some(next);
            let now = self.now;
            self.wake_at(now, next);
        }
    }

    // ----- diagnostics ------------------------------------------------------

    /// Snapshot the wait graph of every blocked actor (the deadlock report).
    pub(crate) fn wait_graph(&self) -> WaitGraph {
        let name_of = |id: usize| self.actors[id].name.clone();
        let edges = self
            .actors
            .iter()
            .enumerate()
            .filter(|(_, a)| a.status == ActorStatus::Blocked)
            .map(|(i, a)| {
                let target = match a.blocked_on {
                    BlockKind::Start => WaitTarget::Start,
                    BlockKind::Advance => WaitTarget::Advance,
                    BlockKind::Resource(r) => WaitTarget::Resource {
                        id: r.0,
                        name: self.resources[r.0].name.clone(),
                    },
                    BlockKind::Completion(c) => WaitTarget::Completion { id: c.0 },
                    BlockKind::Cond(c) => WaitTarget::Cond {
                        id: c.0,
                        waiters: self.conds[c.0].waiters.len(),
                    },
                    BlockKind::Barrier(b) => WaitTarget::Barrier {
                        id: b.0,
                        arrived: self.barriers[b.0].arrived.len(),
                        parties: self.barriers[b.0].parties,
                        arrived_actors: self.barriers[b.0]
                            .arrived
                            .iter()
                            .map(|&w| (w, name_of(w)))
                            .collect(),
                    },
                    BlockKind::Mutex(m) => WaitTarget::Mutex {
                        id: m.0,
                        owner: self.mutexes[m.0].owner.map(|o| (o, name_of(o))),
                        queue_len: self.mutexes[m.0].queue.len(),
                    },
                };
                WaitEdge {
                    actor: i,
                    actor_name: a.name.clone(),
                    target,
                    blocked_since: a.blocked_since,
                    recent: a.recent.iter().map(RecentOp::render).collect(),
                }
            })
            .collect();
        WaitGraph { edges }
    }
}

/// What one blocked actor is waiting on, with enough context to see *why*
/// it cannot proceed (mutex owner, barrier arrival count, …).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WaitTarget {
    /// Spawned but never started (the scheduler quit first).
    Start,
    /// A pure time delay (cannot deadlock; shown for completeness).
    Advance,
    /// A FIFO resource service (cannot deadlock; shown for completeness).
    Resource { id: usize, name: String },
    Completion { id: usize },
    Cond { id: usize, waiters: usize },
    Barrier {
        id: usize,
        arrived: usize,
        parties: usize,
        arrived_actors: Vec<(usize, String)>,
    },
    Mutex {
        id: usize,
        owner: Option<(usize, String)>,
        queue_len: usize,
    },
}

/// One blocked actor and its blocking primitive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitEdge {
    pub actor: usize,
    pub actor_name: String,
    pub target: WaitTarget,
    /// Virtual time at which the actor parked on `target`.
    pub blocked_since: Time,
    /// The actor's last few scheduler interactions (oldest first), rendered
    /// as compact tokens — the activity tail leading up to the park.
    pub recent: Vec<String>,
}

/// The full set of blocked actors at the moment the event queue drained —
/// the structured deadlock report returned inside
/// [`crate::SimError::Deadlock`].
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct WaitGraph {
    pub edges: Vec<WaitEdge>,
}

impl std::fmt::Display for WaitGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.edges.is_empty() {
            return writeln!(f, "  (no blocked actors)");
        }
        for e in &self.edges {
            write!(f, "  actor {} '{}' waiting on ", e.actor, e.actor_name)?;
            match &e.target {
                WaitTarget::Start => writeln!(f, "its first wake (never started)")?,
                WaitTarget::Advance => writeln!(f, "a time advance")?,
                WaitTarget::Resource { id, name } => {
                    writeln!(f, "resource #{id} '{name}'")?;
                }
                WaitTarget::Completion { id } => writeln!(f, "completion #{id}")?,
                WaitTarget::Cond { id, waiters } => {
                    writeln!(f, "cond #{id} ({waiters} parked, nobody to notify)")?;
                }
                WaitTarget::Barrier {
                    id,
                    arrived,
                    parties,
                    arrived_actors,
                } => {
                    let who: Vec<String> = arrived_actors
                        .iter()
                        .map(|(i, n)| format!("{i} '{n}'"))
                        .collect();
                    writeln!(
                        f,
                        "barrier #{id} ({arrived}/{parties} arrived: [{}])",
                        who.join(", ")
                    )?;
                }
                WaitTarget::Mutex {
                    id,
                    owner,
                    queue_len,
                } => match owner {
                    Some((o, n)) => writeln!(
                        f,
                        "mutex #{id} (held by actor {o} '{n}', {queue_len} queued)"
                    )?,
                    None => writeln!(f, "mutex #{id} (unowned, {queue_len} queued)")?,
                },
            }
            writeln!(
                f,
                "    blocked since t={}; recent: [{}]",
                crate::time::format(e.blocked_since),
                e.recent.join(", ")
            )?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("pending_events", &(self.near.len() + self.far.len()))
            .field("actors", &self.actors.len())
            .field("live_actors", &self.live_actors)
            .field("resources", &self.resources.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_ordering_is_time_then_seq() {
        let mut k = Kernel::new();
        let c = [CompletionId(0), CompletionId(1), CompletionId(2)];
        k.push_event(10, EventKind::Complete(c[0]));
        k.push_event(5, EventKind::Complete(c[1]));
        k.push_event(5, EventKind::Complete(c[2]));
        assert_eq!(k.pop_event().unwrap().kind, EventKind::Complete(c[1]));
        assert_eq!(k.pop_event().unwrap().kind, EventKind::Complete(c[2]));
        assert_eq!(k.pop_event().unwrap().kind, EventKind::Complete(c[0]));
        assert!(k.pop_event().is_none());
    }

    #[test]
    fn fifo_resource_queues_back_to_back() {
        let mut k = Kernel::new();
        let r = k.new_resource("nic");
        assert_eq!(k.acquire_after(r, 0, 100), 100);
        assert_eq!(k.acquire_after(r, 0, 100), 200); // queued behind first
        assert_eq!(k.acquire_after(r, 500, 100), 600); // idle gap respected
        assert_eq!(k.resource_busy_total(r), 300);
        assert_eq!(k.resource_free_at(r), 600);
    }

    #[test]
    fn completion_state_machine() {
        let mut k = Kernel::new();
        let c = k.new_completion();
        assert!(!k.is_complete(c));
        k.fire_completion(c);
        assert!(k.is_complete(c));
        // firing twice is idempotent
        k.fire_completion(c);
        assert!(k.is_complete(c));
    }

    #[test]
    #[should_panic(expected = "barrier needs at least one party")]
    fn zero_party_barrier_rejected() {
        let mut k = Kernel::new();
        k.new_barrier(0);
    }

    #[test]
    fn near_bucket_preserves_global_order() {
        // A far event at time 5 pushed while now=0 must pop before bucket
        // events pushed at now=5 (it has the smaller sequence number), and
        // bucket events pop FIFO among themselves.
        let mut k = Kernel::new();
        let c: Vec<CompletionId> = (0..5).map(CompletionId).collect();
        k.push_event(5, EventKind::Complete(c[0])); // far, seq 0
        k.push_event(3, EventKind::Complete(c[1])); // far, seq 1
        let e = k.pop_event().unwrap();
        assert_eq!(e.kind, EventKind::Complete(c[1]));
        k.set_now(e.time);
        let e = k.pop_event().unwrap();
        assert_eq!(e.kind, EventKind::Complete(c[0]));
        k.set_now(e.time); // now = 5
        k.push_event(5, EventKind::Complete(c[2])); // bucket
        k.push_event(5, EventKind::Complete(c[3])); // bucket
        k.push_event(9, EventKind::Complete(c[4])); // far
        assert_eq!(k.pop_event().unwrap().kind, EventKind::Complete(c[2]));
        assert_eq!(k.pop_event().unwrap().kind, EventKind::Complete(c[3]));
        assert_eq!(k.pop_event().unwrap().kind, EventKind::Complete(c[4]));
        assert!(k.pop_event().is_none());
    }

    #[test]
    fn near_far_boundary_is_exact() {
        // The near window is zero-width: an event at exactly `now` lands in
        // the near bucket, one nanosecond later goes to the heap. Pinned at
        // the boundary and boundary+1 because the bucket's FIFO invariant
        // only holds for events *at* the current instant.
        let mut k = Kernel::new();
        let c: Vec<CompletionId> = (0..3).map(CompletionId).collect();
        k.push_event(7, EventKind::Complete(c[0]));
        let e = k.pop_event().unwrap();
        k.set_now(e.time); // now = 7
        let heap_before = k.heap_ops;
        k.push_event(7, EventKind::Complete(c[1])); // boundary: near
        assert_eq!(k.heap_ops, heap_before, "event at now must take the near bucket");
        assert_eq!((k.near.len(), k.far.len()), (1, 0));
        k.push_event(8, EventKind::Complete(c[2])); // boundary+1: far
        assert_eq!(k.heap_ops, heap_before + 1, "event at now+1 must take the far heap");
        assert_eq!((k.near.len(), k.far.len()), (1, 1));
    }

    #[test]
    fn bypass_eligibility_is_strict() {
        let mut k = Kernel::new();
        assert!(k.bypass_eligible(7), "empty queue: any future time is next");
        k.push_event(10, EventKind::Complete(CompletionId(0)));
        assert!(k.bypass_eligible(9));
        assert!(!k.bypass_eligible(10), "tie must go to the queued event");
        assert!(!k.bypass_eligible(11));
        k.set_fast_path(false);
        assert!(!k.bypass_eligible(9), "disabled fast path is never eligible");
    }

    #[test]
    fn bypass_resume_accounts_like_a_popped_event() {
        let mut k = Kernel::new();
        let tracer = std::sync::Arc::new(hupc_trace::Tracer::new(hupc_trace::TraceLevel::Full));
        k.set_tracer(Some(std::sync::Arc::clone(&tracer)));
        let exit = k.new_completion();
        k.actors.push(ActorMeta {
            name: "a".into(),
            status: ActorStatus::Running,
            exit,
            blocked_on: BlockKind::Start,
            wake_epoch: 3,
            timed_out: false,
            blocked_since: 0,
            recent: VecDeque::new(),
        });
        k.bypass_resume(0, 42);
        assert_eq!(k.now(), 42);
        assert_eq!(k.events_processed(), 1);
        assert_eq!(k.fast_path_hits, 1);
        assert_eq!(k.actors[0].wake_epoch, 4);
        assert_eq!(
            TraceEvent::log_of(&tracer),
            vec![TraceEvent { time: 42, seq: 0, kind: TraceKind::Wake(0) }]
        );
        // the consumed sequence number is gone: the next push gets seq 1
        k.push_event(50, EventKind::Complete(exit));
        assert_eq!(k.pop_event().unwrap().seq, 1);
    }
}
