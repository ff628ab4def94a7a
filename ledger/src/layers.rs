//! Per-layer counts and the per-actor virtual-time split, derived from one
//! traced run's merged event stream.

use hupc::trace::{coll, park, Event, EventKind};

/// Actor id the engine emits completion events under.
const ENGINE: u32 = u32::MAX;

/// `AccessPath::Network`'s code in `PutCharge` / `GetCharge` payloads.
const PATH_NETWORK: u64 = 4;

/// Where one actor's virtual time went, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VtSplit {
    /// Parked on `advance` or resumed inline by the fast path: the actor's
    /// own modelled work.
    pub compute: u64,
    /// Parked on a resource (NIC, link, memory) or a completion.
    pub comm: u64,
    /// Parked on a barrier, condition or mutex, or not yet started.
    pub sync: u64,
}

impl VtSplit {
    pub fn total(&self) -> u64 {
        self.compute + self.comm + self.sync
    }

    /// `(compute, comm, sync)` shares of this actor's time; all zero for an
    /// actor that spent none.
    pub fn shares(&self) -> (f64, f64, f64) {
        let t = self.total();
        if t == 0 {
            return (0.0, 0.0, 0.0);
        }
        let t = t as f64;
        (
            self.compute as f64 / t,
            self.comm as f64 / t,
            self.sync as f64 / t,
        )
    }

    fn charge(&mut self, park_code: Option<u64>, dt: u64) {
        match park_code {
            Some(park::RESOURCE | park::COMPLETION) => self.comm += dt,
            Some(park::BARRIER | park::COND | park::MUTEX | park::START) => self.sync += dt,
            // Parked on `advance`, or running: virtual time only passes for
            // a running actor through its own charges that the fast path
            // resumed inline.
            _ => self.compute += dt,
        }
    }
}

/// One actor's virtual lifetime and its split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ActorTime {
    pub actor: u32,
    /// Times of the actor's first and last event, ns.
    pub first: u64,
    pub last: u64,
    pub split: VtSplit,
}

#[derive(Clone, Debug, Default)]
struct ActorState {
    first: u64,
    seen: bool,
    last: u64,
    parked: Option<u64>,
    split: VtSplit,
    coll_depth: u32,
    coll_since: u64,
    coll_ns: u64,
}

/// Counts and virtual-time shares of one traced run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layers {
    pub wakes: u64,
    pub bypasses: u64,
    pub actors: u64,
    pub puts: u64,
    pub gets: u64,
    pub bytes: u64,
    pub retries: u64,
    pub charges: u64,
    pub network_charges: u64,
    pub locks: u64,
    pub castable_locks: u64,
    pub coll_ops: u64,
    pub coll_ns: u64,
    pub steal_attempts: u64,
    pub steal_successes: u64,
    /// Per-actor split, in actor-id order (actors that emitted nothing are
    /// left out).
    pub per_actor: Vec<ActorTime>,
}

impl Layers {
    pub fn from_events(events: &[Event]) -> Layers {
        let mut l = Layers::default();
        let mut actors: Vec<ActorState> = Vec::new();
        for e in events {
            match e.kind {
                EventKind::Wake => l.wakes += 1,
                EventKind::FastPathBypass => l.bypasses += 1,
                EventKind::PutIssue => {
                    l.puts += 1;
                    l.bytes += e.b;
                }
                EventKind::GetIssue => {
                    l.gets += 1;
                    l.bytes += e.b;
                }
                EventKind::PutCharge | EventKind::GetCharge => {
                    l.charges += 1;
                    l.network_charges += u64::from(e.b == PATH_NETWORK);
                }
                EventKind::Retry => l.retries += 1,
                EventKind::LockAcquire => {
                    l.locks += 1;
                    l.castable_locks += u64::from(e.b == 1);
                }
                EventKind::StealAttempt => l.steal_attempts += 1,
                EventKind::StealSuccess => l.steal_successes += 1,
                _ => {}
            }
            if e.actor == ENGINE {
                continue;
            }
            let id = e.actor as usize;
            if id >= actors.len() {
                actors.resize(id + 1, ActorState::default());
            }
            let a = &mut actors[id];
            if a.seen {
                a.split.charge(a.parked, e.time - a.last);
            } else {
                // Until its first wake an actor is waiting to start.
                a.first = e.time;
                a.parked = Some(park::START);
            }
            a.seen = true;
            a.last = e.time;
            match e.kind {
                EventKind::Park => a.parked = Some(e.a),
                EventKind::Wake | EventKind::FastPathBypass => a.parked = None,
                EventKind::CollBegin => {
                    if a.coll_depth == 0 {
                        a.coll_since = e.time;
                        if coll::phase_of(e.a) == coll::PHASE_OP {
                            l.coll_ops += 1;
                        }
                    }
                    a.coll_depth += 1;
                }
                EventKind::CollEnd => {
                    a.coll_depth = a.coll_depth.saturating_sub(1);
                    if a.coll_depth == 0 {
                        a.coll_ns += e.time - a.coll_since;
                    }
                }
                _ => {}
            }
        }
        for (id, a) in actors.iter().enumerate().filter(|(_, a)| a.seen) {
            l.actors += 1;
            l.coll_ns += a.coll_ns;
            l.per_actor.push(ActorTime {
                actor: id as u32,
                first: a.first,
                last: a.last,
                split: a.split,
            });
        }
        l
    }

    pub fn events(&self) -> u64 {
        self.wakes + self.bypasses
    }

    /// The split summed over every actor.
    pub fn total_split(&self) -> VtSplit {
        self.per_actor
            .iter()
            .map(|a| a.split)
            .fold(VtSplit::default(), |acc, s| VtSplit {
                compute: acc.compute + s.compute,
                comm: acc.comm + s.comm,
                sync: acc.sync + s.sync,
            })
    }

    /// The largest per-actor sync share (the slowest actor's wait).
    pub fn sync_share_max(&self) -> f64 {
        self.per_actor
            .iter()
            .map(|a| a.split.shares().2)
            .fold(0.0, f64::max)
    }
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64, actor: u32, kind: EventKind, a: u64, b: u64) -> Event {
        Event {
            time,
            seq: 0,
            actor,
            kind,
            a,
            b,
        }
    }

    #[test]
    fn gaps_are_charged_to_the_park_reason_until_the_wake() {
        let events = [
            ev(0, 0, EventKind::Wake, 0, 0),
            ev(0, 0, EventKind::Park, park::ADVANCE, 0),
            ev(10, 0, EventKind::Wake, 1, 0),
            ev(10, 0, EventKind::Park, park::COMPLETION, 0),
            // Scheduled by another actor mid-park: still the park's time.
            ev(25, 0, EventKind::Schedule, 40, 0),
            ev(40, 0, EventKind::Wake, 2, 0),
            ev(45, 0, EventKind::FastPathBypass, 3, 0),
            ev(45, 0, EventKind::Park, park::BARRIER, 0),
            ev(60, 0, EventKind::Wake, 4, 0),
            ev(60, ENGINE, EventKind::Complete, 9, 0),
        ];
        let l = Layers::from_events(&events);
        assert_eq!(l.actors, 1);
        assert_eq!(
            l.per_actor[0].split,
            VtSplit {
                compute: 15,
                comm: 30,
                sync: 15
            }
        );
        assert_eq!(l.wakes, 4);
        assert_eq!(l.bypasses, 1);
    }

    #[test]
    fn gaps_without_a_park_are_compute_and_before_the_start_are_sync() {
        let events = [
            ev(0, 0, EventKind::Wake, 0, 0),
            ev(0, 0, EventKind::PutIssue, 1, 8),
            // Spawned at 5, first woken at 9.
            ev(5, 1, EventKind::Schedule, 9, 0),
            // Running since its wake, with no park in between: a charge
            // folded into the next kernel call.
            ev(7, 0, EventKind::PutCharge, 8, PATH_NETWORK),
            ev(7, 0, EventKind::Park, park::COMPLETION, 0),
            ev(9, 1, EventKind::Wake, 2, 0),
            ev(9, 1, EventKind::GetIssue, 3, 8),
            ev(12, 1, EventKind::Park, park::MUTEX, 0),
            ev(20, 0, EventKind::Wake, 4, 0),
            ev(20, 1, EventKind::Wake, 5, 0),
        ];
        let l = Layers::from_events(&events);
        assert_eq!(
            l.per_actor,
            [
                ActorTime {
                    actor: 0,
                    first: 0,
                    last: 20,
                    split: VtSplit {
                        compute: 7,
                        comm: 13,
                        sync: 0
                    }
                },
                ActorTime {
                    actor: 1,
                    first: 5,
                    last: 20,
                    split: VtSplit {
                        compute: 3,
                        comm: 0,
                        sync: 12
                    }
                },
            ]
        );
        assert_eq!((l.puts, l.gets, l.bytes), (1, 1, 16));
        assert_eq!(VtSplit::default().shares(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn only_outermost_collectives_count() {
        let whole = coll::tag(coll::ALLREDUCE, coll::ALGO_TWO_LEVEL);
        let stage = coll::phase_tag(coll::ALLREDUCE, coll::ALGO_TWO_LEVEL, coll::PHASE_INTRA);
        let events = [
            ev(0, 3, EventKind::CollBegin, whole, 8),
            ev(2, 3, EventKind::CollBegin, stage, 8),
            ev(5, 3, EventKind::CollEnd, stage, 0),
            ev(9, 3, EventKind::CollEnd, whole, 0),
            ev(12, 3, EventKind::PutCharge, 8, PATH_NETWORK),
            ev(12, 3, EventKind::GetCharge, 8, 2),
        ];
        let l = Layers::from_events(&events);
        assert_eq!(l.coll_ops, 1);
        assert_eq!(l.coll_ns, 9);
        assert_eq!(ratio(l.network_charges, l.charges), 0.5);
    }
}
