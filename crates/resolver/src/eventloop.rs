//! The virtual-time event-loop resolution backend.
//!
//! A batch runs here exactly when its engine's network carries a
//! [`LinkModel`](netsim::LinkModel). One worker thread drives every
//! in-flight query of the batch to completion as a per-query state
//! machine (a hand-rolled future): send → await reply or timeout
//! ([`ATTEMPT_TIMEOUT_MS`]) → retransmit ([`RETRANSMITS`] times) → fall
//! back to the next NS in the existing [`NsSelector`](crate::NsSelector)
//! order. Sends go through
//! [`Network::send_datagram_scheduled`](netsim::Network::send_datagram_scheduled), so each exchange is
//! a *scheduled delivery* in virtual milliseconds; the loop owns the one
//! timer queue (a `BinaryHeap` of `(delivery instant, sequence, task)`)
//! and advances the shared [`SimClock`](netsim::SimClock) monotonically
//! as it pops them. Since a task awaits one exchange at a time, the rest
//! of its state is one slot each: its suspended future, the reply parked
//! until its delivery instant, and the reply delivered to it. Nothing
//! here spawns a thread and nothing blocks: with a 20 ms RTT model,
//! thousands of queries overlap their waits and a 3600-query batch
//! finishes in a handful of virtual RTTs.
//!
//! ## Determinism and WorkerPool equivalence
//!
//! The loop is single-threaded over seeded draws, so a batch's results
//! *and* its virtual timeline (per-query completion instants, timeout/
//! retransmit counts) are a pure function of the seed — the `threads`
//! argument of `resolve_batch` is simply ignored. Equivalence with the
//! [`WorkerPool`](crate::pool::WorkerPool) backend on the zero-latency
//! model comes from **per-zone serialization**: queries are grouped by
//! authoritative zone apex (the same partition key the pool's
//! zone-affinity buckets use) and at most one query per zone is in
//! flight at a time, in batch input order. Each zone therefore consumes
//! its NS-selection state (round-robin counters, per-zone RNG streams)
//! in exactly the per-worker FIFO order the pool produces, so the two
//! backends return byte-identical results — pinned by the
//! `event_backend` determinism suite. Concurrency comes from the number
//! of *distinct zones* in flight, which is the scanner's natural shape
//! (one zone per scanned apex).
//!
//! The authority lookup and the reply check are the synchronous
//! backend's own ([`RecursiveResolver`]'s), so both classify every reply
//! with the same code.
//!
//! DNSSEC chain fetches (DNSKEY/DS) issued mid-validation use the
//! synchronous zero-latency network path, exactly as the `WorkerPool`
//! backend does — a documented simplification: the latency model shapes
//! the *measurement* queries (HTTPS/A/NS and CNAME chases), not the
//! validation walk.

use crate::engine::Query;
use crate::reply::AuthorityReply;
use crate::resolver::{
    check_reply, RecursiveResolver, Resolution, ResolveError, ATTEMPT_TIMEOUT_MS, MAX_CNAME_CHAIN,
    RETRANSMITS,
};
use dns_wire::{write_query, Edns};
use netsim::{NetError, ScheduledDelivery, TimeMs};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::{poll_fn, Future};
use std::net::IpAddr;
use std::ops::ControlFlow;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

/// Deterministic outcome counters for one event-loop batch: every field
/// is derived from seeded virtual-time outcomes, so all of them sit on
/// the byte-identical side of the telemetry determinism split.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EventLoopStats {
    /// Attempts that waited out the full timeout budget without a reply
    /// (lost exchanges plus replies that arrived past the deadline).
    pub timeouts: u64,
    /// Retransmissions sent after a timed-out attempt.
    pub retransmits: u64,
    /// Exchanges the link model dropped in flight.
    pub drops: u64,
    /// Fallbacks to a lower-preference NS endpoint.
    pub ns_fallbacks: u64,
}

/// Everything `drive` hands back to the engine.
pub(crate) struct DriveOutcome {
    /// One result per distinct query, in distinct (input) order.
    pub results: Vec<Result<Resolution, ResolveError>>,
    /// Per distinct query: virtual `(start, completion)` instants in ms.
    pub spans: Vec<(u64, u64)>,
    /// The batch's outcome counters.
    pub stats: EventLoopStats,
    /// Peak number of concurrently in-flight (suspended) queries.
    pub max_in_flight: usize,
    /// Virtual time when the batch started / when the last query finished.
    pub started_ms: u64,
    pub finished_ms: u64,
}

/// What an exchange hands its task: the reply's bytes, or why none came.
type Reply = Result<Vec<u8>, NetError>;

/// The loop's state outside the tasks' own futures. Every task awaits
/// one exchange at a time, so it has one slot in each per-task vector.
struct Slots {
    /// Scheduled deliveries, earliest first, as `(instant, sequence,
    /// task)`. The sequence makes simultaneous deliveries (everything,
    /// on the zero-latency model) fire in schedule order, which is what
    /// makes the zero-latency schedule a faithful replay of the
    /// synchronous backend.
    timers: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Deliveries scheduled so far: the next one's sequence number.
    scheduled: u64,
    /// Per task, the outcome of its exchange until its delivery instant.
    parked: Vec<Option<Reply>>,
    /// Per task, the outcome delivered and not yet taken.
    delivered: Vec<Option<Reply>>,
    stats: EventLoopStats,
}

/// What every task of a batch shares: the resolver and the loop's slots.
struct Loop<'a> {
    resolver: &'a RecursiveResolver,
    slots: RefCell<Slots>,
}

impl Loop<'_> {
    /// Send one datagram for `task` and await its reply. The fate is
    /// decided now (the network computes replies eagerly); what the wait
    /// models is *when* the task may look: a surviving reply at its
    /// delivery instant, anything else as a timeout at the deadline.
    async fn exchange(&self, task: usize, ip: IpAddr, wire: &[u8], attempt: u32) -> Reply {
        let network = self.resolver.network();
        let deadline = network.clock().now_ms().plus(ATTEMPT_TIMEOUT_MS);
        let (at, reply) = match network.send_datagram_scheduled(ip, 53, wire, attempt) {
            // Synchronous failure (unreachable/refused): ready at once,
            // zero virtual time — same as the sync path.
            ScheduledDelivery::Failed(e) => return Err(e),
            ScheduledDelivery::Reply { at, bytes } if at <= deadline => (at, Ok(bytes)),
            // The server answered, but slower than the attempt budget:
            // the reply is discarded and the attempt times out — how a
            // lame/slow authoritative looks from here.
            ScheduledDelivery::Reply { .. } => (deadline, Err(NetError::Timeout)),
            ScheduledDelivery::Dropped => {
                self.slots.borrow_mut().stats.drops += 1;
                (deadline, Err(NetError::Timeout))
            }
        };
        self.park(task, at, reply);
        poll_fn(|_| {
            self.slots.borrow_mut().delivered[task].take().map_or(Poll::Pending, Poll::Ready)
        })
        .await
    }

    /// Park `task`'s `reply` until its delivery instant `at`.
    fn park(&self, task: usize, at: TimeMs, reply: Reply) {
        let mut slots = self.slots.borrow_mut();
        let seq = slots.scheduled;
        slots.scheduled += 1;
        slots.timers.push(Reverse((at.0, seq, task)));
        slots.parked[task] = Some(reply);
    }

    /// The authoritative round of [`RecursiveResolver::query_authority`]
    /// in virtual time: the same lookup, selection and reply check, plus
    /// the timeout → retransmit → NS-fallback ladder that only exists
    /// here. On the zero-latency model no attempt can time out, so the
    /// observable exchange sequence is identical to the sync path.
    async fn query_authority(
        &self,
        task: usize,
        query: &Query,
    ) -> Result<AuthorityReply, ResolveError> {
        let (r, Query { name, rtype }) = (self.resolver, query);
        let (apex, endpoints) = r.authority(name)?;
        let order = r.selector().pick_order(&apex, &endpoints);
        let id = r.next_query_id();
        let mut wire = Vec::new();
        write_query(&mut wire, id, name, *rtype, Edns::dnssec());
        let mut last_err = ResolveError::Lame(apex.clone());
        let mut timed_out_total = 0u32;
        for (ep_index, ep) in order.enumerate() {
            if ep_index > 0 {
                self.slots.borrow_mut().stats.ns_fallbacks += 1;
            }
            let mut attempt = 0u32;
            loop {
                last_err = match self.exchange(task, ep.ip, &wire, attempt).await {
                    Ok(bytes) => match check_reply(&bytes, id, &apex, name, *rtype) {
                        Ok(resp) => return Ok(resp),
                        Err(e) => e,
                    },
                    Err(NetError::Timeout) => {
                        self.slots.borrow_mut().stats.timeouts += 1;
                        timed_out_total += 1;
                        if attempt < RETRANSMITS {
                            attempt += 1;
                            self.slots.borrow_mut().stats.retransmits += 1;
                            continue;
                        }
                        // Budget exhausted: fall back to the next NS.
                        ResolveError::Timeout { zone: apex.clone(), attempts: timed_out_total }
                    }
                    Err(e) => ResolveError::Network(e),
                };
                break;
            }
        }
        Err(last_err)
    }

    /// [`RecursiveResolver::resolve`] for `task`: cache lookups, CNAME
    /// chasing, negative caching, and the `finish`/validation step are
    /// the *same code* (synchronous methods on the resolver); only the
    /// authoritative round is awaited through the event loop.
    async fn resolve(&self, task: usize, query: &Query) -> Result<Resolution, ResolveError> {
        let r = self.resolver;
        let now = r.network().clock().now();
        let mut chain = Vec::new();
        let mut current = query.clone();
        let mut from_cache = true;

        for _ in 0..=MAX_CNAME_CHAIN {
            match r.cached_step(&mut chain, &current.name, current.rtype, from_cache, now) {
                ControlFlow::Break(resolution) => return Ok(resolution),
                ControlFlow::Continue(Some(target)) => {
                    current.name = target;
                    continue;
                }
                ControlFlow::Continue(None) => from_cache = false,
            }

            let resp = self.query_authority(task, &current).await?;
            match r.apply_reply(&resp, &mut chain, &current.name, current.rtype, now) {
                ControlFlow::Break(resolution) => return Ok(resolution),
                ControlFlow::Continue(target) => current.name = target,
            }
        }
        Err(ResolveError::ChainTooLong)
    }
}

/// Drive a batch of distinct queries to completion on the current
/// thread. `zone_index[i]` is the serialization group of `distinct[i]`
/// (its authoritative zone apex, interned to `0..zone_count` in
/// first-appearance order); at most one query per group is in flight.
pub(crate) fn drive(
    resolver: &RecursiveResolver,
    distinct: &[&Query],
    zone_index: &[usize],
    zone_count: usize,
) -> DriveOutcome {
    assert_eq!(distinct.len(), zone_index.len());
    let n = distinct.len();
    let clock = resolver.network().clock();
    let slots = Slots {
        timers: BinaryHeap::new(),
        scheduled: 0,
        parked: vec![None; n],
        delivered: vec![None; n],
        stats: EventLoopStats::default(),
    };
    let lp = Loop { resolver, slots: RefCell::new(slots) };
    // The loop itself knows which task each delivery unblocks, so
    // wakeups have nothing to do.
    let mut cx = Context::from_waker(Waker::noop());

    // Each zone's queries in input order, as a chain through `next`:
    // a finished task admits the next query of its zone.
    let (mut next, mut first) = (vec![None; n], vec![None; zone_count]);
    for task in (0..n).rev() {
        next[task] = first[zone_index[task]].replace(task);
    }
    let mut results = vec![None; n];
    let mut spans = vec![(0u64, 0u64); n];
    type TaskFuture<'l> = Pin<Box<dyn Future<Output = Result<Resolution, ResolveError>> + 'l>>;
    let mut tasks: Vec<Option<TaskFuture>> = (0..n).map(|_| None).collect();

    // Initial admission: the head query of every zone, in zone order
    // (zones are numbered by first appearance in the distinct list).
    let mut admit: VecDeque<usize> = first.into_iter().flatten().collect();
    let started_ms = clock.now_ms().0;
    let (mut in_flight, mut max_in_flight) = (0usize, 0usize);

    loop {
        // Run every unblocked task up to its first await; then fire the
        // next delivery and resume the task waiting on it.
        let (task, mut fut) = if let Some(task) = admit.pop_front() {
            spans[task].0 = clock.now_ms().0;
            let fut: TaskFuture = Box::pin(lp.resolve(task, distinct[task]));
            (task, fut)
        } else {
            let Some(Reverse((at, _, task))) = lp.slots.borrow_mut().timers.pop() else {
                break;
            };
            clock.set_ms(TimeMs(at));
            let slots = &mut *lp.slots.borrow_mut();
            slots.delivered[task] = slots.parked[task].take();
            in_flight -= 1;
            (task, tasks[task].take().expect("a delivery's task is suspended on it"))
        };
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(result) => {
                spans[task].1 = clock.now_ms().0;
                results[task] = Some(result);
                admit.extend(next[task]);
            }
            Poll::Pending => {
                tasks[task] = Some(fut);
                in_flight += 1;
                max_in_flight = max_in_flight.max(in_flight);
            }
        }
    }

    // The loop ends when nothing is left to admit and no delivery is
    // scheduled, so no task is suspended: every slot was admitted once
    // (each zone's chain drains into `admit`) and an admitted task
    // leaves only with its result.
    let stats = lp.slots.borrow().stats;
    DriveOutcome {
        results: results.into_iter().map(|r| r.expect("every query driven")).collect(),
        spans,
        stats,
        max_in_flight,
        started_ms,
        finished_ms: clock.now_ms().0,
    }
}
