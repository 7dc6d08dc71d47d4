//! The virtual-time event-loop resolution backend.
//!
//! One worker thread drives every in-flight query of a batch to
//! completion as a per-query state machine (a hand-rolled future): send
//! → await reply or timeout → retransmit within the configured budget →
//! fall back to the next NS in the existing [`NsSelector`](crate::NsSelector)
//! order. Sends go through
//! [`Network::send_datagram_scheduled`](netsim::Network::send_datagram_scheduled), so each exchange is
//! a *scheduled delivery* in virtual milliseconds; the loop owns the one
//! timer queue (a `BinaryHeap` keyed by `(delivery instant, sequence)`)
//! and advances the shared [`SimClock`](netsim::SimClock) monotonically
//! as it pops events. Nothing here spawns a thread and nothing blocks:
//! with a 20 ms RTT model, thousands of queries overlap their waits and
//! a 3600-query batch finishes in a handful of virtual RTTs.
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
//! DNSSEC chain fetches (DNSKEY/DS) issued mid-validation use the
//! synchronous zero-latency network path, exactly as the `WorkerPool`
//! backend does — a documented simplification: the latency model shapes
//! the *measurement* queries (HTTPS/A/NS and CNAME chases), not the
//! validation walk.

use crate::engine::Query;
use crate::resolver::{AuthorityReply, RecursiveResolver, Resolution, ResolveError};
use dns_wire::{DnsName, Message, RData, Rcode, RecordType};
use netsim::{NetError, ScheduledDelivery, TimeMs};
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::future::Future;
use std::net::IpAddr;
use std::ops::ControlFlow;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

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

impl EventLoopStats {
    fn absorb(&mut self, other: &EventLoopStats) {
        self.timeouts += other.timeouts;
        self.retransmits += other.retransmits;
        self.drops += other.drops;
        self.ns_fallbacks += other.ns_fallbacks;
    }
}

/// Everything `drive` hands back to the engine.
pub(crate) struct DriveOutcome {
    /// One result per distinct query, in distinct (input) order.
    pub results: Vec<Result<Resolution, ResolveError>>,
    /// Per distinct query: virtual `(start, completion)` instants in ms.
    pub spans: Vec<(u64, u64)>,
    /// Aggregated outcome counters, summed in distinct-query order.
    pub stats: EventLoopStats,
    /// Peak number of concurrently in-flight (suspended) queries.
    pub max_in_flight: usize,
    /// Virtual time when the batch started / when the last query finished.
    pub started_ms: u64,
    pub finished_ms: u64,
}

/// A reply (or failure) parked until its delivery instant.
enum SlotState {
    Pending,
    Ready(Result<Vec<u8>, NetError>),
}

/// One scheduled delivery in the loop's timer queue. Ordering is by
/// `(delivery instant, schedule sequence)` only — the sequence number
/// makes simultaneous deliveries (everything, on the zero-latency
/// model) fire in schedule order, which is what makes the zero-latency
/// schedule a faithful replay of the synchronous backend.
struct Event {
    at: u64,
    seq: u64,
    task: usize,
    slot: Rc<RefCell<SlotState>>,
    payload: Result<Vec<u8>, NetError>,
}

impl PartialEq for Event {
    fn eq(&self, other: &Event) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Event) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Event) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Loop-shared state: the timer queue and its sequence counter.
struct Core {
    events: RefCell<BinaryHeap<Reverse<Event>>>,
    seq: Cell<u64>,
}

impl Core {
    fn push_event(
        &self,
        at: TimeMs,
        task: usize,
        slot: &Rc<RefCell<SlotState>>,
        payload: Result<Vec<u8>, NetError>,
    ) {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        self.events.borrow_mut().push(Reverse(Event {
            at: at.0,
            seq,
            task,
            slot: Rc::clone(slot),
            payload,
        }));
    }
}

/// The await point: resolves once the loop delivers the parked reply.
struct ExchangeFuture {
    slot: Rc<RefCell<SlotState>>,
}

impl Future for ExchangeFuture {
    type Output = Result<Vec<u8>, NetError>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut slot = self.slot.borrow_mut();
        match std::mem::replace(&mut *slot, SlotState::Pending) {
            SlotState::Ready(result) => Poll::Ready(result),
            SlotState::Pending => Poll::Pending,
        }
    }
}

/// Readiness is driver-managed (the loop knows exactly which task each
/// popped event unblocks), so wakeups have nothing to do.
struct NoopWake;
impl Wake for NoopWake {
    fn wake(self: Arc<Self>) {}
}

/// Per-task handle into the loop: schedules exchanges and records the
/// task's outcome counters.
struct TaskCtx {
    core: Rc<Core>,
    resolver: Arc<RecursiveResolver>,
    stats: Rc<RefCell<EventLoopStats>>,
    task: usize,
    attempt_timeout_ms: u64,
    retransmits: u32,
}

impl TaskCtx {
    /// Send one datagram and obtain the future of its reply. The fate is
    /// decided now (the network computes replies eagerly); what the
    /// future models is *when* the task may look: a surviving reply at
    /// its delivery instant, anything else as a timeout at the deadline.
    fn exchange(&self, ip: IpAddr, wire: &[u8], attempt: u32) -> ExchangeFuture {
        let network = self.resolver.network();
        let now = network.clock().now_ms();
        let deadline = now.plus(self.attempt_timeout_ms);
        let slot = Rc::new(RefCell::new(SlotState::Pending));
        match network.send_datagram_scheduled(ip, 53, wire, attempt) {
            ScheduledDelivery::Failed(e) => {
                // Synchronous failure (unreachable/refused): ready
                // immediately, zero virtual time — same as the sync path.
                *slot.borrow_mut() = SlotState::Ready(Err(e));
            }
            ScheduledDelivery::Reply { at, bytes } if at <= deadline => {
                self.core.push_event(at, self.task, &slot, Ok(bytes));
            }
            ScheduledDelivery::Reply { .. } => {
                // The server answered, but slower than the attempt
                // budget: the reply is discarded and the attempt times
                // out — how a lame/slow authoritative looks from here.
                self.core.push_event(deadline, self.task, &slot, Err(NetError::Timeout));
            }
            ScheduledDelivery::Dropped => {
                self.stats.borrow_mut().drops += 1;
                self.core.push_event(deadline, self.task, &slot, Err(NetError::Timeout));
            }
        }
        ExchangeFuture { slot }
    }
}

/// Async mirror of [`RecursiveResolver::query_authority`]: same
/// selection, same Refused/Malformed/network-error classification, plus
/// the timeout → retransmit → NS-fallback ladder that only exists in
/// virtual time. On the zero-latency model no attempt can time out, so
/// the observable exchange sequence is identical to the sync path.
async fn query_authority_async(
    ctx: &TaskCtx,
    name: &DnsName,
    rtype: RecordType,
) -> Result<AuthorityReply, ResolveError> {
    let r = &ctx.resolver;
    let (apex, endpoints) = r
        .registry()
        .find_authority(name)
        .filter(|(_, endpoints)| !endpoints.is_empty())
        .ok_or_else(|| ResolveError::NoAuthority(name.clone()))?;
    let order = r.selector().pick_order(&apex, &endpoints);
    let id = r.next_query_id();
    let wire = Message::query_dnssec(id, name.clone(), rtype).encode();
    let mut last_err = ResolveError::Lame(apex.clone());
    let mut timed_out_total = 0u32;
    for (ep_index, ep) in order.enumerate() {
        if ep_index > 0 {
            ctx.stats.borrow_mut().ns_fallbacks += 1;
        }
        let mut attempt = 0u32;
        loop {
            match ctx.exchange(ep.ip, &wire, attempt).await {
                Ok(bytes) => match AuthorityReply::parse(&bytes, id, name, rtype) {
                    Some(resp) if resp.rcode == Rcode::Refused => {
                        last_err = ResolveError::Lame(apex.clone());
                        break;
                    }
                    Some(resp) => return Ok(resp),
                    None => {
                        last_err = ResolveError::Malformed;
                        break;
                    }
                },
                Err(NetError::Timeout) => {
                    ctx.stats.borrow_mut().timeouts += 1;
                    timed_out_total += 1;
                    last_err =
                        ResolveError::Timeout { zone: apex.clone(), attempts: timed_out_total };
                    if attempt >= ctx.retransmits {
                        break; // budget exhausted: fall back to the next NS
                    }
                    attempt += 1;
                    ctx.stats.borrow_mut().retransmits += 1;
                }
                Err(e) => {
                    last_err = ResolveError::Network(e);
                    break;
                }
            }
        }
    }
    Err(last_err)
}

/// Async mirror of [`RecursiveResolver::resolve`]: cache lookups, CNAME
/// chasing, negative caching, and the `finish`/validation step are the
/// *same code* (synchronous methods on the resolver); only the
/// authoritative round is awaited through the event loop.
async fn resolve_async(
    ctx: TaskCtx,
    name: DnsName,
    rtype: RecordType,
) -> Result<Resolution, ResolveError> {
    use crate::cache::CachedAnswer;
    let r = Arc::clone(&ctx.resolver);
    let now = r.network().clock().now();
    let mut chain = Vec::new();
    let mut current = name;
    let mut from_cache = true;

    for _ in 0..=r.config().max_cname_chain {
        if let Some(ans) = r.cache().get(&current, rtype, now) {
            return Ok(r.finish(chain, ans, from_cache, now));
        }
        if rtype != RecordType::Cname {
            if let Some(CachedAnswer::Positive { records, .. }) =
                r.cache().get(&current, RecordType::Cname, now)
            {
                if let Some(rec) = records.first() {
                    if let RData::Cname(target) = &rec.rdata {
                        chain.push(rec.clone());
                        current = target.clone();
                        continue;
                    }
                }
            }
        }
        from_cache = false;

        let resp = query_authority_async(&ctx, &current, rtype).await?;
        match r.apply_reply(&resp, &mut chain, &current, rtype, now) {
            ControlFlow::Break(resolution) => return Ok(resolution),
            ControlFlow::Continue(target) => current = target,
        }
    }
    Err(ResolveError::ChainTooLong)
}

/// Drive a batch of distinct queries to completion on the current
/// thread. `zone_index[i]` is the serialization group of `distinct[i]`
/// (its authoritative zone apex, interned to `0..zone_count` in
/// first-appearance order); at most one query per group is in flight.
pub(crate) fn drive(
    resolver: &Arc<RecursiveResolver>,
    distinct: &[&Query],
    zone_index: &[usize],
    zone_count: usize,
) -> DriveOutcome {
    assert_eq!(distinct.len(), zone_index.len());
    let clock = resolver.network().clock().clone();
    let core = Rc::new(Core { events: RefCell::new(BinaryHeap::new()), seq: Cell::new(0) });
    let waker = Waker::from(Arc::new(NoopWake));
    let mut poll_cx = Context::from_waker(&waker);
    let attempt_timeout_ms = resolver.config().attempt_timeout_ms;
    let retransmits = resolver.config().retransmits;

    let n = distinct.len();
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); zone_count];
    for (slot, &zone) in zone_index.iter().enumerate() {
        queues[zone].push_back(slot);
    }

    let mut results: Vec<Option<Result<Resolution, ResolveError>>> = (0..n).map(|_| None).collect();
    let mut spans = vec![(0u64, 0u64); n];
    let mut stats_of: Vec<Option<Rc<RefCell<EventLoopStats>>>> = (0..n).map(|_| None).collect();
    type TaskFuture = Pin<Box<dyn Future<Output = Result<Resolution, ResolveError>>>>;
    let mut active: HashMap<usize, TaskFuture> = HashMap::new();

    // Initial admission: the head query of every zone, in zone order
    // (zones are numbered by first appearance in the distinct list).
    let mut admit: VecDeque<usize> = queues.iter_mut().filter_map(VecDeque::pop_front).collect();
    let started_ms = clock.now_ms().0;
    let mut max_in_flight = 0usize;

    while !admit.is_empty() || !active.is_empty() {
        // Admit and run every unblocked task up to its first await.
        while let Some(slot) = admit.pop_front() {
            let stats = Rc::new(RefCell::new(EventLoopStats::default()));
            stats_of[slot] = Some(Rc::clone(&stats));
            spans[slot].0 = clock.now_ms().0;
            let ctx = TaskCtx {
                core: Rc::clone(&core),
                resolver: Arc::clone(resolver),
                stats,
                task: slot,
                attempt_timeout_ms,
                retransmits,
            };
            let q = distinct[slot];
            let mut fut: TaskFuture = Box::pin(resolve_async(ctx, q.name.clone(), q.rtype));
            match fut.as_mut().poll(&mut poll_cx) {
                Poll::Ready(result) => {
                    spans[slot].1 = clock.now_ms().0;
                    results[slot] = Some(result);
                    if let Some(next) = queues[zone_index[slot]].pop_front() {
                        admit.push_back(next);
                    }
                }
                Poll::Pending => {
                    active.insert(slot, fut);
                    max_in_flight = max_in_flight.max(active.len());
                }
            }
        }
        if active.is_empty() {
            break;
        }
        // Fire the next delivery and resume the task waiting on it.
        let Reverse(event) =
            core.events.borrow_mut().pop().expect("suspended task without a scheduled event");
        clock.set_ms(TimeMs(event.at));
        *event.slot.borrow_mut() = SlotState::Ready(event.payload);
        let mut fut = active.remove(&event.task).expect("delivery for an unknown task");
        match fut.as_mut().poll(&mut poll_cx) {
            Poll::Ready(result) => {
                spans[event.task].1 = clock.now_ms().0;
                results[event.task] = Some(result);
                if let Some(next) = queues[zone_index[event.task]].pop_front() {
                    admit.push_back(next);
                }
            }
            Poll::Pending => {
                active.insert(event.task, fut);
            }
        }
    }

    let mut stats = EventLoopStats::default();
    for s in stats_of.iter().flatten() {
        stats.absorb(&s.borrow());
    }
    DriveOutcome {
        results: results.into_iter().map(|r| r.expect("every query driven")).collect(),
        spans,
        stats,
        max_in_flight,
        started_ms,
        finished_ms: clock.now_ms().0,
    }
}
