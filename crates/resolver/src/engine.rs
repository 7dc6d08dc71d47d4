//! The shared query engine: one resolution front-end for every consumer.
//!
//! The scanner, the browser testbed, and the benches all used to
//! hand-roll their own query loops against a [`RecursiveResolver`]. The
//! [`QueryEngine`] replaces those loops with one object that owns the
//! resolver (and through it the sharded [`RecordCache`]) and exposes
//! three paths:
//!
//! - [`QueryEngine::resolve`] — the existing single-query path,
//!   unchanged semantics;
//! - [`QueryEngine::resolve_batch`] — resolve many queries with a
//!   deterministic worker fan-out over the simulated network;
//! - [`QueryEngine::resolve_batches`] — one batch per engine for several
//!   engines at once (*Joint batches* below); `resolve_batch` is its
//!   one-engine case.
//!
//! The network picks how a batch runs: on the virtual-time event loop
//! ([`crate::eventloop`]) exactly when the engine's network carries a
//! [`LinkModel`](netsim::LinkModel), otherwise on the calling thread at
//! `threads` 1 and on the worker pool above that.
//!
//! ## The persistent worker pool
//!
//! Multi-threaded batches run on a [`WorkerPool`](crate::pool): `threads`
//! long-lived workers (with per-worker FIFO queues) that the engine
//! starts lazily on the first batch that needs them and then reuses for
//! every subsequent wave, day, and vantage. The previous implementation
//! spawned and joined scoped OS threads per batch, which cost 25–35% of
//! batch latency on a single-CPU host; a campaign pays the thread-spawn
//! tax at most once per engine now. Two supporting structures keep the
//! hot path allocation-light:
//!
//! - deduplication and partitioning borrow the input queries (no
//!   per-query key `String`s); the zone-affinity walk yields each
//!   name's delegated apex as a share of the name's own buffer;
//! - because pool workers outlive the batch (the workspace forbids the
//!   `unsafe` lifetime juggling scoped threads rely on), jobs must own
//!   their queries; a job's bucket holds clones, and cloning a [`Query`]
//!   is a reference count on its name's shared buffer.
//!
//! A panicking job is caught inside its worker's loop: the submitting
//! batch observes the dropped result channel and propagates the panic,
//! while the worker itself survives to serve the next batch — one
//! poisoned query cannot wedge a campaign.
//!
//! ## Batch semantics and the determinism contract
//!
//! `resolve_batch(queries, threads)` returns one result per input query,
//! **in input order**, and is deterministic in the following sense:
//!
//! 1. **Deduplication.** Queries are deduplicated on `(owner name,
//!    record type)` before the fan-out; each distinct query is resolved
//!    exactly once per batch and duplicate positions receive a clone of
//!    that single resolution (reference counts on the one answer RRset).
//!    Whether a duplicate "would have" hit the cache therefore does not
//!    depend on scheduling.
//! 2. **Zone-affinity assignment.** Distinct queries are assigned to
//!    pool workers by a stable hash of their authoritative zone apex
//!    (from the delegation registry), and each worker's FIFO queue
//!    resolves its queries in input order. There is no work stealing.
//!    All queries against one zone therefore resolve on one worker, in
//!    input order, and both
//!    stateful selection strategies keep their state **per zone**:
//!    [`SelectionStrategy::RoundRobin`](crate::SelectionStrategy) uses
//!    per-zone rotation counters, and
//!    [`SelectionStrategy::Random`](crate::SelectionStrategy) draws
//!    from a per-zone RNG seeded from `(seed, zone key)`. Each zone
//!    consumes its selection state in the same sequence for **every
//!    thread count**; this is what keeps the paper's §4.2.3
//!    mixed-provider flapping reproducible under a parallel scanner,
//!    including randomized-selection vantage points.
//! 3. **Time is frozen.** The simulated clock does not advance during a
//!    batch, so every query sees the same `now` and cache-expiry
//!    decisions are interleaving-independent. Cache entries written by
//!    concurrent workers for the same RRset are byte-identical, so
//!    last-writer-wins races cannot change any answer. The DNSKEY/DS
//!    sets of shared ancestors are checked and fetched under one
//!    per-resolver lock, so the cache's hit/miss statistics do not
//!    depend on the interleaving either.
//!
//! Under those rules a batch's results match a sequential resolution of
//! the same distinct queries, independent of thread count. The residual
//! caveat: a query whose resolution *crosses* zones (a CNAME chase, or
//! the DS/DNSKEY walk into an ancestor zone) can consume another
//! worker's zone selection state concurrently; this only matters when
//! that other zone's endpoints serve divergent data for the same name,
//! which does not occur in the modelled ecosystem (divergence is
//! confined to apex zones with mixed NS sets, and every query for an
//! apex zone shares a worker — shared ancestor zones serve identical
//! data from every endpoint, so pick order cannot change an answer).
//!
//! ## Joint batches
//!
//! `resolve_batches(engines, batches, threads)` resolves `batches[i]`
//! through `engines[i]` in one call: the shape of a multi-vantage scan
//! wave, where engines with their own resolvers and caches ask one
//! authority nearly the same questions. Each engine deduplicates its
//! own batch; then
//!
//! - when `threads` is 1 and no engine's network carries a latency
//!   model, the distinct queries resolve on the calling thread index by
//!   index across the engines — engine 0's i-th distinct query, then
//!   engine 1's i-th, and so on — so the registry entry and zone node
//!   one engine's query touches are still in the CPU cache when the next
//!   engine asks the same question;
//! - otherwise each engine's batch runs on its own, in engine order: on
//!   the event loop when its network carries a model, else on the pool.
//!
//! The engines stay independent: each one's results, cache contents,
//! selector streams, [`CacheStats`](crate::CacheStats) and counters are
//! what its own `resolve_batch` of the same batch gives. They share only
//! the RRSIGs the authorities sign on first use (the same bytes either
//! way) and the network's traffic counters. The pooled backend
//! reads the clock and never moves it, so interleaving cannot change a
//! pooled answer. The event loop does move the shared clock, so there
//! the engine order is part of the outcome: under a latency model each
//! engine's batch starts at the virtual instant the previous engine's
//! finished.
//!
//! ## Telemetry
//!
//! An engine can carry a [`telemetry::MetricsRegistry`]
//! ([`QueryEngine::with_metrics`]); resolution behaviour is identical
//! with or without one — instrumentation observes batch *outcomes*,
//! never steers them. Per the telemetry crate's determinism split:
//!
//! - **Counters** (`engine.queries`, `engine.distinct`,
//!   `engine.coalesced`, `engine.from_cache`, `engine.answers_*`,
//!   `engine.failures`, …) are derived from results, which the batch
//!   contract makes thread-count-invariant — so counter snapshots are
//!   byte-identical across thread counts (pinned in the determinism
//!   suite).
//! - **Histograms** (`engine.batch_us`, `engine.query_us`,
//!   `engine.queue_depth`, `engine.authority_datagrams`) are
//!   wall-clock/scheduling observations for perf work only.
//!   `engine.batch_us` times the whole call, so after a joint batch
//!   every participating engine records the same joint figure.

use crate::cache::{fnv1a_key, RecordCache};
use crate::eventloop::{self, EventLoopStats};
use crate::pool::WorkerPool;
use crate::resolver::{RecursiveResolver, Resolution, ResolveError, ResolverConfig};
use authserver::DelegationRegistry;
use dns_wire::{DnsName, NameBuildHasher, RecordType};
use netsim::Network;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use telemetry::MetricsRegistry;

/// One query in a batch: an owner name and a record type.
///
/// Equality and hashing fold ASCII case in the owner name (via
/// [`DnsName`]'s RFC 1035 semantics), so batch deduplication coalesces
/// `A.Example`/`a.example` without rendering key strings.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    /// Owner name to resolve.
    pub name: DnsName,
    /// Record type to resolve.
    pub rtype: RecordType,
}

impl Query {
    /// Construct a query.
    pub fn new(name: DnsName, rtype: RecordType) -> Query {
        Query { name, rtype }
    }
}

/// Virtual-time accounting for one event-loop batch (`None` from the
/// pooled backend, which does not run in virtual time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchTiming {
    /// Virtual ms when the batch started.
    pub started_ms: u64,
    /// Virtual ms when the last query completed.
    pub finished_ms: u64,
    /// Peak number of concurrently in-flight queries.
    pub max_in_flight: usize,
    /// Aggregated timeout/retransmit/drop/fallback counters.
    pub stats: EventLoopStats,
    /// Per input query: virtual `(start, completion)` instants in ms
    /// (duplicates share their distinct query's span).
    pub per_query_ms: Vec<(u64, u64)>,
}

/// The shared, batch-capable resolution engine.
pub struct QueryEngine {
    resolver: Arc<RecursiveResolver>,
    metrics: Option<Arc<MetricsRegistry>>,
    /// The persistent batch workers (module docs): empty until the first
    /// multi-threaded batch, then reused for the engine's lifetime. The
    /// lock is held only while growing the pool and enqueuing jobs —
    /// result collection happens outside it.
    pool: Mutex<WorkerPool>,
}

impl QueryEngine {
    /// Build an engine with its own resolver on `network`/`registry`.
    pub fn new(
        network: Network,
        registry: DelegationRegistry,
        config: ResolverConfig,
    ) -> QueryEngine {
        QueryEngine {
            resolver: Arc::new(RecursiveResolver::new(network, registry, config)),
            metrics: None,
            pool: Mutex::new(WorkerPool::new()),
        }
    }

    /// Number of live pool workers (0 until the first multi-threaded
    /// batch; grows to the largest thread count any batch has used).
    pub fn pool_size(&self) -> usize {
        self.pool.lock().size()
    }

    /// Attach a metrics registry (builder style). Resolution results are
    /// bit-identical with or without one; see the module docs.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> QueryEngine {
        self.metrics = Some(metrics);
        self
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// The resolver's sharded cache.
    pub fn cache(&self) -> &RecordCache {
        self.resolver.cache()
    }

    /// The simulated network handle.
    pub fn network(&self) -> &Network {
        self.resolver.network()
    }

    /// Resolve one query at the current simulated time.
    pub fn resolve(&self, name: &DnsName, rtype: RecordType) -> Result<Resolution, ResolveError> {
        self.resolver.resolve(name, rtype)
    }

    /// Resolve a batch of queries with `threads` workers, returning one
    /// result per query in input order. See the module docs for the
    /// determinism contract. When the engine's network carries a
    /// [`LinkModel`](netsim::LinkModel) the batch runs on the event loop
    /// and `threads` is ignored (one worker drives everything in virtual
    /// time and is thread-count invariant by construction).
    pub fn resolve_batch(
        &self,
        queries: &[Query],
        threads: usize,
    ) -> Vec<Result<Resolution, ResolveError>> {
        self.resolve_batch_timed(queries, threads).0
    }

    /// [`resolve_batch`](Self::resolve_batch), additionally returning
    /// the batch's virtual-time accounting when it ran on the event loop
    /// (`None` on a network without a latency model). The one-engine case of
    /// [`resolve_batches`](Self::resolve_batches).
    pub fn resolve_batch_timed(
        &self,
        queries: &[Query],
        threads: usize,
    ) -> (Vec<Result<Resolution, ResolveError>>, Option<BatchTiming>) {
        // One engine in, one result pair out: the default is never taken.
        resolve_jointly(&[self], &[queries], threads).pop().unwrap_or_default()
    }

    /// Resolve one batch per engine — `batches[i]` through `engines[i]`
    /// — returning each engine's results in its batch's input order.
    /// Every engine ends up where its own
    /// [`resolve_batch`](Self::resolve_batch) of the same batch would
    /// leave it: same results, cache contents, selector streams and
    /// counters (module docs, *Joint batches*). What changes is the
    /// order the work runs in: at `threads` 1, with no engine's network
    /// carrying a latency model, the engines' distinct queries resolve
    /// index by index across the engines.
    ///
    /// # Panics
    ///
    /// If `engines` and `batches` differ in length.
    pub fn resolve_batches(
        engines: &[&QueryEngine],
        batches: &[&[Query]],
        threads: usize,
    ) -> Vec<Vec<Result<Resolution, ResolveError>>> {
        resolve_jointly(engines, batches, threads).into_iter().map(|(results, _)| results).collect()
    }

    /// Record the deterministic counter class for one finished batch.
    /// Everything here is derived from the batch's *outcomes* — input
    /// size, dedup shape, and per-distinct-query results — all of which
    /// the determinism contract makes thread-count-invariant, so the
    /// registry's counter snapshot is too (pinned by the determinism
    /// suite).
    fn record_batch_outcomes(
        &self,
        metrics: &MetricsRegistry,
        inputs: usize,
        resolved: &[Option<Result<Resolution, ResolveError>>],
    ) {
        metrics.counter("engine.batches").inc();
        metrics.counter("engine.queries").add(inputs as u64);
        metrics.counter("engine.distinct").add(resolved.len() as u64);
        metrics.counter("engine.coalesced").add((inputs - resolved.len()) as u64);
        let (mut from_cache, mut positive, mut negative, mut failures) = (0u64, 0u64, 0u64, 0u64);
        for result in resolved.iter().flatten() {
            match result {
                Ok(res) => {
                    if res.from_cache {
                        from_cache += 1;
                    }
                    if res.is_positive() {
                        positive += 1;
                    } else {
                        negative += 1;
                    }
                }
                Err(_) => failures += 1,
            }
        }
        metrics.counter("engine.from_cache").add(from_cache);
        metrics.counter("engine.answers_positive").add(positive);
        metrics.counter("engine.answers_negative").add(negative);
        metrics.counter("engine.failures").add(failures);
    }
}

/// One engine's share of a joint batch's outcome: its results in input
/// order, and the event loop's virtual-time accounting.
type BatchOutcome = (Vec<Result<Resolution, ResolveError>>, Option<BatchTiming>);

/// The batch core behind [`QueryEngine::resolve_batch_timed`] and
/// [`QueryEngine::resolve_batches`]: deduplicate each engine's batch,
/// resolve the distinct queries (module docs, *Joint batches*), then
/// record each engine's figures and hand its results back out.
fn resolve_jointly(
    engines: &[&QueryEngine],
    batches: &[&[Query]],
    threads: usize,
) -> Vec<BatchOutcome> {
    assert_eq!(engines.len(), batches.len(), "one batch per engine");
    let start = engines.iter().any(|engine| engine.metrics.is_some()).then(Instant::now);
    let mut jobs: Vec<EngineBatch> = engines
        .iter()
        .zip(batches)
        .map(|(&engine, &queries)| EngineBatch::new(engine, queries))
        .collect();
    if threads <= 1 && !jobs.iter().any(EngineBatch::on_event_loop) {
        resolve_interleaved(&mut jobs);
    } else {
        // An empty batch does no work: no assignment maps, no thread
        // scaffolding.
        for job in jobs.iter_mut().filter(|job| !job.distinct.is_empty()) {
            match threads.clamp(1, job.distinct.len()) {
                _ if job.on_event_loop() => job.resolve_event_loop(),
                1 => resolve_interleaved(std::slice::from_mut(job)),
                workers => job.resolve_pooled(workers),
            }
        }
    }
    let elapsed = start.map(|start| start.elapsed());
    jobs.into_iter().map(|job| job.finish(elapsed)).collect()
}

/// Resolve every job's distinct queries on the calling thread, index by
/// index across the jobs: the first job's i-th distinct query, then the
/// second's i-th, and so on. With one job this is the plain sequential
/// loop.
fn resolve_interleaved(jobs: &mut [EngineBatch]) {
    for job in jobs.iter() {
        if let (Some(m), false) = (&job.engine.metrics, job.distinct.is_empty()) {
            m.histogram("engine.queue_depth").record(job.distinct.len() as u64);
        }
    }
    let longest = jobs.iter().map(|job| job.distinct.len()).max().unwrap_or(0);
    for i in 0..longest {
        for job in jobs.iter_mut() {
            let Some(&q) = job.distinct.get(i) else { continue };
            let before = job.datagrams_now();
            let result = timed_resolve(&job.engine.resolver, q, job.query_us.as_deref());
            job.count_datagrams_since(before);
            job.resolved[i] = Some(result);
        }
    }
}

/// One engine's share of a joint batch: its queries deduplicated, the
/// results of its distinct queries as they arrive, and the figures its
/// registry records once they are all in.
struct EngineBatch<'a> {
    engine: &'a QueryEngine,
    /// Input queries, duplicates included.
    inputs: usize,
    /// Distinct queries, in first-occurrence order.
    distinct: Vec<&'a Query>,
    /// Per input position, the index of its distinct query.
    positions: Vec<usize>,
    /// Per distinct query, its result once resolved.
    resolved: Vec<Option<Result<Resolution, ResolveError>>>,
    /// Virtual-time accounting, from the event-loop backend only.
    timing: Option<BatchTiming>,
    /// Datagrams this engine's queries sent (counted when instrumented).
    datagrams: u64,
    query_us: Option<Arc<telemetry::Histogram>>,
}

impl<'a> EngineBatch<'a> {
    /// Deduplicate `queries`, preserving first-occurrence order. The map
    /// borrows the input queries — `Query`'s case-folding `Hash`/`Eq`
    /// replaces the `(String, u16)` key this used to allocate per input.
    fn new(engine: &'a QueryEngine, queries: &'a [Query]) -> EngineBatch<'a> {
        let mut index_of: HashMap<&Query, usize, NameBuildHasher> =
            HashMap::with_capacity_and_hasher(queries.len(), NameBuildHasher::default());
        let mut distinct: Vec<&Query> = Vec::new();
        let mut positions: Vec<usize> = Vec::with_capacity(queries.len());
        for q in queries {
            let next = distinct.len();
            let idx = *index_of.entry(q).or_insert_with(|| {
                distinct.push(q);
                next
            });
            positions.push(idx);
        }
        EngineBatch {
            engine,
            inputs: queries.len(),
            resolved: vec![None; distinct.len()],
            distinct,
            positions,
            timing: None,
            datagrams: 0,
            // An empty batch registers no instrument.
            query_us: engine
                .metrics
                .as_ref()
                .filter(|_| !queries.is_empty())
                .map(|m| m.histogram("engine.query_us")),
        }
    }

    /// Whether this batch runs on the event loop: exactly when the
    /// engine's network carries a latency model.
    fn on_event_loop(&self) -> bool {
        self.engine.network().latency_model().is_some()
    }

    /// Datagrams sent on the engine's network so far, read only when
    /// the engine is instrumented: the figure feeds one histogram.
    fn datagrams_now(&self) -> Option<u64> {
        self.engine.metrics.as_ref().map(|_| self.engine.network().stats().datagrams_sent)
    }

    /// Add what was sent since `before`, a
    /// [`datagrams_now`](Self::datagrams_now) reading, to this engine's
    /// count.
    fn count_datagrams_since(&mut self, before: Option<u64>) {
        if let Some(before) = before {
            let now = self.engine.network().stats().datagrams_sent;
            self.datagrams += now.saturating_sub(before);
        }
    }

    /// Resolve the distinct queries on the virtual-time event loop.
    fn resolve_event_loop(&mut self) {
        let before = self.datagrams_now();
        let engine = self.engine;
        // Per-zone serialization groups: the same partition key the
        // pooled path buckets on (authoritative apex of each name),
        // interned to dense ids in first-appearance order.
        let registry = engine.resolver.registry();
        let mut zone_ids: HashMap<DnsName, usize, NameBuildHasher> = HashMap::default();
        let mut zone_index = Vec::with_capacity(self.distinct.len());
        for q in &self.distinct {
            let next = zone_ids.len();
            zone_index.push(*zone_ids.entry(partition_apex(registry, &q.name)).or_insert(next));
        }
        let outcome =
            eventloop::drive(&engine.resolver, &self.distinct, &zone_index, zone_ids.len());
        if let Some(m) = &engine.metrics {
            // All four counters and the virtual-time latency
            // histogram are outcome-derived (seeded virtual time),
            // so they live on the byte-identical side of the
            // determinism split alongside the batch counters.
            m.counter("engine.timeouts").add(outcome.stats.timeouts);
            m.counter("engine.retransmits").add(outcome.stats.retransmits);
            m.counter("engine.drops").add(outcome.stats.drops);
            m.counter("engine.ns_fallbacks").add(outcome.stats.ns_fallbacks);
            let vt = m.det_histogram("engine.vt_query_ms");
            for &(start, end) in &outcome.spans {
                vt.record(end - start);
            }
            m.histogram("engine.queue_depth").record(self.distinct.len() as u64);
        }
        self.timing = Some(BatchTiming {
            started_ms: outcome.started_ms,
            finished_ms: outcome.finished_ms,
            max_in_flight: outcome.max_in_flight,
            stats: outcome.stats,
            per_query_ms: self.positions.iter().map(|&i| outcome.spans[i]).collect(),
        });
        for (slot, result) in self.resolved.iter_mut().zip(outcome.results) {
            *slot = Some(result);
        }
        self.count_datagrams_since(before);
    }

    /// Resolve the distinct queries on the engine's worker pool with
    /// `threads` (at least two) workers.
    fn resolve_pooled(&mut self, threads: usize) {
        let before = self.datagrams_now();
        let engine = self.engine;
        // Zone-affinity partition: every query for one zone lands on
        // one worker (see the module docs). The apex shares the
        // query name's buffer and its dotted key is hashed as a
        // stream — no per-query key `String`. Pool jobs outlive the
        // borrow of the queries, so each work item owns a clone of its
        // query: a reference count on the name's buffer.
        let mut buckets: Vec<Vec<(usize, Query)>> = vec![Vec::new(); threads];
        let registry = engine.resolver.registry();
        for (i, q) in self.distinct.iter().enumerate() {
            let apex = partition_apex(registry, &q.name);
            let bucket = (fnv1a_key(b"", &apex) % threads as u64) as usize;
            buckets[bucket].push((i, (*q).clone()));
        }
        if let Some(m) = &engine.metrics {
            let depth = m.histogram("engine.queue_depth");
            for bucket in buckets.iter().filter(|bucket| !bucket.is_empty()) {
                depth.record(bucket.len() as u64);
            }
        }
        // Submit one job per non-empty bucket to its worker's FIFO
        // queue (empty hash-mod buckets get no job at all), then
        // collect chunks outside the pool lock. A worker that dies
        // mid-batch drops its result sender, which surfaces here as
        // a disconnect before every chunk arrived.
        let (results_tx, results_rx) =
            mpsc::channel::<Vec<(usize, Result<Resolution, ResolveError>)>>();
        let mut jobs = 0usize;
        {
            let mut pool = engine.pool.lock();
            pool.ensure(threads);
            for (worker, bucket) in buckets.into_iter().enumerate() {
                if bucket.is_empty() {
                    continue;
                }
                jobs += 1;
                let resolver = Arc::clone(&engine.resolver);
                let query_us = self.query_us.clone();
                let results = results_tx.clone();
                pool.submit(
                    worker,
                    Box::new(move || {
                        let mut chunk = Vec::with_capacity(bucket.len());
                        for (slot, q) in &bucket {
                            chunk.push((*slot, timed_resolve(&resolver, q, query_us.as_deref())));
                        }
                        let _ = results.send(chunk);
                    }),
                );
            }
        }
        drop(results_tx);
        for _ in 0..jobs {
            let chunk = results_rx.recv().unwrap_or_else(|_| panic!("batch worker panicked"));
            for (i, result) in chunk {
                self.resolved[i] = Some(result);
            }
        }
        self.count_datagrams_since(before);
    }

    /// Record this engine's batch figures (`elapsed` is the joint
    /// batch's wall time), then hand each resolution to its input
    /// positions, cloning only for true duplicates — a clone shares the
    /// answer RRset, it does not copy it. The common all-distinct batch
    /// moves its results out in place: no second buffer is resident
    /// while every engine of a joint batch holds its results. An empty
    /// batch records nothing.
    fn finish(self, elapsed: Option<Duration>) -> BatchOutcome {
        let EngineBatch { engine, inputs, positions, mut resolved, timing, datagrams, .. } = self;
        if let Some(metrics) = engine.metrics.as_ref().filter(|_| inputs > 0) {
            engine.record_batch_outcomes(metrics, inputs, &resolved);
            if let Some(elapsed) = elapsed {
                metrics.histogram("engine.batch_us").record_duration(elapsed);
            }
            // Counted around this engine's own queries: exact unless
            // another thread sends on the same network meanwhile.
            metrics.histogram("engine.authority_datagrams").record(datagrams);
        }
        // Every slot is filled before `finish`: the interleaved loop
        // visits each index of each job, the event loop hands back one
        // result per distinct query, and the pool puts every index in
        // one bucket, every non-empty bucket in one job and waits for
        // each job's chunk (a lost worker panics the batch in
        // `resolve_pooled` instead).
        let expect = |result: Option<_>| result.expect("every distinct query resolved");
        if positions.len() == resolved.len() {
            // No duplicates: input i is distinct query i.
            return (resolved.into_iter().map(expect).collect(), timing);
        }
        let mut remaining = vec![0usize; resolved.len()];
        for &idx in &positions {
            remaining[idx] += 1;
        }
        let results = positions
            .into_iter()
            .map(|idx| {
                remaining[idx] -= 1;
                let slot = &mut resolved[idx];
                expect(if remaining[idx] == 0 { slot.take() } else { slot.clone() })
            })
            .collect();
        (results, timing)
    }
}

/// The serialization group of a query name: the apex of its deepest
/// delegated zone, or the name itself where nothing is delegated.
fn partition_apex(registry: &DelegationRegistry, name: &DnsName) -> DnsName {
    registry.find_authority(name).map_or_else(|| name.clone(), |(apex, _)| apex)
}

/// Resolve one distinct query, recording its wall-clock latency when a
/// histogram is attached (the observational class: never compared for
/// determinism).
fn timed_resolve(
    resolver: &RecursiveResolver,
    q: &Query,
    latency: Option<&telemetry::Histogram>,
) -> Result<Resolution, ResolveError> {
    match latency {
        Some(hist) => {
            let start = Instant::now();
            let result = resolver.resolve(&q.name, q.rtype);
            hist.record_duration(start.elapsed());
            result
        }
        None => resolver.resolve(&q.name, q.rtype),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_eq_and_hash_fold_case() {
        // Dedup now keys maps on borrowed `&Query`, so the case-folding
        // the old `(String, u16)` key provided must live in `Eq`/`Hash`.
        let a = Query::new(DnsName::parse("A.Example").unwrap(), RecordType::Https);
        let b = Query::new(DnsName::parse("a.example").unwrap(), RecordType::Https);
        assert_eq!(a, b);
        let mut dedup: HashMap<&Query, usize, NameBuildHasher> = HashMap::default();
        dedup.insert(&a, 0);
        assert_eq!(dedup.get(&b), Some(&0));
        let c = Query::new(DnsName::parse("a.example").unwrap(), RecordType::A);
        assert_ne!(a, c);
        assert!(!dedup.contains_key(&c));
    }
}
