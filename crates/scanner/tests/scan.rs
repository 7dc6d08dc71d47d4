//! End-to-end scanner tests over a tiny world.
//!
//! The thread-axis tests take extra counts from `RESOLVER_TEST_THREADS`
//! (a comma-separated list, the CI determinism matrix's hook).

use dns_wire::svcb::key;
use dns_wire::{DnsName, RData, Record, RecordType, SvcParam, SvcbRdata};
use ecosystem::{EcosystemConfig, World};
use scanner::{connectivity_probe, flags, hourly_ech_scan, Campaign, NsCategory, OrgId};
use std::collections::HashMap;

fn tiny_world() -> World {
    World::build(EcosystemConfig::tiny())
}

/// Thread counts to exercise: 1, 2 and 4, plus any counts named in the
/// `RESOLVER_TEST_THREADS` env var.
fn thread_axis() -> Vec<usize> {
    let mut axis = vec![1, 2, 4];
    if let Ok(extra) = std::env::var("RESOLVER_TEST_THREADS") {
        for n in extra.split(',').filter_map(|tok| tok.trim().parse::<usize>().ok()) {
            if n > 0 && !axis.contains(&n) {
                axis.push(n);
            }
        }
    }
    axis
}

/// Operator name → id for every org in the world's catalog, so scans
/// attribute NS operators.
fn org_ids(world: &World) -> HashMap<String, OrgId> {
    world
        .catalog
        .all()
        .iter()
        .enumerate()
        .map(|(i, infra)| (infra.spec.org.to_string(), OrgId(i as u32)))
        .collect()
}

#[test]
fn campaign_produces_consistent_snapshots() {
    let mut world = tiny_world();
    let campaign =
        Campaign { sample_days: vec![0, 10], scan_www: true, threads: 3, vantages: vec![] };
    let store = campaign.run(&mut world);
    assert_eq!(store.days(), vec![0, 10]);
    // Two observations (apex + www) per listed domain.
    assert_eq!(store.day(0).len(), world.config.list_size * 2);

    // Scanned HTTPS presence must agree with world ground truth.
    let day0 = store.day(0);
    let truth: HashMap<u32, bool> = world
        .domains
        .iter()
        .map(|d| (d.id, /* recompute day-0 truth is world at day 10 now */ true))
        .collect();
    assert!(!truth.is_empty());
    let positives = day0.iter().filter(|o| !o.is_www() && o.https()).count();
    let frac = positives as f64 / world.config.list_size as f64;
    assert!((0.08..0.40).contains(&frac), "adoption fraction {frac}");
}

#[test]
fn scanner_is_deterministic() {
    let run = || {
        let mut world = tiny_world();
        let campaign =
            Campaign { sample_days: vec![0, 5], scan_www: true, threads: 4, vantages: vec![] };
        campaign.run(&mut world).to_csv()
    };
    assert_eq!(run(), run());
}

#[test]
fn cloudflare_dominates_ns_categories() {
    let mut world = tiny_world();
    let campaign = Campaign { sample_days: vec![0], scan_www: false, threads: 2, vantages: vec![] };
    let store = campaign.run(&mut world);
    let mut full = 0usize;
    let mut other = 0usize;
    for o in store.day(0) {
        if !o.https() || o.is_www() {
            continue;
        }
        match NsCategory::from_u8(o.ns_category) {
            NsCategory::FullCloudflare => full += 1,
            _ => other += 1,
        }
    }
    assert!(full > 0);
    // Table 2: >99% of HTTPS adopters sit on full-Cloudflare NS; with a
    // tiny population we accept >85%.
    let share = full as f64 / (full + other) as f64;
    assert!(share > 0.85, "full-CF share {share}");
}

#[test]
fn cf_default_flag_set_for_default_configs() {
    let mut world = tiny_world();
    let campaign = Campaign { sample_days: vec![0], scan_www: false, threads: 2, vantages: vec![] };
    let store = campaign.run(&mut world);
    let default_count =
        store.day(0).iter().filter(|o| o.https() && o.has(flags::CF_DEFAULT)).count();
    let custom_count =
        store.day(0).iter().filter(|o| o.https() && !o.has(flags::CF_DEFAULT)).count();
    assert!(default_count > custom_count, "{default_count} vs {custom_count}");
}

#[test]
fn rrsig_and_ad_flags_appear() {
    let mut world = tiny_world();
    let campaign = Campaign { sample_days: vec![0], scan_www: false, threads: 2, vantages: vec![] };
    let store = campaign.run(&mut world);
    let signed = store.day(0).iter().filter(|o| o.https() && o.has(flags::RRSIG)).count();
    let validated =
        store.day(0).iter().filter(|o| o.https() && o.has(flags::RRSIG | flags::AD)).count();
    assert!(signed > 0, "some HTTPS RRsets must be signed");
    assert!(validated <= signed);
    assert!(validated < signed, "some signed records must fail validation (missing DS)");
}

/// The scanner reads a record's shape (`classify`) by a subset of RFC
/// 9460. Two client-side rules it does not apply: an AliasMode record
/// carrying SvcParams (§2.4.2), and a record whose `mandatory` list names
/// a key it lacks (§8). A scan counts either as an HTTPS record like any
/// other, not as a failure.
#[test]
fn rfc9460_client_rules_outside_classify_do_not_fail_a_record() {
    let mut world = tiny_world();
    let alpn = || SvcParam::Alpn(vec![b"h2".to_vec()]);
    let target = DnsName::parse("svc.example.net").unwrap();
    let alias_with_params = SvcbRdata { priority: 0, target, params: vec![alpn()] };
    let missing_mandatory =
        SvcbRdata::service_self(vec![SvcParam::Mandatory(vec![key::IPV6HINT]), alpn()]);
    let ids = world.today_list_shared().ranked()[..2].to_vec();
    for (&id, rdata) in ids.iter().zip([alias_with_params, missing_mandatory]) {
        assert_eq!(rdata.lint().len(), 1, "{rdata:?} breaks one rule");
        let apex = world.domain(id).apex.clone();
        let record = Record::new(apex.clone(), 300, RData::Https(rdata));
        for infra in world.catalog.all() {
            infra
                .zones
                .with_zone(&apex, |z| z.set(apex.clone(), RecordType::Https, vec![record.clone()]));
        }
    }
    let campaign = Campaign { sample_days: vec![0], scan_www: false, threads: 1, vantages: vec![] };
    let store = campaign.run(&mut world);
    let observed = |id: u32| *store.day(0).iter().find(|o| o.domain_id == id).unwrap();
    let (alias, service) = (observed(ids[0]), observed(ids[1]));
    for o in [alias, service] {
        assert!(o.https() && o.has(flags::ALPN_H2), "{o:?}");
        assert!(!o.has(flags::RESOLUTION_FAILED), "{o:?}");
    }
    assert!(alias.has(flags::ALIAS_MODE));
    assert!(!service.has(flags::ALIAS_MODE | flags::EMPTY_SVCPARAMS | flags::NO_ALPN));
}

#[test]
fn hourly_scan_observes_key_rotation() {
    let mut world = tiny_world();
    let obs = hourly_ech_scan(&mut world, 12, 10);
    assert!(!obs.is_empty(), "ECH domains must be observed");
    // Distinct configs within 12 hours: rotation is 1.1-1.4h, so expect
    // roughly 9-11 distinct configs.
    let configs: std::collections::HashSet<u64> = obs.iter().map(|o| o.config_hash).collect();
    assert!(configs.len() >= 6, "expected many rotations, saw {}", configs.len());
    // All domains share the same config at any one hour (one provider).
    let mut per_hour: HashMap<u32, std::collections::HashSet<u64>> = HashMap::new();
    for o in &obs {
        per_hour.entry(o.hour).or_default().insert(o.config_hash);
    }
    for (hour, set) in per_hour {
        assert!(set.len() <= 2, "hour {hour} saw {} configs", set.len());
    }
}

#[test]
fn connectivity_probe_finds_mismatches() {
    // The permanent-mismatch domains guarantee probe hits on the days
    // they publish, but (being toggling-class Cloudflare zones) they
    // flap; scan a two-week window instead of pinning one day so the
    // test is robust to renumber-stream changes.
    let mut world = tiny_world();
    let mut found = 0usize;
    for day in 0..=14 {
        world.step_to_day(day);
        let reports = connectivity_probe(&world);
        found += reports.len();
        for r in &reports {
            assert!(!r.hint_results.is_empty());
            assert!(!r.a_results.is_empty());
        }
    }
    assert!(found > 0, "no mismatch reports across the probe window");
}

#[test]
fn multi_vantage_stores_are_identical_across_thread_counts() {
    // Acceptance pin for the PR-2 determinism contract: a campaign over
    // >= 3 distinct vantage profiles (including a Random-strategy one)
    // produces byte-identical per-vantage stores for threads 1 and 4.
    use resolver::{SelectionStrategy, VantagePoint};
    use scanner::combined_csv;

    let run = |threads: usize| -> Vec<String> {
        let mut world = tiny_world();
        let campaign = Campaign {
            sample_days: vec![0, 3, 6, 9],
            scan_www: true,
            threads,
            vantages: VantagePoint::presets(),
        };
        campaign.run_vantages(&mut world).iter().map(|s| s.to_csv()).collect()
    };
    let single = run(1);
    let parallel = run(4);
    assert_eq!(single.len(), 3);
    for (a, b) in single.iter().zip(&parallel) {
        assert_eq!(a, b, "per-vantage store diverged between threads=1 and threads=4");
    }

    // The Random-strategy vantage is part of the matrix and reruns
    // byte-identically on its own too.
    let mut world = tiny_world();
    let campaign = Campaign {
        sample_days: vec![0, 3],
        scan_www: true,
        threads: 4,
        vantages: vec![VantagePoint::isp_resolver()],
    };
    assert_eq!(campaign.vantages[0].config().strategy, SelectionStrategy::Random);
    let store = campaign.run(&mut world);
    assert_eq!(store.vantage(), "isp");
    let mut world2 = tiny_world();
    assert_eq!(store.to_csv(), campaign.run(&mut world2).to_csv());

    // Combined export carries every vantage label.
    let mut world3 = tiny_world();
    let stores = Campaign {
        sample_days: vec![0],
        scan_www: false,
        threads: 2,
        vantages: VantagePoint::presets(),
    }
    .run_vantages(&mut world3);
    let csv = combined_csv(&stores);
    for v in ["google", "cloudflare", "isp"] {
        assert!(csv.contains(&format!("\n{v},")), "combined CSV missing vantage {v}");
    }
}

#[test]
fn event_backend_campaign_matches_pooled_byte_for_byte() {
    // The virtual-time tentpole's campaign-level equivalence pin: a
    // multi-vantage campaign over a network carrying the zero model runs
    // on the event loop and produces byte-identical SnapshotStores to the
    // pooled path over a network without a model.
    use resolver::VantagePoint;

    let run = |model: Option<netsim::LinkModel>| -> Vec<String> {
        let mut world = tiny_world();
        if let Some(model) = model {
            world.network.set_latency_model(model);
        }
        let campaign = Campaign {
            sample_days: vec![0, 3, 6],
            scan_www: true,
            threads: 4,
            vantages: VantagePoint::presets(),
        };
        campaign.run_vantages(&mut world).iter().map(|s| s.to_csv()).collect()
    };
    let pooled = run(None);
    let event = run(Some(netsim::LinkModel::zero()));
    assert_eq!(pooled.len(), 3);
    for (label, (p, e)) in ["google", "cloudflare", "isp"].iter().zip(pooled.iter().zip(&event)) {
        assert_eq!(p, e, "vantage {label} store diverged between backends");
    }
}

#[test]
fn lossy_event_campaign_is_thread_invariant_and_flags_timeouts() {
    // End-to-end through the latency model: mute one listed domain's NS
    // endpoints on a lossy 20 ms link, which puts the scan on the event
    // loop. The victim (and anything sharing its NS infrastructure)
    // surfaces as RESOLUTION_FAILED + RESOLUTION_TIMEOUT — the distinct
    // timeout shape `analysis` counts per vantage — and the store is
    // byte-identical for every thread setting.
    use resolver::{SelectionStrategy, VantagePoint};

    let run = |threads: usize| -> String {
        let mut world = tiny_world();
        let victim_id = world.today_list().ranked()[0];
        let victim_apex = world.domain(victim_id).apex.clone();
        let (_, endpoints) =
            world.registry.find_authority(&victim_apex).expect("victim is delegated");
        let mut model = netsim::LinkModel::new(0x10AD).with_rtt_ms(20).with_loss_permille(10);
        for ep in endpoints.iter() {
            model = model.with_lame_endpoint(ep.ip);
        }
        world.network.set_latency_model(model);
        let campaign = Campaign {
            sample_days: vec![0, 2],
            scan_www: false,
            threads,
            vantages: vec![VantagePoint::custom("lossy", SelectionStrategy::RoundRobin)],
        };
        let store = campaign.run(&mut world);
        let timed_out: Vec<_> =
            store.all().iter().filter(|o| o.has(flags::RESOLUTION_TIMEOUT)).collect();
        assert!(!timed_out.is_empty(), "the muted NS set must produce timeout observations");
        assert!(timed_out.iter().any(|o| o.domain_id == victim_id));
        for o in &timed_out {
            assert!(
                o.has(flags::RESOLUTION_FAILED),
                "RESOLUTION_TIMEOUT must imply RESOLUTION_FAILED"
            );
        }
        store.to_csv()
    };
    assert_eq!(run(1), run(8), "lossy event-loop store diverged across thread settings");
}

#[test]
fn presets_on_a_lossy_network_time_out_on_its_lame_endpoints() {
    // The network picks the batch path: the three presets, with no
    // per-vantage setting, scan a network whose lossy model makes the
    // top-ranked domain's NS endpoints lame. Every vantage resolves on
    // the event loop and records that domain as RESOLUTION_TIMEOUT with
    // RESOLUTION_FAILED; a pooled scan would ignore the model and
    // resolve it.
    use resolver::VantagePoint;

    let mut world = tiny_world();
    let victim_id = world.today_list().ranked()[0];
    let victim_apex = world.domain(victim_id).apex.clone();
    let (_, endpoints) = world.registry.find_authority(&victim_apex).expect("victim is delegated");
    let mut model = netsim::LinkModel::new(0x1A3E).with_rtt_ms(20).with_loss_permille(10);
    for ep in endpoints.iter() {
        model = model.with_lame_endpoint(ep.ip);
    }
    world.network.set_latency_model(model);
    let campaign = Campaign {
        sample_days: vec![0],
        scan_www: false,
        threads: 2,
        vantages: VantagePoint::presets(),
    };
    let stores = campaign.run_vantages(&mut world);
    assert_eq!(stores.len(), 3);
    for (v, store) in stores.iter().enumerate() {
        let victim: Vec<_> = store.all().iter().filter(|o| o.domain_id == victim_id).collect();
        assert!(!victim.is_empty(), "vantage {v} never observed the victim");
        for o in victim {
            assert!(o.has(flags::RESOLUTION_TIMEOUT), "vantage {v}: {o:?}");
            assert!(o.has(flags::RESOLUTION_FAILED), "vantage {v}: {o:?}");
        }
    }
}

#[test]
fn vantage_views_disagree_on_mixed_ns_zones() {
    // §4.2.3: with mixed-provider NS sets, whether a vantage sees the
    // HTTPS record depends on its NS selection strategy. A First-pinned
    // vantage and rotating/random vantages must disagree on at least one
    // mixed-NS domain across a few scan days.
    use resolver::VantagePoint;

    let mut world = tiny_world();
    let campaign = Campaign {
        sample_days: vec![0, 2, 4, 6],
        scan_www: false,
        threads: 2,
        vantages: VantagePoint::presets(),
    };
    let stores = campaign.run_vantages(&mut world);
    let mixed: std::collections::HashSet<u32> =
        world.domains.iter().filter(|d| d.secondary_provider.is_some()).map(|d| d.id).collect();
    assert!(!mixed.is_empty(), "tiny world guarantees mixed-NS domains");

    let mut disagreements = 0usize;
    for day in stores[0].days() {
        let per_vantage: Vec<HashMap<u32, bool>> = stores
            .iter()
            .map(|s| s.day(day).iter().map(|o| (o.domain_id, o.https())).collect())
            .collect();
        for (&id, &first_sees) in &per_vantage[0] {
            if per_vantage[1..].iter().any(|m| m.get(&id).copied() == Some(!first_sees)) {
                assert!(
                    mixed.contains(&id),
                    "cross-vantage disagreement on non-mixed domain {id} (day {day})"
                );
                disagreements += 1;
            }
        }
    }
    assert!(disagreements > 0, "expected at least one cross-vantage disagreement");
}

#[test]
fn telemetry_does_not_perturb_the_campaign() {
    // Acceptance pin for the telemetry subsystem: a 3-day multi-vantage
    // campaign with telemetry attached produces byte-identical
    // SnapshotStores to one without it — instrumentation observes,
    // never perturbs.
    use resolver::VantagePoint;

    let campaign = Campaign {
        sample_days: vec![0, 1, 2],
        scan_www: true,
        threads: 3,
        vantages: VantagePoint::presets(),
    };
    let mut plain_world = tiny_world();
    let plain: Vec<String> =
        campaign.run_vantages(&mut plain_world).iter().map(|s| s.to_csv()).collect();

    let mut instrumented_world = tiny_world();
    let runs = campaign.run_vantages_instrumented(&mut instrumented_world);
    let instrumented: Vec<String> = runs.iter().map(|r| r.store.to_csv()).collect();
    assert_eq!(plain, instrumented, "telemetry changed the dataset");

    for run in &runs {
        // Registries are labelled per vantage and carry the campaign's
        // deterministic counters and per-day series.
        assert_eq!(run.metrics.label(), run.store.vantage());
        assert_eq!(run.metrics.counter_value("scan.days"), 3);
        assert!(run.metrics.counter_value("engine.queries") > 0);
        assert!(run.metrics.counter_value("scan.day0002.lookups") > 0);
        // Three waves per day, three days.
        assert_eq!(run.metrics.counter_value("engine.batches"), 9);
        // Cache statistics flow out per shard and in aggregate.
        assert_eq!(run.shards.len(), resolver::DEFAULT_SHARDS);
        let summed = run.shards.iter().fold(resolver::CacheStats::default(), |mut acc, s| {
            acc.merge(*s);
            acc
        });
        assert_eq!(summed, run.cache, "per-shard stats must sum to the aggregate");
        assert!(run.cache.lookups() > 0 && run.cache.insertions > 0);
        let rate = run.resolution_hit_rate().expect("campaign performed lookups");
        assert!((0.0..=1.0).contains(&rate), "hit rate {rate} out of range");
    }

    // The presets' expected cache-behaviour split: at daily cadence the
    // validating vantages (google, cloudflare) re-serve DNSSEC material
    // from cache, while the non-validating isp profile never revisits a
    // cached key (batches dedup and the intra-day clock is frozen).
    let by_name: HashMap<&str, &scanner::VantageRun> =
        runs.iter().map(|r| (r.store.vantage(), r)).collect();
    assert!(by_name["google"].cache.hits > 0);
    assert!(by_name["cloudflare"].cache.hits > 0);
    assert!(
        by_name["isp"].cache.hits < by_name["google"].cache.hits,
        "the non-validating vantage must hit its cache less than a validating one"
    );

    // The instrumented campaign repeats byte-identically, counters
    // included (same world seed, same thread count).
    let mut world2 = tiny_world();
    let runs2 = campaign.run_vantages_instrumented(&mut world2);
    for (a, b) in runs.iter().zip(&runs2) {
        assert_eq!(a.metrics.counters_text(), b.metrics.counters_text());
    }
}

#[test]
fn one_pass_day_equals_each_vantage_scanning_alone() {
    // `scan_day` builds one target list and resolves each wave for every
    // vantage together. Each vantage's observations, cache statistics
    // and counters must equal what its own `scan_one_day` gives over a
    // twin world, day after day (caches and selector streams carry
    // over), at every thread count. In the mixed-NS world the vantages
    // disagree on HTTPS presence, so their wave-2 batches differ in
    // length.
    use resolver::{CacheStats, QueryEngine, VantagePoint};
    use scanner::{scan_day, scan_one_day};
    use std::sync::Arc;
    use telemetry::MetricsRegistry;

    let engines = |world: &World| -> Vec<(QueryEngine, Arc<MetricsRegistry>)> {
        VantagePoint::presets()
            .iter()
            .map(|v| {
                let metrics = Arc::new(MetricsRegistry::new(&v.name));
                let engine = v
                    .engine(world.network.clone(), world.registry.clone())
                    .with_metrics(metrics.clone());
                (engine, metrics)
            })
            .collect()
    };
    let mixed = EcosystemConfig { mixed_ns_domains: 24, ..EcosystemConfig::tiny() };
    for (config, is_mixed) in [(EcosystemConfig::tiny(), false), (mixed, true)] {
        for threads in thread_axis() {
            let mut joint_world = World::build(config.clone());
            let mut own_world = World::build(config.clone());
            let org_ids = org_ids(&joint_world);
            let (joint, own) = (engines(&joint_world), engines(&own_world));
            let scanners: Vec<&QueryEngine> = joint.iter().map(|(engine, _)| engine).collect();
            let mut wave2_lengths_differ = false;
            for day in [0, 3, 7] {
                joint_world.step_to_day(day);
                own_world.step_to_day(day);
                let wave2 = |v: usize| joint[v].1.counter_value("scan.wave2_followups.queries");
                let before: Vec<u64> = (0..joint.len()).map(wave2).collect();
                let together = scan_day(&joint_world, &scanners, &org_ids, true, threads);
                assert_eq!(together.len(), own.len());
                for (v, (engine, _)) in own.iter().enumerate() {
                    let alone = scan_one_day(&own_world, engine, &org_ids, true, threads);
                    assert_eq!(
                        together[v], alone,
                        "vantage {v} diverged on day {day} at threads={threads} (mixed: {is_mixed})"
                    );
                }
                let lengths: Vec<u64> = (0..joint.len()).map(|v| wave2(v) - before[v]).collect();
                wave2_lengths_differ |= lengths.iter().any(|&n| n != lengths[0]);
            }
            for ((a, a_metrics), (b, b_metrics)) in joint.iter().zip(&own) {
                // Contention is the one scheduling-dependent statistic.
                let stats = |e: &QueryEngine| CacheStats { lock_contended: 0, ..e.cache().stats() };
                assert_eq!(stats(a), stats(b), "{} at threads={threads}", a_metrics.label());
                assert_eq!(a_metrics.counters_text(), b_metrics.counters_text());
            }
            if is_mixed {
                assert!(wave2_lengths_differ, "the vantages' wave-2 batches never differed");
            }
        }
    }
}

#[test]
fn lossy_two_vantage_event_campaign_is_thread_invariant() {
    // On the event loop the shared virtual clock runs on through each
    // wave of every vantage in turn (wave 1 of both, then wave 2 of
    // both, …), so under a latency model the joint order is part of the
    // outcome. Over a lossy 20 ms link, two vantages on the loop must
    // produce the same stores, and leave the clock at the same instant,
    // at every thread setting.
    use resolver::{SelectionStrategy, VantagePoint};

    let run = |threads: usize| -> (Vec<String>, u64) {
        let mut world = tiny_world();
        let model = netsim::LinkModel::new(0x2A7E).with_rtt_ms(20).with_loss_permille(30);
        world.network.set_latency_model(model);
        let campaign = Campaign {
            sample_days: vec![0, 2],
            scan_www: true,
            threads,
            vantages: [
                ("rr", SelectionStrategy::RoundRobin),
                ("random", SelectionStrategy::Random),
            ]
            .into_iter()
            .map(|(name, strategy)| VantagePoint::custom(name, strategy))
            .collect(),
        };
        let stores = campaign.run_vantages(&mut world);
        let clock = world.network.clock().now_ms().0;
        (stores.iter().map(|s| s.to_csv()).collect(), clock)
    };
    let (stores, clock) = run(1);
    assert_eq!(stores.len(), 2);
    assert!(clock > 0, "a 20 ms link must move the virtual clock");
    for threads in thread_axis().into_iter().skip(1) {
        let (other_stores, other_clock) = run(threads);
        assert_eq!(other_stores, stores, "stores diverged at threads={threads}");
        assert_eq!(other_clock, clock, "virtual clock diverged at threads={threads}");
    }
}
