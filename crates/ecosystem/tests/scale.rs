//! Scale contracts for the ecosystem layer: the parallel chunked
//! day-list scorer is byte-identical to the sequential reference for
//! every thread count, the golden pre-refactor fingerprints still hold,
//! the 100 k-population world allocates collision-free addresses, and
//! world stepping scores one list for the day it lands on and
//! materializes derived state once per call without the result depending
//! on how the days were grouped into calls (jump = walk, patch =
//! rebuild).
//!
//! CI runs the thread-sensitive tests under the same matrix as the
//! resolver determinism suite: set `RESOLVER_TEST_THREADS` to a
//! comma-separated list (e.g. `16,32`) to extend the default
//! `{1, 2, 4, 8}` axis.

use ecosystem::{EcosystemConfig, HttpsIntent, TrancoModel, World};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

/// Thread counts to exercise: the built-in axis plus any counts named in
/// the `RESOLVER_TEST_THREADS` env var (the CI matrix hook, shared with
/// the resolver's engine-batch determinism suite).
fn thread_axis() -> Vec<usize> {
    let mut axis = vec![1, 2, 4, 8];
    if let Ok(extra) = std::env::var("RESOLVER_TEST_THREADS") {
        for tok in extra.split(',') {
            if let Ok(n) = tok.trim().parse::<usize>() {
                if n > 0 && !axis.contains(&n) {
                    axis.push(n);
                }
            }
        }
    }
    axis
}

fn model(population: usize, list_size: usize) -> TrancoModel {
    TrancoModel::new(&EcosystemConfig { population, list_size, ..EcosystemConfig::tiny() })
}

#[test]
fn parallel_scoring_matches_reference_across_thread_axis() {
    // Population large enough that chunked scoring actually splits
    // (chunks are at least 4096 domains), list size well under it so the
    // partial selection path is exercised, days on both sides of the
    // source change.
    let model = model(20_000, 3_000);
    for day in [0u64, 42, 84, 85, 86, 120] {
        let reference = model.list_for_day_reference(day);
        for &threads in &thread_axis() {
            let parallel = model.list_for_day_with_threads(day, threads);
            assert_eq!(
                parallel.ranked(),
                reference.ranked(),
                "day {day} list diverged at {threads} scoring threads"
            );
        }
    }
}

#[test]
fn full_population_lists_match_reference() {
    // list_size == population: no selection happens, pure sort-order
    // equivalence (the integer-key sort vs the stable float sort).
    let model = model(5_000, 5_000);
    for day in [0u64, 85] {
        let reference = model.list_for_day_reference(day);
        for &threads in &thread_axis() {
            let parallel = model.list_for_day_with_threads(day, threads);
            assert_eq!(parallel.ranked(), reference.ranked(), "day {day}, {threads} threads");
        }
    }
}

/// FNV-1a over a ranked id vector — the same fingerprint the tranco
/// unit tests pin.
fn fingerprint(ids: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for id in ids {
        for b in id.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[test]
fn golden_fingerprints_hold_for_every_thread_count() {
    // The pre-refactor golden pins (captured from the full-sort,
    // fresh-RNG-per-domain implementation at population 500 / list 300)
    // must survive parallel chunked scoring and partial selection at
    // every thread count.
    let config = EcosystemConfig { population: 500, list_size: 300, ..EcosystemConfig::tiny() };
    let golden: [(u64, u64); 6] = [
        (0, 0x1ed108cb7d8fab6f),
        (42, 0xff40044098dbb273),
        (84, 0x8bd73a8aabd2105c),
        (85, 0x04dd210a08e87ef2),
        (86, 0xf7b1bf1c63efd87a),
        (120, 0x28ff4ff2240599b0),
    ];
    for &threads in &thread_axis() {
        let model = TrancoModel::new(&EcosystemConfig { score_threads: threads, ..config.clone() });
        for (day, expected) in golden {
            assert_eq!(
                fingerprint(model.list_for_day(day).ranked()),
                expected,
                "golden list for day {day} diverged at {threads} scoring threads"
            );
        }
    }
}

proptest! {
    /// Chunked/parallel scoring is a pure refactor of the sequential
    /// reference: byte-identical lists for arbitrary universe shapes,
    /// list sizes, days, and thread counts. The population range
    /// straddles the 2 × 4096-domain chunking threshold so a share of
    /// cases genuinely split across scoring threads (populations below
    /// it take the sequential branch whatever the thread count).
    #[test]
    fn parallel_scoring_equivalence(
        population in 1usize..12_000,
        list_pct in 5usize..100,
        day in 0u64..200,
        seed in 0u64..u64::MAX,
    ) {
        let list_size = (population * list_pct / 100).max(1);
        let model = TrancoModel::new(&EcosystemConfig {
            population,
            list_size,
            seed,
            ..EcosystemConfig::tiny()
        });
        let reference = model.list_for_day_reference(day);
        for &threads in &thread_axis() {
            let parallel = model.list_for_day_with_threads(day, threads);
            prop_assert_eq!(
                parallel.ranked(),
                reference.ranked(),
                "population {} list {} day {} threads {}",
                population, list_size, day, threads
            );
        }
    }
}

#[test]
fn stepping_scores_one_list_for_the_day_it_lands_on() {
    let mut world = World::build(EcosystemConfig::tiny());
    world.step_to_day(5);
    // A list is a derived view: stepping scores it for the day it lands
    // on, not for the four days it passed through (which nothing could
    // observe).
    assert_eq!(world.step_stats().day_lists, 1);
    assert_eq!(world.step_stats().days_applied, 5);
    assert_eq!(world.today_list().ranked(), world.tranco.list_for_day(5).ranked());
}

#[test]
fn stepped_worlds_are_deterministic() {
    // Dirty-set stepping must stay a pure function of the config: two
    // worlds stepped identically agree on every lifecycle field,
    // including the renumber-driven ones.
    let run = |day: u64| {
        let mut w = World::build(EcosystemConfig::tiny());
        w.step_to_day(day);
        w
    };
    let a = run(45);
    let b = run(45);
    for (x, y) in a.domains.iter().zip(&b.domains) {
        assert_eq!(x.ip, y.ip, "domain {}", x.id);
        assert_eq!(x.a_ip, y.a_ip, "domain {}", x.id);
        assert_eq!(x.hint_ip, y.hint_ip, "domain {}", x.id);
        assert_eq!(x.proxied, y.proxied, "domain {}", x.id);
        assert_eq!(x.provider, y.provider, "domain {}", x.id);
        assert_eq!(x.pending_a_sync, y.pending_a_sync, "domain {}", x.id);
        assert_eq!(x.pending_hint_sync, y.pending_hint_sync, "domain {}", x.id);
    }
}

#[test]
fn renumber_volume_tracks_configured_rates() {
    // The Poisson-sampled renumber schedule must preserve the configured
    // churn rates the old per-domain Bernoulli sweep implemented:
    // across the early window, daily renumber starts average close to
    // population × rate (and are not all zero / all population).
    let cfg = EcosystemConfig::tiny();
    let expected_daily = cfg.population as f64 * cfg.renumber_rate_early;
    let mut w = World::build(cfg);
    let mut starts = 0usize;
    let days = 40u64;
    for day in 1..=days {
        let before: Vec<_> = w.domains.iter().map(|d| d.ip).collect();
        w.step_to_day(day);
        starts += w.domains.iter().zip(&before).filter(|(d, old)| d.ip != **old).count();
    }
    let mean = starts as f64 / days as f64;
    assert!(
        mean > expected_daily * 0.3 && mean < expected_daily * 3.0,
        "daily renumber mean {mean} vs configured {expected_daily}"
    );
}

/// What a day-by-day walk did, re-derived from outside by diffing the
/// public `DomainState`s around each one-day step: an oracle for the
/// wake-ups `World::apply_day` must report, independent of its code.
#[derive(Default)]
struct WalkLog {
    /// Every domain some day of the walk left stale.
    stale: BTreeSet<u32>,
    /// Every address a domain's service ever lived at (live + retired).
    addresses: BTreeSet<Ipv4Addr>,
    toggle_days: Vec<u64>,
    migration_days: Vec<u64>,
    undelegation_days: Vec<u64>,
    renumber_days: Vec<u64>,
    a_sync_days: Vec<u64>,
    hint_sync_days: Vec<u64>,
}

/// Step `world` one day per call up to `to`, logging what happened.
fn walk(world: &mut World, to: u64, log: &mut WalkLog) {
    let lm = world.config.landmarks;
    log.addresses.extend(world.domains.iter().flat_map(|d| [d.ip, d.hint_ip]));
    for day in world.current_day + 1..=to {
        // The fields a day can change (the rest of a `DomainState` is
        // fixed at build).
        let before: Vec<_> = world
            .domains
            .iter()
            .map(|d| (d.proxied, d.provider, d.ip, d.pending_a_sync, d.pending_hint_sync))
            .collect();
        let configs = world.cf_ech.configs();
        world.step_to_day(day);
        // The key rotates every 1.1–1.4 h: every day is a rotated day.
        assert_ne!(configs, world.cf_ech.configs(), "no ECH rotation on day {day}");
        for (&(proxied, provider, ip, a_sync, hint_sync), a) in before.iter().zip(&world.domains) {
            let mut events = [
                (a.proxied != proxied && a.toggle_period.is_some(), Some(&mut log.toggle_days)),
                (a.provider != provider, Some(&mut log.migration_days)),
                (a.undelegate_day == Some(day), Some(&mut log.undelegation_days)),
                (a.ip != ip, Some(&mut log.renumber_days)),
                (a_sync == Some(day), Some(&mut log.a_sync_days)),
                (hint_sync == Some(day), Some(&mut log.hint_sync_days)),
                (a.adoption_day == Some(day), None),
                (lm.forces_cf_resync(day) && matches!(a.intent, HttpsIntent::CfProxied(_)), None),
                (a.ech_enabled && lm.ech_live(day), None),
            ];
            for (happened, days) in &mut events {
                if *happened {
                    log.stale.insert(a.id);
                    if let Some(days) = days {
                        days.push(day);
                    }
                }
            }
            if a.ip != ip {
                log.addresses.insert(a.ip);
            }
        }
    }
}

/// Everything a query can reach: per domain, its zone at every provider
/// (records, signed or not — absent where the provider does not serve
/// it) and its delegation.
fn published_view(world: &World) -> Vec<String> {
    world
        .domains
        .iter()
        .map(|d| {
            let mut view = format!("{:?}\n", world.registry.endpoints_of(&d.apex));
            for infra in world.catalog.all() {
                let zone = infra
                    .zones
                    .read_zone(&d.apex, |z| format!("signed={}\n{}", z.is_signed(), z.to_text()));
                if let Some(text) = zone {
                    view.push_str(&format!("@{}: {text}", infra.spec.org));
                }
            }
            view
        })
        .collect()
}

/// Two worlds are indistinguishable: state, published view, today's
/// list, and which addresses accept connections.
fn assert_same_world(walked: &World, jumped: &World, addresses: &BTreeSet<Ipv4Addr>) {
    let day = walked.current_day;
    assert_eq!(day, jumped.current_day);
    assert_eq!(walked.clock.now(), jumped.clock.now(), "day {day}");
    assert_eq!(walked.cf_ech.configs(), jumped.cf_ech.configs(), "day {day}");
    assert_eq!(walked.today_list().ranked(), jumped.today_list().ranked(), "day {day}");
    for (x, y) in walked.domains.iter().zip(&jumped.domains) {
        // Every field, including ones added later.
        assert_eq!(format!("{x:?}"), format!("{y:?}"), "day {day}");
        let ech = |w: &World| w.web_server_of(x.id).map(|s| s.current_ech_configs());
        assert_eq!(ech(walked), ech(jumped), "day {day}: web server keys of {}", x.apex);
    }
    for (x, y) in published_view(walked).iter().zip(&published_view(jumped)) {
        assert_eq!(x, y, "day {day}");
    }
    for &ip in addresses {
        for port in [443, 80] {
            assert_eq!(
                walked.network.can_connect(IpAddr::V4(ip), port).is_ok(),
                jumped.network.can_connect(IpAddr::V4(ip), port).is_ok(),
                "day {day}: {ip}:{port}"
            );
        }
    }
}

/// Stops on both sides of every landmark (h3-29 sunset 23, hint fix 42,
/// source change 85, ECH kill switch 150). Migrations are drawn from
/// days 82–246 and undelegations from days 164–328 (`tiny()`'s only one
/// falls on 328), hence the last stop one day past the study's end.
const JUMP_STOPS: [u64; 12] = [20, 23, 24, 42, 85, 100, 149, 150, 160, 230, 260, 329];

/// jump = walk and patch = rebuild for one config: a world stepped one
/// day per call and a world stepped stop to stop agree at every stop,
/// and re-syncing every domain of either from scratch changes nothing.
fn assert_stepping_is_grouping_invariant(config: EcosystemConfig) {
    let mut walked = World::build(config.clone());
    let mut jumped = World::build(config);
    let mut log = WalkLog::default();
    for stop in JUMP_STOPS {
        walk(&mut walked, stop, &mut log);
        jumped.step_to_day(stop);
        assert_same_world(&walked, &jumped, &log.addresses);
    }

    // The window must exercise every kind of transition on a day the
    // jumping world never stopped at, or the comparison proves nothing.
    let inside_a_jump = |days: &[u64]| days.iter().any(|d| !JUMP_STOPS.contains(d));
    assert!(inside_a_jump(&log.toggle_days), "no toggle inside a jump");
    assert!(inside_a_jump(&log.migration_days), "no migration inside a jump");
    assert!(inside_a_jump(&log.undelegation_days), "no undelegation inside a jump");
    assert!(inside_a_jump(&log.renumber_days), "no renumber inside a jump");
    assert!(inside_a_jump(&log.a_sync_days), "no A-record sync inside a jump");
    assert!(inside_a_jump(&log.hint_sync_days), "no hint sync inside a jump");
    assert!(
        log.addresses.iter().any(|&ip| walked.network.can_connect(IpAddr::V4(ip), 443).is_err()),
        "no retired address was ever unbound"
    );

    let jumps = jumped.step_stats();
    let walks = walked.step_stats();
    assert_eq!(jumps.days_applied, walks.days_applied);
    assert_eq!(jumps.day_lists, JUMP_STOPS.len() as u64);
    assert!(jumps.zones_rebuilt + jumps.https_patched < walks.zones_rebuilt + walks.https_patched);

    // patch = rebuild: the walked world's zones have been patched on
    // every rotation and landmark day; the jumped one's at every stop.
    for mut world in [walked, jumped] {
        let before = published_view(&world);
        for idx in 0..world.domains.len() {
            world.sync_domain(idx);
        }
        for (x, y) in before.iter().zip(&published_view(&world)) {
            assert_eq!(x, y, "a full re-sync changed a published zone");
        }
    }
}

#[test]
fn jumping_equals_walking_and_patching_equals_rebuilding() {
    assert_stepping_is_grouping_invariant(EcosystemConfig::tiny());
    assert_stepping_is_grouping_invariant(EcosystemConfig {
        population: 1_500,
        list_size: 600,
        ..EcosystemConfig::default()
    });
}

#[test]
fn step_stats_count_one_materialization_per_stale_domain() {
    let mut walked = World::build(EcosystemConfig::tiny());
    let mut log = WalkLog::default();
    walk(&mut walked, 28, &mut log);

    let mut world = World::build(EcosystemConfig::tiny());
    world.step_to_day(28);
    let stats = world.step_stats();
    assert_eq!(stats.days_applied, 28);
    assert_eq!(stats.day_lists, 1);
    // One rebuild or patch per domain any of the 28 days left stale …
    assert_eq!(stats.zones_rebuilt + stats.https_patched, log.stale.len() as u64);
    assert!(stats.zones_rebuilt > 0 && stats.https_patched > 0, "{stats:?}");
    // … not one per domain per day, as when every walked day synced.
    let ech_cohort = world.domains.iter().filter(|d| d.ech_enabled).count() as u64;
    assert!(stats.zones_rebuilt + stats.https_patched < 28 * ech_cohort);
    let per_day = walked.step_stats();
    assert!(per_day.zones_rebuilt + per_day.https_patched >= 22 * ech_cohort, "{per_day:?}");

    // Stepping to the current day is a no-op.
    let today = world.today_list_shared();
    let view = published_view(&world);
    world.step_to_day(28);
    assert_eq!(world.step_stats(), stats);
    assert!(Arc::ptr_eq(&today, &world.today_list_shared()));
    assert_eq!(view, published_view(&world));
}

/// Slow (≈1 min in debug): run with `--ignored`, as the CI scale job
/// does in release mode.
#[test]
#[ignore = "builds a 100k-population world; run with --ignored (CI scale job)"]
fn hundred_k_world_has_no_duplicate_addresses() {
    let mut world = World::build(EcosystemConfig {
        population: 100_000,
        list_size: 10_000,
        ..EcosystemConfig::default()
    });
    world.step_to_day(3);
    let mut seen = std::collections::HashSet::new();
    for d in &world.domains {
        assert!(seen.insert(d.ip), "duplicate live address {} (domain {})", d.ip, d.id);
        if d.permanent_mismatch {
            assert!(seen.insert(d.hint_ip), "duplicate hint address {}", d.hint_ip);
        }
    }
    assert!(seen.len() >= 100_000);
}

/// The jump = walk / patch = rebuild contract at Tranco scale.
#[test]
#[ignore = "builds two 100k-population worlds; run with --ignored (CI scale job)"]
fn hundred_k_jumping_equals_walking() {
    assert_stepping_is_grouping_invariant(EcosystemConfig {
        population: 100_000,
        list_size: 10_000,
        ..EcosystemConfig::default()
    });
}
