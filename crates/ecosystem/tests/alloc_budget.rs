//! The heap a built world keeps live per population domain, counted
//! with a per-thread counting allocator: the census that ranks the
//! world's memory cuts, held here as ceilings no host can move.

#![allow(unsafe_code)]

// The census reads live bytes only, not the allocation counters.
#[allow(dead_code)]
#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::live_in;
use ecosystem::providers::well_known;
use ecosystem::{EcosystemConfig, World};
use std::sync::Arc;

/// Population of the census world; its list is half of it.
const POPULATION: usize = 2_000;

/// Heap blocks a built world keeps live per population domain. It
/// keeps 8.33 (16 660 over 2 000 domains) since the zones of one NS set
/// share one endpoint list, each domain's www name is built once (its
/// apex is that name's parent, in the same buffer) and every web server
/// shares one ALPN list; it kept 15.33 (30 654) before.
const BLOCKS_PER_DOMAIN: f64 = 8.33;

/// Heap bytes a built world keeps live per population domain: 1 719.9
/// (3 439 808 over 2 000 domains) since the network is one allocation,
/// so that a web server holds one `Weak` of it; 1 743.9 (3 487 832)
/// with three, 1 759.9 (3 519 832) while a web server kept its config
/// behind a lock, and 2 023.7 (4 047 348) before the shared lists and
/// names above.
const BYTES_PER_DOMAIN: f64 = 1_720.0;

fn census_config() -> EcosystemConfig {
    EcosystemConfig {
        population: POPULATION,
        list_size: POPULATION / 2,
        score_threads: 1,
        ..EcosystemConfig::default()
    }
}

#[test]
fn a_built_world_keeps_its_heap_per_domain_under_the_census_ceilings() {
    // A first build makes whatever the process keeps once (the root
    // name's buffer and the like), so the census counts only the world.
    drop(World::build(EcosystemConfig::tiny()));
    let ((blocks, bytes), world) = live_in(|| World::build(census_config()));
    assert_eq!(world.domains.len(), POPULATION);
    eprintln!("live after World::build: {blocks} blocks, {bytes} bytes");
    let (blocks, bytes) = (blocks as f64 / POPULATION as f64, bytes as f64 / POPULATION as f64);
    assert!(blocks <= BLOCKS_PER_DOMAIN, "{blocks:.2} blocks per domain");
    assert!(bytes <= BYTES_PER_DOMAIN, "{bytes:.1} bytes per domain");
}

#[test]
fn the_domains_of_one_provider_share_one_endpoint_list() {
    let world = World::build(EcosystemConfig::tiny());
    let delegated = |provider| {
        world
            .domains
            .iter()
            .filter(move |d| d.provider == provider && d.secondary_provider.is_none())
            .filter_map(|d| world.registry.endpoints_of(&d.apex))
    };
    for provider in [well_known::CLOUDFLARE, well_known::LEGACY] {
        let mut lists = delegated(provider);
        let first = lists.next().expect("the provider has delegated domains");
        assert!(lists.next().is_some(), "the provider has two delegated domains");
        assert!(delegated(provider).all(|list| Arc::ptr_eq(&list, &first)));
    }
    let cloudflare = delegated(well_known::CLOUDFLARE).next().unwrap();
    let legacy = delegated(well_known::LEGACY).next().unwrap();
    assert!(!Arc::ptr_eq(&cloudflare, &legacy), "each provider has its own list");
}

#[test]
fn every_www_name_is_its_apex_with_www_prepended() {
    let world = World::build(EcosystemConfig::tiny());
    for d in &world.domains {
        assert_eq!(d.www.to_string(), format!("www.{}", d.apex));
        assert_eq!(d.www.parent().as_ref(), Some(&d.apex));
    }
}
