//! Store synthesis for `analyze_store`: tile a few real scan days over
//! a long campaign so the analyses stream a store of realistic size
//! without paying for hundreds of scan days in every rep.
//!
//! A tiled day is a real day restamped and perturbed, so chunks are not
//! copies of each other and the passes that follow a domain across days
//! (intermittent records, hint-mismatch durations, flapping, the
//! cross-vantage diff) find something to follow. Every perturbation is
//! a stateless hash of `(seed, day, vantage, row)`: the same seed gives
//! a byte-identical store, in any order of generation.

use crate::trace::Tracer;
use httpsrr::scanner::{flags, Observation, SnapshotStore, StoreMeta, StoreWriter};
use std::io;
use std::path::Path;

/// Scan days in the synthesized campaign.
pub const TILE_DAYS: u64 = 48;
/// Days between them: weekly snapshots, so the 48 days span the
/// study's 329-day timeline and fall on both sides of every landmark
/// the analyses split on (h3-29 sunset, source change, ECH disable).
pub const TILE_STRIDE: u64 = 7;

/// Per mille of a day's domains dropped from the list.
const DROP_PERMILLE: u64 = 20;
/// Per mille of a vantage-day's rows whose HTTPS presence is flipped,
/// and (independently) whose hint-match bit is flipped.
const TOGGLE_PERMILLE: u64 = 10;

/// splitmix64's finalizer: a bijective 64-bit mixer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A uniform draw in `0..1000` for one decision about one row.
fn draw(seed: u64, day: u32, salt: u64, row: u64) -> u64 {
    mix(mix(seed ^ mix(((day as u64) << 8) | salt)) ^ row) % 1000
}

/// One tiled day for one vantage: `base` restamped to `day`, with
/// ~2 % of domains dropped (the same domains for every vantage, apex
/// and www rows together — the list is one per day) and ~1 % of rows
/// each toggling `HTTPS_PRESENT` and `HINT_MATCH` (independently per
/// vantage, so views disagree). Row order — `(domain, www)` — is kept.
pub fn tiled_day(base: &[Observation], seed: u64, day: u32, vantage: usize) -> Vec<Observation> {
    let salt = 1 + vantage as u64;
    base.iter()
        .filter(|o| draw(seed, day, 0, o.domain_id as u64) >= DROP_PERMILLE)
        .map(|o| {
            let row = ((o.domain_id as u64) << 1) | u64::from(o.is_www());
            let mut flags = o.flags;
            if draw(seed, day, salt, row) < TOGGLE_PERMILLE {
                flags ^= flags::HTTPS_PRESENT;
            }
            if draw(seed, day, salt | 0x80, row) < TOGGLE_PERMILLE {
                flags ^= flags::HINT_MATCH;
            }
            Observation { day, flags, ..*o }
        })
        .collect()
}

/// Tile `base` (one store per vantage, the same few days in each) over
/// [`TILE_DAYS`] weekly days into a fresh store at `dir`, through the
/// real chunk writer. Returns the rows written.
pub fn tile(
    base: &[SnapshotStore],
    world: &StoreMeta,
    seed: u64,
    dir: &Path,
    t: &mut Tracer,
) -> io::Result<u64> {
    let base_days = base.first().map(|s| s.days()).unwrap_or_default();
    if base_days.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "no scan days to tile"));
    }
    let meta = StoreMeta {
        sample_days: (0..TILE_DAYS).map(|i| i * TILE_STRIDE).collect(),
        ..world.clone()
    };
    let mut writer = t.span("scanner.StoreWriter::create", || StoreWriter::create(dir, meta))?;
    let mut rows = 0u64;
    for i in 0..TILE_DAYS {
        let day = (i * TILE_STRIDE) as u32;
        let from = base_days[i as usize % base_days.len()];
        for (vi, store) in base.iter().enumerate() {
            let obs = t.span("benchmark.tiled_day", || tiled_day(store.day(from), seed, day, vi));
            t.span("scanner.StoreWriter::append_chunk", || {
                writer.append_chunk(vi, day, &obs, &store.orgs)
            })?;
            rows += obs.len() as u64;
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::dir_digest;
    use httpsrr::scanner::OrgId;
    use std::path::PathBuf;

    fn base() -> (Vec<SnapshotStore>, StoreMeta) {
        let names = ["google", "cloudflare", "isp"];
        let stores = names
            .iter()
            .enumerate()
            .map(|(vi, name)| {
                let mut store = SnapshotStore::with_vantage(name);
                let org = store.orgs.intern("Cloudflare, Inc.");
                for day in 0..2u32 {
                    let mut obs = Vec::new();
                    for id in 0..400u32 {
                        for www in [0, flags::IS_WWW] {
                            let https = u32::from((id + day + vi as u32).is_multiple_of(3));
                            obs.push(Observation {
                                day,
                                domain_id: id,
                                rank: id + 1,
                                flags: www | https | (https * flags::HINT_MATCH),
                                ns_category: (id % 4) as u8,
                                org: if id % 5 == 0 { OrgId::NONE } else { org },
                                min_priority: 1,
                            });
                        }
                    }
                    store.push_day(day, obs);
                }
                store
            })
            .collect();
        let meta = StoreMeta {
            vantages: names.iter().map(|n| n.to_string()).collect(),
            sample_days: vec![0, 1],
            scan_www: true,
            world_seed: 1,
            population: 400,
            list_size: 400,
        };
        (stores, meta)
    }

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out/test-tmp")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn equal_seeds_tile_identical_stores_and_different_seeds_do_not() {
        let (stores, meta) = base();
        let mut t = Tracer::new(false);
        let mut digests = Vec::new();
        for (name, seed) in [("a", 7u64), ("b", 7), ("c", 8)] {
            let dir = fresh_dir(name);
            let rows = tile(&stores, &meta, seed, &dir, &mut t).unwrap();
            assert!(rows > 0);
            digests.push((dir_digest(&dir).unwrap(), rows));
            std::fs::remove_dir_all(&dir).unwrap();
        }
        assert_eq!(digests[0], digests[1]);
        assert_ne!(digests[0].0, digests[2].0);
    }

    #[test]
    fn tiled_days_are_perturbed_but_keep_order_and_pair_drops() {
        let (stores, _) = base();
        let src = stores[0].day(0);
        let a = tiled_day(src, 7, 14, 0);
        let b = tiled_day(src, 7, 14, 1);
        // ~2 % of 400 domains dropped, apex and www together, the same
        // domains for both vantages.
        assert!(a.len() < src.len() && a.len() > src.len() * 9 / 10);
        assert_eq!(a.len() % 2, 0);
        let ids = |rows: &[Observation]| rows.iter().map(|o| o.domain_id).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b));
        assert!(a
            .windows(2)
            .all(|w| { (w[0].domain_id, w[0].is_www()) < (w[1].domain_id, w[1].is_www()) }));
        assert!(a.iter().all(|o| o.day == 14));
        // Toggles differ between vantages and between days.
        assert_ne!(a, b);
        let flags = |rows: &[Observation]| rows.iter().map(|o| o.flags).collect::<Vec<_>>();
        assert_ne!(flags(&a), flags(&tiled_day(src, 7, 21, 0)));
    }
}
