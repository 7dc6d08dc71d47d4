//! v2 block-codec and format-migration tests:
//!
//! 1. **Codec round-trips (property)** — every encoder the chooser can
//!    pick (raw / constant / RLE / delta-varint / dict-packed) survives
//!    encode → decode exactly, including empty, single-row, and
//!    adversarial high-cardinality blocks, and the chooser never emits
//!    a block larger than raw.
//! 2. **Golden v1 pin** — a committed fixture written by the frozen v1
//!    raw format (no build writes it any more) streams byte-identically
//!    through today's reader.
//! 3. **Compact** — `compact_store` rewrites the v1 fixture into exactly
//!    the bytes a native v2 write of the same rows produces, compacting
//!    a v2 store is a byte-for-byte no-op, and a compacted campaign
//!    store replays clean under resume (all days verified, nothing
//!    appended).

use proptest::prelude::*;
use scanner::persist::encoding::{choose_block, decode_block};
use scanner::persist::{StoreMeta, StoreWriter};
use scanner::{
    compact_store, open_store, Campaign, Observation, ObservationSource, OrgId, OrgInterner,
    ScanFilter,
};
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "httpsrr-encoding-test-{}-{tag}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Encode with the chooser, decode, and require an exact round-trip plus
/// the "never worse than raw" size bound.
fn round_trip(values: &[u64], width: usize) -> u8 {
    let (tag, data) = choose_block(values, width);
    assert!(
        values.is_empty() || data.len() <= values.len() * width,
        "chosen block ({} bytes, tag {tag}) beats raw ({} bytes) the wrong way",
        data.len(),
        values.len() * width
    );
    let mut out = Vec::new();
    decode_block(tag, &data, values.len(), width, &mut out).expect("decode chosen block");
    assert_eq!(out, values, "round-trip mismatch for tag {tag} width {width}");
    tag
}

proptest! {
    /// Arbitrary values within each column width round-trip, whatever
    /// encoder the chooser picks.
    #[test]
    fn any_block_round_trips(
        width in (0usize..4).prop_map(|i| [1usize, 2, 4, 8][i]),
        values in proptest::collection::vec(any::<u64>(), 0..300),
    ) {
        let max = if width == 8 { u64::MAX } else { (1u64 << (8 * width)) - 1 };
        let values: Vec<u64> = values.into_iter().map(|v| v & max).collect();
        round_trip(&values, width);
    }

    /// Constant blocks collapse to the constant encoding.
    #[test]
    fn constant_blocks_round_trip(value in 0u64..u32::MAX as u64, rows in 2usize..400) {
        let values = vec![value; rows];
        let tag = round_trip(&values, 4);
        prop_assert_eq!(tag, 1, "constant column must pick the constant codec");
    }

    /// Run-structured data (sorted ids, flag runs) round-trips through
    /// RLE or delta-varint — never raw.
    #[test]
    fn run_structured_blocks_round_trip(
        runs in proptest::collection::vec((0u64..50, 1usize..40), 1..20),
    ) {
        let values: Vec<u64> =
            runs.iter().flat_map(|&(v, n)| std::iter::repeat_n(v, n)).collect();
        if values.len() > 4 {
            let tag = round_trip(&values, 4);
            prop_assert_ne!(tag, 0, "runs of {} values must compress", values.len());
        }
    }

    /// Small-alphabet columns (flags/ns_category/org in practice)
    /// round-trip through the dictionary codec.
    #[test]
    fn small_alphabet_blocks_round_trip(
        picks in proptest::collection::vec(0usize..7, 64..500),
    ) {
        let alphabet = [3u64, 17, 0x1000_0001, 99, 7, 0xdead_beef, 42];
        let values: Vec<u64> = picks.iter().map(|&i| alphabet[i]).collect();
        round_trip(&values, 4);
    }

    /// Adversarial high-cardinality blocks (every value distinct and
    /// far apart) still round-trip; the chooser may fall back to raw.
    #[test]
    fn high_cardinality_blocks_round_trip(seed in any::<u64>(), rows in 1usize..300) {
        let mut state = seed | 1;
        let values: Vec<u64> = (0..rows)
            .map(|_| {
                state = state.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(0x14057b7e);
                state
            })
            .collect();
        round_trip(&values, 8);
    }

    /// Empty and single-row blocks are valid for every width.
    #[test]
    fn empty_and_single_row_blocks(width in (0usize..4).prop_map(|i| [1usize, 2, 4, 8][i]), v in any::<u64>()) {
        let max = if width == 8 { u64::MAX } else { (1u64 << (8 * width)) - 1 };
        round_trip(&[], width);
        round_trip(&[v & max], width);
    }
}

// ---------------------------------------------------------------------
// Golden v1 fixture: committed bytes written by the raw v1 format.

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_v1_store")
}

const GOLDEN_DAYS: [u32; 3] = [0, 3, 7];
const GOLDEN_VANTAGES: [&str; 2] = ["golden-a", "golden-b"];

fn golden_meta() -> StoreMeta {
    StoreMeta {
        vantages: GOLDEN_VANTAGES.iter().map(|v| v.to_string()).collect(),
        sample_days: GOLDEN_DAYS.iter().map(|&d| u64::from(d)).collect(),
        scan_www: true,
        world_seed: 42,
        population: 60,
        list_size: 30,
    }
}

/// Deterministic pseudo-campaign rows exercising every column: repeated
/// days, near-sorted ids/ranks, small flag/category/org alphabets.
fn golden_rows(day: u32, vantage: usize) -> Vec<Observation> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (u64::from(day) << 8) ^ vantage as u64;
    let mut next = || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    (0..60u32)
        .map(|i| {
            let r = next();
            Observation {
                day,
                domain_id: i / 2,
                rank: i / 2 + 1,
                flags: (r & 0x3ff) as u32,
                ns_category: (r >> 10 & 3) as u8,
                org: if r >> 12 & 7 == 0 { OrgId::NONE } else { OrgId((r >> 15 & 3) as u32) },
                min_priority: (r >> 18 & 7) as u16,
            }
        })
        .collect()
}

/// The golden rows written natively, as this build writes every store.
fn write_golden_v2(dir: &Path) {
    let mut orgs = OrgInterner::default();
    for name in ["Cloudflare, Inc.", "GoDaddy.com, LLC", "Google LLC", "NSOne, Inc."] {
        orgs.intern(name);
    }
    let mut w = StoreWriter::create(dir, golden_meta()).expect("create");
    for &day in &GOLDEN_DAYS {
        for vi in 0..GOLDEN_VANTAGES.len() {
            w.append_chunk(vi, day, &golden_rows(day, vi), &orgs).expect("append");
        }
    }
}

const STORE_FILES: [&str; 4] = ["MANIFEST", "orgs.dict", "v00.col", "v01.col"];

/// Every file of a store, in [`STORE_FILES`] order.
fn store_bytes(dir: &Path) -> Vec<Vec<u8>> {
    STORE_FILES.iter().map(|name| std::fs::read(dir.join(name)).expect("store file")).collect()
}

/// The committed v1 store opens, carries v1 headers/chunks on disk, and
/// streams the exact observation sequence it was written from.
#[test]
fn golden_v1_store_streams_byte_identically() {
    let dir = fixture_dir();
    let col = std::fs::read(dir.join("v00.col")).expect("committed fixture present");
    assert_eq!(&col[..8], b"SNAPCOL1");
    assert_eq!(u16::from_le_bytes([col[8], col[9]]), 1, "fixture file header must be v1");
    let header_end = 12 + GOLDEN_VANTAGES[0].len();
    assert_eq!(&col[header_end..header_end + 4], b"CHNK", "fixture chunks must be raw v1");

    let open = open_store(&dir).expect("golden fixture opens");
    assert_eq!(open.meta, golden_meta());
    for (vi, reader) in open.readers.iter().enumerate() {
        assert_eq!(reader.vantage(), GOLDEN_VANTAGES[vi]);
        assert_eq!(ObservationSource::days(reader), GOLDEN_DAYS.to_vec());
        let mut streamed = Vec::new();
        reader.for_each_day_filtered(ScanFilter::all(), &mut |_, obs| {
            streamed.extend_from_slice(obs)
        });
        let expect: Vec<Observation> =
            GOLDEN_DAYS.iter().flat_map(|&d| golden_rows(d, vi)).collect();
        assert_eq!(streamed, expect, "vantage {vi} stream diverged from the fixture source");
    }
}

// ---------------------------------------------------------------------
// Compact: v1 → v2 rewrite preserves the stream and replays under resume.

#[test]
fn compact_then_stream_is_byte_identical_to_original() {
    let dir = scratch("compact-stream");
    std::fs::create_dir_all(&dir).expect("mkdir");
    for name in STORE_FILES {
        std::fs::copy(fixture_dir().join(name), dir.join(name)).expect("copy fixture");
    }

    let streamed = |dir: &Path| {
        let open = open_store(dir).expect("open");
        let mut out = Vec::new();
        scanner::write_combined_csv(&open.sources(), &mut out).expect("csv");
        String::from_utf8(out).expect("utf8")
    };
    let before = streamed(&dir);
    let report = compact_store(&dir).expect("compact");
    assert_eq!(report.vantages, GOLDEN_VANTAGES.len());
    assert_eq!(report.rows, (GOLDEN_DAYS.len() * GOLDEN_VANTAGES.len() * 60) as u64);
    assert_eq!(streamed(&dir), before, "compact changed the observation stream");

    // v1 → v2 conversion is a native v2 write of the same rows…
    let native = scratch("compact-native");
    write_golden_v2(&native);
    let compacted = store_bytes(&dir);
    for (name, (got, want)) in STORE_FILES.iter().zip(compacted.iter().zip(store_bytes(&native))) {
        assert_eq!(*got, want, "compacted fixture differs from a native v2 write ({name})");
    }
    // …and compacting a v2 store changes no byte.
    compact_store(&dir).expect("compact v2");
    assert_eq!(store_bytes(&dir), compacted, "compacting a v2 store rewrote it");
    std::fs::remove_dir_all(&dir).expect("cleanup");
    std::fs::remove_dir_all(&native).expect("cleanup");
}

/// A compacted campaign store must replay clean under resume: every day
/// verifies against the deterministic re-run and nothing is appended.
/// The store is written in v2; the test above pins that compacting v1
/// yields exactly such a store.
#[test]
fn compacted_campaign_store_replays_clean_under_resume() {
    let config = ecosystem::EcosystemConfig {
        population: 220,
        list_size: 160,
        ..ecosystem::EcosystemConfig::tiny()
    };
    let campaign = Campaign {
        sample_days: vec![0, 2, 5],
        scan_www: true,
        threads: 2,
        vantages: resolver::VantagePoint::presets(),
    };
    let dir = scratch("compact-resume");
    let mut world = ecosystem::World::build(config.clone());
    let mut writer = StoreWriter::create(&dir, campaign.store_meta(&world)).expect("create store");
    campaign.run_to_store(&mut world, &mut writer).expect("campaign");
    drop(writer);

    compact_store(&dir).expect("compact");

    let mut writer = StoreWriter::open_resume(&dir).expect("resume compacted store");
    let mut world = ecosystem::World::build(config);
    let vantages = writer.meta().vantages.len();
    let report = campaign.run_to_store(&mut world, &mut writer).expect("replay");
    assert_eq!(report.appended_days, 0, "a complete compacted store must not grow");
    assert_eq!(report.replayed_days, 3 * vantages, "every day must verify");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
