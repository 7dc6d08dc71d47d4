//! Persistence-layer tests for the on-disk columnar snapshot store:
//!
//! 1. **Round-trip (property)** — any generated campaign of column
//!    chunks survives write → reopen → stream with the exact same
//!    observation sequence, org names included.
//! 2. **Torn-tail recovery (property)** — truncating a column file at
//!    any byte inside its tail chunk never breaks `open_store`, loses
//!    at most that one day, and `open_resume` truncates every file back
//!    to the last day completed by all vantages.
//! 3. **Write-through identity** — a write-through campaign streamed
//!    back from disk is byte-identical (per the CSV view) to the
//!    in-memory campaign, across the thread matrix.
//! 4. **Kill/resume identity** — a campaign killed at a day boundary or
//!    mid-chunk and resumed yields a final store whose files are
//!    byte-identical to an uninterrupted run's.
//! 5. **Replay divergence** — resuming against a world that differs in
//!    ways the manifest cannot capture is detected, not silently
//!    appended.

use ecosystem::{EcosystemConfig, World};
use proptest::prelude::*;
use scanner::persist::{StoreMeta, StoreWriter};
use scanner::{
    open_store, write_csv, Campaign, Observation, ObservationSource, OrgId, OrgInterner, ScanFilter,
};
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

/// Thread counts to exercise: the built-in axis plus any counts named in
/// the `RESOLVER_TEST_THREADS` env var (the CI matrix hook).
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

/// A scratch directory unique to this test invocation.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "httpsrr-persist-test-{}-{tag}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_campaign(days: u64, threads: usize) -> Campaign {
    Campaign {
        sample_days: (0..days).collect(),
        scan_www: true,
        threads,
        vantages: resolver::VantagePoint::presets(),
    }
}

fn small_config() -> EcosystemConfig {
    EcosystemConfig { population: 300, list_size: 220, ..EcosystemConfig::tiny() }
}

/// The streamed CSV of one source — the byte-identity yardstick.
fn csv_of(source: &dyn ObservationSource) -> String {
    let mut out = Vec::new();
    write_csv(source, &mut out).expect("csv into Vec cannot fail");
    String::from_utf8(out).expect("csv is utf8")
}

/// Byte spans of every chunk in a column file, `(header_offset,
/// total_bytes)`: each `CHK2` chunk is its 24-byte header, its encoded
/// payload and a 12-byte trailer.
fn chunk_spans(path: &Path) -> Vec<(u64, u64)> {
    let bytes = std::fs::read(path).expect("read column file");
    let name_len = u16::from_le_bytes([bytes[10], bytes[11]]) as usize;
    let mut pos = 12 + name_len;
    let mut spans = Vec::new();
    while pos + 24 <= bytes.len() {
        assert_eq!(&bytes[pos..pos + 4], b"CHK2", "chunk magic at offset {pos}");
        let payload_len =
            u32::from_le_bytes(bytes[pos + 12..pos + 16].try_into().expect("4 bytes")) as u64;
        let total = 24 + payload_len + 12;
        spans.push((pos as u64, total));
        pos += total as usize;
    }
    assert_eq!(pos, bytes.len(), "column file has a partial tail chunk");
    spans
}

fn read_store_files(dir: &Path, vantages: usize) -> Vec<Vec<u8>> {
    let mut files = vec![
        std::fs::read(dir.join("MANIFEST")).expect("manifest"),
        std::fs::read(dir.join("orgs.dict")).expect("dict"),
    ];
    for i in 0..vantages {
        files.push(std::fs::read(dir.join(format!("v{i:02}.col"))).expect("column"));
    }
    files
}

// ---------------------------------------------------------------------
// 1. Property: write → reopen → stream round-trips exactly.

/// One generated campaign: per-vantage, per-day observation chunks over
/// a shared day schedule and org table.
#[derive(Debug, Clone)]
struct GenCampaign {
    days: Vec<u32>,
    org_names: Vec<String>,
    /// `chunks[vantage][day_index]` = the rows of that chunk.
    chunks: Vec<Vec<Vec<Observation>>>,
}

fn arb_campaign() -> impl Strategy<Value = GenCampaign> {
    (
        proptest::collection::vec(1u32..40, 1..6), // day gaps
        1usize..4,                                 // vantages
        2usize..7,                                 // org count
        proptest::collection::vec((0u32..50, 0u32..64, 0u8..4, 0u16..3, 0u16..8), 0..60),
        0u64..u64::MAX, // row-shuffle seed
    )
        .prop_map(|(gaps, vantages, orgs, protos, seed)| {
            let mut days = Vec::new();
            let mut day = 0u32;
            for g in gaps {
                days.push(day);
                day += g;
            }
            let org_names: Vec<String> = (0..orgs).map(|i| format!("Org {i}")).collect();
            let mut chunks = Vec::new();
            let mut state = seed | 1;
            let mut next = || {
                state = state.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(0x14057b7e);
                state >> 33
            };
            for _ in 0..vantages {
                let mut per_day = Vec::new();
                for &d in &days {
                    let rows: Vec<Observation> = protos
                        .iter()
                        .filter(|_| next() % 3 != 0)
                        .map(|&(domain_id, flags, ns_category, org_pick, min_priority)| {
                            Observation {
                                day: d,
                                domain_id,
                                rank: domain_id + 1,
                                flags,
                                ns_category,
                                org: if org_pick == 0 {
                                    OrgId::NONE
                                } else {
                                    OrgId(u32::from(org_pick - 1) % orgs as u32)
                                },
                                min_priority,
                            }
                        })
                        .collect();
                    per_day.push(rows);
                }
                chunks.push(per_day);
            }
            GenCampaign { days, org_names, chunks }
        })
}

fn write_generated(dir: &Path, c: &GenCampaign) -> StoreWriter {
    let meta = StoreMeta {
        vantages: (0..c.chunks.len()).map(|i| format!("vantage-{i}")).collect(),
        sample_days: c.days.iter().map(|&d| u64::from(d)).collect(),
        scan_www: true,
        world_seed: 7,
        population: 50,
        list_size: 50,
    };
    let mut orgs = OrgInterner::default();
    for name in &c.org_names {
        orgs.intern(name);
    }
    let mut writer = StoreWriter::create(dir, meta).expect("create store");
    // Interleave vantages day-by-day, as a real campaign does.
    for (di, &day) in c.days.iter().enumerate() {
        for (vi, per_day) in c.chunks.iter().enumerate() {
            writer.append_chunk(vi, day, &per_day[di], &orgs).expect("append");
        }
    }
    writer
}

proptest! {
    #[test]
    fn write_reopen_stream_round_trips(c in arb_campaign()) {
        let dir = scratch("roundtrip");
        let writer = write_generated(&dir, &c);
        drop(writer);

        let store = open_store(&dir).expect("reopen");
        prop_assert_eq!(store.readers.len(), c.chunks.len());
        for (vi, reader) in store.readers.iter().enumerate() {
            prop_assert_eq!(reader.vantage(), format!("vantage-{vi}"));
            prop_assert_eq!(reader.days(), c.days.clone());
            prop_assert!(!reader.truncated_tail());
            // Stream and compare the exact observation sequence.
            let mut streamed: Vec<(u32, Vec<Observation>)> = Vec::new();
            reader.for_each_day_filtered(ScanFilter::all(), &mut |day, obs| {
                streamed.push((day, obs.to_vec()))
            });
            let expected: Vec<(u32, Vec<Observation>)> = c
                .days
                .iter()
                .enumerate()
                .map(|(di, &d)| (d, c.chunks[vi][di].clone()))
                .collect();
            prop_assert_eq!(streamed, expected);
            // Org names survive the dictionary round-trip.
            for (i, name) in c.org_names.iter().enumerate() {
                prop_assert_eq!(reader.org_name(OrgId(i as u32)), Some(name.as_str()));
            }
            prop_assert_eq!(reader.org_name(OrgId::NONE), None);
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn torn_tail_chunk_is_recovered(c in arb_campaign(), cut in 1u64..2_000) {
        let dir = scratch("torntail");
        let writer = write_generated(&dir, &c);
        let full_days = writer.completed_days();
        drop(writer);

        // Cut the last vantage's file somewhere inside its tail chunk
        // (header or payload — both must be survivable).
        let victim = dir.join(format!("v{:02}.col", c.chunks.len() - 1));
        let len = std::fs::metadata(&victim).expect("victim meta").len();
        let (_, tail_bytes) = *chunk_spans(&victim).last().expect("tail chunk");
        // Land strictly *inside* the tail chunk (cutting exactly at its
        // start is a clean boundary, not a tear).
        let cut_at = len - 1 - (cut % (tail_bytes - 1));
        let file = std::fs::OpenOptions::new().write(true).open(&victim).expect("open victim");
        file.set_len(cut_at).expect("truncate");
        drop(file);

        // Read-only open: the torn day is dropped from that vantage only.
        let store = open_store(&dir).expect("open with torn tail");
        let victim_reader = store.readers.last().expect("victim reader");
        prop_assert!(victim_reader.truncated_tail());
        prop_assert_eq!(victim_reader.days().len(), c.days.len() - 1);

        // Resume: every file is truncated back to the common boundary.
        let writer = StoreWriter::open_resume(&dir).expect("resume after tear");
        prop_assert_eq!(writer.completed_days(), full_days - 1);
        for vi in 0..c.chunks.len() {
            prop_assert_eq!(writer.days_written(vi), full_days - 1);
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

// ---------------------------------------------------------------------
// 2. Write-through == in-memory, across the thread matrix.

#[test]
fn write_through_store_matches_in_memory_campaign() {
    let config = small_config();
    for threads in thread_axis() {
        let campaign = tiny_campaign(3, threads);
        let mut world = World::build(config.clone());
        let stores = campaign.run_vantages(&mut world);

        let dir = scratch(&format!("wt-{threads}"));
        let mut world = World::build(config.clone());
        let mut writer = campaign.create_store(&world, &dir).expect("create");
        let report = campaign.run_to_store(&mut world, &mut writer).expect("write-through");
        assert_eq!(report.replayed_days, 0);
        assert_eq!(report.appended_days, 3 * stores.len());
        drop(writer);

        let reopened = open_store(&dir).expect("reopen");
        assert_eq!(reopened.readers.len(), stores.len());
        for (reader, store) in reopened.readers.iter().zip(&stores) {
            assert_eq!(
                csv_of(reader),
                csv_of(store),
                "disk and in-memory CSV diverged at threads={threads}"
            );
            assert_eq!(reader.total_observations(), store.len());
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

// ---------------------------------------------------------------------
// 3. Kill/resume at and inside day boundaries is byte-identical.

#[test]
fn killed_and_resumed_store_is_byte_identical_to_uninterrupted() {
    let config = small_config();
    let campaign = tiny_campaign(4, 4);
    let vantages = campaign.vantages.len();

    // Reference: one uninterrupted write-through run.
    let reference_dir = scratch("ref");
    let mut world = World::build(config.clone());
    let mut writer = campaign.create_store(&world, &reference_dir).expect("create ref");
    campaign.run_to_store(&mut world, &mut writer).expect("reference run");
    drop(writer);
    let reference = read_store_files(&reference_dir, vantages);

    // A complete store: resume verifies every day against disk and
    // appends nothing.
    let mut writer = StoreWriter::open_resume(&reference_dir).expect("resume complete");
    let mut world = World::build(config.clone());
    let report = campaign.run_to_store(&mut world, &mut writer).expect("replay complete");
    assert_eq!((report.replayed_days, report.appended_days), (4 * vantages, 0));
    drop(writer);
    assert_eq!(read_store_files(&reference_dir, vantages), reference, "replay changed the store");

    // "Killed" runs: copy the reference store, then truncate to simulate
    // a kill (a) exactly at a day boundary, (b) mid-chunk.
    for (tag, cut_back) in [("boundary", 0u64), ("midchunk", 17)] {
        let dir = scratch(&format!("kill-{tag}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        for name in ["MANIFEST", "orgs.dict"] {
            std::fs::copy(reference_dir.join(name), dir.join(name)).expect("copy");
        }
        for vi in 0..vantages {
            let name = format!("v{vi:02}.col");
            std::fs::copy(reference_dir.join(&name), dir.join(&name)).expect("copy");
        }
        // Drop the last two days from vantage 1, the last day (plus
        // `cut_back` bytes into the previous chunk for the mid-chunk
        // case) from vantage 2; vantage 0 keeps all four days.
        for (vi, back) in [(1usize, 2usize), (2, 1)] {
            let path = dir.join(format!("v{vi:02}.col"));
            let spans = chunk_spans(&path);
            let cut = spans[spans.len() - back].0 - if vi == 2 { cut_back } else { 0 };
            let f = std::fs::OpenOptions::new().write(true).open(&path).expect("open");
            f.set_len(cut).expect("truncate");
        }

        // Resume and compare every file byte-for-byte.
        let mut writer = StoreWriter::open_resume(&dir).expect("resume");
        let mut world = World::build(config.clone());
        let report = campaign.run_to_store(&mut world, &mut writer).expect("resumed run");
        assert!(report.replayed_days > 0, "{tag}: resume must replay the surviving prefix");
        assert!(report.appended_days > 0, "{tag}: resume must append the missing days");
        drop(writer);
        assert_eq!(
            read_store_files(&dir, vantages),
            reference,
            "{tag}: resumed store differs from the uninterrupted one"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
    std::fs::remove_dir_all(&reference_dir).expect("cleanup");
}

// ---------------------------------------------------------------------
// 4. Mismatched campaigns/worlds are rejected, not appended.

#[test]
fn resume_rejects_mismatched_campaign_and_diverging_world() {
    let config = small_config();
    let campaign = tiny_campaign(2, 2);
    let dir = scratch("mismatch");
    let mut world = World::build(config.clone());
    let mut writer = campaign.create_store(&world, &dir).expect("create");
    campaign.run_to_store(&mut world, &mut writer).expect("seed run");
    drop(writer);

    // A different seed changes the manifest: rejected up front.
    let mut writer = StoreWriter::open_resume(&dir).expect("reopen");
    let mut other = World::build(EcosystemConfig { seed: 99, ..config.clone() });
    let err = campaign.run_to_store(&mut other, &mut writer).expect_err("meta mismatch");
    assert_eq!(err.kind(), ErrorKind::InvalidInput);

    // Same manifest fields but a world whose un-manifested knobs differ:
    // the deterministic replay diverges from the stored chunks.
    let mut writer = StoreWriter::open_resume(&dir).expect("reopen again");
    let mut skewed = World::build(EcosystemConfig { cloudflare_share: 0.05, ..config.clone() });
    let err = campaign.run_to_store(&mut skewed, &mut writer).expect_err("replay divergence");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("diverged"), "unexpected error: {err}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

// ---------------------------------------------------------------------
// 5. The acceptance-scale campaign (release CI only).

/// 730 days × 3 vantages, written through to disk and analyzed purely by
/// streaming: the reader's resident bound stays a tiny fraction of the
/// campaign, and the from-disk reports match a fully materialized pass.
#[test]
#[ignore = "release-mode acceptance run (persist-smoke CI job)"]
fn two_year_campaign_streams_with_bounded_memory() {
    let config = EcosystemConfig { population: 160, list_size: 120, ..EcosystemConfig::tiny() };
    let campaign = tiny_campaign(730, 4);
    let dir = scratch("twoyear");
    let mut world = World::build(config.clone());
    let mut writer = campaign.create_store(&world, &dir).expect("create");
    let report = campaign.run_to_store(&mut world, &mut writer).expect("campaign");
    assert_eq!(report.appended_days, 730 * 3);
    drop(writer);

    let store = open_store(&dir).expect("reopen");
    // Bounded resident observations: the streaming bound is one day per
    // vantage, two orders of magnitude under the materialized footprint.
    let resident: usize = store.readers.iter().map(|r| r.max_rows_per_day()).sum();
    let total: usize = store.readers.iter().map(|r| r.total_observations()).sum();
    assert_eq!(total, 730 * 3 * 120 * 2);
    assert!(
        resident * 100 <= total,
        "resident bound {resident} is not <<1% of {total} total observations"
    );

    // Byte-identical reports, disk vs fully materialized.
    let materialized = store.materialize();
    assert_eq!(
        analysis_report(&store.sources()),
        analysis_report(
            &materialized.iter().map(|s| s as &dyn ObservationSource).collect::<Vec<_>>()
        ),
        "streamed and materialized analysis reports diverged"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Every trait-driven analysis output over a set of sources, as one
/// comparable string (the analysis crate itself has the full matrix —
/// here the stack just proves disk==memory at scale).
fn analysis_report(sources: &[&dyn ObservationSource]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for s in sources {
        let _ = writeln!(out, "== {} ({} obs)", s.vantage(), s.total_observations());
        out.push_str(&csv_of(*s));
    }
    out
}
