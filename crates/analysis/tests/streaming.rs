//! Disk/memory equivalence for every trait-driven analysis: one
//! campaign is run twice on identical worlds — once into in-memory
//! [`scanner::SnapshotStore`]s, once write-through into the on-disk
//! columnar store — and every analysis entry point must render a
//! byte-identical report whether it streams from [`scanner::StoreReader`]s
//! or walks the in-memory stores. This is the contract that makes the
//! disk store a drop-in backend for multi-year campaigns.

use analysis::{adoption, dnssec_a, ech, providers, vantage_diff_parallel, vantage_diff_sources};
use ecosystem::{EcosystemConfig, World};
use resolver::VantagePoint;
use scanner::{
    open_store, write_combined_csv, Campaign, Observation, ObservationSource, OrgId, Projection,
    ScanFilter, SnapshotStore,
};
use std::path::PathBuf;

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "httpsrr-analysis-streaming-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Thread counts to exercise: the built-in axis plus any counts named in
/// the `RESOLVER_TEST_THREADS` env var (the CI determinism-matrix hook).
fn thread_axis() -> Vec<usize> {
    let mut axis = vec![1, 4];
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

/// Nine sample days: the diff reads them as two full four-day groups and
/// a tail.
const SAMPLE_DAYS: [u32; 9] = [0, 2, 4, 6, 8, 10, 12, 14, 16];

fn campaign() -> Campaign {
    Campaign {
        sample_days: SAMPLE_DAYS.map(u64::from).to_vec(),
        scan_www: true,
        threads: 3,
        vantages: VantagePoint::presets(),
    }
}

/// Every trait-driven analysis over one source, rendered to one string.
fn full_report(source: &dyn ObservationSource) -> String {
    use std::fmt::Write;
    let days = source.days();
    let mut out = String::new();
    let _ = writeln!(out, "== vantage {} ==", source.vantage());
    let _ = write!(out, "{}", adoption::fig2_adoption(source, 3));
    let _ = write!(out, "{}", adoption::fig8_rank_distribution(source, &days, None));
    let noncf = adoption::noncf_adopter_ids(source);
    let _ = write!(out, "{}", adoption::fig8_rank_distribution(source, &days, Some(&noncf)));
    let _ = write!(out, "{}", providers::tab2_ns_category(source));
    let _ = write!(out, "{}", providers::tab3_top_noncf(source));
    let _ = write!(out, "{}", providers::fig3_noncf_provider_count(source));
    let _ = write!(out, "{}", providers::sec423_intermittent(source));
    let _ = write!(out, "{}", dnssec_a::fig5_dnssec_trend(source));
    let _ = write!(out, "{}", ech::fig13_ech_share(source));
    let _ = write!(out, "{}", analysis::params::tab4_cf_config(source));
    let _ = write!(out, "{}", analysis::params::tab5_other_providers(source));
    let _ = write!(out, "{}", analysis::params::sec433_anomalies(source));
    let _ = write!(out, "{}", analysis::params::tab8_alpn(source, 3));
    let _ = write!(out, "{}", analysis::params::fig11_iphints(source));
    let _ = write!(out, "{}", analysis::params::fig12_mismatch_durations(source));
    out
}

/// The `(day, rows)` sequence the one visit method hands out under `filter`.
fn visits(source: &dyn ObservationSource, filter: ScanFilter) -> Vec<(u32, Vec<Observation>)> {
    let mut seen = Vec::new();
    source.for_each_day_filtered(filter, &mut |day, obs| seen.push((day, obs.to_vec())));
    seen
}

#[test]
fn every_analysis_is_byte_identical_from_disk_and_memory() {
    let config = EcosystemConfig { population: 350, list_size: 260, ..EcosystemConfig::tiny() };

    // In-memory reference campaign.
    let mut world = World::build(config.clone());
    let stores: Vec<SnapshotStore> = campaign().run_vantages(&mut world);

    // Identical campaign written through to disk.
    let dir = scratch();
    let mut world = World::build(config);
    let writer_campaign = campaign();
    let mut writer = writer_campaign.create_store(&world, &dir).expect("create store");
    writer_campaign.run_to_store(&mut world, &mut writer).expect("write-through");
    drop(writer);
    let disk = open_store(&dir).expect("reopen");

    // Per-vantage: every analysis display output must match exactly.
    assert_eq!(disk.readers.len(), stores.len());
    for (reader, store) in disk.readers.iter().zip(&stores) {
        assert_eq!(
            full_report(reader),
            full_report(store),
            "analysis reports diverged between disk and memory for vantage {}",
            store.vantage()
        );
    }

    // Under every filter shape the analyses use, both backends visit
    // the same days with the same rows (the campaign samples the even
    // days 0 to 16, so odd days are gaps).
    for (reader, store) in disk.readers.iter().zip(&stores) {
        for (shape, filter, days) in [
            ("every day", ScanFilter::all(), SAMPLE_DAYS.to_vec()),
            ("a present day", ScanFilter::all().days(4, 4), vec![4]),
            ("an absent day", ScanFilter::all().days(3, 3), vec![]),
            ("a range straddling gaps", ScanFilter::all().days(1, 5), vec![2, 4]),
        ] {
            let on_disk = visits(reader, filter);
            assert_eq!(on_disk, visits(store, filter), "{shape}, vantage {}", store.vantage());
            let visited: Vec<u32> = on_disk.iter().map(|(day, _)| *day).collect();
            assert_eq!(visited, days, "{shape}, vantage {}", store.vantage());
        }
        // A projected single day: the projected columns agree; the disk
        // reader leaves the rest at their documented defaults (memory
        // may hand back full rows).
        let pruned =
            ScanFilter::projected(Projection::FLAGS.with(Projection::DOMAIN_ID)).days(2, 2);
        let (on_disk, in_memory) = (visits(reader, pruned), visits(store, pruned));
        assert_eq!((on_disk.len(), in_memory.len()), (1, 1));
        let ((disk_day, disk_rows), (memory_day, memory_rows)) = (&on_disk[0], &in_memory[0]);
        assert_eq!((*disk_day, *memory_day), (2, 2));
        assert_eq!(disk_rows.len(), memory_rows.len());
        for (d, m) in disk_rows.iter().zip(memory_rows) {
            assert_eq!((d.day, d.domain_id, d.flags), (2, m.domain_id, m.flags));
            assert_eq!((d.rank, d.ns_category, d.org, d.min_priority), (0, 0, OrgId::NONE, 0));
        }
    }

    // Cross-vantage: the diff report and the combined CSV view too.
    let from_disk = vantage_diff_sources(&disk.sources()).to_string();
    let in_memory = vantage_diff_sources(
        &stores.iter().map(|s| s as &dyn ObservationSource).collect::<Vec<_>>(),
    )
    .to_string();
    assert_eq!(from_disk, in_memory, "vantage_diff diverged between disk and memory");

    let mut disk_csv = Vec::new();
    write_combined_csv(&disk.sources(), &mut disk_csv).expect("disk csv");
    let memory_csv = scanner::combined_csv(&stores);
    assert_eq!(
        String::from_utf8(disk_csv).expect("utf8"),
        memory_csv,
        "combined CSV diverged between disk and memory"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The parallel multi-vantage scan must reproduce the sequential diff
/// bit-for-bit — from disk and from memory — at every scan-thread count
/// on the determinism axis.
#[test]
fn parallel_vantage_scan_is_byte_identical_across_thread_axis() {
    let config = EcosystemConfig { population: 300, list_size: 220, ..EcosystemConfig::tiny() };
    for threads in thread_axis() {
        let c = Campaign { threads, ..campaign() };
        let mut world = World::build(config.clone());
        let stores: Vec<SnapshotStore> = c.run_vantages(&mut world);
        let memory: Vec<&dyn ObservationSource> =
            stores.iter().map(|s| s as &dyn ObservationSource).collect();

        let dir = scratch();
        let mut world = World::build(config.clone());
        let mut writer = c.create_store(&world, &dir).expect("create store");
        c.run_to_store(&mut world, &mut writer).expect("write-through");
        drop(writer);
        let disk = open_store(&dir).expect("reopen");

        // Debug covers every report field (including each f64 exactly);
        // Display is the rendered view the CLI ships.
        let reference = vantage_diff_sources(&disk.sources());
        for (label, report) in [
            ("parallel-from-disk", vantage_diff_parallel(&disk.sources())),
            ("parallel-from-memory", vantage_diff_parallel(&memory)),
            ("sequential-from-memory", vantage_diff_sources(&memory)),
        ] {
            assert_eq!(
                format!("{report:?}"),
                format!("{reference:?}"),
                "{label} diverged from the sequential disk scan at threads={threads}"
            );
            assert_eq!(report.to_string(), reference.to_string(), "{label} Display diverged");
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

#[test]
fn materialized_store_round_trips_through_disk() {
    let config = EcosystemConfig { population: 300, list_size: 220, ..EcosystemConfig::tiny() };
    let mut world = World::build(config.clone());
    let stores = campaign().run_vantages(&mut world);

    let dir = scratch();
    let mut world = World::build(config);
    let c = campaign();
    let mut writer = c.create_store(&world, &dir).expect("create store");
    c.run_to_store(&mut world, &mut writer).expect("write-through");
    drop(writer);

    // Materializing the disk store back into SnapshotStores reproduces
    // the in-memory campaign exactly (the CSV view covers every column).
    let materialized = open_store(&dir).expect("reopen").materialize();
    assert_eq!(materialized.len(), stores.len());
    for (m, s) in materialized.iter().zip(&stores) {
        assert_eq!(m.vantage(), s.vantage());
        assert_eq!(m.to_csv(), s.to_csv());
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
