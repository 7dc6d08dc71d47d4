//! Ecosystem configuration: population size, study timeline landmarks,
//! and the behavioural rates calibrated to the paper's measurements.
//!
//! All rates are per-domain probabilities, so every analysis that
//! reports a *ratio* is scale-invariant; analyses that report *counts*
//! (e.g. Table 3's provider counts) use the `noncf_*` absolute knobs.

/// Landmark days of the study, as day offsets from 2023-05-08 (day 0).
#[derive(Debug, Clone, Copy)]
pub struct Landmarks {
    /// 2023-05-31: Cloudflare stops advertising HTTP/3 draft 29.
    pub h3_29_sunset: u64,
    /// 2023-06-19: the IP-hint matching-rate jump.
    pub hint_fix: u64,
    /// 2023-08-01: Tranco source change.
    pub source_change: u64,
    /// 2023-10-05: Cloudflare disables ECH globally.
    pub ech_disable: u64,
    /// 2024-03-31: study end (inclusive).
    pub study_end: u64,
}

impl Landmarks {
    /// Whether Cloudflare's default record still advertises `h3-29`.
    pub fn advertises_h3_29(&self, day: u64) -> bool {
        day < self.h3_29_sunset
    }

    /// Whether Cloudflare still publishes (and rotates) ECH configs.
    pub fn ech_live(&self, day: u64) -> bool {
        day < self.ech_disable
    }

    /// Whether `day` is one on which every Cloudflare-proxied domain's
    /// HTTPS records must be re-synthesized: a predicate above — an
    /// input of `synthesize_https` that is a function of the day alone —
    /// flips between `day - 1` and `day`. World stepping wakes the
    /// Cloudflare cohort on exactly these days, so a day-dependent input
    /// added to synthesis must be listed here or zones go silently stale.
    pub fn forces_cf_resync(&self, day: u64) -> bool {
        day > 0
            && (self.advertises_h3_29(day) != self.advertises_h3_29(day - 1)
                || self.ech_live(day) != self.ech_live(day - 1))
    }
}

impl Default for Landmarks {
    fn default() -> Self {
        // Day numbers computed from the paper calendar (see netsim tests).
        Landmarks {
            h3_29_sunset: 23,
            hint_fix: 42,
            source_change: 85,
            ech_disable: 150,
            study_end: 328,
        }
    }
}

/// Full ecosystem configuration.
#[derive(Debug, Clone)]
pub struct EcosystemConfig {
    /// RNG seed; the whole world is a pure function of this.
    pub seed: u64,
    /// Total domain universe (must exceed `list_size`).
    pub population: usize,
    /// Daily Tranco list size.
    pub list_size: usize,
    /// Timeline landmarks.
    pub landmarks: Landmarks,

    // ---- Tranco dynamics ----
    /// Fraction of the universe with stable (low-churn) popularity.
    pub stable_fraction: f64,
    /// Log-normal noise sigma for stable domains.
    pub stable_sigma: f64,
    /// Log-normal noise sigma for churning domains.
    pub churn_sigma: f64,
    /// Fraction of domains whose popularity is re-sampled at the source
    /// change (drives the Fig 2 discontinuity).
    pub source_change_reshuffle: f64,

    // ---- provider mix ----
    /// Fraction of the universe on Cloudflare-like name servers.
    pub cloudflare_share: f64,
    /// Fraction on the Cloudflare China (cf-ns) variant.
    pub cf_china_share: f64,
    /// Of Cloudflare domains: fraction with the proxied toggle on at
    /// study start (proxied ⇒ default HTTPS record).
    pub proxied_rate_day0: f64,
    /// Of Cloudflare domains not proxied at day 0: daily probability of
    /// enabling proxied (drives the rising dynamic-adoption trend).
    pub proxied_daily_enable: f64,
    /// Of proxied Cloudflare domains: fraction with a *customized* HTTPS
    /// configuration (Table 4's ≈20–28%).
    pub customized_rate: f64,

    // ---- intermittency (§4.2.3), scaled counts ----
    /// Number of domains that toggle proxied on/off periodically.
    pub toggling_domains: usize,
    /// Toggle period in days (on for period, off for period…).
    pub toggle_period_days: u64,
    /// Number of domains that migrate from Cloudflare to a non-HTTPS
    /// provider mid-study.
    pub migrating_domains: usize,
    /// Number of domains with mixed (Cloudflare + other) NS sets.
    pub mixed_ns_domains: usize,
    /// Number of domains that lose their delegation entirely.
    pub undelegated_domains: usize,

    // ---- non-Cloudflare HTTPS adopters (absolute, small) ----
    /// Domains per non-CF provider that publish HTTPS records, in
    /// Table 3 order (eName, Google, GoDaddy, NSONE, Domeneshop, …).
    pub noncf_adopters: Vec<(usize, &'static str)>,

    // ---- IP hints (§4.3.5) ----
    /// Daily probability a domain renumbers its address (before fix day).
    pub renumber_rate_early: f64,
    /// Daily probability after the fix day.
    pub renumber_rate_late: f64,
    /// Mean days the hint lags the A record after a renumber (apex).
    pub hint_lag_mean_days: f64,
    /// Number of cf-ns domains with a *permanent* hint mismatch.
    pub permanent_mismatch_domains: usize,

    // ---- ECH (§4.4) ----
    /// Of default-config (free) Cloudflare zones: fraction with ECH
    /// enabled pre-kill. Calibrated so ~70% of HTTPS-publishing apexes
    /// carry the ech parameter, the paper's Fig 13 level.
    pub ech_rate_apex: f64,
    /// Mean ECH key-rotation period, seconds (paper: ≈1.26 h).
    pub ech_rotation_mean_secs: u64,
    /// TTL of Cloudflare HTTPS records (paper: 300 s).
    pub cf_https_ttl: u32,

    // ---- DNSSEC (§4.5 / Table 9) ----
    /// Signing rate among domains *without* HTTPS records.
    pub signed_rate_no_https: f64,
    /// Of those: DS-upload (secure) rate.
    pub ds_rate_no_https: f64,
    /// Signing rate among Cloudflare domains *with* HTTPS records.
    pub signed_rate_cf_https: f64,
    /// Of those: DS-upload rate (the paper's 50.5% secure).
    pub ds_rate_cf_https: f64,
    /// Signing rate among non-CF HTTPS adopters.
    pub signed_rate_noncf_https: f64,
    /// Of those: DS-upload rate (85.9% secure).
    pub ds_rate_noncf_https: f64,

    // ---- www subdomains ----
    /// Of apex domains with HTTPS: fraction whose www also publishes it.
    pub www_https_rate: f64,

    // ---- scale knobs (wall-clock only, never simulation state) ----
    /// Worker threads for chunked day-list scoring; 0 = one per
    /// available CPU. Lists are bit-identical for every value.
    pub score_threads: usize,
}

impl Default for EcosystemConfig {
    fn default() -> Self {
        EcosystemConfig {
            seed: 0xD0_5EED,
            population: 6_000,
            list_size: 4_000,
            landmarks: Landmarks::default(),

            stable_fraction: 0.62,
            stable_sigma: 0.05,
            churn_sigma: 1.4,
            source_change_reshuffle: 0.18,

            cloudflare_share: 0.26,
            cf_china_share: 0.004,
            proxied_rate_day0: 0.78,
            proxied_daily_enable: 0.0012,
            customized_rate: 0.24,

            toggling_domains: 26,
            toggle_period_days: 9,
            migrating_domains: 8,
            mixed_ns_domains: 10,
            undelegated_domains: 2,

            noncf_adopters: vec![
                (12, "eName"),
                (10, "Google"),
                (7, "GoDaddy"),
                (5, "NSONE"),
                (2, "Domeneshop"),
                (2, "Hover"),
                (1, "Gentoo"),
                (1, "JPBerlin"),
            ],

            renumber_rate_early: 0.004,
            renumber_rate_late: 0.0008,
            hint_lag_mean_days: 3.0,
            permanent_mismatch_domains: 4,

            ech_rate_apex: 0.95,
            ech_rotation_mean_secs: 4_536, // 1.26 h
            cf_https_ttl: 300,

            signed_rate_no_https: 0.048,
            ds_rate_no_https: 0.762,
            signed_rate_cf_https: 0.080,
            ds_rate_cf_https: 0.505,
            signed_rate_noncf_https: 0.50,
            ds_rate_noncf_https: 0.859,

            www_https_rate: 0.93,

            score_threads: 0,
        }
    }
}

impl EcosystemConfig {
    /// A small configuration for fast unit tests.
    pub fn tiny() -> EcosystemConfig {
        EcosystemConfig {
            population: 400,
            list_size: 300,
            noncf_adopters: vec![(2, "eName"), (2, "Google"), (1, "GoDaddy"), (1, "NSONE")],
            toggling_domains: 6,
            migrating_domains: 3,
            mixed_ns_domains: 3,
            undelegated_domains: 1,
            permanent_mismatch_domains: 2,
            ..Default::default()
        }
    }

    /// Number of study days (inclusive of day 0).
    pub fn study_days(&self) -> u64 {
        self.landmarks.study_end + 1
    }
}
