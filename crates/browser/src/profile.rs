//! Behavioural profiles of the four measured browsers (and a
//! spec-compliant reference profile for ablations).
//!
//! Each flag encodes one observed behaviour from the paper's §5
//! experiments (Tables 6 and 7): whether HTTPS RRs are fetched, whether
//! they upgrade scheme-less/HTTP URLs, which record parameters are
//! honoured, and how failures are handled. Versions match the paper's
//! testbed: Chrome 120, Safari 17.2, Edge 120, Firefox 122.

/// How a browser reacts to an unusable preferred IP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpFallback {
    /// Hard failure (Chrome/Edge on unreachable A-record IPs).
    HardFail,
    /// Immediately retry the alternate record type's address (Safari).
    Immediate,
    /// Retry the alternate address after a delay (Firefox).
    Delayed,
}

/// How a browser reacts to an ECH config it cannot parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MalformedEchBehavior {
    /// Terminate the connection (Chrome/Edge).
    HardFail,
    /// Ignore ECH and proceed with standard TLS (Firefox).
    Ignore,
}

/// A browser's HTTPS-RR/ECH behaviour profile.
#[derive(Debug, Clone)]
pub struct BrowserProfile {
    /// Display name, e.g. `"Chrome 120"`.
    pub name: &'static str,
    /// Issues HTTPS-type DNS queries at all (all four do).
    pub queries_https_rr: bool,
    /// Uses a fetched HTTPS RR to upgrade `example.com` / `http://…`
    /// navigations to HTTPS (Safari does not).
    pub upgrades_on_https_rr: bool,
    /// Follows the TargetName of an AliasMode record by issuing follow-up
    /// address queries (only Safari).
    pub follows_alias_target: bool,
    /// Uses the TargetName of a ServiceMode record (Safari, Firefox).
    pub follows_service_target: bool,
    /// Connects to the `port` SvcParam instead of 443 (Safari, Firefox).
    pub uses_port_param: bool,
    /// Falls back to 443 when the advertised port fails (Safari, Firefox).
    pub port_fallback: bool,
    /// Prefers `ipv4hint`/`ipv6hint` addresses over A/AAAA (Safari,
    /// Firefox); Chrome/Edge prefer A-record addresses.
    pub prefers_ip_hints: bool,
    /// Behaviour when the preferred address is unusable.
    pub ip_fallback: IpFallback,
    /// Ignores HTTPS RRs that carry no `alpn` SvcParam (Chromium does).
    pub ignores_record_without_alpn: bool,
    /// ALPN identifiers the browser supports.
    pub supported_alpn: &'static [&'static str],
    /// After connecting with h3-only ALPN, also races an h2 connection
    /// (Firefox's compatibility behaviour).
    pub h3_then_h2_compat: bool,
    /// Implements ECH at all (Safari does not).
    pub supports_ech: bool,
    /// Reaction to malformed ECH configs (only meaningful with ECH).
    pub malformed_ech: MalformedEchBehavior,
    /// Honours the server's ECH retry-config mechanism.
    pub supports_ech_retry: bool,
    /// Resolves the ECH public name and connects to the client-facing
    /// server in Split Mode (no current browser does).
    pub supports_ech_split_mode: bool,
}

impl BrowserProfile {
    /// Chrome 120 (macOS/Windows behaviour was identical in the study).
    pub fn chrome() -> BrowserProfile {
        BrowserProfile {
            name: "Chrome 120",
            queries_https_rr: true,
            upgrades_on_https_rr: true,
            follows_alias_target: false,
            follows_service_target: false,
            uses_port_param: false,
            port_fallback: false,
            prefers_ip_hints: false,
            ip_fallback: IpFallback::HardFail,
            ignores_record_without_alpn: true,
            supported_alpn: &["h2", "h3", "http/1.1"],
            h3_then_h2_compat: false,
            supports_ech: true,
            malformed_ech: MalformedEchBehavior::HardFail,
            supports_ech_retry: true,
            supports_ech_split_mode: false,
        }
    }

    /// Edge 120 (Chromium-based; measured separately, behaved identically).
    pub fn edge() -> BrowserProfile {
        BrowserProfile { name: "Edge 120", ..BrowserProfile::chrome() }
    }

    /// Safari 17.2.
    pub fn safari() -> BrowserProfile {
        BrowserProfile {
            name: "Safari 17.2",
            queries_https_rr: true,
            upgrades_on_https_rr: false,
            follows_alias_target: true,
            follows_service_target: true,
            uses_port_param: true,
            port_fallback: true,
            prefers_ip_hints: true,
            ip_fallback: IpFallback::Immediate,
            ignores_record_without_alpn: false,
            supported_alpn: &["h2", "h3", "http/1.1"],
            h3_then_h2_compat: false,
            supports_ech: false,
            malformed_ech: MalformedEchBehavior::Ignore,
            supports_ech_retry: false,
            supports_ech_split_mode: false,
        }
    }

    /// Firefox 122 (with DoH enabled, its default for HTTPS RR lookups).
    pub fn firefox() -> BrowserProfile {
        BrowserProfile {
            name: "Firefox 122",
            queries_https_rr: true,
            upgrades_on_https_rr: true,
            follows_alias_target: false,
            follows_service_target: true,
            uses_port_param: true,
            port_fallback: true,
            prefers_ip_hints: true,
            ip_fallback: IpFallback::Delayed,
            ignores_record_without_alpn: false,
            supported_alpn: &["h2", "h3", "http/1.1"],
            h3_then_h2_compat: true,
            supports_ech: true,
            malformed_ech: MalformedEchBehavior::Ignore,
            supports_ech_retry: true,
            supports_ech_split_mode: false,
        }
    }

    /// A fully RFC 9460 / ECH-draft compliant client: every parameter
    /// honoured, every failover implemented, Split Mode supported: the
    /// reference that shows how much breakage current browser gaps
    /// cause (`tests/matrix.rs`, `examples/browser_matrix.rs`).
    pub fn spec_compliant() -> BrowserProfile {
        BrowserProfile {
            name: "SpecClient",
            queries_https_rr: true,
            upgrades_on_https_rr: true,
            follows_alias_target: true,
            follows_service_target: true,
            uses_port_param: true,
            port_fallback: true,
            prefers_ip_hints: false, // spec says prefer A/AAAA when present
            ip_fallback: IpFallback::Immediate,
            ignores_record_without_alpn: false,
            supported_alpn: &["h2", "h3", "http/1.1"],
            h3_then_h2_compat: false,
            supports_ech: true,
            malformed_ech: MalformedEchBehavior::Ignore,
            supports_ech_retry: true,
            supports_ech_split_mode: true,
        }
    }

    /// The four browsers measured in the paper, in its column order.
    pub fn all_measured() -> Vec<BrowserProfile> {
        vec![
            BrowserProfile::chrome(),
            BrowserProfile::safari(),
            BrowserProfile::edge(),
            BrowserProfile::firefox(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_browsers_query_https_rr() {
        for p in BrowserProfile::all_measured() {
            assert!(p.queries_https_rr, "{}", p.name);
        }
    }

    #[test]
    fn only_safari_skips_upgrade_and_ech() {
        let profiles = BrowserProfile::all_measured();
        let safari = &profiles[1];
        assert_eq!(safari.name, "Safari 17.2");
        assert!(!safari.upgrades_on_https_rr);
        assert!(!safari.supports_ech);
        for p in [&profiles[0], &profiles[2], &profiles[3]] {
            assert!(p.upgrades_on_https_rr, "{}", p.name);
            assert!(p.supports_ech, "{}", p.name);
        }
    }

    #[test]
    fn chromium_pair_is_identical_except_name() {
        let c = BrowserProfile::chrome();
        let e = BrowserProfile::edge();
        assert_ne!(c.name, e.name);
        assert_eq!(c.uses_port_param, e.uses_port_param);
        assert_eq!(c.prefers_ip_hints, e.prefers_ip_hints);
        assert_eq!(c.malformed_ech, e.malformed_ech);
    }

    #[test]
    fn no_measured_browser_supports_split_mode() {
        for p in BrowserProfile::all_measured() {
            assert!(!p.supports_ech_split_mode, "{}", p.name);
        }
        assert!(BrowserProfile::spec_compliant().supports_ech_split_mode);
    }
}
