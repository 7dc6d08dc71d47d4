//! Per-domain state and HTTPS-record synthesis under provider policies.

use crate::config::Landmarks;
use crate::providers::ProviderId;
use dns_wire::{DnsName, SvcParam, SvcbRdata};
use std::net::{Ipv4Addr, Ipv6Addr};

/// The HTTPS-record shape a domain publishes (when active).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpsShape {
    /// Cloudflare's auto-generated default: `1 . alpn=h2,h3 ipv4hint=…
    /// ipv6hint=…` (+ `h3-29` before the sunset, + `ech` while enabled).
    CfDefault,
    /// Customized Cloudflare config advertising only h2, no hints.
    CustomH2,
    /// Customized Cloudflare config advertising h3 as well.
    CustomH2H3,
    /// Customized config with hints but *no* alpn parameter.
    CustomNoAlpn,
    /// GoDaddy-style AliasMode redirect to a parking endpoint.
    AliasToEndpoint,
    /// AliasMode aliasing to the domain's own www subdomain (err.ee).
    AliasToWww,
    /// Broken AliasMode with `.` as TargetName (newlinesmag.com, §E.1).
    AliasSelfDot,
    /// Google-style ServiceMode with empty SvcParams.
    EmptyService,
    /// Owner-managed `1 . alpn=h2`.
    OwnerH2,
    /// Owner-managed `1 . alpn=h2,h3` with both hint types.
    OwnerH3H2Hints,
    /// Owner-managed HTTP/1.1-only alpn (jpberlin.de customers, §E.2).
    OwnerHttp11,
    /// Owner-managed draft alpn `h3-27,h3-29` (gentoo.org, §E.2).
    OwnerDraftAlpn,
    /// Broken: an IPv4 literal as TargetName (unze.com.pk, §E.1).
    IpLiteralTarget,
    /// Multi-record priority list 1..=N, one port each
    /// (geo-routing.nexuspipe.com, §E.1).
    PriorityList,
}

/// How this domain participates in HTTPS-RR publication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpsIntent {
    /// Never publishes.
    None,
    /// Publishes whenever the Cloudflare proxied toggle is on.
    CfProxied(HttpsShape),
    /// A (rare) non-Cloudflare adopter.
    NonCf(HttpsShape),
}

/// Mutable per-domain state in the simulated world.
#[derive(Debug, Clone)]
pub struct DomainState {
    /// Universe index.
    pub id: u32,
    /// Apex name (e.g. `site00042.com`).
    pub apex: DnsName,
    /// Its `www` name, built once: the zone, the web server, the scan's
    /// targets and serve's arrivals all share it (and the world's apex
    /// is its parent, sharing its buffer).
    pub www: DnsName,
    /// Current primary DNS provider.
    pub provider: ProviderId,
    /// Optional second provider (mixed NS sets, §4.2.3).
    pub secondary_provider: Option<ProviderId>,
    /// HTTPS participation.
    pub intent: HttpsIntent,
    /// Cloudflare proxied toggle (meaningful for `CfProxied`).
    pub proxied: bool,
    /// Day the domain first enables proxied (None = from day 0 or never).
    pub adoption_day: Option<u64>,
    /// Period (days) of proxied on/off toggling, if intermittent.
    pub toggle_period: Option<u64>,
    /// Scheduled NS migration: (day, new provider).
    pub migrate: Option<(u64, ProviderId)>,
    /// Day the delegation disappears entirely, if scheduled.
    pub undelegate_day: Option<u64>,
    /// Whether the www subdomain also publishes HTTPS when the apex does.
    pub www_https: bool,
    /// ECH participation (Cloudflare-operated, §4.4).
    pub ech_enabled: bool,
    /// DNSSEC: zone is signed.
    pub signed: bool,
    /// DNSSEC: DS uploaded to the parent (secure vs insecure).
    pub ds_uploaded: bool,
    /// The service's true current address.
    pub ip: Ipv4Addr,
    /// What the A record currently says (may lag `ip` after renumber).
    pub a_ip: Ipv4Addr,
    /// What the IP hints currently say (may lag `ip`).
    pub hint_ip: Ipv4Addr,
    /// Day the lagging A record catches up, if pending.
    pub pending_a_sync: Option<u64>,
    /// Day the lagging hint catches up, if pending.
    pub pending_hint_sync: Option<u64>,
    /// cf-ns style permanent hint mismatch (§4.3.5's 5 domains).
    pub permanent_mismatch: bool,
    /// Previous address still serving during a renumber transition.
    pub old_ip_live: Option<Ipv4Addr>,
}

impl DomainState {
    /// Whether the apex currently publishes HTTPS records (given its
    /// intent, proxied state, and today's provider policy support).
    pub fn publishes_https(&self, provider_supports: bool) -> bool {
        if !provider_supports {
            return false;
        }
        match self.intent {
            HttpsIntent::None => false,
            HttpsIntent::CfProxied(_) => self.proxied,
            HttpsIntent::NonCf(_) => true,
        }
    }

    /// The shape published (when active).
    pub fn shape(&self) -> Option<HttpsShape> {
        match self.intent {
            HttpsIntent::None => None,
            HttpsIntent::CfProxied(s) | HttpsIntent::NonCf(s) => Some(s),
        }
    }

    /// A deterministic IPv6 companion of an IPv4 address (for ipv6hint).
    pub fn v6_of(v4: Ipv4Addr) -> Ipv6Addr {
        let o = v4.octets();
        Ipv6Addr::new(
            0x2606,
            0x4700,
            0,
            0,
            0,
            0,
            u16::from_be_bytes([o[0], o[1]]),
            u16::from_be_bytes([o[2], o[3]]),
        )
    }

    /// Whether the hint currently disagrees with the A record.
    pub fn hint_mismatch(&self) -> bool {
        self.hint_ip != self.a_ip
    }
}

/// Inputs needed to synthesize today's HTTPS RRset for a domain.
#[derive(Debug, Clone)]
pub struct SynthesisContext {
    /// Day number.
    pub day: u64,
    /// Timeline landmarks (the h3-29 sunset, the ECH kill switch).
    pub landmarks: Landmarks,
    /// Current shared Cloudflare ECH config bytes.
    pub cf_ech_configs: Option<Vec<u8>>,
    /// Record TTL.
    pub ttl: u32,
}

/// Synthesize the HTTPS RDATA set for (domain, shape) at `ctx.day`.
pub fn synthesize_https(
    d: &DomainState,
    shape: HttpsShape,
    ctx: &SynthesisContext,
) -> Vec<SvcbRdata> {
    let hints = |rd: &mut Vec<SvcParam>| {
        rd.push(SvcParam::Ipv4Hint(vec![d.hint_ip]));
        rd.push(SvcParam::Ipv6Hint(vec![DomainState::v6_of(d.hint_ip)]));
    };
    let alpn = |ids: &[&str]| -> SvcParam {
        SvcParam::Alpn(ids.iter().map(|s| s.as_bytes().to_vec()).collect())
    };
    match shape {
        HttpsShape::CfDefault => {
            let mut params = Vec::new();
            if ctx.landmarks.advertises_h3_29(ctx.day) {
                params.push(alpn(&["h2", "h3", "h3-29"]));
            } else {
                params.push(alpn(&["h2", "h3"]));
            }
            hints(&mut params);
            if d.ech_enabled && ctx.landmarks.ech_live(ctx.day) {
                if let Some(cfg) = &ctx.cf_ech_configs {
                    params.push(SvcParam::Ech(cfg.clone()));
                }
            }
            vec![SvcbRdata::service_self(params)]
        }
        // Customized Cloudflare configs usually keep the IP hints while
        // narrowing alpn (the paper's §4.3.5: 97% of apexes carry hints).
        HttpsShape::CustomH2 => {
            let mut params = vec![alpn(&["h2"])];
            hints(&mut params);
            vec![SvcbRdata::service_self(params)]
        }
        HttpsShape::CustomH2H3 => vec![SvcbRdata::service_self(vec![alpn(&["h2", "h3"])])],
        HttpsShape::CustomNoAlpn => {
            let mut params = Vec::new();
            hints(&mut params);
            vec![SvcbRdata::service_self(params)]
        }
        HttpsShape::AliasToEndpoint => {
            vec![SvcbRdata::alias(DnsName::parse("park.secureserver.example.net").expect("static"))]
        }
        HttpsShape::AliasToWww => {
            vec![SvcbRdata::alias(d.www.clone())]
        }
        HttpsShape::AliasSelfDot => {
            vec![SvcbRdata { priority: 0, target: DnsName::root(), params: vec![] }]
        }
        HttpsShape::EmptyService => vec![SvcbRdata::service_self(vec![])],
        HttpsShape::OwnerH2 => vec![SvcbRdata::service_self(vec![alpn(&["h2"])])],
        HttpsShape::OwnerH3H2Hints => {
            let mut params = vec![alpn(&["h2", "h3"])];
            hints(&mut params);
            vec![SvcbRdata::service_self(params)]
        }
        HttpsShape::OwnerHttp11 => vec![SvcbRdata::service_self(vec![alpn(&["http/1.1"])])],
        HttpsShape::OwnerDraftAlpn => {
            vec![SvcbRdata::service_self(vec![alpn(&["h3-27", "h3-29"])])]
        }
        HttpsShape::IpLiteralTarget => vec![SvcbRdata {
            priority: 1,
            target: DnsName::parse("1.2.3.4").expect("static"),
            params: vec![SvcParam::Port(443)],
        }],
        HttpsShape::PriorityList => (1u16..=12)
            .map(|p| SvcbRdata {
                priority: p,
                target: DnsName::parse("geo-routing.nexuspipe.example").expect("static"),
                params: vec![SvcParam::Port(4000 + p)],
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::providers::well_known;
    use dns_wire::svcb::key;

    fn state(shape: HttpsShape) -> DomainState {
        DomainState {
            id: 1,
            apex: DnsName::parse("site00001.com").unwrap(),
            www: DnsName::parse("www.site00001.com").unwrap(),
            provider: well_known::CLOUDFLARE,
            secondary_provider: None,
            intent: HttpsIntent::CfProxied(shape),
            proxied: true,
            adoption_day: None,
            toggle_period: None,
            migrate: None,
            undelegate_day: None,
            www_https: true,
            ech_enabled: true,
            signed: false,
            ds_uploaded: false,
            ip: Ipv4Addr::new(10, 0, 0, 1),
            a_ip: Ipv4Addr::new(10, 0, 0, 1),
            hint_ip: Ipv4Addr::new(10, 0, 0, 1),
            pending_a_sync: None,
            pending_hint_sync: None,
            permanent_mismatch: false,
            old_ip_live: None,
        }
    }

    fn ctx(day: u64) -> SynthesisContext {
        SynthesisContext {
            day,
            landmarks: Landmarks::default(),
            cf_ech_configs: Some(vec![1, 2, 3]),
            ttl: 300,
        }
    }

    #[test]
    fn cf_default_has_h3_29_before_sunset() {
        let d = state(HttpsShape::CfDefault);
        let early = synthesize_https(&d, HttpsShape::CfDefault, &ctx(5));
        let offers = |rd: &SvcbRdata, id: &[u8]| matches!(rd.param(key::ALPN), Some(SvcParam::Alpn(ids)) if ids.iter().any(|p| p == id));
        assert!(offers(&early[0], b"h3-29"));
        let late = synthesize_https(&d, HttpsShape::CfDefault, &ctx(30));
        assert!(!offers(&late[0], b"h3-29"));
        assert!(offers(&late[0], b"h3"));
    }

    #[test]
    fn cf_default_drops_ech_after_kill_switch() {
        let d = state(HttpsShape::CfDefault);
        let before = synthesize_https(&d, HttpsShape::CfDefault, &ctx(100));
        assert!(before[0].param(key::ECH).is_some());
        let after = synthesize_https(&d, HttpsShape::CfDefault, &ctx(150));
        assert!(after[0].param(key::ECH).is_none());
    }

    #[test]
    fn cf_default_hints_follow_hint_ip() {
        let mut d = state(HttpsShape::CfDefault);
        d.hint_ip = Ipv4Addr::new(10, 9, 9, 9);
        d.a_ip = Ipv4Addr::new(10, 1, 1, 1);
        assert!(d.hint_mismatch());
        let rds = synthesize_https(&d, HttpsShape::CfDefault, &ctx(50));
        let hints = SvcParam::Ipv4Hint(vec![Ipv4Addr::new(10, 9, 9, 9)]);
        assert_eq!(rds[0].param(key::IPV4HINT), Some(&hints));
        assert!(rds[0].param(dns_wire::svcb::key::IPV6HINT).is_some());
    }

    #[test]
    fn priority_list_has_twelve_records() {
        let d = state(HttpsShape::PriorityList);
        let rds = synthesize_https(&d, HttpsShape::PriorityList, &ctx(10));
        assert_eq!(rds.len(), 12);
        assert_eq!(rds[0].priority, 1);
        assert_eq!(rds[11].priority, 12);
        assert_eq!(rds[3].param(key::PORT), Some(&SvcParam::Port(4004)));
    }

    #[test]
    fn broken_shapes_lint_dirty() {
        let d = state(HttpsShape::AliasSelfDot);
        let rds = synthesize_https(&d, HttpsShape::AliasSelfDot, &ctx(10));
        assert!(!rds[0].lint().is_empty());
        let rds = synthesize_https(&d, HttpsShape::IpLiteralTarget, &ctx(10));
        assert!(!rds[0].lint().is_empty());
        let rds = synthesize_https(&d, HttpsShape::EmptyService, &ctx(10));
        assert!(!rds[0].lint().is_empty());
    }

    #[test]
    fn publishes_https_respects_proxied_and_support() {
        let mut d = state(HttpsShape::CfDefault);
        assert!(d.publishes_https(true));
        d.proxied = false;
        assert!(!d.publishes_https(true));
        d.proxied = true;
        assert!(!d.publishes_https(false));
        d.intent = HttpsIntent::None;
        assert!(!d.publishes_https(true));
        d.intent = HttpsIntent::NonCf(HttpsShape::OwnerH2);
        assert!(d.publishes_https(true));
    }

    #[test]
    fn v6_companion_is_deterministic() {
        let a = DomainState::v6_of(Ipv4Addr::new(10, 1, 2, 3));
        let b = DomainState::v6_of(Ipv4Addr::new(10, 1, 2, 3));
        assert_eq!(a, b);
        assert_ne!(a, DomainState::v6_of(Ipv4Addr::new(10, 1, 2, 4)));
    }
}
