//! The simulated Internet: domains, providers, TLD/root DNSSEC
//! infrastructure, web servers, daily evolution events, and the
//! Cloudflare-style shared ECH rotation.
//!
//! `World::build` constructs the day-0 state as a pure function of the
//! config seed; `step_to_day` replays the study timeline (adoptions,
//! proxied toggles, NS migrations, renumbering with lagging records, the
//! h3-29 sunset, the ECH kill switch).
//!
//! Stepping has two halves. *State* — `DomainState`s, the clock, the ECH
//! key, address allocation and web bindings — advances day by day, in
//! order, because later days depend on earlier ones. The *published
//! view* derived from it — every authoritative zone, delegation and
//! today's Tranco list — is a pure function of the state, and is
//! materialized once per `step_to_day`/`advance_hours` call, for the
//! moment the call returns: nothing can query the world mid-call. The
//! contract is that on return the view matches the state, whatever the
//! size of the step; a domain whose zone went stale is rebuilt, one whose
//! HTTPS records alone did (an ECH rotation, a landmark day) is patched.

use crate::config::EcosystemConfig;
use crate::domain::{synthesize_https, DomainState, HttpsIntent, HttpsShape, SynthesisContext};
use crate::providers::{well_known, HttpsPolicy, ProviderCatalog, ProviderId};
use crate::tranco::{normal_sample, DailyList, TrancoModel};
use crate::whois::WhoisDb;
use authserver::{DelegationRegistry, NsEndpoint, Zone, ZoneSet};
use dns_wire::{DnsName, RData, Record, RecordType};
use dnssec::ZoneKeys;
use netsim::{Calendar, Network, SimClock, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;
use tlsech::{EchKeyManager, EchServerState, HttpServer, WebServer, WebServerConfig};

/// Cloudflare's shared ECH key state: one client-facing server
/// (`cloudflare-ech.com`) whose key rotates every 1.1–1.4 h.
pub struct CfEch {
    /// The key state, shared with every ECH-enabled world web server.
    keys: EchServerState,
    /// Simulated-seconds boundary at which the next rotation happens.
    next_boundary: u64,
    index: u64,
    mean_period: u64,
}

impl CfEch {
    fn new(mean_period: u64) -> CfEch {
        let public_name = DnsName::parse("cloudflare-ech.com").expect("static");
        let mut ech = CfEch {
            keys: EchServerState::new(EchKeyManager::new(public_name, "cf-ech", 2)),
            next_boundary: 0,
            index: 0,
            mean_period,
        };
        ech.next_boundary = ech.period_of(0);
        ech
    }

    /// Rotation period of interval `i`: 1.1–1.4 h around the mean.
    fn period_of(&self, i: u64) -> u64 {
        let step = self.mean_period / 14; // ~0.09 h granularity
        let pick = simcrypto::siphash::siphash24(&[7u8; 16], [i.to_le_bytes()]) % 5;
        // mean - 2*step .. mean + 2*step
        self.mean_period - 2 * step + pick * step
    }

    /// Advance rotation state to `now`; returns true when a rotation
    /// happened (records must be re-synced).
    pub fn refresh(&mut self, now: Timestamp) -> bool {
        let mut rotated = false;
        while now.0 >= self.next_boundary {
            self.keys.rotate("cf-ech");
            self.index += 1;
            self.next_boundary += self.period_of(self.index);
            rotated = true;
        }
        rotated
    }

    /// Current ECHConfigList bytes to publish.
    pub fn configs(&self) -> Vec<u8> {
        self.keys.configs()
    }

    /// Serving state for a client-facing server: the one shared key
    /// state, so the server opens what DNS advertises after every
    /// rotation.
    pub fn manager_state(&self) -> EchServerState {
        self.keys.clone()
    }
}

/// The complete simulated world.
pub struct World {
    /// Configuration used to build this world.
    pub config: EcosystemConfig,
    /// Shared simulation clock.
    pub clock: SimClock,
    /// Calendar anchored at 2023-05-08.
    pub calendar: Calendar,
    /// The simulated network.
    pub network: Network,
    /// Delegation registry.
    pub registry: DelegationRegistry,
    /// Provider infrastructure.
    pub catalog: ProviderCatalog,
    /// WHOIS database for NS attribution.
    pub whois: WhoisDb,
    /// All domain states, indexed by universe id.
    pub domains: Vec<DomainState>,
    /// The Tranco-like list model.
    pub tranco: TrancoModel,
    /// Cloudflare shared ECH state.
    pub cf_ech: CfEch,
    /// Current simulated day.
    pub current_day: u64,
    today: Arc<DailyList>,
    tld_zones: ZoneSet,
    web_servers: HashMap<u32, Arc<WebServer>>,
    /// The ALPN list every web server offers, shared by all of them.
    web_alpn: Arc<[String]>,
    next_ip: u32,
    schedule: DaySchedule,
    stats: StepStats,
}

/// Exact counts of the work world stepping has done since `build`
/// (`build`'s own day-0 materialization is not stepping and not counted).
/// Deterministic for a given config and call sequence; observational
/// only, never simulation state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Days whose state transitions were applied.
    pub days_applied: u64,
    /// Domain zones rebuilt from scratch (zone, delegation and all).
    pub zones_rebuilt: u64,
    /// Domains whose HTTPS RRsets were replaced inside their live zone.
    pub https_patched: u64,
    /// Tranco day lists requested for `today_list` (one per call that
    /// moved the day, whatever the distance).
    pub day_lists: u64,
}

/// What a state transition left stale in a domain's published view.
/// Ordered by strength (`None < Https < Zone`): when a domain collects
/// both kinds across a walk, the rebuild wins (it re-publishes the HTTPS
/// records too).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stale {
    /// Only the HTTPS RRsets (ECH rotation, landmark days): patch them.
    Https,
    /// NS, addresses, delegation or provider moved: rebuild the zone.
    Zone,
}

/// The per-day wake-up schedule behind dirty-set world stepping: instead
/// of sweeping every domain every day, [`World::apply_day`] visits only
/// the domains something can actually happen to. Scheduled lifecycle
/// events (adoptions, migrations, undelegations) are bucketed by day
/// once at build; toggling domains wake at their period boundaries; the
/// ECH and Cloudflare cohorts wake on rotation/landmark days; renumber
/// completions are queued at runtime when the renumber starts. Each day
/// is applied exactly once, so the per-day buckets are consumed.
#[derive(Default)]
struct DaySchedule {
    /// Build-time event buckets: day → domain indices with a scheduled
    /// adoption, NS migration, or undelegation on that day. Removed as
    /// the day is applied.
    events: HashMap<u64, Vec<u32>>,
    /// `(index, period)` of every periodically-toggling domain; dirty on
    /// each period boundary (`day % period == 0`), when its proxied
    /// parity flips.
    toggles: Vec<(u32, u64)>,
    /// Indices with Cloudflare-proxied intent: dirty on the days
    /// `Landmarks::forces_cf_resync` names (the h3-29 sunset, the ECH
    /// kill switch), which re-synthesize their HTTPS records.
    cf_ids: Vec<u32>,
    /// ECH-enabled indices: dirty whenever the shared key rotated (until
    /// the kill switch), since their HTTPS record bytes change.
    ech_ids: Vec<u32>,
    /// Runtime wheel: day → indices whose lagging A/hint record syncs
    /// that day. Filled when a renumber event schedules its catch-up.
    pending: HashMap<u64, Vec<u32>>,
    /// Domains eligible to renumber (population minus the build-time
    /// permanent-mismatch cohort, which never renumbers). Counted once
    /// here so the per-day sampler stays O(churn).
    renumber_eligible: usize,
}

impl DaySchedule {
    /// Bucket every statically-known wake-up from the populated domains.
    fn build(domains: &[DomainState]) -> DaySchedule {
        let mut s = DaySchedule::default();
        for (i, d) in domains.iter().enumerate() {
            let idx = i as u32;
            let events = [d.adoption_day, d.migrate.map(|(day, _)| day), d.undelegate_day];
            for day in events.into_iter().flatten() {
                s.events.entry(day).or_default().push(idx);
            }
            if let Some(period) = d.toggle_period {
                s.toggles.push((idx, period));
            }
            if matches!(d.intent, HttpsIntent::CfProxied(_)) {
                s.cf_ids.push(idx);
            }
            if d.ech_enabled {
                s.ech_ids.push(idx);
            }
            if !d.permanent_mismatch {
                s.renumber_eligible += 1;
            }
        }
        s
    }
}

const TLD_SERVER_IP: &str = "192.5.6.30";
const ROOT_SERVER_IP: &str = "198.41.0.4";

impl World {
    /// Build the day-0 world.
    pub fn build(config: EcosystemConfig) -> World {
        let clock = SimClock::new();
        let calendar = Calendar::paper();
        let network = Network::new(clock.clone());
        let registry = DelegationRegistry::new();
        let catalog = ProviderCatalog::build(&network);
        let tranco = TrancoModel::new(&config);
        let cf_ech = CfEch::new(config.ech_rotation_mean_secs);

        // WHOIS: provider NS blocks + a BYOIP carve-out in the NSONE
        // block (tail-attribution noise the paper warns about).
        let mut whois = WhoisDb::new();
        for (net_addr, org) in catalog.whois_blocks() {
            whois.allocate(net_addr, 24, org);
        }
        whois.allocate(
            Ipv4Addr::new(172, 16 + well_known::NSONE.0 as u8, 0, 128),
            26,
            "BYOIP Customer Org",
        );

        let mut world = World {
            config,
            clock,
            calendar,
            network,
            registry,
            catalog,
            whois,
            domains: Vec::new(),
            tranco,
            cf_ech,
            current_day: 0,
            today: Arc::new(DailyList::new(Vec::new())),
            tld_zones: ZoneSet::new(),
            web_servers: HashMap::new(),
            web_alpn: ["h2", "h3", "http/1.1"].map(String::from).into(),
            next_ip: 0,
            schedule: DaySchedule::default(),
            stats: StepStats::default(),
        };
        world.build_tld_infra();
        world.build_ns_suffix_zones();
        world.populate_domains();
        world.schedule = DaySchedule::build(&world.domains);
        let ctx = world.synthesis_context();
        for idx in 0..world.domains.len() {
            world.rebuild_zone(idx, &ctx);
            world.bind_web(idx);
        }
        world.today = Arc::new(world.tranco.list_for_day(0));
        world
    }

    /// Root + TLD zones with a full DNSSEC chain (root is the trust
    /// anchor; TLDs carry DS records for signed, DS-uploaded domains).
    fn build_tld_infra(&mut self) {
        let root_keys = ZoneKeys::derive(&DnsName::root(), 0);
        let mut root_zone = Zone::new(DnsName::root());
        root_zone.enable_signing(root_keys, 0, u32::MAX - 1);

        for tld in ["com", "net", "org"] {
            let apex = DnsName::parse(tld).expect("static");
            let keys = ZoneKeys::derive(&apex, 0);
            root_zone.add(keys.ds_record(86_400));
            let mut zone = Zone::new(apex.clone());
            zone.enable_signing(keys, 0, u32::MAX - 1);
            self.tld_zones.insert(zone);
            self.registry.delegate(
                &apex,
                &[NsEndpoint {
                    name: DnsName::parse(&format!("a.gtld.{tld}")).expect("static"),
                    ip: TLD_SERVER_IP.parse().expect("static"),
                }],
            );
        }
        let root_set = ZoneSet::new();
        root_set.insert(root_zone);
        self.network.bind_datagram(
            ROOT_SERVER_IP.parse().expect("static"),
            53,
            Arc::new(authserver::AuthoritativeServer::new(root_set)),
        );
        self.registry.delegate(
            &DnsName::root(),
            &[NsEndpoint {
                name: DnsName::parse("a.root-servers.net").expect("static"),
                ip: ROOT_SERVER_IP.parse().expect("static"),
            }],
        );
        self.network.bind_datagram(
            TLD_SERVER_IP.parse().expect("static"),
            53,
            Arc::new(authserver::AuthoritativeServer::new(self.tld_zones.clone())),
        );
    }

    /// Each provider serves a zone for its own NS names (glue), so the
    /// scanner can resolve name-server addresses through the DNS itself.
    fn build_ns_suffix_zones(&mut self) {
        for infra in self.catalog.all() {
            let Ok(apex) = DnsName::parse(infra.spec.ns_suffix) else { continue };
            let mut zone = Zone::new(apex.clone());
            for ep in &infra.endpoints {
                if let IpAddr::V4(v4) = ep.ip {
                    zone.add(Record::new(ep.name.clone(), 3600, RData::A(v4)));
                }
            }
            infra.zones.insert(zone);
            self.registry.delegate(&apex, &infra.endpoints);
        }
    }

    /// Maximum unique addresses the 10.0.0.0/8 allocation plan yields
    /// (256 × 250 × 250): past this the first octet computation would
    /// wrap and start re-issuing addresses.
    const IP_PLAN_CAPACITY: u32 = 16_000_000;

    fn alloc_ip(&mut self) -> Ipv4Addr {
        let n = self.next_ip;
        assert!(
            n < Self::IP_PLAN_CAPACITY,
            "IPv4 allocation plan exhausted after {n} addresses; \
             duplicate addresses would follow"
        );
        self.next_ip += 1;
        Ipv4Addr::new(10, (n / 62_500) as u8, ((n / 250) % 250) as u8, (n % 250 + 1) as u8)
    }

    /// Create all domain states per the configured mix.
    fn populate_domains(&mut self) {
        let cfg = self.config.clone();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD0_0D);
        let days = cfg.study_days();

        // Provider assignment plan for non-CF HTTPS adopters.
        let mut noncf_plan: Vec<(ProviderId, HttpsShape, &'static str)> = Vec::new();
        for (count, org) in &cfg.noncf_adopters {
            let provider = match *org {
                "eName" => well_known::ENAME,
                "Google" => well_known::GOOGLE,
                "GoDaddy" => well_known::GODADDY,
                "NSONE" => well_known::NSONE,
                "Domeneshop" => well_known::DOMENESHOP,
                "Hover" => well_known::HOVER,
                "Gentoo" => well_known::SELFHOST,
                "JPBerlin" => well_known::JPBERLIN,
                _ => well_known::LEGACY,
            };
            for k in 0..*count {
                let shape = match provider {
                    well_known::GODADDY => {
                        if k == 0 {
                            HttpsShape::OwnerH3H2Hints
                        } else {
                            HttpsShape::AliasToEndpoint
                        }
                    }
                    well_known::GOOGLE => {
                        if k == 0 {
                            HttpsShape::AliasToWww // the err.ee analogue
                        } else if k == 1 {
                            HttpsShape::OwnerH2
                        } else {
                            HttpsShape::EmptyService
                        }
                    }
                    well_known::SELFHOST => HttpsShape::OwnerDraftAlpn,
                    well_known::JPBERLIN => HttpsShape::OwnerHttp11,
                    _ => {
                        if k % 5 == 4 {
                            HttpsShape::EmptyService
                        } else {
                            HttpsShape::OwnerH2
                        }
                    }
                };
                noncf_plan.push((provider, shape, org));
            }
        }

        let mut specials_left = [1usize, 1, 2]; // AliasSelfDot, IpLiteralTarget, PriorityList
        let mut toggles_left = cfg.toggling_domains;
        let mut migrations_left = cfg.migrating_domains;
        let mut mixed_left = cfg.mixed_ns_domains;
        let mut undelegated_left = cfg.undelegated_domains;
        let mut perm_mismatch_left = cfg.permanent_mismatch_domains;

        for id in 0..cfg.population as u32 {
            let tld = ["com", "net", "org"][(id % 3) as usize];
            let www = DnsName::parse(&format!("www.site{id:05}.{tld}")).expect("generated");
            let apex = www.parent().expect("www has a parent");
            let ip = self.alloc_ip();

            let roll: f64 = rng.gen();
            let (provider, intent): (ProviderId, HttpsIntent) = if roll < cfg.cloudflare_share {
                // Cloudflare customer.
                let shape = if rng.gen_bool(cfg.customized_rate) {
                    if specials_left[0] > 0 && rng.gen_bool(0.02) {
                        specials_left[0] -= 1;
                        HttpsShape::AliasSelfDot
                    } else if specials_left[1] > 0 && rng.gen_bool(0.02) {
                        specials_left[1] -= 1;
                        HttpsShape::IpLiteralTarget
                    } else if specials_left[2] > 0 && rng.gen_bool(0.02) {
                        specials_left[2] -= 1;
                        HttpsShape::PriorityList
                    } else {
                        let c: f64 = rng.gen();
                        if c < 0.93 {
                            HttpsShape::CustomH2
                        } else if c < 0.96 {
                            HttpsShape::CustomH2H3
                        } else {
                            HttpsShape::CustomNoAlpn
                        }
                    }
                } else {
                    HttpsShape::CfDefault
                };
                (well_known::CLOUDFLARE, HttpsIntent::CfProxied(shape))
            } else if roll < cfg.cloudflare_share + cfg.cf_china_share {
                (well_known::CF_CHINA, HttpsIntent::CfProxied(HttpsShape::CfDefault))
            } else if let Some((provider, shape, _)) = noncf_plan.pop() {
                (provider, HttpsIntent::NonCf(shape))
            } else {
                // Bulk non-adopters, spread over the non-CF providers with
                // the legacy registrar dominating.
                let p = match rng.gen_range(0..10) {
                    0 => well_known::GODADDY,
                    1 => well_known::GOOGLE,
                    2 => well_known::ENAME,
                    3 => well_known::NSONE,
                    _ => well_known::LEGACY,
                };
                (p, HttpsIntent::None)
            };

            let is_cf = matches!(intent, HttpsIntent::CfProxied(_));
            let proxied0 = is_cf && rng.gen_bool(cfg.proxied_rate_day0);
            let adoption_day = match &intent {
                HttpsIntent::CfProxied(_) if !proxied0 => {
                    let p_total = (cfg.proxied_daily_enable * days as f64).min(0.9);
                    if rng.gen_bool(p_total) {
                        Some(rng.gen_range(1..days))
                    } else {
                        None
                    }
                }
                // Non-CF adopters activate over the study (Fig 3's rise).
                HttpsIntent::NonCf(_) if rng.gen_bool(0.6) => Some(rng.gen_range(0..days * 2 / 3)),
                _ => None,
            };

            let publishes_eventually = !matches!(intent, HttpsIntent::None);
            let signed_rate = if !publishes_eventually {
                cfg.signed_rate_no_https
            } else if is_cf {
                cfg.signed_rate_cf_https
            } else {
                cfg.signed_rate_noncf_https
            };
            let signed = rng.gen_bool(signed_rate);
            let ds_rate = if !publishes_eventually {
                cfg.ds_rate_no_https
            } else if is_cf {
                cfg.ds_rate_cf_https
            } else {
                cfg.ds_rate_noncf_https
            };
            let ds_uploaded = signed && rng.gen_bool(ds_rate);

            let toggle_period = if is_cf && proxied0 && toggles_left > 0 && rng.gen_bool(0.25) {
                toggles_left -= 1;
                Some(cfg.toggle_period_days + (id as u64 % 5))
            } else {
                None
            };
            let migrate = if is_cf
                && proxied0
                && toggle_period.is_none()
                && migrations_left > 0
                && rng.gen_bool(0.2)
            {
                migrations_left -= 1;
                Some((rng.gen_range(days / 4..days * 3 / 4), well_known::LEGACY))
            } else {
                None
            };
            let secondary_provider = if is_cf && proxied0 && mixed_left > 0 && rng.gen_bool(0.2) {
                mixed_left -= 1;
                Some(well_known::LEGACY)
            } else {
                None
            };
            let undelegate_day = if is_cf && proxied0 && undelegated_left > 0 && rng.gen_bool(0.1) {
                undelegated_left -= 1;
                Some(rng.gen_range(days / 2..days))
            } else {
                None
            };
            let permanent_mismatch = (provider == well_known::CF_CHINA
                || (is_cf && proxied0 && rng.gen_bool(0.03)))
                && perm_mismatch_left > 0
                && {
                    perm_mismatch_left -= 1;
                    true
                };

            // ECH rides Cloudflare's auto-activation for free (default
            // config) zones; customized/paid zones rarely carry it.
            let is_default_shape = matches!(intent, HttpsIntent::CfProxied(HttpsShape::CfDefault));
            let ech_enabled = is_default_shape && rng.gen_bool(cfg.ech_rate_apex);
            let hint_ip = if permanent_mismatch { self.alloc_ip() } else { ip };

            self.domains.push(DomainState {
                id,
                apex,
                www,
                provider,
                secondary_provider,
                intent,
                proxied: proxied0,
                adoption_day,
                toggle_period,
                migrate,
                undelegate_day,
                www_https: rng.gen_bool(cfg.www_https_rate),
                ech_enabled,
                signed,
                ds_uploaded,
                ip,
                a_ip: ip,
                hint_ip,
                pending_a_sync: None,
                pending_hint_sync: None,
                permanent_mismatch,
                old_ip_live: None,
            });
        }

        // DS records for signed + uploaded domains go into their TLD zone.
        for d in &self.domains {
            if d.signed && d.ds_uploaded {
                let keys = ZoneKeys::derive(&d.apex, 0);
                let tld = d.apex.parent().expect("apex has a TLD");
                self.tld_zones.with_zone(&tld, |z| z.add(keys.ds_record(86_400)));
            }
        }
    }

    /// Whether a provider's servers publish HTTPS records for customers.
    pub fn provider_supports_https(&self, id: ProviderId) -> bool {
        self.catalog.get(id).spec.policy != HttpsPolicy::Unsupported
    }

    /// Whether a domain publishes HTTPS records today (apex). A domain
    /// whose delegation has been removed publishes nothing observable.
    pub fn publishes_today(&self, d: &DomainState) -> bool {
        if d.undelegate_day.is_some_and(|ud| self.current_day >= ud) {
            return false;
        }
        let supports = self.provider_supports_https(d.provider);
        let active = match d.intent {
            HttpsIntent::NonCf(_) => d.adoption_day.is_none_or(|ad| self.current_day >= ad),
            _ => true,
        };
        active && d.publishes_https(supports)
    }

    /// (Re)materialize a domain's zone(s) and delegation from its current
    /// state. A pure function of (domain state, `current_day`, `cf_ech`,
    /// config): calling it on a consistent world changes nothing.
    pub fn sync_domain(&mut self, idx: usize) {
        self.rebuild_zone(idx, &self.synthesis_context());
    }

    /// The day-dependent inputs of HTTPS synthesis, as of now. Encodes
    /// the shared ECHConfigList, so build one per batch of domains.
    fn synthesis_context(&self) -> SynthesisContext {
        SynthesisContext {
            day: self.current_day,
            landmarks: self.config.landmarks,
            cf_ech_configs: Some(self.cf_ech.configs()),
            ttl: self.config.cf_https_ttl,
        }
    }

    /// The HTTPS RRsets `d` publishes today at its apex and at `www`
    /// (empty when it publishes none). The one place HTTPS records are
    /// synthesized, so a rebuilt and a patched zone cannot disagree.
    fn https_rrsets(&self, d: &DomainState, ctx: &SynthesisContext) -> (Vec<Record>, Vec<Record>) {
        let mut at_apex = Vec::new();
        let mut at_www = Vec::new();
        if self.publishes_today(d) {
            if let Some(shape) = d.shape() {
                for rd in synthesize_https(d, shape, ctx) {
                    if d.www_https {
                        at_www.push(Record::new(d.www.clone(), ctx.ttl, RData::Https(rd.clone())));
                    }
                    at_apex.push(Record::new(d.apex.clone(), ctx.ttl, RData::Https(rd)));
                }
            }
        }
        (at_apex, at_www)
    }

    /// Build a domain's zone at its primary (and mixed secondary)
    /// provider from scratch and (un)delegate it.
    fn rebuild_zone(&self, idx: usize, ctx: &SynthesisContext) {
        let d = &self.domains[idx];
        let primary = self.catalog.get(d.provider);

        let build_zone = |with_https: bool| -> Zone {
            let mut zone = Zone::new(d.apex.clone());
            // NS records reflect the full (possibly mixed) NS set.
            let mut ns_names: Vec<DnsName> =
                primary.endpoints.iter().map(|e| e.name.clone()).collect();
            if let Some(sec) = d.secondary_provider {
                ns_names.extend(self.catalog.get(sec).endpoints.iter().map(|e| e.name.clone()));
            }
            for ns in &ns_names {
                zone.add(Record::new(d.apex.clone(), 3600, RData::Ns(ns.clone())));
            }
            zone.add(Record::new(d.apex.clone(), ctx.ttl, RData::A(d.a_ip)));
            zone.add(Record::new(d.apex.clone(), ctx.ttl, RData::Aaaa(DomainState::v6_of(d.a_ip))));
            zone.add(Record::new(d.www.clone(), ctx.ttl, RData::A(d.a_ip)));
            if with_https {
                let (at_apex, at_www) = self.https_rrsets(d, ctx);
                for record in at_apex.into_iter().chain(at_www) {
                    zone.add(record);
                }
            }
            if d.signed {
                zone.enable_signing(ZoneKeys::derive(&d.apex, 0), 0, u32::MAX - 1);
            }
            zone
        };

        primary.zones.insert(build_zone(true));
        // A mixed secondary provider serves the same zone *without*
        // HTTPS records when it does not support them.
        if let Some(sec) = d.secondary_provider {
            let sec_supports = self.provider_supports_https(sec);
            self.catalog.get(sec).zones.insert(build_zone(sec_supports));
        }

        // Delegation: primary endpoints (+ secondary's for mixed sets),
        // unless the domain has lost its delegation.
        if d.undelegate_day.is_none_or(|ud| ctx.day < ud) {
            match d.secondary_provider {
                None => self.registry.delegate(&d.apex, &primary.endpoints),
                Some(sec) => {
                    let secondary = &self.catalog.get(sec).endpoints;
                    let mixed: Vec<NsEndpoint> =
                        primary.endpoints.iter().chain(secondary).cloned().collect();
                    self.registry.delegate(&d.apex, &mixed);
                }
            }
        } else {
            self.registry.undelegate(&d.apex);
        }
    }

    /// Replace only a domain's HTTPS RRsets inside its live zone(s): what
    /// an ECH rotation or a landmark day costs. Everything else in the
    /// zone, its keys and its delegation are current by the stepping
    /// invariant; signatures are made at answer time.
    fn patch_https(&self, idx: usize, ctx: &SynthesisContext) {
        let d = &self.domains[idx];
        // A secondary that does not support HTTPS serves none to patch.
        let secondary = d.secondary_provider.filter(|&sec| self.provider_supports_https(sec));
        for provider in std::iter::once(d.provider).chain(secondary) {
            let (at_apex, at_www) = self.https_rrsets(d, ctx);
            self.catalog
                .get(provider)
                .zones
                .with_zone(&d.apex, |zone| {
                    zone.set(d.apex.clone(), RecordType::Https, at_apex);
                    zone.set(d.www.clone(), RecordType::Https, at_www);
                })
                .expect("every domain has a zone at its providers since build");
        }
    }

    /// Bring every stale domain's published view up to the current state,
    /// once each: a zone rebuild where the zone went stale, an HTTPS
    /// patch where only its HTTPS records did.
    fn materialize(&mut self, stale: &[Option<Stale>]) {
        let ctx = self.synthesis_context();
        for (idx, kind) in stale.iter().enumerate() {
            match kind {
                None => {}
                Some(Stale::Zone) => {
                    self.rebuild_zone(idx, &ctx);
                    self.stats.zones_rebuilt += 1;
                }
                Some(Stale::Https) => {
                    self.patch_https(idx, &ctx);
                    self.stats.https_patched += 1;
                }
            }
        }
    }

    /// Bind (or re-bind) a domain's web servers at its current address.
    fn bind_web(&mut self, idx: usize) {
        let d = &self.domains[idx];
        let server = Arc::new(WebServer::new(
            self.network.clone(),
            WebServerConfig {
                cert_names: vec![d.apex.clone(), d.www.clone()],
                alpn: self.web_alpn.clone(),
            },
        ));
        if d.ech_enabled {
            server.enable_ech(self.cf_ech.manager_state());
        }
        self.network.bind_stream(IpAddr::V4(d.ip), 443, server.clone());
        // Permanent-mismatch domains (cf-ns style) advertise a second,
        // also-live anycast address in their hints.
        if d.permanent_mismatch {
            self.network.bind_stream(IpAddr::V4(d.hint_ip), 443, server.clone());
        }
        self.network.bind_stream(IpAddr::V4(d.ip), 80, Arc::new(HttpServer { host: d.apex.key() }));
        self.web_servers.insert(d.id, server);
    }

    /// Advance the world to `day`. State transitions are applied for
    /// every intermediate day, in order; the views derived from that
    /// state — zones, delegations, today's list — are materialized once,
    /// for `day`, since nothing can query the world in between. On return
    /// the world is exactly what stepping one day per call leaves.
    pub fn step_to_day(&mut self, day: u64) {
        assert!(day >= self.current_day, "world time is monotonic");
        if day == self.current_day {
            return;
        }
        // One slot per domain, owned by this call: however many days are
        // walked, a domain is materialized once, by its strongest kind.
        let mut stale = vec![None; self.domains.len()];
        while self.current_day < day {
            self.apply_day(self.current_day + 1, &mut stale);
        }
        self.materialize(&stale);
        self.today = Arc::new(self.tranco.list_for_day(day));
        self.stats.day_lists += 1;
    }

    /// Apply one day of state transitions via the dirty set: the union of
    /// the day's scheduled events, toggle boundaries, sampled renumber
    /// starts, queued record syncs, and the rotation/landmark cohorts.
    /// Only those domains are visited; cost is proportional to churn,
    /// not population. Everything order-dependent (address allocation,
    /// web bindings, the pending wheel) happens here, day by day; what a
    /// visit leaves stale in the published view is recorded in `stale`
    /// (indexed like `domains`) for the caller to materialize.
    fn apply_day(&mut self, day: u64, stale: &mut [Option<Stale>]) {
        self.current_day = day;
        self.clock.set(Timestamp(day * 86_400));
        let rotated = self.cf_ech.refresh(self.clock.now());
        let lm = self.config.landmarks;

        // A day is applied exactly once: both buckets are consumed.
        let mut dirty: Vec<u32> = self.schedule.events.remove(&day).unwrap_or_default();
        if let Some(mut due) = self.schedule.pending.remove(&day) {
            dirty.append(&mut due);
        }
        for &(idx, period) in &self.schedule.toggles {
            if day.is_multiple_of(period) {
                dirty.push(idx);
            }
        }
        if lm.forces_cf_resync(day) {
            dirty.extend_from_slice(&self.schedule.cf_ids);
        } else if rotated && lm.ech_live(day) {
            // ECH domains are a subset of the Cloudflare cohort, so the
            // landmark branch above already covers them on those days.
            dirty.extend_from_slice(&self.schedule.ech_ids);
        }
        let renumbers = self.sample_renumbers(day);
        dirty.extend_from_slice(&renumbers);
        dirty.sort_unstable();
        dirty.dedup();

        for &idx in &dirty {
            let renumber = renumbers.binary_search(&idx).is_ok();
            let (went_stale, rebind) = self.visit_domain(idx as usize, day, rotated, renumber);
            if rebind {
                self.finish_renumber(idx as usize);
            }
            let slot = &mut stale[idx as usize];
            *slot = (*slot).max(went_stale);
        }
        self.stats.days_applied += 1;
    }

    /// Sample the set of domains that renumber on `day` (ascending,
    /// deduplicated). The per-day renumber volume is Poisson with mean
    /// `population × rate` — the same expected churn as the historical
    /// per-domain Bernoulli sweep, drawn in O(churn) instead of
    /// O(population). Permanent-mismatch domains never renumber.
    fn sample_renumbers(&self, day: u64) -> Vec<u32> {
        let n = self.domains.len();
        if n == 0 {
            return Vec::new();
        }
        let rate = if day < self.config.landmarks.hint_fix {
            self.config.renumber_rate_early
        } else {
            self.config.renumber_rate_late
        };
        let mut rng =
            StdRng::seed_from_u64(self.config.seed ^ 0x4E17_5E1E ^ day.wrapping_mul(0x1000_0001));
        let eligible = self.schedule.renumber_eligible;
        let count = poisson_sample(&mut rng, rate * eligible as f64).min(eligible);
        let mut picked: Vec<u32> = Vec::with_capacity(count);
        while picked.len() < count {
            let idx = rng.gen_range(0..n as u64) as u32;
            if self.domains[idx as usize].permanent_mismatch || picked.contains(&idx) {
                continue;
            }
            picked.push(idx);
        }
        picked.sort_unstable();
        picked
    }

    /// Apply every day-`day` state transition to one domain; returns
    /// `(what went stale, needs renumber completion)`. Mirrors the checks
    /// the historical full sweep ran per domain — the dirty set decides
    /// who gets visited, this decides what actually changed. Every input
    /// of `rebuild_zone`/`https_rrsets` that can change must be reported
    /// here: with materialization deferred to the end of a walk, a missed
    /// one is a zone that stays stale, not a one-day glitch.
    fn visit_domain(
        &mut self,
        idx: usize,
        day: u64,
        rotated: bool,
        renumber: bool,
    ) -> (Option<Stale>, bool) {
        let lm = self.config.landmarks;
        let hint_lag_mean_days = self.config.hint_lag_mean_days;
        let seed = self.config.seed;
        let mut went_stale: Option<Stale> = None;
        let mut rebind = false;
        let mut pending_wake: Option<u64> = None;
        let mut left_provider: Option<ProviderId> = None;
        {
            let d = &mut self.domains[idx];

            // Scheduled adoption (Cloudflare proxied enable or non-CF
            // activation; either way the records must re-synthesize).
            if d.adoption_day == Some(day) {
                if let HttpsIntent::CfProxied(_) = d.intent {
                    d.proxied = true;
                }
                went_stale = Some(Stale::Zone);
            }
            // Periodic proxied toggling (§4.2.3 same-NS intermittency).
            if let Some(period) = d.toggle_period {
                let on = (day / period).is_multiple_of(2);
                if d.proxied != on {
                    d.proxied = on;
                    went_stale = Some(Stale::Zone);
                }
            }
            // NS migration (§4.2.3): provider change loses the record.
            if let Some((md, new_provider)) = d.migrate {
                if md == day {
                    let old = std::mem::replace(&mut d.provider, new_provider);
                    if old != new_provider && d.secondary_provider != Some(old) {
                        left_provider = Some(old);
                    }
                    went_stale = Some(Stale::Zone);
                }
            }
            if d.undelegate_day == Some(day) {
                went_stale = Some(Stale::Zone);
            }

            // Renumbering with lagging records (§4.3.5); membership was
            // sampled in `sample_renumbers`, the follow-up draws (which
            // record lags and for how long) come from the domain's own
            // per-day stream.
            if renumber {
                let mut rng = StdRng::seed_from_u64(
                    seed ^ 0x4E17 ^ day.wrapping_mul(0x1000_0001) ^ d.id as u64,
                );
                let old = d.ip;
                // Allocate outside the borrow below.
                d.old_ip_live = if rng.gen_bool(0.8) { Some(old) } else { None };
                let lag = 1 + rng.gen_range(0..(2.0 * hint_lag_mean_days) as u64 + 1);
                // Direction: 65% the A record lags (reachable only via
                // hints), 35% the hint lags.
                let a_lags = rng.gen_bool(0.65);
                d.pending_a_sync = a_lags.then_some(day + lag);
                d.pending_hint_sync = (!a_lags).then_some(day + lag);
                pending_wake = Some(day + lag);
                went_stale = Some(Stale::Zone);
                rebind = true;
            }
            // Pending syncs completing today.
            if d.pending_a_sync == Some(day) {
                d.pending_a_sync = None;
                d.a_ip = d.ip;
                d.old_ip_live = None;
                went_stale = Some(Stale::Zone);
            }
            if d.pending_hint_sync == Some(day) {
                d.pending_hint_sync = None;
                d.hint_ip = d.ip;
                d.old_ip_live = None;
                went_stale = Some(Stale::Zone);
            }

            // Landmark days re-synthesize Cloudflare's HTTPS records,
            // and an ECH rotation changes the ECH domains' record bytes;
            // neither touches anything else in the zone.
            if (lm.forces_cf_resync(day) && matches!(d.intent, HttpsIntent::CfProxied(_)))
                || (rotated && d.ech_enabled && lm.ech_live(day))
            {
                went_stale = went_stale.max(Some(Stale::Https));
            }
        }
        if let Some(wake) = pending_wake {
            self.schedule.pending.entry(wake).or_default().push(idx as u32);
        }
        if let Some(old) = left_provider {
            // The provider the domain left stops serving its zone. Nothing
            // could reach it (the delegation moves with the rebuild), and
            // a zone nobody re-syncs would freeze at whatever day it was
            // last materialized.
            self.catalog.get(old).zones.remove(&self.domains[idx].apex);
        }
        (went_stale, rebind)
    }

    /// Complete a renumber started in `apply_day`: allocate the new
    /// address, move fields, rebind web servers.
    fn finish_renumber(&mut self, idx: usize) {
        let new_ip = self.alloc_ip();
        let (old_ip, keep_old) = {
            let d = &mut self.domains[idx];
            let old = d.ip;
            d.ip = new_ip;
            // Whichever record is not lagging follows immediately.
            if d.pending_a_sync.is_none() {
                d.a_ip = new_ip;
            }
            if d.pending_hint_sync.is_none() {
                d.hint_ip = new_ip;
            }
            (old, d.old_ip_live.is_some())
        };
        if !keep_old {
            self.network.unbind_stream(IpAddr::V4(old_ip), 443);
            self.network.unbind_stream(IpAddr::V4(old_ip), 80);
        }
        self.bind_web(idx);
    }

    /// Advance within the current day by whole hours (for the §4.4.2
    /// hourly ECH scans). Like [`World::step_to_day`]: rotations are
    /// applied hour by hour, the ECH cohort's records (the build-time
    /// cohort; membership never changes) are re-published once on return.
    pub fn advance_hours(&mut self, hours: u64) {
        let mut rotated = false;
        for _ in 0..hours {
            self.clock.advance(3_600);
            rotated |= self.cf_ech.refresh(self.clock.now());
        }
        if rotated && self.config.landmarks.ech_live(self.current_day) {
            let mut stale = vec![None; self.domains.len()];
            for &idx in &self.schedule.ech_ids {
                stale[idx as usize] = Some(Stale::Https);
            }
            self.materialize(&stale);
        }
    }

    /// What stepping has cost so far; see [`StepStats`].
    pub fn step_stats(&self) -> StepStats {
        self.stats
    }

    /// Today's Tranco list.
    pub fn today_list(&self) -> &DailyList {
        &self.today
    }

    /// Today's Tranco list as the one `Arc` the world scored when it
    /// landed on this day, so takers share it and keep no private copy
    /// alive.
    pub fn today_list_shared(&self) -> Arc<DailyList> {
        self.today.clone()
    }

    /// Look up a domain by universe id.
    pub fn domain(&self, id: u32) -> &DomainState {
        &self.domains[id as usize]
    }

    /// The web server currently bound for a domain (if any).
    pub fn web_server_of(&self, id: u32) -> Option<&Arc<WebServer>> {
        self.web_servers.get(&id)
    }
}

/// Deterministic Poisson(λ) sample. Knuth's product method for small λ;
/// a clamped normal approximation for large λ (where the product method
/// underflows and its cost grows linearly anyway). Used to draw per-day
/// renumber volumes in O(churn) instead of per-domain Bernoulli sweeps.
fn poisson_sample(rng: &mut StdRng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 64.0 {
        let limit = (-lambda).exp();
        let mut k = 0usize;
        let mut product: f64 = rng.gen_range(0.0..1.0);
        while product > limit {
            k += 1;
            product *= rng.gen_range(0.0..1.0);
        }
        k
    } else {
        let sampled = lambda + lambda.sqrt() * normal_sample(rng);
        sampled.round().max(0.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::RecordType;

    fn tiny_world() -> World {
        World::build(EcosystemConfig::tiny())
    }

    #[test]
    fn build_is_deterministic() {
        let a = tiny_world();
        let b = tiny_world();
        assert_eq!(a.domains.len(), b.domains.len());
        for (x, y) in a.domains.iter().zip(&b.domains) {
            assert_eq!(x.apex, y.apex);
            assert_eq!(x.provider, y.provider);
            assert_eq!(x.proxied, y.proxied);
            assert_eq!(x.ip, y.ip);
        }
    }

    #[test]
    fn adoption_rate_is_plausible() {
        let w = tiny_world();
        let adopters = w.domains.iter().filter(|d| w.publishes_today(d)).count();
        let frac = adopters as f64 / w.domains.len() as f64;
        assert!((0.10..0.35).contains(&frac), "day-0 adoption {frac}");
    }

    #[test]
    fn stepping_days_changes_state() {
        let mut w = tiny_world();
        let day0 = w.domains.iter().filter(|d| w.publishes_today(d)).count();
        w.step_to_day(100);
        assert_eq!(w.current_day, 100);
        assert_eq!(w.clock.now(), netsim::Timestamp(100 * 86_400));
        let day100 = w.domains.iter().filter(|d| w.publishes_today(d)).count();
        // Adoption grows over time in the dynamic universe.
        assert!(day100 >= day0, "{day100} vs {day0}");
    }

    #[test]
    fn ech_disappears_after_kill_switch() {
        let mut w = tiny_world();
        let lm = w.config.landmarks;
        w.step_to_day(lm.ech_disable - 1);
        let has_ech_before = w.domains.iter().any(|d| {
            d.ech_enabled
                && w.publishes_today(d)
                && matches!(d.intent, HttpsIntent::CfProxied(HttpsShape::CfDefault))
        });
        assert!(has_ech_before);
        // Check an actual zone's record bytes.
        let probe = w
            .domains
            .iter()
            .find(|d| {
                d.ech_enabled && w.publishes_today(d) && d.shape() == Some(HttpsShape::CfDefault)
            })
            .expect("an ECH domain exists")
            .clone();
        let infra = w.catalog.get(probe.provider);
        let has_ech_param = infra
            .zones
            .read_zone(&probe.apex, |z| {
                z.get(&probe.apex, RecordType::Https)
                    .map(|rs| {
                        rs.records().any(|r| match &r.rdata {
                            RData::Https(rd) => rd.param(dns_wire::svcb::key::ECH).is_some(),
                            _ => false,
                        })
                    })
                    .unwrap_or(false)
            })
            .unwrap_or(false);
        assert!(has_ech_param, "ECH param present before the kill switch");

        w.step_to_day(lm.ech_disable);
        let infra = w.catalog.get(probe.provider);
        let has_ech_param = infra
            .zones
            .read_zone(&probe.apex, |z| {
                z.get(&probe.apex, RecordType::Https)
                    .map(|rs| {
                        rs.records().any(|r| match &r.rdata {
                            RData::Https(rd) => rd.param(dns_wire::svcb::key::ECH).is_some(),
                            _ => false,
                        })
                    })
                    .unwrap_or(false)
            })
            .unwrap_or(false);
        assert!(!has_ech_param, "ECH param gone after the kill switch");
    }

    #[test]
    fn hourly_advance_rotates_ech_keys() {
        let mut w = tiny_world();
        let before = w.cf_ech.configs();
        w.advance_hours(3); // > 1.4h guarantees at least one rotation
        let after = w.cf_ech.configs();
        assert_ne!(before, after, "ECH config must rotate within 3 hours");
    }

    #[test]
    fn rotation_period_in_paper_range() {
        let w = tiny_world();
        for i in 0..50 {
            let p = w.cf_ech.period_of(i);
            let hours = p as f64 / 3600.0;
            assert!((1.05..=1.45).contains(&hours), "period {hours}h out of range");
        }
    }

    #[test]
    fn toggling_domain_loses_and_regains_record() {
        let mut w = tiny_world();
        let Some(probe) = w.domains.iter().find(|d| d.toggle_period.is_some()).map(|d| d.id) else {
            panic!("tiny config guarantees toggling domains");
        };
        let period = w.domain(probe).toggle_period.unwrap();
        let mut states = Vec::new();
        for day in (0..6 * period).step_by(period as usize) {
            w.step_to_day(day.max(w.current_day));
            states.push(w.publishes_today(w.domain(probe)));
        }
        assert!(states.contains(&true) && states.contains(&false), "{states:?}");
    }

    #[test]
    fn web_servers_reachable_at_domain_ip() {
        let w = tiny_world();
        let d = &w.domains[0];
        assert!(w.network.can_connect(IpAddr::V4(d.ip), 443).is_ok());
        assert!(w.network.can_connect(IpAddr::V4(d.ip), 80).is_ok());
    }

    #[test]
    fn dropping_the_world_frees_its_web_servers() {
        // Each web server sends through the network it is bound into; an
        // owning handle there is a cycle that outlives the world.
        let w = tiny_world();
        let server = Arc::downgrade(w.web_server_of(0).expect("domain 0 is bound"));
        assert!(server.upgrade().is_some());
        drop(w);
        assert!(server.upgrade().is_none(), "a bound web server outlived its world");
    }

    #[test]
    fn poisson_sampler_tracks_mean_in_both_regimes() {
        // Small-λ Knuth product method and large-λ normal approximation
        // must both land near the requested mean.
        for lambda in [0.5f64, 4.0, 40.0, 400.0, 4_000.0] {
            let mut rng = StdRng::seed_from_u64(0xB0 ^ lambda.to_bits());
            let reps = 400usize;
            let total: usize = (0..reps).map(|_| poisson_sample(&mut rng, lambda)).sum();
            let mean = total as f64 / reps as f64;
            assert!((mean - lambda).abs() < lambda * 0.25 + 0.5, "λ {lambda}: sample mean {mean}");
        }
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(poisson_sample(&mut rng, 0.0), 0);
    }

    #[test]
    fn permanent_mismatch_domains_exist_and_never_sync() {
        let mut w = tiny_world();
        let ids: Vec<u32> =
            w.domains.iter().filter(|d| d.permanent_mismatch).map(|d| d.id).collect();
        assert!(!ids.is_empty());
        w.step_to_day(50);
        for id in ids {
            assert!(w.domain(id).hint_mismatch(), "domain {id} should stay mismatched");
        }
    }
}
