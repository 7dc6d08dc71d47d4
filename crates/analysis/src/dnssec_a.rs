//! DNSSEC analyses: Fig 5 (signed/validated HTTPS RR trends), Fig 14
//! (signed ECH records), and Table 9 (full chain audit with the
//! with/without-HTTPS and Cloudflare/non-CF splits).

use crate::{daily_shares, Series};
use dns_wire::RecordType;
use ecosystem::{well_known, World};
use resolver::{RecursiveResolver, ResolverConfig};
use scanner::{flags, ObservationSource, Projection, ScanFilter};

/// Fig 5 + Fig 14 series.
#[derive(Debug, Clone)]
pub struct DnssecSeries {
    /// % of HTTPS apex RRsets with RRSIG.
    pub signed_apex: Series,
    /// % of HTTPS apex RRsets with RRSIG *and* the AD bit.
    pub validated_apex: Series,
    /// % of HTTPS www RRsets with RRSIG.
    pub signed_www: Series,
    /// % of HTTPS www RRsets with RRSIG and AD.
    pub validated_www: Series,
    /// Fig 14: % of ECH-bearing apex RRsets with RRSIG.
    pub signed_ech: Series,
    /// Fig 14: % of ECH-bearing apex RRsets with RRSIG and AD.
    pub validated_ech: Series,
}

impl std::fmt::Display for DnssecSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}{}{}{}{}{}",
            self.signed_apex,
            self.validated_apex,
            self.signed_www,
            self.validated_www,
            self.signed_ech,
            self.validated_ech
        )
    }
}

/// Compute Fig 5 / Fig 14 from the longitudinal store.
pub fn fig5_dnssec_trend(store: &dyn ObservationSource) -> DnssecSeries {
    let [signed_apex, validated_apex, signed_www, validated_www, signed_ech, validated_ech] =
        daily_shares(
            store,
            ScanFilter::projected(Projection::FLAGS),
            [
                ("fig5 apex %signed", 0.0),
                ("fig5 apex %validated", 0.0),
                ("fig5 www %signed", 0.0),
                ("fig5 www %validated", 0.0),
                ("fig14 ech %signed", 0.0),
                ("fig14 ech %validated", 0.0),
            ],
            |_, o| {
                let (apex, www) = (!o.is_www() && o.https(), o.is_www() && o.https());
                let ech = apex && o.has(flags::ECH);
                let (signed, validated) = (o.has(flags::RRSIG), o.has(flags::RRSIG | flags::AD));
                [
                    (apex, signed),
                    (apex, validated),
                    (www, signed),
                    (www, validated),
                    (ech, signed),
                    (ech, validated),
                ]
            },
        );
    DnssecSeries {
        signed_apex,
        validated_apex,
        signed_www,
        validated_www,
        signed_ech,
        validated_ech,
    }
}

/// Table 9: one-day DNSSEC chain audit.
#[derive(Debug, Clone, Default)]
pub struct ChainAudit {
    /// Domains without HTTPS RR: (signed, secure, insecure).
    pub without_https: (usize, usize, usize),
    /// Domains with HTTPS RR: (signed, secure, insecure).
    pub with_https: (usize, usize, usize),
    /// With HTTPS on Cloudflare NS: (signed, secure, insecure).
    pub with_https_cf: (usize, usize, usize),
    /// With HTTPS on non-Cloudflare NS: (signed, secure, insecure).
    pub with_https_noncf: (usize, usize, usize),
}

impl ChainAudit {
    fn row(
        f: &mut std::fmt::Formatter<'_>,
        label: &str,
        t: (usize, usize, usize),
    ) -> std::fmt::Result {
        let (signed, secure, insecure) = t;
        let pct = |n: usize| if signed == 0 { 0.0 } else { 100.0 * n as f64 / signed as f64 };
        writeln!(
            f,
            "  {label:<22} signed {signed:>5}  secure {secure:>5} ({:5.1}%)  insecure {insecure:>5} ({:5.1}%)",
            pct(secure),
            pct(insecure)
        )
    }

    /// Insecure share (%) among signed HTTPS-publishing domains.
    pub fn insecure_pct_with_https(&self) -> f64 {
        let (signed, _, insecure) = self.with_https;
        if signed == 0 {
            0.0
        } else {
            100.0 * insecure as f64 / signed as f64
        }
    }

    /// Insecure share (%) among signed domains without HTTPS records.
    pub fn insecure_pct_without_https(&self) -> f64 {
        let (signed, _, insecure) = self.without_https;
        if signed == 0 {
            0.0
        } else {
            100.0 * insecure as f64 / signed as f64
        }
    }
}

impl std::fmt::Display for ChainAudit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table 9: DNSSEC chain audit")?;
        ChainAudit::row(f, "without HTTPS RR", self.without_https)?;
        ChainAudit::row(f, "with HTTPS RR", self.with_https)?;
        ChainAudit::row(f, "  - Cloudflare", self.with_https_cf)?;
        ChainAudit::row(f, "  - non-Cloudflare", self.with_https_noncf)
    }
}

/// Run the Table 9 audit against the world's current day, fetching and
/// validating chains through a fresh resolver (the paper's Unbound run).
pub fn tab9_chain_audit(world: &World) -> ChainAudit {
    let resolver = RecursiveResolver::new(
        world.network.clone(),
        world.registry.clone(),
        ResolverConfig { validate: true, ..Default::default() },
    );
    let mut audit = ChainAudit::default();
    for &id in world.today_list().ranked() {
        let d = world.domain(id);
        let is_cf = d.provider == well_known::CLOUDFLARE || d.provider == well_known::CF_CHINA;

        let https = resolver.resolve(&d.apex, RecordType::Https).ok();
        let has_https = https.as_ref().map(|r| r.is_positive()).unwrap_or(false);
        let (signed, secure) = if has_https {
            let res = https.expect("checked");
            (res.records.rrsig_count() > 0, res.ad())
        } else {
            // No HTTPS record: audit the zone via its DNSKEY chain.
            match resolver.resolve(&d.apex, RecordType::Dnskey) {
                Ok(res) if res.is_positive() => (true, res.ad()),
                _ => (false, false),
            }
        };
        if !signed {
            continue;
        }
        let bump = |t: &mut (usize, usize, usize)| {
            t.0 += 1;
            if secure {
                t.1 += 1;
            } else {
                t.2 += 1;
            }
        };
        if has_https {
            bump(&mut audit.with_https);
            if is_cf {
                bump(&mut audit.with_https_cf);
            } else {
                bump(&mut audit.with_https_noncf);
            }
        } else {
            bump(&mut audit.without_https);
        }
    }
    audit
}
