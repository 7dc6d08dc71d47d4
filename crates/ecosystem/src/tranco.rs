//! The Tranco-like top-list model: a ranked daily list over a domain
//! universe with popularity-driven churn and the 2023-08-01 source
//! change.
//!
//! Each domain has a base popularity weight (Zipf-flavoured by index)
//! and a churn class. A day's score is `base_weight × lognormal(σ)` with
//! σ small for stable domains and large for churners; the top
//! `list_size` scores form the day's list. At the source change a
//! configured fraction of base weights is re-sampled, changing the list
//! composition exactly as the paper observed.

use crate::config::EcosystemConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Per-domain popularity state.
#[derive(Debug, Clone)]
pub struct Popularity {
    /// Base weight (higher = more popular).
    pub base_weight: f64,
    /// Daily noise sigma (churn class).
    pub sigma: f64,
}

/// The list model.
pub struct TrancoModel {
    seed: u64,
    list_size: usize,
    source_change_day: u64,
    pop: Vec<Popularity>,
    /// Base weights in effect from the source-change day onward: the
    /// reshuffled slice of the universe gets re-sampled values, everyone
    /// else keeps their original weight. Day-invariant, so computed once
    /// here instead of re-deriving the reshuffle RNG per domain per day.
    post_change_weight: Vec<f64>,
    /// Worker threads for chunked day-list scoring (resolved, ≥ 1). The
    /// per-domain score streams are index-seeded, so any chunking of the
    /// universe yields bit-identical lists; threads only change
    /// wall-clock time.
    score_threads: usize,
}

/// One day's list: domain ids ordered by rank (index 0 = rank 1).
#[derive(Debug, Clone)]
pub struct DailyList {
    /// Domain ids in rank order. Private and frozen after construction:
    /// the first [`DailyList::rank_of`] call
    /// snapshots this vector into the cached index below, so in-place
    /// mutation would serve stale ranks — build a new list via
    /// [`DailyList::new`] instead.
    ranked: Vec<u32>,
    /// Lazily-built id → 1-based rank index backing
    /// [`DailyList::rank_of`]; built on first rank query and reused for
    /// the rest of the list's life.
    index: OnceLock<HashMap<u32, u32>>,
    /// Per-rank popularity weights aligned with `ranked` (the model's
    /// precomputed Zipf `base_weight`, or its post-source-change
    /// re-sample). `None` for lists built without a model (tests,
    /// the reference baseline).
    weights: Option<Vec<f64>>,
    /// Lazily-built cumulative weight sums backing
    /// [`DailyList::sample_by_popularity`].
    cumulative: OnceLock<Vec<f64>>,
}

impl DailyList {
    /// Wrap a ranked id vector (index 0 = rank 1).
    pub fn new(ranked: Vec<u32>) -> DailyList {
        DailyList { ranked, index: OnceLock::new(), weights: None, cumulative: OnceLock::new() }
    }

    /// Wrap a ranked id vector with per-rank popularity weights (same
    /// order and length as `ranked`), enabling
    /// [`DailyList::sample_by_popularity`].
    pub fn with_weights(ranked: Vec<u32>, weights: Vec<f64>) -> DailyList {
        assert_eq!(ranked.len(), weights.len(), "one weight per ranked id");
        DailyList {
            ranked,
            index: OnceLock::new(),
            weights: Some(weights),
            cumulative: OnceLock::new(),
        }
    }

    /// Domain ids in rank order (index 0 = rank 1).
    pub fn ranked(&self) -> &[u32] {
        &self.ranked
    }

    /// Rank (1-based) of a domain id, if listed (O(1) after the first
    /// call; previously a linear scan per lookup).
    pub fn rank_of(&self, id: u32) -> Option<usize> {
        let index = self.index.get_or_init(|| {
            self.ranked.iter().enumerate().map(|(i, id)| (*id, (i + 1) as u32)).collect()
        });
        index.get(&id).map(|r| *r as usize)
    }

    /// Draw one domain id with probability proportional to its
    /// popularity weight — the stub-client query distribution of the
    /// serving subsystem, reusing the model's precomputed Zipf
    /// `base_weight` rather than re-deriving a popularity model.
    ///
    /// O(log n) per draw via a lazily-built cumulative-sum table.
    /// Deterministic: the same seeded RNG always yields the same id
    /// stream.
    ///
    /// `None` when there is nothing to draw: the list is empty or its
    /// weights sum to zero.
    ///
    /// # Panics
    ///
    /// If the list was built without weights (see
    /// [`DailyList::with_weights`]).
    pub fn sample_by_popularity(&self, rng: &mut StdRng) -> Option<u32> {
        let cumulative = self.cumulative.get_or_init(|| {
            let weights =
                self.weights.as_ref().expect("sample_by_popularity requires a weighted list");
            let mut acc = 0.0;
            weights
                .iter()
                .map(|w| {
                    acc += w.max(0.0);
                    acc
                })
                .collect()
        });
        let total = cumulative.last().copied().filter(|&total| total > 0.0)?;
        let u: f64 = rng.gen_range(0.0..1.0) * total;
        let idx = cumulative.partition_point(|&c| c <= u).min(self.ranked.len() - 1);
        Some(self.ranked[idx])
    }
}

impl TrancoModel {
    /// Build the model for a universe of `population` domains.
    pub fn new(config: &EcosystemConfig) -> TrancoModel {
        let mut rng = StdRng::seed_from_u64(config.seed ^ TRANCO_STREAM);
        let mut pop = Vec::with_capacity(config.population);
        for i in 0..config.population {
            // Zipf-ish base weight by universe index, with jitter so the
            // stable/churn classes interleave in rank space.
            let zipf = 1.0 / ((i + 1) as f64).powf(0.9);
            let jitter: f64 = rng.gen_range(0.8..1.25);
            let stable = rng.gen_bool(config.stable_fraction);
            pop.push(Popularity {
                base_weight: zipf * jitter,
                sigma: if stable { config.stable_sigma } else { config.churn_sigma },
            });
        }
        // Source change: a slice of the universe gets re-sampled weights
        // from the change day onward. The re-sampled values are
        // day-invariant, so derive them once here (same per-domain RNG
        // stream the per-day path used to rebuild on every call).
        let post_change_weight = pop
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut reshuffle_rng = StdRng::seed_from_u64(config.seed ^ 0xC0FFEE ^ (i as u64));
                if reshuffle_rng.gen_bool(config.source_change_reshuffle) {
                    reshuffle_rng.gen_range(0.0..1.0) * reshuffle_rng.gen_range(0.0..0.02)
                } else {
                    p.base_weight
                }
            })
            .collect();
        TrancoModel {
            seed: config.seed,
            list_size: config.list_size.min(config.population),
            source_change_day: config.landmarks.source_change,
            pop,
            post_change_weight,
            score_threads: resolve_score_threads(config.score_threads),
        }
    }

    /// Deterministically score the list for `day`, using the model's
    /// configured scoring thread count. The model holds no list: each
    /// call scores afresh.
    pub fn list_for_day(&self, day: u64) -> DailyList {
        self.list_for_day_with_threads(day, self.score_threads)
    }

    /// [`TrancoModel::list_for_day`] with an explicit thread count.
    ///
    /// Every domain's score is drawn from its own `(seed, day, index)`-
    /// seeded RNG, so scoring is embarrassingly parallel and the output
    /// is bit-identical for every `threads` value — pinned by the golden
    /// fingerprints below and the parallel-scoring property tests. Each
    /// chunk pre-selects its own top `list_size` candidates so the merge
    /// touches O(threads × list_size) entries, then a partial selection
    /// (`select_nth_unstable_by_key`) and a top-only sort replace the
    /// historical full-population sort.
    pub fn list_for_day_with_threads(&self, day: u64, threads: usize) -> DailyList {
        let n = self.pop.len();
        let k = self.list_size;
        let threads = threads.clamp(1, n.max(1));
        let mut candidates: Vec<(u64, u32)> = if threads <= 1 || n < 2 * PAR_CHUNK_MIN {
            self.score_range(day, 0, n)
        } else {
            let chunk = n.div_ceil(threads).max(PAR_CHUNK_MIN);
            let ranges: Vec<(usize, usize)> =
                (0..n).step_by(chunk).map(|lo| (lo, (lo + chunk).min(n))).collect();
            let mut chunks: Vec<Vec<(u64, u32)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = ranges
                    .iter()
                    .map(|&(lo, hi)| {
                        scope.spawn(move || {
                            let mut scored = self.score_range(day, lo, hi);
                            // Per-chunk pre-selection: the global top k is
                            // a subset of the union of per-chunk top ks.
                            partial_select(&mut scored, k);
                            scored
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("scoring worker")).collect()
            });
            let mut merged = chunks.pop().unwrap_or_default();
            merged.reserve(chunks.iter().map(Vec::len).sum());
            for chunk in chunks {
                merged.extend(chunk);
            }
            merged
        };
        partial_select(&mut candidates, k);
        candidates.sort_unstable();
        let ranked: Vec<u32> = candidates.into_iter().map(|(_, id)| id).collect();
        let weights = ranked.iter().map(|&id| self.weight_on_day(day, id)).collect();
        DailyList::with_weights(ranked, weights)
    }

    /// The popularity weight in effect for domain `id` on `day`: the
    /// precomputed Zipf `base_weight`, or its re-sampled value from the
    /// source-change day onward. This is the weight the day's list
    /// scoring uses (before lognormal noise), and the one
    /// [`DailyList::sample_by_popularity`] draws against.
    pub fn weight_on_day(&self, day: u64, id: u32) -> f64 {
        let i = id as usize;
        if day >= self.source_change_day {
            self.post_change_weight[i]
        } else {
            self.pop[i].base_weight
        }
    }

    /// Score domains `[lo, hi)` for `day` into `(descending sort key,
    /// id)` pairs. The key is the score's IEEE-754 bit pattern inverted
    /// (all scores are non-negative finite, where bit order ≡ value
    /// order), so ascending integer order reproduces the historical
    /// stable descending `partial_cmp` sort exactly — ties in score fall
    /// back to ascending id via the tuple's second field, which is what
    /// a stable sort over index-ordered pushes produced.
    fn score_range(&self, day: u64, lo: usize, hi: usize) -> Vec<(u64, u32)> {
        let mut scores: Vec<(u64, u32)> = Vec::with_capacity(hi - lo);
        let post_change = day >= self.source_change_day;
        for (i, p) in self.pop[lo..hi].iter().enumerate() {
            let i = lo + i;
            let mut rng = StdRng::seed_from_u64(
                self.seed ^ day.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64) << 20,
            );
            let base = if post_change { self.post_change_weight[i] } else { p.base_weight };
            // Mean-corrected lognormal noise (E[exp] = 1): without the
            // −σ²/2 drift term, high-σ churners' heavy upper tail
            // systematically out-scores stable domains on the days they
            // spike into the list, inverting the Fig 8 rank shape.
            let noise: f64 = normal_sample(&mut rng) * p.sigma - p.sigma * p.sigma / 2.0;
            scores.push((!(base * noise.exp()).to_bits(), i as u32));
        }
        scores
    }

    /// The pre-refactor `list_for_day`: sequential scoring into `(f64,
    /// id)` pairs and a full stable sort of the whole population. Kept
    /// verbatim as the oracle of the equivalence tests; not used by any
    /// production path.
    #[doc(hidden)]
    pub fn list_for_day_reference(&self, day: u64) -> DailyList {
        let mut scores: Vec<(f64, u32)> = Vec::with_capacity(self.pop.len());
        for (i, p) in self.pop.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(
                self.seed ^ day.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64) << 20,
            );
            let base = if day >= self.source_change_day {
                self.post_change_weight[i]
            } else {
                p.base_weight
            };
            let noise: f64 = normal_sample(&mut rng) * p.sigma - p.sigma * p.sigma / 2.0;
            scores.push((base * noise.exp(), i as u32));
        }
        scores.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        scores.truncate(self.list_size);
        DailyList::new(scores.into_iter().map(|(_, id)| id).collect())
    }
}

/// Minimum per-chunk population before chunked scoring spawns threads:
/// below this the spawn overhead dwarfs the scoring work.
const PAR_CHUNK_MIN: usize = 4_096;

/// Resolve a configured scoring thread count: 0 means "one per
/// available CPU".
fn resolve_score_threads(configured: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

/// Keep the `k` smallest entries of `scores` (by the descending-score
/// integer key, i.e. the top `k` scores), unsorted. No-op when `scores`
/// already fits.
fn partial_select(scores: &mut Vec<(u64, u32)>, k: usize) {
    if scores.len() > k {
        if k > 0 {
            scores.select_nth_unstable(k - 1);
        }
        scores.truncate(k);
    }
}

/// Box–Muller standard normal from a uniform RNG.
pub(crate) fn normal_sample(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Stream-separation constant so the tranco RNG stream never collides
/// with other per-seed streams derived from the same user seed.
const TRANCO_STREAM: u64 = 0x7_2a_c0;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn config() -> EcosystemConfig {
        EcosystemConfig { population: 500, list_size: 300, ..EcosystemConfig::tiny() }
    }

    /// The set of a list's domain ids.
    fn id_set(list: &DailyList) -> HashSet<u32> {
        list.ranked.iter().copied().collect()
    }

    /// Domains present every day of `[from, to]` (the paper's
    /// "overlapping" set for a phase).
    fn overlapping(model: &TrancoModel, from: u64, to: u64) -> HashSet<u32> {
        let mut set = id_set(&model.list_for_day(from));
        for day in (from + 1)..=to {
            let today = model.list_for_day(day);
            set.retain(|id| today.rank_of(*id).is_some());
        }
        set
    }

    #[test]
    fn list_is_deterministic_and_sized() {
        let model = TrancoModel::new(&config());
        let a = model.list_for_day(10);
        let b = model.list_for_day(10);
        assert_eq!(a.ranked, b.ranked);
        assert_eq!(a.ranked.len(), 300);
        // All ids unique.
        assert_eq!(id_set(&a).len(), 300);
    }

    #[test]
    fn lists_churn_day_to_day() {
        let model = TrancoModel::new(&config());
        let d0 = id_set(&model.list_for_day(0));
        let d1 = id_set(&model.list_for_day(1));
        let overlap = d0.intersection(&d1).count();
        assert!(overlap < 300, "lists should differ");
        assert!(overlap > 150, "lists should overlap substantially, got {overlap}");
    }

    #[test]
    fn overlapping_set_shrinks_with_window() {
        let model = TrancoModel::new(&config());
        let short = overlapping(&model, 0, 3);
        let long = overlapping(&model, 0, 10);
        assert!(long.len() <= short.len());
        assert!(!long.is_empty(), "some stable core must persist");
        for id in &long {
            assert!(short.contains(id));
        }
    }

    #[test]
    fn source_change_changes_composition() {
        let model = TrancoModel::new(&config());
        let day_before = id_set(&model.list_for_day(84));
        let day_after = id_set(&model.list_for_day(85));
        let cross = day_before.intersection(&day_after).count();
        let same_side = day_before.intersection(&id_set(&model.list_for_day(83))).count();
        assert!(
            cross < same_side,
            "source change should disrupt composition more than daily churn ({cross} vs {same_side})"
        );
    }

    #[test]
    fn stable_domains_rank_higher_on_average() {
        let cfg = config();
        let model = TrancoModel::new(&cfg);
        let overlapping = overlapping(&model, 0, 8);
        let list = model.list_for_day(4);
        let (mut ov_sum, mut ov_n, mut non_sum, mut non_n) = (0usize, 0usize, 0usize, 0usize);
        for (idx, id) in list.ranked.iter().enumerate() {
            if overlapping.contains(id) {
                ov_sum += idx;
                ov_n += 1;
            } else {
                non_sum += idx;
                non_n += 1;
            }
        }
        if ov_n > 0 && non_n > 0 {
            assert!(
                (ov_sum / ov_n) < (non_sum / non_n),
                "overlapping domains should rank better (Fig 8 shape)"
            );
        }
    }

    #[test]
    fn rank_of_works() {
        let model = TrancoModel::new(&config());
        let list = model.list_for_day(0);
        let first = list.ranked[0];
        assert_eq!(list.rank_of(first), Some(1));
        // Some universe id not in the list.
        let missing = (0..500u32).find(|i| !id_set(&list).contains(i)).unwrap();
        assert_eq!(list.rank_of(missing), None);
    }

    #[test]
    fn rank_index_matches_linear_scan() {
        // The lazily-built index agrees position-for-position with the
        // ranked vector it replaces as the lookup path.
        let model = TrancoModel::new(&config());
        for day in [0u64, 85] {
            let list = model.list_for_day(day);
            for (i, id) in list.ranked.iter().enumerate() {
                assert_eq!(list.rank_of(*id), Some(i + 1), "day {day} id {id}");
            }
        }
    }

    /// FNV-1a over the ranked id vector, the fingerprint the golden pins
    /// below are expressed in.
    fn fingerprint(ids: &[u32]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for id in ids {
            for b in id.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn sampling_is_deterministic_for_a_seed() {
        let model = TrancoModel::new(&config());
        let list = model.list_for_day(3);
        let draw = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..500).map(|_| list.sample_by_popularity(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42), "same seed must give the same id stream");
        assert_ne!(draw(42), draw(43), "different seeds should diverge");
    }

    #[test]
    fn sampling_prefers_top_ranks() {
        let model = TrancoModel::new(&config());
        let list = model.list_for_day(0);
        let n = list.ranked.len();
        let mut rng = StdRng::seed_from_u64(7);
        let mut rank_hits = vec![0u32; n];
        let draws = 30_000;
        for _ in 0..draws {
            let id = list.sample_by_popularity(&mut rng).unwrap();
            rank_hits[list.rank_of(id).unwrap() - 1] += 1;
        }
        let decile = n / 10;
        let top: u32 = rank_hits[..decile].iter().sum();
        let bottom: u32 = rank_hits[n - decile..].iter().sum();
        assert!(
            top > 3 * bottom.max(1),
            "Zipf shape: top decile ({top}) must dominate bottom decile ({bottom})"
        );
        let mean_rank: f64 =
            rank_hits.iter().enumerate().map(|(i, c)| (i + 1) as f64 * *c as f64).sum::<f64>()
                / draws as f64;
        assert!(
            mean_rank < n as f64 / 2.0 * 0.8,
            "mean sampled rank {mean_rank:.1} should sit well above uniform ({})",
            n / 2
        );
    }

    #[test]
    fn list_weights_reuse_model_base_weights() {
        let model = TrancoModel::new(&config());
        let before = model.list_for_day(10);
        let weights = before.weights.as_deref().expect("model lists carry weights");
        assert_eq!(weights.len(), before.ranked.len());
        for (i, id) in before.ranked.iter().enumerate() {
            assert_eq!(weights[i], model.pop[*id as usize].base_weight, "rank {i} weight");
        }
        // From the source-change day onward the re-sampled weights apply.
        let after = model.list_for_day(85);
        let weights = after.weights.as_deref().unwrap();
        for (i, id) in after.ranked.iter().enumerate() {
            assert_eq!(weights[i], model.post_change_weight[*id as usize]);
            assert_eq!(weights[i], model.weight_on_day(85, *id));
        }
        assert!(
            model.pop.iter().zip(&model.post_change_weight).any(|(p, w)| p.base_weight != *w),
            "the source change must re-sample some weights"
        );
    }

    #[test]
    fn sampling_an_empty_or_weightless_list_draws_nothing() {
        let mut rng = StdRng::seed_from_u64(0);
        let empty = DailyList::with_weights(vec![], vec![]);
        assert_eq!(empty.sample_by_popularity(&mut rng), None);
        let weightless = DailyList::with_weights(vec![4, 5], vec![0.0, 0.0]);
        assert_eq!(weightless.sample_by_popularity(&mut rng), None);
        let one = DailyList::with_weights(vec![4, 5], vec![0.0, 1.0]);
        assert_eq!(one.sample_by_popularity(&mut rng), Some(5));
    }

    #[test]
    #[should_panic(expected = "requires a weighted list")]
    fn sampling_unweighted_list_panics() {
        let list = DailyList::new(vec![1, 2, 3]);
        let mut rng = StdRng::seed_from_u64(0);
        list.sample_by_popularity(&mut rng);
    }

    #[test]
    fn daily_lists_match_pre_refactor_golden_values() {
        // Captured from the per-day reshuffle-RNG implementation before
        // the precompute refactor: moving the source-change re-sampling
        // into `TrancoModel::new` must keep every daily list
        // byte-identical, on both sides of the change day.
        let model = TrancoModel::new(&config());
        let golden: [(u64, u64); 6] = [
            (0, 0x1ed108cb7d8fab6f),
            (42, 0xff40044098dbb273),
            (84, 0x8bd73a8aabd2105c),
            (85, 0x04dd210a08e87ef2),
            (86, 0xf7b1bf1c63efd87a),
            (120, 0x28ff4ff2240599b0),
        ];
        for (day, expected) in golden {
            assert_eq!(
                fingerprint(&model.list_for_day(day).ranked),
                expected,
                "day {day} list diverged from the pre-refactor golden fingerprint"
            );
        }
    }
}
