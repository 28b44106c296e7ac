//! The detector registry: every algorithm of Table 1 that this
//! workspace implements, enumerable as boxed [`Detector`]s by
//! `(model, target, k)`.
//!
//! The registry is what makes the benchmark harness, the integration
//! tests, and the examples data-driven: instead of hand-wiring each
//! algorithm's constructor and outcome type, callers iterate entries
//! and call [`Detector::detect`] through one interface.
//!
//! ```
//! use even_cycle_congest::registry::DetectorRegistry;
//! use even_cycle_congest::cycle::{Budget, Model};
//! use even_cycle_congest::graph::generators;
//!
//! let registry = DetectorRegistry::standard(2);
//! assert!(registry.len() >= 8);
//! let host = generators::random_tree(40, 7);
//! let (g, _) = generators::plant_cycle(&host, 4, 7);
//! for entry in registry.by_model(Model::Classical) {
//!     // Every entry answers through the same surface.
//!     let detection = entry.detector.detect(&g, 1, &Budget::classical()).unwrap();
//!     assert_eq!(detection.algorithm.model, Model::Classical);
//! }
//! ```

use congest_baselines::apeldoorn_devos::ApeldoornDeVosDetector;
use congest_baselines::censor_hillel::LocalThresholdDetector;
use congest_baselines::deterministic::GatherDetector;
use congest_baselines::eden::EdenModel;
use even_cycle::{
    CycleDetector, Descriptor, Detector, F2kDetector, Model, OddCycleDetector, Params,
    QuantumCycleDetector, QuantumF2kDetector, QuantumOddCycleDetector, Target,
};

use crate::engine::RunProfile;

/// One registered algorithm: its metadata and the boxed detector.
pub struct RegistryEntry {
    /// Stable identifier (`model/target/name`).
    pub id: String,
    /// The algorithm's static metadata.
    pub descriptor: Descriptor,
    /// The boxed detector.
    pub detector: Box<dyn Detector>,
}

impl std::fmt::Debug for RegistryEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistryEntry")
            .field("id", &self.id)
            .field("descriptor", &self.descriptor)
            .finish_non_exhaustive()
    }
}

/// All implemented detectors applicable at a family parameter `k`.
#[derive(Debug)]
pub struct DetectorRegistry {
    k: usize,
    profile: RunProfile,
    entries: Vec<RegistryEntry>,
}

impl DetectorRegistry {
    /// Builds the standard registry at family parameter `k ≥ 2`: the
    /// paper's three classical detectors (`C_{2k}`, `C_{2k+1}`,
    /// `F_{2k}`), their three quantum pipelines, and the Table 1
    /// comparators whose applicability constraints admit this `k`
    /// (\[10\] needs `k ≤ 5`, \[16\] needs `k ≥ 3`; the deterministic
    /// gather baseline registers for both parities).
    ///
    /// This is the [`RunProfile::Practical`] configuration — see
    /// [`DetectorRegistry::with_profile`] for the knob and the
    /// `paper-exact` / `fast-ci` alternatives.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn standard(k: usize) -> Self {
        DetectorRegistry::with_profile(k, RunProfile::Practical)
    }

    /// Builds the registry for an explicit [`RunProfile`] — the knob
    /// that decides repetition budgets, Grover modes, and
    /// declared-success shortcuts (see the profile docs). The entry
    /// *set* is identical across profiles (same ids, same Table 1
    /// rows); only the configurations differ, so reports from
    /// different profiles line up row by row.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn with_profile(k: usize, profile: RunProfile) -> Self {
        assert!(k >= 2, "the registry needs k ≥ 2");
        let mut entries: Vec<Box<dyn Detector>> = match profile {
            // The paper's constants verbatim: uncapped K, Lemma-bound
            // success probabilities (no declared-success shortcuts),
            // sampled Grover only because exhaustive seed scans are not
            // simulable at any size. Expensive by design.
            RunProfile::PaperExact => {
                let qmode = congest_quantum::GroverMode::Sampled { samples: 64 };
                vec![
                    Box::new(CycleDetector::new(Params::paper(k, 1.0 / 3.0))),
                    Box::new(OddCycleDetector::new(k, 400)),
                    Box::new(F2kDetector::new(k)),
                    Box::new(
                        QuantumCycleDetector::new(Params::paper(k, 1.0 / 3.0), 0.05)
                            .with_mode(qmode),
                    ),
                    Box::new(QuantumOddCycleDetector::new(k, 200, 0.05).with_mode(qmode)),
                    Box::new(QuantumF2kDetector::new(k, 100, 0.05).with_mode(qmode)),
                    Box::new(GatherDetector::new(2 * k)),
                    Box::new(GatherDetector::new(2 * k + 1)),
                    Box::new(ApeldoornDeVosDetector::new(k, 40)),
                ]
            }
            // The experiment profile the unit tests and Table 1
            // drivers use: practical repetition caps and
            // declared-success shortcuts that keep the quantum seed
            // spaces simulable. At `k = 2` the quantum pipelines use
            // analytic Grover over the declared seed space (strong
            // enough to actually find planted cycles at test sizes);
            // for `k ≥ 3` they switch to sampled Grover, since the
            // well-coloring probability `(2k)^{-2k}` makes exhaustive
            // seed scans pay simulation cost for detections that
            // cannot happen at these sizes anyway.
            RunProfile::Practical => {
                let qmode = if k == 2 {
                    congest_quantum::GroverMode::Analytic
                } else {
                    congest_quantum::GroverMode::Sampled { samples: 32 }
                };
                vec![
                    Box::new(CycleDetector::new(Params::practical(k))),
                    Box::new(OddCycleDetector::new(k, 200)),
                    Box::new(F2kDetector::new(k)),
                    Box::new(
                        QuantumCycleDetector::new(Params::practical(k).with_repetitions(24), 0.1)
                            .with_declared_success(1.0 / 256.0)
                            .with_mode(qmode),
                    ),
                    Box::new(
                        QuantumOddCycleDetector::new(k, 60, 0.1)
                            .with_declared_success(1.0 / 64.0)
                            .with_mode(qmode),
                    ),
                    Box::new(
                        QuantumF2kDetector::new(k, 40, 0.1)
                            .with_declared_success(1.0 / 128.0)
                            .with_mode(qmode),
                    ),
                    Box::new(GatherDetector::new(2 * k)),
                    Box::new(GatherDetector::new(2 * k + 1)),
                    Box::new(ApeldoornDeVosDetector::new(k, 40)),
                ]
            }
            // Smoke configuration: everything small and sampled, sized
            // so the whole registry sweeps a tiny grid inside a CI
            // step.
            RunProfile::FastCi => {
                let qmode = congest_quantum::GroverMode::Sampled { samples: 8 };
                vec![
                    Box::new(CycleDetector::new(Params::practical(k).with_repetitions(8))),
                    Box::new(OddCycleDetector::new(k, 40)),
                    Box::new(F2kDetector::new(k).with_repetitions(4)),
                    Box::new(
                        QuantumCycleDetector::new(Params::practical(k).with_repetitions(8), 0.1)
                            .with_declared_success(1.0 / 64.0)
                            .with_mode(qmode),
                    ),
                    Box::new(
                        QuantumOddCycleDetector::new(k, 20, 0.1)
                            .with_declared_success(1.0 / 32.0)
                            .with_mode(qmode),
                    ),
                    Box::new(
                        QuantumF2kDetector::new(k, 12, 0.1)
                            .with_declared_success(1.0 / 64.0)
                            .with_mode(qmode),
                    ),
                    Box::new(GatherDetector::new(2 * k)),
                    Box::new(GatherDetector::new(2 * k + 1)),
                    Box::new(ApeldoornDeVosDetector::new(k, 8)),
                ]
            }
        };
        if (2..=5).contains(&k) {
            entries.push(match profile {
                RunProfile::FastCi => {
                    Box::new(LocalThresholdDetector::new(k).with_attempts(1.0, 512))
                }
                _ => Box::new(LocalThresholdDetector::new(k)),
            });
        }
        if k >= 3 {
            entries.push(Box::new(EdenModel::new(k)));
        }
        let entries = entries
            .into_iter()
            .map(|detector| {
                let descriptor = detector.descriptor();
                RegistryEntry {
                    id: descriptor.id(),
                    descriptor,
                    detector,
                }
            })
            .collect();
        DetectorRegistry {
            k,
            profile,
            entries,
        }
    }

    /// The family parameter this registry was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The profile this registry was built with.
    pub fn profile(&self) -> RunProfile {
        self.profile
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> &[RegistryEntry] {
        &self.entries
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> impl Iterator<Item = &RegistryEntry> {
        self.entries.iter()
    }

    /// The entries running in the given model.
    pub fn by_model(&self, model: Model) -> Vec<&RegistryEntry> {
        self.entries
            .iter()
            .filter(|e| e.descriptor.model == model)
            .collect()
    }

    /// The entries deciding the given target family.
    pub fn by_target(&self, target: Target) -> Vec<&RegistryEntry> {
        self.entries
            .iter()
            .filter(|e| e.descriptor.target == target)
            .collect()
    }

    /// The first entry matching `(model, target)`, if any.
    pub fn find(&self, model: Model, target: Target) -> Option<&RegistryEntry> {
        self.entries
            .iter()
            .find(|e| e.descriptor.model == model && e.descriptor.target == target)
    }

    /// Looks an entry up by its stable id.
    pub fn get(&self, id: &str) -> Option<&RegistryEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Number of registered detectors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty (never true for
    /// [`DetectorRegistry::standard`]).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_k2_has_the_core_and_baseline_rows() {
        let r = DetectorRegistry::standard(2);
        // 9 always + local threshold (k ≤ 5), no Eden (k < 3).
        assert_eq!(r.len(), 10);
        assert!(r.find(Model::Classical, Target::Even { k: 2 }).is_some());
        assert!(r.find(Model::Quantum, Target::Even { k: 2 }).is_some());
        assert!(r.find(Model::Quantum, Target::F2k { k: 2 }).is_some());
        assert!(r.find(Model::Classical, Target::Odd { k: 2 }).is_some());
    }

    #[test]
    fn standard_k3_adds_eden_k6_drops_local_threshold() {
        let r3 = DetectorRegistry::standard(3);
        assert_eq!(r3.len(), 11);
        let r6 = DetectorRegistry::standard(6);
        // No [10] beyond k = 5.
        assert_eq!(r6.len(), 10);
        assert!(r6.iter().all(|e| e.descriptor.reference != "[10]"));
    }

    #[test]
    fn ids_are_unique_and_resolvable() {
        let r = DetectorRegistry::standard(3);
        let mut ids: Vec<&str> = r.iter().map(|e| e.id.as_str()).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(before, ids.len(), "duplicate registry ids");
        for e in r.iter() {
            assert!(r.get(&e.id).is_some());
        }
    }

    #[test]
    fn profiles_share_the_entry_set() {
        // Same ids in the same order whatever the profile, so reports
        // line up row by row across profiles.
        for k in [2usize, 3] {
            let ids = |p| -> Vec<String> {
                DetectorRegistry::with_profile(k, p)
                    .iter()
                    .map(|e| e.id.clone())
                    .collect()
            };
            let practical = ids(RunProfile::Practical);
            assert_eq!(practical, ids(RunProfile::PaperExact), "k = {k}");
            assert_eq!(practical, ids(RunProfile::FastCi), "k = {k}");
        }
        assert_eq!(
            DetectorRegistry::standard(2).profile(),
            RunProfile::Practical
        );
    }

    #[test]
    fn models_partition_the_registry() {
        let r = DetectorRegistry::standard(2);
        let c = r.by_model(Model::Classical).len();
        let q = r.by_model(Model::Quantum).len();
        assert_eq!(c + q, r.len());
        assert!(c >= 5 && q >= 3);
    }

    #[test]
    fn every_entry_keeps_its_store_identity() {
        // The store key of a unit folds in the detector's
        // `config_fingerprint()`, which defaults to its `Debug`
        // rendering: reshaping a detector type re-keys its units while
        // every report stays byte-identical. Pinned here as each
        // fingerprint's `unit_key`, for every profile at k = 2 and 3.
        #[rustfmt::skip]
        const PINNED: [(&str, usize, &str, &str); 63] = [
        ("paper-exact", 2, "classical/C4/global-threshold-color-bfs",      "0781b57bdea5198fa4806b875363c1cd"),
        ("paper-exact", 2, "classical/C5/constant-round-odd-color-bfs",    "78635945ce4cf66961a96ea3edc747db"),
        ("paper-exact", 2, "classical/F4/pairwise-color-bfs-sweep",        "d4c20559eae092c4b8e4c3628375685e"),
        ("paper-exact", 2, "quantum/C4/amplified-color-bfs-pipeline",      "ea8760fc8eb8df20aaae0d693d90e3b3"),
        ("paper-exact", 2, "quantum/C5/amplified-odd-color-bfs-pipeline",  "faf6e21c228815a6d0b2d5d0a8df4fbd"),
        ("paper-exact", 2, "quantum/F4/amplified-pairwise-sweep-pipeline", "5404d1989626265c62efc3bb65a3ef74"),
        ("paper-exact", 2, "classical/C4/deterministic-gather",            "fad195cd380558792b3c0fc267bcb9b4"),
        ("paper-exact", 2, "classical/C5/deterministic-gather",            "fad191429f0558792b3c0fc265e009f7"),
        ("paper-exact", 2, "quantum/F4/quantized-heavy-search-framework",  "c4acf7570841be45396dd1e99427d12d"),
        ("paper-exact", 2, "classical/C4/local-threshold-sampling",        "0aaf54967076c4f38fc665fc51d86662"),
        ("paper-exact", 3, "classical/C6/global-threshold-color-bfs",      "5130d140039494e23d9285d6d9cd89a3"),
        ("paper-exact", 3, "classical/C7/constant-round-odd-color-bfs",    "627a4ca75243ef932dcf239ae4b8d104"),
        ("paper-exact", 3, "classical/F6/pairwise-color-bfs-sweep",        "c6a8abc22f0c2d14e27d95a02b80eabf"),
        ("paper-exact", 3, "quantum/C6/amplified-color-bfs-pipeline",      "ea1cc10e8a475868a11c4eecb80d42b7"),
        ("paper-exact", 3, "quantum/C7/amplified-odd-color-bfs-pipeline",  "0274f384c60442d83612766266a08a4e"),
        ("paper-exact", 3, "quantum/F6/amplified-pairwise-sweep-pipeline", "6bcaaa25e78442f40fc02ff3eaf0206b"),
        ("paper-exact", 3, "classical/C6/deterministic-gather",            "fad19ee26e0558792b3c0fc26b761e1a"),
        ("paper-exact", 3, "classical/C7/deterministic-gather",            "fad19a57d50558792b3c0fc269996e5d"),
        ("paper-exact", 3, "quantum/F6/quantized-heavy-search-framework",  "dbc75852ff222521a0a0bf0c3729819a"),
        ("paper-exact", 3, "classical/C6/local-threshold-sampling",        "047de204038a027e54ab31bf4b81f421"),
        ("paper-exact", 3, "classical/C6/two-level-threshold-model",       "6812deb0df0ff7f6c5be3348ac592387"),
        ("practical",   2, "classical/C4/global-threshold-color-bfs",      "0781b57bdea5198fa4806b875363c1cd"),
        ("practical",   2, "classical/C5/constant-round-odd-color-bfs",    "6176591b0c4cf66961a968ff831dc5fd"),
        ("practical",   2, "classical/F4/pairwise-color-bfs-sweep",        "d4c20559eae092c4b8e4c3628375685e"),
        ("practical",   2, "quantum/C4/amplified-color-bfs-pipeline",      "ae550a774fd144cd470fa33fd19beb19"),
        ("practical",   2, "quantum/C5/amplified-odd-color-bfs-pipeline",  "256fb53e62c64ecdcf2df32a50fd874f"),
        ("practical",   2, "quantum/F4/amplified-pairwise-sweep-pipeline", "37d63998a5df852819b8a8d980fd0ae7"),
        ("practical",   2, "classical/C4/deterministic-gather",            "fad195cd380558792b3c0fc267bcb9b4"),
        ("practical",   2, "classical/C5/deterministic-gather",            "fad191429f0558792b3c0fc265e009f7"),
        ("practical",   2, "quantum/F4/quantized-heavy-search-framework",  "c4acf7570841be45396dd1e99427d12d"),
        ("practical",   2, "classical/C4/local-threshold-sampling",        "0aaf54967076c4f38fc665fc51d86662"),
        ("practical",   3, "classical/C6/global-threshold-color-bfs",      "99f7a90bd0e88501e63fa5012d44afe9"),
        ("practical",   3, "classical/C7/constant-round-odd-color-bfs",    "a91bf779a843ef932dcf3519edbce58e"),
        ("practical",   3, "classical/F6/pairwise-color-bfs-sweep",        "c6a8abc22f0c2d14e27d95a02b80eabf"),
        ("practical",   3, "quantum/C6/amplified-color-bfs-pipeline",      "5275831e92cf74fcb2ad437ba742def1"),
        ("practical",   3, "quantum/C7/amplified-odd-color-bfs-pipeline",  "86368998892022937f4cb787ad1c6875"),
        ("practical",   3, "quantum/F6/amplified-pairwise-sweep-pipeline", "dfac02e9d29ce0a92e6e81ed4a0ff6f9"),
        ("practical",   3, "classical/C6/deterministic-gather",            "fad19ee26e0558792b3c0fc26b761e1a"),
        ("practical",   3, "classical/C7/deterministic-gather",            "fad19a57d50558792b3c0fc269996e5d"),
        ("practical",   3, "quantum/F6/quantized-heavy-search-framework",  "dbc75852ff222521a0a0bf0c3729819a"),
        ("practical",   3, "classical/C6/local-threshold-sampling",        "047de204038a027e54ab31bf4b81f421"),
        ("practical",   3, "classical/C6/two-level-threshold-model",       "6812deb0df0ff7f6c5be3348ac592387"),
        ("fast-ci",     2, "classical/C4/global-threshold-color-bfs",      "0e127172883358a4dbfebe738c51df0d"),
        ("fast-ci",     2, "classical/C5/constant-round-odd-color-bfs",    "e8e666209c2740fc4563afe4e367e763"),
        ("fast-ci",     2, "classical/F4/pairwise-color-bfs-sweep",        "c35c75b5dd51e55a0ddec08388913092"),
        ("fast-ci",     2, "quantum/C4/amplified-color-bfs-pipeline",      "f0c22b7005deca58e7547cdfdf7cf191"),
        ("fast-ci",     2, "quantum/C5/amplified-odd-color-bfs-pipeline",  "5d619c9d2f69463d5addf07ce55a66b5"),
        ("fast-ci",     2, "quantum/F4/amplified-pairwise-sweep-pipeline", "149dcf1cecf2be040781ff136b05c45c"),
        ("fast-ci",     2, "classical/C4/deterministic-gather",            "fad195cd380558792b3c0fc267bcb9b4"),
        ("fast-ci",     2, "classical/C5/deterministic-gather",            "fad191429f0558792b3c0fc265e009f7"),
        ("fast-ci",     2, "quantum/F4/quantized-heavy-search-framework",  "32664bb6525a46bedb49b7bf4829b24b"),
        ("fast-ci",     2, "classical/C4/local-threshold-sampling",        "30b06249272165ba9e7bfd233c10c950"),
        ("fast-ci",     3, "classical/C6/global-threshold-color-bfs",      "5eb891996948f1001cb8f69f0a381d30"),
        ("fast-ci",     3, "classical/C7/constant-round-odd-color-bfs",    "296865d8c6b3d26fce92216f04b1943a"),
        ("fast-ci",     3, "classical/F6/pairwise-color-bfs-sweep",        "d94429371c5912fff773fc06488f1e53"),
        ("fast-ci",     3, "quantum/C6/amplified-color-bfs-pipeline",      "c7b36592738e9251c4ff28c2093d3db0"),
        ("fast-ci",     3, "quantum/C7/amplified-odd-color-bfs-pipeline",  "4008f3ce22fc93bfefa96854820400e6"),
        ("fast-ci",     3, "quantum/F6/amplified-pairwise-sweep-pipeline", "1bcad8de23f486aee0b04ee30f24be4d"),
        ("fast-ci",     3, "classical/C6/deterministic-gather",            "fad19ee26e0558792b3c0fc26b761e1a"),
        ("fast-ci",     3, "classical/C7/deterministic-gather",            "fad19a57d50558792b3c0fc269996e5d"),
        ("fast-ci",     3, "quantum/F6/quantized-heavy-search-framework",  "a2bc8e248a385892b5d532cf5890605e"),
        ("fast-ci",     3, "classical/C6/local-threshold-sampling",        "929178a44e4a8adc6a84dc182b1ee305"),
        ("fast-ci",     3, "classical/C6/two-level-threshold-model",       "6812deb0df0ff7f6c5be3348ac592387"),
        ];
        let mut got = Vec::new();
        for profile in [
            RunProfile::PaperExact,
            RunProfile::Practical,
            RunProfile::FastCi,
        ] {
            for k in [2, 3] {
                for e in profile.registry(k).iter() {
                    let key = crate::engine::store::unit_key(&e.detector.config_fingerprint());
                    got.push((profile.name(), k, e.id.clone(), key));
                }
            }
        }
        let want: Vec<_> = PINNED
            .iter()
            .map(|&(p, k, id, key)| (p, k, id.to_string(), key.to_string()))
            .collect();
        assert_eq!(got, want);
    }
}
