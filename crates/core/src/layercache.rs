//! Fine-grained layer-level reuse (paper §4, ongoing work).
//!
//! "Since the current CoIC can only identify coarse-grained IC tasks ...
//! we are exploring the improvement that can efficiently and accurately
//! identify reusable IC workload in fine-grained (e.g., the result of a
//! specific DNN layer)."
//!
//! Here the client runs the DNN only up to layer `k`, ships the layer-`k`
//! activation as the descriptor, and the edge caches final results keyed by
//! that activation. On a miss the cloud *resumes* inference from layer `k`
//! instead of starting over. Lower `k` means less client compute but a less
//! invariant descriptor (lower hit rate); higher `k` approaches the
//! coarse-grained CoIC behaviour. The `ext_layercache` bench sweeps `k`.

use crate::compute::ComputeConfig;
use crate::task::RecognitionResult;
use coic_cache::{ApproxCache, ApproxLookup, IndexKind, PolicyKind};
use coic_vision::{Image, PrototypeClassifier, SimNet};

/// Per-request outcome of the layer-cache pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerOutcome {
    /// Served from the edge cache?
    pub hit: bool,
    /// The recognition result delivered.
    pub result: RecognitionResult,
    /// Client-side compute, ns (prefix through layer `k`).
    pub client_ns: u64,
    /// Cloud-side compute, ns (resume from layer `k`; zero on a hit).
    pub cloud_ns: u64,
    /// Descriptor size on the wire, bytes.
    pub descriptor_bytes: u64,
}

/// A CoIC edge cache keyed by the activation of one specific DNN layer.
pub struct LayerCache {
    net: SimNet,
    cache: ApproxCache<RecognitionResult>,
    layer: usize,
    compute: ComputeConfig,
}

impl LayerCache {
    /// Cache keyed by layer `layer` (0 = pooled front end, up to
    /// `net.num_layers()` = the final embedding, i.e. classic CoIC).
    ///
    /// # Panics
    /// Panics if `layer` is out of range.
    pub fn new(
        layer: usize,
        threshold: f32,
        cache_bytes: u64,
        policy: PolicyKind,
        compute: ComputeConfig,
    ) -> Self {
        Self::with_index(
            layer,
            threshold,
            cache_bytes,
            policy,
            compute,
            IndexKind::Linear,
        )
    }

    /// Like [`LayerCache::new`] but with an explicit index backend —
    /// intermediate activations are higher-dimensional than the final
    /// embedding, where the ANN families pay off sooner.
    ///
    /// # Panics
    /// Panics if `layer` is out of range.
    pub fn with_index(
        layer: usize,
        threshold: f32,
        cache_bytes: u64,
        policy: PolicyKind,
        compute: ComputeConfig,
        index: IndexKind,
    ) -> Self {
        let net = SimNet::default_net();
        assert!(layer <= net.num_layers(), "layer {layer} out of range");
        let dim = if layer == 0 {
            (net.config().grid * net.config().grid) as usize
        } else {
            net.config().layer_dims[layer - 1]
        };
        LayerCache {
            net,
            cache: ApproxCache::new(cache_bytes, policy, threshold, index, dim),
            layer,
            compute,
        }
    }

    /// The layer index in use.
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// Fraction of total DNN work contained in the prefix through `layer`.
    pub fn prefix_fraction(&self, image: &Image) -> f64 {
        let total = self.net.total_flops(image) as f64;
        let mut prefix = self.net.pool_flops(image) as f64;
        for l in 0..self.layer {
            prefix += self.net.layer_flops(l) as f64;
        }
        prefix / total
    }

    /// Process one observation end to end.
    ///
    /// The cost model scales the paper-scale DNN (`compute.full_dnn_macs`)
    /// by the prefix/suffix fractions of the SimNet architecture, so the
    /// client/cloud split is architecture-faithful while staying at the
    /// calibrated absolute magnitude.
    pub fn process(
        &mut self,
        image: &Image,
        classifier: &PrototypeClassifier,
        now_ns: u64,
    ) -> LayerOutcome {
        let acts = self.net.extract_layers(image);
        // Normalize the key so one threshold works across layers.
        let key = acts[self.layer].normalized();
        let frac = self.prefix_fraction(image);
        let client_macs = (self.compute.full_dnn_macs as f64 * frac) as u64;
        let client_ns = self.compute.mobile.time_ns(client_macs);
        let descriptor_bytes = key.byte_size();

        match self.cache.lookup(&key, now_ns) {
            ApproxLookup::Hit { id, .. } => {
                let result = *self.cache.value(id).expect("hit id resolves");
                LayerOutcome {
                    hit: true,
                    result,
                    client_ns,
                    cloud_ns: 0,
                    descriptor_bytes,
                }
            }
            ApproxLookup::Miss { .. } => {
                // Cloud resumes from layer k: it received the activation,
                // runs the remaining layers, classifies.
                let embedding = self.net.extract_from_layer(self.layer, &acts[self.layer]);
                let (label, distance) = classifier.predict(&embedding);
                let result = RecognitionResult {
                    label: label.0,
                    distance,
                };
                let suffix_macs = (self.compute.full_dnn_macs as f64 * (1.0 - frac)) as u64;
                let cloud_ns = self.compute.cloud.time_ns(suffix_macs);
                let size = key.byte_size() + crate::task::ANNOTATION_BYTES;
                self.cache.insert(key, result, size, now_ns);
                LayerOutcome {
                    hit: false,
                    result,
                    client_ns,
                    cloud_ns,
                    descriptor_bytes,
                }
            }
        }
    }

    /// Fold any journaled index maintenance (batch rebuilds for the
    /// ANN-backed index kinds; a no-op for linear). Returns how many
    /// journaled mutations were folded.
    pub fn maintain(&mut self) -> usize {
        self.cache.maintain()
    }

    /// Cache hit/miss counters.
    pub fn stats(&self) -> coic_cache::CacheStats {
        *self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coic_vision::{ObjectClass, SceneGenerator, ViewParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn classifier(gen: &SceneGenerator) -> PrototypeClassifier {
        let net = SimNet::default_net();
        let classes: Vec<_> = (0..6).map(ObjectClass).collect();
        let mut rng = StdRng::seed_from_u64(5);
        PrototypeClassifier::train(&net, gen, &classes, 5, 0.08, 4.0, &mut rng)
    }

    #[test]
    fn repeat_observation_hits_at_every_layer() {
        let gen = SceneGenerator::new(64);
        let clf = classifier(&gen);
        let img = gen.canonical(ObjectClass(2));
        for layer in 0..=SimNet::default_net().num_layers() {
            let mut lc = LayerCache::new(
                layer,
                0.3,
                1 << 20,
                PolicyKind::Lru,
                ComputeConfig::default(),
            );
            let first = lc.process(&img, &clf, 0);
            assert!(!first.hit, "layer {layer}: first must miss");
            assert_eq!(first.result.label, 2);
            let second = lc.process(&img, &clf, 1);
            assert!(second.hit, "layer {layer}: identical input must hit");
            assert_eq!(second.result, first.result);
        }
    }

    #[test]
    fn ann_index_matches_linear_decisions() {
        let gen = SceneGenerator::new(64);
        let clf = classifier(&gen);
        let layer = SimNet::default_net().num_layers();
        let mk = |index| {
            LayerCache::with_index(
                layer,
                0.3,
                1 << 20,
                PolicyKind::Lru,
                ComputeConfig::default(),
                index,
            )
        };
        let mut linear = mk(IndexKind::Linear);
        let mut mplsh = mk(IndexKind::DEFAULT_MPLSH);
        for (i, class) in (0..6).cycle().take(18).enumerate() {
            let img = gen.canonical(ObjectClass(class));
            let a = linear.process(&img, &clf, i as u64);
            let b = mplsh.process(&img, &clf, i as u64);
            assert_eq!(a.hit, b.hit, "step {i}: index families disagree");
            assert_eq!(a.result, b.result);
        }
        // Six classes → six first-miss inserts journaled; maintain folds
        // them and a second call has nothing left.
        assert_eq!(mplsh.maintain(), 6);
        assert_eq!(mplsh.maintain(), 0);
    }

    #[test]
    fn client_compute_grows_with_layer() {
        let gen = SceneGenerator::new(64);
        let clf = classifier(&gen);
        let img = gen.canonical(ObjectClass(1));
        let cost_at = |layer| {
            let mut lc = LayerCache::new(
                layer,
                0.3,
                1 << 20,
                PolicyKind::Lru,
                ComputeConfig::default(),
            );
            lc.process(&img, &clf, 0).client_ns
        };
        let max_layer = SimNet::default_net().num_layers();
        for l in 0..max_layer {
            assert!(
                cost_at(l) < cost_at(l + 1),
                "client cost must grow with layer ({l} vs {})",
                l + 1
            );
        }
    }

    #[test]
    fn cloud_resume_cost_shrinks_with_layer() {
        let gen = SceneGenerator::new(64);
        let clf = classifier(&gen);
        let img = gen.canonical(ObjectClass(1));
        let cloud_at = |layer| {
            let mut lc = LayerCache::new(
                layer,
                0.3,
                1 << 20,
                PolicyKind::Lru,
                ComputeConfig::default(),
            );
            lc.process(&img, &clf, 0).cloud_ns
        };
        let max_layer = SimNet::default_net().num_layers();
        assert!(cloud_at(0) > cloud_at(max_layer));
    }

    #[test]
    fn resumed_inference_matches_full_inference() {
        // Correctness of the split computation: the label via resume equals
        // the label of a full pass.
        let gen = SceneGenerator::new(64);
        let clf = classifier(&gen);
        let net = SimNet::default_net();
        let mut rng = StdRng::seed_from_u64(9);
        for c in 0..6 {
            let v = ViewParams::jittered(&mut rng, 0.05, 2.0);
            let img = gen.observe(ObjectClass(c), &v, &mut rng);
            let full = clf.predict(&net.extract(&img)).0;
            let mut lc =
                LayerCache::new(1, 0.3, 1 << 20, PolicyKind::Lru, ComputeConfig::default());
            let out = lc.process(&img, &clf, 0);
            assert_eq!(out.result.label, full.0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_layer_rejected() {
        let _ = LayerCache::new(99, 0.3, 1024, PolicyKind::Lru, ComputeConfig::default());
    }
}
