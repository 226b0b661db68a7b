//! The edge cache service behind shared references.
//!
//! [`crate::services::EdgeService`] is deliberately single-threaded
//! (`&mut self`): the simulator owns one and drives it deterministically.
//! The live TCP edge instead serves every client connection from its own
//! thread, and wrapping the whole service in a mutex serializes the hot
//! path. [`SharedEdgeService`] is the concurrent counterpart: the same
//! decision logic, same cache-sizing rules and same reply semantics as
//! `EdgeService`, but every method takes `&self`:
//!
//! * recognition descriptors go through the snapshot/journal cache
//!   ([`coic_cache::SnapshotApproxCache`]) — lookups walk an immutable
//!   `Arc`-swapped snapshot lock-free, inserts journal, and the engine
//!   tick drives [`SharedEdgeService::maintain`] to fold rebuilds at
//!   deterministic points;
//! * exact digests go through the sharded wrapper
//!   ([`coic_cache::ShardedExactCache`]), where a hit share-locks one
//!   shard.
//!
//! The hit/miss *decisions* match the unsharded service: the snapshot
//! lookup scans the journal before declaring a miss (an insert is visible
//! immediately), and the exact lookup's shard holds all entries for its
//! digest. What changes is performance metadata only (recency is a
//! relaxed tick replayed at fold time, stats live in relaxed atomics),
//! which the deterministic simulation never sees — the sim path keeps
//! using `EdgeService` untouched.

use crate::descriptor::FeatureDescriptor;
use crate::services::{EdgeConfig, EdgeReply};
use crate::task::{TaskRequest, TaskResult};
use coic_cache::{
    Digest, IndexTelemetry, Lookup, Metrics, ShardedExactCache, SnapshotApproxCache,
    DEFAULT_REBUILD_BATCH,
};
use coic_obs::MetricsRegistry;

/// A concurrently shareable edge cache service (`&self` everywhere).
pub struct SharedEdgeService {
    recog: SnapshotApproxCache<crate::task::RecognitionResult>,
    exact: ShardedExactCache<TaskResult>,
}

impl SharedEdgeService {
    /// Create the service with `shards` lock shards for the exact cache
    /// (the snapshot recognition cache is unsharded by design — see the
    /// module docs).
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(cfg: &EdgeConfig, shards: usize) -> Self {
        SharedEdgeService {
            recog: SnapshotApproxCache::new(
                cfg.recog_cache_bytes,
                cfg.threshold,
                cfg.index.ann_family(),
                cfg.embedding_dim,
                DEFAULT_REBUILD_BATCH,
            ),
            exact: {
                let ttl_ns = cfg.exact_ttl_ms.map(|ms| ms * 1_000_000);
                let c = ShardedExactCache::new(cfg.exact_cache_bytes, cfg.policy, ttl_ns, shards);
                match cfg.admission {
                    Some(a) => c.with_admission(a),
                    None => c,
                }
            },
        }
    }

    /// Look a descriptor up in the matching cache — the typed outcome
    /// [`SharedEdgeService::handle_query`] and the per-request telemetry
    /// share (the trace records `kind_str()` and the approx distance).
    pub fn lookup(&self, descriptor: &FeatureDescriptor, now_ns: u64) -> Lookup<TaskResult> {
        match descriptor {
            FeatureDescriptor::Dnn(v) => self
                .recog
                .lookup(v, now_ns)
                .map(|r| TaskResult::Recognition(*r)),
            FeatureDescriptor::ModelHash(d) | FeatureDescriptor::PanoramaHash(d) => {
                // The Arc clone happens under the shard read lock; the
                // payload deep clone happens here, after release.
                match self.exact.lookup(d, now_ns) {
                    Some(result) => Lookup::ExactHit(TaskResult::clone(&result)),
                    None => Lookup::Miss,
                }
            }
        }
    }

    /// Handle a descriptor query — same decision table as
    /// [`crate::services::EdgeService::handle_query`].
    pub fn handle_query(
        &self,
        descriptor: &FeatureDescriptor,
        hint: Option<&TaskRequest>,
        now_ns: u64,
    ) -> EdgeReply {
        match self.lookup(descriptor, now_ns).into_value() {
            Some(result) => EdgeReply::Hit(result),
            None => match hint {
                Some(task) => EdgeReply::Forward(task.clone()),
                None => EdgeReply::NeedPayload,
            },
        }
    }

    /// Insert a freshly computed result under its descriptor (same size
    /// accounting as [`crate::services::EdgeService::insert`]). Returns
    /// how many journal entries a recognition insert folded when it
    /// tripped the snapshot cache's self-fold (zero otherwise) — callers
    /// use this to trace `index.rebuild` events.
    ///
    /// # Panics
    /// Panics when the descriptor and result kinds disagree.
    pub fn insert(
        &self,
        descriptor: &FeatureDescriptor,
        result: &TaskResult,
        now_ns: u64,
    ) -> usize {
        match (descriptor, result) {
            (FeatureDescriptor::Dnn(v), TaskResult::Recognition(r)) => {
                let size = v.byte_size() + result.byte_size();
                self.recog.insert(v.clone(), *r, size, now_ns)
            }
            (FeatureDescriptor::ModelHash(d) | FeatureDescriptor::PanoramaHash(d), result) => {
                self.exact
                    .insert(*d, result.clone(), result.byte_size(), now_ns);
                0
            }
            (d, r) => panic!(
                "descriptor kind {} does not match result kind {}",
                d.kind(),
                r.kind()
            ),
        }
    }

    /// Does the exact cache currently hold this digest? (No stats or
    /// recency side effects.)
    pub fn exact_contains(&self, digest: &Digest, now_ns: u64) -> bool {
        self.exact.contains(digest, now_ns)
    }

    /// Direct exact-cache lookup by digest (peer queries / single-flight
    /// re-checks). The payload clone runs outside the shard lock.
    pub fn exact_lookup(&self, digest: &Digest, now_ns: u64) -> Option<TaskResult> {
        self.exact.lookup_owned(digest, now_ns)
    }

    /// Recognition cache metrics, merged across shards.
    pub fn recog_metrics(&self) -> Metrics {
        self.recog.metrics()
    }

    /// Exact cache metrics, merged across shards.
    pub fn exact_metrics(&self) -> Metrics {
        self.exact.metrics()
    }

    /// Publish both caches' metrics into the shared registry under
    /// `cache.recog.*` and `cache.exact.*` (the same keys the simulator's
    /// unsharded edge publishes, so reports compare across stacks), plus
    /// the recognition index hot-path telemetry under `index.*`.
    pub fn publish_metrics(&self, reg: &MetricsRegistry) {
        self.recog_metrics().publish(reg, "cache.recog");
        self.exact_metrics().publish(reg, "cache.exact");
        self.index_telemetry().publish(reg);
    }

    /// Snapshot of the recognition index hot-path telemetry (probe
    /// counts, rebuilds, journal depth, snapshot age).
    pub fn index_telemetry(&self) -> IndexTelemetry {
        self.recog.index_telemetry()
    }

    /// Fold the recognition cache's journal into a fresh snapshot (see
    /// [`SnapshotApproxCache::maintain`]). The live edge's engine tick
    /// calls this between requests so index rebuilds land at
    /// deterministic points rather than mid-lookup. Returns how many
    /// journal entries were folded.
    pub fn maintain(&self, now_ns: u64) -> usize {
        self.recog.maintain(now_ns)
    }

    /// The recognition index family's label (`mp-lsh`, `linear`).
    pub fn index_family(&self) -> &'static str {
        self.recog.family_label()
    }

    /// Combined hit ratio over both caches.
    pub fn hit_ratio(&self) -> f64 {
        let r = self.recog_metrics();
        let e = self.exact_metrics();
        let hits = r.hits + e.hits;
        let total = r.lookups() + e.lookups();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Shard count of the underlying caches.
    pub fn shard_count(&self) -> usize {
        self.exact.shard_count()
    }

    /// Which exact-cache shard serves this digest (telemetry label only —
    /// the lookup itself routes internally).
    pub fn exact_shard_of(&self, digest: &Digest) -> usize {
        self.exact.shard_of_key(digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::RecognitionResult;
    use coic_vision::FeatureVec;

    fn svc() -> SharedEdgeService {
        SharedEdgeService::new(&EdgeConfig::default(), 4)
    }

    #[test]
    fn recognition_miss_then_hit_matches_edge_service() {
        let edge = svc();
        let d = FeatureDescriptor::Dnn(FeatureVec::new(vec![1.0; 32]));
        assert_eq!(edge.handle_query(&d, None, 0), EdgeReply::NeedPayload);
        let r = TaskResult::Recognition(RecognitionResult {
            label: 3,
            distance: 0.1,
        });
        edge.insert(&d, &r, 0);
        match edge.handle_query(&d, None, 1) {
            EdgeReply::Hit(TaskResult::Recognition(rr)) => assert_eq!(rr.label, 3),
            other => panic!("expected Hit, got {other:?}"),
        }
        let s = edge.recog_metrics();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn typed_lookup_and_shard_labels() {
        let edge = svc();
        let digest = Digest::of(b"model 1");
        let d = FeatureDescriptor::ModelHash(digest);
        assert_eq!(edge.lookup(&d, 0), Lookup::Miss);
        let r = TaskResult::Model(bytes::Bytes::from(vec![0u8; 10]));
        edge.insert(&d, &r, 0);
        assert!(matches!(edge.lookup(&d, 1), Lookup::ExactHit(_)));
        assert!(edge.exact_shard_of(&digest) < edge.shard_count());
    }

    #[test]
    fn maintain_folds_recognition_journal_and_publishes_telemetry() {
        let edge = svc();
        let r = TaskResult::Recognition(RecognitionResult {
            label: 1,
            distance: 0.0,
        });
        for i in 0..5u64 {
            let mut raw = vec![0.0f32; 32];
            raw[(i as usize) % 32] = 1.0;
            edge.insert(&FeatureDescriptor::Dnn(FeatureVec::new(raw)), &r, i);
        }
        let t = edge.index_telemetry();
        assert_eq!(t.journal_depth, 5);
        assert_eq!(edge.maintain(10), 5);
        let t = edge.index_telemetry();
        assert_eq!((t.journal_depth, t.rebuilds, t.snapshot_len), (0, 1, 5));
        let reg = MetricsRegistry::new();
        edge.publish_metrics(&reg);
        assert_eq!(reg.counter("index.rebuild"), 1);
        assert_eq!(reg.gauge("index.snapshot_len"), 5);
        assert!(!edge.index_family().is_empty());
    }

    #[test]
    fn exact_path_and_contains() {
        let edge = svc();
        let digest = Digest::of(b"model 9");
        let d = FeatureDescriptor::ModelHash(digest);
        assert!(!edge.exact_contains(&digest, 0));
        let task = TaskRequest::RenderLoad {
            model_id: 9,
            size_bytes: 100,
        };
        match edge.handle_query(&d, Some(&task), 0) {
            EdgeReply::Forward(t) => assert_eq!(t, task),
            other => panic!("expected Forward, got {other:?}"),
        }
        let r = TaskResult::Model(bytes::Bytes::from(vec![0u8; 100]));
        edge.insert(&d, &r, 0);
        assert!(edge.exact_contains(&digest, 1));
        assert!(matches!(
            edge.handle_query(&d, Some(&task), 1),
            EdgeReply::Hit(TaskResult::Model(_))
        ));
        assert_eq!(edge.exact_lookup(&digest, 2), Some(r));
        assert!((edge.hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_queries_share_one_service() {
        let edge = std::sync::Arc::new(svc());
        let digest = Digest::of(b"pano 1");
        edge.insert(
            &FeatureDescriptor::PanoramaHash(digest),
            &TaskResult::Panorama(bytes::Bytes::from(vec![1u8; 64])),
            0,
        );
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let e = std::sync::Arc::clone(&edge);
                std::thread::spawn(move || {
                    matches!(
                        e.handle_query(&FeatureDescriptor::PanoramaHash(digest), None, 1),
                        EdgeReply::Hit(_)
                    )
                })
            })
            .collect();
        assert!(handles.into_iter().all(|h| h.join().unwrap()));
        assert_eq!(edge.exact_metrics().hits, 8);
    }

    #[test]
    #[should_panic(expected = "does not match result kind")]
    fn mismatched_insert_panics() {
        let edge = svc();
        let d = FeatureDescriptor::Dnn(FeatureVec::new(vec![0.0; 32]));
        edge.insert(&d, &TaskResult::Model(bytes::Bytes::new()), 0);
    }
}
