//! Criterion microbenchmarks for the performance-critical substrate paths:
//! digesting, the CRC-32 kernel (frames and CMF), cache lookups (exact,
//! linear-NN, LSH), feature extraction, protocol codec, CMF parse,
//! rasterization and panorama cropping.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use coic_cache::{ApproxCache, Digest, ExactCache, IndexKind, PolicyKind};
use coic_core::{FeatureDescriptor, Msg, RecognitionResult, TaskRequest, TaskResult};
use coic_netsim::rt::crc32;
use coic_render::{Camera, Framebuffer, Panorama, Scene};
use coic_vision::{FeatureVec, ObjectClass, SceneGenerator, SimNet};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn bench_digest(c: &mut Criterion) {
    let mut g = c.benchmark_group("digest");
    for size in [1_000usize, 100_000, 1_000_000] {
        let data = vec![0xA5u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("sha256/{size}B"), |b| {
            b.iter(|| Digest::of(black_box(&data)))
        });
    }
    g.finish();
}

fn bench_crc32(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32");
    for (label, size) in [("4KiB", 4usize << 10), ("1MiB", 1 << 20)] {
        let data = vec![0xA5u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(label, |b| b.iter(|| crc32(black_box(&data))));
    }
    g.finish();
}

fn bench_exact_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("exact_cache");
    let mut cache: ExactCache<u64> = ExactCache::new(1 << 30, PolicyKind::Lru, None);
    let keys: Vec<Digest> = (0..10_000u64)
        .map(|i| Digest::of(&i.to_le_bytes()))
        .collect();
    for (i, k) in keys.iter().enumerate() {
        cache.insert(*k, i as u64, 100, 0);
    }
    let mut i = 0usize;
    g.bench_function("lookup_hit/10k_entries", |b| {
        b.iter(|| {
            i = (i + 1) % keys.len();
            black_box(cache.lookup(&keys[i], 0).copied())
        })
    });
    let absent = Digest::of(b"never inserted");
    g.bench_function("lookup_miss/10k_entries", |b| {
        b.iter(|| black_box(cache.lookup(&absent, 0).copied()))
    });
    g.finish();
}

fn rand_vec(rng: &mut StdRng, dim: usize) -> FeatureVec {
    FeatureVec::new((0..dim).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect()).normalized()
}

fn bench_approx_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("approx_cache");
    for n in [100usize, 1_000, 10_000] {
        let mut rng = StdRng::seed_from_u64(1);
        let mut linear: ApproxCache<u32> =
            ApproxCache::new(1 << 30, PolicyKind::Lru, 0.3, IndexKind::Linear, 32);
        let mut lsh: ApproxCache<u32> = ApproxCache::new(
            1 << 30,
            PolicyKind::Lru,
            0.3,
            IndexKind::Lsh {
                tables: 8,
                bits: 10,
            },
            32,
        );
        for i in 0..n {
            let v = rand_vec(&mut rng, 32);
            linear.insert(v.clone(), i as u32, 100, 0);
            lsh.insert(v, i as u32, 100, 0);
        }
        let q = rand_vec(&mut rng, 32);
        g.bench_function(format!("linear_lookup/{n}"), |b| {
            b.iter(|| black_box(linear.lookup(black_box(&q), 0)))
        });
        g.bench_function(format!("lsh_lookup/{n}"), |b| {
            b.iter(|| black_box(lsh.lookup(black_box(&q), 0)))
        });
    }
    g.finish();
}

fn bench_simnet(c: &mut Criterion) {
    let mut g = c.benchmark_group("simnet");
    let gen = SceneGenerator::new(64);
    let net = SimNet::default_net();
    let img = gen.canonical(ObjectClass(3));
    g.bench_function("extract/64px", |b| b.iter(|| net.extract(black_box(&img))));
    g.bench_function("extract_layers/64px", |b| {
        b.iter(|| net.extract_layers(black_box(&img)))
    });
    let mut rng = StdRng::seed_from_u64(0);
    g.bench_function("observe/64px", |b| {
        b.iter(|| {
            gen.observe(
                black_box(ObjectClass(3)),
                &coic_vision::ViewParams::default(),
                &mut rng,
            )
        })
    });
    g.finish();
}

fn bench_protocol(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol");
    let query = Msg::Query {
        req_id: 7,
        descriptor: FeatureDescriptor::Dnn(FeatureVec::new(vec![0.5; 32])),
        hint: None,
    };
    g.bench_function("encode/query", |b| b.iter(|| black_box(&query).encode()));
    let bytes = query.encode();
    g.bench_function("decode/query", |b| {
        b.iter(|| Msg::decode(black_box(&bytes)).unwrap())
    });
    let result = Msg::Result {
        req_id: 7,
        result: TaskResult::Recognition(RecognitionResult {
            label: 1,
            distance: 0.2,
        }),
    };
    g.bench_function("encode/result", |b| b.iter(|| black_box(&result).encode()));
    let upload = Msg::Upload {
        req_id: 7,
        task: TaskRequest::Recognition {
            image: coic_vision::Image::new(64, 64, 128),
        },
    };
    let upload_bytes = upload.encode();
    g.throughput(Throughput::Bytes(upload_bytes.len() as u64));
    g.bench_function("decode/upload_4kB", |b| {
        b.iter(|| Msg::decode(black_box(&upload_bytes)).unwrap())
    });
    g.finish();
}

fn bench_cmf(c: &mut Criterion) {
    let mut g = c.benchmark_group("cmf");
    for target in [100_000u64, 1_000_000] {
        let mesh = coic_render::procgen::model_of_size(target, 5);
        let bytes = coic_render::encode(&mesh);
        g.throughput(Throughput::Bytes(bytes.len() as u64));
        g.bench_function(format!("encode/{target}B"), |b| {
            b.iter(|| coic_render::encode(black_box(&mesh)))
        });
        g.bench_function(format!("decode/{target}B"), |b| {
            b.iter(|| coic_render::decode(black_box(&bytes)).unwrap())
        });
    }
    g.finish();
}

fn bench_raster(c: &mut Criterion) {
    let mut g = c.benchmark_group("raster");
    let mut scene = Scene::new();
    let id = scene.add_model(coic_render::procgen::uv_sphere(24, 32));
    scene.add_instance(id, coic_render::Mat4::IDENTITY);
    g.bench_function("sphere/128px", |b| {
        b.iter_batched(
            || Framebuffer::new(128, 128),
            |mut fb| {
                scene.render(&Camera::default(), &mut fb);
                fb
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_panorama(c: &mut Criterion) {
    let mut g = c.benchmark_group("panorama");
    g.bench_function("synthesize/256", |b| {
        b.iter(|| Panorama::synthesize(black_box(9), 256))
    });
    let pano = Panorama::synthesize(9, 256);
    g.bench_function("crop/128x72", |b| {
        b.iter(|| pano.crop_viewport(black_box(0.7), 0.1, 1.4, 128, 72))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_digest,
    bench_crc32,
    bench_exact_cache,
    bench_approx_cache,
    bench_simnet,
    bench_protocol,
    bench_cmf,
    bench_raster,
    bench_panorama
);
criterion_main!(benches);
