//! Criterion microbenchmarks backing the latency-overhead claims of
//! Secs. 4.1–4.3: LIWC's selection must be negligible, UCA's filtering
//! cheap, and the substrate fast enough for full parameter sweeps.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qvr::core::liwc::{LatencyPredictor, Liwc, MotionCodec};
use qvr::core::uca::{FoveatedFrame, Uca, WarpParams};
use qvr::core::FoveationPlan;
use qvr::gpu::{Framebuffer, Mat4, RasterPipeline, Rgba, Triangle, Vec3, Vertex};
use qvr::prelude::*;
use qvr::scene::{ComplexityField, MotionDelta, TriangleFractionCache};

fn bench_liwc(c: &mut Criterion) {
    let mut group = c.benchmark_group("liwc");
    let codec = MotionCodec::default();
    let delta = MotionDelta {
        dof: [1.2, 0.3, 0.0, 0.01, 0.0, 0.002],
        gaze: (0.15, -0.08),
        interaction: 0.2,
    };
    group.bench_function("motion_codec_encode", |b| {
        b.iter(|| black_box(codec.encode(black_box(&delta))))
    });

    let display = DisplayGeometry::vive_pro_class();
    let mar = MarModel::default();
    group.bench_function("select_plus_observe", |b| {
        let mut liwc = Liwc::new(15.0, -1.0, 0.3, LatencyPredictor::new(50_000.0, 0.3, 0.7));
        b.iter(|| {
            let d = liwc.select(
                &delta,
                1_500_000,
                |e| (e / 90.0).powi(2),
                |e| 500_000.0 * (1.0 - e / 100.0),
                200.0,
                2.0,
            );
            liwc.observe(
                1_500_000,
                0.2,
                d.predicted_local_ms,
                d.predicted_remote_ms,
                100_000.0,
                200.0,
                2.0,
            );
            black_box(d.e1_deg)
        })
    });

    group.bench_function("foveation_plan_resolve", |b| {
        b.iter(|| {
            black_box(FoveationPlan::resolve(
                black_box(22.0),
                &display,
                &mar,
                GazePoint::center(),
            ))
        })
    });
    group.finish();
}

/// The per-gaze geometry LIWC's inputs come from: a triangle fraction at a
/// gaze the cache has not seen (one denominator pass plus a numerator), and
/// one clipped-disc area evaluation, both off-centre where the panel clips
/// the disc.
fn bench_geometry(c: &mut Criterion) {
    let mut group = c.benchmark_group("geometry");
    let display = DisplayGeometry::vive_pro_class();
    let field = ComplexityField::default();
    let gaze = GazePoint::clamped(0.3, -0.2);
    group.bench_function("triangle_fraction_cached/new_gaze", |b| {
        b.iter(|| {
            let mut cache = TriangleFractionCache::new();
            black_box(field.triangle_fraction_cached(
                black_box(24.0),
                &display,
                black_box(gaze),
                &mut cache,
            ))
        })
    });
    group.bench_function("fovea_area_fraction/off_centre", |b| {
        b.iter(|| black_box(display.fovea_area_fraction(black_box(24.0), black_box(gaze))))
    });
    group.finish();
}

fn test_frame(size: u32) -> FoveatedFrame {
    let fovea = Framebuffer::new(size, size, Rgba::new(0.5, 0.3, 0.2, 1.0));
    let middle = Framebuffer::new(size / 2, size / 2, Rgba::new(0.2, 0.5, 0.3, 1.0));
    let outer = Framebuffer::new(size / 4, size / 4, Rgba::new(0.3, 0.2, 0.5, 1.0));
    FoveatedFrame::new(
        size,
        size,
        (size as f32 / 2.0, size as f32 / 2.0),
        fovea,
        size as f32 / 6.0,
        middle,
        size as f32 / 3.0,
        outer,
    )
}

fn bench_uca(c: &mut Criterion) {
    let mut group = c.benchmark_group("uca");
    group.sample_size(20);
    let frame = test_frame(128);
    let warp = WarpParams::lens_only();
    group.bench_function("sequential_compose_then_atw_128", |b| {
        b.iter(|| black_box(Uca::compose_then_atw(black_box(&frame), &warp)))
    });
    group.bench_function("unified_trilinear_128", |b| {
        b.iter(|| black_box(Uca::unified(black_box(&frame), &warp)))
    });
    group.bench_function("classify_tiles_128", |b| {
        b.iter(|| black_box(frame.classify_tiles(32)))
    });
    group.finish();
}

fn bench_rasterizer(c: &mut Criterion) {
    let mut group = c.benchmark_group("rasterizer");
    group.sample_size(20);
    let mvp = Mat4::perspective(std::f32::consts::FRAC_PI_2, 1.0, 0.1, 50.0)
        * Mat4::translate(Vec3::new(0.0, 0.0, -3.0));
    let tris: Vec<Triangle> = (0..64)
        .map(|k| {
            let a = k as f32 * 0.4;
            Triangle::new(
                Vertex::colored(Vec3::new(a.cos(), a.sin(), -0.5), [1.0, 0.0, 0.0, 1.0]),
                Vertex::colored(
                    Vec3::new((a + 1.0).cos(), (a + 1.0).sin(), 0.0),
                    [0.0, 1.0, 0.0, 1.0],
                ),
                Vertex::colored(Vec3::new(0.0, 0.0, 0.5), [0.0, 0.0, 1.0, 1.0]),
            )
        })
        .collect();
    group.bench_function("draw_64_triangles_128px", |b| {
        b.iter(|| {
            let mut rp = RasterPipeline::new(128, 128, Rgba::BLACK, 16);
            rp.draw_batch(&mvp, black_box(&tris), None);
            black_box(rp.stats().fragments_shaded)
        })
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    group.sample_size(20);
    let tex = qvr::gpu::Texture::value_noise(128, 5, 0.4);
    let mut fb = Framebuffer::new(128, 128, Rgba::BLACK);
    for y in 0..128 {
        for x in 0..128 {
            let v = tex.fetch(i64::from(x), i64::from(y)).r();
            fb.set_pixel(x, y, Rgba::new(v, v * 0.7, 1.0 - v, 1.0));
        }
    }
    let codec = TransformCodec::default();
    let encoded = codec.encode_intra(&fb);
    group.bench_function("encode_intra_128", |b| {
        b.iter(|| black_box(codec.encode_intra(black_box(&fb))))
    });
    group.bench_function("decode_128", |b| {
        b.iter(|| black_box(codec.decode(black_box(&encoded)).unwrap()))
    });
    group.bench_function("size_model_frame_bytes", |b| {
        let sm = SizeModel::default();
        b.iter(|| black_box(sm.frame_bytes(black_box(1920 * 2160), 0.55, 0.5)))
    });
    group.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    let config = SystemConfig::default();
    group.bench_function("qvr_30_frames_grid", |b| {
        b.iter(|| black_box(SchemeKind::Qvr.run(&config, Benchmark::Grid.profile(), 30, 42)))
    });
    group.bench_function("baseline_30_frames_grid", |b| {
        b.iter(|| black_box(SchemeKind::LocalOnly.run(&config, Benchmark::Grid.profile(), 30, 42)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_liwc,
    bench_geometry,
    bench_uca,
    bench_rasterizer,
    bench_codec,
    bench_pipeline
);
criterion_main!(benches);
