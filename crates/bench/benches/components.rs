//! Performance benches of the simulator's own building blocks.

use criterion::{criterion_group, criterion_main, Criterion};
use dtexl::gmath::Vec2;
use dtexl_mem::{SetAssocCache, TextureHierarchy, TextureHierarchyConfig};
use dtexl_pipeline::{Rasterizer, ShaderCore, ZBuffer};
use dtexl_scene::{DepthMode, Game, SceneSpec, ShaderProfile};
use dtexl_sched::{hilbert_d2xy, TileOrder, TileSchedule};
use dtexl_texture::{morton, Filter, Sampler, TextureDesc};
use std::hint::black_box;

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache_access_stream", |b| {
        let mut cache = SetAssocCache::new(dtexl_mem::CacheConfig::texture_l1());
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 17) % 4096;
            black_box(cache.access(i).hit)
        });
    });
    c.bench_function("hierarchy_access", |b| {
        let mut h = TextureHierarchy::new(TextureHierarchyConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            i += 13;
            black_box(h.access((i % 4) as usize, i % 65_536).latency)
        });
    });
}

fn bench_morton_and_hilbert(c: &mut Criterion) {
    c.bench_function("morton_encode", |b| {
        let mut x = 0u32;
        b.iter(|| {
            x = x.wrapping_add(97) & 0xFFFF;
            black_box(morton::encode(x, x ^ 0x5555))
        });
    });
    c.bench_function("hilbert_d2xy", |b| {
        let mut d = 0u64;
        b.iter(|| {
            d = (d + 31) % (64 * 64);
            black_box(hilbert_d2xy(64, d))
        });
    });
    c.bench_function("tile_schedule_build", |b| {
        let cfg = dtexl_sched::ScheduleConfig::dtexl();
        b.iter(|| black_box(TileSchedule::build(&cfg, 62, 24).len()));
    });
    c.bench_function("tile_order_zorder_62x24", |b| {
        b.iter(|| black_box(TileOrder::ZOrder.sequence(62, 24).len()));
    });
}

fn bench_sampler(c: &mut Criterion) {
    let tex = TextureDesc::new(0, 512, 512, 0x1000_0000);
    let quad = [
        Vec2::new(0.1, 0.1),
        Vec2::new(0.102, 0.1),
        Vec2::new(0.1, 0.102),
        Vec2::new(0.102, 0.102),
    ];
    for (name, filter) in [
        ("sampler_bilinear", Filter::Bilinear),
        ("sampler_trilinear", Filter::Trilinear),
        ("sampler_aniso", Filter::Anisotropic { max_ratio: 8 }),
    ] {
        let s = Sampler::new(filter);
        c.bench_function(name, |b| {
            b.iter(|| black_box(s.quad_footprint(&tex, quad).len()));
        });
    }
}

/// A game's textures and the `(sampler, texture, uv)` of every quad a
/// frame shades.
type SceneQuads = (Vec<TextureDesc>, Vec<(Sampler, u32, [Vec2; 4])>);

/// The shaded quads of each game's 480×192 frame 0, collected through
/// the public raster and early-Z calls the way `FramePrefix::build`
/// collects them.
fn scene_quads() -> Vec<SceneQuads> {
    use dtexl::gmath::Rect;
    use dtexl_pipeline::{GeometryPipeline, PipelineConfig, TilingEngine};
    let (w, h) = (480, 192);
    let config = PipelineConfig::default();
    let raster = Rasterizer::new(config.tile_size);
    let mut zbuf = ZBuffer::new(config.tile_size);
    let mut tile_quads = Vec::new();
    let mut out = Vec::new();
    for game in Game::ALL {
        let scene = game.scene(&SceneSpec::new(w, h, 0));
        let gout = GeometryPipeline::new(config.vertex_cache).run(&scene, w, h);
        let bins = TilingEngine::new(config.tile_cache, config.tile_size).bin(&gout.prims, w, h);
        let mut quads = Vec::new();
        for ty in 0..bins.tiles_h() {
            for tx in 0..bins.tiles_w() {
                tile_quads.clear();
                raster.rasterize_tile_into(
                    &gout.prims,
                    bins.list(tx, ty),
                    (tx * config.tile_size) as i32,
                    (ty * config.tile_size) as i32,
                    Rect::new(0, 0, w as i32, h as i32),
                    &mut tile_quads,
                );
                zbuf.clear();
                for q in &tile_quads {
                    let surviving = zbuf.test_and_update(q);
                    if (if q.late_z { q.mask } else { surviving }) != 0 {
                        quads.push((Sampler::new(q.shader.filter), q.texture, q.uv));
                    }
                }
            }
        }
        out.push((scene.textures, quads));
    }
    out
}

/// Footprints of real shaded quads: the footprint layer of a frame
/// prefix, without the rest of the pipeline.
fn bench_scene_footprints(c: &mut Criterion) {
    let games = scene_quads();
    let mut lines = Vec::new();
    c.bench_function("sampler_scene_quads", |b| {
        b.iter(|| {
            let mut total = 0;
            for (textures, quads) in &games {
                lines.clear();
                for (s, tex, uv) in quads {
                    s.quad_footprint_into(&textures[*tex as usize], *uv, &mut lines);
                }
                total += lines.len();
            }
            black_box(total)
        });
    });
}

fn bench_raster_and_z(c: &mut Criterion) {
    use dtexl::gmath::{Rect, Triangle2};
    use dtexl_pipeline::RasterPrim;
    let prim = RasterPrim {
        tri: Triangle2::new(
            Vec2::new(-4.0, -4.0),
            Vec2::new(80.0, -4.0),
            Vec2::new(-4.0, 80.0),
        ),
        z: [0.2, 0.5, 0.8],
        w: [1.0; 3],
        uv: [
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(0.0, 1.0),
        ],
        texture: 0,
        shader: ShaderProfile::standard(),
        opaque: true,
        uv_scale: 1.0,
        depth_mode: DepthMode::Early,
        draw_index: 0,
    };
    let raster = Rasterizer::new(32);
    let screen = Rect::new(0, 0, 64, 64);
    c.bench_function("rasterize_full_tile", |b| {
        let mut out = Vec::with_capacity(256);
        b.iter(|| {
            out.clear();
            black_box(raster.rasterize_into(&prim, 0, 0, screen, &mut out))
        });
    });
    c.bench_function("early_z_tile", |b| {
        let mut out = Vec::with_capacity(256);
        raster.rasterize_into(&prim, 0, 0, screen, &mut out);
        let mut zb = ZBuffer::new(32);
        b.iter(|| {
            zb.clear();
            let mut survived = 0u32;
            for q in &out {
                survived += u32::from(zb.test_and_update(q) != 0);
            }
            black_box(survived)
        });
    });
}

fn bench_shader_core(c: &mut Criterion) {
    use dtexl_pipeline::Quad;
    let textures = vec![TextureDesc::new(0, 256, 256, 0x1000_0000)];
    let quads: Vec<Quad> = (0..64)
        .map(|i| {
            let x = (i % 16) as f32 * 2.0;
            let y = (i / 16) as f32 * 2.0;
            let uv = |px: f32, py: f32| Vec2::new(px / 256.0, py / 256.0);
            Quad {
                qx: i % 16,
                qy: i / 16,
                mask: 0b1111,
                z: [0.5; 4],
                uv: [
                    uv(x, y),
                    uv(x + 1.0, y),
                    uv(x, y + 1.0),
                    uv(x + 1.0, y + 1.0),
                ],
                texture: 0,
                shader: ShaderProfile::standard(),
                opaque: true,
                late_z: false,
            }
        })
        .collect();
    let core = ShaderCore::new(12, 10);
    c.bench_function("shader_core_subtile", |b| {
        let mut h = TextureHierarchy::new(TextureHierarchyConfig::default());
        b.iter(|| black_box(core.run_subtile(0, &quads, &textures, &mut h).0));
    });
}

fn bench_scene_gen(c: &mut Criterion) {
    c.bench_function("scene_gen_3d", |b| {
        b.iter(|| {
            black_box(
                Game::SonicDash
                    .scene(&SceneSpec::new(512, 256, 0))
                    .triangle_count(),
            )
        });
    });
    c.bench_function("scene_gen_2d", |b| {
        b.iter(|| {
            black_box(
                Game::CandyCrush
                    .scene(&SceneSpec::new(512, 256, 0))
                    .triangle_count(),
            )
        });
    });
}

fn bench_frame_scaling(c: &mut Criterion) {
    use dtexl_pipeline::{FrameSim, PipelineConfig};
    use dtexl_sched::ScheduleConfig;
    let mut g = c.benchmark_group("frame_sim_scaling");
    g.sample_size(10);
    for (w, h) in [(128u32, 64u32), (256, 128), (512, 256)] {
        let scene = Game::TempleRun.scene(&SceneSpec::new(w, h, 0));
        g.bench_function(format!("{w}x{h}"), |b| {
            b.iter(|| {
                black_box(
                    FrameSim::run_with_resolution(
                        &scene,
                        &ScheduleConfig::dtexl(),
                        &PipelineConfig::default(),
                        w,
                        h,
                    )
                    .total_quads_shaded(),
                )
            });
        });
    }
    g.finish();
}

criterion_group! {
    name = components;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets =
        bench_cache,
        bench_morton_and_hilbert,
        bench_sampler,
        bench_scene_footprints,
        bench_raster_and_z,
        bench_shader_core,
        bench_scene_gen,
        bench_frame_scaling,
}
criterion_main!(components);
