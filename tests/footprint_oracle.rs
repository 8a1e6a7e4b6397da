//! The sampler's footprint kernel against a per-tap reference on real
//! frames: every quad the pipeline shades for the ten games, frames
//! 0–3 at 480×192, must get exactly the lines its filter taps address
//! through `TextureDesc::texel_line`.
//!
//! Shaded quads are collected the way `FramePrefix::build` collects
//! them, through the public geometry, tiling, `Rasterizer` and
//! `ZBuffer` calls.

use dtexl_gmath::{interp::attr_derivatives, Rect, Vec2};
use dtexl_mem::LineAddr;
use dtexl_pipeline::{GeometryPipeline, PipelineConfig, Quad, Rasterizer, TilingEngine, ZBuffer};
use dtexl_scene::{Game, Scene, SceneSpec};
use dtexl_texture::{Filter, Sampler, TextureDesc};

const W: u32 = 480;
const H: u32 = 192;

/// The quads a frame shades, in pipeline order.
fn shaded_quads(scene: &Scene) -> Vec<Quad> {
    let config = PipelineConfig::default();
    let gout = GeometryPipeline::new(config.vertex_cache).run(scene, W, H);
    let bins = TilingEngine::new(config.tile_cache, config.tile_size).bin(&gout.prims, W, H);
    let raster = Rasterizer::new(config.tile_size);
    let mut zbuf = ZBuffer::new(config.tile_size);
    let screen = Rect::new(0, 0, W as i32, H as i32);
    let mut tile_quads = Vec::new();
    let mut shaded = Vec::new();
    for ty in 0..bins.tiles_h() {
        for tx in 0..bins.tiles_w() {
            tile_quads.clear();
            raster.rasterize_tile_into(
                &gout.prims,
                bins.list(tx, ty),
                (tx * config.tile_size) as i32,
                (ty * config.tile_size) as i32,
                screen,
                &mut tile_quads,
            );
            zbuf.clear();
            for q in &tile_quads {
                let surviving = zbuf.test_and_update(q);
                if (if q.late_z { q.mask } else { surviving }) != 0 {
                    shaded.push(q.clone());
                }
            }
        }
    }
    shaded
}

/// The footprint by definition: mip levels from an `f64` `log2` of the
/// maximum squared texel gradient, then each fragment's 2×2 taps
/// wrapped (`Repeat`, the pipeline's sampler) and addressed one by one.
fn reference(filter: Filter, tex: &TextureDesc, quad_uv: [Vec2; 4]) -> Vec<LineAddr> {
    let scale = Vec2::new(tex.width() as f32, tex.height() as f32);
    let (ddx, ddy) = attr_derivatives(quad_uv.map(|uv| uv.mul_elem(scale)));
    let m = ddx.dot(ddx).max(ddy.dot(ddy)).max(1e-12);
    let log2_rho = (f64::from(m).log2() / 2.0).max(0.0);
    let max_level = tex.levels() - 1;
    let levels = match filter {
        Filter::Bilinear => vec![((log2_rho + 0.5).floor() as u32).min(max_level)],
        Filter::Trilinear => {
            let lo = (log2_rho.floor() as u32).min(max_level);
            vec![lo, (lo + 1).min(max_level)]
        }
        Filter::Anisotropic { .. } => unreachable!("no game samples anisotropically"),
    };
    let mut lines = Vec::new();
    for level in levels {
        let (w, h) = tex.level_dims(level);
        for uv in quad_uv {
            let x0 = (uv.x * w as f32 - 0.5).floor() as i64;
            let y0 = (uv.y * h as f32 - 0.5).floor() as i64;
            for (x, y) in [(x0, y0), (x0 + 1, y0), (x0, y0 + 1), (x0 + 1, y0 + 1)] {
                let (x, y) = (x.rem_euclid(i64::from(w)), y.rem_euclid(i64::from(h)));
                lines.push(tex.texel_line(level, x, y));
            }
        }
    }
    lines.sort_unstable();
    lines.dedup();
    lines
}

#[test]
fn every_shaded_quad_of_every_game_matches_the_per_tap_reference() {
    let mut quads = 0usize;
    let mut lines = 0usize;
    for game in Game::ALL {
        for frame in 0..4 {
            let scene = game.scene(&SceneSpec::new(W, H, frame));
            for q in shaded_quads(&scene) {
                let tex = &scene.textures[q.texture as usize];
                let got = Sampler::new(q.shader.filter).quad_footprint(tex, q.uv);
                assert_eq!(
                    got,
                    reference(q.shader.filter, tex, q.uv),
                    "{} frame {frame} quad ({}, {}) uv {:?}",
                    game.alias(),
                    q.qx,
                    q.qy,
                    q.uv
                );
                quads += 1;
                lines += got.len();
            }
        }
    }
    assert!(quads > 100_000, "only {quads} shaded quads");
    assert!(lines > quads, "{lines} lines over {quads} quads");
}
