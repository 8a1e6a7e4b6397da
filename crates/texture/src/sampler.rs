//! LOD selection and filtering footprints.

use crate::texture::TextureDesc;
use dtexl_gmath::{interp::attr_derivatives, Vec2};
use dtexl_mem::LineAddr;

/// Texture filtering mode.
///
/// The paper notes that adjacent quads re-access neighboring texels
/// "more so in trilinear and anisotropic filtering than in bilinear"
/// — trilinear doubles the footprint (two mip levels) and anisotropic
/// multiplies it along the anisotropy axis, increasing inter-quad
/// sharing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Filter {
    /// 2×2 texels from the nearest mip level.
    #[default]
    Bilinear,
    /// 2×2 texels from each of the two surrounding mip levels.
    Trilinear,
    /// Up to `max_ratio` trilinear probes along the major axis.
    Anisotropic {
        /// Maximum anisotropy ratio (number of probes), ≥ 1.
        max_ratio: u8,
    },
}

/// Texture-coordinate wrap mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Wrap {
    /// Tile the texture (GL_REPEAT) — the common case for game content.
    #[default]
    Repeat,
    /// Clamp to the edge texel.
    ClampToEdge,
}

/// A texture sampler: computes LOD from quad derivatives and expands
/// fragments into cache-line footprints.
///
/// # Examples
///
/// ```
/// use dtexl_texture::{Filter, Sampler, TextureDesc};
/// use dtexl_gmath::Vec2;
/// let tex = TextureDesc::new(0, 64, 64, 0);
/// let s = Sampler::new(Filter::Trilinear);
/// // Minified 2× → LOD 1.
/// let uv = |x: f32, y: f32| Vec2::new(x * 2.0 / 64.0, y * 2.0 / 64.0);
/// let quad = [uv(4.0, 4.0), uv(5.0, 4.0), uv(4.0, 5.0), uv(5.0, 5.0)];
/// assert!((s.lod(&tex, quad) - 1.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sampler {
    filter: Filter,
    wrap: Wrap,
}

impl Sampler {
    /// Create a sampler with [`Wrap::Repeat`].
    #[must_use]
    pub const fn new(filter: Filter) -> Self {
        Self {
            filter,
            wrap: Wrap::Repeat,
        }
    }

    /// Create a sampler with an explicit wrap mode.
    #[must_use]
    pub const fn with_wrap(filter: Filter, wrap: Wrap) -> Self {
        Self { filter, wrap }
    }

    /// The sampler's filter.
    #[must_use]
    pub fn filter(&self) -> Filter {
        self.filter
    }

    /// Texture LOD for a quad of UVs laid out
    /// `[top-left, top-right, bottom-left, bottom-right]` with one-pixel
    /// spacing.
    #[must_use]
    pub fn lod(&self, tex: &TextureDesc, quad_uv: [Vec2; 4]) -> f32 {
        let scale = Vec2::new(tex.width() as f32, tex.height() as f32);
        let texel = quad_uv.map(|uv| uv.mul_elem(scale));
        let (ddx, ddy) = attr_derivatives(texel);
        let rho = ddx.length().max(ddy.length()).max(1e-6);
        rho.log2().max(0.0)
    }

    /// Unbiased exponent of the quad's maximum *squared* texel-space
    /// gradient `m = max(|ddx|², |ddy|²)`.
    ///
    /// With `ρ = √m`, integer mip levels derive from this exponent
    /// without `sqrt` or `log2f` (the footprint hot path):
    /// `floor(log2 ρ + ½) == (e + 1) >> 1` and
    /// `floor(log2 ρ) == e >> 1` exactly, because the half-integer
    /// thresholds of `log2 ρ` are the integer power-of-two boundaries
    /// of `m` — where its exponent increments. Same quantized level as
    /// [`lod`](Self::lod), minus that path's two rounding steps
    /// (`sqrtf` then `log2f`), which cancel out within the float
    /// spacing at every representable `m`.
    #[inline]
    fn grad_exp(tex: &TextureDesc, quad_uv: [Vec2; 4]) -> i32 {
        let scale = Vec2::new(tex.width() as f32, tex.height() as f32);
        let texel = quad_uv.map(|uv| uv.mul_elem(scale));
        let (ddx, ddy) = attr_derivatives(texel);
        let m = ddx.dot(ddx).max(ddy.dot(ddy)).max(1e-12);
        ((m.to_bits() >> 23) as i32) - 127
    }

    /// `floor(max(log2 ρ, 0) + ½)` — nearest mip level (bilinear).
    #[inline]
    fn level_round(tex: &TextureDesc, quad_uv: [Vec2; 4]) -> u32 {
        ((Self::grad_exp(tex, quad_uv) + 1) >> 1).max(0) as u32
    }

    /// `floor(max(log2 ρ, 0))` — lower mip level (trilinear).
    #[inline]
    fn level_floor(tex: &TextureDesc, quad_uv: [Vec2; 4]) -> u32 {
        (Self::grad_exp(tex, quad_uv) >> 1).max(0) as u32
    }

    /// Cache-line footprint of one quad: the deduplicated set of line
    /// addresses its four fragments touch under the configured filter.
    ///
    /// Hardware texture units coalesce the four fragments' requests per
    /// cycle, so intra-quad duplicates count as a single access — the
    /// inter-quad sharing is what the scheduler can win or lose.
    #[must_use]
    pub fn quad_footprint(&self, tex: &TextureDesc, quad_uv: [Vec2; 4]) -> Vec<LineAddr> {
        let mut lines = Vec::with_capacity(16);
        self.quad_footprint_into(tex, quad_uv, &mut lines);
        lines
    }

    /// Arena variant of [`quad_footprint`](Self::quad_footprint):
    /// appends the quad's sorted, deduplicated footprint to `out`
    /// without allocating, so callers can pack many quads' footprints
    /// into one flat buffer. Only the appended tail is sorted and
    /// deduplicated; anything already in `out` is untouched.
    pub fn quad_footprint_into(
        &self,
        tex: &TextureDesc,
        quad_uv: [Vec2; 4],
        lines: &mut Vec<LineAddr>,
    ) {
        let start = lines.len();
        let max_level = tex.levels() - 1;

        match self.filter {
            Filter::Bilinear => {
                let level = Self::level_round(tex, quad_uv).min(max_level);
                let ctx = LevelCtx::new(tex, level, self.wrap);
                for uv in quad_uv {
                    ctx.fragment_lines(uv, lines, start);
                }
            }
            Filter::Trilinear => {
                let lo = Self::level_floor(tex, quad_uv).min(max_level);
                let hi = (lo + 1).min(max_level);
                let ctx_lo = LevelCtx::new(tex, lo, self.wrap);
                let ctx_hi = LevelCtx::new(tex, hi, self.wrap);
                for uv in quad_uv {
                    ctx_lo.fragment_lines(uv, lines, start);
                    if hi != lo {
                        ctx_hi.fragment_lines(uv, lines, start);
                    }
                }
            }
            Filter::Anisotropic { max_ratio } => {
                let ratio = max_ratio.max(1);
                let scale = Vec2::new(tex.width() as f32, tex.height() as f32);
                let texel = quad_uv.map(|uv| uv.mul_elem(scale));
                let (ddx, ddy) = attr_derivatives(texel);
                let (major, minor) = if ddx.length() >= ddy.length() {
                    (ddx, ddy)
                } else {
                    (ddy, ddx)
                };
                let minor_len = minor.length().max(1e-6);
                let probes = ((major.length() / minor_len).ceil() as u8).clamp(1, ratio) as i32;
                // floor(max(log2 minor_len, 0)) is the unbiased
                // exponent of `minor_len`, clamped — see `grad_exp`.
                let e = (minor_len.to_bits() >> 23) as i32 - 127;
                let level = (e.max(0) as u32).min(max_level);
                let hi = (level + 1).min(max_level);
                let ctx_lo = LevelCtx::new(tex, level, self.wrap);
                let ctx_hi = LevelCtx::new(tex, hi, self.wrap);
                for uv in quad_uv {
                    let uvt = uv.mul_elem(scale);
                    for p in 0..probes {
                        // Distribute probes along the major axis.
                        let t = if probes == 1 {
                            0.0
                        } else {
                            (p as f32 + 0.5) / probes as f32 - 0.5
                        };
                        let pos = uvt + major * t;
                        let pos_uv = Vec2::new(pos.x / scale.x, pos.y / scale.y);
                        ctx_lo.fragment_lines(pos_uv, lines, start);
                        if hi != level {
                            ctx_hi.fragment_lines(pos_uv, lines, start);
                        }
                    }
                }
            }
        }

        lines[start..].sort_unstable();
        // In-place dedup of the tail (`Vec::dedup` would scan — and
        // could merge across — the caller's existing prefix).
        let mut w = start;
        for r in start..lines.len() {
            if w == start || lines[w - 1] != lines[r] {
                lines[w] = lines[r];
                w += 1;
            }
        }
        lines.truncate(w);
    }

    /// Bilinearly filtered RGBA color (0–1 floats) at `uv` on the mip
    /// level selected by `lod` (functional rendering path).
    #[must_use]
    pub fn sample_color(&self, tex: &TextureDesc, uv: Vec2, lod: f32) -> [f32; 4] {
        let max_level = tex.levels() - 1;
        let level = (lod + 0.5).floor().clamp(0.0, max_level as f32) as u32;
        let (w, h) = tex.level_dims(level);
        let tu = uv.x * w as f32 - 0.5;
        let tv = uv.y * h as f32 - 0.5;
        let x0 = tu.floor();
        let y0 = tv.floor();
        let fx = tu - x0;
        let fy = tv - y0;
        let mut acc = [0f32; 4];
        for (dx, dy, wgt) in [
            (0, 0, (1.0 - fx) * (1.0 - fy)),
            (1, 0, fx * (1.0 - fy)),
            (0, 1, (1.0 - fx) * fy),
            (1, 1, fx * fy),
        ] {
            let (x, y) = self.wrap_coord(x0 as i64 + dx, y0 as i64 + dy, w, h);
            let c = tex.texel_color(level, x, y);
            for i in 0..4 {
                acc[i] += f32::from(c[i]) / 255.0 * wgt;
            }
        }
        acc
    }

    fn wrap_coord(&self, x: i64, y: i64, w: u32, h: u32) -> (i64, i64) {
        match self.wrap {
            Wrap::Repeat => (x.rem_euclid(i64::from(w)), y.rem_euclid(i64::from(h))),
            Wrap::ClampToEdge => (x.clamp(0, i64::from(w) - 1), y.clamp(0, i64::from(h) - 1)),
        }
    }
}

/// `v.floor() as i64` for every float, NaN and ±∞ included, without
/// the `floorf` libcall `f32::floor` lowers to on baseline x86-64 (no
/// SSE4.1) — this is the footprint hot path's floor.
///
/// For `|v| < 2²²` (every in-range texel coordinate) adding
/// `1.5·2²³` lands in `[2²³, 2²⁴)`, where the float spacing is 1: the
/// sum is `v` rounded to the nearest integer, sitting in the low
/// mantissa bits, and subtracting the magic back is exact. One compare
/// turns that rounding into a floor — no int↔float conversion at all.
/// Every other input takes the saturating truncate-and-adjust path.
#[inline]
fn floor_i64(v: f32) -> i64 {
    const MAGIC: f32 = 12_582_912.0; // 1.5 · 2²³
    if v.abs() < 4_194_304.0 {
        let m = v + MAGIC;
        let rounded = m.to_bits() as i32 - MAGIC.to_bits() as i32;
        return i64::from(rounded - i32::from(m - MAGIC > v));
    }
    // `as i64` truncates toward zero, so subtract one when the
    // truncation rounded up (negative non-integers).
    let t = v as i64;
    #[allow(clippy::cast_precision_loss)]
    let adjust = v < t as f32;
    // Saturating: floats below i64::MIN truncate to i64::MIN and must
    // stay there, as `floor() as i64` would.
    t.saturating_sub(i64::from(adjust))
}

/// Per-mip-level addressing context, hoisted out of the per-fragment
/// tap loop: one [`quad_footprint_into`](Sampler::quad_footprint_into)
/// call resolves the level dimensions, wrap masks and base address
/// once, then expands each fragment's 2×2 taps with inline Morton
/// arithmetic. Bit-identical to addressing through
/// [`TextureDesc::texel_line`] tap by tap — this is the footprint hot
/// path (hundreds of thousands of quads per frame), so the per-tap
/// `rem_euclid` divisions and bounds re-checks are folded away.
struct LevelCtx {
    /// Level dimensions as floats (UV → texel scale).
    wf: f32,
    hf: f32,
    /// Level dimensions as integers. Power-of-two by construction
    /// ([`TextureDesc`] asserts it), so `Repeat` wrapping is a mask.
    w: i64,
    h: i64,
    /// First byte address of the level (base + level offset).
    base: u64,
    /// Row-major line pitch (`max(w, h)`, the padded square side).
    pitch: u64,
    morton: bool,
    clamp: bool,
    /// Morton layout *and* the level base is line-aligned: a 64-byte
    /// line is then exactly one 4×4-texel Morton block, so a tap's
    /// line is `base/64 + encode(x/4, y/4)` — one block encode shared
    /// by all taps that land in the block, instead of a full-precision
    /// Morton expansion per tap. Texture allocation keeps bases
    /// line-aligned, so only the 4-byte 1×1 tail level (offset `…+16`)
    /// misses this path.
    morton_aligned: bool,
}

impl LevelCtx {
    fn new(tex: &TextureDesc, level: u32, wrap: Wrap) -> Self {
        let (w, h) = tex.level_dims(level);
        debug_assert!(w.is_power_of_two() && h.is_power_of_two());
        let base = tex.level_base_addr(level);
        let morton = tex.layout() == crate::TexelLayout::Morton;
        // One line = one 4x4 Morton block requires exactly 16 texels
        // per line; both are fixed constants today, the assert guards
        // the fast path if either ever changes.
        debug_assert_eq!(dtexl_mem::LINE_BYTES / crate::BYTES_PER_TEXEL, 16);
        Self {
            wf: w as f32,
            hf: h as f32,
            w: i64::from(w),
            h: i64::from(h),
            base,
            pitch: u64::from(w.max(h)),
            morton,
            clamp: wrap == Wrap::ClampToEdge,
            morton_aligned: morton && base.is_multiple_of(dtexl_mem::LINE_BYTES),
        }
    }

    /// Line address of texel `(x, y)` (already wrapped into range).
    #[inline]
    fn line(&self, x: u32, y: u32) -> LineAddr {
        let texel_index = if self.morton {
            crate::morton::encode(x, y)
        } else {
            u64::from(y) * self.pitch + u64::from(x)
        };
        (self.base + texel_index * crate::BYTES_PER_TEXEL) / dtexl_mem::LINE_BYTES
    }

    /// Append the distinct lines of the fragment's 2×2 bilinear taps,
    /// skipping any already present in `out[start..]` (the current
    /// quad's tail). Adjacent fragments of a quad mostly share lines —
    /// a 64 B line is a 4×4-texel block — so deduplicating at push time
    /// keeps the tail at its final unique size (typically 1–4 entries)
    /// and the caller's closing sort+dedup nearly free. The linear
    /// `contains` scan is over that same tiny tail.
    fn fragment_lines(&self, uv: Vec2, out: &mut Vec<LineAddr>, start: usize) {
        let tu = uv.x * self.wf - 0.5;
        let tv = uv.y * self.hf - 0.5;
        let x0 = floor_i64(tu);
        let y0 = floor_i64(tv);
        let (x0, x1, y0, y1) = if self.clamp {
            (
                x0.clamp(0, self.w - 1) as u32,
                (x0 + 1).clamp(0, self.w - 1) as u32,
                y0.clamp(0, self.h - 1) as u32,
                (y0 + 1).clamp(0, self.h - 1) as u32,
            )
        } else {
            // `rem_euclid` by a power of two is a mask.
            (
                (x0 & (self.w - 1)) as u32,
                ((x0 + 1) & (self.w - 1)) as u32,
                (y0 & (self.h - 1)) as u32,
                ((y0 + 1) & (self.h - 1)) as u32,
            )
        };
        let (l00, l10, l01, l11);
        if self.morton_aligned {
            // Line-aligned Morton level: a tap's line is its 4×4-texel
            // block's Morton index off the level's first line. The 2×2
            // taps usually share one block, so most fragments cost a
            // single encode.
            let lb = self.base / dtexl_mem::LINE_BYTES;
            let (bx0, by0) = (x0 >> 2, y0 >> 2);
            let (bx1, by1) = (x1 >> 2, y1 >> 2);
            l00 = lb + crate::morton::encode(bx0, by0);
            l10 = if bx1 == bx0 {
                l00
            } else {
                lb + crate::morton::encode(bx1, by0)
            };
            l01 = if by1 == by0 {
                l00
            } else {
                lb + crate::morton::encode(bx0, by1)
            };
            l11 = if bx1 == bx0 {
                l01
            } else if by1 == by0 {
                l10
            } else {
                lb + crate::morton::encode(bx1, by1)
            };
        } else {
            l00 = self.line(x0, y0);
            l10 = self.line(x1, y0);
            l01 = self.line(x0, y1);
            l11 = self.line(x1, y1);
        }
        if !out[start..].contains(&l00) {
            out.push(l00);
        }
        if l10 != l00 && !out[start..].contains(&l10) {
            out.push(l10);
        }
        if l01 != l00 && l01 != l10 && !out[start..].contains(&l01) {
            out.push(l01);
        }
        if l11 != l00 && l11 != l10 && l11 != l01 && !out[start..].contains(&l11) {
            out.push(l11);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tex() -> TextureDesc {
        TextureDesc::new(0, 256, 256, 0)
    }

    /// A screen-aligned quad at `(x, y)` whose UVs advance `step` texels
    /// per pixel.
    fn quad_at(x: f32, y: f32, step: f32, t: &TextureDesc) -> [Vec2; 4] {
        let uv = |px: f32, py: f32| {
            Vec2::new(px * step / t.width() as f32, py * step / t.height() as f32)
        };
        [
            uv(x, y),
            uv(x + 1.0, y),
            uv(x, y + 1.0),
            uv(x + 1.0, y + 1.0),
        ]
    }

    #[test]
    fn floor_i64_matches_std_floor_on_edge_cases() {
        let edge = [
            0.0,
            0.5,
            4_194_303.5, // 2²² − 0.5
            4_194_304.0, // 2²²
            8_388_608.0, // 2²³
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::INFINITY,
        ];
        for v in edge
            .into_iter()
            .flat_map(|v| [v, -v])
            .chain([f32::NAN, f32::MIN])
        {
            assert_eq!(floor_i64(v), v.floor() as i64, "floor_i64({v:e})");
        }
    }

    #[test]
    fn floor_i64_matches_std_floor_on_a_bit_pattern_sweep() {
        // An odd stride visits every exponent and both signs, with
        // varied mantissas.
        for bits in (0..=u32::MAX).step_by(997) {
            let v = f32::from_bits(bits);
            assert_eq!(
                floor_i64(v),
                v.floor() as i64,
                "floor_i64({v:e}) = bits {bits:#x}"
            );
        }
    }

    #[test]
    fn lod_zero_at_unit_scale() {
        let t = tex();
        let s = Sampler::new(Filter::Bilinear);
        assert!(s.lod(&t, quad_at(10.0, 10.0, 1.0, &t)).abs() < 1e-3);
    }

    #[test]
    fn lod_one_at_half_scale() {
        let t = tex();
        let s = Sampler::new(Filter::Bilinear);
        assert!((s.lod(&t, quad_at(10.0, 10.0, 2.0, &t)) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn lod_never_negative_under_magnification() {
        let t = tex();
        let s = Sampler::new(Filter::Bilinear);
        assert_eq!(s.lod(&t, quad_at(10.0, 10.0, 0.25, &t)), 0.0);
    }

    #[test]
    #[ignore]
    fn footprint_phase_probe() {
        use std::time::Instant;
        let t256 = TextureDesc::new(0, 256, 256, 0);
        let n = 119_000u32;
        // Synthetic quads: sweep uv across the texture at ~1:1 scale.
        let quads: Vec<[Vec2; 4]> = (0..n)
            .map(|i| {
                let px = (i % 480) as f32;
                let py = (i / 480) as f32;
                let uv = |x: f32, y: f32| Vec2::new(x / 256.0, y / 256.0);
                [
                    uv(px, py),
                    uv(px + 1.0, py),
                    uv(px, py + 1.0),
                    uv(px + 1.0, py + 1.0),
                ]
            })
            .collect();
        let s = Sampler::new(Filter::Bilinear);
        // Phase 1: lod only.
        let t = Instant::now();
        let mut acc = 0f32;
        for q in &quads {
            acc += s.lod(&t256, *q);
        }
        println!("lod: {:?} (acc {acc})", t.elapsed());
        // Phase 2: ctx + fragments, no sort.
        let t = Instant::now();
        let mut lines: Vec<LineAddr> = Vec::new();
        for q in &quads {
            let lod = s.lod(&t256, *q);
            let max_level = t256.levels() - 1;
            let level = (lod + 0.5).floor().min(max_level as f32) as u32;
            let ctx = LevelCtx::new(&t256, level, Wrap::Repeat);
            let start = lines.len();
            for uv in *q {
                ctx.fragment_lines(uv, &mut lines, start);
            }
        }
        println!("lod+fragments: {:?} ({} lines)", t.elapsed(), lines.len());
        // Phase 3: full footprint.
        lines.clear();
        let t = Instant::now();
        for q in &quads {
            s.quad_footprint_into(&t256, *q, &mut lines);
        }
        println!("full: {:?} ({} lines)", t.elapsed(), lines.len());
    }

    #[test]
    fn bilinear_footprint_is_small_and_dedupped() {
        let t = tex();
        let s = Sampler::new(Filter::Bilinear);
        let lines = s.quad_footprint(&t, quad_at(16.0, 16.0, 1.0, &t));
        // 4 fragments × 4 taps land in at most a 3×3 texel region →
        // 1..=4 distinct 4×4-texel lines.
        assert!((1..=4).contains(&lines.len()), "{} lines", lines.len());
        let mut sorted = lines.clone();
        sorted.dedup();
        assert_eq!(sorted, lines, "sorted and deduplicated");
    }

    #[test]
    fn trilinear_touches_two_levels() {
        let t = tex();
        let bi = Sampler::new(Filter::Bilinear);
        let tri = Sampler::new(Filter::Trilinear);
        let q = quad_at(16.0, 16.0, 3.0, &t); // fractional LOD ≈ 1.58
        let lines_bi = bi.quad_footprint(&t, q);
        let lines_tri = tri.quad_footprint(&t, q);
        assert!(lines_tri.len() > lines_bi.len());
    }

    #[test]
    fn adjacent_quads_share_lines() {
        // The key mechanism of the paper: neighboring quads hit the same
        // cache lines.
        let t = tex();
        let s = Sampler::new(Filter::Bilinear);
        let a = s.quad_footprint(&t, quad_at(16.0, 16.0, 1.0, &t));
        let b = s.quad_footprint(&t, quad_at(18.0, 16.0, 1.0, &t));
        let shared = a.iter().filter(|l| b.contains(l)).count();
        assert!(shared > 0, "adjacent quads must share texture lines");
        // While far-away quads do not:
        let c = s.quad_footprint(&t, quad_at(120.0, 120.0, 1.0, &t));
        assert_eq!(a.iter().filter(|l| c.contains(l)).count(), 0);
    }

    #[test]
    fn repeat_wraps_far_coordinates() {
        let t = tex();
        let s = Sampler::new(Filter::Bilinear);
        // One full texture period apart → identical footprints.
        let a = s.quad_footprint(&t, quad_at(8.0, 8.0, 1.0, &t));
        let b = s.quad_footprint(&t, quad_at(8.0 + 256.0, 8.0, 1.0, &t));
        assert_eq!(a, b);
    }

    #[test]
    fn clamp_keeps_edges() {
        let t = tex();
        let s = Sampler::with_wrap(Filter::Bilinear, Wrap::ClampToEdge);
        let lines = s.quad_footprint(&t, quad_at(-10.0, -10.0, 1.0, &t));
        assert_eq!(lines.len(), 1, "everything clamps to the corner block");
        assert_eq!(lines[0], t.texel_line(0, 0, 0));
    }

    #[test]
    fn anisotropic_probes_scale_with_stretch() {
        let t = tex();
        let iso = Sampler::new(Filter::Anisotropic { max_ratio: 8 });
        // Stretched quad: du/dx = 8 texels, dv/dy = 1 texel.
        let uv = |px: f32, py: f32| Vec2::new(px * 8.0 / 256.0, py * 1.0 / 256.0);
        let stretched = [uv(4.0, 4.0), uv(5.0, 4.0), uv(4.0, 5.0), uv(5.0, 5.0)];
        let square = quad_at(4.0, 4.0, 1.0, &t);
        assert!(
            iso.quad_footprint(&t, stretched).len() > iso.quad_footprint(&t, square).len(),
            "anisotropy adds probes"
        );
    }

    #[test]
    fn sample_color_is_deterministic_and_bounded() {
        let t = tex();
        let s = Sampler::new(Filter::Bilinear);
        let c1 = s.sample_color(&t, Vec2::new(0.3, 0.7), 0.0);
        let c2 = s.sample_color(&t, Vec2::new(0.3, 0.7), 0.0);
        assert_eq!(c1, c2);
        assert!(c1.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Different positions produce different content.
        let c3 = s.sample_color(&t, Vec2::new(0.8, 0.1), 0.0);
        assert_ne!(c1, c3);
    }

    #[test]
    fn sample_color_interpolates_smoothly() {
        let t = tex();
        let s = Sampler::new(Filter::Bilinear);
        // Two samples half a texel apart differ less than two samples
        // ten texels apart (bilinear smoothing), on average.
        let d =
            |a: [f32; 4], b: [f32; 4]| -> f32 { a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum() };
        let mut near = 0.0;
        let mut far = 0.0;
        for i in 0..32 {
            let base = Vec2::new(0.1 + i as f32 * 0.02, 0.4);
            let c0 = s.sample_color(&t, base, 0.0);
            near += d(
                c0,
                s.sample_color(&t, base + Vec2::new(0.5 / 256.0, 0.0), 0.0),
            );
            far += d(
                c0,
                s.sample_color(&t, base + Vec2::new(10.0 / 256.0, 0.0), 0.0),
            );
        }
        assert!(near < far, "bilinear must smooth: near {near} vs far {far}");
    }

    #[test]
    fn tiny_texture_clamps_mip_level() {
        let t = TextureDesc::new(0, 4, 4, 0);
        let s = Sampler::new(Filter::Trilinear);
        // Extreme minification: LOD far above the last level.
        let uv = |px: f32, py: f32| Vec2::new(px * 64.0 / 4.0, py * 64.0 / 4.0);
        let q = [uv(0.0, 0.0), uv(1.0, 0.0), uv(0.0, 1.0), uv(1.0, 1.0)];
        let lines = s.quad_footprint(&t, q);
        assert!(!lines.is_empty(), "clamped to the 1x1 level");
    }
}
