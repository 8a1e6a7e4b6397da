//! LOD selection and filtering footprints.
//!
//! A quad's footprint is the sorted, deduplicated set of cache lines
//! its four fragments' bilinear taps address, on one mip level
//! (bilinear) or two (trilinear). By definition that is the per-tap
//! reference path: floor each fragment's texel coordinate, wrap or
//! clamp its 2×2 taps, address each through
//! [`TextureDesc::texel_line`], then sort and deduplicate.
//!
//! [`Sampler::quad_footprint_into`] computes the same set per mip
//! level with a window kernel. On a Morton level at a line-aligned
//! base a line is exactly one 4×4-texel block, so the kernel floors
//! the four fragments' coordinates once, marks each touched block in
//! a 16-bit mask over the 4×4-block window anchored at the quad's
//! lowest block, and emits one line per marked block: one wrap and
//! one Morton code each, with no per-tap compare. The 1×1 tail level
//! is a single line whatever the coordinates. The constants this
//! needs per level (dimensions, first line, block wrap masks, which of
//! the three cases the level is) are built once per texture by
//! [`TextureDesc::with_layout`].
//!
//! The reference path runs instead, for the whole quad, when the
//! window cannot hold it: anisotropic filtering, a row-major or
//! unaligned level, a floored texel coordinate outside
//! `[-2²², 2²²)` (±∞ and NaN included), or taps spanning more than
//! four blocks on an axis. It is also the kernel's test oracle.

use crate::morton::spread_bits;
use crate::texture::{MipLevel, MipLines, TextureDesc};
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
        let rho = Self::max_sq_grad(tex, quad_uv).sqrt().max(1e-6);
        rho.log2().max(0.0)
    }

    /// The quad's maximum *squared* texel-space gradient
    /// `m = max(|ddx|², |ddy|²)`; [`lod`](Self::lod) takes the `log2`
    /// of `ρ = √m`.
    #[inline]
    fn max_sq_grad(tex: &TextureDesc, quad_uv: [Vec2; 4]) -> f32 {
        let scale = Vec2::new(tex.width() as f32, tex.height() as f32);
        let texel = quad_uv.map(|uv| uv.mul_elem(scale));
        let (ddx, ddy) = attr_derivatives(texel);
        ddx.dot(ddx).max(ddy.dot(ddy))
    }

    /// Unbiased exponent `e` of `max(m, 10⁻¹²)`.
    ///
    /// Integer mip levels derive from it without `sqrt` or `log2f`:
    /// `floor(log2 ρ + ½) == (e + 1) >> 1` and
    /// `floor(log2 ρ) == e >> 1` hold exactly for the real `log2` of
    /// the float `m`, because the half-integer thresholds of `log2 ρ`
    /// are the integer power-of-two boundaries of `m`, where its
    /// exponent increments. These levels are the model's definition.
    /// [`lod`](Self::lod) rounds twice (`sqrtf`, then `log2f`) and can
    /// land on a threshold from below: just under `m = 2¹¹` it reads
    /// exactly 5.5, so `floor(lod + ½)` is 6 where
    /// [`level_round`](Self::level_round) is 5.
    #[inline]
    fn grad_exp(m: f32) -> i32 {
        ((m.max(1e-12).to_bits() >> 23) as i32) - 127
    }

    /// `floor(max(log2 √m, 0) + ½)` — nearest mip level (bilinear).
    #[inline]
    fn level_round(m: f32) -> u32 {
        ((Self::grad_exp(m) + 1) >> 1).max(0) as u32
    }

    /// `floor(max(log2 √m, 0))` — lower mip level (trilinear).
    #[inline]
    fn level_floor(m: f32) -> u32 {
        (Self::grad_exp(m) >> 1).max(0) as u32
    }

    /// Mip levels `(lo, hi)` a bilinear (`lo == hi`) or trilinear
    /// filter reads for the quad.
    #[inline]
    fn iso_levels(&self, tex: &TextureDesc, quad_uv: [Vec2; 4]) -> (u32, u32) {
        let max_level = tex.levels() - 1;
        let m = Self::max_sq_grad(tex, quad_uv);
        if self.filter == Filter::Trilinear {
            let lo = Self::level_floor(m).min(max_level);
            (lo, (lo + 1).min(max_level))
        } else {
            let level = Self::level_round(m).min(max_level);
            (level, level)
        }
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
        if matches!(self.filter, Filter::Anisotropic { .. }) {
            return self.reference_footprint_into(tex, quad_uv, lines);
        }
        let (lo, hi) = self.iso_levels(tex, quad_uv);
        let mut buf = [0; 2 * WINDOW_BLOCKS];
        let mut n = 0;
        let mut level = |level| match self.wrap {
            Wrap::Repeat => window_lines::<false>(tex.mip(level), quad_uv, &mut buf, &mut n),
            Wrap::ClampToEdge => window_lines::<true>(tex.mip(level), quad_uv, &mut buf, &mut n),
        };
        let windowed = level(lo) && (hi == lo || level(hi));
        if !windowed {
            return self.reference_footprint_into(tex, quad_uv, lines);
        }
        // Each level appended a sorted run and levels are laid out in
        // address order, so the runs concatenate in order. Drop
        // duplicates: a small level's `Repeat` wrap can fold two window
        // blocks onto one line, and the 1×1 tail shares the 2×2
        // level's line.
        let mut len = 1;
        for i in 1..n {
            buf[len] = buf[i];
            len += usize::from(buf[i] != buf[len - 1]);
        }
        lines.extend_from_slice(&buf[..len]);
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

    /// The per-tap reference footprint: every filter tap is wrapped and
    /// addressed through [`TextureDesc::texel_line`], then the quad's
    /// lines are sorted and deduplicated.
    fn reference_footprint_into(
        &self,
        tex: &TextureDesc,
        quad_uv: [Vec2; 4],
        lines: &mut Vec<LineAddr>,
    ) {
        let start = lines.len();
        let scale = Vec2::new(tex.width() as f32, tex.height() as f32);
        // Mip levels, probe count, and the major axis the probes are
        // spread along (anisotropic only).
        let (lo, hi, probes, major) = match self.filter {
            Filter::Bilinear | Filter::Trilinear => {
                let (lo, hi) = self.iso_levels(tex, quad_uv);
                (lo, hi, 1, None)
            }
            Filter::Anisotropic { max_ratio } => {
                let max_level = tex.levels() - 1;
                let texel = quad_uv.map(|uv| uv.mul_elem(scale));
                let (ddx, ddy) = attr_derivatives(texel);
                let (major, minor) = if ddx.length() >= ddy.length() {
                    (ddx, ddy)
                } else {
                    (ddy, ddx)
                };
                let minor_len = minor.length().max(1e-6);
                let probes =
                    ((major.length() / minor_len).ceil() as u8).clamp(1, max_ratio.max(1)) as i32;
                // floor(max(log2 minor_len, 0)) is the unbiased
                // exponent of `minor_len`, clamped — see `grad_exp`.
                let e = (minor_len.to_bits() >> 23) as i32 - 127;
                let level = (e.max(0) as u32).min(max_level);
                (level, (level + 1).min(max_level), probes, Some(major))
            }
        };
        for uv in quad_uv {
            for p in 0..probes {
                let pos = match major {
                    None => uv,
                    Some(major) => {
                        // Distribute probes along the major axis.
                        let t = if probes == 1 {
                            0.0
                        } else {
                            (p as f32 + 0.5) / probes as f32 - 0.5
                        };
                        let pos = uv.mul_elem(scale) + major * t;
                        Vec2::new(pos.x / scale.x, pos.y / scale.y)
                    }
                };
                self.tap_lines(tex, lo, pos, lines);
                if hi != lo {
                    self.tap_lines(tex, hi, pos, lines);
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

    /// Append the lines of the 2×2 bilinear taps around `uv` at
    /// `level`. The right/lower tap saturates at the `i64` range.
    fn tap_lines(&self, tex: &TextureDesc, level: u32, uv: Vec2, lines: &mut Vec<LineAddr>) {
        let (w, h) = tex.level_dims(level);
        let x0 = floor_i64(uv.x * w as f32 - 0.5);
        let y0 = floor_i64(uv.y * h as f32 - 0.5);
        let (x1, y1) = (x0.saturating_add(1), y0.saturating_add(1));
        for (x, y) in [(x0, y0), (x1, y0), (x0, y1), (x1, y1)] {
            let (x, y) = self.wrap_coord(x, y, w, h);
            lines.push(tex.texel_line(level, x, y));
        }
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
    if v.abs() < 4_194_304.0 {
        return i64::from(floor_in_window(v));
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

/// `floor(v)` when it lies in `[-2²², 2²²)`; for every other input,
/// ±∞ and NaN included, some value outside that range. The magic
/// round of [`floor_i64`], with the range check left to the caller.
#[inline]
fn floor_in_window(v: f32) -> i32 {
    const MAGIC: f32 = 12_582_912.0; // 1.5 · 2²³
    let m = v + MAGIC;
    let rounded = (m.to_bits() as i32).wrapping_sub(MAGIC.to_bits() as i32);
    rounded.wrapping_sub(i32::from(m - MAGIC > v))
}

/// Blocks in one level's window: 4×4 blocks of 4×4 texels.
const WINDOW_BLOCKS: usize = 16;

/// The window kernel runs for floored texel coordinates in
/// `[-2²², 2²²)`; the rest take the per-tap path.
const WINDOW_COORD_LIMIT: i32 = 1 << 22;

/// Append the lines mip level `mip` adds to a quad's footprint to
/// `buf[*n..]`, one per touched 4×4-texel block, as a sorted run
/// (with duplicates where a `Repeat` wrap folds blocks). Returns
/// `false`, having appended nothing, when the quad is outside the
/// window's domain: the level is [`MipLines::Taps`], a floored texel
/// coordinate is outside `[-2²², 2²²)`, or the taps span more than
/// four blocks on an axis.
///
/// The four fragments' 2×2 taps are floored once. Their blocks are
/// marked in a 16-bit mask over the 4×4-block window anchored at the
/// quad's lowest block, so a block several taps share is marked, not
/// compared. Under `Repeat` the window is laid over the unwrapped
/// coordinates and each marked block is wrapped once at emission, in
/// the Morton domain (`spread_bits(x >> 2) & x_spread_mask` is the
/// spread block of `x.rem_euclid(w)`). Under clamping it is laid over
/// the clamped coordinates: clamping is monotone, so a fragment's
/// clamped taps still bound its blocks.
#[inline]
fn window_lines<const CLAMP: bool>(
    mip: &MipLevel,
    quad_uv: [Vec2; 4],
    buf: &mut [LineAddr; 2 * WINDOW_BLOCKS],
    n: &mut usize,
) -> bool {
    match mip.lines {
        MipLines::Blocks => {}
        MipLines::Single => {
            buf[*n] = mip.line;
            *n += 1;
            return true;
        }
        MipLines::Taps => return false,
    }
    let (wf, hf) = (mip.w as f32, mip.h as f32);
    let cx = quad_uv.map(|uv| floor_in_window(uv.x * wf - 0.5));
    let cy = quad_uv.map(|uv| floor_in_window(uv.y * hf - 0.5));
    // In the domain iff every `c + 2²²` lies in [0, 2²³).
    let outside = cx.iter().chain(&cy).fold(0, |acc, &c| {
        acc | (c.wrapping_add(WINDOW_COORD_LIMIT) as u32 >> 23)
    });
    if outside != 0 {
        return false;
    }
    // Per fragment: the blocks of its left/right and top/bottom taps.
    let taps = |c: i32, max: i32| {
        if CLAMP {
            (c.clamp(0, max) >> 2, (c + 1).clamp(0, max) >> 2)
        } else {
            (c >> 2, (c + 1) >> 2)
        }
    };
    let bx = cx.map(|c| taps(c, mip.w as i32 - 1));
    let by = cy.map(|c| taps(c, mip.h as i32 - 1));
    let bx_lo = bx[0].0.min(bx[1].0).min(bx[2].0).min(bx[3].0);
    let by_lo = by[0].0.min(by[1].0).min(by[2].0).min(by[3].0);
    let bx_hi = bx[0].1.max(bx[1].1).max(bx[2].1).max(bx[3].1);
    let by_hi = by[0].1.max(by[1].1).max(by[2].1).max(by[3].1);
    if bx_hi - bx_lo > 3 || by_hi - by_lo > 3 {
        return false;
    }
    // Each fragment stamps its 1–4 blocks: bit 0, plus bit 1 when its
    // taps straddle a block column, bit 4 a block row, bit 5 both.
    let mut window = 0u32;
    for ((x0, x1), (y0, y1)) in bx.into_iter().zip(by) {
        let stamp = (1 | (x1 - x0) << 1) * (1 | (y1 - y0) << 4);
        window |= (stamp as u32) << ((x0 - bx_lo) + 4 * (y0 - by_lo));
    }
    // Spread (Morton-interleaved) wrapped coordinates of the window's
    // four block columns and rows, each one increment from the last:
    // `spread(x + 1)` is `(spread(x) | !mask) + 1`, masked.
    let (xm, ym) = (mip.x_spread_mask, mip.y_spread_mask);
    let mut sx = [spread_bits(bx_lo as u32) & xm; 4];
    let mut sy = [spread_bits(by_lo as u32) & ym; 4];
    for i in 1..4 {
        sx[i] = (sx[i - 1] | !xm).wrapping_add(1) & xm;
        sy[i] = (sy[i - 1] | !ym).wrapping_add(1) & ym;
    }
    let start = *n;
    let mut window = window as u16;
    while window != 0 {
        let b = window.trailing_zeros() as usize;
        window &= window - 1;
        buf[*n] = mip.line + (sx[b & 3] | sy[b >> 2] << 1);
        *n += 1;
    }
    // Insertion sort: each line is merged into the sorted prefix by
    // min/max, without data-dependent branches.
    let run = &mut buf[start..*n];
    for i in 1..run.len() {
        let mut x = run[i];
        for slot in &mut run[..i] {
            let a = *slot;
            *slot = a.min(x);
            x = a.max(x);
        }
        run[i] = x;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TexelLayout;

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

    /// `floor_in_window` is exact on `[-2²², 2²²)` and lands outside
    /// it for every other input.
    fn check_floor_in_window(v: f32) {
        let limit = 4_194_304.0f32;
        let (c, f) = (floor_in_window(v), v.floor());
        if (-limit..limit).contains(&f) {
            assert_eq!(c, f as i32, "floor_in_window({v:e})");
        } else {
            assert!(
                !(-(1 << 22)..1 << 22).contains(&c),
                "floor_in_window({v:e}) = {c} inside the window"
            );
        }
    }

    #[test]
    fn floor_in_window_is_exact_inside_and_out_of_range_outside() {
        for bits in (0..=u32::MAX).step_by(997) {
            check_floor_in_window(f32::from_bits(bits));
        }
        // Every float near the range edges, and near -1.5·2²³ where
        // the magic sum crosses zero.
        for centre in [4_194_304.0f32, -4_194_304.0, -12_582_912.0] {
            let mut v = centre;
            for _ in 0..64 {
                v = v.next_down();
            }
            for _ in 0..128 {
                check_floor_in_window(v);
                v = v.next_up();
            }
        }
        for v in [
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MAX,
            f32::MIN,
        ] {
            check_floor_in_window(v);
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

    /// Quads for the footprint oracle at texture size `(w, h)`: affine
    /// maps from pixels to level-0 texels (rotated, skewed, magnified
    /// and minified, about a range of centres), plus coordinates at the
    /// 2²² window-domain edge, at ±∞ and NaN.
    fn oracle_quads(w: u32, h: u32) -> Vec<[Vec2; 4]> {
        let (wf, hf) = (w as f32, h as f32);
        let affine = |c: Vec2, jx: Vec2, jy: Vec2| {
            let uv = |px: f32, py: f32| {
                let t = c + jx * px + jy * py;
                Vec2::new(t.x / wf, t.y / hf)
            };
            [uv(0.0, 0.0), uv(1.0, 0.0), uv(0.0, 1.0), uv(1.0, 1.0)]
        };
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ u64::from(w) << 32 ^ u64::from(h);
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        let mut quads = Vec::new();
        for _ in 0..160 {
            // Scale 2^-4 (magnified) .. 2^9 (minified past any level).
            let scale = (next() * 13.0 - 4.0).exp2();
            let angle = next() * std::f32::consts::TAU;
            let skew = next() * 2.0 - 1.0;
            let stretch = (next() * 4.0 - 2.0).exp2();
            let (sin, cos) = angle.sin_cos();
            let jx = Vec2::new(cos, sin) * scale;
            let jy = (Vec2::new(-sin, cos) * stretch + Vec2::new(cos, sin) * skew) * scale;
            let c = Vec2::new((next() * 3.0 - 1.0) * wf, (next() * 3.0 - 1.0) * hf);
            quads.push(affine(c, jx, jy));
        }
        // Screen-aligned quads on every phase of a 4-texel block.
        for i in 0..32 {
            let c = Vec2::new(i as f32 * 0.625 - 2.0, (i % 7) as f32 * 0.75 - 1.0);
            quads.push(affine(c, Vec2::new(1.0, 0.0), Vec2::new(0.0, 1.0)));
        }
        // Texel coordinates at and around the ±2²² window-domain edge.
        let edge = 4_194_304.0f32;
        for c in [
            edge - 3.0,
            edge - 1.5,
            edge,
            edge + 2.0,
            2.0 * edge,
            512.0 * edge,
        ] {
            for c in [c, -c] {
                quads.push(affine(
                    Vec2::new(c, 1.0),
                    Vec2::new(1.0, 0.0),
                    Vec2::new(0.0, 1.0),
                ));
                quads.push(affine(
                    Vec2::new(2.0, c),
                    Vec2::new(1.0, 0.0),
                    Vec2::new(0.0, 1.0),
                ));
            }
        }
        // Non-finite UVs, on one fragment or on all of them.
        for v in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let base = affine(
                Vec2::new(3.0, 5.0),
                Vec2::new(1.0, 0.0),
                Vec2::new(0.0, 1.0),
            );
            let mut one = base;
            one[1].x = v;
            let mut all = base.map(|uv| Vec2::new(v, uv.y));
            quads.push(one);
            quads.push(all);
            all = all.map(|uv| Vec2::new(uv.x, v));
            quads.push(all);
        }
        quads
    }

    #[test]
    fn quad_footprint_matches_the_per_tap_reference() {
        let filters = [
            Filter::Bilinear,
            Filter::Trilinear,
            Filter::Anisotropic { max_ratio: 1 },
            Filter::Anisotropic { max_ratio: 4 },
            Filter::Anisotropic { max_ratio: 16 },
        ];
        let sizes = [(1, 1), (2, 2), (4, 1), (1, 8), (64, 16), (512, 512)];
        // Line-aligned, and off by a line fraction (every level then
        // straddles lines).
        let bases = [0x1000_0000, 0x1000_0010, 0x1000_0004];
        let mut got = Vec::new();
        let mut want = Vec::new();
        let mut checked = 0usize;
        for (w, h) in sizes {
            let quads = oracle_quads(w, h);
            for base in bases {
                for layout in [TexelLayout::Morton, TexelLayout::RowMajor] {
                    let tex = TextureDesc::with_layout(7, w, h, base, layout);
                    for filter in filters {
                        for wrap in [Wrap::Repeat, Wrap::ClampToEdge] {
                            let s = Sampler::with_wrap(filter, wrap);
                            for q in &quads {
                                // A non-empty prefix the call must not touch.
                                got.clear();
                                got.push(u64::MAX);
                                s.quad_footprint_into(&tex, *q, &mut got);
                                want.clear();
                                want.push(u64::MAX);
                                s.reference_footprint_into(&tex, *q, &mut want);
                                assert_eq!(
                                    got, want,
                                    "{w}x{h} base {base:#x} {layout:?} {filter:?} {wrap:?} quad {q:?}"
                                );
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(checked > 50_000, "{checked} quads");
    }

    /// `(level_round, level_floor)` of `m` from an `f64` `log2`.
    fn exact_levels(m: f32) -> (u32, u32) {
        let log2_rho = (f64::from(m.max(1e-12)).log2() / 2.0).max(0.0);
        ((log2_rho + 0.5).floor() as u32, log2_rho.floor() as u32)
    }

    #[test]
    fn mip_levels_match_an_exact_log2_at_every_power_of_two_boundary() {
        // Every finite power of two from below the 1e-12 floor up, and
        // the floats a few ulps either side of it.
        for k in -45i32..=126 {
            let p = f32::from_bits(((k + 127) as u32) << 23);
            let mut below = p;
            let mut above = p;
            for _ in 0..3 {
                below = below.next_down();
                above = above.next_up();
                for m in [below, p, above] {
                    assert_eq!(
                        (Sampler::level_round(m), Sampler::level_floor(m)),
                        exact_levels(m),
                        "m = {m:e} (2^{k} neighbourhood)"
                    );
                }
            }
        }
        // And a stride through every positive finite float.
        for bits in (0..0x7f80_0000u32).step_by(997) {
            let m = f32::from_bits(bits);
            assert_eq!(
                (Sampler::level_round(m), Sampler::level_floor(m)),
                exact_levels(m),
                "m = {m:e}"
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
