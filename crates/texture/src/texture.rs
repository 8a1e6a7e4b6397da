//! Texture descriptors with Morton-tiled mip chains.

use crate::morton;
use dtexl_mem::{LineAddr, LINE_BYTES};

/// Identifier of a texture within a scene.
pub type TextureId = u32;

/// Bytes per texel (RGBA8 throughout the modeled GPU).
pub const BYTES_PER_TEXEL: u64 = 4;

/// In-memory texel layout of a texture level.
///
/// Mobile GPUs tile textures so that 2-D locality becomes 1-D address
/// locality; [`Morton`](TexelLayout::Morton) is the default and what
/// the paper's platform implies. [`RowMajor`](TexelLayout::RowMajor)
/// (linear) layouts are supported for the ablation benches: with
/// row-major lines a cache line covers a 16×1 texel strip, so vertical
/// neighbor quads never share lines and the locality available to the
/// scheduler shrinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TexelLayout {
    /// Z-curve tiling: one 64-byte line = one 4×4 texel block.
    #[default]
    Morton,
    /// Linear scanlines: one 64-byte line = a 16×1 texel strip.
    RowMajor,
}

/// A 2-D texture with a full mip chain, Morton-tiled per level.
///
/// Dimensions must be powers of two (the synthetic workloads only create
/// such textures, matching common mobile content pipelines). Level 0 is
/// the full resolution; each level halves both dimensions (min 1) down
/// to 1×1.
///
/// # Examples
///
/// ```
/// use dtexl_texture::TextureDesc;
/// let t = TextureDesc::new(3, 128, 64, 0x4000);
/// assert_eq!(t.levels(), 8);
/// assert_eq!(t.level_dims(0), (128, 64));
/// assert_eq!(t.level_dims(7), (1, 1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextureDesc {
    id: TextureId,
    width: u32,
    height: u32,
    base_addr: u64,
    layout: TexelLayout,
    /// Per-level addressing constants, level 0 first.
    mips: Vec<MipLevel>,
    total_bytes: u64,
}

/// Addressing constants of one mip level, computed once per texture so
/// the sampler's footprint kernel reads them instead of re-deriving
/// them per quad.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MipLevel {
    /// Level width in texels (a power of two).
    pub(crate) w: u32,
    /// Level height in texels (a power of two).
    pub(crate) h: u32,
    /// First byte address of the level.
    pub(crate) base: u64,
    /// Line address of `base`.
    pub(crate) line: LineAddr,
    /// `Repeat` wrap mask of 4×4-texel block columns in the Morton
    /// (bit-spread) domain, `spread_bits((w - 1) >> 2)`: the block of
    /// texel `x.rem_euclid(w)` spreads to
    /// `spread_bits((x >> 2) as u32) & x_spread_mask`. It covers the
    /// last block column too, so clamped blocks pass it unchanged.
    pub(crate) x_spread_mask: u64,
    /// The same for block rows, `spread_bits((h - 1) >> 2)`.
    pub(crate) y_spread_mask: u64,
    /// How the level's texels map to lines.
    pub(crate) lines: MipLines,
}

/// How a mip level's texels map to cache lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MipLines {
    /// Morton layout at a line-aligned base: one line is exactly one
    /// 4×4-texel block, and block `(bx, by)` is line
    /// `line + morton::encode(bx, by)`.
    Blocks,
    /// A 1×1 level: one texel, so one line (`line`) whatever the
    /// coordinates, wrap or layout. As the tail of a longer chain it
    /// is never line-aligned (it follows a 16-byte 2×2 or 2×1 level).
    Single,
    /// Anything else (row-major layout, a base that is not
    /// line-aligned, or a side above 2¹⁶ texels, where the texel
    /// Morton code wraps): only per-tap addressing is exact.
    Taps,
}

impl TextureDesc {
    /// Create a Morton-tiled texture (the platform default).
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero or not a power of two.
    #[must_use]
    pub fn new(id: TextureId, width: u32, height: u32, base_addr: u64) -> Self {
        Self::with_layout(id, width, height, base_addr, TexelLayout::Morton)
    }

    /// Create a texture with an explicit [`TexelLayout`].
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero or not a power of two.
    #[must_use]
    pub fn with_layout(
        id: TextureId,
        width: u32,
        height: u32,
        base_addr: u64,
        layout: TexelLayout,
    ) -> Self {
        assert!(
            width.is_power_of_two() && height.is_power_of_two(),
            "texture dimensions must be powers of two, got {width}x{height}"
        );
        // One line = one 4×4 Morton block requires exactly 16 texels
        // per line.
        debug_assert_eq!(LINE_BYTES / BYTES_PER_TEXEL, 16);
        let mut mips = Vec::new();
        let mut offset = 0u64;
        let (mut w, mut h) = (width, height);
        loop {
            let base = base_addr + offset;
            let lines = if w == 1 && h == 1 {
                MipLines::Single
            } else if layout == TexelLayout::Morton
                && base.is_multiple_of(LINE_BYTES)
                && w.max(h) <= 1 << 16
            {
                MipLines::Blocks
            } else {
                MipLines::Taps
            };
            mips.push(MipLevel {
                w,
                h,
                base,
                line: base / LINE_BYTES,
                x_spread_mask: morton::spread_bits((w - 1) >> 2),
                y_spread_mask: morton::spread_bits((h - 1) >> 2),
                lines,
            });
            // Morton layout addresses within the bounding square; the
            // allocation is padded accordingly (a standard trade-off of
            // tiled layouts for non-square levels).
            let side = w.max(h) as u64;
            offset += side * side * BYTES_PER_TEXEL;
            if w == 1 && h == 1 {
                break;
            }
            w = (w / 2).max(1);
            h = (h / 2).max(1);
        }
        Self {
            id,
            width,
            height,
            base_addr,
            layout,
            mips,
            total_bytes: offset,
        }
    }

    /// The texture's texel layout.
    #[must_use]
    pub fn layout(&self) -> TexelLayout {
        self.layout
    }

    /// The texture's identifier.
    #[must_use]
    pub fn id(&self) -> TextureId {
        self.id
    }

    /// Level-0 width in texels.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Level-0 height in texels.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// First byte address of the texture's allocation.
    #[must_use]
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }

    /// Number of mip levels.
    #[must_use]
    pub fn levels(&self) -> u32 {
        self.mips.len() as u32
    }

    /// Total allocation footprint in bytes (all levels, with tiling
    /// padding) — the "texture footprint" of Table I.
    #[must_use]
    pub fn footprint_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Dimensions of mip level `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels()`.
    #[must_use]
    pub fn level_dims(&self, level: u32) -> (u32, u32) {
        assert!(level < self.levels(), "level {level} out of range");
        ((self.width >> level).max(1), (self.height >> level).max(1))
    }

    /// Addressing constants of mip `level` (the sampler's footprint
    /// kernel reads these in place of per-tap addressing).
    pub(crate) fn mip(&self, level: u32) -> &MipLevel {
        &self.mips[level as usize]
    }

    /// Byte address of texel `(x, y)` at `level`, clamping the
    /// coordinates to the level's bounds (clamp-to-edge addressing).
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels()`.
    #[must_use]
    pub fn texel_addr(&self, level: u32, x: i64, y: i64) -> u64 {
        let (w, h) = self.level_dims(level);
        let cx = x.clamp(0, i64::from(w) - 1) as u32;
        let cy = y.clamp(0, i64::from(h) - 1) as u32;
        let texel_index = match self.layout {
            TexelLayout::Morton => morton::encode(cx, cy),
            // The allocation is padded to the bounding square, so the
            // linear pitch is the square side (keeps level offsets
            // layout-independent).
            TexelLayout::RowMajor => u64::from(cy) * u64::from(w.max(h)) + u64::from(cx),
        };
        self.mips[level as usize].base + texel_index * BYTES_PER_TEXEL
    }

    /// Cache-line address of texel `(x, y)` at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels()`.
    #[must_use]
    pub fn texel_line(&self, level: u32, x: i64, y: i64) -> LineAddr {
        self.texel_addr(level, x, y) / LINE_BYTES
    }

    /// Procedural RGBA color of texel `(x, y)` at `level`
    /// (clamp-to-edge).
    ///
    /// The simulator carries no texel payloads; for functional
    /// rendering each texture's content is a deterministic hash of
    /// `(id, level, x, y)` — smooth enough to look like content,
    /// unique enough that any scheduling bug that samples the wrong
    /// texel changes the output image.
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels()`.
    #[must_use]
    pub fn texel_color(&self, level: u32, x: i64, y: i64) -> [u8; 4] {
        let (w, h) = self.level_dims(level);
        let cx = x.clamp(0, i64::from(w) - 1) as u64;
        let cy = y.clamp(0, i64::from(h) - 1) as u64;
        let mut z = (u64::from(self.id) << 48) ^ (u64::from(level) << 40) ^ (cx << 20) ^ cy;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        [
            (z & 0xFF) as u8,
            ((z >> 8) & 0xFF) as u8,
            ((z >> 16) & 0xFF) as u8,
            // Alpha biased toward opaque-ish values so blending stays
            // visible but bounded.
            (128 + ((z >> 24) & 0x7F)) as u8,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mip_chain_dims() {
        let t = TextureDesc::new(0, 256, 256, 0);
        assert_eq!(t.levels(), 9);
        assert_eq!(t.level_dims(0), (256, 256));
        assert_eq!(t.level_dims(4), (16, 16));
        assert_eq!(t.level_dims(8), (1, 1));
    }

    #[test]
    fn non_square_chain() {
        let t = TextureDesc::new(0, 64, 16, 0);
        assert_eq!(t.levels(), 7);
        assert_eq!(t.level_dims(3), (8, 2));
        assert_eq!(t.level_dims(6), (1, 1));
    }

    #[test]
    fn footprint_grows_with_size() {
        let small = TextureDesc::new(0, 64, 64, 0);
        let large = TextureDesc::new(1, 512, 512, 0);
        assert!(large.footprint_bytes() > small.footprint_bytes());
        // Level 0 dominates: footprint is between 1× and 2× level 0.
        let l0 = 512 * 512 * BYTES_PER_TEXEL;
        assert!(large.footprint_bytes() >= l0);
        assert!(large.footprint_bytes() < 2 * l0);
    }

    #[test]
    fn adjacent_texels_share_lines() {
        let t = TextureDesc::new(0, 256, 256, 0);
        // A 64-byte line holds 16 RGBA8 texels = one 4×4 Morton block.
        let l00 = t.texel_line(0, 0, 0);
        assert_eq!(t.texel_line(0, 3, 3), l00);
        assert_ne!(t.texel_line(0, 4, 0), l00);
        assert_ne!(t.texel_line(0, 0, 4), l00);
    }

    #[test]
    fn clamp_to_edge() {
        let t = TextureDesc::new(0, 32, 32, 0);
        assert_eq!(t.texel_addr(0, -5, 0), t.texel_addr(0, 0, 0));
        assert_eq!(t.texel_addr(0, 31, 99), t.texel_addr(0, 31, 31));
    }

    #[test]
    fn levels_do_not_overlap() {
        let t = TextureDesc::new(0, 64, 64, 0x1000);
        let max_l0 = t.texel_addr(0, 63, 63);
        let min_l1 = t.texel_addr(1, 0, 0);
        assert!(max_l0 < min_l1);
        assert!(min_l1 >= 0x1000 + 64 * 64 * BYTES_PER_TEXEL);
    }

    #[test]
    fn base_addr_offsets_everything() {
        let a = TextureDesc::new(0, 32, 32, 0);
        let b = TextureDesc::new(0, 32, 32, 0x10_0000);
        assert_eq!(b.texel_addr(2, 3, 3) - a.texel_addr(2, 3, 3), 0x10_0000);
    }

    #[test]
    fn pow2_dims_are_accepted() {
        // The checked counterpart of `non_pow2_panics`.
        let t = TextureDesc::new(0, 128, 64, 0);
        assert_eq!((t.width(), t.height()), (128, 64));
    }

    #[test]
    // lint: typed-sibling(pow2_dims_are_accepted)
    #[should_panic(expected = "powers of two")]
    fn non_pow2_panics() {
        let _ = TextureDesc::new(0, 100, 64, 0);
    }

    #[test]
    fn row_major_lines_are_horizontal_strips() {
        let t = TextureDesc::with_layout(0, 256, 256, 0, TexelLayout::RowMajor);
        assert_eq!(t.layout(), TexelLayout::RowMajor);
        let l00 = t.texel_line(0, 0, 0);
        // 16 RGBA8 texels per 64-byte line, along x.
        assert_eq!(t.texel_line(0, 15, 0), l00);
        assert_ne!(t.texel_line(0, 16, 0), l00);
        assert_ne!(t.texel_line(0, 0, 1), l00, "vertical neighbor: new line");
    }

    #[test]
    fn layouts_share_footprint_and_bounds() {
        let m = TextureDesc::new(0, 128, 64, 0x1000);
        let r = TextureDesc::with_layout(0, 128, 64, 0x1000, TexelLayout::RowMajor);
        assert_eq!(m.footprint_bytes(), r.footprint_bytes());
        // Row-major addresses stay inside the allocation too.
        for level in 0..r.levels() {
            let (w, h) = r.level_dims(level);
            let a = r.texel_addr(level, i64::from(w) - 1, i64::from(h) - 1);
            assert!(a < r.base_addr() + r.footprint_bytes());
        }
    }

    #[test]
    fn default_layout_is_morton() {
        assert_eq!(TextureDesc::new(0, 4, 4, 0).layout(), TexelLayout::Morton);
    }

    #[test]
    // lint: typed-sibling(layouts_share_footprint_and_bounds)
    #[should_panic(expected = "out of range")]
    fn bad_level_panics() {
        let t = TextureDesc::new(0, 4, 4, 0);
        let _ = t.level_dims(9);
    }
}
