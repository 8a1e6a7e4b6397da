//! `FramePrefix::build` and `FrameSim::try_run_prefixed`, rebuilt from
//! the public calls they make, with a host-time accumulator around
//! every layer call.
//!
//! The rebuild follows the simulator step for step: geometry, binning,
//! then per tile (row-major) rasterization, early-Z and footprint
//! expansion; per leg the tile schedule and quad→SC partition, then per
//! (tile, SC) subtile the private-L1 lane walk, the shared L2/DRAM
//! replay and the warp timing, and finally both barrier compositions.
//! The leg takes the trace → replay → time split (the simulator's
//! serial path fuses the three); the simulator documents the two as
//! bit-identical, and [`LegCounts::matches`] checks it on every traced
//! job.
//!
//! Per-quad layers (z-buffer, sampler) are timed per tile block rather
//! than per quad: within a tile the z-buffer pass runs over all of the
//! tile's quads first and the sampler pass over the survivors after it.
//! The two passes touch disjoint state, so the survivor set and the
//! footprint arena come out identical to the interleaved loop.

use dtexl_mem::{LineAddr, TextureHierarchy};
use dtexl_pipeline::{
    compose_frame, BarrierMode, FrameResult, GeometryPipeline, GeometryStats, PipelineConfig,
    PreparedQuad, Quad, Rasterizer, ShaderCore, SimError, StageDurations, TilingEngine,
    TilingStats, ZBuffer,
};
use dtexl_scene::Scene;
use dtexl_sched::{ScheduleConfig, TileSchedule};
use dtexl_texture::{Sampler, TextureDesc};
use std::time::Instant;

/// A simulator layer the rebuild charges host time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `GeometryPipeline::run`.
    Geometry,
    /// `TilingEngine::bin`.
    Tiling,
    /// `Rasterizer::rasterize_tile_into`.
    Raster,
    /// `ZBuffer::test_and_update`.
    Zbuffer,
    /// `Sampler::quad_footprint_into`.
    Sampler,
    /// `TileSchedule::build` plus the `sc_of_quad` partition.
    Sched,
    /// `ShaderCore::trace_prepared` over an `L1Lane`.
    Lane,
    /// `TextureHierarchy::replay_demand`.
    Replay,
    /// `ShaderCore::time_subtile`.
    Warp,
    /// `compose_frame`, coupled and decoupled.
    Compose,
}

impl Layer {
    /// Every layer, prefix layers first.
    pub const ALL: [Self; 10] = [
        Self::Geometry,
        Self::Tiling,
        Self::Raster,
        Self::Zbuffer,
        Self::Sampler,
        Self::Sched,
        Self::Lane,
        Self::Replay,
        Self::Warp,
        Self::Compose,
    ];

    /// The layer's metric prefix (`"geometry"`, `"lane"`, …).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Geometry => "geometry",
            Self::Tiling => "tiling",
            Self::Raster => "raster",
            Self::Zbuffer => "zbuffer",
            Self::Sampler => "sampler",
            Self::Sched => "sched",
            Self::Lane => "lane",
            Self::Replay => "replay",
            Self::Warp => "warp",
            Self::Compose => "compose",
        }
    }

    /// Whether the layer belongs to the schedule-independent prefix.
    #[must_use]
    pub fn in_prefix(self) -> bool {
        self <= Self::Sampler
    }
}

/// Host time and call count per layer, with the wall-clock interval
/// each layer was first entered and last left (nanoseconds since the
/// tracer's epoch).
#[derive(Debug, Clone, Copy)]
pub struct LayerTimes {
    epoch: Instant,
    /// Busy nanoseconds per layer, indexed like [`Layer::ALL`].
    pub ns: [u64; 10],
    /// Timed calls per layer.
    pub calls: [u64; 10],
    /// First entry per layer (`u64::MAX` when never entered).
    pub first: [u64; 10],
    /// Last exit per layer.
    pub last: [u64; 10],
}

impl LayerTimes {
    /// Empty accumulators timing against `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            ns: [0; 10],
            calls: [0; 10],
            first: [u64::MAX; 10],
            last: [0; 10],
        }
    }

    /// Run `f`, charging its wall time to `layer`.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let i = layer as usize;
        self.ns[i] += (end - start).as_nanos() as u64;
        self.calls[i] += 1;
        let (s, e) = (
            (start - self.epoch).as_nanos() as u64,
            (end - self.epoch).as_nanos() as u64,
        );
        self.first[i] = self.first[i].min(s);
        self.last[i] = self.last[i].max(e);
        out
    }

    /// Busy nanoseconds of `layer`.
    #[must_use]
    pub fn get(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }
}

/// A post-early-Z survivor: the fields the fragment stage consumes.
#[derive(Debug, Clone, Copy)]
struct Survivor {
    qx: u32,
    qy: u32,
    issue: u32,
    alu_ops: u32,
    tex_samples: u32,
    lines: (u32, u32),
}

/// Per-tile slice of the rebuilt arenas (row-major tiles).
#[derive(Debug, Clone, Copy)]
struct TileSlice {
    rast: (u32, u32),
    surv: (u32, u32),
    fetch: u64,
    raster_cycles: u64,
}

/// Work counts of one prefix build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixCounts {
    /// Primitives the geometry phase emitted.
    pub prims: u64,
    /// Primitive references across all tile bins.
    pub bin_refs: u64,
    /// Quads the rasterizer emitted (pre early-Z).
    pub raster_quads: u64,
    /// Quads that survive early-Z (or are late-Z) and are shaded.
    pub survivors: u64,
    /// Footprint cache lines the sampler resolved.
    pub lines: u64,
}

/// The rebuilt schedule-independent prefix of one frame.
#[derive(Debug)]
pub struct Prefix {
    config: PipelineConfig,
    geometry: GeometryStats,
    tiling: TilingStats,
    tiles_w: u32,
    tiles_h: u32,
    tiles: Vec<TileSlice>,
    rast_pos: Vec<(u32, u32)>,
    quads: Vec<Survivor>,
    lines: Vec<LineAddr>,
    /// Work counts of the build.
    pub counts: PrefixCounts,
}

fn span(r: (u32, u32)) -> std::ops::Range<usize> {
    r.0 as usize..r.1 as usize
}

/// Rebuild `FramePrefix::build(scene, config, width, height)`.
///
/// # Errors
///
/// The [`SimError`] `FramePrefix::build` returns for the same inputs.
///
/// # Panics
///
/// Panics if `config` carries a fault plan: faults perturb stage
/// durations through a crate-private hook the rebuild cannot call.
pub fn build_prefix(
    scene: &Scene,
    config: &PipelineConfig,
    width: u32,
    height: u32,
    t: &mut LayerTimes,
) -> Result<Prefix, SimError> {
    assert_eq!(
        config.fault,
        dtexl_pipeline::FaultPlan::default(),
        "the rebuild models fault-free configurations only"
    );
    config.validate()?;
    scene.validate().map_err(SimError::Scene)?;
    let textures: &[TextureDesc] = &scene.textures;
    for (i, tex) in textures.iter().enumerate() {
        if tex.id() as usize != i {
            return Err(SimError::SparseTextureIds {
                index: i,
                id: tex.id(),
            });
        }
    }

    let gout = t.time(Layer::Geometry, || {
        GeometryPipeline::new(config.vertex_cache).run(scene, width, height)
    });
    let bins = t.time(Layer::Tiling, || {
        TilingEngine::new(config.tile_cache, config.tile_size).bin(&gout.prims, width, height)
    });

    let raster = Rasterizer::new(config.tile_size);
    let mut zbuf = ZBuffer::new(config.tile_size);
    let screen = dtexl::gmath::Rect::new(0, 0, width as i32, height as i32);
    let mut counts = PrefixCounts {
        prims: gout.prims.len() as u64,
        ..PrefixCounts::default()
    };
    let mut tiles = Vec::with_capacity((bins.tiles_w() * bins.tiles_h()) as usize);
    let mut rast_pos: Vec<(u32, u32)> = Vec::new();
    let mut quads: Vec<Survivor> = Vec::new();
    let mut lines: Vec<LineAddr> = Vec::new();
    let mut tile_quads: Vec<Quad> = Vec::new();
    let mut shaded: Vec<u32> = Vec::new();
    for ty in 0..bins.tiles_h() {
        for tx in 0..bins.tiles_w() {
            let list = bins.list(tx, ty);
            counts.bin_refs += list.len() as u64;
            let fetch = 4 + list.len() as u64 * u64::from(config.fetch_cycles_per_prim);
            tile_quads.clear();
            let (tile_px, tile_py) = (
                (tx * config.tile_size) as i32,
                (ty * config.tile_size) as i32,
            );
            t.time(Layer::Raster, || {
                raster.rasterize_tile_into(
                    &gout.prims,
                    list,
                    tile_px,
                    tile_py,
                    screen,
                    &mut tile_quads,
                )
            });
            counts.raster_quads += tile_quads.len() as u64;
            let raster_cycles =
                (tile_quads.len() as u64).div_ceil(u64::from(config.raster_quads_per_cycle));

            let rast_start = rast_pos.len() as u32;
            shaded.clear();
            t.time(Layer::Zbuffer, || {
                zbuf.clear();
                for (i, q) in tile_quads.iter().enumerate() {
                    rast_pos.push((q.qx, q.qy));
                    let surviving = zbuf.test_and_update(q);
                    let shade_mask = if q.late_z { q.mask } else { surviving };
                    if shade_mask != 0 {
                        shaded.push(i as u32);
                    }
                }
            });
            let surv_start = quads.len() as u32;
            t.time(Layer::Sampler, || {
                for &i in &shaded {
                    let q = &tile_quads[i as usize];
                    let line_start = lines.len() as u32;
                    Sampler::new(q.shader.filter).quad_footprint_into(
                        &textures[q.texture as usize],
                        q.uv,
                        &mut lines,
                    );
                    quads.push(Survivor {
                        qx: q.qx,
                        qy: q.qy,
                        issue: q.shader.issue_slots(),
                        alu_ops: q.shader.alu_ops,
                        tex_samples: q.shader.tex_samples,
                        lines: (line_start, lines.len() as u32),
                    });
                }
            });
            tiles.push(TileSlice {
                rast: (rast_start, rast_pos.len() as u32),
                surv: (surv_start, quads.len() as u32),
                fetch,
                raster_cycles,
            });
        }
    }
    counts.survivors = quads.len() as u64;
    counts.lines = lines.len() as u64;
    let (tiles_w, tiles_h) = (bins.tiles_w(), bins.tiles_h());
    Ok(Prefix {
        config: *config,
        geometry: gout.stats,
        tiling: bins.stats,
        tiles_w,
        tiles_h,
        tiles,
        rast_pos,
        quads,
        lines,
        counts,
    })
}

/// Simulated counters of one leg, as the rebuild or `FrameSim` saw them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LegCounts {
    /// Private-L1 hits, all lanes (prefetch fills included).
    pub l1_hits: u64,
    /// Private-L1 misses, all lanes.
    pub l1_misses: u64,
    /// Shared-L2 accesses.
    pub l2_accesses: u64,
    /// Shared-L2 hits.
    pub l2_hits: u64,
    /// DRAM requests.
    pub dram_requests: u64,
    /// Whole-frame cycles under coupled barriers.
    pub coupled_cycles: u64,
    /// Whole-frame cycles under decoupled barriers.
    pub decoupled_cycles: u64,
}

impl LegCounts {
    /// The same counters read off a simulator [`FrameResult`].
    #[must_use]
    pub fn of(r: &FrameResult) -> Self {
        Self {
            l1_hits: r.hierarchy.l1.iter().map(|s| s.hits).sum(),
            l1_misses: r.hierarchy.l1.iter().map(|s| s.misses).sum(),
            l2_accesses: r.hierarchy.l2.accesses,
            l2_hits: r.hierarchy.l2.hits,
            dram_requests: r.hierarchy.dram_accesses,
            coupled_cycles: r.total_cycles(BarrierMode::Coupled),
            decoupled_cycles: r.total_cycles(BarrierMode::Decoupled),
        }
    }

    /// L1 probes (hits + misses).
    #[must_use]
    pub fn l1_probes(&self) -> u64 {
        self.l1_hits + self.l1_misses
    }

    /// `Ok` when `self` (the rebuild) equals `sim`, else a message
    /// naming every counter that differs.
    ///
    /// # Errors
    ///
    /// The list of differing counters.
    pub fn matches(&self, sim: &Self) -> Result<(), String> {
        let pairs = [
            ("l1_hits", self.l1_hits, sim.l1_hits),
            ("l1_misses", self.l1_misses, sim.l1_misses),
            ("l2_accesses", self.l2_accesses, sim.l2_accesses),
            ("l2_hits", self.l2_hits, sim.l2_hits),
            ("dram_requests", self.dram_requests, sim.dram_requests),
            ("coupled_cycles", self.coupled_cycles, sim.coupled_cycles),
            (
                "decoupled_cycles",
                self.decoupled_cycles,
                sim.decoupled_cycles,
            ),
        ];
        let diffs: Vec<String> = pairs
            .iter()
            .filter(|(_, a, b)| a != b)
            .map(|(n, a, b)| format!("{n}: rebuilt {a} vs FrameSim {b}"))
            .collect();
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(diffs.join(", "))
        }
    }
}

/// The survivors at `indices` as shader-core input.
fn prepared<'a>(
    prefix: &'a Prefix,
    indices: &'a [u32],
) -> impl Iterator<Item = PreparedQuad<'a>> + 'a {
    indices.iter().map(move |&qi| {
        let q = &prefix.quads[qi as usize];
        PreparedQuad {
            issue: q.issue,
            alu_ops: q.alu_ops,
            tex_samples: q.tex_samples,
            lines: &prefix.lines[span(q.lines)],
        }
    })
}

/// Rebuild `FrameSim::try_run_prefixed(prefix, schedule, config)` for a
/// prefix built by [`build_prefix`] under the same `config`.
///
/// # Panics
///
/// Panics if `config` differs from the prefix's build configuration in
/// anything but `threads` (the simulator returns an error there; a
/// benchmark calling it so is a bug in the benchmark).
pub fn run_leg(
    prefix: &Prefix,
    schedule: &ScheduleConfig,
    config: &PipelineConfig,
    t: &mut LayerTimes,
) -> LegCounts {
    let mut a = *config;
    let mut b = prefix.config;
    a.threads = 1;
    b.threads = 1;
    assert_eq!(a, b, "leg configuration must match the prefix's");
    let qps = config.quads_per_side();

    // Partition pass in schedule order: per tile, the survivor indices
    // of each SC, one flat arena with per-subtile ranges.
    let (order, sc_idx, ranges, rasterized) = t.time(Layer::Sched, || {
        let tsched = TileSchedule::build(schedule, prefix.tiles_w, prefix.tiles_h);
        let mut order = Vec::with_capacity(tsched.len());
        let mut sc_idx: Vec<u32> = Vec::with_capacity(prefix.quads.len());
        let mut ranges: Vec<[(u32, u32); 4]> = Vec::with_capacity(tsched.len());
        let mut rasterized: Vec<[u32; 4]> = Vec::with_capacity(tsched.len());
        let mut buckets: [Vec<u32>; 4] = Default::default();
        for (ti, (tx, ty), _assign) in tsched.iter() {
            let tp = &prefix.tiles[(ty * prefix.tiles_w + tx) as usize];
            let mut rast = [0u32; 4];
            for &(qx, qy) in &prefix.rast_pos[span(tp.rast)] {
                rast[tsched.sc_of_quad(ti, qx, qy, qps, qps)] += 1;
            }
            for bucket in &mut buckets {
                bucket.clear();
            }
            for qi in tp.surv.0..tp.surv.1 {
                let q = &prefix.quads[qi as usize];
                buckets[tsched.sc_of_quad(ti, q.qx, q.qy, qps, qps)].push(qi);
            }
            let mut r = [(0u32, 0u32); 4];
            for (slot, bucket) in r.iter_mut().zip(&buckets) {
                let start = sc_idx.len() as u32;
                sc_idx.extend_from_slice(bucket);
                *slot = (start, sc_idx.len() as u32);
            }
            order.push(tp);
            ranges.push(r);
            rasterized.push(rast);
        }
        (order, sc_idx, ranges, rasterized)
    });

    let mut hierarchy = TextureHierarchy::new(config.effective_hierarchy());
    let core = ShaderCore::new(config.warp_slots, config.l1_miss_fill_cycles);
    let mut durations = StageDurations::default();
    let mut merged: Vec<u32> = Vec::new();
    let subtile = |sc: usize, indices: &[u32], h: &mut TextureHierarchy, t: &mut LayerTimes| {
        let lane = h.lane_mut(sc);
        let l1_latency = lane.l1_latency();
        let trace = t.time(Layer::Lane, || {
            core.trace_prepared(prepared(prefix, indices), lane)
        });
        let latencies = t.time(Layer::Replay, || h.replay_demand(&trace.requests));
        t.time(Layer::Warp, || {
            core.time_subtile(&trace, l1_latency, &latencies)
        })
        .0
    };
    for ((tp, r), rast) in order.iter().zip(&ranges).zip(&rasterized) {
        durations.fetch.push(tp.fetch);
        durations.raster.push(tp.raster_cycles);
        let mut ez = [0u64; 4];
        let mut frag = [0u64; 4];
        let mut blend = [0u64; 4];
        if config.upper_bound {
            merged.clear();
            for &slot in r {
                merged.extend_from_slice(&sc_idx[span(slot)]);
            }
            frag[0] = subtile(0, &merged, &mut hierarchy, t);
            ez[0] = u64::from(rast.iter().sum::<u32>());
            blend[0] = merged.len() as u64 + u64::from(config.flush_cycles_per_bank);
        } else {
            for (sc, &slot) in r.iter().enumerate().take(config.num_sc) {
                let indices = &sc_idx[span(slot)];
                frag[sc] = subtile(sc, indices, &mut hierarchy, t);
                ez[sc] = u64::from(rast[sc]);
                blend[sc] = indices.len() as u64 + u64::from(config.flush_cycles_per_bank);
            }
        }
        durations.early_z.push(ez);
        durations.fragment.push(frag);
        durations.blend.push(blend);
    }

    let (coupled, decoupled) = t.time(Layer::Compose, || {
        (
            compose_frame(&durations, BarrierMode::Coupled),
            compose_frame(&durations, BarrierMode::Decoupled),
        )
    });
    let front = prefix.geometry.cycles + prefix.tiling.build_cycles;
    let stats = hierarchy.stats();
    LegCounts {
        l1_hits: stats.l1.iter().map(|s| s.hits).sum(),
        l1_misses: stats.l1.iter().map(|s| s.misses).sum(),
        l2_accesses: stats.l2.accesses,
        l2_hits: stats.l2.hits,
        dram_requests: stats.dram_accesses,
        coupled_cycles: front + coupled,
        decoupled_cycles: front + decoupled,
    }
}
