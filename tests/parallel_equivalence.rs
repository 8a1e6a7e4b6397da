//! Serial vs. parallel equivalence of the frame simulator.
//!
//! The parallel SC-lane path (`PipelineConfig::threads > 1`) traces
//! each core's private L1 on a worker thread and replays the L2-miss
//! streams serially in the order the serial simulator issues them. The
//! DRAM latency model hashes the *global* request index, so any
//! reordering would change latencies — these tests pin the guarantee
//! that every reported metric is bit-identical to the serial reference,
//! across games, schedules, barrier modes and ragged resolutions.

use dtexl::mem::ReplacementKind;
use dtexl::{SimConfig, Simulator};
use dtexl_alloc::{meter_current_thread, AllocMeter};
use dtexl_pipeline::{BarrierMode, FrameSim, PipelineConfig};
use dtexl_scene::{Game, SceneSpec};
use dtexl_sched::ScheduleConfig;

const MODES: [BarrierMode; 3] = [
    BarrierMode::Coupled,
    BarrierMode::Decoupled,
    BarrierMode::DecoupledBounded { tiles_ahead: 2 },
];

/// Ragged resolutions: neither dimension is a multiple of the 32-pixel
/// tile, so edge tiles are partial in both axes.
const RESOLUTIONS: [(u32, u32); 2] = [(100, 50), (65, 31)];

fn run(
    game: Game,
    schedule: &ScheduleConfig,
    config: &PipelineConfig,
    w: u32,
    h: u32,
) -> dtexl_pipeline::FrameResult {
    let scene = game.scene(&SceneSpec::new(w, h, 0));
    FrameSim::run_with_resolution(&scene, schedule, config, w, h)
}

fn assert_identical(game: Game, schedule: &ScheduleConfig, base: &PipelineConfig, w: u32, h: u32) {
    let serial = PipelineConfig {
        threads: 1,
        ..*base
    };
    let parallel = PipelineConfig {
        threads: 4,
        ..*base
    };
    let a = run(game, schedule, &serial, w, h);
    let b = run(game, schedule, &parallel, w, h);
    let ctx = format!("{game:?} {}x{h} {}", w, schedule.label());
    for mode in MODES {
        assert_eq!(
            a.total_cycles(mode),
            b.total_cycles(mode),
            "cycles diverge under {mode:?}: {ctx}"
        );
        assert_eq!(
            a.energy_events(mode),
            b.energy_events(mode),
            "energy events diverge under {mode:?}: {ctx}"
        );
    }
    assert_eq!(a.total_l2_accesses(), b.total_l2_accesses(), "L2: {ctx}");
    assert_eq!(a.hierarchy, b.hierarchy, "hierarchy stats: {ctx}");
}

#[test]
fn parallel_matches_serial_across_games_schedules_and_resolutions() {
    for game in Game::ALL {
        for schedule in [ScheduleConfig::baseline(), ScheduleConfig::dtexl()] {
            for (w, h) in RESOLUTIONS {
                assert_identical(game, &schedule, &PipelineConfig::default(), w, h);
            }
        }
    }
}

#[test]
fn parallel_matches_serial_in_upper_bound_mode() {
    let base = PipelineConfig {
        upper_bound: true,
        ..PipelineConfig::default()
    };
    for (w, h) in RESOLUTIONS {
        assert_identical(Game::TempleRun, &ScheduleConfig::dtexl(), &base, w, h);
    }
}

#[test]
fn parallel_matches_serial_under_every_replacement_policy_and_prefetch() {
    // The serial path enters the L1 through the fused
    // `TextureHierarchy::access`, the parallel one through the traced
    // `L1Lane::access`; both must make the same L1 transition under
    // every policy, with and without the next-line prefetch. RoK at
    // 320×128 touches far more lines than an L1 holds, so every policy
    // picks victims.
    for replacement in [
        ReplacementKind::Lru,
        ReplacementKind::Fifo,
        ReplacementKind::Random,
    ] {
        for prefetch_next_line in [false, true] {
            let mut base = PipelineConfig::default();
            base.hierarchy.replacement = replacement;
            base.hierarchy.prefetch_next_line = prefetch_next_line;
            for (game, (w, h)) in [
                (Game::CandyCrush, (100, 50)),
                (Game::RiseOfKingdoms, (65, 31)),
                (Game::RiseOfKingdoms, (320, 128)),
            ] {
                assert_identical(game, &ScheduleConfig::dtexl(), &base, w, h);
            }
        }
    }
}

#[test]
fn parallel_runs_are_deterministic_across_repeats() {
    // Ten repeats of the same 4-thread run: thread scheduling noise
    // must never leak into the results.
    let config = PipelineConfig {
        threads: 4,
        ..PipelineConfig::default()
    };
    let reference = run(Game::CandyCrush, &ScheduleConfig::dtexl(), &config, 100, 50);
    for rep in 0..9 {
        let again = run(Game::CandyCrush, &ScheduleConfig::dtexl(), &config, 100, 50);
        assert_eq!(
            reference.total_cycles(BarrierMode::Decoupled),
            again.total_cycles(BarrierMode::Decoupled),
            "repeat {rep} diverged"
        );
        assert_eq!(
            reference.hierarchy, again.hierarchy,
            "repeat {rep} diverged"
        );
        assert_eq!(
            reference.energy_events(BarrierMode::Decoupled),
            again.energy_events(BarrierMode::Decoupled),
            "repeat {rep} diverged"
        );
    }
}

#[test]
fn sequence_fanout_matches_serial_loop() {
    let serial = SimConfig::dtexl(Game::Maze).with_resolution(100, 50);
    let mut threaded = serial;
    threaded.pipeline.threads = 4;
    assert_eq!(
        Simulator::simulate_sequence(&serial, 4),
        Simulator::simulate_sequence(&threaded, 4),
        "frame fan-out must preserve every per-frame metric"
    );
}

#[test]
fn fragment_stage_does_not_allocate_per_quad() {
    // The early-Z survivor path used to clone every surviving `Quad`
    // into per-SC re-merge buffers; on the densest game (CandyCrush,
    // ~150k survivors at 480×192) the frame's high-water mark measured
    // 15_450_568 bytes before the fix. The prepared-quad arena path
    // reuses flat index buffers and measures ~12.0 MB despite now
    // retaining the whole schedule-independent prefix for the frame.
    // 14 MB splits the two: far above normal jitter, well below the
    // per-quad-clone cost coming back. Pinned to one thread: the
    // per-quad-clone regression is equally visible serially, and the
    // parallel path's (legitimately higher, lane-buffer-bearing) peak
    // is covered by `lane_worker_allocations_charge_the_job_meter`.
    let scene = Game::CandyCrush.scene(&SceneSpec::new(480, 192, 0));
    let meter = AllocMeter::new();
    let guard = meter_current_thread(&meter);
    let serial = PipelineConfig {
        threads: 1,
        ..PipelineConfig::default()
    };
    let r = FrameSim::run_with_resolution(&scene, &ScheduleConfig::dtexl(), &serial, 480, 192);
    drop(guard);
    assert!(r.total_l2_accesses() > 0, "frame must have run");
    assert!(
        meter.peak_bytes() < 14_000_000,
        "fragment-stage peak allocation regressed: {} bytes",
        meter.peak_bytes()
    );
}

#[test]
fn lane_worker_allocations_charge_the_job_meter() {
    // The fragment stage's lane workers run on scoped threads; before
    // the meter handoff their allocations were invisible to the job's
    // `AllocMeter`, so a parallel sweep under-reported its high-water
    // mark by the entire fragment working set (and per-job memory
    // budgets silently failed to bind). With the handoff, the metered
    // parallel peak on a heavy game must be at least the serial peak:
    // the same buffers are charged, plus whatever per-lane buffers
    // live concurrently (measured: ~12.0 MB serial vs ~14.7 MB at 4
    // threads on this scene).
    let scene = Game::CandyCrush.scene(&SceneSpec::new(480, 192, 0));
    let peak = |threads: usize| {
        let meter = AllocMeter::new();
        let guard = meter_current_thread(&meter);
        let config = PipelineConfig {
            threads,
            ..PipelineConfig::default()
        };
        let r = FrameSim::run_with_resolution(&scene, &ScheduleConfig::dtexl(), &config, 480, 192);
        drop(guard);
        assert!(r.total_l2_accesses() > 0, "frame must have run");
        meter.peak_bytes()
    };
    let serial = peak(1);
    let parallel = peak(4);
    assert!(
        parallel >= serial,
        "lane workers stopped charging the job meter: parallel peak {parallel} < serial peak \
         {serial}"
    );
}

#[test]
fn edge_tiles_flush_only_their_screen_intersection() {
    // 100×50 with 32-pixel tiles: 4×2 tile grid covering 128×64 pixels.
    // Flushed color traffic must charge the 100×50 screen area only —
    // 4 bytes per pixel rounded up to 64-byte lines *per tile*, not the
    // full 128×64 the tile grid spans.
    let r = run(
        Game::GravityTetris,
        &ScheduleConfig::baseline(),
        &PipelineConfig::default(),
        100,
        50,
    );
    let mut expected = 0u64;
    for ty in 0..2u64 {
        for tx in 0..4u64 {
            let w = 32.min(100 - tx * 32);
            let h = 32.min(50 - ty * 32);
            expected += (w * h * 4).div_ceil(64);
        }
    }
    assert_eq!(r.framebuffer_lines(), expected);
    let full_tiles = 8 * (32u64 * 32 * 4).div_ceil(64);
    assert!(
        r.framebuffer_lines() < full_tiles,
        "partial edge tiles must not be charged full-tile flushes"
    );
}
