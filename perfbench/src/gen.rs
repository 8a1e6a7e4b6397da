//! Workload generation from the benchmark seed.
//!
//! The simulator only ever sees the generated job lists. The seed picks
//! `schedule-sweep`'s schedules and `scene-stream`'s frames; seed 0 (the
//! default) gives `scene-stream` the frames from 0, the frame the scene
//! generators were tuned on.

use dtexl_scene::Game;
use dtexl_sched::{AssignMode, QuadGrouping, ScheduleConfig, TileOrder};

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0;

/// The seed held out of all tuning of this benchmark: claims made with
/// it must hold on it too.
pub const HELD_OUT_SEED: u64 = 20_221_001;

/// `schedule-sweep` resolution (Table II).
pub const SWEEP_RES: (u32, u32) = (1960, 768);
/// `schedule-sweep` games: textures that fit in L1, high reuse, and a
/// footprint far beyond L2.
pub const SWEEP_GAMES: [Game; 3] = [Game::ShootWar, Game::GravityTetris, Game::RiseOfKingdoms];
/// Schedules per `schedule-sweep` game: every grouping twice, every
/// tile order four times, every assignment policy five times.
pub const SWEEP_SCHEDULES: usize = 20;
/// `schedule-sweep` frame. Fixed: a frame changes both the prefix and
/// every leg, and with three scenes a seed-drawn frame moved the
/// median job time by more than the run-to-run noise.
pub const SWEEP_FRAME: u32 = 0;

/// `scene-stream` resolution.
pub const STREAM_RES: (u32, u32) = (480, 192);
/// Frames per game in `scene-stream`.
pub const STREAM_FRAMES_PER_GAME: usize = 20;
/// `scene-stream` frames are drawn from `0..STREAM_FRAMES`.
pub const STREAM_FRAMES: u32 = 64;

/// SplitMix64: a tiny, fully specified generator, so the workloads do
/// not depend on any crate's RNG stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` and stream `salt`.
    #[must_use]
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(seed ^ salt.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `k` distinct picks from `0..n`, in draw order (partial
    /// Fisher–Yates).
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k.min(n) {
            let j = i + self.below((n - i) as u64) as usize;
            pool.swap(i, j);
        }
        pool.truncate(k.min(n));
        pool
    }

    /// Shuffle `v` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

const ORDERS: [TileOrder; 5] = [
    TileOrder::Scanline,
    TileOrder::SOrder,
    TileOrder::ZOrder,
    TileOrder::HILBERT8,
    TileOrder::Spiral,
];

const ASSIGNS: [AssignMode; 4] = [
    AssignMode::Const,
    AssignMode::Flip1,
    AssignMode::Flip2,
    AssignMode::Flip3,
];

/// The schedule design space: 10 groupings × 5 tile orders × 4
/// assignment policies.
#[must_use]
pub fn schedule_grid() -> Vec<ScheduleConfig> {
    let mut grid = Vec::with_capacity(200);
    for grouping in QuadGrouping::ALL {
        for order in ORDERS {
            for assignment in ASSIGNS {
                grid.push(ScheduleConfig {
                    grouping,
                    order,
                    assignment,
                });
            }
        }
    }
    grid
}

/// One `schedule-sweep` game and its schedules, in run order.
#[derive(Debug, Clone)]
pub struct SweepGame {
    /// The game.
    pub game: Game,
    /// Schedules, each run as one leg over the game's prefix.
    pub schedules: Vec<ScheduleConfig>,
}

/// The `schedule-sweep` plan for `seed`: per game
/// [`SWEEP_SCHEDULES`] distinct schedules from [`schedule_grid`],
/// stratified so every seed runs each grouping, order and assignment
/// policy equally often (the seed picks how they pair up). Leg cost
/// depends mostly on those three axes, so stratifying keeps the
/// workload's size steady across seeds.
#[must_use]
pub fn schedule_sweep(seed: u64) -> Vec<SweepGame> {
    SWEEP_GAMES
        .iter()
        .enumerate()
        .map(|(i, &game)| SweepGame {
            game,
            schedules: stratified_schedules(&mut SplitMix::new(seed, 1 + i as u64)),
        })
        .collect()
}

fn stratified_schedules(rng: &mut SplitMix) -> Vec<ScheduleConfig> {
    let n = SWEEP_SCHEDULES;
    loop {
        let mut orders: Vec<usize> = (0..n).map(|i| i % ORDERS.len()).collect();
        let mut assigns: Vec<usize> = (0..n).map(|i| i % ASSIGNS.len()).collect();
        rng.shuffle(&mut orders);
        rng.shuffle(&mut assigns);
        let schedules: Vec<ScheduleConfig> = (0..n)
            .map(|i| ScheduleConfig {
                grouping: QuadGrouping::ALL[i % QuadGrouping::ALL.len()],
                order: ORDERS[orders[i]],
                assignment: ASSIGNS[assigns[i]],
            })
            .collect();
        // Redraw when a grouping got the same order and policy twice.
        if (0..n).all(|i| !schedules[..i].contains(&schedules[i])) {
            return schedules;
        }
    }
}

/// The `scene-stream` scenes for `seed`: every game at
/// [`STREAM_FRAMES_PER_GAME`] distinct frames (frames `0..20` under
/// the default seed).
#[must_use]
pub fn scene_stream(seed: u64) -> Vec<(Game, u32)> {
    Game::ALL
        .iter()
        .enumerate()
        .flat_map(|(i, &game)| {
            let frames: Vec<u32> = if seed == DEFAULT_SEED {
                (0..STREAM_FRAMES_PER_GAME as u32).collect()
            } else {
                SplitMix::new(seed, 100 + i as u64)
                    .sample(STREAM_FRAMES as usize, STREAM_FRAMES_PER_GAME)
                    .into_iter()
                    .map(|f| f as u32)
                    .collect()
            };
            frames.into_iter().map(move |f| (game, f))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_repeat_per_seed_and_differ_across_seeds() {
        let a = schedule_sweep(7);
        let b = schedule_sweep(7);
        let c = schedule_sweep(8);
        let labels = |p: &[SweepGame]| -> Vec<String> {
            p.iter()
                .flat_map(|g| g.schedules.iter().map(ScheduleConfig::label))
                .collect()
        };
        assert_eq!(labels(&a), labels(&b));
        assert_ne!(labels(&a), labels(&c));
        assert_eq!(scene_stream(7), scene_stream(7));
        assert_ne!(scene_stream(7), scene_stream(8));
    }

    #[test]
    fn default_seed_is_frame_zero() {
        let frames: Vec<u32> = scene_stream(DEFAULT_SEED)
            .iter()
            .filter(|(g, _)| *g == Game::CandyCrush)
            .map(|&(_, f)| f)
            .collect();
        assert_eq!(frames, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn draws_are_distinct_and_in_range() {
        let grid = schedule_grid();
        assert_eq!(grid.len(), 200);
        for seed in [1, 2, HELD_OUT_SEED] {
            for g in schedule_sweep(seed) {
                let mut labels: Vec<String> =
                    g.schedules.iter().map(ScheduleConfig::label).collect();
                labels.sort();
                labels.dedup();
                assert_eq!(labels.len(), SWEEP_SCHEDULES);
            }
            let scenes = scene_stream(seed);
            assert_eq!(scenes.len(), 200);
            assert!(scenes.iter().all(|&(_, f)| f < STREAM_FRAMES));
        }
    }
}
