//! Memoized vs fresh simulation equivalence.
//!
//! `SweepJob::simulate_with(Some(cache))` reuses one schedule-
//! independent [`FramePrefix`] across every leg that shares a
//! `prefix_key`; `simulate_with(None)` (== `simulate()`) recomputes
//! the whole frame from scratch. These tests pin the tentpole
//! guarantee: the two paths are **bit-identical** on every reported
//! metric — across both schedules, ragged resolutions, thread counts
//! and active fault plans — that the cache key separates exactly the
//! configurations whose prefixes may not be shared, and that a sweep
//! builds each prefix once and leaves its cache empty.

use dtexl::sweep::{
    canon_text, run_sweep, JobError, JobStatus, PrefixCache, SweepJob, SweepOptions, SweepReport,
};
use dtexl_pipeline::{BarrierMode, FaultPlan, LaneStall, PipelineConfig, SimError};
use dtexl_scene::Game;
use dtexl_sched::{NamedMapping, ScheduleConfig};
use std::path::PathBuf;

/// Ragged resolutions (partial edge tiles in both axes) plus one
/// tile-aligned shape.
const RESOLUTIONS: [(u32, u32); 3] = [(100, 50), (65, 31), (96, 64)];

fn job(game: Game, schedule: ScheduleConfig, w: u32, h: u32) -> SweepJob {
    SweepJob::new(game, schedule, false, w, h, 0)
}

/// Assert every metric the sweep reports (and some it doesn't) agrees
/// between a fresh run and a cache-mediated run of `job`.
fn assert_equivalent(job: &SweepJob, cache: &PrefixCache) {
    let fresh = job.simulate_with(None).expect("fresh run");
    let memo = job.simulate_with(Some(cache)).expect("memoized run");
    let ctx = job.key();
    for mode in [
        BarrierMode::Coupled,
        BarrierMode::Decoupled,
        BarrierMode::DecoupledBounded { tiles_ahead: 2 },
    ] {
        assert_eq!(
            fresh.total_cycles(mode),
            memo.total_cycles(mode),
            "cycles diverge under {mode:?}: {ctx}"
        );
        assert_eq!(
            fresh.energy_events(mode),
            memo.energy_events(mode),
            "energy events diverge under {mode:?}: {ctx}"
        );
    }
    assert_eq!(
        fresh.total_l2_accesses(),
        memo.total_l2_accesses(),
        "L2: {ctx}"
    );
    assert_eq!(fresh.hierarchy, memo.hierarchy, "hierarchy stats: {ctx}");
}

#[test]
fn memoized_matches_fresh_across_schedules_and_resolutions() {
    for game in [Game::CandyCrush, Game::GravityTetris, Game::Maze] {
        for (w, h) in RESOLUTIONS {
            // One cache per (game, resolution): the FG and CG legs
            // share its single prefix entry, exactly as a sweep does.
            let cache = PrefixCache::new(None);
            for schedule in [ScheduleConfig::baseline(), ScheduleConfig::dtexl()] {
                assert_equivalent(&job(game, schedule, w, h), &cache);
            }
            let stats = cache.stats();
            assert_eq!(stats.misses, 1, "legs must share one prefix: {game:?}");
            assert!(stats.hits >= 1, "second leg must hit: {game:?}");
        }
    }
}

#[test]
fn memoized_matches_fresh_across_thread_counts() {
    // Thread count is normalized out of the prefix key: a serial and a
    // 4-thread job share the cache entry, and both match their fresh
    // runs (which exercise the threaded lane path independently).
    let cache = PrefixCache::new(None);
    for threads in [1, 4] {
        for schedule in [ScheduleConfig::baseline(), ScheduleConfig::dtexl()] {
            let mut j = job(Game::CandyCrush, schedule, 100, 50);
            j.pipeline = PipelineConfig {
                threads,
                ..j.pipeline
            };
            assert_equivalent(&j, &cache);
        }
    }
    assert_eq!(
        cache.stats().misses,
        1,
        "threads {{1,4}} × both schedules must share one prefix"
    );
}

#[test]
fn memoized_matches_fresh_with_active_fault_plan() {
    let fault = FaultPlan {
        seed: 7,
        lane_stall: Some(LaneStall {
            lane: 2,
            cycles: 5_000,
        }),
        ..FaultPlan::default()
    };
    let cache = PrefixCache::new(None);
    for schedule in [ScheduleConfig::baseline(), ScheduleConfig::dtexl()] {
        let mut j = job(Game::TempleRun, schedule, 100, 50);
        j.pipeline = PipelineConfig {
            fault,
            ..j.pipeline
        };
        assert_equivalent(&j, &cache);
    }
}

#[test]
fn fault_plans_key_separately() {
    // The fault plan is part of the prefix key: a faulty job must never
    // reuse (or poison) the pristine job's cache entry.
    let clean = job(Game::TempleRun, ScheduleConfig::dtexl(), 100, 50);
    let mut faulty = clean;
    faulty.pipeline.fault = FaultPlan {
        seed: 9,
        lane_stall: Some(LaneStall {
            lane: 1,
            cycles: 1_000,
        }),
        ..FaultPlan::default()
    };
    assert_ne!(
        clean.prefix_key(),
        faulty.prefix_key(),
        "fault plan must be keyed into the prefix hash"
    );

    // Different resolutions and games separate too; schedules must NOT.
    let mut other_res = clean;
    other_res.width = 65;
    other_res.height = 31;
    assert_ne!(clean.prefix_key(), other_res.prefix_key());
    let mut other_game = clean;
    other_game.game = Game::Maze;
    assert_ne!(clean.prefix_key(), other_game.prefix_key());
    let mut other_sched = clean;
    other_sched.schedule = ScheduleConfig::baseline();
    assert_eq!(
        clean.prefix_key(),
        other_sched.prefix_key(),
        "the prefix is schedule-independent by design"
    );
    let mut upper = clean;
    upper.pipeline.upper_bound = true;
    assert_eq!(
        clean.prefix_key(),
        upper.prefix_key(),
        "only the leg reads upper_bound, so it must not split the prefix"
    );
}

#[test]
fn upper_bound_leg_over_a_base_prefix_matches_a_fresh_upper_run() {
    let cache = PrefixCache::new(None);
    for game in [Game::CandyCrush, Game::Maze] {
        let base = job(game, ScheduleConfig::baseline(), 100, 50);
        let upper = SweepJob::new(game, ScheduleConfig::baseline(), true, 100, 50, 0);
        base.simulate_with(Some(&cache)).expect("base leg");
        assert_equivalent(&upper, &cache);
    }
    let stats = cache.stats();
    assert_eq!(
        (stats.misses, stats.hits),
        (2, 2),
        "each upper-bound leg must reuse its game's base prefix"
    );
}

fn scratch_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtexl_memoize_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("journal.jsonl")
}

/// Run `jobs` under `opts` plus a fresh journal; return the report and
/// the journal's canon view.
fn sweep_canon(jobs: &[SweepJob], opts: &SweepOptions, tag: &str) -> (SweepReport, String) {
    let journal = scratch_journal(tag);
    let opts = SweepOptions {
        journal: Some(journal.clone()),
        ..opts.clone()
    };
    let report = run_sweep(jobs, &opts, |_, _| {}).unwrap();
    let canon = canon_text(&std::fs::read_to_string(&journal).unwrap());
    let _ = std::fs::remove_dir_all(journal.parent().unwrap());
    (report, canon)
}

#[test]
fn concurrent_legs_of_one_scene_build_one_prefix_and_release_it() {
    // Eight legs of one scene on four workers: the first leg builds,
    // the others that arrive meanwhile wait for that build.
    let jobs: Vec<SweepJob> = NamedMapping::FIG16
        .iter()
        .map(|m| job(Game::CandyCrush, m.config(), 480, 192))
        .collect();
    let cache = PrefixCache::new(None);
    let opts = SweepOptions {
        workers: 4,
        keep_going: true,
        prefix_cache: Some(cache.clone()),
        ..SweepOptions::default()
    };
    let (report, memo) = sweep_canon(&jobs, &opts, "single_flight");
    assert!(report.is_success(), "{}", report.summary());
    let stats = cache.stats();
    assert_eq!(
        (stats.misses, stats.hits),
        (1, 7),
        "one build, seven shared"
    );
    assert_eq!(
        (stats.entries, stats.bytes),
        (0, 0),
        "the sweep releases the prefix once its last leg is done"
    );

    let fresh_opts = SweepOptions {
        prefix_cache: None,
        ..opts
    };
    let (_, fresh) = sweep_canon(&jobs, &fresh_opts, "single_flight_fresh");
    assert_eq!(
        memo, fresh,
        "memoized canon must equal the cache-less canon"
    );
}

#[test]
fn invalid_job_returns_its_typed_error_through_the_cache() {
    let mut zero_width = job(Game::GravityTetris, ScheduleConfig::dtexl(), 100, 50);
    zero_width.width = 0;
    let expected = zero_width.simulate().expect_err("zero width is invalid");
    assert!(matches!(expected, SimError::Scene(_)), "{expected:?}");

    let cache = PrefixCache::new(None);
    let jobs = [
        zero_width,
        job(Game::GravityTetris, ScheduleConfig::baseline(), 100, 50),
        job(Game::GravityTetris, ScheduleConfig::dtexl(), 100, 50),
    ];
    let opts = SweepOptions {
        workers: 2,
        keep_going: true,
        prefix_cache: Some(cache.clone()),
        ..SweepOptions::default()
    };
    let report = run_sweep(&jobs, &opts, |_, _| {}).unwrap();
    let bad = &report.records[0];
    assert_eq!(bad.status, JobStatus::Failed);
    assert_eq!(bad.error, Some(JobError::Invalid(expected)));
    assert!(report.records[1..]
        .iter()
        .all(|r| r.status == JobStatus::Ok));
    let stats = cache.stats();
    assert_eq!((stats.entries, stats.bytes), (0, 0), "no entry left behind");
}

#[test]
fn tiny_budget_rejects_insertion_but_stays_correct() {
    // A cache whose budget can't hold even one prefix must simply keep
    // simulating fresh — never evict-thrash, never corrupt results.
    let cache = PrefixCache::new(Some(1024));
    for _ in 0..2 {
        assert_equivalent(
            &job(Game::GravityTetris, ScheduleConfig::dtexl(), 100, 50),
            &cache,
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.hits, 0, "nothing can fit, so nothing can hit");
    assert_eq!(stats.bytes, 0, "over-budget prefixes are dropped");
    assert!(
        stats.rejected >= 1,
        "insertion must be rejected, not evict-thrash"
    );
}
