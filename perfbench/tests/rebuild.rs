//! The traced run's rebuilt prefix and leg must reproduce `FrameSim`
//! exactly; pinned here on a tiny scene for every named mapping and for
//! upper-bound mode.

use dtexl_perfbench::rebuild::{build_prefix, run_leg, LayerTimes, LegCounts};
use dtexl_pipeline::{FramePrefix, FrameSim, PipelineConfig};
use dtexl_scene::{Game, SceneSpec};
use dtexl_sched::NamedMapping;
use std::time::Instant;

fn check(game: Game, width: u32, height: u32, upper: bool) {
    let scene = game.scene(&SceneSpec::new(width, height, 0));
    let cfg = PipelineConfig {
        upper_bound: upper,
        ..PipelineConfig::default()
    };
    let mut t = LayerTimes::new(Instant::now());
    let rebuilt = build_prefix(&scene, &cfg, width, height, &mut t).expect("valid scene");
    let real = FramePrefix::build(&scene, &cfg, width, height).expect("valid scene");
    assert!(rebuilt.counts.raster_quads > 0 && rebuilt.counts.lines > 0);
    for mapping in NamedMapping::ALL {
        let sched = mapping.config();
        let counts = run_leg(&rebuilt, &sched, &cfg, &mut t);
        let sim = FrameSim::try_run_prefixed(&real, &sched, &cfg).expect("valid leg");
        let fresh = FrameSim::try_run_with_resolution(&scene, &sched, &cfg, width, height)
            .expect("valid frame");
        let want = LegCounts::of(&sim);
        assert_eq!(
            want,
            LegCounts::of(&fresh),
            "{}: prefixed vs fresh",
            mapping.name()
        );
        if let Err(e) = counts.matches(&want) {
            panic!("{game:?} {} upper={upper}: {e}", mapping.name());
        }
        assert!(counts.l1_probes() > 0);
    }
    assert!(
        t.calls.iter().all(|&c| c > 0),
        "every layer was timed: {:?}",
        t.calls
    );
}

#[test]
fn rebuild_matches_framesim_for_every_mapping() {
    check(Game::GravityTetris, 96, 64, false);
    // A ragged resolution exercises partial edge tiles.
    check(Game::CandyCrush, 100, 50, false);
}

#[test]
fn rebuild_matches_framesim_in_upper_bound_mode() {
    check(Game::GravityTetris, 96, 64, true);
    check(Game::RiseOfKingdoms, 100, 50, true);
}
