//! The DTexL repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <figures|schedule-sweep|scene-stream> [--seed N] \
//!     [--seconds S] [--trace 0|1]
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --record
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the
//! per-layer ones; `--record` rewrites the output references under
//! `perfbench/references/`. The last stdout line is the result object;
//! the full result (environment, per-repetition samples, spans) goes to
//! `perfbench/out/`. See `README.md` for every metric's definition.

use dtexl::daemon::{run_spool_worker, WorkerOptions};
use dtexl::experiments::{Lab, Setup};
use dtexl::spool::{JobSpec, Spool};
use dtexl::sweep::{
    canon_text, run_sweep, JobStatus, PrefixCache, Progress, ProgressKind, SweepJob, SweepOptions,
};
use dtexl::Table;
use dtexl_obs::rollup::{ObsRollup, RollupMode};
use dtexl_perfbench::gen::{self, SweepGame};
use dtexl_perfbench::rebuild::{self, Layer, LayerTimes, LegCounts, PrefixCounts};
use dtexl_perfbench::stats::{fnv1a, median, tail};
use dtexl_perfbench::trace::Tracer;
use dtexl_pipeline::{FramePrefix, FrameResult, FrameSim, PipelineConfig};
use dtexl_scene::{Game, SceneSpec};
use dtexl_sched::{AssignMode, NamedMapping, QuadGrouping, ScheduleConfig, TileOrder};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: dtexl-perfbench --workload <figures|schedule-sweep|scene-stream> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       dtexl-perfbench --record";

/// The paper's headline numbers (TEAPOT model): DTexL speedup, HLB-flp2
/// L2-access decrease (%) and DTexL energy decrease (%).
const PAPER_SPEEDUP: f64 = 1.2;
const PAPER_L2_CUT: f64 = 46.8;
const PAPER_ENERGY_CUT: f64 = 6.3;

const MIB: f64 = 1024.0 * 1024.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Figures,
    ScheduleSweep,
    SceneStream,
}

impl Workload {
    const ALL: [Self; 3] = [Self::Figures, Self::ScheduleSweep, Self::SceneStream];

    fn name(self) -> &'static str {
        match self {
            Self::Figures => "figures",
            Self::ScheduleSweep => "schedule-sweep",
            Self::SceneStream => "scene-stream",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Option<Args>, String> {
    if raw.len() == 1 && raw[0] == "--record" {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = gen::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| format!("bad seconds '{value}'"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(Some(a)) => a,
        Ok(None) => return record(),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let refs = match References::load(args.workload) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = bench_dir().join("out");
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("error: create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let run = Run {
        args: &args,
        refs: &refs,
        out: &out,
    };
    let result = if args.trace {
        run.traced()
    } else {
        run.untraced()
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let env = environment();
    for line in &result.notes {
        println!("# {line}");
    }
    println!("# env {env}");
    let stem = format!(
        "{}-seed{}-trace{}-{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis())
    );
    let file = out.join(format!("{stem}.json"));
    let body = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"env\":{env},\
         \"result\":{},\"detail\":{}}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        result.json(),
        result.detail
    );
    if let Err(e) = std::fs::write(&file, body) {
        eprintln!("error: write {}: {e}", file.display());
        return ExitCode::FAILURE;
    }
    if let Some(spans) = &result.spans {
        let path = out.join(format!("{stem}-spans.json"));
        if let Err(e) = std::fs::write(&path, spans) {
            eprintln!("error: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result.json());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        for f in result.failures.iter().take(20) {
            eprintln!("check failed: {f}");
        }
        ExitCode::FAILURE
    }
}

// ---- output references -------------------------------------------------------

/// Expected simulator outputs recorded from the benchmark's base commit:
/// per job `key → coupled|decoupled|l2` (the `sweep canon` line without
/// its config hash), and for `figures` a digest per rendered table.
struct References {
    jobs: BTreeMap<String, String>,
    tables: BTreeMap<String, u64>,
}

fn refs_dir() -> PathBuf {
    bench_dir().join("references")
}

impl References {
    fn load(workload: Workload) -> Result<Self, String> {
        let read = |name: &str| -> Result<String, String> {
            let path = refs_dir().join(name);
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))
        };
        let jobs = parse_canon(&read(&format!("{}.canon", workload.name()))?);
        // Every workload checks fig17/fig18 tables (the sweeps through
        // their fidelity evaluation).
        let tables = read("figures.tables")?
            .lines()
            .filter_map(|l| {
                let (id, digest) = l.split_once(' ')?;
                Some((id.to_string(), u64::from_str_radix(digest, 16).ok()?))
            })
            .collect();
        Ok(Self { jobs, tables })
    }

    /// Check job outputs against the references; returns how many
    /// failed.
    fn check_jobs(&self, got: &BTreeMap<String, String>, failures: &mut Vec<String>) -> usize {
        let mut bad = 0;
        for (key, value) in got {
            match self.jobs.get(key) {
                Some(want) if want == value => {}
                Some(want) => {
                    bad += 1;
                    failures.push(format!("{key}: {value} (reference {want})"));
                }
                None => {
                    bad += 1;
                    failures.push(format!("{key}: no reference output"));
                }
            }
        }
        bad
    }

    fn check_table(&self, table: &Table, failures: &mut Vec<String>) -> bool {
        let digest = fnv1a(table.render().as_bytes());
        match self.tables.get(&table.id) {
            Some(&want) if want == digest => true,
            Some(&want) => {
                failures.push(format!(
                    "table {}: digest {digest:016x} (reference {want:016x})",
                    table.id
                ));
                false
            }
            None => {
                failures.push(format!("table {}: no reference digest", table.id));
                false
            }
        }
    }
}

/// `key → "coupled|decoupled|l2"` from `canon_text` output, dropping
/// the config hash: it fingerprints the configuration's `Debug` form,
/// which changes with any field added or removed, not the simulated
/// outputs this check is about.
fn parse_canon(canon: &str) -> BTreeMap<String, String> {
    canon
        .lines()
        .filter_map(|l| {
            let parts: Vec<&str> = l.rsplitn(5, '|').collect();
            // rsplitn: [l2, decoupled, coupled, hash, key]
            (parts.len() == 5).then(|| {
                (
                    parts[4].to_string(),
                    format!("{}|{}|{}", parts[2], parts[1], parts[0]),
                )
            })
        })
        .collect()
}

fn canon_of_journal(path: &Path) -> Result<BTreeMap<String, String>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(parse_canon(&canon_text(&text)))
}

// ---- progress capture ----------------------------------------------------------

/// Sweep progress observed through `SweepOptions::progress` (a plain fn
/// pointer, hence the static).
#[derive(Default)]
struct Observed {
    first_start: Option<Instant>,
    last_done: Option<Instant>,
    done: Vec<(String, Duration, u64, bool)>,
}

static OBSERVED: Mutex<Observed> = Mutex::new(Observed {
    first_start: None,
    last_done: None,
    done: Vec::new(),
});

fn on_progress(p: &Progress) {
    let now = Instant::now();
    let mut o = OBSERVED.lock().expect("progress state poisoned");
    match p.kind {
        ProgressKind::Start => {
            o.first_start.get_or_insert(now);
        }
        ProgressKind::Done => {
            o.last_done = Some(now);
            o.done.push((
                p.key.clone(),
                p.elapsed,
                p.peak_alloc_bytes,
                p.status == Some(JobStatus::Ok),
            ));
        }
        _ => {}
    }
}

fn take_observed() -> Observed {
    std::mem::take(&mut *OBSERVED.lock().expect("progress state poisoned"))
}

// ---- one repetition -------------------------------------------------------------

/// One measured repetition of a workload.
#[derive(Debug, Default)]
struct Rep {
    setup_s: f64,
    wall_s: f64,
    job_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Per-layer service metrics (`sweep.*`, `spool.*`, `alloc.*`).
    service: BTreeMap<&'static str, f64>,
    /// Fidelity, for `figures` (read off its own tables).
    fidelity: Option<[f64; 3]>,
}

struct Run<'a> {
    args: &'a Args,
    refs: &'a References,
    out: &'a Path,
}

/// Everything a run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    failures: Vec<String>,
    notes: Vec<String>,
    detail: String,
    spans: Option<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let _ = write!(
                m,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if i > 0 { ", " } else { "" },
                json_num(*value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Run<'_> {
    fn rep(&self, failures: &mut Vec<String>) -> Result<Rep, String> {
        match self.args.workload {
            Workload::Figures => self.figures_rep(failures),
            Workload::ScheduleSweep => self.schedule_sweep_rep(failures),
            Workload::SceneStream => self.scene_stream_rep(failures),
        }
    }

    /// `Lab::all_figures` at Table II, frame 0, the Lab's default
    /// fan-out. The job union `all_figures` prefetches is run through
    /// `Lab::try_ensure` (the call `Lab::ensure` makes) with a progress
    /// hook, so per-job walls are visible; `all_figures` then renders
    /// from the Lab's cache.
    fn figures_rep(&self, failures: &mut Vec<String>) -> Result<Rep, String> {
        take_observed();
        let t0 = Instant::now();
        let lab = Lab::new(Setup::table2());
        let jobs = figures_jobs(lab.setup());
        let opts = SweepOptions {
            keep_going: true,
            progress: Some(on_progress),
            ..SweepOptions::default()
        };
        let report = lab
            .try_ensure(&jobs, &opts)
            .map_err(|e| format!("figures sweep: {e}"))?;
        let swept = Instant::now();
        let tables = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| lab.all_figures()));
        let end = Instant::now();
        let obs = take_observed();
        let first = obs.first_start.unwrap_or(swept);

        let mut rep = Rep {
            setup_s: (first - t0).as_secs_f64(),
            wall_s: (end - first).as_secs_f64(),
            ..Rep::default()
        };
        let mut got = BTreeMap::new();
        for r in &report.records {
            rep.job_ms.push(ms(r.elapsed));
            rep.attempted += 1;
            match (&r.status, &r.metrics) {
                (JobStatus::Ok, Some(m)) => {
                    got.insert(
                        r.key.clone(),
                        format!(
                            "{}|{}|{}",
                            m.coupled_cycles, m.decoupled_cycles, m.l2_accesses
                        ),
                    );
                }
                _ => {
                    rep.failed += 1;
                    failures.push(format!("{}: job failed: {:?}", r.key, r.error));
                }
            }
        }
        rep.failed += self.refs.check_jobs(&got, failures) as u64;
        let workers = lab.setup().threads.max(1) as f64;
        let busy: f64 = rep.job_ms.iter().sum();
        rep.service
            .insert("sweep.overhead_ms", ms(swept - first) * workers - busy);
        rep.service.insert(
            "alloc.job_peak_mib",
            report
                .records
                .iter()
                .filter_map(|r| r.peak_alloc)
                .max()
                .unwrap_or(0) as f64
                / MIB,
        );
        match tables {
            Ok(tables) => {
                for t in &tables {
                    rep.attempted += 1;
                    if !self.refs.check_table(t, failures) {
                        rep.failed += 1;
                    }
                }
                rep.fidelity = fidelity_of(&tables);
                if rep.fidelity.is_none() {
                    rep.failed += 1;
                    failures.push("fig16/17/18 Mean cells missing".into());
                }
            }
            Err(_) => {
                rep.attempted += 1;
                rep.failed += 1;
                failures.push("Lab::all_figures panicked".into());
            }
        }
        Ok(rep)
    }

    /// `run_sweep` over the seed's plan with one worker, a journal and an
    /// unbounded `PrefixCache` (`dtexl sweep --memoize`).
    fn schedule_sweep_rep(&self, failures: &mut Vec<String>) -> Result<Rep, String> {
        take_observed();
        let t0 = Instant::now();
        let (w, h) = gen::SWEEP_RES;
        let jobs: Vec<SweepJob> = gen::schedule_sweep(self.args.seed)
            .iter()
            .flat_map(|g| {
                g.schedules
                    .iter()
                    .map(move |&s| SweepJob::new(g.game, s, false, w, h, gen::SWEEP_FRAME))
            })
            .collect();
        let journal = self.out.join("schedule-sweep.journal.jsonl");
        let _ = std::fs::remove_file(&journal);
        let cache = PrefixCache::new(None);
        let opts = SweepOptions {
            workers: 1,
            keep_going: true,
            journal: Some(journal.clone()),
            prefix_cache: Some(cache.clone()),
            progress: Some(on_progress),
            ..SweepOptions::default()
        };
        let report = run_sweep(&jobs, &opts, |_, _| {}).map_err(|e| format!("sweep: {e}"))?;
        let end = Instant::now();
        let obs = take_observed();
        let first = obs.first_start.ok_or("sweep started no job")?;
        let mut rep = Rep {
            setup_s: (first - t0).as_secs_f64(),
            wall_s: (end - first).as_secs_f64(),
            ..Rep::default()
        };
        for r in &report.records {
            rep.job_ms.push(ms(r.elapsed));
            rep.attempted += 1;
            if r.status != JobStatus::Ok {
                rep.failed += 1;
                failures.push(format!("{}: job failed: {:?}", r.key, r.error));
            }
        }
        let got = canon_of_journal(&journal)?;
        rep.failed += self.refs.check_jobs(&got, failures) as u64;
        rep.failed += missing(jobs.iter().map(SweepJob::key), &got, failures);
        let stats = cache.stats();
        let busy: f64 = rep.job_ms.iter().sum();
        rep.service
            .insert("sweep.overhead_ms", ms(end - first) - busy);
        rep.service.insert("sweep.journal_kib", file_kib(&journal));
        rep.service.insert(
            "sweep.prefix_hit_ratio",
            stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        );
        rep.service
            .insert("sweep.prefix_retained_mib", stats.bytes as f64 / MIB);
        rep.service.insert(
            "alloc.job_peak_mib",
            report
                .records
                .iter()
                .filter_map(|r| r.peak_alloc)
                .max()
                .unwrap_or(0) as f64
                / MIB,
        );
        Ok(rep)
    }

    /// One batch submitted to a fresh spool and drained in-process by a
    /// single journaled `run_spool_worker` with rollups, no memoize.
    fn scene_stream_rep(&self, failures: &mut Vec<String>) -> Result<Rep, String> {
        take_observed();
        let t0 = Instant::now();
        let (w, h) = gen::STREAM_RES;
        let specs = gen::scene_stream(self.args.seed)
            .into_iter()
            .map(|(game, frame)| JobSpec::new(game.alias(), "dtexl", w, h, frame, false))
            .collect::<Result<Vec<_>, _>>()?;
        let root = self.out.join("scene-stream.spool");
        let _ = std::fs::remove_dir_all(&root);
        let t_spool = Instant::now();
        let spool = Spool::open(&root).map_err(|e| format!("open spool: {e}"))?;
        spool.submit(&specs).map_err(|e| format!("submit: {e}"))?;
        let accepted = spool.accept_incoming();
        if accepted.accepted.len() != 1 {
            return Err(format!("accept: {accepted:?}"));
        }
        spool
            .request_drain()
            .map_err(|e| format!("drain marker: {e}"))?;
        let submit = t_spool.elapsed();
        let journal = root.join("worker.jsonl");
        let wopts = WorkerOptions {
            sweep: SweepOptions {
                workers: 1,
                journal: Some(journal.clone()),
                with_obs: true,
                progress: Some(on_progress),
                ..SweepOptions::default()
            },
            ..WorkerOptions::default()
        };
        let t_worker = Instant::now();
        let report = run_spool_worker(&spool, &wopts).map_err(|e| format!("spool worker: {e}"))?;
        let end = Instant::now();
        let obs = take_observed();
        let first = obs.first_start.ok_or("spool worker started no job")?;
        let last = obs.last_done.unwrap_or(end);
        let mut rep = Rep {
            setup_s: (first - t0).as_secs_f64(),
            wall_s: (end - first).as_secs_f64(),
            ..Rep::default()
        };
        for (key, elapsed, _, ok) in &obs.done {
            rep.job_ms.push(ms(*elapsed));
            rep.attempted += 1;
            if !ok {
                rep.failed += 1;
                failures.push(format!("{key}: job failed"));
            }
        }
        if report.jobs_run != specs.len() || report.failed > 0 {
            rep.failed += 1;
            failures.push(format!(
                "spool worker: {report:?} for {} specs",
                specs.len()
            ));
        }
        let got = canon_of_journal(&journal)?;
        rep.failed += self.refs.check_jobs(&got, failures) as u64;
        let keys = specs
            .iter()
            .map(|s| s.to_job(&PipelineConfig::default()).key());
        rep.failed += missing(keys, &got, failures);
        let busy: f64 = rep.job_ms.iter().sum();
        rep.service
            .insert("sweep.overhead_ms", ms(last - first) - busy);
        rep.service.insert("sweep.journal_kib", file_kib(&journal));
        rep.service.insert("spool.submit_ms", ms(submit));
        rep.service
            .insert("spool.overhead_ms", ms(end - t_worker) - ms(last - first));
        rep.service.insert(
            "alloc.job_peak_mib",
            obs.done.iter().map(|d| d.2).max().unwrap_or(0) as f64 / MIB,
        );
        let _ = std::fs::remove_dir_all(&root);
        Ok(rep)
    }

    // ---- untraced run -------------------------------------------------------------

    fn untraced(&self) -> Result<Outcome, String> {
        let mut failures = Vec::new();
        let start = Instant::now();
        let deadline = start + Duration::from_secs(self.args.seconds);
        let mut reps = vec![self.rep(&mut failures)?];
        // The peak of one fresh process running the workload once, as
        // users run it: later repetitions start from the allocator
        // arenas the first one left behind.
        let peak_rss = peak_rss_mib();
        while Instant::now() < deadline {
            reps.push(self.rep(&mut failures)?);
        }
        let mut attempted: u64 = reps.iter().map(|r| r.attempted).sum();
        let mut failed: u64 = reps.iter().map(|r| r.failed).sum();
        let fidelity = match reps[0].fidelity {
            Some(f) => f,
            None => {
                let (f, checked, bad) = fidelity_eval(self.refs, &mut failures);
                attempted += checked;
                failed += bad;
                f
            }
        };
        // Per-job order statistics are taken per repetition and the
        // median over repetitions reported: a run's slowest few jobs
        // then come from every repetition, not from its noisiest one.
        let jobs: usize = reps.iter().map(|r| r.job_ms.len()).sum();
        let per_rep = |f: &dyn Fn(&[f64]) -> f64| {
            median(&reps.iter().map(|r| f(&r.job_ms)).collect::<Vec<_>>())
        };
        let p50_ms = per_rep(&|v| median(v));
        let tail_ms = per_rep(&|v| tail(v).0);
        let tail_pct = tail(&reps[0].job_ms).1;
        let jobs_per_rep = reps[0].job_ms.len();
        let ok_frac = 1.0 - failed as f64 / attempted.max(1) as f64;
        let metrics = vec![
            (
                "wall_s".into(),
                median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
                "s",
            ),
            (
                "setup_s".into(),
                median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
                "s",
            ),
            ("job_p50_ms".into(), p50_ms, "ms"),
            ("job_tail_ms".into(), tail_ms, "ms"),
            ("peak_rss_mib".into(), peak_rss, "MiB"),
            ("ok_job_frac".into(), ok_frac, "ratio"),
            ("speedup_err_pct".into(), fidelity[0], "%"),
            ("l2_cut_err_pp".into(), fidelity[1], "pp"),
            ("energy_cut_err_pp".into(), fidelity[2], "pp"),
        ];
        let mut notes = vec![
            format!(
                "{} seed {}: {} repetition(s) in {:.1} s; {} jobs; {} failed of {} attempted",
                self.args.workload.name(),
                self.args.seed,
                reps.len(),
                start.elapsed().as_secs_f64(),
                jobs,
                failed,
                attempted
            ),
            format!(
                "job_p50_ms and job_tail_ms (p{tail_pct:.1}) over {jobs_per_rep} jobs per \
                 repetition, median of {} repetition(s)",
                reps.len()
            ),
            "modelled caches start empty every frame (no warm-up); every run is a fresh \
             process, so Lab and prefix caches start cold"
                .into(),
        ];
        for (name, value, unit) in &metrics {
            notes.push(format!("{name} = {value:.6} {unit}"));
        }
        let detail = format!(
            "{{\"reps\":[{}],\"job_tail_percentile\":{tail_pct},\"job_samples\":{}}}",
            reps.iter()
                .map(|r| format!(
                    "{{\"setup_s\":{},\"wall_s\":{},\"jobs\":{},\"failed\":{}}}",
                    r.setup_s,
                    r.wall_s,
                    r.job_ms.len(),
                    r.failed
                ))
                .collect::<Vec<_>>()
                .join(","),
            jobs
        );
        Ok(Outcome {
            attempted,
            failed,
            metrics,
            failures,
            notes,
            detail,
            spans: None,
        })
    }

    // ---- traced run ---------------------------------------------------------------

    /// Alternates an untraced repetition with a traced pass until
    /// `--seconds` have elapsed (at least one of each); per-layer
    /// metrics are medians over the passes.
    fn traced(&self) -> Result<Outcome, String> {
        let mut failures = Vec::new();
        let start = Instant::now();
        let deadline = start + Duration::from_secs(self.args.seconds);
        let mut reps = Vec::new();
        let mut passes = Vec::new();
        loop {
            reps.push(self.rep(&mut failures)?);
            passes.push(self.traced_pass(&mut failures)?);
            if Instant::now() >= deadline {
                break;
            }
        }
        let mut attempted: u64 = reps.iter().map(|r| r.attempted).sum();
        let mut failed: u64 = reps.iter().map(|r| r.failed).sum();
        attempted += passes.iter().map(|p| p.checked).sum::<u64>();
        failed += passes.iter().map(|p| p.mismatched).sum::<u64>();

        let untraced_wall = median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
        for (name, unit) in PER_LAYER {
            let value = match *name {
                "trace.overhead_pct" => {
                    let traced = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
                    100.0 * (traced / untraced_wall - 1.0)
                }
                n if n.starts_with("sweep.")
                    || n.starts_with("spool.")
                    || n.starts_with("alloc.") =>
                {
                    median(
                        &reps
                            .iter()
                            .map(|r| r.service.get(n).copied().unwrap_or(0.0))
                            .collect::<Vec<_>>(),
                    )
                }
                n => median(
                    &passes
                        .iter()
                        .map(|p| p.metrics.get(n).copied().unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                ),
            };
            metrics.push(((*name).to_string(), value, unit));
        }
        let mut notes = vec![format!(
            "{} seed {} traced: {} untraced repetition(s), {} traced pass(es), {} traced jobs \
             checked against FrameSim, {} mismatched",
            self.args.workload.name(),
            self.args.seed,
            reps.len(),
            passes.len(),
            passes.iter().map(|p| p.checked).sum::<u64>(),
            passes.iter().map(|p| p.mismatched).sum::<u64>()
        )];
        for (name, value, unit) in &metrics {
            notes.push(format!("{name} = {value:.6} {unit}"));
        }
        let spans = passes.last().map(|p| p.spans.clone());
        Ok(Outcome {
            attempted,
            failed,
            metrics,
            failures,
            notes,
            detail: format!("{{\"passes\":{},\"reps\":{}}}", passes.len(), reps.len()),
            spans,
        })
    }

    fn traced_pass(&self, failures: &mut Vec<String>) -> Result<Pass, String> {
        let mut p = PassBuilder::new();
        let t0 = Instant::now();
        match self.args.workload {
            Workload::Figures => {
                let lab = Lab::new(Setup::table2());
                for (id, f) in FIGS {
                    let name = format!("experiments.{id}");
                    let (table, _) = p.tracer.span(&name, None, None, |_, _| f(&lab));
                    p.checked += 1;
                    if !self.refs.check_table(&table, failures) {
                        p.mismatched += 1;
                    }
                }
                let (w, h) = (lab.setup().width, lab.setup().height);
                for game in Game::ALL {
                    let schedules = [ScheduleConfig::baseline(), ScheduleConfig::dtexl()];
                    p.traced_game(game, 0, w, h, &schedules, failures)?;
                }
            }
            Workload::ScheduleSweep => {
                let (w, h) = gen::SWEEP_RES;
                for SweepGame { game, schedules } in gen::schedule_sweep(self.args.seed) {
                    p.traced_game(game, gen::SWEEP_FRAME, w, h, &schedules, failures)?;
                }
            }
            Workload::SceneStream => {
                let (w, h) = gen::STREAM_RES;
                for (game, frame) in gen::scene_stream(self.args.seed) {
                    p.traced_game(game, frame, w, h, &[ScheduleConfig::dtexl()], failures)?;
                }
            }
        }
        Ok(p.finish(t0.elapsed().as_secs_f64()))
    }
}

/// Jobs missing from a sweep's journal.
fn missing(
    keys: impl Iterator<Item = String>,
    got: &BTreeMap<String, String>,
    failures: &mut Vec<String>,
) -> u64 {
    let mut n = 0;
    for k in keys {
        if !got.contains_key(&k) {
            n += 1;
            failures.push(format!("{k}: no ok journal record"));
        }
    }
    n
}

fn file_kib(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64 / 1024.0)
}

// ---- figures ----------------------------------------------------------------------

type FigFn = fn(&Lab) -> Table;

/// The calls `Lab::all_figures` makes, in its order.
const FIGS: [(&str, FigFn); 12] = [
    ("table1", Lab::table1),
    ("replication", Lab::replication_table),
    ("fig1", Lab::fig1),
    ("fig2", Lab::fig2),
    ("fig11", Lab::fig11),
    ("fig12", Lab::fig12),
    ("fig13", Lab::fig13),
    ("fig14", Lab::fig14),
    ("fig15", Lab::fig15),
    ("fig16", Lab::fig16),
    ("fig17", Lab::fig17),
    ("fig18", Lab::fig18),
];

/// The job union `Lab::all_figures` prefetches before rendering.
fn figures_jobs(setup: &Setup) -> Vec<(Game, ScheduleConfig, bool)> {
    let grouping = |g| ScheduleConfig {
        grouping: g,
        order: TileOrder::ZOrder,
        assignment: AssignMode::Const,
    };
    let mut schedules = vec![ScheduleConfig::baseline(), ScheduleConfig::dtexl()];
    schedules.extend(QuadGrouping::ALL.iter().map(|&g| grouping(g)));
    schedules.extend(NamedMapping::FIG16.iter().map(NamedMapping::config));
    let mut jobs = Vec::new();
    for &game in &setup.games {
        for &s in &schedules {
            jobs.push((game, s, false));
        }
        jobs.push((game, ScheduleConfig::baseline(), true));
    }
    jobs
}

/// `[speedup_err_pct, l2_cut_err_pp, energy_cut_err_pp]` from the fig16,
/// fig17 and fig18 Mean rows.
fn fidelity_of(tables: &[Table]) -> Option<[f64; 3]> {
    let cell = |id: &str, col: &str| tables.iter().find(|t| t.id == id)?.get("Mean", col);
    let speedup = cell("fig17", "DTexL(HLB-flp2)")?;
    let l2 = cell("fig16", "HLB-flp2")?;
    let energy = cell("fig18", "DTexL(HLB-flp2)")?;
    Some(errors(speedup, l2, energy))
}

fn errors(speedup: f64, l2_cut: f64, energy_cut: f64) -> [f64; 3] {
    [
        100.0 * (speedup - PAPER_SPEEDUP).abs() / PAPER_SPEEDUP,
        (l2_cut - PAPER_L2_CUT).abs(),
        (energy_cut - PAPER_ENERGY_CUT).abs(),
    ]
}

/// The fidelity metrics for the sweep workloads, evaluated after their
/// measured repetitions at the paper's configuration (Table II, frame
/// 0): `Lab::fig17` and `Lab::fig18` (checked against the reference
/// tables) plus fig16's HLB-flp2 column, which needs only the same
/// baseline/DTexL legs. Returns the errors, tables checked, tables bad.
fn fidelity_eval(refs: &References, failures: &mut Vec<String>) -> ([f64; 3], u64, u64) {
    let lab = Lab::new(Setup::table2());
    let fig17 = lab.fig17();
    let fig18 = lab.fig18();
    let mut bad = 0;
    for t in [&fig17, &fig18] {
        if !refs.check_table(t, failures) {
            bad += 1;
        }
    }
    let hlb = NamedMapping::HilbertFlip2.config();
    let games = &lab.setup().games;
    let l2_cut = games
        .iter()
        .map(|&g| {
            let base = lab
                .result(g, ScheduleConfig::baseline(), false)
                .total_l2_accesses() as f64;
            let cg = lab.result(g, hlb, false).total_l2_accesses() as f64;
            100.0 * (1.0 - cg / base)
        })
        .sum::<f64>()
        / games.len() as f64;
    let speedup = fig17.get("Mean", "DTexL(HLB-flp2)").unwrap_or(f64::NAN);
    let energy = fig18.get("Mean", "DTexL(HLB-flp2)").unwrap_or(f64::NAN);
    (errors(speedup, l2_cut, energy), 2, bad)
}

// ---- traced passes ------------------------------------------------------------------

/// Every per-layer metric with its unit, in report order.
const PER_LAYER: &[(&str, &str)] = &[
    ("scene.ns", "ns"),
    ("geometry.ns", "ns"),
    ("geometry.prims", "count"),
    ("tiling.ns", "ns"),
    ("tiling.bin_refs", "count"),
    ("raster.ns", "ns"),
    ("raster.quads", "count"),
    ("zbuffer.ns", "ns"),
    ("zbuffer.survive_ratio", "ratio"),
    ("sampler.ns", "ns"),
    ("sampler.lines", "count"),
    ("sampler.ns_per_line", "ns"),
    ("prefix.ns", "ns"),
    ("prefix.mib", "MiB"),
    ("sched.ns", "ns"),
    ("lane.ns", "ns"),
    ("lane.l1_probes", "count"),
    ("lane.l1_hit_ratio", "ratio"),
    ("replay.ns", "ns"),
    ("replay.l2_accesses", "count"),
    ("replay.l2_hit_ratio", "ratio"),
    ("replay.dram_requests", "count"),
    ("warp.ns", "ns"),
    ("compose.ns", "ns"),
    ("leg.ns", "ns"),
    ("leg.ns_per_probe", "ns"),
    ("obs.leg_probed.ns", "ns"),
    ("sweep.overhead_ms", "ms"),
    ("sweep.journal_kib", "KiB"),
    ("sweep.prefix_hit_ratio", "ratio"),
    ("sweep.prefix_retained_mib", "MiB"),
    ("spool.submit_ms", "ms"),
    ("spool.overhead_ms", "ms"),
    ("alloc.job_peak_mib", "MiB"),
    ("experiments.table1_s", "s"),
    ("experiments.replication_s", "s"),
    ("experiments.fig1_s", "s"),
    ("experiments.fig2_s", "s"),
    ("experiments.fig11_s", "s"),
    ("experiments.fig12_s", "s"),
    ("experiments.fig13_s", "s"),
    ("experiments.fig14_s", "s"),
    ("experiments.fig15_s", "s"),
    ("experiments.fig16_s", "s"),
    ("experiments.fig17_s", "s"),
    ("experiments.fig18_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// One traced pass's per-layer metrics.
struct Pass {
    wall_s: f64,
    metrics: BTreeMap<String, f64>,
    checked: u64,
    mismatched: u64,
    spans: String,
}

struct PassBuilder {
    tracer: Tracer,
    next_job: u32,
    prefix: PrefixCounts,
    prefix_bytes: Vec<u64>,
    leg: LegCounts,
    checked: u64,
    mismatched: u64,
}

impl PassBuilder {
    fn new() -> Self {
        Self {
            tracer: Tracer::new(),
            next_job: 0,
            prefix: PrefixCounts::default(),
            prefix_bytes: Vec::new(),
            leg: LegCounts::default(),
            checked: 0,
            mismatched: 0,
        }
    }

    /// One scene: its prefix, then one leg per schedule. The first leg
    /// shares the prefix job's root span (a cache miss); each further
    /// leg is a job of its own (a cache hit).
    fn traced_game(
        &mut self,
        game: Game,
        frame: u32,
        width: u32,
        height: u32,
        schedules: &[ScheduleConfig],
        failures: &mut Vec<String>,
    ) -> Result<(), String> {
        let cfg = PipelineConfig::default();
        let job = self.take_job();
        let root = self.tracer.open("job", None, Some(job));
        let tr = &mut self.tracer;
        let (scene, _) = tr.span("scene", Some(root), Some(job), |_, _| {
            game.scene(&SceneSpec::new(width, height, frame))
        });
        let mut lt = LayerTimes::new(tr.epoch());
        let (rebuilt, pid) = tr.span("prefix.rebuild", Some(root), Some(job), |_, _| {
            rebuild::build_prefix(&scene, &cfg, width, height, &mut lt)
        });
        tr.push_layers(&lt, pid, Some(job), Layer::in_prefix);
        let (real, _) = tr.span("prefix", Some(root), Some(job), |_, _| {
            FramePrefix::build(&scene, &cfg, width, height)
        });
        let rebuilt = rebuilt.map_err(|e| e.to_string())?;
        let real = real.map_err(|e| e.to_string())?;
        self.prefix.prims += rebuilt.counts.prims;
        self.prefix.bin_refs += rebuilt.counts.bin_refs;
        self.prefix.raster_quads += rebuilt.counts.raster_quads;
        self.prefix.survivors += rebuilt.counts.survivors;
        self.prefix.lines += rebuilt.counts.lines;
        self.prefix_bytes.push(real.approx_bytes());
        for (i, sched) in schedules.iter().enumerate() {
            // The first leg runs inside the prefix job (a cache miss);
            // every further leg is a job of its own (a cache hit).
            let (job, root) = if i == 0 {
                (job, root)
            } else {
                let job = self.take_job();
                (job, self.tracer.open("job", None, Some(job)))
            };
            let outcome = self.leg(&rebuilt, &real, sched, &cfg, job, root);
            self.tracer.close(root);
            self.checked += 1;
            if let Err(e) = outcome {
                self.mismatched += 1;
                let key = SweepJob::new(game, *sched, false, width, height, frame).key();
                failures.push(format!("{key}: {e}"));
            }
        }
        Ok(())
    }

    fn take_job(&mut self) -> u32 {
        self.next_job += 1;
        self.next_job - 1
    }

    /// The rebuilt leg, the simulator's fused leg and its probed leg on
    /// the same prefix, with the rebuilt counters checked against both.
    fn leg(
        &mut self,
        rebuilt: &rebuild::Prefix,
        real: &FramePrefix,
        sched: &ScheduleConfig,
        cfg: &PipelineConfig,
        job: u32,
        root: usize,
    ) -> Result<(), String> {
        let tr = &mut self.tracer;
        let mut lt = LayerTimes::new(tr.epoch());
        let (counts, lid) = tr.span("leg.rebuild", Some(root), Some(job), |_, _| {
            rebuild::run_leg(rebuilt, sched, cfg, &mut lt)
        });
        tr.push_layers(&lt, lid, Some(job), |l| !l.in_prefix());
        let (result, _) = tr.span("leg", Some(root), Some(job), |_, _| {
            FrameSim::try_run_prefixed(real, sched, cfg)
        });
        let mut rollup = ObsRollup::default();
        let (probed, _) = tr.span("obs.leg_probed", Some(root), Some(job), |_, _| {
            FrameSim::try_run_prefixed_probed(real, sched, cfg, &mut rollup.probe(RollupMode::Sim))
        });
        let result: FrameResult = result.map_err(|e| e.to_string())?;
        let probed = probed.map_err(|e| e.to_string())?;
        self.leg.l1_hits += counts.l1_hits;
        self.leg.l1_misses += counts.l1_misses;
        self.leg.l2_accesses += counts.l2_accesses;
        self.leg.l2_hits += counts.l2_hits;
        self.leg.dram_requests += counts.dram_requests;
        let sim = LegCounts::of(&result);
        counts.matches(&sim)?;
        LegCounts::of(&probed)
            .matches(&sim)
            .map_err(|e| format!("probed leg: {e}"))?;
        if rollup.dram_requests != sim.dram_requests
            || rollup.l2_hits + rollup.l2_misses != sim.l2_accesses
        {
            return Err(format!(
                "rollup counters disagree with FrameSim: {rollup:?}"
            ));
        }
        Ok(())
    }

    fn finish(self, wall_s: f64) -> Pass {
        let tr = &self.tracer;
        let mut m = BTreeMap::new();
        let busy = |n: &str| tr.busy_ns_by_name(n) as f64;
        for name in ["scene", "prefix", "leg", "obs.leg_probed"] {
            m.insert(format!("{name}.ns"), busy(name));
        }
        for layer in Layer::ALL {
            m.insert(
                format!("{}.ns", layer.name()),
                tr.self_ns_by_name(layer.name()) as f64,
            );
        }
        for (id, _) in FIGS {
            let name = format!("experiments.{id}");
            m.insert(format!("{name}_s"), busy(&name) / 1e9);
        }
        let c = self.prefix;
        m.insert("geometry.prims".into(), c.prims as f64);
        m.insert("tiling.bin_refs".into(), c.bin_refs as f64);
        m.insert("raster.quads".into(), c.raster_quads as f64);
        m.insert(
            "zbuffer.survive_ratio".into(),
            c.survivors as f64 / c.raster_quads.max(1) as f64,
        );
        m.insert("sampler.lines".into(), c.lines as f64);
        m.insert(
            "sampler.ns_per_line".into(),
            m["sampler.ns"] / c.lines.max(1) as f64,
        );
        m.insert(
            "prefix.mib".into(),
            self.prefix_bytes.iter().sum::<u64>() as f64
                / self.prefix_bytes.len().max(1) as f64
                / MIB,
        );
        let l = self.leg;
        m.insert("lane.l1_probes".into(), l.l1_probes() as f64);
        m.insert(
            "lane.l1_hit_ratio".into(),
            l.l1_hits as f64 / l.l1_probes().max(1) as f64,
        );
        m.insert("replay.l2_accesses".into(), l.l2_accesses as f64);
        m.insert(
            "replay.l2_hit_ratio".into(),
            l.l2_hits as f64 / l.l2_accesses.max(1) as f64,
        );
        m.insert("replay.dram_requests".into(), l.dram_requests as f64);
        m.insert(
            "leg.ns_per_probe".into(),
            m["leg.ns"] / l.l1_probes().max(1) as f64,
        );
        m.insert("trace.coverage".into(), tr.coverage("job"));
        Pass {
            wall_s,
            metrics: m,
            checked: self.checked,
            mismatched: self.mismatched,
            spans: tr.to_json(),
        }
    }
}

// ---- environment --------------------------------------------------------------------

/// Process high-water RSS (`VmHWM`) in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .current_dir(bench_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, when the benchmark runs inside a git
/// checkout of the repository (an exported tree has none).
fn commit() -> String {
    if bench_dir().join("../.git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    }
}

/// The run's environment, as a JSON object.
fn environment() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\
         \"profile\":\"{}\",\"lane_threads\":{},\"lab_workers\":{},\"sweep_workers\":1,\
         \"fresh_process\":true,\"caches\":\"Lab and prefix caches start cold; modelled \
         caches start empty every frame\"}}",
        esc(&cpu),
        esc(&command_line("rustc", &["-V"])),
        esc(&commit()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        PipelineConfig::default().threads,
        Setup::table2().threads,
    )
}

// ---- recording references -------------------------------------------------------

/// Rewrite every reference file from the current build: the figures
/// tables and jobs at frame 0, and the canon lines of every job any
/// seed can generate for the two sweeps.
fn record() -> ExitCode {
    match record_all() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn record_all() -> Result<(), String> {
    let dir = refs_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let write = |name: &str, body: &str| -> Result<(), String> {
        std::fs::write(dir.join(name), body).map_err(|e| format!("write {name}: {e}"))
    };

    let lab = Lab::new(Setup::table2());
    let jobs = figures_jobs(lab.setup());
    let opts = SweepOptions {
        keep_going: true,
        ..SweepOptions::default()
    };
    let report = lab.try_ensure(&jobs, &opts).map_err(|e| e.to_string())?;
    if !report.is_success() {
        return Err(report.summary());
    }
    let mut canon = String::new();
    let mut records: Vec<_> = report.records.iter().collect();
    records.sort_by(|a, b| a.key.cmp(&b.key));
    for r in records {
        let m = r.metrics.ok_or("ok record without metrics")?;
        let _ = writeln!(
            canon,
            "{}|0|{}|{}|{}",
            r.key, m.coupled_cycles, m.decoupled_cycles, m.l2_accesses
        );
    }
    write("figures.canon", &canon)?;
    let tables = lab.all_figures();
    let mut digests = String::new();
    let mut text = String::new();
    for t in &tables {
        let _ = writeln!(digests, "{} {:016x}", t.id, fnv1a(t.render().as_bytes()));
        let _ = writeln!(text, "{}", t.render());
    }
    write("figures.tables", &digests)?;
    write("figures.txt", &text)?;
    eprintln!(
        "recorded figures: {} jobs, {} tables",
        report.records.len(),
        tables.len()
    );

    let (w, h) = gen::SWEEP_RES;
    let mut sweep_jobs = Vec::new();
    for game in gen::SWEEP_GAMES {
        for s in gen::schedule_grid() {
            sweep_jobs.push(SweepJob::new(game, s, false, w, h, gen::SWEEP_FRAME));
        }
    }
    write("schedule-sweep.canon", &record_sweep(&sweep_jobs, true)?)?;
    eprintln!("recorded schedule-sweep: {} jobs", sweep_jobs.len());

    let (w, h) = gen::STREAM_RES;
    let mut stream_jobs = Vec::new();
    for game in Game::ALL {
        for frame in 0..gen::STREAM_FRAMES {
            stream_jobs.push(SweepJob::new(
                game,
                ScheduleConfig::dtexl(),
                false,
                w,
                h,
                frame,
            ));
        }
    }
    write("scene-stream.canon", &record_sweep(&stream_jobs, false)?)?;
    eprintln!("recorded scene-stream: {} jobs", stream_jobs.len());
    Ok(())
}

fn record_sweep(jobs: &[SweepJob], memoize: bool) -> Result<String, String> {
    let journal = bench_dir().join("out").join("record.journal.jsonl");
    let _ = std::fs::remove_file(&journal);
    let opts = SweepOptions {
        workers: 2,
        keep_going: true,
        journal: Some(journal.clone()),
        // Jobs are grouped by scene, so a small FIFO budget keeps every
        // reuse while bounding memory.
        prefix_cache: memoize.then(|| PrefixCache::new(Some(256 << 20))),
        ..SweepOptions::default()
    };
    let report = run_sweep(jobs, &opts, |_, _| {}).map_err(|e| e.to_string())?;
    if !report.is_success() {
        return Err(report.summary());
    }
    let text = std::fs::read_to_string(&journal).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&journal);
    Ok(canon_text(&text))
}
