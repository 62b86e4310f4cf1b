//! A Euryale pipeline over the emulated grid: late binding, replica
//! caching, failure injection and re-planning.
//!
//! Builds a fan-out/fan-in DAG (one staging job, N analysis workers, one
//! merge job — the classic physics-production shape), drives it through
//! the Euryale prescript/postscript with a GRUBER engine as the external
//! site selector, and injects site failures so re-planning is exercised.
//!
//! ```text
//! cargo run --release --example euryale_pipeline
//! ```

use desim::DetRng;
use di_gruber_repro::euryale::planner::{EuryalePlanner, PostAction, SubmitFile};
use di_gruber_repro::euryale::JobDag;
use gridemu::{grid3_times, Grid, SitePolicy};
use gruber::{GruberEngine, LeastUsedSelector, SiteSelector};
use gruber_types::{
    ClientId, GroupId, JobId, JobSpec, SimDuration, SimTime, UserId, VoId,
};
use workload::uslas::equal_shares;

const WORKERS: u32 = 12;
const FAILURE_RATE: f64 = 0.15;

fn spec(id: JobId, now: SimTime) -> JobSpec {
    JobSpec {
        id,
        vo: VoId(0),
        group: GroupId(0),
        user: UserId(0),
        client: ClientId(0),
        cpus: 1,
        storage_mb: 0,
        runtime: SimDuration::from_mins(10),
        submitted_at: now,
    }
}

fn main() {
    let sites = grid3_times(1, 7);
    let mut grid = Grid::new(sites.clone(), SitePolicy::permissive()).expect("grid");
    let uslas = equal_shares(2, 2).expect("uslas");
    let mut engine = GruberEngine::new(&sites, &uslas);
    let mut selector = LeastUsedSelector::new(7, 0);
    let mut fail_rng = DetRng::new(7, 0xFA11);

    // DAG: stage-in -> 12 workers -> merge.
    let root = JobId(0);
    let workers: Vec<JobId> = (1..=WORKERS).map(JobId).collect();
    let sink = JobId(WORKERS + 1);
    let dag = JobDag::fan(root, &workers, sink).expect("dag");
    let mut planner = EuryalePlanner::new(dag, 3);

    let mut submits: std::collections::HashMap<JobId, SubmitFile> = Default::default();
    submits.insert(root, SubmitFile::new(root, vec!["raw.dat".into()], vec!["staged.dat".into()]));
    for &w in &workers {
        submits.insert(
            w,
            SubmitFile::new(w, vec!["staged.dat".into()], vec![format!("part-{}.dat", w.0)]),
        );
    }
    submits.insert(
        sink,
        SubmitFile::new(
            sink,
            workers.iter().map(|w| format!("part-{}.dat", w.0)).collect(),
            vec!["result.dat".into()],
        ),
    );

    // Synchronous drive loop: plan ready jobs, run them on the emulated
    // grid, inject failures, feed outcomes back to the postscript.
    let mut now = SimTime::ZERO;
    let mut round = 0u32;
    while !planner.is_drained() {
        round += 1;
        let ready = planner.ready();
        assert!(!ready.is_empty() || round < 1000, "pipeline wedged");
        for job in ready {
            now += SimDuration::from_secs(30);
            let submit = submits.get_mut(&job).expect("known job");
            let free = engine.availability(now);
            let job_spec = spec(job, now);
            let site = planner
                .prescript(submit, || selector.select(&free, &job_spec, now))
                .expect("prescript");

            // Run on ground truth.
            grid.submit(job_spec.clone()).ok(); // replans resubmit below
            let started = grid.dispatch(job, site, now, true).unwrap_or_default();
            let success = !fail_rng.chance(FAILURE_RATE);
            now += SimDuration::from_mins(10);
            for st in started {
                if success {
                    grid.complete(st.job, st.finish_at.max(now)).ok();
                } else {
                    grid.fail(st.job, now).ok();
                    grid.resubmit(st.job, now).ok();
                }
            }

            match planner.postscript(submit, success).expect("postscript") {
                PostAction::Completed { released } => {
                    println!("round {round:>3}: {job} completed at {site} (released {released})");
                }
                PostAction::Replanned { attempt } => {
                    println!("round {round:>3}: {job} FAILED at {site}, replanning (attempt {attempt})");
                    submit.site = None;
                }
                PostAction::Abandoned => {
                    println!("round {round:>3}: {job} abandoned after retries");
                }
            }
        }
    }

    let stats = planner.stats();
    println!("\npipeline drained in {round} rounds");
    println!(
        "planned {}  replanned {}  completed {}  abandoned {}",
        stats.planned, stats.replanned, stats.completed, stats.abandoned
    );
    println!(
        "stage-in transfers done {}  skipped thanks to replicas {}",
        stats.transfers_done, stats.transfers_skipped
    );
    println!(
        "hottest files: {:?}",
        planner.catalog().hottest(3)
    );
}
