//! Euryale planner driving the emulated grid with a GRUBER engine as the
//! external site selector — the full client-side tool chain of the paper,
//! with deterministic failure injection exercising re-planning.

use desim::DetRng;
use di_gruber_repro::{EuryalePlanner, JobDag, PostAction, SubmitFile};
use gridemu::{grid3_times, Grid, SitePolicy};
use gruber::{GruberEngine, LeastUsedSelector, SiteSelector};
use gruber_types::{
    ClientId, GroupId, JobId, JobSpec, JobState, SimDuration, SimTime, UserId, VoId,
};
use workload::uslas::equal_shares;

fn spec(id: JobId, now: SimTime) -> JobSpec {
    JobSpec {
        id,
        vo: VoId(0),
        group: GroupId(0),
        user: UserId(0),
        client: ClientId(0),
        cpus: 1,
        storage_mb: 0,
        runtime: SimDuration::from_mins(5),
        submitted_at: now,
    }
}

/// Drives a DAG to completion against ground truth; returns (planner,
/// completed job count in the grid).
fn drive(
    dag: JobDag,
    mut submits: std::collections::HashMap<JobId, SubmitFile>,
    failure_rate: f64,
    max_retries: u32,
) -> (EuryalePlanner, Grid) {
    let sites = grid3_times(1, 11);
    let mut grid = Grid::new(sites.clone(), SitePolicy::permissive()).unwrap();
    let uslas = equal_shares(2, 2).unwrap();
    let mut engine = GruberEngine::new(&sites, &uslas);
    let mut selector = LeastUsedSelector::new(11, 0);
    let mut fail_rng = DetRng::new(11, 0xBAD);
    let mut planner = EuryalePlanner::new(dag, max_retries);

    let mut now = SimTime::ZERO;
    for _round in 0..10_000 {
        if planner.is_drained() {
            break;
        }
        let ready = planner.ready();
        assert!(!ready.is_empty(), "DAG wedged");
        for job in ready {
            now += SimDuration::from_secs(30);
            let submit = submits.get_mut(&job).unwrap();
            let free = engine.availability(now);
            let job_spec = spec(job, now);
            let site = planner
                .prescript(submit, || selector.select(&free, &job_spec, now))
                .unwrap();
            let _ = grid.submit(job_spec.clone());
            let started = grid.dispatch(job, site, now, true).unwrap();
            assert_eq!(started.len(), 1, "grid is idle; jobs start at once");
            let success = !fail_rng.chance(failure_rate);
            now += SimDuration::from_mins(5);
            if success {
                grid.complete(job, now).unwrap();
            } else {
                grid.fail(job, now).unwrap();
                grid.resubmit(job, now).unwrap();
            }
            match planner.postscript(submit, success).unwrap() {
                PostAction::Replanned { .. } => submit.site = None,
                PostAction::Completed { .. } | PostAction::Abandoned => {}
            }
        }
    }
    (planner, grid)
}

fn fan_inputs(workers: u32) -> (JobDag, std::collections::HashMap<JobId, SubmitFile>) {
    let root = JobId(0);
    let worker_ids: Vec<JobId> = (1..=workers).map(JobId).collect();
    let sink = JobId(workers + 1);
    let dag = JobDag::fan(root, &worker_ids, sink).unwrap();
    let mut submits = std::collections::HashMap::new();
    submits.insert(root, SubmitFile::new(root, vec!["raw".into()], vec!["staged".into()]));
    for &w in &worker_ids {
        submits.insert(
            w,
            SubmitFile::new(w, vec!["staged".into()], vec![format!("part{}", w.0)]),
        );
    }
    submits.insert(
        sink,
        SubmitFile::new(
            sink,
            worker_ids.iter().map(|w| format!("part{}", w.0)).collect(),
            vec!["result".into()],
        ),
    );
    (dag, submits)
}

#[test]
fn failure_free_pipeline_completes_everything() {
    let (dag, submits) = fan_inputs(8);
    let (planner, grid) = drive(dag, submits, 0.0, 0);
    assert!(planner.is_drained());
    let stats = planner.stats();
    assert_eq!(stats.completed, 10);
    assert_eq!(stats.replanned, 0);
    assert_eq!(stats.abandoned, 0);
    let done = grid
        .records()
        .filter(|r| r.state == JobState::Completed)
        .count();
    assert_eq!(done, 10);
}

#[test]
fn failures_are_replanned_and_pipeline_still_drains() {
    let (dag, submits) = fan_inputs(8);
    let (planner, grid) = drive(dag, submits, 0.3, 10);
    assert!(planner.is_drained());
    let stats = planner.stats();
    assert!(stats.replanned > 0, "failure injection never fired");
    assert_eq!(stats.abandoned, 0, "retry budget was ample");
    assert_eq!(stats.completed, 10);
    // Every grid record eventually completed (failed attempts were
    // resubmitted under the same id).
    assert!(grid
        .records()
        .all(|r| r.state == JobState::Completed));
}

#[test]
fn replica_cache_saves_transfers_across_workers() {
    let (dag, submits) = fan_inputs(8);
    let (planner, _) = drive(dag, submits, 0.0, 0);
    let stats = planner.stats();
    // All 8 workers share one input; site selection under an idle grid is
    // spread, but at least repeat placements on the same site skip the
    // staging transfer.
    assert_eq!(stats.transfers_done + stats.transfers_skipped, 8 + 1 + 8);
    assert!(planner.catalog().popularity("staged") >= 8);
}

#[test]
fn exhausted_retries_abandon_but_release_the_dag() {
    let (dag, submits) = fan_inputs(2);
    // 100% failure rate and tiny budget: everything gets abandoned, DAG
    // still drains.
    let (planner, _) = drive(dag, submits, 1.0, 1);
    assert!(planner.is_drained());
    let stats = planner.stats();
    assert_eq!(stats.completed, 0);
    assert!(stats.abandoned >= 1);
}
