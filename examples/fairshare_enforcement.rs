//! USLA fair-share enforcement across VOs.
//!
//! The paper's experiments use GRUBER "only as a site recommender"; this
//! example turns enforcement ON and shows Maui-style shares doing their
//! job: a VO capped with an upper-limit share gets requests denied once it
//! exceeds its entitlement, while a lower-limit VO keeps its guarantee.
//!
//! ```text
//! cargo run --release --example fairshare_enforcement
//! ```

use gruber_types::VoId;
use usla::{EntitlementEngine, Principal};
use workload::uslas::weighted_shares;

fn main() {
    // Three VOs: VO 0 capped (+), VO 1 a plain target, VO 2 guaranteed (-).
    let uslas = weighted_shares(&[1.0, 2.0, 1.0]).expect("valid weights");
    println!("USLA set:");
    for e in uslas.entries() {
        let (pct, kind) = (e.share.percent, e.share.kind);
        println!("  {} -> {}: {pct:.0} % ({kind:?})", e.provider, e.consumer);
    }
    println!();

    let total_cpus = 10_000.0;
    let engine = EntitlementEngine::new(&uslas, total_cpus);
    println!("entitlements over a {total_cpus}-CPU grid:");
    for v in 0..3u32 {
        let p = Principal::Vo(VoId(v));
        println!(
            "  {p}: entitled {:>7.0}  guaranteed {:>7.0}  cap {}",
            engine.entitlement(p),
            engine.guaranteed(p),
            match engine.cap(p) {
                c if c.is_infinite() => "none".to_string(),
                c => format!("{c:.0}"),
            }
        );
    }

    // Admission decisions as VO 0 (capped at 25%) ramps its usage.
    println!("\nadmission for vo:0 (capped) as its usage grows:");
    for usage in [0.0, 1000.0, 2000.0, 2499.0, 2500.0, 4000.0] {
        let verdict = engine.check_admission(Principal::Vo(VoId(0)), 1.0, 5000.0, |_| usage);
        println!("  usage {usage:>6.0} CPUs -> {verdict:?}");
    }

    // And the same story inside a full simulated deployment with
    // enforcement enabled.
    let mut cfg = digruber::config::DigruberConfig::small(2, 7);
    cfg.enforce_uslas = true;
    let mut wl = workload::WorkloadSpec::small();
    wl.n_vos = 3;
    let out = digruber::run_experiment(cfg, wl, "enforced fair-share run")
        .expect("experiment failed");
    println!(
        "\nsimulated run with enforcement on: {} requests, {} denied by USLAs",
        out.report.issued, out.denied_requests
    );
}
