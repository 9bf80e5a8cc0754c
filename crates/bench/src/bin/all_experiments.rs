//! Runs every experiment back to back (the full evaluation section) and
//! writes the machine-readable trajectory (`BENCH_PR10.json`) next to the
//! CSVs.

use whisper_bench::experiments::*;
use whisper_bench::BenchSummary;

fn main() {
    let mut summary = BenchSummary::new();

    println!("=== E1 / Figure 4 ===\n");
    let rows = fig4::run_sweep(
        &[2, 3, 4, 5, 6, 8, 9, 12, 16, 20, 24],
        fig4::Fig4Params::default(),
    );
    fig4::table(&rows).print();
    let pts: Vec<(f64, f64)> = rows
        .iter()
        .map(|r| (r.bpeers as f64, r.steady_msgs as f64))
        .collect();
    println!("linearity R² = {:.5}\n", fig4::linear_r2(&pts));
    summary.record("fig4", "linearity_r2", fig4::linear_r2(&pts));
    summary.record("fig4", "points", pts.len() as f64);
    let _ = fig4::table(&rows).save_csv();

    println!("=== E2 / RTT analysis ===\n");
    let t = rtt::table(500, 300, 5, 11);
    t.print();
    let _ = t.save_csv();
    let service = rtt::service_rtt(300, 5, 11);
    if let Some(mean) = service.mean() {
        summary.record("rtt", "service_mean_ms", mean.as_secs_f64() * 1e3);
    }
    let failover = rtt::failover_breakdown(5, 11);
    summary.record(
        "rtt",
        "failover_total_ms",
        failover.total.as_secs_f64() * 1e3,
    );
    println!();

    println!("=== E3 / load scalability ===\n");
    let rows = load::run_sweep(
        &[1, 3, 5, 9],
        &[50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0],
        load::LoadParams::default(),
    );
    let t = load::table(&rows);
    t.print();
    let _ = t.save_csv();
    println!();

    println!("=== E4 / election time ===\n");
    let rows = election::run_sweep(&[2, 3, 4, 6, 8, 12, 16, 24], 7);
    let t = election::table(&rows);
    t.print();
    let _ = t.save_csv();
    if let Some(worst) = rows.iter().map(|r| r.time).max() {
        summary.record("election", "worst_ms", worst.as_secs_f64() * 1e3);
    }
    println!();

    println!("=== E5 / availability ===\n");
    let rows = availability::run_sweep(
        &[1, 2, 3, 5, 7],
        availability::AvailabilityParams::default(),
    );
    let t = availability::table(&rows);
    t.print();
    let _ = t.save_csv();
    for row in &rows {
        summary.record(
            "availability",
            &format!("replicas_{}", row.replicas),
            row.availability,
        );
    }
    println!();

    println!("=== E5b / dynamic growth ===\n");
    let rows = availability::run_growth(availability::AvailabilityParams::default());
    let t = availability::growth_table(&rows);
    t.print();
    let _ = t.save_csv();
    println!();

    println!("=== E6 / discovery quality ===\n");
    let (syn, sem) = discovery_quality::run(discovery_quality::CorpusParams::default());
    let t = discovery_quality::table(syn, sem);
    t.print();
    let _ = t.save_csv();
    println!();

    println!("=== E7 / QoS selection ===\n");
    let rows = qos::run_all_seeds(qos::QosParams::default(), &[37, 38, 39, 40, 41]);
    let t = qos::table(&rows);
    t.print();
    let _ = t.save_csv();
    println!();

    println!("=== E10 / adaptive QoS vs lying advertiser ===\n");
    let t = qos::lying_advertiser_table(qos::QosParams::default());
    t.print();
    let _ = t.save_csv();
    println!();

    println!("=== E9 / failover sensitivity ===\n");
    let rows = failover_sensitivity::run_sweep(3, 19);
    let t = failover_sensitivity::table(&rows);
    t.print();
    let _ = t.save_csv();
    println!();

    println!("=== E11 / relay overhead ===\n");
    let (direct, relayed) = relay_overhead::run_both(29);
    let t = relay_overhead::table(&direct, &relayed);
    t.print();
    let _ = t.save_csv();
    println!();

    println!("=== E8 / discovery cost ===\n");
    let rows = discovery_cost::run_sweep(&[1, 2, 4, 8, 12], 2, 7);
    let t = discovery_cost::table(&rows);
    t.print();
    let _ = t.save_csv();
    println!();

    println!("=== E12 / cluster health ledger ===\n");
    let report = cluster_health::run(cluster_health::ClusterHealthParams::default());
    cluster_health::table(&report).print();
    println!();
    cluster_health::summary_table(&report).print();
    let _ = cluster_health::table(&report).save_csv();
    let _ = cluster_health::summary_table(&report).save_csv();
    for (stat, value) in cluster_health::summary_stats(&report) {
        summary.record("cluster_health", &stat, value);
    }

    println!("=== E14 / substrate matrix ===\n");
    let rows = substrate_matrix::run_matrix(&substrate_matrix::MatrixTuning::default(), None);
    let t = substrate_matrix::table(&rows);
    t.print();
    let _ = t.save_csv();
    substrate_matrix::record(&mut summary, &rows);
    println!();

    println!("=== E15 / postmortem matrix ===\n");
    let rows = postmortem::run_matrix(&substrate_matrix::MatrixTuning::default());
    let t = postmortem::table(&rows);
    t.print();
    let _ = t.save_csv();
    postmortem::record(&mut summary, &rows);
    println!();

    match summary.save_merged() {
        Ok(p) => println!("\nbench summary: {}", p.display()),
        Err(e) => eprintln!("\nbench summary not written: {e}"),
    }
}
