//! Inspect Willump's optimization decisions per workload: IFV
//! statistics, the efficient set, threshold selection, and cascade
//! serving behaviour on the test set.

use willump::{Willump, WillumpConfig};
use willump_bench::generate;
use willump_models::metrics;
use willump_workloads::WorkloadKind;

fn main() {
    for kind in WorkloadKind::ALL {
        let w = generate(kind, kind.uses_store());
        let cfg = WillumpConfig::default();
        let opt = Willump::new(cfg)
            .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
            .expect("optimizes");
        let r = opt.report();
        println!("\n=== {} ===", kind.name());
        println!("  optimization time: {:.2}s", r.optimization_seconds);
        for (g, (imp, cost)) in r
            .ifv_stats
            .importance
            .iter()
            .zip(&r.ifv_stats.cost)
            .enumerate()
        {
            let eff = if r.efficient_set.contains(&g) {
                " <- efficient"
            } else {
                ""
            };
            println!(
                "  IFV {g}: importance {imp:.5}  cost {:>9.2}us/row  CE {:.3}{eff}",
                cost * 1e6,
                imp / cost.max(1e-12) / 1e6,
            );
        }
        println!("  cascades deployed: {}", r.cascades_deployed);
        if let Some(reason) = &r.cascade_gate_reason {
            println!("  gate declined: {reason}");
        }
        if let Some(sel) = &r.threshold {
            println!(
                "  threshold {:.1}: full acc {:.4}, cascade acc {:.4}, kept {:.1}%",
                sel.threshold,
                sel.full_accuracy,
                sel.cascade_accuracy,
                sel.kept_fraction * 100.0
            );
        }
        if kind.is_classification() {
            let (scores, stats) = opt.predict_batch_with_stats(&w.test).expect("predicts");
            let acc = metrics::accuracy(&scores, &w.test_y);
            println!("  test accuracy: {acc:.4}");
            if opt.cascade().is_some() {
                let rows = stats.gate_resolved + stats.escalated;
                println!(
                    "  test serving: {} small / {} escalated ({:.1}% kept)",
                    stats.gate_resolved,
                    stats.escalated,
                    stats.gate_resolved as f64 / rows.max(1) as f64 * 100.0
                );
            }
        }
    }
}
