//! Regenerates every figure of the paper's evaluation plus the ablations,
//! printing each table and exporting `results/*.json`.
//!
//! Run at the paper's scale (default) or quickly with
//! `TELECAST_SCALE=smoke cargo run --release -p telecast-bench --bin reproduce`,
//! which exports to `results/smoke/*.json` instead.

use std::time::Instant;

use telecast_bench::figures;

/// One deferred figure generator, keyed by the name printed with its timing.
type FigureGenerator = fn(telecast_bench::Scale) -> telecast_bench::FigureData;

fn main() {
    let scale = telecast_bench::Scale::from_env();
    println!("# 4D TeleCast reproduction — scale {scale:?}\n");
    // Figures 13(b) and (c) share one sweep; run it once.
    {
        let start = Instant::now();
        let (fig_b, fig_c) = figures::fig13bc_pair(scale);
        let a = figures::fig13a(scale);
        telecast_bench::emit_figure(&a, scale);
        telecast_bench::emit_figure(&fig_b, scale);
        telecast_bench::emit_figure(&fig_c, scale);
        println!(
            "# fig13(a,b,c) took {:.1}s\n",
            start.elapsed().as_secs_f64()
        );
    }
    let figures: Vec<(&str, FigureGenerator)> = vec![
        ("fig14a", figures::fig14a),
        ("fig14b", figures::fig14b),
        ("fig14c", figures::fig14c),
        ("fig15a", figures::fig15a),
        ("fig15b", figures::fig15b),
        ("ablation_outbound", figures::ablation_outbound),
        ("ablation_placement", figures::ablation_placement),
        ("ablation_kappa", figures::ablation_kappa),
        ("ablation_layering", figures::ablation_layering),
    ];
    for (name, generate) in figures {
        let start = Instant::now();
        let figure = generate(scale);
        telecast_bench::emit_figure(&figure, scale);
        println!("# {name} took {:.1}s\n", start.elapsed().as_secs_f64());
    }
}
