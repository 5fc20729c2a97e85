//! Regenerates the ablation studies DESIGN.md promises: outbound policy,
//! placement strategy, κ sweep, and layering on/off.
//! `TELECAST_SCALE=smoke` shrinks the runs.

use telecast_bench::figures;

fn main() {
    let scale = telecast_bench::Scale::from_env();
    telecast_bench::emit_figure(&figures::ablation_outbound(scale), scale);
    telecast_bench::emit_figure(&figures::ablation_placement(scale), scale);
    telecast_bench::emit_figure(&figures::ablation_kappa(scale), scale);
    telecast_bench::emit_figure(&figures::ablation_layering(scale), scale);
}
