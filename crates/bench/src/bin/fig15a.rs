//! Regenerates Fig15a of the paper. `TELECAST_SCALE=smoke` shrinks the run.

fn main() {
    let scale = telecast_bench::Scale::from_env();
    telecast_bench::emit_figure(&telecast_bench::figures::fig15a(scale), scale);
}
