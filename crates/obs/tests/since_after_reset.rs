//! `RunTelemetry::since` across an `obs::reset`. This binary holds one
//! test on its own, because resetting the process-global registry would
//! disturb any test running beside it.

#[test]
fn since_saturates_span_counts_after_a_reset() {
    let record = || {
        let _span = obs::span!("reset.probe");
    };
    record();
    record();
    let baseline = obs::snapshot();
    obs::reset();
    record();

    // The path closed once since the reset, against two in the baseline:
    // the difference saturates to nothing rather than underflowing.
    let telemetry = obs::RunTelemetry::since(&baseline);
    assert!(
        telemetry.spans.iter().all(|n| n.name != "reset.probe"),
        "{:?}",
        telemetry.spans
    );
}
