//! The benchmark's only route into the cluster engine: one adapter per
//! `Cluster` entry point the workloads use. Workloads never name a
//! `Cluster::run*` method themselves, so a change to the engine's run API
//! is an edit here and nowhere else.

use rubik::{ArrivalSource, Cluster, ClusterOutcome, DvfsPolicy, RunResult, TraceLog};

/// `Cluster::run_streamed`: the outcome only.
pub fn run_streamed<P: DvfsPolicy, S: ArrivalSource>(
    cluster: Cluster<P>,
    source: S,
) -> Result<ClusterOutcome, String> {
    cluster.run_streamed(source).map_err(|e| e.to_string())
}

/// `Cluster::run_streamed_with_results`: the outcome and every server's
/// records.
pub fn run_streamed_with_results<P: DvfsPolicy, S: ArrivalSource>(
    cluster: Cluster<P>,
    source: S,
) -> Result<(ClusterOutcome, Vec<RunResult>), String> {
    cluster
        .run_streamed_with_results(source)
        .map_err(|e| e.to_string())
}

/// `Cluster::run_streamed_traced`: the outcome, the records and the
/// telemetry log.
pub fn run_streamed_traced<P: DvfsPolicy, S: ArrivalSource>(
    cluster: Cluster<P>,
    source: S,
) -> Result<(ClusterOutcome, Vec<RunResult>, TraceLog), String> {
    cluster
        .run_streamed_traced(source)
        .map_err(|e| e.to_string())
}
