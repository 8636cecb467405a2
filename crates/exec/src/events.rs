//! Progress events emitted by the executor.
//!
//! Every job ends in exactly one [`ExecEvent`], delivered in a single
//! serialized stream observed on the *submitting* thread (the observer
//! closure is `FnMut`, never called concurrently). Each event carries
//! the job's wall time, the feed the `figures` CLI folds into its
//! per-series timing lines.

use std::time::Duration;

/// How one job ended, as seen by the observer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecEvent {
    /// The job's closure returned normally.
    Finished {
        /// Submission index of the job.
        job: usize,
        /// Worker that ran it (`0..workers`).
        worker: usize,
        /// Wall-clock time the job's closure took.
        wall: Duration,
    },
    /// The job's closure panicked; the panic was caught at the job
    /// boundary and the worker kept going.
    Panicked {
        /// Submission index of the job.
        job: usize,
        /// Worker that ran it.
        worker: usize,
        /// Wall-clock time until the panic.
        wall: Duration,
        /// Rendered panic payload.
        message: String,
    },
    /// The job ran past its per-job wall-clock deadline: the watchdog
    /// cancelled it while it was still running, and when its closure
    /// eventually returned the result was discarded as
    /// [`JobError::Deadline`](crate::JobError::Deadline).
    Deadlined {
        /// Submission index of the job.
        job: usize,
        /// Worker that ran it.
        worker: usize,
        /// Wall-clock time the job actually took before returning.
        wall: Duration,
        /// The deadline it overran.
        limit: Duration,
    },
}
