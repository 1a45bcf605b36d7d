//! Failure accounting: every attempted operation (an experiment run or an
//! HTTP request) lands in exactly one outcome class, and everything but
//! [`Outcome::Ok`] counts as failed.

use std::collections::BTreeMap;

/// How one attempted operation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Completed cleanly with the expected output.
    Ok,
    /// Load-shed by the server (`429`, or `503` with `retry-after`).
    Shed,
    /// Any other non-2xx status.
    Http(u16),
    /// Completed only by degrading: a `203` body, a degraded estimate or
    /// a failed stratum (what makes `repro` exit 3).
    Degraded,
    /// Completed, but the output disagrees with the reference or oracle.
    Mismatch(String),
    /// Did not complete: a panic, an I/O error or an estimation error.
    Error(String),
}

impl Outcome {
    /// Classifies an HTTP status on its own. Callers that also compare
    /// bodies turn an `Ok` into [`Outcome::Mismatch`] when they differ.
    pub fn from_status(status: u16, retry_after: bool) -> Outcome {
        match status {
            203 => Outcome::Degraded,
            200..=299 => Outcome::Ok,
            429 => Outcome::Shed,
            503 if retry_after => Outcome::Shed,
            other => Outcome::Http(other),
        }
    }

    /// Stable class label for reports.
    pub fn class(&self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Shed => "shed",
            Outcome::Http(_) => "http",
            Outcome::Degraded => "degraded",
            Outcome::Mismatch(_) => "mismatch",
            Outcome::Error(_) => "error",
        }
    }
}

/// Attempted and failed counts, broken down by class.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not end [`Outcome::Ok`].
    pub failed: u64,
    /// Count per outcome class.
    pub by_class: BTreeMap<&'static str, u64>,
    /// The first few failure descriptions, for stderr.
    pub examples: Vec<String>,
}

impl Tally {
    /// Records one outcome.
    pub fn record(&mut self, what: &str, outcome: &Outcome) {
        self.attempted += 1;
        *self.by_class.entry(outcome.class()).or_insert(0) += 1;
        if *outcome != Outcome::Ok {
            self.failed += 1;
            if self.examples.len() < 8 {
                self.examples.push(format!("{what}: {outcome:?}"));
            }
        }
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
