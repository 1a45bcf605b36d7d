//! Count-data GLMs with a log link: plain Poisson and right-truncated
//! Poisson, fitted by Newton–Raphson (equivalently IRLS).
//!
//! This is the fitting engine behind the log-linear capture–recapture models
//! of the paper (§3.3). A log-linear model is exactly a Poisson GLM whose
//! design matrix encodes which interaction terms `u_h` are free; the paper's
//! right-truncated refinement swaps the Poisson cell likelihood for a
//! truncated one bounded by the routed-space size. Both are one-parameter
//! exponential families in the canonical parameter `θ_i = η_i = xᵢᵀu`, so a
//! single Newton loop covers both:
//!
//! * score  `∇ℓ = Xᵀ (y − m(η))`
//! * hessian `∇²ℓ = −Xᵀ diag(v(η)) X`
//!
//! with `m = v = λ` for Poisson and the truncated mean/variance otherwise.
//!
//! The loop sees the design only through the [`Design`] products, so one
//! loop serves the dense [`Matrix`] and the [`LogLinearDesign`], which
//! computes the same products bit for bit from the model's term masks
//! (DESIGN.md §18).

use crate::dist::TruncatedPoisson;
use crate::linalg::{solve_spd_with_ridge, Matrix};
use crate::special::ln_gamma;

mod loglinear;

pub use loglinear::LogLinearDesign;

/// Hard clamp on the linear predictor. `exp(120) ≈ 1.3e52` is far beyond any
/// meaningful cell mean (the full IPv4 space is `< 2^32 ≈ 4.3e9`) but small
/// enough that downstream arithmetic cannot overflow.
const ETA_CLAMP: f64 = 120.0;

/// Options controlling the Newton iteration.
#[derive(Debug, Clone, Copy)]
pub struct GlmOptions {
    /// Maximum Newton iterations. Reaching it without meeting the tolerance
    /// still returns a fit, flagged `converged: false`.
    pub max_iter: usize,
    /// Convergence tolerance on the relative log-likelihood change.
    pub tol: f64,
    /// Hard iteration budget. Unlike `max_iter`, exhausting the budget
    /// before convergence is an *error* ([`GlmError::BudgetExhausted`]),
    /// so runaway non-convergence surfaces structurally instead of as
    /// non-finite coefficients downstream. `None` disables the budget.
    pub iteration_budget: Option<usize>,
}

impl Default for GlmOptions {
    fn default() -> Self {
        Self {
            max_iter: 200,
            tol: 1e-10,
            iteration_budget: None,
        }
    }
}

/// The family of the per-cell count distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum CountFamily {
    /// Plain Poisson cells (the classical log-linear model).
    Poisson,
    /// Right-truncated Poisson cells with per-cell inclusive limits
    /// (the paper's refinement, §3.3.1). The vector length must match the
    /// number of observations.
    TruncatedPoisson(Vec<u64>),
}

/// A fitted count GLM.
#[derive(Debug, Clone)]
pub struct GlmFit {
    /// Estimated coefficients, one per design-matrix column.
    pub coef: Vec<f64>,
    /// Fitted cell means `E[Z_i]` (truncated means when truncation applies).
    pub fitted: Vec<f64>,
    /// Fitted untruncated rates `λ_i = exp(η_i)`.
    pub lambda: Vec<f64>,
    /// Maximised log-likelihood.
    pub log_likelihood: f64,
    /// Newton iterations used.
    pub iterations: usize,
    /// Whether the tolerance was met within `max_iter`.
    pub converged: bool,
}

/// Errors from GLM fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum GlmError {
    /// Design/response/limit dimensions disagree.
    DimensionMismatch {
        /// Rows in the design matrix.
        rows: usize,
        /// Length of the response (or limit) vector.
        ys: usize,
    },
    /// The response contains negative or non-finite values.
    InvalidResponse {
        /// Index of the offending response value.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The design matrix contains a NaN or infinite entry.
    InvalidDesign {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
        /// The offending value.
        value: f64,
    },
    /// The Newton system could not be solved even with ridging.
    SingularSystem,
    /// The iteration produced non-finite coefficients (numerical
    /// breakdown that ridging could not prevent).
    NonFiniteFit,
    /// The Newton iteration budget ran out before the tolerance was met
    /// (only when [`GlmOptions::iteration_budget`] is set).
    BudgetExhausted {
        /// Iterations consumed when the budget ran out.
        iterations: usize,
    },
}

impl std::fmt::Display for GlmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GlmError::DimensionMismatch { rows, ys } => {
                write!(f, "design has {rows} rows but response has {ys}")
            }
            GlmError::InvalidResponse { index, value } => {
                write!(f, "invalid response value {value} at index {index}")
            }
            GlmError::InvalidDesign { row, col, value } => {
                write!(f, "invalid design entry {value} at ({row}, {col})")
            }
            GlmError::SingularSystem => write!(f, "Newton system singular"),
            GlmError::NonFiniteFit => write!(f, "iteration produced non-finite coefficients"),
            GlmError::BudgetExhausted { iterations } => {
                write!(f, "Newton budget exhausted after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for GlmError {}

/// The model matrix of a count GLM, seen only through the three products
/// the Newton loop needs. [`Matrix`] is the dense, general implementation;
/// [`LogLinearDesign`] computes the same products from term masks.
pub trait Design {
    /// Number of observations (rows).
    fn rows(&self) -> usize;
    /// Number of coefficients (columns).
    fn cols(&self) -> usize;
    /// The first non-finite entry, as [`GlmError::InvalidDesign`].
    ///
    /// # Errors
    ///
    /// [`GlmError::InvalidDesign`] naming the offending entry.
    fn check_finite(&self) -> Result<(), GlmError>;
    /// The linear predictor `η = X β`.
    fn matvec(&self, coef: &[f64]) -> Vec<f64>;
    /// The score-style product `Xᵀ r`.
    fn tr_matvec(&self, r: &[f64]) -> Vec<f64>;
    /// The weighted Gram matrix `Xᵀ diag(w) X`.
    fn weighted_gram(&self, w: &[f64]) -> Matrix;
}

impl Design for Matrix {
    fn rows(&self) -> usize {
        Matrix::rows(self)
    }

    fn cols(&self) -> usize {
        Matrix::cols(self)
    }

    fn check_finite(&self) -> Result<(), GlmError> {
        for row in 0..Matrix::rows(self) {
            for (col, &value) in self.row(row).iter().enumerate() {
                if !value.is_finite() {
                    return Err(GlmError::InvalidDesign { row, col, value });
                }
            }
        }
        Ok(())
    }

    fn matvec(&self, coef: &[f64]) -> Vec<f64> {
        Matrix::matvec(self, coef)
    }

    fn tr_matvec(&self, r: &[f64]) -> Vec<f64> {
        Matrix::tr_matvec(self, r)
    }

    fn weighted_gram(&self, w: &[f64]) -> Matrix {
        Matrix::weighted_gram(self, w)
    }
}

/// Observed counts together with everything the likelihood needs that
/// does not depend on the coefficients: `ln Γ(y+1)` per cell and the
/// family's truncation limits. Built once per table and shared by every
/// fit on it (all candidate models of a selection, every profile refit).
#[derive(Debug, Clone)]
pub struct Counts {
    y: Vec<f64>,
    ln_gamma: Vec<f64>,
    family: CountFamily,
}

impl Counts {
    /// Validates `y` against `family` and caches `ln Γ(y+1)`. `y` may be
    /// non-integral (the IC divisor heuristic scales counts), so `ln y!`
    /// generalises to `ln Γ(y+1)`.
    ///
    /// # Errors
    ///
    /// [`GlmError::DimensionMismatch`] if the truncation limits do not
    /// match `y`; [`GlmError::InvalidResponse`] for a negative or
    /// non-finite count.
    pub fn new(y: Vec<f64>, family: CountFamily) -> Result<Self, GlmError> {
        if let CountFamily::TruncatedPoisson(limits) = &family {
            if limits.len() != y.len() {
                return Err(GlmError::DimensionMismatch {
                    rows: y.len(),
                    ys: limits.len(),
                });
            }
        }
        for (i, &v) in y.iter().enumerate() {
            if !v.is_finite() || v < 0.0 {
                return Err(GlmError::InvalidResponse { index: i, value: v });
            }
        }
        let ln_gamma = y.iter().map(|&v| ln_gamma(v + 1.0)).collect();
        Ok(Counts {
            y,
            ln_gamma,
            family,
        })
    }

    /// A copy with cell `i` set to `value` (the profile likelihood's
    /// ghost pseudo-count); only that cell's `ln Γ` is recomputed.
    ///
    /// # Errors
    ///
    /// [`GlmError::InvalidResponse`] if `value` is negative or non-finite
    /// or `i` is out of range.
    pub fn with_cell(&self, i: usize, value: f64) -> Result<Self, GlmError> {
        let mut out = self.clone();
        match (out.y.get_mut(i), out.ln_gamma.get_mut(i)) {
            (Some(y), Some(lg)) if value.is_finite() && value >= 0.0 => {
                *y = value;
                *lg = ln_gamma(value + 1.0);
                Ok(out)
            }
            _ => Err(GlmError::InvalidResponse { index: i, value }),
        }
    }

    /// Per-cell mean and variance at rate `λ` (limit-aware).
    fn mean_var(&self, i: usize, lambda: f64) -> (f64, f64) {
        match &self.family {
            CountFamily::Poisson => (lambda, lambda),
            CountFamily::TruncatedPoisson(limits) => {
                TruncatedPoisson::new(lambda, limits[i]).mean_variance()
            }
        }
    }

    /// Per-cell log-likelihood at rate `λ`. The truncated term
    /// `ln F(l; λ)` is exactly 0 wherever the limit is far from λ (see
    /// [`TruncatedPoisson::far_from_limit`]), so it is skipped there.
    fn cell_loglik(&self, i: usize, lambda: f64) -> f64 {
        // lint: allow(panic-path) callers pass i < len(); ln_gamma has one entry per cell
        let base = self.y[i] * lambda.ln() - lambda - self.ln_gamma[i];
        match &self.family {
            CountFamily::Poisson => base,
            CountFamily::TruncatedPoisson(limits) => {
                // lint: allow(panic-path) limits.len() == y.len() is checked in Counts::new
                let d = TruncatedPoisson::new(lambda, limits[i]);
                if d.far_from_limit() {
                    base
                } else {
                    base - d.ln_norm()
                }
            }
        }
    }

    /// Total log-likelihood at rates `λ`.
    fn loglik(&self, lambda: &[f64]) -> f64 {
        lambda
            .iter()
            .enumerate()
            .map(|(i, &lam)| self.cell_loglik(i, lam))
            .sum()
    }
}

/// The rates `λ = exp(η)` for a linear predictor, with `η` clamped.
fn rates(eta: &[f64]) -> Vec<f64> {
    eta.iter()
        .map(|e| e.clamp(-ETA_CLAMP, ETA_CLAMP).exp())
        .collect()
}

/// Total log-likelihood at coefficients `coef`.
///
/// # Errors
///
/// [`GlmError`] if `y` or the family's limits are invalid.
pub fn log_likelihood<D: Design + ?Sized>(
    design: &D,
    y: &[f64],
    family: &CountFamily,
    coef: &[f64],
) -> Result<f64, GlmError> {
    let counts = Counts::new(y.to_vec(), family.clone())?;
    Ok(counts.loglik(&rates(&design.matvec(coef))))
}

/// Fits a count GLM with log link by damped Newton–Raphson.
///
/// `design` is the `n × p` model matrix, `y` the `n` observed counts
/// (non-negative, possibly non-integral after IC scaling).
///
/// # Errors
///
/// Returns [`GlmError`] on dimension mismatch, invalid responses, or an
/// unsolvable Newton system.
pub fn fit<D: Design + ?Sized>(
    design: &D,
    y: &[f64],
    family: &CountFamily,
    opts: GlmOptions,
) -> Result<GlmFit, GlmError> {
    let n = design.rows();
    if y.len() != n {
        return Err(GlmError::DimensionMismatch {
            rows: n,
            ys: y.len(),
        });
    }
    let counts = Counts::new(y.to_vec(), family.clone())?;
    fit_counts(design, &counts, opts)
}

/// [`fit`] on prepared [`Counts`]: the entry point for repeated fits on
/// one table, which reuses the table's `ln Γ(y+1)` and limits.
///
/// # Errors
///
/// As [`fit`].
pub fn fit_counts<D: Design + ?Sized>(
    design: &D,
    counts: &Counts,
    opts: GlmOptions,
) -> Result<GlmFit, GlmError> {
    // Fault point (a no-op unless a fault plan is armed; DESIGN.md §11):
    // forces the failure classes the degradation ladder must handle. The
    // NaN-cell fault is reported exactly as validating a response whose
    // first cell is NaN reports it — injection exercises the real error,
    // it does not invent a new one.
    let poisoned = match ghosts_faultinject::fire("glm.fit") {
        Some(ghosts_faultinject::Fault::NonFiniteFit) => return Err(GlmError::NonFiniteFit),
        Some(ghosts_faultinject::Fault::BudgetExhaustion) => {
            return Err(GlmError::BudgetExhausted {
                iterations: opts.iteration_budget.unwrap_or(0),
            });
        }
        Some(ghosts_faultinject::Fault::NanCell) => true,
        _ => false,
    };
    let n = design.rows();
    if counts.y.len() != n {
        return Err(GlmError::DimensionMismatch {
            rows: n,
            ys: counts.y.len(),
        });
    }
    if poisoned && n > 0 {
        return Err(GlmError::InvalidResponse {
            index: 0,
            value: f64::NAN,
        });
    }
    design.check_finite()?;
    newton(design, counts, opts)
}

/// The damped Newton loop on validated inputs.
fn newton<D: Design + ?Sized>(
    design: &D,
    counts: &Counts,
    opts: GlmOptions,
) -> Result<GlmFit, GlmError> {
    let n = design.rows();
    let p = design.cols();
    let y = &counts.y;

    // Initialise from the least-squares fit to ln(y + 0.5): X u ≈ ln(y+0.5).
    let target: Vec<f64> = y.iter().map(|&v| (v + 0.5).ln()).collect();
    let gram = design.weighted_gram(&vec![1.0; n]);
    let rhs = design.tr_matvec(&target);
    let mut coef = match solve_spd_with_ridge(&gram, &rhs) {
        Ok((c, _)) => c,
        Err(_) => vec![0.0; p],
    };

    // The rates at the current coefficients, kept from the accepted trial
    // so each iteration starts without recomputing them.
    let mut lambda = rates(&design.matvec(&coef));
    let mut loglik = counts.loglik(&lambda);
    let mut converged = false;
    let mut iterations = 0;

    for iter in 0..opts.max_iter {
        iterations = iter + 1;
        let mut resid = vec![0.0; n];
        let mut weights = vec![0.0; n];
        for (i, &lam) in lambda.iter().enumerate() {
            let (m, v) = counts.mean_var(i, lam);
            resid[i] = y[i] - m;
            // Floor the weight so cells whose variance collapses (mean hard
            // against the truncation limit) do not zero out the Hessian row.
            weights[i] = v.max(1e-12);
        }
        let score = design.tr_matvec(&resid);
        let hessian = design.weighted_gram(&weights);
        let (delta, _ridge) =
            solve_spd_with_ridge(&hessian, &score).map_err(|_| GlmError::SingularSystem)?;

        // Damped step: halve until the log-likelihood does not decrease.
        let mut step = 1.0f64;
        let mut accepted = false;
        for _ in 0..40 {
            let trial: Vec<f64> = coef.iter().zip(&delta).map(|(c, d)| c + step * d).collect();
            let trial_lambda = rates(&design.matvec(&trial));
            let trial_ll = counts.loglik(&trial_lambda);
            if trial_ll.is_finite() && trial_ll >= loglik - 1e-12 {
                let improvement = trial_ll - loglik;
                coef = trial;
                lambda = trial_lambda;
                let prev = loglik;
                loglik = trial_ll;
                accepted = true;
                if improvement.abs() <= opts.tol * (1.0 + prev.abs()) {
                    converged = true;
                }
                break;
            }
            step *= 0.5;
        }
        if !accepted {
            // No ascent possible: treat the current point as the optimum.
            converged = true;
        }
        if converged {
            break;
        }
        if let Some(budget) = opts.iteration_budget {
            if iterations >= budget {
                return Err(GlmError::BudgetExhausted { iterations });
            }
        }
    }

    // Numerical-safety invariant: never hand back NaN/∞ coefficients — a
    // caller summing stratum estimates would silently poison the total.
    if coef.iter().any(|c| !c.is_finite()) || !loglik.is_finite() {
        return Err(GlmError::NonFiniteFit);
    }

    let fitted = lambda
        .iter()
        .enumerate()
        .map(|(i, &lam)| counts.mean_var(i, lam).0)
        .collect();

    Ok(GlmFit {
        coef,
        fitted,
        lambda,
        log_likelihood: loglik,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol * (1.0 + b.abs()), "got {a}, want {b}");
    }

    #[test]
    fn intercept_only_poisson_fits_mean() {
        // With only an intercept the MLE of λ is the sample mean.
        let design = Matrix::from_vec(4, 1, vec![1.0; 4]);
        let y = [2.0, 4.0, 6.0, 8.0];
        let fit = fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        assert!(fit.converged);
        close(fit.coef[0].exp(), 5.0, 1e-8);
        for &f in &fit.fitted {
            close(f, 5.0, 1e-8);
        }
    }

    #[test]
    fn saturated_poisson_reproduces_counts() {
        // One indicator per observation → fitted = observed.
        let design = Matrix::identity(3);
        let y = [3.0, 7.0, 11.0];
        let fit = fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        for (f, want) in fit.fitted.iter().zip(&y) {
            close(*f, *want, 1e-6);
        }
    }

    #[test]
    fn two_group_poisson_matches_group_means() {
        // Column 0 = intercept, column 1 = group indicator.
        let design = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0], &[1.0, 1.0], &[1.0, 1.0]]);
        let y = [10.0, 14.0, 30.0, 34.0];
        let fit = fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        close(fit.coef[0].exp(), 12.0, 1e-7); // group-0 mean
        close((fit.coef[0] + fit.coef[1]).exp(), 32.0, 1e-7); // group-1 mean
    }

    #[test]
    fn independence_log_linear_model_two_sources() {
        // Classic 2×2 contingency table generated from an independence model:
        // both-sources 30, only-1 60, only-2 20. Under independence the
        // intercept exp(u) estimates the unseen cell: z00 = z10*z01/z11.
        // Cells ordered (s1,s2) = (1,1), (1,0), (0,1); columns: 1, s1, s2.
        let design = Matrix::from_rows(&[&[1.0, 1.0, 1.0], &[1.0, 1.0, 0.0], &[1.0, 0.0, 1.0]]);
        let y = [30.0, 60.0, 20.0];
        let fit = fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        // Saturated model on 3 cells with 3 params → fitted == observed, and
        // exp(intercept) = 60*20/30 = 40 (Lincoln–Petersen's unseen cell).
        close(fit.coef[0].exp(), 40.0, 1e-6);
    }

    #[test]
    fn zero_counts_are_handled() {
        let design = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 0.0]]);
        let y = [0.0, 5.0];
        let fit = fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        assert!(fit.log_likelihood.is_finite());
        close(fit.fitted[1], 5.0, 1e-6);
        assert!(fit.fitted[0] < 1e-6, "zero cell fit {}", fit.fitted[0]);
    }

    #[test]
    fn truncated_far_limit_matches_poisson() {
        let design = Matrix::from_vec(3, 1, vec![1.0; 3]);
        let y = [4.0, 5.0, 6.0];
        let plain = fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        let trunc = fit(
            &design,
            &y,
            &CountFamily::TruncatedPoisson(vec![1_000_000; 3]),
            GlmOptions::default(),
        )
        .unwrap();
        close(trunc.coef[0], plain.coef[0], 1e-8);
    }

    #[test]
    fn truncated_tight_limit_lowers_lambda_estimate() {
        // Observations near the limit: under truncation, a λ above the limit
        // explains them with truncated mean ≈ limit; the plain Poisson must
        // put λ at the sample mean. The truncated λ estimate is therefore
        // at least the plain one.
        let design = Matrix::from_vec(4, 1, vec![1.0; 4]);
        let y = [9.0, 10.0, 10.0, 8.0];
        let limit = 10u64;
        let plain = fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        let trunc = fit(
            &design,
            &y,
            &CountFamily::TruncatedPoisson(vec![limit; 4]),
            GlmOptions::default(),
        )
        .unwrap();
        assert!(
            trunc.lambda[0] > plain.lambda[0],
            "truncated λ {} should exceed plain λ {}",
            trunc.lambda[0],
            plain.lambda[0]
        );
        // Fitted (truncated) means still match the data scale.
        assert!(trunc.fitted[0] <= limit as f64 + 1e-9);
    }

    #[test]
    fn loglik_increases_along_fit() {
        // The fit's maximised log-likelihood is at least the init's.
        let design = Matrix::from_rows(&[&[1.0, 1.0, 1.0], &[1.0, 1.0, 0.0], &[1.0, 0.0, 1.0]]);
        let y = [12.0, 40.0, 9.0];
        let f = fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        let at_zero = log_likelihood(&design, &y, &CountFamily::Poisson, &[0.0, 0.0, 0.0]).unwrap();
        assert!(f.log_likelihood >= at_zero);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let design = Matrix::zeros(3, 2);
        let y = [1.0, 2.0];
        assert!(matches!(
            fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()),
            Err(GlmError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn negative_response_rejected() {
        let design = Matrix::from_vec(2, 1, vec![1.0; 2]);
        let y = [1.0, -2.0];
        assert!(matches!(
            fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()),
            Err(GlmError::InvalidResponse { index: 1, .. })
        ));
    }

    #[test]
    fn exhausted_budget_is_a_structured_error() {
        // The saturated 3-cell fit needs several Newton steps; a budget of 1
        // must surface as BudgetExhausted, not as a silent non-converged fit.
        let design = Matrix::from_rows(&[&[1.0, 1.0, 1.0], &[1.0, 1.0, 0.0], &[1.0, 0.0, 1.0]]);
        let y = [30.0, 60.0, 20.0];
        let opts = GlmOptions {
            iteration_budget: Some(1),
            ..GlmOptions::default()
        };
        assert_eq!(
            fit(&design, &y, &CountFamily::Poisson, opts).unwrap_err(),
            GlmError::BudgetExhausted { iterations: 1 }
        );
    }

    #[test]
    fn generous_budget_does_not_change_the_fit() {
        let design = Matrix::from_vec(4, 1, vec![1.0; 4]);
        let y = [2.0, 4.0, 6.0, 8.0];
        let opts = GlmOptions {
            iteration_budget: Some(200),
            ..GlmOptions::default()
        };
        let budgeted = fit(&design, &y, &CountFamily::Poisson, opts).unwrap();
        let plain = fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        assert!(budgeted.converged);
        assert_eq!(budgeted.coef[0].to_bits(), plain.coef[0].to_bits());
    }

    #[test]
    fn non_integer_counts_accepted() {
        // The IC divisor heuristic produces scaled, non-integral counts.
        let design = Matrix::from_vec(3, 1, vec![1.0; 3]);
        let y = [1.5, 2.5, 3.5];
        let f = fit(&design, &y, &CountFamily::Poisson, GlmOptions::default()).unwrap();
        close(f.coef[0].exp(), 2.5, 1e-7);
    }
}
