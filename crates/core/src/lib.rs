//! # ghosts-core
//!
//! The primary contribution of *Capturing Ghosts: Predicting the Used IPv4
//! Space by Inferring Unobserved Addresses* (Zander, Andrew & Armitage,
//! IMC 2014): log-linear capture–recapture estimation of the true
//! population of used IPv4 addresses — including the addresses no
//! measurement source ever observed — from multiple incomplete sources.
//!
//! ## Pipeline
//!
//! 1. Build a [`ContingencyTable`](history::ContingencyTable) of capture
//!    histories from per-source observation sets (§3.3.1).
//! 2. Search hierarchical [`LogLinearModel`](model::LogLinearModel)s with
//!    [`select::select_model`] — AIC/BIC with the divisor heuristic and the
//!    within-7 rule (§3.3.2).
//! 3. Fit with [`fit::fit_llm`] under Poisson or **right-truncated
//!    Poisson** cells bounded by the routed space (§3.3.1) and read off the
//!    ghost estimate `Ẑ₀₀…₀ = exp(u)`.
//! 4. Optionally compute a profile-likelihood range with
//!    [`ci::profile_interval`] (§3.3.3) and stratified totals with
//!    [`estimator::estimate_stratified`] (§3.4).
//!
//! The classical baselines — [`lp`] (Lincoln–Petersen/Chapman) and
//! [`chao`] (Chao's lower bound) — are included for comparison, as are all
//! the validation hooks the paper's §5 needs. The paper's stated future
//! work — multi-party CR without revealing addresses (§8) — is prototyped
//! in [`mpcr`] via k-minhash sketches.
//!
//! ## Quick example
//!
//! ```
//! use ghosts_core::history::ContingencyTable;
//! use ghosts_core::estimator::{estimate_table, CrConfig};
//!
//! // Three sources; histories as bitmasks (bit i = seen by source i).
//! let table = ContingencyTable::from_histories(
//!     3,
//!     std::iter::repeat(0b001u16).take(300)
//!         .chain(std::iter::repeat(0b010).take(200))
//!         .chain(std::iter::repeat(0b100).take(250))
//!         .chain(std::iter::repeat(0b011).take(60))
//!         .chain(std::iter::repeat(0b101).take(80))
//!         .chain(std::iter::repeat(0b110).take(50))
//!         .chain(std::iter::repeat(0b111).take(20)),
//! );
//! let cfg = CrConfig { truncated: false, ..CrConfig::paper() };
//! let est = estimate_table(&table, None, &cfg).unwrap();
//! assert!(est.total > est.observed as f64); // ghosts were inferred
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chao;
pub mod ci;
pub mod degrade;
pub mod estimator;
pub mod fit;
pub mod history;
pub mod ic;
pub mod invariant;
pub mod jackknife;
pub mod lp;
pub mod model;
pub mod mpcr;
pub mod parallel;
pub mod select;

pub use chao::{chao_lower_bound, ChaoEstimate};
pub use ci::{
    profile_interval, profile_interval_opts, profile_interval_traced, EstimateRange, PAPER_ALPHA,
};
pub use degrade::{Degradation, LadderRung};
pub use estimator::{
    estimate_stratified, estimate_table, estimate_table_with_fit, estimate_table_with_range,
    CrConfig, CrEstimate, CrFit, EstimateError, ExcludedPolicy, StratifiedEstimate,
};
pub use fit::{fit_llm, fit_llm_opts, fit_llm_traced, CellModel, FitOptions, FittedLlm};
pub use history::ContingencyTable;
pub use ic::{DivisorRule, IcKind, ScaledTable};
pub use jackknife::{jackknife, jackknife_select, JackknifeEstimate};
pub use lp::{chapman, lincoln_petersen, lincoln_petersen_pair, TwoSampleEstimate};
pub use model::LogLinearModel;
pub use mpcr::{mpcr_estimate, MinHashSketch, MpcrResult};
pub use parallel::{panic_message, par_map, try_par_map, Parallelism};
pub use select::{select_model, select_model_dense, SelectionOptions, SelectionResult};
