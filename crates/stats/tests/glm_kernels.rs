//! Oracle for the log-linear design kernels: on random hierarchical models
//! over t = 2..9 sources, with and without the ghost row, under Poisson and
//! right-truncated cells, `η = Xβ`, `Xᵀr`, `XᵀWX`, the log-likelihood and
//! whole Newton fits from [`LogLinearDesign`] must equal the dense
//! [`Matrix`] path bit for bit (`to_bits`), not merely closely.

use ghosts_stats::glm::{fit, log_likelihood, CountFamily, Design, GlmOptions, LogLinearDesign};
use ghosts_stats::special::ln_gamma;
use ghosts_stats::{Matrix, Poisson};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A random hierarchical term set over `t` sources: intercept and main
/// effects always, then each higher-order mask (the full `t`-way term
/// excluded) with probability `q` once all its one-smaller submasks are in.
fn random_terms(rng: &mut ChaCha8Rng, t: usize) -> Vec<u16> {
    let full = (1u32 << t) - 1;
    let mut present = vec![false; 1 << t];
    present[0] = true;
    for i in 0..t {
        present[1 << i] = true;
    }
    let mut higher: Vec<u32> = (1..full).filter(|m| m.count_ones() >= 2).collect();
    higher.sort_by_key(|m| (m.count_ones(), *m));
    let q: f64 = rng.gen_range(0.05..0.7);
    for m in higher {
        let parents_in = (0..t)
            .filter(|b| m & (1 << b) != 0)
            .all(|b| present[(m & !(1 << b)) as usize]);
        if parents_in && rng.gen::<f64>() < q {
            present[m as usize] = true;
        }
    }
    (0..=full)
        .filter(|&m| present[m as usize])
        .map(|m| m as u16)
        .collect()
}

/// The dense design written out directly from its definition.
fn dense(t: usize, terms: &[u16], ghost: bool) -> Matrix {
    let first = usize::from(!ghost);
    let rows = (1usize << t) - first;
    let mut m = Matrix::zeros(rows, terms.len());
    for r in 0..rows {
        let cell = (r + first) as u16;
        for (j, &h) in terms.iter().enumerate() {
            if h & cell == h {
                m[(r, j)] = 1.0;
            }
        }
    }
    m
}

/// The log-likelihood as the dense path always evaluated it: `ln Γ(y+1)`
/// recomputed per cell and `ln F(l; λ)` taken for every truncated cell.
fn reference_loglik(x: &Matrix, y: &[f64], family: &CountFamily, coef: &[f64]) -> f64 {
    x.matvec(coef)
        .iter()
        .enumerate()
        .map(|(i, &e)| {
            let lambda = e.clamp(-120.0, 120.0).exp();
            let base = y[i] * lambda.ln() - lambda - ln_gamma(y[i] + 1.0);
            match family {
                CountFamily::Poisson => base,
                CountFamily::TruncatedPoisson(l) => base - Poisson::new(lambda).ln_cdf(l[i]),
            }
        })
        .sum()
}

fn assert_bits(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

#[test]
fn loglinear_kernels_match_dense_bit_for_bit() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x6c6f_676c_696e);
    let mut truncated_far = 0usize;
    let mut truncated_near = 0usize;
    for t in 2..=9usize {
        for model in 0..6 {
            let terms = random_terms(&mut rng, t);
            for ghost in [false, true] {
                let what = format!("t={t} model={model} ghost={ghost} terms={terms:?}");
                let design = LogLinearDesign::new(t, &terms, ghost);
                let x = dense(t, &terms, ghost);
                assert_eq!(design.to_matrix(), x, "{what}: dense form");
                let (n, p) = (x.rows(), x.cols());
                assert_eq!((Design::rows(&design), Design::cols(&design)), (n, p));

                let coef: Vec<f64> = (0..p)
                    .map(|j| {
                        if j == 0 {
                            rng.gen_range(0.0..7.0)
                        } else {
                            rng.gen_range(-1.5..1.5)
                        }
                    })
                    .collect();
                let eta = Design::matvec(&design, &coef);
                assert_bits(&eta, &x.matvec(&coef), &format!("{what}: eta"));

                // Residuals with exact zeros and negatives, weights down to
                // the Newton loop's 1e-12 floor.
                let r: Vec<f64> = (0..n)
                    .map(|_| match rng.gen_range(0..4) {
                        0 => 0.0,
                        _ => rng.gen_range(-50.0..50.0),
                    })
                    .collect();
                let w: Vec<f64> = (0..n)
                    .map(|_| match rng.gen_range(0..5) {
                        0 => 1e-12,
                        _ => rng.gen_range(0.0..1e4),
                    })
                    .collect();
                assert_bits(
                    &Design::tr_matvec(&design, &r),
                    &x.tr_matvec(&r),
                    &format!("{what}: X'r"),
                );
                assert_bits(
                    Design::weighted_gram(&design, &w).data(),
                    x.weighted_gram(&w).data(),
                    &format!("{what}: X'WX"),
                );

                // Counts near the rates, some non-integral (IC scaling).
                let lambda: Vec<f64> = eta.iter().map(|e| e.clamp(-120.0, 120.0).exp()).collect();
                let y: Vec<f64> = lambda
                    .iter()
                    .map(|&l| match rng.gen_range(0..6) {
                        0 => 0.0,
                        1 => (l * rng.gen_range(0.5..1.5) * 4.0).round() / 4.0,
                        _ => (l * rng.gen_range(0.5..1.5)).round(),
                    })
                    .collect();
                // Limits both far above and hard against the rates, so the
                // truncated likelihood takes both of its branches.
                let limits: Vec<u64> = lambda
                    .iter()
                    .zip(&y)
                    .map(|(&l, &yi)| {
                        let near = (l * rng.gen_range(0.3..1.6)).floor() as u64;
                        let lim = if rng.gen_bool(0.5) {
                            near
                        } else {
                            4 * near + 100
                        };
                        lim.max(yi.ceil() as u64).max(1)
                    })
                    .collect();
                for (&l, &lim) in lambda.iter().zip(&limits) {
                    if (lim as f64) > l + 12.0 * l.sqrt() + 30.0 {
                        truncated_far += 1;
                    } else {
                        truncated_near += 1;
                    }
                }
                for family in [CountFamily::Poisson, CountFamily::TruncatedPoisson(limits)] {
                    let fam = match family {
                        CountFamily::Poisson => "poisson",
                        CountFamily::TruncatedPoisson(_) => "truncated",
                    };
                    let ll = log_likelihood(&design, &y, &family, &coef).unwrap();
                    let want = reference_loglik(&x, &y, &family, &coef);
                    assert_eq!(
                        ll.to_bits(),
                        want.to_bits(),
                        "{what} {fam}: lnL {ll} vs {want}"
                    );

                    // Whole fits, on the smaller designs (the dense fit is
                    // the slow path this oracle exists to replace).
                    if t <= 7 || model == 0 {
                        let opts = GlmOptions::default();
                        let a = fit(&design, &y, &family, opts);
                        let b = fit(&x, &y, &family, opts);
                        match (a, b) {
                            (Ok(a), Ok(b)) => {
                                assert_bits(&a.coef, &b.coef, &format!("{what} {fam}: coef"));
                                assert_bits(&a.fitted, &b.fitted, &format!("{what} {fam}: fitted"));
                                assert_eq!(
                                    a.log_likelihood.to_bits(),
                                    b.log_likelihood.to_bits(),
                                    "{what} {fam}: fitted lnL"
                                );
                                assert_eq!(a.iterations, b.iterations, "{what} {fam}: iterations");
                            }
                            (Err(a), Err(b)) => assert_eq!(a, b, "{what} {fam}: error"),
                            (a, b) => panic!("{what} {fam}: {a:?} vs {b:?}"),
                        }
                    }
                }
            }
        }
    }
    assert!(
        truncated_far > 100 && truncated_near > 100,
        "{truncated_far} far, {truncated_near} near"
    );
}
