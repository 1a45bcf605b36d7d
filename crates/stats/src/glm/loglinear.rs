//! The design of a hierarchical log-linear model, computed from term masks.
//!
//! Rows are the capture histories (cells) `1..2^t − 1` in ascending order,
//! optionally preceded by the ghost cell `0`; column `j` is the 0/1
//! indicator "term `h_j` ⊆ cell". Every product the Newton loop needs is
//! then a subset or superset sum over cells, so no dense `n × p` matrix is
//! ever built or multiplied:
//!
//! * `η_c = Σ_{h_j ⊆ c} β_j`, summed over the cell's subset terms in
//!   ascending column order;
//! * `(Xᵀr)_j = Σ_{c ⊇ h_j} r_c`, summed over the term's superset cells in
//!   ascending cell order;
//! * `(XᵀWX)_{ab} = Σ_{c ⊇ h_a|h_b} w_c`, one superset sum per distinct
//!   union `h_a|h_b`, shared by every pair with that union.
//!
//! Each sum adds exactly the nonzero terms of the dense product, in the
//! dense product's order ([`Matrix::matvec`], [`Matrix::tr_matvec`],
//! [`Matrix::weighted_gram`]), so the results are bit-identical to the
//! dense kernels for finite inputs. A non-finite input goes through the
//! dense kernels, where `0 · ∞ = NaN` spreads as it always did.

use super::{Design, GlmError};
use crate::linalg::Matrix;

/// Sentinel for "no union slot assigned yet".
const UNSET: u32 = u32::MAX;

/// The design of a log-linear model over `t` sources: one column per term
/// mask, one row per cell (see the module docs).
#[derive(Debug, Clone)]
pub struct LogLinearDesign {
    t: u32,
    terms: Vec<u16>,
    /// First cell: 0 with the ghost row, 1 without.
    first: u32,
    /// Row `r`'s subset-term columns are `row_terms[row_start[r]..row_start[r + 1]]`,
    /// ascending.
    row_start: Vec<u32>,
    row_terms: Vec<u16>,
    /// The distinct unions `h_a | h_b` over column pairs `a ≤ b`.
    unions: Vec<u16>,
    /// For each pair `a ≤ b` in row-major upper-triangle order, its slot in
    /// `unions`.
    pair_union: Vec<u32>,
}

/// Calls `f` on every cell `c ⊇ mask` below `2^t`, in ascending order.
fn for_each_superset(t: u32, mask: u16, mut f: impl FnMut(u32)) {
    // lint: allow(counting-overflow) t <= 16, so 1 << t fits in u32
    let free = ((1u32 << t) - 1) & !u32::from(mask);
    let mut s = 0u32;
    loop {
        f(u32::from(mask) | s);
        if s == free {
            break;
        }
        // Next submask of `free` in ascending order: set every bit outside
        // `free`, add one so the carry lands on the next free bit, then
        // drop the bits outside `free` again.
        s = ((s | !free).wrapping_add(1)) & free;
    }
}

impl LogLinearDesign {
    /// The design of the model with term masks `terms` (in column order)
    /// over `t` sources; `ghost` prepends the ghost cell `0` as row 0.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= t <= 16` and every mask is below `2^t`.
    pub fn new(t: usize, terms: &[u16], ghost: bool) -> Self {
        assert!(
            (1..=16).contains(&t),
            "LogLinearDesign: t = {t} out of range"
        );
        let t = t as u32;
        assert!(
            terms.iter().all(|&h| u32::from(h) >> t == 0),
            "LogLinearDesign: a term mask uses a bit >= t = {t}"
        );
        let first = u32::from(!ghost);
        // lint: allow(counting-overflow) t <= 16, so 1 << t fits in u32
        let rows = ((1u32 << t) - first) as usize;

        // Subset terms per row, by a counting pass and a fill pass over
        // each column's supersets; filling in column order leaves every
        // row's list ascending.
        let mut row_start = vec![0u32; rows + 1];
        for &h in terms {
            for_each_superset(t, h, |c| {
                if c >= first {
                    if let Some(n) = row_start.get_mut((c - first) as usize + 1) {
                        *n += 1;
                    }
                }
            });
        }
        for r in 0..rows {
            let below = row_start.get(r).copied().unwrap_or(0);
            if let Some(n) = row_start.get_mut(r + 1) {
                *n += below;
            }
        }
        let mut next: Vec<u32> = row_start.iter().take(rows).copied().collect();
        let mut row_terms = vec![0u16; row_start.last().copied().unwrap_or(0) as usize];
        for (j, &h) in terms.iter().enumerate() {
            for_each_superset(t, h, |c| {
                if c >= first {
                    if let Some(slot) = next.get_mut((c - first) as usize) {
                        if let Some(out) = row_terms.get_mut(*slot as usize) {
                            *out = j as u16;
                        }
                        *slot += 1;
                    }
                }
            });
        }

        // Distinct unions over the upper triangle, memoised by mask.
        let mut slot_of = vec![UNSET; 1usize << t];
        let mut unions = Vec::new();
        let mut pair_union = Vec::with_capacity(terms.len() * (terms.len() + 1) / 2);
        for (a, &ha) in terms.iter().enumerate() {
            for &hb in terms.iter().skip(a) {
                let u = ha | hb;
                let Some(slot) = slot_of.get_mut(usize::from(u)) else {
                    continue; // unreachable: u < 2^t
                };
                if *slot == UNSET {
                    *slot = unions.len() as u32;
                    unions.push(u);
                }
                pair_union.push(*slot);
            }
        }

        LogLinearDesign {
            t,
            terms: terms.to_vec(),
            first,
            row_start,
            row_terms,
            unions,
            pair_union,
        }
    }

    /// The dense design matrix: entry `(row, j)` is 1 iff term `j` is a
    /// subset of the row's cell. The oracle for the mask kernels, and
    /// their path for non-finite inputs.
    pub fn to_matrix(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows(), self.terms.len());
        for r in 0..self.rows() {
            let row = m.row_mut(r);
            for &j in self.subset_terms(r) {
                if let Some(x) = row.get_mut(usize::from(j)) {
                    *x = 1.0;
                }
            }
        }
        m
    }

    /// Row `r`'s subset-term columns, ascending.
    fn subset_terms(&self, r: usize) -> &[u16] {
        let lo = self.row_start.get(r).copied().unwrap_or(0) as usize;
        let hi = self.row_start.get(r + 1).copied().unwrap_or(0) as usize;
        self.row_terms.get(lo..hi).unwrap_or(&[])
    }

    /// `Σ_{c ⊇ mask} v[row(c)]` in ascending cell order, from `+0.0` like
    /// the dense accumulators.
    fn superset_sum(&self, mask: u16, v: &[f64]) -> f64 {
        let mut acc = 0.0;
        for_each_superset(self.t, mask, |c| {
            if c >= self.first {
                acc += v.get((c - self.first) as usize).copied().unwrap_or(0.0);
            }
        });
        acc
    }
}

impl Design for LogLinearDesign {
    fn rows(&self) -> usize {
        (1usize << self.t) - self.first as usize
    }

    fn cols(&self) -> usize {
        self.terms.len()
    }

    fn check_finite(&self) -> Result<(), GlmError> {
        Ok(()) // every entry is 0 or 1 by construction
    }

    fn matvec(&self, coef: &[f64]) -> Vec<f64> {
        assert_eq!(coef.len(), self.cols(), "matvec: dimension mismatch");
        if !coef.iter().all(|c| c.is_finite()) {
            return self.to_matrix().matvec(coef);
        }
        (0..self.rows())
            .map(|r| {
                self.subset_terms(r)
                    .iter()
                    .map(|&j| coef.get(usize::from(j)).copied().unwrap_or(0.0))
                    .sum()
            })
            .collect()
    }

    fn tr_matvec(&self, r: &[f64]) -> Vec<f64> {
        assert_eq!(r.len(), self.rows(), "tr_matvec: dimension mismatch");
        if !r.iter().all(|x| x.is_finite()) {
            return self.to_matrix().tr_matvec(r);
        }
        self.terms
            .iter()
            .map(|&h| self.superset_sum(h, r))
            .collect()
    }

    fn weighted_gram(&self, w: &[f64]) -> Matrix {
        assert_eq!(
            w.len(),
            self.rows(),
            "weighted_gram: weight length mismatch"
        );
        if !w.iter().all(|x| x.is_finite()) {
            return self.to_matrix().weighted_gram(w);
        }
        let sums: Vec<f64> = self
            .unions
            .iter()
            .map(|&u| self.superset_sum(u, w))
            .collect();
        let p = self.terms.len();
        let mut g = Matrix::zeros(p, p);
        let mut pairs = self.pair_union.iter();
        for a in 0..p {
            for b in a..p {
                let v = pairs
                    .next()
                    .and_then(|&s| sums.get(s as usize))
                    .copied()
                    .unwrap_or(0.0);
                g[(a, b)] = v;
                g[(b, a)] = v;
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supersets_ascend_and_cover() {
        let mut seen = Vec::new();
        for_each_superset(4, 0b0101, |c| seen.push(c));
        assert_eq!(seen, vec![0b0101, 0b0111, 0b1101, 0b1111]);
        let mut all = Vec::new();
        for_each_superset(3, 0, |c| all.push(c));
        assert_eq!(all, (0..8).collect::<Vec<_>>());
        let mut top = Vec::new();
        for_each_superset(16, u16::MAX, |c| top.push(c));
        assert_eq!(top, vec![0xffff]);
    }

    #[test]
    fn dense_form_marks_subset_terms() {
        // Terms 0, 1, 2, 0b011 over t = 2 with the ghost row.
        let d = LogLinearDesign::new(2, &[0, 1, 2, 3], true);
        let m = d.to_matrix();
        assert_eq!(m.rows(), 4);
        assert_eq!(m.row(0), &[1.0, 0.0, 0.0, 0.0]);
        assert_eq!(m.row(1), &[1.0, 1.0, 0.0, 0.0]);
        assert_eq!(m.row(2), &[1.0, 0.0, 1.0, 0.0]);
        assert_eq!(m.row(3), &[1.0, 1.0, 1.0, 1.0]);
        let no_ghost = LogLinearDesign::new(2, &[0, 1, 2], false).to_matrix();
        assert_eq!(no_ghost.rows(), 3);
        assert_eq!(no_ghost.row(0), &[1.0, 1.0, 0.0]);
    }

    #[test]
    fn non_finite_inputs_follow_the_dense_kernels() {
        let d = LogLinearDesign::new(3, &[0, 1, 2, 4, 3], false);
        let m = d.to_matrix();
        let coef = [0.5, f64::INFINITY, -1.0, 2.0, 0.25];
        let (a, b) = (Design::matvec(&d, &coef), Matrix::matvec(&m, &coef));
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
        let r = [1.0, f64::NAN, 2.0, 0.0, -1.0, 3.0, 0.5];
        let (a, b) = (Design::tr_matvec(&d, &r), Matrix::tr_matvec(&m, &r));
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}
