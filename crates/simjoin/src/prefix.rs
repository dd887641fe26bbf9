//! Prefix filtering for dot-product similarity.
//!
//! The idea (Chaudhuri et al., adapted by Baraglia et al. to MapReduce):
//! order the entries of every vector by a fixed global term order and index
//! only a *prefix* of each vector.  The prefix is chosen so that the
//! remaining suffix alone cannot produce a dot product of σ or more with
//! *any* vector of the other side; therefore every pair with similarity at
//! least σ shares at least one term inside the indexed prefix and cannot be
//! missed by an index probe.
//!
//! Here that order is ascending term id: a [`smr_text::Corpus`] numbers
//! its vocabulary rarest first, so a vector's prefix is
//! `entries()[..prefix_length]`.  Vectors numbered any other way still
//! join exactly, only with less selective prefixes.
//!
//! For dot products the bound of a suffix `S` of vector `y` against the
//! item side is `Σ_{i ∈ S} y_i · maxw(i)` where `maxw(i)` is the largest
//! weight of term `i` in any item vector.

use smr_text::{SparseVector, TermId};

/// Per-term maximum weights across a collection of vectors, indexed densely
/// by term id (`0.0` for terms that never occur).
pub fn term_max_weights(vectors: &[SparseVector], vocab_size: usize) -> Vec<f64> {
    let mut max_w = vec![0.0_f64; vocab_size];
    for v in vectors {
        for &(term, weight) in v.entries() {
            let idx = term.index();
            if idx >= max_w.len() {
                // Defensive: callers normally pass the full vocabulary size.
                max_w.resize(idx + 1, 0.0);
            }
            if weight.abs() > max_w[idx] {
                max_w[idx] = weight.abs();
            }
        }
    }
    max_w
}

/// Number of leading entries of `vector` (ascending by term id) that must
/// be indexed so that the suffix bound drops below `sigma`.
///
/// Returns a value in `0..=vector.len()`: `0` means the whole vector can
/// be skipped (it cannot reach σ with anything), `len` means every entry
/// must be indexed.
pub fn prefix_length(vector: &SparseVector, max_weights: &[f64], sigma: f64) -> usize {
    debug_assert!(sigma > 0.0, "threshold must be positive");
    // The suffix bound grows from the back: once entries k.. could reach
    // the threshold on their own, entry k must be part of the prefix and
    // everything after k may be pruned.
    let mut suffix_bound = 0.0;
    for (k, &(term, w)) in vector.entries().iter().enumerate().rev() {
        suffix_bound += w * max_weight(max_weights, term);
        if suffix_bound >= sigma {
            return k + 1;
        }
    }
    0
}

/// Upper bound on the contribution of the *unindexed* suffix of a vector
/// to its dot product with **any** vector of the opposite side:
/// `Σ_{k ≥ prefix_len} |w_k| · maxw(term_k)`.
///
/// This is the quantity [`prefix_length`] drives below σ; materialized per
/// vector it becomes the *remainder bound* of partial-product
/// verification: the similarity of a pair is at most the sum of its
/// partial products over shared indexed terms plus this bound, so a pair
/// whose accumulated partial score plus remainder stays below σ can be
/// discarded without ever touching the vectors.
pub fn suffix_remainder_bound(
    vector: &SparseVector,
    prefix_len: usize,
    max_weights: &[f64],
) -> f64 {
    let entries = vector.entries();
    entries[prefix_len.min(entries.len())..]
        .iter()
        .map(|&(term, w)| w.abs() * max_weight(max_weights, term))
        .sum()
}

/// The query-side maximum of `term` (`0.0` beyond the table).
fn max_weight(max_weights: &[f64], term: TermId) -> f64 {
    max_weights.get(term.index()).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(entries: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(entries.iter().map(|&(t, w)| (TermId(t), w)))
    }

    #[test]
    fn max_weights_track_the_largest_entry_per_term() {
        let vectors = vec![vec_of(&[(0, 0.5), (2, 0.1)]), vec_of(&[(0, 0.3), (1, 0.9)])];
        let maxw = term_max_weights(&vectors, 3);
        assert_eq!(maxw, vec![0.5, 0.9, 0.1]);
    }

    #[test]
    fn max_weights_grow_the_table_for_unknown_terms() {
        let vectors = vec![vec_of(&[(5, 0.7)])];
        let maxw = term_max_weights(&vectors, 2);
        assert_eq!(maxw.len(), 6);
        assert_eq!(maxw[5], 0.7);
    }

    #[test]
    fn prefix_is_zero_when_nothing_can_reach_the_threshold() {
        let v = vec_of(&[(0, 0.1), (1, 0.1)]);
        let maxw = vec![0.2, 0.2];
        // Best possible dot product is 0.1*0.2 + 0.1*0.2 = 0.04 < 0.5.
        assert_eq!(prefix_length(&v, &maxw, 0.5), 0);
    }

    #[test]
    fn prefix_covers_everything_when_the_last_term_alone_suffices() {
        let v = vec_of(&[(0, 1.0), (1, 1.0)]);
        let maxw = vec![1.0, 1.0];
        // Even the final entry alone can contribute 1.0 ≥ 0.5, so the whole
        // vector must be indexed.
        assert_eq!(prefix_length(&v, &maxw, 0.5), 2);
    }

    #[test]
    fn prefix_stops_where_the_suffix_bound_falls_below_sigma() {
        // Terms in id order: t0 (heavy), t1, t2 (light tail).
        let v = vec_of(&[(0, 1.0), (1, 0.3), (2, 0.1)]);
        let maxw = vec![1.0, 1.0, 1.0];
        // Suffix {t2}: bound 0.1 < 0.5  -> prunable.
        // Suffix {t1,t2}: bound 0.4 < 0.5 -> prunable.
        // Suffix {t0,t1,t2}: bound 1.4 ≥ 0.5 -> t0 must be indexed.
        assert_eq!(prefix_length(&v, &maxw, 0.5), 1);
    }

    #[test]
    fn suffix_remainder_bound_sums_the_pruned_tail() {
        let v = vec_of(&[(0, 1.0), (1, 0.3), (2, 0.1)]);
        let maxw = vec![1.0, 0.5, 1.0];
        // Suffix {t1, t2}: 0.3·0.5 + 0.1·1.0.
        let bound = suffix_remainder_bound(&v, 1, &maxw);
        assert!((bound - 0.25).abs() < 1e-12);
        // Whole vector indexed ⇒ nothing remains.
        assert_eq!(suffix_remainder_bound(&v, 3, &maxw), 0.0);
        // Out-of-range prefix lengths clamp instead of panicking.
        assert_eq!(suffix_remainder_bound(&v, 9, &maxw), 0.0);
    }

    #[test]
    fn remainder_bound_dominates_every_true_suffix_contribution() {
        // For every pair: dot(x, y) ≤ (prefix part of y) + remainder(y).
        let items = vec![
            vec_of(&[(0, 0.9), (1, 0.2)]),
            vec_of(&[(1, 0.8), (2, 0.4)]),
            vec_of(&[(2, 0.6), (3, 0.6)]),
        ];
        let consumers = vec![
            vec_of(&[(0, 0.7), (2, 0.5)]),
            vec_of(&[(1, 0.5), (3, 0.5)]),
            vec_of(&[(0, 0.1), (3, 0.9)]),
        ];
        let maxw = term_max_weights(&items, 4);
        for sigma in [0.1, 0.3, 0.5] {
            for y in &consumers {
                let plen = prefix_length(y, &maxw, sigma);
                let bound = suffix_remainder_bound(y, plen, &maxw);
                assert!(bound < sigma, "the pruned suffix can never reach sigma");
                for x in &items {
                    let prefix_part: f64 = y.entries()[..plen]
                        .iter()
                        .map(|&(t, w)| x.weight(t) * w)
                        .sum();
                    assert!(
                        prefix_part + bound >= x.dot(y) - 1e-12,
                        "partial products + remainder must bound the dot product"
                    );
                }
            }
        }
    }

    #[test]
    fn prefix_guarantee_holds_for_exhaustive_small_cases() {
        // Brute-force check of the filtering guarantee: for every pair of
        // small vectors, if dot(x, y) >= sigma then x shares a term with
        // the prefix of y (prefix computed against the item-side maxima).
        let items = vec![
            vec_of(&[(0, 0.9), (1, 0.2)]),
            vec_of(&[(1, 0.8), (2, 0.4)]),
            vec_of(&[(2, 0.6), (3, 0.6)]),
        ];
        let consumers = vec![
            vec_of(&[(0, 0.7), (2, 0.5)]),
            vec_of(&[(1, 0.5), (3, 0.5)]),
            vec_of(&[(0, 0.1), (3, 0.9)]),
        ];
        let maxw = term_max_weights(&items, 4);
        for sigma in [0.1, 0.3, 0.5] {
            for y in &consumers {
                let prefix = &y.entries()[..prefix_length(y, &maxw, sigma)];
                for x in &items {
                    if x.dot(y) >= sigma {
                        assert!(
                            prefix.iter().any(|&(t, _)| x.weight(t) != 0.0),
                            "pair above threshold shares no prefix term (sigma={sigma})"
                        );
                    }
                }
            }
        }
    }
}
