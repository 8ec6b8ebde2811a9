//! Evaluation metrics, including the top-K metrics of paper Tables 4-7.

/// Fraction of rows where the thresholded score matches the 0/1 label.
///
/// # Panics
/// Panics if lengths differ or inputs are empty.
pub fn accuracy(scores: &[f64], labels: &[f64]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "length mismatch");
    assert!(!scores.is_empty(), "empty inputs");
    let correct = scores
        .iter()
        .zip(labels)
        .filter(|(s, y)| (**s > 0.5) == (**y > 0.5))
        .count();
    correct as f64 / scores.len() as f64
}

/// Mean squared error.
///
/// # Panics
/// Panics if lengths differ or inputs are empty.
pub fn mse(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "length mismatch");
    assert!(!pred.is_empty(), "empty inputs");
    pred.iter()
        .zip(truth)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / pred.len() as f64
}

/// Area under the ROC curve via the rank-sum formulation.
///
/// Returns 0.5 when either class is absent.
///
/// # Panics
/// Panics if lengths differ or inputs are empty.
pub fn auc(scores: &[f64], labels: &[f64]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "length mismatch");
    assert!(!scores.is_empty(), "empty inputs");
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).expect("finite scores"));
    // Average ranks over ties.
    let mut ranks = vec![0.0; scores.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg_rank;
        }
        i = j + 1;
    }
    let n_pos = labels.iter().filter(|y| **y > 0.5).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    let pos_rank_sum: f64 = ranks
        .iter()
        .zip(labels)
        .filter(|(_, y)| **y > 0.5)
        .map(|(r, _)| r)
        .sum();
    (pos_rank_sum - n_pos as f64 * (n_pos as f64 + 1.0) / 2.0) / (n_pos as f64 * n_neg as f64)
}

/// Indices of the `k` largest scores, best first. Ties broken by lower
/// index for determinism.
pub fn top_k_indices(scores: &[f64], k: usize) -> Vec<usize> {
    // A total order (no two indices compare equal), so selecting the
    // best `k` and sorting only those gives what sorting everything
    // and truncating would.
    let best_first = |a: &usize, b: &usize| {
        scores[*b]
            .partial_cmp(&scores[*a])
            .expect("finite scores")
            .then(a.cmp(b))
    };
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    if k < idx.len() {
        idx.select_nth_unstable_by(k, best_first);
        idx.truncate(k);
    }
    idx.sort_unstable_by(best_first);
    idx
}

/// Precision of a predicted top-K set against the true top-K set:
/// `|predicted ∩ true| / K` (paper Table 4's "Precision").
///
/// # Panics
/// Panics if `predicted` is empty.
pub fn precision_at_k(predicted: &[usize], truth: &[usize]) -> f64 {
    assert!(!predicted.is_empty(), "empty top-K");
    let truth_set: std::collections::HashSet<usize> = truth.iter().copied().collect();
    let hits = predicted.iter().filter(|i| truth_set.contains(i)).count();
    hits as f64 / predicted.len() as f64
}

/// Mean average precision of a predicted top-K *ranking* against the
/// true top-K set (paper Table 4's "Mean Average Precision"): the mean
/// over predicted ranks of precision-so-far at each relevant hit.
///
/// # Panics
/// Panics if `predicted` is empty.
pub fn mean_average_precision(predicted: &[usize], truth: &[usize]) -> f64 {
    assert!(!predicted.is_empty(), "empty top-K");
    let truth_set: std::collections::HashSet<usize> = truth.iter().copied().collect();
    let mut hits = 0usize;
    let mut sum = 0.0;
    for (rank, idx) in predicted.iter().enumerate() {
        if truth_set.contains(idx) {
            hits += 1;
            sum += hits as f64 / (rank + 1) as f64;
        }
    }
    if truth.is_empty() {
        return 0.0;
    }
    sum / truth.len().min(predicted.len()) as f64
}

/// Mean true score of a selected index set (paper Table 4's "Average
/// Value": how good the items we returned actually are).
///
/// # Panics
/// Panics if `selected` is empty.
pub fn average_value(selected: &[usize], true_scores: &[f64]) -> f64 {
    assert!(!selected.is_empty(), "empty selection");
    selected.iter().map(|&i| true_scores[i]).sum::<f64>() / selected.len() as f64
}

/// Brier score: mean squared error between predicted probabilities
/// and 0/1 outcomes. Lower is better; used to evaluate the
/// [`crate::calibrate`] calibrators.
///
/// # Panics
/// Panics if lengths differ or inputs are empty.
pub fn brier_score(probs: &[f64], labels: &[f64]) -> f64 {
    assert_eq!(probs.len(), labels.len(), "length mismatch");
    assert!(!probs.is_empty(), "empty inputs");
    probs
        .iter()
        .zip(labels)
        .map(|(p, y)| {
            let o = if *y > 0.5 { 1.0 } else { 0.0 };
            (p - o) * (p - o)
        })
        .sum::<f64>()
        / probs.len() as f64
}

/// Half-width of a 95 % normal-approximation confidence interval for
/// an accuracy measured on `n` samples.
///
/// The paper deems a cascade's accuracy loss "not statistically
/// significant" when it falls inside this interval (§6.3).
pub fn accuracy_ci_95(acc: f64, n: usize) -> f64 {
    if n == 0 {
        return f64::INFINITY;
    }
    1.96 * (acc * (1.0 - acc) / n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basics() {
        assert_eq!(accuracy(&[0.9, 0.1], &[1.0, 0.0]), 1.0);
        assert_eq!(accuracy(&[0.9, 0.9], &[1.0, 0.0]), 0.5);
    }

    #[test]
    fn mse_basics() {
        assert_eq!(mse(&[1.0, 2.0], &[1.0, 4.0]), 2.0);
        assert_eq!(mse(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn auc_perfect_and_inverted() {
        let labels = [0.0, 0.0, 1.0, 1.0];
        assert_eq!(auc(&[0.1, 0.2, 0.8, 0.9], &labels), 1.0);
        assert_eq!(auc(&[0.9, 0.8, 0.2, 0.1], &labels), 0.0);
        assert_eq!(auc(&[0.5, 0.5, 0.5, 0.5], &labels), 0.5);
    }

    #[test]
    fn auc_degenerate_classes() {
        assert_eq!(auc(&[0.1, 0.9], &[1.0, 1.0]), 0.5);
    }

    #[test]
    fn top_k_orders_descending() {
        let idx = top_k_indices(&[0.1, 0.9, 0.5, 0.9], 3);
        assert_eq!(idx, vec![1, 3, 2]);
        assert_eq!(top_k_indices(&[1.0], 5), vec![0]);
    }

    #[test]
    fn precision_counts_overlap() {
        assert_eq!(precision_at_k(&[1, 2, 3, 4], &[2, 4, 6, 8]), 0.5);
        assert_eq!(precision_at_k(&[1], &[1]), 1.0);
    }

    #[test]
    fn map_rewards_early_hits() {
        // Hit at rank 1 only.
        let early = mean_average_precision(&[5, 9, 8], &[5, 1, 2]);
        // Same single hit, at rank 3.
        let late = mean_average_precision(&[9, 8, 5], &[5, 1, 2]);
        assert!(early > late);
        // Perfect ranking has mAP 1.
        assert_eq!(mean_average_precision(&[1, 2], &[1, 2]), 1.0);
    }

    #[test]
    fn average_value_means_true_scores() {
        let scores = [0.1, 0.5, 0.9];
        assert!((average_value(&[0, 2], &scores) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn brier_rewards_sharp_correct_probabilities() {
        let labels = [1.0, 0.0];
        assert!(brier_score(&[0.99, 0.01], &labels) < brier_score(&[0.6, 0.4], &labels));
        assert_eq!(brier_score(&[1.0, 0.0], &labels), 0.0);
        assert_eq!(brier_score(&[0.0, 1.0], &labels), 1.0);
    }

    #[test]
    fn ci_shrinks_with_n() {
        assert!(accuracy_ci_95(0.9, 100) > accuracy_ci_95(0.9, 10_000));
        assert_eq!(accuracy_ci_95(0.9, 0), f64::INFINITY);
        assert_eq!(accuracy_ci_95(1.0, 50), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_length_mismatch_panics() {
        let _ = accuracy(&[0.5], &[1.0, 0.0]);
    }
}
