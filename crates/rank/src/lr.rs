//! The logistic-regression baseline (§8.1): identical binary features to
//! DNF-S, a conventional ML model, scored by held-out balanced accuracy.
//!
//! The paper attributes LR's gap to DNF's problem-specific inductive bias
//! ("union of conjunctions of literals is suitable to describe program
//! executions") versus a generic model needing more training data; the
//! held-out split makes that data hunger visible at |P| ≈ 20 (Figure 13).

use crate::features::FunctionTraces;
use autotype_exec::Literal;
use std::collections::BTreeMap;

/// Gradient-descent passes over the training split.
const EPOCHS: usize = 120;

/// Gradient-descent step size.
const LEARNING_RATE: f64 = 0.5;

/// L2 regularisation weight.
const L2: f64 = 1e-3;

/// Every `HOLDOUT_EVERY`-th example is held out for scoring (about 30%).
const HOLDOUT_EVERY: usize = 3;

/// Fit LR on a train split and return balanced accuracy on the held-out
/// split — the function's LR ranking score in `[0, 1]`.
pub fn lr_score(traces: &FunctionTraces) -> f64 {
    // Feature index over all literals.
    let mut index: BTreeMap<&Literal, usize> = BTreeMap::new();
    for t in traces.pos.iter().chain(traces.neg.iter()) {
        for lit in t {
            let next = index.len();
            index.entry(lit).or_insert(next);
        }
    }
    let dims = index.len();
    if dims == 0 || traces.pos.is_empty() || traces.neg.is_empty() {
        return 0.5;
    }
    let encode = |t: &std::collections::BTreeSet<Literal>| -> Vec<usize> {
        t.iter().map(|l| index[l]).collect()
    };
    let pos: Vec<Vec<usize>> = traces.pos.iter().map(encode).collect();
    let neg: Vec<Vec<usize>> = traces.neg.iter().map(encode).collect();

    // Deterministic split: every `HOLDOUT_EVERY`-th example is held out.
    let split = |xs: &[Vec<usize>]| -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let mut train = Vec::new();
        let mut held = Vec::new();
        for (i, x) in xs.iter().enumerate() {
            if i % HOLDOUT_EVERY == HOLDOUT_EVERY - 1 {
                held.push(x.clone());
            } else {
                train.push(x.clone());
            }
        }
        if held.is_empty() && !train.is_empty() {
            held.push(train.pop().unwrap());
        }
        (train, held)
    };
    let (pos_train, pos_held) = split(&pos);
    let (neg_train, neg_held) = split(&neg);
    if pos_train.is_empty() || neg_train.is_empty() || pos_held.is_empty() || neg_held.is_empty() {
        return 0.5;
    }

    // Class-weighted batch gradient descent.
    let mut w = vec![0.0f64; dims];
    let mut b = 0.0f64;
    let pos_weight = neg_train.len() as f64 / pos_train.len() as f64;
    for _ in 0..EPOCHS {
        let mut grad_w = vec![0.0f64; dims];
        let mut grad_b = 0.0f64;
        let mut accumulate = |x: &[usize], y: f64, weight: f64| {
            let z: f64 = b + x.iter().map(|&i| w[i]).sum::<f64>();
            let p = 1.0 / (1.0 + (-z).exp());
            let err = (p - y) * weight;
            for &i in x {
                grad_w[i] += err;
            }
            grad_b += err;
        };
        for x in &pos_train {
            accumulate(x, 1.0, pos_weight);
        }
        for x in &neg_train {
            accumulate(x, 0.0, 1.0);
        }
        let n = (pos_train.len() + neg_train.len()) as f64;
        for i in 0..dims {
            w[i] -= LEARNING_RATE * (grad_w[i] / n + L2 * w[i]);
        }
        b -= LEARNING_RATE * grad_b / n;
    }

    // Balanced held-out accuracy.
    let predict = |x: &[usize]| -> bool {
        let z: f64 = b + x.iter().map(|&i| w[i]).sum::<f64>();
        z > 0.0
    };
    let tp = pos_held.iter().filter(|x| predict(x)).count() as f64;
    let tn = neg_held.iter().filter(|x| !predict(x)).count() as f64;
    0.5 * (tp / pos_held.len() as f64) + 0.5 * (tn / neg_held.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotype_lang::SiteId;
    use std::collections::BTreeSet;

    fn lit(line: u32, taken: bool) -> Literal {
        Literal::Branch {
            site: SiteId::new(0, line),
            taken,
        }
    }

    fn set(lits: &[Literal]) -> BTreeSet<Literal> {
        lits.iter().cloned().collect()
    }

    #[test]
    fn separable_traces_score_high() {
        let traces = FunctionTraces {
            pos: (0..10).map(|_| set(&[lit(1, true)])).collect(),
            neg: (0..30).map(|_| set(&[lit(1, false)])).collect(),
            ..Default::default()
        };
        assert!(lr_score(&traces) > 0.9);
    }

    #[test]
    fn identical_traces_score_chance() {
        let traces = FunctionTraces {
            pos: (0..10).map(|_| set(&[lit(1, true)])).collect(),
            neg: (0..30).map(|_| set(&[lit(1, true)])).collect(),
            ..Default::default()
        };
        let s = lr_score(&traces);
        assert!((0.3..=0.7).contains(&s), "score {s}");
    }

    #[test]
    fn empty_traces_score_half() {
        let traces = FunctionTraces::default();
        assert_eq!(lr_score(&traces), 0.5);
    }

    #[test]
    fn deterministic() {
        let traces = FunctionTraces {
            pos: (0..8)
                .map(|i| set(&[lit(1, true), lit(i % 3 + 10, true)]))
                .collect(),
            neg: (0..20).map(|i| set(&[lit(i % 5 + 20, false)])).collect(),
            ..Default::default()
        };
        let a = lr_score(&traces);
        let b = lr_score(&traces);
        assert_eq!(a, b);
    }
}
