//! The *Best-k-Concise-DNF-Cover* optimization (Definitions 2–4 and
//! Algorithm 1 of the paper), plus the unconstrained *Best-DNF-Cover*
//! variant used by the DNF-C baseline.
//!
//! The problem is NP-hard and inapproximable (Theorem 4, by reduction from
//! set-union knapsack), so both solvers are greedy: literals with identical
//! coverage are first merged into groups, one representative per group forms
//! the candidate set `S`, conjunctions up to `k` literals over `S` are
//! enumerated, and the conjunction with the most *additional* positive
//! coverage (subject to the `θ|N|` negative budget) is added until no
//! conjunction helps.

use crate::bitset::BitSet;

/// Index of a literal in the caller's feature space.
pub type LitId = usize;

/// Input to the cover solvers: per-literal coverage over the combined
/// example universe `[0, n_pos + n_neg)`, positives first.
#[derive(Debug, Clone)]
pub struct CoverInput {
    pub n_pos: usize,
    pub n_neg: usize,
    /// `coverage[l]` = set of example indices whose trace contains literal `l`.
    pub coverage: Vec<BitSet>,
}

impl CoverInput {
    pub fn universe(&self) -> usize {
        self.n_pos + self.n_neg
    }

    fn pos_mask(&self) -> BitSet {
        let mut m = BitSet::new(self.universe());
        for i in 0..self.n_pos {
            m.insert(i);
        }
        m
    }

    fn neg_mask(&self) -> BitSet {
        let mut m = BitSet::new(self.universe());
        for i in self.n_pos..self.universe() {
            m.insert(i);
        }
        m
    }
}

/// Cap on the number of literal-group representatives enumerated (bounds
/// the `O(|S|^k)` search; groups are kept by descending positive coverage).
const MAX_GROUPS: usize = 24;

/// Solver parameters: `k` (max literals per conjunction, Definition 4) and
/// `θ` (negative-coverage budget as a fraction of `|N|`, Definition 3).
#[derive(Debug, Clone, Copy)]
pub struct CoverParams {
    pub k: usize,
    pub theta: f64,
    /// Maximum number of disjuncts added by the greedy loop.
    pub max_conjunctions: usize,
}

impl Default for CoverParams {
    /// The paper's operating point: `k = 3`, `θ = 0.3` (§8.1).
    fn default() -> Self {
        CoverParams {
            k: 3,
            theta: 0.3,
            max_conjunctions: 8,
        }
    }
}

/// A conjunction of literal-group representatives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conjunction {
    pub literals: Vec<LitId>,
}

/// A DNF over literal groups, with its achieved coverage.
#[derive(Debug, Clone)]
pub struct DnfCover {
    pub conjunctions: Vec<Conjunction>,
    /// Positive examples covered (indices in `[0, n_pos)`).
    pub pos_covered: usize,
    /// Negative examples covered.
    pub neg_covered: usize,
    pub n_pos: usize,
    pub n_neg: usize,
    /// Literal groups: `groups[g]` lists all literals whose coverage equals
    /// the group representative's — needed for DNF-E expansion (Appendix G).
    pub groups: Vec<Vec<LitId>>,
}

impl DnfCover {
    /// Fraction of positives covered, the primary ranking signal (§5.2).
    pub fn pos_fraction(&self) -> f64 {
        if self.n_pos == 0 {
            0.0
        } else {
            self.pos_covered as f64 / self.n_pos as f64
        }
    }

    /// Fraction of negatives covered, the tie-breaker (lower is better).
    pub fn neg_fraction(&self) -> f64 {
        if self.n_neg == 0 {
            0.0
        } else {
            self.neg_covered as f64 / self.n_neg as f64
        }
    }

    /// The full literal set of the group containing `lit` (for DNF-E).
    pub fn group_of(&self, lit: LitId) -> &[LitId] {
        self.groups
            .iter()
            .find(|g| g.contains(&lit))
            .map(|g| g.as_slice())
            .unwrap_or(&[])
    }
}

/// Partition literals into groups with identical coverage (Algorithm 1,
/// line 1). Returns `(groups, representative_of_each_group)`.
pub fn group_literals(input: &CoverInput) -> Vec<Vec<LitId>> {
    use std::collections::HashMap;
    let mut by_coverage: HashMap<&BitSet, Vec<LitId>> = HashMap::new();
    for (lit, cov) in input.coverage.iter().enumerate() {
        by_coverage.entry(cov).or_default().push(lit);
    }
    let mut groups: Vec<Vec<LitId>> = by_coverage.into_values().collect();
    // Deterministic order: by first literal id.
    groups.sort_by_key(|g| g[0]);
    groups
}

/// Solve Best-k-Concise-DNF-Cover greedily (Algorithm 1).
///
/// Returns `None` when no conjunction covers even one positive example
/// within the negative budget — the signal Algorithm 2 (negative-example
/// generation) uses to escalate to the next mutation strategy.
pub fn best_k_concise_cover(input: &CoverInput, params: &CoverParams) -> Option<DnfCover> {
    let groups = group_literals(input);
    let pos_mask = input.pos_mask();
    let neg_mask = input.neg_mask();
    let neg_budget = (params.theta * input.n_neg as f64).floor() as usize;

    // Candidate set S: one representative per group, keeping only groups
    // that cover at least one positive example, capped by positive coverage.
    let mut reps: Vec<LitId> = groups
        .iter()
        .map(|g| g[0])
        .filter(|l| input.coverage[*l].intersection_count(&pos_mask) > 0)
        .collect();
    reps.sort_by_key(|l| {
        let cov = &input.coverage[*l];
        (
            std::cmp::Reverse(cov.intersection_count(&pos_mask)),
            cov.intersection_count(&neg_mask),
            *l,
        )
    });
    reps.truncate(MAX_GROUPS);

    // Enumerate conjunctions up to k literals (the set L in Algorithm 1).
    let mut candidates: Vec<(Conjunction, BitSet)> = Vec::new();
    let mut stack: Vec<LitId> = Vec::new();
    enumerate(
        &reps,
        0,
        params.k.min(reps.len()),
        &mut stack,
        &mut |lits: &[LitId]| {
            let mut cov = input.coverage[lits[0]].clone();
            for l in &lits[1..] {
                cov.intersect_with(&input.coverage[*l]);
            }
            if cov.intersection_count(&pos_mask) > 0 {
                candidates.push((
                    Conjunction {
                        literals: lits.to_vec(),
                    },
                    cov,
                ));
            }
        },
    );
    greedy_select(
        candidates,
        &pos_mask,
        &neg_mask,
        neg_budget,
        input,
        groups,
        params.max_conjunctions,
    )
}

/// The DNF-C baseline (§8.1): Definition 3 without the k-conciseness
/// constraint. Implemented by allowing conjunctions as long as the number
/// of candidate groups — effectively full-path conjunctions.
pub fn best_cover_complete(input: &CoverInput, params: &CoverParams) -> Option<DnfCover> {
    // Unbounded k degenerates to "one conjunction per positive example's
    // full trace": enumerate those instead of the power set.
    let universe = input.universe();
    let groups = group_literals(input);
    let neg_budget = (params.theta * input.n_neg as f64).floor() as usize;
    let pos_mask = input.pos_mask();
    let neg_mask = input.neg_mask();

    // For each positive example, the conjunction of *all* groups covering it.
    let mut candidates: Vec<(Conjunction, BitSet)> = Vec::new();
    for e in 0..input.n_pos {
        let lits: Vec<LitId> = groups
            .iter()
            .filter(|g| input.coverage[g[0]].contains(e))
            .map(|g| g[0])
            .collect();
        if lits.is_empty() {
            continue;
        }
        let mut cov = BitSet::full(universe);
        for l in &lits {
            cov.intersect_with(&input.coverage[*l]);
        }
        let conj = Conjunction { literals: lits };
        if !candidates.iter().any(|(c, _)| c == &conj) {
            candidates.push((conj, cov));
        }
    }
    greedy_select(
        candidates,
        &pos_mask,
        &neg_mask,
        neg_budget,
        input,
        groups,
        params.max_conjunctions,
    )
}

fn enumerate(
    reps: &[LitId],
    start: usize,
    k: usize,
    stack: &mut Vec<LitId>,
    emit: &mut impl FnMut(&[LitId]),
) {
    if !stack.is_empty() {
        emit(stack);
    }
    if stack.len() == k {
        return;
    }
    for i in start..reps.len() {
        stack.push(reps[i]);
        enumerate(reps, i + 1, k, stack, emit);
        stack.pop();
    }
}

/// Greedy selection (Algorithm 1, lines 4-8): repeatedly add the candidate
/// with the largest additional positive coverage that keeps total negative
/// coverage within budget.
fn greedy_select(
    candidates: Vec<(Conjunction, BitSet)>,
    pos_mask: &BitSet,
    neg_mask: &BitSet,
    neg_budget: usize,
    input: &CoverInput,
    groups: Vec<Vec<LitId>>,
    max_conjunctions: usize,
) -> Option<DnfCover> {
    let universe = input.universe();
    let mut covered = BitSet::new(universe);
    let mut chosen: Vec<Conjunction> = Vec::new();

    while chosen.len() < max_conjunctions {
        let mut best: Option<(usize, usize, usize)> = None; // (gain, negs, idx)
        for (idx, (conj, cov)) in candidates.iter().enumerate() {
            // Negative coverage of the union if we add this conjunction.
            let mut union = covered.clone();
            union.union_with(cov);
            let negs = union.intersection_count(neg_mask);
            if negs > neg_budget {
                continue;
            }
            let pos_before = covered.intersection_count(pos_mask);
            let pos_after = union.intersection_count(pos_mask);
            let gain = pos_after - pos_before;
            if gain == 0 {
                continue;
            }
            let better = match &best {
                None => true,
                Some((bg, bn, bidx)) => {
                    (
                        gain,
                        std::cmp::Reverse(negs),
                        std::cmp::Reverse(conj.literals.len()),
                    ) > (*bg, std::cmp::Reverse(*bn), {
                        let blen = candidates[*bidx].0.literals.len();
                        std::cmp::Reverse(blen)
                    })
                }
            };
            if better {
                best = Some((gain, negs, idx));
            }
        }
        match best {
            None => break,
            Some((_, _, idx)) => {
                covered.union_with(&candidates[idx].1);
                chosen.push(candidates[idx].0.clone());
            }
        }
        if covered.intersection_count(pos_mask) == pos_mask.count() {
            break;
        }
    }

    if chosen.is_empty() {
        return None;
    }
    Some(DnfCover {
        conjunctions: chosen,
        pos_covered: covered.intersection_count(pos_mask),
        neg_covered: covered.intersection_count(neg_mask),
        n_pos: input.n_pos,
        n_neg: input.n_neg,
        groups,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a CoverInput from explicit example->literals traces.
    fn input_from_traces(
        n_pos: usize,
        n_neg: usize,
        traces: &[&[usize]],
        n_lits: usize,
    ) -> CoverInput {
        let universe = n_pos + n_neg;
        assert_eq!(traces.len(), universe);
        let mut coverage = vec![BitSet::new(universe); n_lits];
        for (e, lits) in traces.iter().enumerate() {
            for l in *lits {
                coverage[*l].insert(e);
            }
        }
        CoverInput {
            n_pos,
            n_neg,
            coverage,
        }
    }

    /// The paper's running example (Figure 7 / Example 4): literal 0 = b6,
    /// literal 1 = b9, literal 2 = b16, literal 3 = exception. Positives are
    /// Visa (b6,b16) and Mastercard (b9,b16); negatives fail the checksum
    /// (b6 or b9 without b16) or throw.
    fn paper_example() -> CoverInput {
        input_from_traces(
            3,
            3,
            &[
                &[0, 2], // e1+: Visa, checksum ok
                &[1, 2], // e2+: MC, checksum ok
                &[0, 2], // e3+: Visa
                &[0],    // e1-: Visa prefix, bad checksum
                &[1],    // e2-: MC prefix, bad checksum
                &[3],    // e3-: exception
            ],
            4,
        )
    }

    #[test]
    fn finds_perfect_cover_on_paper_example() {
        let input = paper_example();
        let cover = best_k_concise_cover(&input, &CoverParams::default()).unwrap();
        assert_eq!(cover.pos_covered, 3);
        assert_eq!(cover.neg_covered, 0);
        assert!(cover.conjunctions.len() <= 2);
    }

    #[test]
    fn respects_negative_budget() {
        // One literal covers all positives but also all negatives.
        let input = input_from_traces(2, 4, &[&[0], &[0], &[0], &[0], &[0], &[0]], 1);
        let params = CoverParams {
            theta: 0.0,
            ..CoverParams::default()
        };
        assert!(best_k_concise_cover(&input, &params).is_none());
        // With θ = 1.0 the same literal is acceptable.
        let relaxed = CoverParams {
            theta: 1.0,
            ..CoverParams::default()
        };
        let cover = best_k_concise_cover(&input, &relaxed).unwrap();
        assert_eq!(cover.pos_covered, 2);
        assert_eq!(cover.neg_covered, 4);
    }

    #[test]
    fn theta_budget_is_fractional() {
        // Literal 0 covers both positives + 1 of 10 negatives.
        let mut traces: Vec<&[usize]> = vec![&[0], &[0], &[0]];
        let empty: &[usize] = &[];
        for _ in 0..9 {
            traces.push(empty);
        }
        let input = input_from_traces(2, 10, &traces, 1);
        // θ=0.3 → budget 3 negatives → acceptable.
        let cover = best_k_concise_cover(&input, &CoverParams::default()).unwrap();
        assert_eq!(cover.pos_covered, 2);
        assert_eq!(cover.neg_covered, 1);
        // θ=0.05 → budget 0 → rejected.
        let strict = CoverParams {
            theta: 0.05,
            ..CoverParams::default()
        };
        assert!(best_k_concise_cover(&input, &strict).is_none());
    }

    #[test]
    fn k_limits_conjunction_size() {
        let input = paper_example();
        let params = CoverParams {
            k: 1,
            ..CoverParams::default()
        };
        let cover = best_k_concise_cover(&input, &params).unwrap();
        assert!(cover.conjunctions.iter().all(|c| c.literals.len() == 1));
        // With k=1 the only clean literal is b16 (lit 2), covering all P.
        assert_eq!(cover.pos_covered, 3);
    }

    #[test]
    fn grouping_merges_identical_coverage() {
        // Literals 0 and 1 have identical coverage; 2 differs.
        let input = input_from_traces(2, 1, &[&[0, 1], &[0, 1, 2], &[2]], 3);
        let groups = group_literals(&input);
        assert!(groups.iter().any(|g| g.contains(&0) && g.contains(&1)));
        assert!(groups.iter().any(|g| g == &vec![2]));
    }

    #[test]
    fn complete_cover_uses_full_traces() {
        let input = paper_example();
        let cover = best_cover_complete(&input, &CoverParams::default()).unwrap();
        assert_eq!(cover.pos_covered, 3);
        assert_eq!(cover.neg_covered, 0);
        // Full-trace conjunctions: {b6,b16} and {b9,b16}.
        assert!(cover.conjunctions.iter().all(|c| c.literals.len() == 2));
    }

    #[test]
    fn returns_none_when_nothing_separates() {
        // Positives and negatives have identical traces → any cover that
        // touches P touches N beyond a zero budget.
        let input = input_from_traces(2, 2, &[&[0], &[0], &[0], &[0]], 1);
        let params = CoverParams {
            theta: 0.0,
            ..CoverParams::default()
        };
        assert!(best_k_concise_cover(&input, &params).is_none());
    }

    #[test]
    fn prefers_fewer_negatives_on_tie() {
        // lit 0: covers both P + 2 N; lit 1: covers both P + 1 N.
        let input = input_from_traces(2, 3, &[&[0, 1], &[0, 1], &[0], &[0, 1], &[]], 2);
        let cover = best_k_concise_cover(
            &input,
            &CoverParams {
                theta: 1.0,
                ..CoverParams::default()
            },
        )
        .unwrap();
        assert_eq!(cover.conjunctions.len(), 1);
        // Best single candidate is the conjunction (0 ∧ 1) or lit 1 alone —
        // both cover P with only 1 negative.
        assert_eq!(cover.neg_covered, 1);
    }

    #[test]
    fn group_of_returns_equivalence_class() {
        let input = input_from_traces(2, 1, &[&[0, 1], &[0, 1, 2], &[2]], 3);
        let cover = best_k_concise_cover(
            &input,
            &CoverParams {
                theta: 0.0,
                ..CoverParams::default()
            },
        )
        .unwrap();
        let rep = cover.conjunctions[0].literals[0];
        let group = cover.group_of(rep);
        assert!(group.contains(&0) && group.contains(&1));
    }

    #[test]
    fn max_conjunctions_bounds_dnf_size() {
        // 6 disjoint positives each with its own literal.
        let traces: Vec<Vec<usize>> = (0..6).map(|i| vec![i]).collect();
        let refs: Vec<&[usize]> = traces.iter().map(|t| t.as_slice()).collect();
        let input = input_from_traces(6, 0, &refs, 6);
        let params = CoverParams {
            max_conjunctions: 3,
            ..CoverParams::default()
        };
        let cover = best_k_concise_cover(&input, &params).unwrap();
        assert_eq!(cover.conjunctions.len(), 3);
        assert_eq!(cover.pos_covered, 3);
    }
}
