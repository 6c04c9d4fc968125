//! Bridging featurized traces to the DNF solver's literal-id space.

use autotype_dnf::{BitSet, CoverInput};
use autotype_exec::Literal;
use std::collections::{BTreeMap, BTreeSet};

/// Featurized traces of one candidate function over P and N.
///
/// `pos`/`neg` carry the full inter-procedural literal sets (branches +
/// returns + exceptions). `pos_bb`/`neg_bb` carry the *black-box* view —
/// only the summarized final result or escaping exception per run — which
/// is all the RET baseline is allowed to see (§8.1: "treats functions as
/// black boxes and uses only return values").
#[derive(Debug, Clone, Default)]
pub struct FunctionTraces {
    pub pos: Vec<BTreeSet<Literal>>,
    pub neg: Vec<BTreeSet<Literal>>,
    pub pos_bb: Vec<BTreeSet<Literal>>,
    pub neg_bb: Vec<BTreeSet<Literal>>,
}

impl FunctionTraces {
    /// The literal universe `B(F)` in a stable order, plus the CoverInput
    /// over it.
    pub fn cover_input(&self) -> (CoverInput, Vec<Literal>) {
        let mut universe: BTreeMap<&Literal, usize> = BTreeMap::new();
        for trace in self.pos.iter().chain(self.neg.iter()) {
            for lit in trace {
                let next = universe.len();
                universe.entry(lit).or_insert(next);
            }
        }
        let n_examples = self.pos.len() + self.neg.len();
        let mut coverage = vec![BitSet::new(n_examples); universe.len()];
        for (e, trace) in self.pos.iter().chain(self.neg.iter()).enumerate() {
            for lit in trace {
                coverage[universe[lit]].insert(e);
            }
        }
        let mut literals: Vec<Literal> = vec![
            Literal::Exception {
                kind: String::new()
            };
            universe.len()
        ];
        for (lit, idx) in universe {
            literals[idx] = lit.clone();
        }
        (
            CoverInput {
                n_pos: self.pos.len(),
                n_neg: self.neg.len(),
                coverage,
            },
            literals,
        )
    }

    /// The black-box view for the RET baseline: the recorded final-result
    /// traces in place of the full ones.
    pub fn black_box(&self) -> FunctionTraces {
        FunctionTraces {
            pos: self.pos_bb.clone(),
            neg: self.neg_bb.clone(),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotype_lang::SiteId;

    fn lit(line: u32, taken: bool) -> Literal {
        Literal::Branch {
            site: SiteId::new(0, line),
            taken,
        }
    }

    fn traces() -> FunctionTraces {
        FunctionTraces {
            pos: vec![
                [lit(6, true), lit(16, true)].into_iter().collect(),
                [lit(9, true), lit(16, true)].into_iter().collect(),
            ],
            neg: vec![[lit(6, true)].into_iter().collect()],
            ..Default::default()
        }
    }

    #[test]
    fn cover_input_indexes_examples_positives_first() {
        let (input, literals) = traces().cover_input();
        assert_eq!(input.n_pos, 2);
        assert_eq!(input.n_neg, 1);
        assert_eq!(literals.len(), 3);
        // The literal for b16==True covers exactly the two positives.
        let idx = literals.iter().position(|l| *l == lit(16, true)).unwrap();
        assert_eq!(input.coverage[idx].count(), 2);
        assert!(input.coverage[idx].contains(0));
        assert!(input.coverage[idx].contains(1));
        assert!(!input.coverage[idx].contains(2));
    }

    #[test]
    fn black_box_is_the_recorded_final_results() {
        let mut t = traces();
        t.pos_bb = vec![[lit(20, true)].into_iter().collect(), BTreeSet::new()];
        t.neg_bb = vec![BTreeSet::new()];
        let bb = t.black_box();
        assert_eq!(bb.pos, t.pos_bb);
        assert_eq!(bb.neg, t.neg_bb);
    }
}
