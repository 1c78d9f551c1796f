//! The String-keyed Fourier–Motzkin check and the unguided greedy core
//! minimiser the solver used before rows carried provenance. Kept as the
//! test oracle for [`FourierMotzkin`](super::FourierMotzkin): the property
//! tests require the same verdicts and bit-identical cores.

use super::{FourierMotzkin, GroupSet, Rows};
use crate::linear::LinExpr;
use std::collections::HashMap;
use std::ops::Range;

/// A single linear constraint `expr ⋈ 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    pub expr: LinExpr,
    pub strict: bool,
}

/// The verdict of [`rational_feasible`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RationalFeasibility {
    Feasible,
    Infeasible,
    TooLarge,
}

/// Rational feasibility by Fourier–Motzkin elimination over `LinExpr`s
/// (saturating arithmetic, no provenance).
pub fn rational_feasible(
    constraints: &[Constraint],
    max_constraints: usize,
) -> RationalFeasibility {
    let mut system: Vec<Constraint> = constraints.to_vec();
    loop {
        let mut next: Vec<Constraint> = Vec::new();
        for c in &system {
            if c.expr.is_constant() {
                let v = c.expr.constant_part();
                let violated = if c.strict { v >= 0 } else { v > 0 };
                if violated {
                    return RationalFeasibility::Infeasible;
                }
            } else {
                next.push(c.clone());
            }
        }
        system = next;
        if system.is_empty() {
            return RationalFeasibility::Feasible;
        }
        if system.len() > max_constraints {
            return RationalFeasibility::TooLarge;
        }
        let var = match pick_variable(&system) {
            Some(v) => v,
            None => return RationalFeasibility::Feasible,
        };
        system = eliminate_variable(&system, &var);
    }
}

fn pick_variable(system: &[Constraint]) -> Option<String> {
    let mut pos: HashMap<String, usize> = HashMap::new();
    let mut neg: HashMap<String, usize> = HashMap::new();
    for c in system {
        for (v, coeff) in c.expr.terms() {
            if coeff > 0 {
                *pos.entry(v.to_string()).or_insert(0) += 1;
            } else if coeff < 0 {
                *neg.entry(v.to_string()).or_insert(0) += 1;
            }
        }
    }
    let mut vars: Vec<String> = pos.keys().chain(neg.keys()).cloned().collect();
    vars.sort();
    vars.dedup();
    vars.into_iter().min_by_key(|v| {
        let p = pos.get(v).copied().unwrap_or(0);
        let n = neg.get(v).copied().unwrap_or(0);
        p * n + p + n
    })
}

fn eliminate_variable(system: &[Constraint], var: &str) -> Vec<Constraint> {
    let mut uppers: Vec<Constraint> = Vec::new();
    let mut lowers: Vec<Constraint> = Vec::new();
    let mut rest: Vec<Constraint> = Vec::new();
    for c in system {
        let coeff = c.expr.coeff(var);
        if coeff > 0 {
            uppers.push(c.clone());
        } else if coeff < 0 {
            lowers.push(c.clone());
        } else {
            rest.push(c.clone());
        }
    }
    for up in &uppers {
        for low in &lowers {
            let a = up.expr.coeff(var);
            let b = -low.expr.coeff(var);
            let mut expr = up.expr.scale(b).add(&low.expr.scale(a));
            expr.remove_var(var);
            rest.push(Constraint {
                expr,
                strict: up.strict || low.strict,
            });
        }
    }
    rest
}

/// The unguided greedy scan: drop each group in order and re-run the full
/// check, keeping the group when the rest is no longer infeasible. Returns
/// the core and whether any run reported `TooLarge`.
pub fn greedy_core(groups: &[Vec<Constraint>], limit: usize) -> (Vec<usize>, bool) {
    let mut active = vec![true; groups.len()];
    let mut too_large = false;
    for i in 0..groups.len() {
        active[i] = false;
        let remaining: Vec<Constraint> = groups
            .iter()
            .zip(&active)
            .filter(|(_, &keep)| keep)
            .flat_map(|(cs, _)| cs.iter().cloned())
            .collect();
        match rational_feasible(&remaining, limit) {
            RationalFeasibility::Infeasible => {}
            verdict => {
                too_large |= verdict == RationalFeasibility::TooLarge;
                active[i] = true;
            }
        }
    }
    (
        (0..groups.len()).filter(|&i| active[i]).collect(),
        too_large,
    )
}

/// Slot `s` as a variable name; names sort in slot order for `s < 10`.
fn slot_name(s: usize) -> String {
    format!("v{s}")
}

/// The dense rows of each group as `Constraint`s over [`slot_name`]s.
pub fn to_constraints(rows: &Rows, groups: &[Range<usize>]) -> Vec<Vec<Constraint>> {
    assert!(rows.width() <= 10, "slot names sort in slot order below 10");
    groups
        .iter()
        .map(|range| {
            range
                .clone()
                .map(|r| {
                    let row = rows.row(r);
                    let mut expr = LinExpr::constant(row[rows.width()]);
                    for (s, &c) in row[..rows.width()].iter().enumerate() {
                        if c != 0 {
                            expr.add_coeff(slot_name(s), c);
                        }
                    }
                    Constraint {
                        expr,
                        strict: rows.strict[r],
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::Feasibility;
    use super::*;
    use expresso_logic::Lcg;

    /// A random system of at most 12 groups over at most 4 slots. A group is
    /// one row or, like an equality literal, a row and its negation.
    fn generate(rng: &mut Lcg) -> (Rows, Vec<Range<usize>>) {
        let width = 1 + rng.index(4);
        let group_count = 1 + rng.index(12);
        let mut rows = Rows::new(width);
        let mut groups = Vec::new();
        for _ in 0..group_count {
            let start = rows.len();
            let mut coeffs = vec![0i64; width];
            for _ in 0..1 + rng.index(2) {
                coeffs[rng.index(width)] = rng.below(7) as i64 - 3;
            }
            let constant = rng.below(13) as i64 - 6;
            let equality = rng.below(10) < 3;
            rows.push(&coeffs, constant, !equality && rng.below(4) == 0);
            if equality {
                let negated: Vec<i64> = coeffs.iter().map(|c| -c).collect();
                rows.push(&negated, -constant, false);
            }
            groups.push(start..rows.len());
        }
        (rows, groups)
    }

    #[test]
    fn guided_cores_match_the_greedy_scan_on_generated_systems() {
        const LIMIT: usize = 400;
        let mut rng = Lcg::new(0x5EED_F00D);
        let mut fm = FourierMotzkin::new(LIMIT);
        let mut infeasible = 0;
        for case in 0..2500 {
            let (rows, groups) = generate(&mut rng);
            let constraints = to_constraints(&rows, &groups);
            let all: Vec<Constraint> = constraints.iter().flatten().cloned().collect();
            let expected = rational_feasible(&all, LIMIT);
            let verdict = fm.check(&rows, &groups, &GroupSet::full(groups.len()));
            match (expected, verdict) {
                (RationalFeasibility::Infeasible, Feasibility::Infeasible(certificate)) => {
                    infeasible += 1;
                    let (greedy, too_large) = greedy_core(&constraints, LIMIT);
                    assert!(!too_large, "case {case}: the oracle hit the size limit");
                    let core = fm.minimal_core(&rows, &groups, certificate);
                    assert_eq!(core, greedy, "case {case}: cores differ");
                }
                (RationalFeasibility::Feasible, Feasibility::Feasible) => {}
                (expected, verdict) => {
                    panic!("case {case}: oracle says {expected:?}, engine says {verdict:?}")
                }
            }
        }
        assert_eq!(fm.take_too_large(), 0);
        assert!(
            infeasible >= 500,
            "only {infeasible} infeasible systems generated"
        );
    }

    #[test]
    fn disjoint_infeasible_pairs_replace_the_certificate_mid_scan() {
        // Slots x, y. A: x <= 0, B: 1 - x <= 0, C: y <= 0, D: 1 - y <= 0.
        // Eliminating x first, the full check's certificate is {A, B}.
        // Dropping A leaves {B, C, D}, still infeasible through {C, D},
        // which becomes the certificate; B then drops without a run.
        let mut rows = Rows::new(2);
        rows.push(&[1, 0], 0, false);
        rows.push(&[-1, 0], 1, false);
        rows.push(&[0, 1], 0, false);
        rows.push(&[0, -1], 1, false);
        let groups: Vec<Range<usize>> = (0..4).map(|r| r..r + 1).collect();
        let mut fm = FourierMotzkin::new(400);
        let Feasibility::Infeasible(certificate) = fm.check(&rows, &groups, &GroupSet::full(4))
        else {
            panic!("A, B, C, D is infeasible");
        };
        assert_eq!(certificate.iter().collect::<Vec<_>>(), vec![0, 1]);
        let core = fm.minimal_core(&rows, &groups, certificate);
        assert_eq!(core, vec![2, 3]);
        assert_eq!(core, greedy_core(&to_constraints(&rows, &groups), 400).0);
    }

    #[test]
    fn saturating_oracle_reports_a_bogus_contradiction() {
        // The system of `overflowing_combination_is_too_large_not_infeasible`:
        // feasible, yet the saturating elimination calls it infeasible.
        let mut rows = Rows::new(2);
        rows.push(&[1, i64::MAX], 0, false);
        rows.push(&[-2, -i64::MAX], 1, false);
        let groups = vec![0..1, 1..2];
        let all: Vec<Constraint> = to_constraints(&rows, &groups).concat();
        assert_eq!(
            rational_feasible(&all, 400),
            RationalFeasibility::Infeasible
        );
        let verdict = FourierMotzkin::new(400).check(&rows, &groups, &GroupSet::full(2));
        assert_eq!(verdict, Feasibility::TooLarge);
    }
}
