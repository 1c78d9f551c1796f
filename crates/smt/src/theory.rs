//! The theory atoms of one DPLL(T) query, translated once onto dense
//! variable slots.
//!
//! Every theory check of the query reads the same translation: the
//! Fourier–Motzkin rows of each literal polarity, and an evaluator for the
//! bounded integer model search. Slots follow sorted variable names, so the
//! elimination order of [`FourierMotzkin`](crate::fourier_motzkin::FourierMotzkin)
//! is the name-ordered one whatever the query.

use crate::fourier_motzkin::Rows;
use crate::linear::LinExpr;
use expresso_logic::{CmpOp, Formula, Ident, Term};
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;

/// How a translated atom tests its linear expression `e`.
#[derive(Debug)]
enum Test {
    /// `lhs op rhs` as `e op 0` with `e = lhs - rhs`.
    Cmp(CmpOp),
    /// `d | e`.
    Divides(i128),
}

#[derive(Debug)]
struct DenseAtom {
    test: Test,
    /// The non-zero `(slot, coefficient)` pairs of `e`.
    terms: Vec<(usize, i64)>,
    constant: i64,
    /// The slots of every integer variable the atom mentions, sorted.
    vars: Vec<usize>,
    /// The atom's contribution to the model-search grid
    /// (see [`candidate_values`]).
    constants: Vec<i64>,
    /// Fourier–Motzkin rows of the literal asserted false (index 0) and true
    /// (index 1); `None` when that literal is not convex.
    rows: [Option<Range<usize>>; 2],
}

impl DenseAtom {
    fn holds(&self, values: &[i64]) -> bool {
        let e = self
            .terms
            .iter()
            .fold(self.constant as i128, |acc, &(s, c)| {
                acc + c as i128 * values[s] as i128
            });
        match self.test {
            Test::Cmp(CmpOp::Lt) => e < 0,
            Test::Cmp(CmpOp::Le) => e <= 0,
            Test::Cmp(CmpOp::Gt) => e > 0,
            Test::Cmp(CmpOp::Ge) => e >= 0,
            Test::Cmp(CmpOp::Eq) => e == 0,
            Test::Cmp(CmpOp::Ne) => e != 0,
            Test::Divides(d) => e.checked_rem_euclid(d) == Some(0),
        }
    }
}

/// The dense translation of a query's theory atoms. See the module
/// documentation.
#[derive(Debug)]
pub(crate) struct TheoryAtoms {
    /// Indexed like the query's atom table; `None` for non-theory atoms.
    atoms: Vec<Option<DenseAtom>>,
    rows: Rows,
}

/// The grid of the bounded model search may hold at most this many points.
const MODEL_GRID_LIMIT: usize = 4096;

impl TheoryAtoms {
    /// Translates the theory atoms of a query; `atoms[i]` is the formula of
    /// atom `i`, or `None` when atom `i` is not a theory atom. Theory atoms
    /// are linear comparisons and divisibility constraints over linear terms.
    pub(crate) fn new(atoms: &[Option<&Formula>]) -> Self {
        let names: BTreeSet<Ident> = atoms.iter().flatten().flat_map(|f| f.int_vars()).collect();
        let slots: HashMap<Ident, usize> = names.into_iter().zip(0..).collect();
        let mut rows = Rows::new(slots.len());
        let atoms = atoms
            .iter()
            .map(|f| f.map(|f| translate(f, &slots, &mut rows)))
            .collect();
        TheoryAtoms { atoms, rows }
    }

    /// Every literal's Fourier–Motzkin rows.
    pub(crate) fn rows(&self) -> &Rows {
        &self.rows
    }

    fn atom(&self, idx: usize) -> &DenseAtom {
        self.atoms[idx].as_ref().expect("a theory atom")
    }

    /// The rows of atom `idx` asserted with `value`; `None` when that
    /// literal is not convex (a disequality or a divisibility constraint),
    /// which the rational relaxation ignores.
    pub(crate) fn literal_rows(&self, idx: usize, value: bool) -> Option<Range<usize>> {
        self.atom(idx).rows[usize::from(value)].clone()
    }

    /// Bounded search for an integer model of the conjunction of `literals`
    /// (`(atom index, asserted value)` pairs). Every variable the literals
    /// mention ranges over [`candidate_values`] of their atoms; grids of more
    /// than 4096 points are not searched.
    pub(crate) fn has_grid_model(
        &self,
        literals: impl Iterator<Item = (usize, bool)> + Clone,
    ) -> bool {
        let mut slots: Vec<usize> = Vec::new();
        let mut candidates: Vec<i64> = (-3..=3).collect();
        for (idx, _) in literals.clone() {
            let atom = self.atom(idx);
            slots.extend_from_slice(&atom.vars);
            candidates.extend_from_slice(&atom.constants);
        }
        slots.sort_unstable();
        slots.dedup();
        candidates.sort_unstable();
        candidates.dedup();
        match candidates.len().checked_pow(slots.len() as u32) {
            Some(total) if total <= MODEL_GRID_LIMIT => {}
            _ => return false,
        }
        let mut values = vec![0i64; self.rows.width()];
        for &s in &slots {
            values[s] = candidates[0];
        }
        // An odometer over the grid, first slot fastest.
        let mut indices = vec![0usize; slots.len()];
        loop {
            if literals
                .clone()
                .all(|(idx, value)| self.atom(idx).holds(&values) == value)
            {
                return true;
            }
            let mut pos = 0;
            loop {
                if pos == indices.len() {
                    return false;
                }
                indices[pos] += 1;
                if indices[pos] < candidates.len() {
                    values[slots[pos]] = candidates[indices[pos]];
                    break;
                }
                indices[pos] = 0;
                values[slots[pos]] = candidates[0];
                pos += 1;
            }
        }
    }
}

fn translate(f: &Formula, slots: &HashMap<Ident, usize>, rows: &mut Rows) -> DenseAtom {
    // Theory atoms are exactly the atoms whose terms translate.
    const LINEAR: &str = "theory atoms are linear";
    let (test, expr) = match f {
        Formula::Cmp(op, lhs, rhs) => (
            Test::Cmp(*op),
            LinExpr::from_term(lhs)
                .expect(LINEAR)
                .sub(&LinExpr::from_term(rhs).expect(LINEAR)),
        ),
        Formula::Divides(d, t) => (
            Test::Divides(i128::from(*d)),
            LinExpr::from_term(t).expect(LINEAR),
        ),
        other => unreachable!("not a theory atom: {other}"),
    };
    let mut coeffs = vec![0i64; slots.len()];
    for (v, c) in expr.terms() {
        coeffs[slots[v]] = c;
    }
    let constant = expr.constant_part();
    let mut vars: Vec<usize> = f.int_vars().iter().map(|v| slots[v]).collect();
    vars.sort_unstable();
    let mut constants = BTreeSet::new();
    collect_constants(f, &mut constants);
    let rows = match test {
        Test::Cmp(op) => [false, true].map(|value| {
            let op = if value { op } else { op.negate() };
            push_rows(rows, op, &coeffs, constant)
        }),
        // Divisibility is ignored by the rational relaxation.
        Test::Divides(_) => [None, None],
    };
    DenseAtom {
        test,
        terms: coeffs
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(s, &c)| (s, c))
            .collect(),
        constant,
        vars,
        constants: constants.into_iter().collect(),
        rows,
    }
}

/// Appends the rows of `e op 0` for `e = coeffs · x + constant` and returns
/// their range; `None` for `!=`, which is not convex. When `-e` overflows
/// `i64` the literal is treated as not convex too: leaving it out of the
/// relaxation is sound.
fn push_rows(rows: &mut Rows, op: CmpOp, coeffs: &[i64], constant: i64) -> Option<Range<usize>> {
    let negated = || -> Option<(Vec<i64>, i64)> {
        let coeffs = coeffs
            .iter()
            .map(|c| c.checked_neg())
            .collect::<Option<_>>()?;
        Some((coeffs, constant.checked_neg()?))
    };
    let start = rows.len();
    match op {
        CmpOp::Le => rows.push(coeffs, constant, false),
        CmpOp::Lt => rows.push(coeffs, constant, true),
        CmpOp::Ge | CmpOp::Gt | CmpOp::Eq => {
            let (neg_coeffs, neg_constant) = negated()?;
            if op == CmpOp::Eq {
                rows.push(coeffs, constant, false);
            }
            rows.push(&neg_coeffs, neg_constant, op == CmpOp::Gt);
        }
        CmpOp::Ne => return None,
    }
    Some(start..rows.len())
}

/// Candidate integer values for model search: every constant in the formula,
/// its neighbours, and a small default window.
pub(crate) fn candidate_values(formula: &Formula) -> Vec<i64> {
    let mut values: BTreeSet<i64> = (-3..=3).collect();
    collect_constants(formula, &mut values);
    values.into_iter().collect()
}

fn collect_constants(formula: &Formula, out: &mut BTreeSet<i64>) {
    fn from_term(term: &Term, out: &mut BTreeSet<i64>) {
        match term {
            Term::Int(v) => {
                out.insert(*v);
                out.insert(v.saturating_add(1));
                out.insert(v.saturating_sub(1));
            }
            Term::Var(_) => {}
            Term::Add(parts) => parts.iter().for_each(|p| from_term(p, out)),
            Term::Sub(a, b) | Term::Mul(a, b) => {
                from_term(a, out);
                from_term(b, out);
            }
            Term::Neg(a) => from_term(a, out),
            Term::Select(_, idx) => from_term(idx, out),
        }
    }
    match formula {
        Formula::True | Formula::False | Formula::BoolVar(_) => {}
        Formula::Cmp(_, lhs, rhs) => {
            from_term(lhs, out);
            from_term(rhs, out);
        }
        Formula::Divides(d, t) => {
            out.insert(*d as i64);
            from_term(t, out);
        }
        Formula::Not(inner) => collect_constants(inner, out),
        Formula::And(parts) | Formula::Or(parts) => {
            parts.iter().for_each(|p| collect_constants(p, out))
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            collect_constants(a, out);
            collect_constants(b, out);
        }
        Formula::Quant(_, _, body) => collect_constants(body, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_logic::Valuation;

    #[test]
    fn slots_follow_sorted_names_and_literals_get_their_rows() {
        // y >= 2 and x == y.
        let ge = Term::var("y").ge(Term::int(2));
        let eq = Term::var("x").eq(Term::var("y"));
        let atoms = TheoryAtoms::new(&[Some(&ge), None, Some(&eq)]);
        assert_eq!(atoms.rows().width(), 2);
        // y >= 2 asserted: -y + 2 <= 0 over (x, y).
        let r = atoms.literal_rows(0, true).expect("convex");
        assert_eq!(atoms.rows().row(r.start), &[0, -1, 2]);
        // x == y asserted: x - y <= 0 and -x + y <= 0; denied: not convex.
        assert_eq!(atoms.literal_rows(2, true).map(|r| r.len()), Some(2));
        assert_eq!(atoms.literal_rows(2, false), None);
    }

    #[test]
    fn grid_search_agrees_with_formula_evaluation() {
        let lt = Term::var("x").add(Term::var("y")).lt(Term::int(5));
        let div = Formula::divides(3, Term::var("x"));
        let eq = Term::var("y").eq(Term::int(4));
        let formulas = [lt, div, eq];
        let atoms = TheoryAtoms::new(&formulas.iter().map(Some).collect::<Vec<_>>());
        for assignment in 0..8u8 {
            let literals = (0..3).map(move |i| (i, assignment & (1 << i) != 0));
            let conjunction = Formula::and(
                literals
                    .clone()
                    .map(|(i, v)| {
                        let atom = formulas[i].clone();
                        if v {
                            atom
                        } else {
                            Formula::not(atom)
                        }
                    })
                    .collect(),
            );
            let candidates = candidate_values(&conjunction);
            let expected = candidates.iter().any(|&x| {
                candidates.iter().any(|&y| {
                    let mut v = Valuation::new();
                    v.set_int("x", x).set_int("y", y);
                    v.eval(&conjunction) == Ok(true)
                })
            });
            assert_eq!(atoms.has_grid_model(literals), expected, "{conjunction}");
        }
    }
}
