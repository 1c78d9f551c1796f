//! Fourier–Motzkin elimination over the rationals with provenance, used as
//! a fast unsatisfiability pre-check for conjunctions of linear constraints.
//!
//! If the rational relaxation of an integer constraint system is infeasible
//! then the integer system is infeasible too, so a negative answer here lets
//! the solver skip the (complete but more expensive) Cooper-based check.
//!
//! Constraints are dense rows `Σ cᵢ·xᵢ + k ⋈ 0` over a fixed set of variable
//! slots, and every row belongs to a *group* (one DPLL(T) literal). Each row
//! in the working system carries the [`GroupSet`] of the groups whose
//! non-negative combination produced it. A violated ground row therefore
//! names an infeasible subset of the groups directly — a Farkas certificate —
//! and [`FourierMotzkin::minimal_core`] uses it to skip most of the re-solving
//! a greedy deletion scan would otherwise do.
//!
//! Row arithmetic is checked: a combination that overflows `i64` is not a
//! faithful non-negative combination of its parents, so the run reports
//! [`Feasibility::TooLarge`] instead of concluding anything from it.

use std::ops::Range;

/// A set of group indices, one bit per group, sized to the group count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSet {
    words: Vec<u64>,
}

impl GroupSet {
    /// The empty set over `groups` groups.
    pub fn empty(groups: usize) -> Self {
        GroupSet {
            words: vec![0; groups.div_ceil(64)],
        }
    }

    /// The set `{0, …, groups - 1}`.
    pub fn full(groups: usize) -> Self {
        let mut set = GroupSet::empty(groups);
        for g in 0..groups {
            set.insert(g);
        }
        set
    }

    /// Whether group `g` is in the set.
    pub fn contains(&self, g: usize) -> bool {
        self.words[g / 64] & (1 << (g % 64)) != 0
    }

    /// Adds group `g`.
    pub fn insert(&mut self, g: usize) {
        self.words[g / 64] |= 1 << (g % 64);
    }

    /// Removes group `g`.
    pub fn remove(&mut self, g: usize) {
        self.words[g / 64] &= !(1 << (g % 64));
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64)
                .filter(move |b| bits & (1 << b) != 0)
                .map(move |b| w * 64 + b)
        })
    }
}

/// Rows `Σ cᵢ·xᵢ + k ⋈ 0` over `width` dense variable slots, where `⋈` is
/// `<` for strict rows and `<=` otherwise.
#[derive(Debug, Clone, Default)]
pub struct Rows {
    width: usize,
    /// Per row: `width` coefficients, then the constant.
    data: Vec<i64>,
    strict: Vec<bool>,
}

impl Rows {
    /// An empty row set over `width` slots.
    pub fn new(width: usize) -> Self {
        Rows {
            width,
            data: Vec::new(),
            strict: Vec::new(),
        }
    }

    /// Number of variable slots.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.strict.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.strict.is_empty()
    }

    /// Appends `coeffs · x + constant ⋈ 0`; `coeffs` has one entry per slot.
    pub fn push(&mut self, coeffs: &[i64], constant: i64, strict: bool) {
        assert_eq!(coeffs.len(), self.width, "one coefficient per slot");
        self.data.extend_from_slice(coeffs);
        self.data.push(constant);
        self.strict.push(strict);
    }

    /// Row `r`: its coefficients followed by its constant.
    pub(crate) fn row(&self, r: usize) -> &[i64] {
        let stride = self.width + 1;
        &self.data[r * stride..(r + 1) * stride]
    }
}

/// The result of the rational feasibility pre-check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Feasibility {
    /// The rational relaxation has a solution (the integer problem may or may
    /// not have one).
    Feasible,
    /// The rational relaxation is infeasible, hence so is the integer
    /// problem. Carries the groups of the violated ground row: their rows
    /// alone are already infeasible.
    Infeasible(GroupSet),
    /// The system grew beyond the configured limit or a row combination
    /// overflowed `i64`; no conclusion.
    TooLarge,
}

/// The working system of one elimination run: rows plus their provenance.
#[derive(Debug, Default)]
struct Work {
    rows: Rows,
    /// Provenance words per row.
    words: usize,
    prov: Vec<u64>,
}

impl Work {
    fn reset(&mut self, width: usize, words: usize) {
        self.rows.width = width;
        self.rows.data.clear();
        self.rows.strict.clear();
        self.words = words;
        self.prov.clear();
    }

    fn prov(&self, r: usize) -> &[u64] {
        &self.prov[r * self.words..(r + 1) * self.words]
    }

    fn push(&mut self, row: &[i64], strict: bool, prov: &[u64]) {
        self.rows.data.extend_from_slice(row);
        self.rows.strict.push(strict);
        self.prov.extend_from_slice(prov);
    }
}

/// Whether a ground row `0 + k ⋈ 0` is violated.
fn violated(constant: i64, strict: bool) -> bool {
    if strict {
        constant >= 0
    } else {
        constant > 0
    }
}

/// A reusable Fourier–Motzkin engine: the buffers of one run are kept for the
/// next, so a whole DPLL(T) query's checks and minimisations allocate little.
#[derive(Debug)]
pub struct FourierMotzkin {
    limit: usize,
    cur: Work,
    next: Work,
    /// Rows of `cur` with a positive / negative coefficient on the
    /// variable being eliminated.
    uppers: Vec<usize>,
    lowers: Vec<usize>,
    /// Per-slot counts of positive / negative coefficients.
    pos: Vec<usize>,
    neg: Vec<usize>,
    /// Scratch for one row being built, and its provenance.
    combined: Vec<i64>,
    combined_prov: Vec<u64>,
    too_large: usize,
}

impl FourierMotzkin {
    /// An engine whose intermediate systems may hold at most `limit` rows;
    /// a larger system yields [`Feasibility::TooLarge`].
    pub fn new(limit: usize) -> Self {
        FourierMotzkin {
            limit,
            cur: Work::default(),
            next: Work::default(),
            uppers: Vec::new(),
            lowers: Vec::new(),
            pos: Vec::new(),
            neg: Vec::new(),
            combined: Vec::new(),
            combined_prov: Vec::new(),
            too_large: 0,
        }
    }

    /// Returns and resets the number of [`FourierMotzkin::check`] runs that
    /// ended in [`Feasibility::TooLarge`].
    pub fn take_too_large(&mut self) -> usize {
        std::mem::take(&mut self.too_large)
    }

    /// Checks rational feasibility of the rows of the `active` groups.
    /// Group `g` owns the rows `groups[g]` of `rows`.
    pub fn check(
        &mut self,
        rows: &Rows,
        groups: &[Range<usize>],
        active: &GroupSet,
    ) -> Feasibility {
        let verdict = self.run(rows, groups, active);
        if verdict == Feasibility::TooLarge {
            self.too_large += 1;
        }
        verdict
    }

    /// Shrinks the infeasible system of all groups, given a `certificate` of
    /// its infeasibility, to a minimal core: dropping any remaining group
    /// makes [`FourierMotzkin::check`] stop reporting infeasibility.
    ///
    /// The scan is the greedy deletion scan in group order, guided by the
    /// current certificate `C`. Dropping a group outside `C` keeps `C` in the
    /// remaining system, so it stays infeasible without an elimination run.
    /// Only groups in `C` are re-checked; an infeasible answer replaces `C`.
    /// Provided no run reports [`Feasibility::TooLarge`], the result is the
    /// core the unguided scan (one run per group) returns.
    ///
    /// Returns the core's group indices in ascending order.
    pub fn minimal_core(
        &mut self,
        rows: &Rows,
        groups: &[Range<usize>],
        mut certificate: GroupSet,
    ) -> Vec<usize> {
        let mut active = GroupSet::full(groups.len());
        for g in 0..groups.len() {
            active.remove(g);
            if !certificate.contains(g) {
                continue;
            }
            match self.check(rows, groups, &active) {
                Feasibility::Infeasible(c) => certificate = c,
                Feasibility::Feasible | Feasibility::TooLarge => active.insert(g),
            }
        }
        debug_assert!(
            matches!(self.run(rows, groups, &active), Feasibility::Infeasible(_)),
            "a minimal core must be infeasible on its own"
        );
        active.iter().collect()
    }

    fn run(&mut self, rows: &Rows, groups: &[Range<usize>], active: &GroupSet) -> Feasibility {
        let width = rows.width();
        let words = groups.len().div_ceil(64);
        self.cur.reset(width, words);
        // Ground rows decide immediately or disappear.
        let prov = &mut self.combined_prov;
        for (g, range) in groups.iter().enumerate() {
            if !active.contains(g) {
                continue;
            }
            prov.clear();
            prov.resize(words, 0);
            prov[g / 64] = 1 << (g % 64);
            for r in range.clone() {
                let row = rows.row(r);
                let strict = rows.strict[r];
                if row[..width].iter().all(|&c| c == 0) {
                    if violated(row[width], strict) {
                        return Feasibility::Infeasible(GroupSet {
                            words: prov.clone(),
                        });
                    }
                } else {
                    self.cur.push(row, strict, prov);
                }
            }
        }
        loop {
            if self.cur.rows.is_empty() {
                return Feasibility::Feasible;
            }
            if self.cur.rows.len() > self.limit {
                return Feasibility::TooLarge;
            }
            let Some(var) = self.pick_variable() else {
                return Feasibility::Feasible;
            };
            if let Some(verdict) = self.eliminate(var) {
                return verdict;
            }
            std::mem::swap(&mut self.cur, &mut self.next);
        }
    }

    /// The slot that minimises the number of generated pairs `p·n + p + n`;
    /// the first slot wins a tie. Slots are ordered by variable name, so
    /// this is the name-ordered choice.
    fn pick_variable(&mut self) -> Option<usize> {
        let width = self.cur.rows.width;
        self.pos.clear();
        self.pos.resize(width, 0);
        self.neg.clear();
        self.neg.resize(width, 0);
        for r in 0..self.cur.rows.len() {
            for (s, &c) in self.cur.rows.row(r)[..width].iter().enumerate() {
                if c > 0 {
                    self.pos[s] += 1;
                } else if c < 0 {
                    self.neg[s] += 1;
                }
            }
        }
        let mut best: Option<(usize, usize)> = None;
        for s in 0..width {
            let (p, n) = (self.pos[s], self.neg[s]);
            if p + n == 0 {
                continue;
            }
            let cost = p * n + p + n;
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, s));
            }
        }
        best.map(|(_, s)| s)
    }

    /// Eliminates `var` from `cur` into `next`: the rows without `var` in
    /// order, then every `upper × lower` combination. Ground combinations
    /// are decided on the spot, exactly as the next round's ground filter
    /// would decide them. Returns a verdict when the run ends here.
    fn eliminate(&mut self, var: usize) -> Option<Feasibility> {
        let width = self.cur.rows.width;
        let words = self.cur.words;
        self.next.reset(width, words);
        self.uppers.clear();
        self.lowers.clear();
        for r in 0..self.cur.rows.len() {
            let c = self.cur.rows.row(r)[var];
            if c > 0 {
                self.uppers.push(r);
            } else if c < 0 {
                self.lowers.push(r);
            } else {
                let (row, strict, prov) = (
                    self.cur.rows.row(r),
                    self.cur.rows.strict[r],
                    self.cur.prov(r),
                );
                self.next.push(row, strict, prov);
            }
        }
        self.combined.resize(width + 1, 0);
        self.combined_prov.resize(words, 0);
        for &up in &self.uppers {
            let up_row = self.cur.rows.row(up);
            let a = up_row[var];
            for &low in &self.lowers {
                let low_row = self.cur.rows.row(low);
                // b·up + a·low eliminates var (a, b > 0).
                let Some(b) = low_row[var].checked_neg() else {
                    return Some(Feasibility::TooLarge);
                };
                for ((out, &u), &l) in self.combined.iter_mut().zip(up_row).zip(low_row) {
                    match b
                        .checked_mul(u)
                        .and_then(|bu| a.checked_mul(l).and_then(|al| bu.checked_add(al)))
                    {
                        Some(v) => *out = v,
                        None => return Some(Feasibility::TooLarge),
                    }
                }
                let strict = self.cur.rows.strict[up] || self.cur.rows.strict[low];
                for ((out, &u), &l) in self
                    .combined_prov
                    .iter_mut()
                    .zip(self.cur.prov(up))
                    .zip(self.cur.prov(low))
                {
                    *out = u | l;
                }
                if self.combined[..width].iter().all(|&c| c == 0) {
                    if violated(self.combined[width], strict) {
                        return Some(Feasibility::Infeasible(GroupSet {
                            words: self.combined_prov.clone(),
                        }));
                    }
                } else if self.next.rows.len() <= self.limit {
                    // Past the limit the run is TooLarge unless a later
                    // combination is violated, so further rows need no room.
                    self.next.push(&self.combined, strict, &self.combined_prov);
                }
            }
        }
        None
    }
}

#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds one group per row over slots `x, y, …` from
    /// `(coefficients, constant, strict)`.
    fn system(width: usize, rows: &[(&[i64], i64, bool)]) -> (Rows, Vec<Range<usize>>) {
        let mut out = Rows::new(width);
        for (coeffs, constant, strict) in rows {
            out.push(coeffs, *constant, *strict);
        }
        (out, (0..rows.len()).map(|r| r..r + 1).collect())
    }

    fn check(width: usize, rows: &[(&[i64], i64, bool)], limit: usize) -> Feasibility {
        let (rows, groups) = system(width, rows);
        FourierMotzkin::new(limit).check(&rows, &groups, &GroupSet::full(groups.len()))
    }

    fn is_infeasible(verdict: &Feasibility) -> bool {
        matches!(verdict, Feasibility::Infeasible(_))
    }

    #[test]
    fn simple_feasible_system() {
        // x - 10 <= 0 && -x <= 0
        let verdict = check(1, &[(&[1], -10, false), (&[-1], 0, false)], 1000);
        assert_eq!(verdict, Feasibility::Feasible);
    }

    #[test]
    fn contradictory_bounds_are_infeasible() {
        // x - 1 <= 0 && 2 - x <= 0  (x <= 1 && x >= 2)
        let verdict = check(1, &[(&[1], -1, false), (&[-1], 2, false)], 1000);
        assert!(is_infeasible(&verdict));
    }

    #[test]
    fn strictness_matters() {
        // x <= 0 && -x <= 0 is feasible (x = 0), but x < 0 && -x <= 0 is not.
        let verdict = check(1, &[(&[1], 0, false), (&[-1], 0, false)], 1000);
        assert_eq!(verdict, Feasibility::Feasible);
        let verdict = check(1, &[(&[1], 0, true), (&[-1], 0, false)], 1000);
        assert!(is_infeasible(&verdict));
    }

    #[test]
    fn multi_variable_chain() {
        // Slots x, y, z: x <= y && y <= z && z <= x - 1 is infeasible.
        let verdict = check(
            3,
            &[
                (&[1, -1, 0], 0, false),
                (&[0, 1, -1], 0, false),
                (&[-1, 0, 1], 1, false),
            ],
            1000,
        );
        assert!(is_infeasible(&verdict));
        // Relaxing the last constraint makes it feasible.
        let verdict = check(
            3,
            &[
                (&[1, -1, 0], 0, false),
                (&[0, 1, -1], 0, false),
                (&[-1, 0, 1], 0, false),
            ],
            1000,
        );
        assert_eq!(verdict, Feasibility::Feasible);
    }

    #[test]
    fn rational_relaxation_can_miss_integer_infeasibility() {
        // 1 <= 2x <= 1 has the rational solution x = 1/2 but no integer one;
        // the pre-check must (correctly) report Feasible — completeness for
        // integers is Cooper's job.
        let verdict = check(1, &[(&[-2], 1, false), (&[2], -1, false)], 1000);
        assert_eq!(verdict, Feasibility::Feasible);
    }

    #[test]
    fn size_limit_reports_too_large() {
        // A dense system over 6 variables.
        let rows: Vec<Vec<i64>> = (0..12usize)
            .map(|i| {
                (0..6usize)
                    .map(|v| if (i + v) % 2 == 0 { 1 } else { -1 })
                    .collect()
            })
            .collect();
        let rows: Vec<(&[i64], i64, bool)> =
            rows.iter().map(|r| (r.as_slice(), 1, false)).collect();
        // With an absurdly small limit the check refuses to conclude.
        assert_eq!(check(6, &rows, 2), Feasibility::TooLarge);
        let (rows, groups) = system(6, &rows);
        let mut fm = FourierMotzkin::new(2);
        fm.check(&rows, &groups, &GroupSet::full(groups.len()));
        assert_eq!(fm.take_too_large(), 1);
        assert_eq!(fm.take_too_large(), 0);
    }

    #[test]
    fn overflowing_combination_is_too_large_not_infeasible() {
        // Slots x, y: x + M·y <= 0 and -2x - M·y + 1 <= 0 with M = i64::MAX.
        // Eliminating x computes 2·M·y - M·y, whose first product overflows.
        // Saturating arithmetic turns the combination into the ground row
        // 0·y + 1 <= 0 and reports a contradiction, yet x = 2^62, y = -1
        // satisfies both rows.
        const M: i64 = i64::MAX;
        let rows: [(&[i64], i64, bool); 2] = [(&[1, M], 0, false), (&[-2, -M], 1, false)];
        let (x, y) = (1i128 << 62, -1i128);
        for (coeffs, constant, _) in &rows {
            let value = coeffs[0] as i128 * x + coeffs[1] as i128 * y + *constant as i128;
            assert!(value <= 0, "the witness satisfies every row");
        }
        assert_eq!(check(2, &rows, 1000), Feasibility::TooLarge);
    }

    #[test]
    fn certificate_names_an_infeasible_subset() {
        // x <= 0 (g0), y <= 0 (g1), -x + 1 <= 0 (g2): only g0 and g2 clash.
        let verdict = check(
            2,
            &[
                (&[1, 0], 0, false),
                (&[0, 1], 0, false),
                (&[-1, 0], 1, false),
            ],
            1000,
        );
        let Feasibility::Infeasible(certificate) = verdict else {
            panic!("expected infeasible, got {verdict:?}");
        };
        assert_eq!(certificate.iter().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn group_sets_grow_past_one_word() {
        let mut set = GroupSet::empty(130);
        for g in [0, 63, 64, 129] {
            set.insert(g);
        }
        set.remove(63);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
        assert_eq!(GroupSet::full(130).iter().count(), 130);
        assert!(!GroupSet::full(3).contains(3));
    }
}
