//! Clause storage: one flat arena of 32-bit words.
//!
//! Every clause lives inline in a single `Vec<u32>` ([`ClauseDb`]): a
//! fixed [`HEADER_WORDS`]-word header followed by its literals, so a
//! watch visit touches one contiguous run of memory instead of chasing a
//! per-clause heap pointer. A [`ClauseRef`] is the word offset of the
//! header.
//!
//! Header layout (word index → contents):
//!
//! | word | contents |
//! |------|----------|
//! | 0 | literal count |
//! | 1 | allocated literal slots (≥ count; strengthening shrinks in place and leaves slack) |
//! | 2 | flags: learnt (bit 0), deleted (bit 1), tier (bits 2–3), use credits (bits 8–15) |
//! | 3 | LBD |
//! | 4, 5 | activity (`f64` bits, low word first) |
//!
//! Deletion is by tombstone: learnt clauses removed during database
//! reduction are marked deleted and detached from the watch lists, so
//! `ClauseRef`s held as propagation reasons stay valid (reason clauses
//! are additionally *locked* and never deleted while locked).
//! Tombstones and in-place slack accumulate across long incremental
//! runs; [`ClauseDb::compact`] reclaims both with one sliding copy and
//! returns a [`Relocation`] table the solver uses to rewrite every live
//! `ClauseRef` (watch lists and reason slots).

use crate::lit::Lit;

/// Stable reference to a clause in the [`ClauseDb`]: the word offset of
/// its header in the arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ClauseRef(pub(crate) u32);

/// Words of clause header preceding the literals.
pub(crate) const HEADER_WORDS: usize = 6;

const LEN: usize = 0;
const CAP: usize = 1;
const FLAGS: usize = 2;
const LBD: usize = 3;
const ACT_LO: usize = 4;
const ACT_HI: usize = 5;

const LEARNT: u32 = 1;
const DELETED: u32 = 1 << 1;
const TIER_SHIFT: u32 = 2;
const TIER_MASK: u32 = 0b11 << TIER_SHIFT;
const USED_SHIFT: u32 = 8;
const USED_MASK: u32 = 0xFF << USED_SHIFT;

/// Largest arena offset a [`ClauseRef`] may hold: watchers keep a flag
/// in the top bit of the offset.
pub(crate) const MAX_OFFSET: usize = (1 << 31) - 1;

/// Largest LBD admitted to the core tier (kept forever).
pub(crate) const CORE_LBD_MAX: u32 = 2;
/// Largest LBD admitted to the mid tier on learning or promotion.
pub(crate) const MID_LBD_MAX: u32 = 6;

/// Retention tier of a learnt clause (CaDiCaL-style three-tier
/// discipline). Core clauses are never deleted by ordinary reduction;
/// mid-tier clauses survive while recently used and demote to local when
/// idle; local clauses are the activity-sorted delete-half pool.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Tier {
    /// Glue clauses (LBD ≤ [`CORE_LBD_MAX`]): kept forever.
    Core,
    /// Mid-quality clauses (LBD ≤ [`MID_LBD_MAX`]): kept while used.
    Mid,
    /// Everything else: candidates for delete-half reduction.
    Local,
}

impl Tier {
    /// The tier a clause of the given LBD enters on learning.
    pub(crate) fn for_lbd(lbd: u32) -> Tier {
        if lbd <= CORE_LBD_MAX {
            Tier::Core
        } else if lbd <= MID_LBD_MAX {
            Tier::Mid
        } else {
            Tier::Local
        }
    }

    fn bits(self) -> u32 {
        (self as u32) << TIER_SHIFT
    }

    fn from_flags(flags: u32) -> Tier {
        match (flags & TIER_MASK) >> TIER_SHIFT {
            0 => Tier::Core,
            1 => Tier::Mid,
            _ => Tier::Local,
        }
    }
}

/// Old-offset → new-offset table produced by [`ClauseDb::compact`],
/// ascending in both columns (the sliding copy preserves allocation
/// order). Offsets of reclaimed tombstones are absent.
#[derive(Clone, Debug, Default)]
pub(crate) struct Relocation {
    moves: Vec<(u32, u32)>,
}

impl Relocation {
    /// Where the clause formerly at `old` lives now, or `None` when `old`
    /// is not the offset of a surviving clause (a reclaimed tombstone or
    /// no clause header at all).
    pub(crate) fn get(&self, old: ClauseRef) -> Option<ClauseRef> {
        self.moves
            .binary_search_by_key(&old.0, |&(o, _)| o)
            .ok()
            .map(|i| ClauseRef(self.moves[i].1))
    }
}

/// Cursor over clause headers in allocation order, bounded by the arena
/// end at creation time: clauses allocated during the walk are not
/// visited, and the walk never borrows the database, so the visitor may
/// mutate it (delete, rewrite in place) between steps.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Walk {
    next: u32,
    end: u32,
}

impl Walk {
    /// The next clause header (tombstones included), if any.
    pub(crate) fn next(&mut self, db: &ClauseDb) -> Option<ClauseRef> {
        if self.next >= self.end {
            return None;
        }
        let r = ClauseRef(self.next);
        self.next += (HEADER_WORDS as u32) + db.arena[r.0 as usize + CAP];
        Some(r)
    }
}

/// The clause arena.
#[derive(Clone, Debug)]
pub struct ClauseDb {
    arena: Vec<u32>,
    /// Live learnt clauses.
    pub(crate) num_learnt: usize,
    clause_inc: f64,
    /// Live clauses, original and learnt.
    num_live: usize,
    /// Tombstoned clauses awaiting compaction.
    pub(crate) num_deleted: usize,
    /// Live learnt clauses per tier, indexed by `Tier as usize`.
    tiers: [usize; 3],
    /// High-water mark of [`ClauseDb::arena_bytes`], sampled on alloc.
    pub(crate) peak_bytes: usize,
}

impl ClauseDb {
    pub(crate) fn new() -> Self {
        ClauseDb {
            arena: Vec::new(),
            num_learnt: 0,
            clause_inc: 1.0,
            num_live: 0,
            num_deleted: 0,
            tiers: [0; 3],
            peak_bytes: 0,
        }
    }

    pub(crate) fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "unit/empty clauses are not stored");
        let off = self.arena.len();
        assert!(
            off + HEADER_WORDS + lits.len() <= MAX_OFFSET,
            "clause arena exceeds 2^31 words"
        );
        let tier = Tier::for_lbd(lbd);
        let mut flags = tier.bits();
        if learnt {
            flags |= LEARNT | 1 << USED_SHIFT;
            self.num_learnt += 1;
            self.tiers[tier as usize] += 1;
        }
        let n = lits.len() as u32;
        let act = 0.0f64.to_bits();
        self.arena
            .extend_from_slice(&[n, n, flags, lbd, act as u32, (act >> 32) as u32]);
        self.arena.extend(lits.iter().map(|l| l.0));
        self.num_live += 1;
        self.peak_bytes = self.peak_bytes.max(self.arena_bytes());
        ClauseRef(off as u32)
    }

    /// Bytes currently held by the arena: its allocated capacity
    /// (tombstones and slack included — they occupy memory until
    /// [`ClauseDb::compact`] reclaims them).
    pub(crate) fn arena_bytes(&self) -> usize {
        self.arena.capacity() * std::mem::size_of::<u32>()
    }

    fn word(&self, r: ClauseRef, w: usize) -> u32 {
        self.arena[r.0 as usize + w]
    }

    fn flags(&self, r: ClauseRef) -> u32 {
        self.word(r, FLAGS)
    }

    fn set_flags(&mut self, r: ClauseRef, flags: u32) {
        self.arena[r.0 as usize + FLAGS] = flags;
    }

    /// Number of literals in the clause.
    #[inline]
    pub(crate) fn len(&self, r: ClauseRef) -> usize {
        self.word(r, LEN) as usize
    }

    /// The `k`-th literal of the clause.
    #[inline]
    pub(crate) fn lit(&self, r: ClauseRef, k: usize) -> Lit {
        Lit(self.arena[r.0 as usize + HEADER_WORDS + k])
    }

    /// The clause's literals as raw codes (`Lit::code`), mutable in place
    /// for the propagation loop's watch swaps.
    #[inline]
    pub(crate) fn codes_mut(&mut self, r: ClauseRef) -> &mut [u32] {
        let base = r.0 as usize + HEADER_WORDS;
        let n = self.arena[r.0 as usize + LEN] as usize;
        &mut self.arena[base..base + n]
    }

    /// The clause's literals in order.
    pub(crate) fn lits(&self, r: ClauseRef) -> impl ExactSizeIterator<Item = Lit> + Clone + '_ {
        let base = r.0 as usize + HEADER_WORDS;
        self.arena[base..base + self.len(r)].iter().map(|&w| Lit(w))
    }

    /// Whether the clause contains literal `l`.
    pub(crate) fn contains(&self, r: ClauseRef, l: Lit) -> bool {
        self.lits(r).any(|x| x == l)
    }

    /// Replaces the clause's literals in place with the shorter `lits`
    /// (strengthening, vivification, root simplification). The freed
    /// slots stay allocated as slack until the next compaction.
    pub(crate) fn rewrite(&mut self, r: ClauseRef, lits: &[Lit]) {
        let base = r.0 as usize;
        assert!(
            lits.len() <= self.arena[base + CAP] as usize,
            "a rewrite may not outgrow the clause's allocation"
        );
        self.arena[base + LEN] = lits.len() as u32;
        for (slot, l) in self.arena[base + HEADER_WORDS..].iter_mut().zip(lits) {
            *slot = l.0;
        }
    }

    pub(crate) fn is_learnt(&self, r: ClauseRef) -> bool {
        self.flags(r) & LEARNT != 0
    }

    pub(crate) fn is_deleted(&self, r: ClauseRef) -> bool {
        self.flags(r) & DELETED != 0
    }

    pub(crate) fn lbd(&self, r: ClauseRef) -> u32 {
        self.word(r, LBD)
    }

    pub(crate) fn set_lbd(&mut self, r: ClauseRef, lbd: u32) {
        self.arena[r.0 as usize + LBD] = lbd;
    }

    pub(crate) fn activity(&self, r: ClauseRef) -> f64 {
        let lo = u64::from(self.word(r, ACT_LO));
        let hi = u64::from(self.word(r, ACT_HI));
        f64::from_bits(hi << 32 | lo)
    }

    fn set_activity(&mut self, r: ClauseRef, a: f64) {
        let bits = a.to_bits();
        self.arena[r.0 as usize + ACT_LO] = bits as u32;
        self.arena[r.0 as usize + ACT_HI] = (bits >> 32) as u32;
    }

    /// Retention tier (meaningful for learnt clauses only).
    pub(crate) fn tier(&self, r: ClauseRef) -> Tier {
        Tier::from_flags(self.flags(r))
    }

    /// Moves a live learnt clause to another tier, keeping the per-tier
    /// counters in step.
    pub(crate) fn set_tier(&mut self, r: ClauseRef, tier: Tier) {
        debug_assert!(self.is_learnt(r) && !self.is_deleted(r));
        let old = self.tier(r);
        self.tiers[old as usize] -= 1;
        self.tiers[tier as usize] += 1;
        self.set_flags(r, self.flags(r) & !TIER_MASK | tier.bits());
    }

    /// Use credits: set on learning and on every use in conflict
    /// analysis, spent one per database reduction. A mid-tier clause
    /// that runs out demotes to local; a local clause with credits is
    /// protected from the next delete-half pass.
    pub(crate) fn used(&self, r: ClauseRef) -> u8 {
        ((self.flags(r) & USED_MASK) >> USED_SHIFT) as u8
    }

    pub(crate) fn set_used(&mut self, r: ClauseRef, used: u8) {
        self.set_flags(
            r,
            self.flags(r) & !USED_MASK | u32::from(used) << USED_SHIFT,
        );
    }

    pub(crate) fn delete(&mut self, r: ClauseRef) {
        let flags = self.flags(r);
        debug_assert!(flags & DELETED == 0);
        if flags & LEARNT != 0 {
            self.num_learnt -= 1;
            self.tiers[Tier::from_flags(flags) as usize] -= 1;
        }
        self.set_flags(r, flags | DELETED);
        self.num_live -= 1;
        self.num_deleted += 1;
    }

    /// A header walk over every clause allocated so far.
    pub(crate) fn walk(&self) -> Walk {
        Walk {
            next: 0,
            end: self.arena.len() as u32,
        }
    }

    /// All live learnt clause refs in allocation order, collected into
    /// the caller's scratch buffer (cleared first) so repeated database
    /// reductions reuse one allocation.
    pub(crate) fn learnt_refs_into(&self, out: &mut Vec<ClauseRef>) {
        out.clear();
        let mut walk = self.walk();
        while let Some(r) = walk.next(self) {
            if self.flags(r) & (LEARNT | DELETED) == LEARNT {
                out.push(r);
            }
        }
    }

    /// Reclaims every tombstone and every clause's in-place slack by
    /// sliding live clauses down in one pass, returning the relocation
    /// table. The caller must rewrite every `ClauseRef` it holds — watch
    /// lists and reason slots — through it; stale refs are rejected by
    /// [`Relocation::get`], not left dangling.
    pub(crate) fn compact(&mut self) -> Relocation {
        let mut moves = Vec::with_capacity(self.num_live);
        let mut read = 0usize;
        let mut write = 0usize;
        while read < self.arena.len() {
            let len = self.arena[read + LEN] as usize;
            let next = read + HEADER_WORDS + self.arena[read + CAP] as usize;
            if self.arena[read + FLAGS] & DELETED == 0 {
                moves.push((read as u32, write as u32));
                self.arena
                    .copy_within(read..read + HEADER_WORDS + len, write);
                self.arena[write + CAP] = len as u32;
                write += HEADER_WORDS + len;
            }
            read = next;
        }
        self.arena.truncate(write);
        self.num_deleted = 0;
        Relocation { moves }
    }

    /// Releases the arena's spare capacity back to the allocator.
    /// [`ClauseDb::compact`] truncates but deliberately keeps capacity for
    /// steady-state reuse; emergency memory reclamation wants it gone,
    /// since [`ClauseDb::arena_bytes`] counts capacity, not length.
    pub(crate) fn shrink(&mut self) {
        self.arena.shrink_to_fit();
    }

    pub(crate) fn bump_activity(&mut self, r: ClauseRef) {
        let a = self.activity(r) + self.clause_inc;
        self.set_activity(r, a);
        if a > 1e20 {
            let mut walk = self.walk();
            while let Some(c) = walk.next(self) {
                self.set_activity(c, self.activity(c) * 1e-20);
            }
            self.clause_inc *= 1e-20;
        }
    }

    pub(crate) fn decay_activity(&mut self) {
        self.clause_inc /= 0.999;
    }

    /// Number of live clauses (original + learnt).
    pub(crate) fn num_live(&self) -> usize {
        self.num_live
    }

    /// Live learnt clauses per retention tier: `(core, mid, local)`.
    pub(crate) fn tier_counts(&self) -> (usize, usize, usize) {
        (self.tiers[0], self.tiers[1], self.tiers[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Lit;

    fn lits(v: &[i32]) -> Vec<Lit> {
        v.iter().map(|&l| Lit::from_dimacs(l)).collect()
    }

    fn dimacs(db: &ClauseDb, r: ClauseRef) -> Vec<i32> {
        db.lits(r).map(Lit::to_dimacs).collect()
    }

    /// Recounts every O(1) counter with a full header walk and checks
    /// it against the incrementally maintained value.
    fn assert_counters(db: &ClauseDb) {
        let (mut live, mut deleted, mut learnt, mut tiers) = (0, 0, 0, [0usize; 3]);
        let mut walk = db.walk();
        while let Some(r) = walk.next(db) {
            if db.is_deleted(r) {
                deleted += 1;
                continue;
            }
            live += 1;
            if db.is_learnt(r) {
                learnt += 1;
                tiers[db.tier(r) as usize] += 1;
            }
        }
        assert_eq!(db.num_live(), live, "num_live");
        assert_eq!(db.num_deleted, deleted, "num_deleted");
        assert_eq!(db.num_learnt, learnt, "num_learnt");
        assert_eq!(db.tier_counts(), (tiers[0], tiers[1], tiers[2]), "tiers");
    }

    #[test]
    fn alloc_and_get() {
        let mut db = ClauseDb::new();
        let r = db.alloc(&lits(&[1, -2, 3]), false, 0);
        assert_eq!(db.len(r), 3);
        assert_eq!(dimacs(&db, r), [1, -2, 3]);
        assert!(!db.is_learnt(r));
        assert_eq!(db.num_learnt, 0);
        assert_counters(&db);
    }

    #[test]
    fn learnt_counting_and_delete() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), true, 2);
        let b = db.alloc(&lits(&[1, 3]), true, 3);
        assert_eq!(db.num_learnt, 2);
        db.delete(a);
        assert_eq!(db.num_learnt, 1);
        assert!(db.is_deleted(a));
        let mut refs = Vec::new();
        db.learnt_refs_into(&mut refs);
        assert_eq!(refs, vec![b]);
        assert_eq!(db.num_live(), 1);
        assert_eq!(db.num_deleted, 1);
        assert_counters(&db);
    }

    #[test]
    fn compact_reclaims_tombstones_and_maps_survivors() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), false, 0);
        let b = db.alloc(&lits(&[1, 3]), true, 2);
        let c = db.alloc(&lits(&[2, 3, 4]), true, 3);
        db.delete(b);
        let map = db.compact();
        assert_eq!(map.get(a), Some(ClauseRef(0)));
        assert_eq!(map.get(b), None);
        let c2 = map.get(c).expect("survivor relocated");
        assert_eq!(c2, ClauseRef((HEADER_WORDS + 2) as u32));
        assert_eq!(db.num_live(), 2);
        assert_eq!(db.num_deleted, 0);
        // Surviving clauses keep their contents at the remapped offsets.
        assert_eq!(dimacs(&db, c2), [2, 3, 4]);
        assert!(db.is_learnt(c2));
        assert_eq!(db.lbd(c2), 3);
        assert_counters(&db);
    }

    #[test]
    fn peak_bytes_grows_with_allocation() {
        let mut db = ClauseDb::new();
        assert_eq!(db.peak_bytes, 0);
        let _ = db.alloc(&lits(&[1, 2, 3]), false, 0);
        let after_one = db.peak_bytes;
        assert!(after_one > 0);
        let r = db.alloc(&lits(&[1, 2, 3, 4]), true, 2);
        assert!(db.peak_bytes > after_one);
        // Compaction plus shrink releases bytes but never lowers the peak.
        let peak = db.peak_bytes;
        db.delete(r);
        let _ = db.compact();
        db.shrink();
        assert!(db.arena_bytes() < peak);
        assert_eq!(db.peak_bytes, peak);
    }

    #[test]
    fn tiers_assigned_by_lbd_and_counted() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2, 3]), true, 2);
        let b = db.alloc(&lits(&[1, 2, 3]), true, 5);
        let c = db.alloc(&lits(&[1, 2, 3]), true, 9);
        // Original clauses never count toward the tiers.
        let o = db.alloc(&lits(&[4, 5]), false, 0);
        assert_eq!(db.tier(a), Tier::Core);
        assert_eq!(db.tier(b), Tier::Mid);
        assert_eq!(db.tier(c), Tier::Local);
        assert_eq!(db.used(a), 1);
        assert_eq!(db.used(o), 0);
        assert_eq!(db.tier_counts(), (1, 1, 1));
        db.delete(b);
        assert_eq!(db.tier_counts(), (1, 0, 1));
        db.set_tier(c, Tier::Mid);
        assert_eq!(db.tier_counts(), (1, 1, 0));
        db.set_used(c, 2);
        assert_eq!(db.used(c), 2);
        assert_eq!(db.tier(c), Tier::Mid, "credits and tier share a word");
        assert_counters(&db);
    }

    #[test]
    fn activity_rescale_keeps_order() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), true, 2);
        let b = db.alloc(&lits(&[1, 3]), true, 2);
        for _ in 0..10 {
            db.bump_activity(a);
        }
        db.bump_activity(b);
        assert!(db.activity(a) > db.activity(b));
    }

    #[test]
    fn shrink_in_place_then_compact_skips_slack() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2, 3, 4, 5]), false, 0);
        let b = db.alloc(&lits(&[-1, 6]), true, 2);
        let c = db.alloc(&lits(&[7, 8, 9]), false, 0);
        db.rewrite(a, &lits(&[2, 5]));
        assert_eq!(dimacs(&db, a), [2, 5]);
        // The walk steps over a's three slack slots to reach b and c.
        let mut walk = db.walk();
        let seen: Vec<ClauseRef> = std::iter::from_fn(|| walk.next(&db)).collect();
        assert_eq!(seen, [a, b, c]);
        let words_before = db.arena.len();
        let map = db.compact();
        assert_eq!(db.arena.len(), words_before - 3, "slack reclaimed");
        let (a2, b2, c2) = (
            map.get(a).unwrap(),
            map.get(b).unwrap(),
            map.get(c).unwrap(),
        );
        assert_eq!(dimacs(&db, a2), [2, 5]);
        assert_eq!(dimacs(&db, b2), [-1, 6]);
        assert_eq!(dimacs(&db, c2), [7, 8, 9]);
        let mut walk = db.walk();
        let seen: Vec<ClauseRef> = std::iter::from_fn(|| walk.next(&db)).collect();
        assert_eq!(seen, [a2, b2, c2]);
        assert_counters(&db);
    }

    #[test]
    fn relocation_maps_every_live_offset_and_rejects_stale_ones() {
        let mut db = ClauseDb::new();
        let refs: Vec<ClauseRef> = (1..=20)
            .map(|i| db.alloc(&lits(&[i, i + 1, -(i + 2)]), i % 2 == 0, 4))
            .collect();
        for &r in refs.iter().step_by(3) {
            db.delete(r);
        }
        let contents: Vec<Vec<i32>> = refs.iter().map(|&r| dimacs(&db, r)).collect();
        let map = db.compact();
        let mut last = None;
        for (i, &r) in refs.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(map.get(r), None, "tombstone {r:?} must not relocate");
                continue;
            }
            let n = map.get(r).expect("live clause relocated");
            assert!(last < Some(n), "relocation keeps allocation order");
            last = Some(n);
            assert_eq!(dimacs(&db, n), contents[i]);
        }
        // An offset that never held a header is rejected as well.
        assert_eq!(map.get(ClauseRef(refs[1].0 + 1)), None);
        assert_counters(&db);
    }

    #[test]
    fn arena_bytes_is_exact_capacity() {
        let mut db = ClauseDb::new();
        assert_eq!(db.arena_bytes(), 0);
        for i in 1..=50 {
            let _ = db.alloc(&lits(&[i, -(i + 1), i + 2]), true, 3);
            assert_eq!(db.arena_bytes(), db.arena.capacity() * 4);
        }
        db.shrink();
        assert_eq!(db.arena_bytes(), db.arena.len() * 4);
        assert_eq!(db.arena.len(), 50 * (HEADER_WORDS + 3));
    }

    #[test]
    fn activity_rescale_spans_tombstones() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), true, 3);
        let dead = db.alloc(&lits(&[1, 3, 4]), true, 3);
        let b = db.alloc(&lits(&[2, 3]), true, 3);
        db.bump_activity(b);
        db.bump_activity(dead);
        db.delete(dead);
        // Drive a's activity past the rescale threshold.
        db.clause_inc = 2e20;
        db.bump_activity(a);
        assert!(db.activity(a) < 1e20, "rescale ran");
        assert!(db.activity(a) > db.activity(b));
        assert_eq!(
            db.activity(b),
            1e-20,
            "live clause past a tombstone rescaled"
        );
        // The tombstone was walked over, not misparsed: b's header and
        // literals are intact.
        assert_eq!(dimacs(&db, b), [2, 3]);
        assert_eq!(db.lbd(b), 3);
        let map = db.compact();
        assert_eq!(db.activity(map.get(b).unwrap()), 1e-20);
        assert_counters(&db);
    }
}
