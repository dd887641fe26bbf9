//! Term dictionary: string terms to dense ids, with document frequencies.

use std::hash::{BuildHasher, RandomState};

use smr_storage::impl_codec_newtype;

/// Dense identifier of a term in a [`Vocabulary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TermId(pub u32);

impl_codec_newtype!(TermId(u32));

impl TermId {
    /// The dense index of this term.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A growable term dictionary.
///
/// Besides interning terms (ids in first-seen order, until a
/// [`crate::Corpus`] renumbers them rarest first) it tracks document
/// frequencies, which the tf·idf weighting relies on.
///
/// Each term's text is stored once, in one string table in id order.  The
/// lookup is an open-addressed table of term ids keyed by the hash of the
/// term's text (std's randomly keyed hasher), at most half full, probed
/// linearly and compared against the string table.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    /// Every term's text, back to back in id order.
    text: String,
    /// `ends[id]`: one past the last byte of term `id` in `text`.
    ends: Vec<u32>,
    /// Term ids by hash slot, [`EMPTY`] where free; a power of two long.
    slots: Vec<u32>,
    hasher: RandomState,
    doc_freq: Vec<u32>,
    num_documents: u32,
}

/// A free slot of [`Vocabulary::slots`].
const EMPTY: u32 = u32::MAX;

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Vocabulary::default()
    }

    /// Interns `term`, returning its id (existing or fresh).
    pub fn intern(&mut self, term: &str) -> TermId {
        if 2 * (self.len() + 1) > self.slots.len() {
            self.grow();
        }
        let slot = self.slot(term);
        if self.slots[slot] != EMPTY {
            return TermId(self.slots[slot]);
        }
        let id = self.len() as u32;
        self.text.push_str(term);
        self.ends
            .push(u32::try_from(self.text.len()).expect("vocabulary text beyond 4 GiB"));
        self.doc_freq.push(0);
        self.slots[slot] = id;
        TermId(id)
    }

    /// Looks up a term without interning it.
    pub fn get(&self, term: &str) -> Option<TermId> {
        if self.slots.is_empty() {
            return None;
        }
        match self.slots[self.slot(term)] {
            EMPTY => None,
            id => Some(TermId(id)),
        }
    }

    /// The slot holding `term`, or the free slot where it would go.
    fn slot(&self, term: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(term) as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return slot,
                id if self.term(TermId(id)) == term => return slot,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Doubles the lookup table (to 16 slots at first) and re-slots every
    /// term.
    fn grow(&mut self) {
        self.slots = vec![EMPTY; (2 * self.slots.len()).max(16)];
        for id in 0..self.len() as u32 {
            let slot = self.slot(self.term(TermId(id)));
            self.slots[slot] = id;
        }
    }

    /// The string form of a term id.
    pub fn term(&self, id: TermId) -> &str {
        let i = id.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Counts one more document per run of term ids: every distinct id of
    /// a run adds one to its term's document frequency, however often it
    /// repeats there.
    pub(crate) fn count_documents<'a>(&mut self, runs: impl IntoIterator<Item = &'a [TermId]>) {
        // The number of the last document each term was counted for.
        let mut last_seen = vec![u32::MAX; self.len()];
        for run in runs {
            for id in run {
                if last_seen[id.index()] != self.num_documents {
                    last_seen[id.index()] = self.num_documents;
                    self.doc_freq[id.index()] += 1;
                }
            }
            self.num_documents += 1;
        }
    }

    /// Document frequency of a term.
    pub fn doc_freq(&self, id: TermId) -> u32 {
        self.doc_freq[id.index()]
    }

    /// Number of documents observed.
    pub fn num_documents(&self) -> u32 {
        self.num_documents
    }

    /// Inverse document frequency `ln((N + 1) / (df + 1)) + 1` (smoothed so
    /// unseen and ubiquitous terms still get a positive weight).
    pub fn idf(&self, id: TermId) -> f64 {
        let n = self.num_documents as f64;
        let df = self.doc_freq(id) as f64;
        ((n + 1.0) / (df + 1.0)).ln() + 1.0
    }

    /// Renumbers the terms in place, rarest first: by document frequency,
    /// ties in first-seen order.  Returns the renumbering: the new id of
    /// each old id.
    pub(crate) fn number_rarest_first(&mut self) -> Vec<TermId> {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_by_key(|&old| self.doc_freq[old as usize]);
        let mut renumbered = vec![TermId(0); order.len()];
        let mut text = String::with_capacity(self.text.len());
        let mut ends = Vec::with_capacity(order.len());
        for (new, &old) in order.iter().enumerate() {
            renumbered[old as usize] = TermId(new as u32);
            text.push_str(self.term(TermId(old)));
            ends.push(text.len() as u32);
        }
        self.doc_freq = order
            .iter()
            .map(|&old| self.doc_freq[old as usize])
            .collect();
        self.text = text;
        self.ends = ends;
        // A slot is keyed by its term's text, which did not move.
        for slot in self.slots.iter_mut().filter(|slot| **slot != EMPTY) {
            *slot = renumbered[*slot as usize].0;
        }
        renumbered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interns `terms` and counts them as one more document.
    fn observe(v: &mut Vocabulary, terms: impl IntoIterator<Item = impl AsRef<str>>) {
        let ids: Vec<TermId> = terms.into_iter().map(|t| v.intern(t.as_ref())).collect();
        v.count_documents([ids.as_slice()]);
    }

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a1 = v.intern("apple");
        let b = v.intern("banana");
        let a2 = v.intern("apple");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(v.len(), 2);
        assert_eq!(v.term(a1), "apple");
        assert_eq!(v.get("banana"), Some(b));
        assert_eq!(v.get("cherry"), None);
    }

    #[test]
    fn document_frequencies_count_distinct_terms_per_document() {
        let mut v = Vocabulary::new();
        observe(&mut v, ["a", "b", "a"]);
        observe(&mut v, ["b", "c"]);
        assert_eq!(v.num_documents(), 2);
        assert_eq!(v.doc_freq(v.get("a").unwrap()), 1);
        assert_eq!(v.doc_freq(v.get("b").unwrap()), 2);
        assert_eq!(v.doc_freq(v.get("c").unwrap()), 1);
    }

    #[test]
    fn idf_decreases_with_document_frequency() {
        let mut v = Vocabulary::new();
        observe(&mut v, ["rare", "common"]);
        observe(&mut v, ["common"]);
        observe(&mut v, ["common"]);
        let rare = v.get("rare").unwrap();
        let common = v.get("common").unwrap();
        assert!(v.idf(rare) > v.idf(common));
        assert!(v.idf(common) > 0.0);
    }

    #[test]
    fn numbering_rarest_first_sorts_by_doc_freq_then_first_appearance() {
        let mut v = Vocabulary::new();
        observe(&mut v, ["y", "x"]);
        observe(&mut v, ["y", "z"]);
        observe(&mut v, ["y"]);
        // y, x, z were first seen in that order.
        assert_eq!(v.number_rarest_first(), [TermId(2), TermId(0), TermId(1)]);
        let names: Vec<&str> = (0..3).map(|id| v.term(TermId(id))).collect();
        // x and z have df 1 (x appeared first), y has df 3.
        assert_eq!(names, vec!["x", "z", "y"]);
        for (id, name) in names.iter().enumerate() {
            assert_eq!(v.get(name), Some(TermId(id as u32)));
        }
        assert_eq!(v.doc_freq(TermId(2)), 3);
        assert_eq!(v.num_documents(), 3);

        // Forty terms with scattered frequencies: long permutation cycles.
        let names: Vec<String> = (0..40).map(|t| format!("t{t}")).collect();
        let mut v = Vocabulary::new();
        for doc in 0..12usize {
            observe(
                &mut v,
                names
                    .iter()
                    .enumerate()
                    .filter(|(t, _)| (t * 7 + 3) % 13 >= doc)
                    .map(|(_, n)| n.as_str()),
            );
        }
        let mut expected: Vec<(u32, &str)> = names
            .iter()
            .map(|n| (v.doc_freq(v.get(n).unwrap()), n.as_str()))
            .collect();
        expected.sort_by_key(|&(df, _)| df);
        v.number_rarest_first();
        for (id, (df, name)) in expected.into_iter().enumerate() {
            let id = TermId(id as u32);
            assert_eq!(
                (v.term(id), v.doc_freq(id), v.get(name)),
                (name, df, Some(id))
            );
        }
    }

    #[test]
    fn empty_vocabulary_behaves() {
        let v = Vocabulary::new();
        assert!(v.is_empty());
        assert_eq!(v.get(""), None);
        assert_eq!(v.num_documents(), 0);
    }

    #[test]
    fn a_growing_table_keeps_every_term_and_its_text() {
        let mut v = Vocabulary::new();
        let names: Vec<String> = (0..1000).map(|t| format!("w{t}é")).collect();
        for (id, name) in names.iter().enumerate() {
            assert_eq!(v.intern(name), TermId(id as u32));
        }
        assert_eq!(v.len(), names.len());
        assert!(v.slots.len() >= 2 * v.len() && v.slots.len().is_power_of_two());
        for (id, name) in names.iter().enumerate() {
            let id = TermId(id as u32);
            assert_eq!(v.intern(name), id, "interning twice is a lookup");
            assert_eq!((v.get(name), v.term(id)), (Some(id), name.as_str()));
        }
        assert_eq!(v.get("w1000é"), None);
        assert_eq!(v.get("w1"), None, "a prefix of a term is not the term");
        assert_eq!(v.text.len(), names.iter().map(String::len).sum::<usize>());
    }
}
