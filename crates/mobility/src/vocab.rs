//! Keyword vocabulary with string interning.
//!
//! The activity graph's textual units are interned keywords; the vocabulary
//! owns the mapping in both directions and applies stop-word filtering at
//! insertion time, mirroring the preprocessing described in §4.1.

use std::collections::HashMap;

use crate::stopwords::is_stopword;
use crate::types::KeywordId;

/// Bidirectional `String ↔ KeywordId` mapping.
///
/// ```
/// use mobility::Vocabulary;
///
/// let mut vocab = Vocabulary::new();
/// let id = vocab.intern("Beach").unwrap();
/// assert_eq!(vocab.word(id), "beach");          // lower-cased
/// assert_eq!(vocab.intern("beach"), Some(id));  // deduplicated
/// assert_eq!(vocab.intern("the"), None);        // stop words rejected
/// assert_eq!(vocab.count(id), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    words: Vec<String>,
    index: HashMap<String, KeywordId>,
    /// Per-keyword corpus frequency, maintained by [`Vocabulary::intern`].
    counts: Vec<u64>,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct keywords.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if no keywords have been interned.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Interns `word`, returning its id and bumping its frequency count.
    ///
    /// Returns `None` when the word is a stop word or empty after trimming;
    /// such words never receive ids, matching the paper's removal of
    /// "frequent and meaningless words".
    pub fn intern(&mut self, word: &str) -> Option<KeywordId> {
        let word = word.trim();
        if word.is_empty() {
            return None;
        }
        let lowered = word.to_ascii_lowercase();
        if is_stopword(&lowered) {
            return None;
        }
        if let Some(&id) = self.index.get(&lowered) {
            self.counts[id.idx()] += 1;
            return Some(id);
        }
        let id = KeywordId::from(self.words.len());
        self.words.push(lowered.clone());
        self.counts.push(1);
        self.index.insert(lowered, id);
        Some(id)
    }

    /// Looks up an existing keyword without interning.
    pub fn get(&self, word: &str) -> Option<KeywordId> {
        self.index.get(&word.trim().to_ascii_lowercase()).copied()
    }

    /// The string for a keyword id. Panics on out-of-range ids.
    pub fn word(&self, id: KeywordId) -> &str {
        &self.words[id.idx()]
    }

    /// Corpus frequency of a keyword.
    pub fn count(&self, id: KeywordId) -> u64 {
        self.counts[id.idx()]
    }

    /// Increments the frequency count of an existing keyword.
    ///
    /// Used by generators that sample keyword *ids* directly (bypassing
    /// [`Vocabulary::intern`]'s string path) but still want corpus
    /// frequencies tracked.
    pub fn bump(&mut self, id: KeywordId) {
        self.counts[id.idx()] += 1;
    }

    /// Adds `n` to the frequency count of an existing keyword in O(1).
    ///
    /// Decoders restoring saved counts must use this instead of
    /// looping over [`Vocabulary::bump`]: a count field is attacker-
    /// controlled in an untrusted envelope, and a `u64`-sized loop is a
    /// denial of service.
    pub fn bump_by(&mut self, id: KeywordId, n: u64) {
        let c = &mut self.counts[id.idx()];
        *c = c.saturating_add(n);
    }

    /// Iterates `(id, word, count)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (KeywordId, &str, u64)> + '_ {
        self.words
            .iter()
            .zip(&self.counts)
            .enumerate()
            .map(|(i, (w, &c))| (KeywordId::from(i), w.as_str(), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedupes_and_counts() {
        let mut v = Vocabulary::new();
        let a = v.intern("Beach").unwrap();
        let b = v.intern("beach").unwrap();
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
        assert_eq!(v.count(a), 2);
        assert_eq!(v.word(a), "beach");
    }

    #[test]
    fn stopwords_and_empties_are_rejected() {
        let mut v = Vocabulary::new();
        assert!(v.intern("the").is_none());
        assert!(v.intern("  ").is_none());
        assert!(v.intern("").is_none());
        assert!(v.is_empty());
    }

    #[test]
    fn lookup_without_interning() {
        let mut v = Vocabulary::new();
        let id = v.intern("surf").unwrap();
        assert_eq!(v.get("SURF"), Some(id));
        assert_eq!(v.get("unknown"), None);
        // get must not create entries.
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn iter_yields_all_entries() {
        let mut v = Vocabulary::new();
        v.intern("x1");
        v.intern("x2");
        let items: Vec<_> = v.iter().collect();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].1, "x1");
        assert_eq!(items[1].2, 1);
    }
}
