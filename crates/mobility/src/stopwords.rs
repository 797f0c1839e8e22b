//! A compact English stop-word list.
//!
//! The paper removes "frequent and meaningless words" before building the
//! textual units of the activity graph (§4.1). This list mirrors the common
//! SMART/NLTK core plus social-media artifacts; the synthetic generator also
//! emits a handful of these to exercise the filter.

/// Words excluded from the vocabulary when [`is_stopword`] is consulted.
pub const STOPWORDS: &[&str] = &[
    "a", "about", "above", "after", "again", "against", "all", "am", "an", "and", "any", "are",
    "as", "at", "be", "because", "been", "before", "being", "below", "between", "both", "but",
    "by", "can", "cannot", "could", "did", "do", "does", "doing", "down", "during", "each", "few",
    "for", "from", "further", "get", "got", "had", "has", "have", "having", "he", "her", "here",
    "hers", "him", "his", "how", "i", "if", "in", "into", "is", "it", "its", "just", "like", "me",
    "more", "most", "my", "no", "nor", "not", "now", "of", "off", "on", "once", "only", "or",
    "other", "our", "out", "over", "own", "rt", "same", "she", "should", "so", "some", "such",
    "than", "that", "the", "their", "them", "then", "there", "these", "they", "this", "those",
    "through", "to", "today", "too", "under", "until", "up", "very", "was", "we", "were", "what",
    "when", "where", "which", "while", "who", "whom", "why", "will", "with", "would", "you",
    "your",
];

/// True if `word` (ASCII, lower-cased by the caller) is a stop word.
pub fn is_stopword(word: &str) -> bool {
    // The list is sorted, so binary search keeps this O(log n) without a
    // lazily built hash set.
    STOPWORDS.binary_search(&word).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_is_sorted_and_deduped() {
        for pair in STOPWORDS.windows(2) {
            assert!(pair[0] < pair[1], "{:?} !< {:?}", pair[0], pair[1]);
        }
    }

    #[test]
    fn recognizes_common_stopwords() {
        for w in ["the", "a", "rt", "today", "you"] {
            assert!(is_stopword(w), "{w} should be a stop word");
        }
    }

    #[test]
    fn keeps_content_words() {
        for w in ["beach", "concert", "pub", "dodgers", "sunset"] {
            assert!(!is_stopword(w), "{w} should not be a stop word");
        }
    }
}
