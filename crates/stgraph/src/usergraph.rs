//! The homogeneous user interaction graph (Definition 2).

use std::collections::HashMap;

use mobility::{Corpus, RecordId, UserId};

/// User interaction graph: vertices are users, an edge's weight is the
/// number of mentions between the pair (symmetrized).
#[derive(Debug, Clone)]
pub struct UserGraph {
    n_users: u32,
    /// Canonical edge list with `a < b`.
    edges: Vec<(UserId, UserId, f64)>,
    /// CSR offsets/neighbors over user ids.
    offsets: Vec<u32>,
    neighbors: Vec<(UserId, f64)>,
}

impl UserGraph {
    /// Builds the graph from the mentions of the given records of `corpus`
    /// (pass the training split's record ids to avoid test leakage).
    pub fn build(corpus: &Corpus, record_ids: &[RecordId]) -> Self {
        // Sharded over records into private count maps merged per key in
        // shard order; mention counts are integers, so the merged weights
        // (and the sorted edge list below) match a serial build exactly.
        let weights = par::par_accumulate(
            record_ids,
            HashMap::<(UserId, UserId), f64>::new,
            |acc, _, &rid| {
                let r = corpus.record(rid);
                for &m in &r.mentions {
                    if m == r.user {
                        continue; // self-mentions carry no interaction signal
                    }
                    let key = if r.user < m { (r.user, m) } else { (m, r.user) };
                    *acc.entry(key).or_insert(0.0) += 1.0;
                }
            },
            |total, acc| {
                for (key, w) in acc {
                    *total.entry(key).or_insert(0.0) += w;
                }
            },
        );
        Self::from_weights(corpus.num_users(), weights)
    }

    fn from_weights(n_users: u32, weights: HashMap<(UserId, UserId), f64>) -> Self {
        let mut edges: Vec<(UserId, UserId, f64)> = weights
            .into_iter()
            .map(|((a, b), w)| (a, b, w))
            .collect();
        edges.sort_by_key(|&(a, b, _)| (a, b));

        let mut degree = vec![0u32; n_users as usize];
        for &(a, b, _) in &edges {
            degree[a.idx()] += 1;
            degree[b.idx()] += 1;
        }
        let mut offsets = Vec::with_capacity(n_users as usize + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n_users as usize].to_vec();
        let mut neighbors = vec![(UserId(0), 0.0); acc as usize];
        for &(a, b, w) in &edges {
            neighbors[cursor[a.idx()] as usize] = (b, w);
            cursor[a.idx()] += 1;
            neighbors[cursor[b.idx()] as usize] = (a, w);
            cursor[b.idx()] += 1;
        }
        Self {
            n_users,
            edges,
            offsets,
            neighbors,
        }
    }

    /// Number of user vertices (including isolated users).
    pub fn n_users(&self) -> u32 {
        self.n_users
    }

    /// Number of distinct interaction edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// True if no interactions were observed (the TWEET/4SQ case, §6.3).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The canonical edge list.
    pub fn edges(&self) -> &[(UserId, UserId, f64)] {
        &self.edges
    }

    /// Neighbors of `user` with mention weights.
    pub fn neighbors(&self, user: UserId) -> &[(UserId, f64)] {
        let lo = self.offsets[user.idx()] as usize;
        let hi = self.offsets[user.idx() + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Weighted degree of `user`.
    pub fn weighted_degree(&self, user: UserId) -> f64 {
        self.neighbors(user).iter().map(|(_, w)| w).sum()
    }

    /// Users with at least one interaction.
    pub fn connected_users(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..self.n_users)
            .map(UserId)
            .filter(|u| !self.neighbors(*u).is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobility::{GeoPoint, Record, Vocabulary};

    fn corpus_with_mentions() -> Corpus {
        let recs = vec![
            rec(0, &[1]),       // 0 -> 1
            rec(1, &[0]),       // 1 -> 0 (same pair again)
            rec(2, &[0, 1]),    // 2 -> 0, 2 -> 1
            rec(3, &[3]),       // self-mention, ignored
            rec(1, &[]),        // no mentions
        ];
        Corpus::new("t", recs, Vocabulary::new(), 5).unwrap()
    }

    fn rec(user: u32, mentions: &[u32]) -> Record {
        Record {
            id: RecordId(0),
            user: UserId(user),
            timestamp: 0,
            location: GeoPoint::new(0.0, 0.0),
            keywords: vec![],
            mentions: mentions.iter().map(|&m| UserId(m)).collect(),
        }
    }

    fn all_ids(c: &Corpus) -> Vec<RecordId> {
        (0..c.len()).map(RecordId::from).collect()
    }

    #[test]
    fn build_symmetrizes_and_counts() {
        let c = corpus_with_mentions();
        let g = UserGraph::build(&c, &all_ids(&c));
        assert_eq!(g.n_users(), 5);
        assert_eq!(g.n_edges(), 3);
        // Pair (0,1) mentioned twice (once each direction).
        let e01 = g
            .edges()
            .iter()
            .find(|&&(a, b, _)| a == UserId(0) && b == UserId(1))
            .unwrap();
        assert_eq!(e01.2, 2.0);
        assert_eq!(g.weighted_degree(UserId(2)), 2.0);
        assert_eq!(g.weighted_degree(UserId(4)), 0.0);
    }

    #[test]
    fn self_mentions_ignored() {
        let c = corpus_with_mentions();
        let g = UserGraph::build(&c, &all_ids(&c));
        assert!(g.neighbors(UserId(3)).is_empty());
    }

    #[test]
    fn neighbors_are_symmetric() {
        let c = corpus_with_mentions();
        let g = UserGraph::build(&c, &all_ids(&c));
        for u in 0..5 {
            for &(v, w) in g.neighbors(UserId(u)) {
                assert!(g
                    .neighbors(v)
                    .iter()
                    .any(|&(back, bw)| back == UserId(u) && bw == w));
            }
        }
    }

    #[test]
    fn connected_users_excludes_isolated() {
        let c = corpus_with_mentions();
        let g = UserGraph::build(&c, &all_ids(&c));
        let connected: Vec<UserId> = g.connected_users().collect();
        assert_eq!(connected, vec![UserId(0), UserId(1), UserId(2)]);
    }

    #[test]
    fn restricting_records_restricts_edges() {
        let c = corpus_with_mentions();
        let g = UserGraph::build(&c, &[RecordId(0)]);
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    fn mention_free_corpus_gives_empty_graph() {
        let recs = vec![rec(0, &[]), rec(1, &[])];
        let c = Corpus::new("t", recs, Vocabulary::new(), 2).unwrap();
        let g = UserGraph::build(&c, &all_ids(&c));
        assert!(g.is_empty());
        assert_eq!(g.connected_users().count(), 0);
    }
}
