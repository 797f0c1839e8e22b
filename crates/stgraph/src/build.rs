//! Activity-graph construction from a corpus and detected hotspots
//! (Algorithm 1, line 2).

use std::collections::HashMap;

use hotspot::{SpatialHotspots, TemporalHotspots};
use mobility::{Corpus, RecordId};

use crate::edge::EdgeType;
use crate::graph::ActivityGraph;
use crate::node::{NodeId, NodeSpace, NodeType};

/// Builder options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildOptions {
    /// Add user vertices and the author's `UT/UW/UL` edges. Off for plain
    /// LINE/CrossMap baselines; on for ACTOR and the `(U)` variants.
    pub include_users: bool,
    /// Also connect *mentioned* users to the record's units, realizing the
    /// inter-record meta-graph instances of Fig. 3b.
    pub include_mentioned_users: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self {
            include_users: true,
            include_mentioned_users: true,
        }
    }
}

/// The units a record contributed to the graph: its temporal and spatial
/// hotspot vertices and its (deduplicated) keyword vertices.
///
/// Kept by the builder so the intra-record bag-of-words objective
/// (footnote 4) can iterate records without re-assigning hotspots.
#[derive(Debug, Clone)]
pub struct RecordUnits {
    /// The source record.
    pub record: RecordId,
    /// Temporal hotspot vertex.
    pub time: NodeId,
    /// Spatial hotspot vertex.
    pub location: NodeId,
    /// Distinct keyword vertices, ascending.
    pub words: Vec<NodeId>,
    /// The author's user vertex (when users are included).
    pub user: Option<NodeId>,
}

/// Builds activity graphs and the per-record unit table.
#[derive(Debug, Clone)]
pub struct ActivityGraphBuilder<'a> {
    corpus: &'a Corpus,
    spatial: &'a SpatialHotspots,
    temporal: &'a TemporalHotspots,
    options: BuildOptions,
}

impl<'a> ActivityGraphBuilder<'a> {
    /// Creates a builder over detected hotspots.
    pub fn new(
        corpus: &'a Corpus,
        spatial: &'a SpatialHotspots,
        temporal: &'a TemporalHotspots,
        options: BuildOptions,
    ) -> Self {
        Self {
            corpus,
            spatial,
            temporal,
            options,
        }
    }

    /// The node space the built graph will use.
    pub fn node_space(&self) -> NodeSpace {
        NodeSpace {
            n_time: self.temporal.len() as u32,
            n_location: self.spatial.len() as u32,
            n_word: self.corpus.vocab().len() as u32,
            n_user: if self.options.include_users {
                self.corpus.num_users()
            } else {
                0
            },
        }
    }

    /// Builds the graph over `record_ids` (normally the training split) and
    /// returns it with the per-record unit assignments.
    ///
    /// Counting is sharded over records ([`par::threads`] workers, each
    /// filling private per-edge-type count maps) and merged in shard order
    /// on the calling thread. Co-occurrence weights are integer-valued, so
    /// the per-key sums are exact and the merged maps — and therefore the
    /// sorted edge lists, CSR layout, and unit table — are bit-identical
    /// to a single-threaded build for any thread count.
    pub fn build(&self, record_ids: &[RecordId]) -> (ActivityGraph, Vec<RecordUnits>) {
        let _span = obs::span!("stgraph.build");

        let space = self.node_space();
        let shards = par::par_map_chunks(record_ids, |_, chunk| {
            let mut acc = ShardAcc::new();
            for &rid in chunk {
                self.accumulate(space, rid, &mut acc);
            }
            acc
        });

        let merged = {
            let _merge_span = obs::span!("stgraph.build.shard_merge");
            let mut it = shards.into_iter();
            let mut total = it.next().unwrap_or_else(ShardAcc::new);
            for acc in it {
                total.merge(acc);
            }
            total
        };
        obs::counter("stgraph.records").add(record_ids.len() as u64);
        obs::counter("stgraph.metagraph.intra").add(merged.intra);
        obs::counter("stgraph.metagraph.inter").add(merged.inter);

        let maps: HashMap<EdgeType, HashMap<(NodeId, NodeId), f64>> = EdgeType::ALL
            .iter()
            .zip(merged.maps)
            .filter(|(_, m)| !m.is_empty())
            .map(|(&ty, m)| (ty, m))
            .collect();
        let graph = ActivityGraph::from_maps(space, maps);
        obs::counter("stgraph.nodes").add(graph.n_nodes() as u64);
        obs::counter("stgraph.edges").add(graph.n_edges() as u64);
        (graph, merged.units)
    }

    /// Counts one record into `acc` (one shard's private accumulator).
    fn accumulate(&self, space: NodeSpace, rid: RecordId, acc: &mut ShardAcc) {
        let r = self.corpus.record(rid);
        let t = space.node(NodeType::Time, self.temporal.assign_timestamp(r.timestamp).0);
        let l = space.node(NodeType::Location, self.spatial.assign(r.location).0);
        // Distinct keywords: each co-occurrence counts once per record
        // (Definition 1's example sets all weights of one record to 1).
        let mut words: Vec<NodeId> = r
            .keywords
            .iter()
            .map(|k| space.node(NodeType::Word, k.0))
            .collect();
        words.sort_unstable();
        words.dedup();

        acc.bump(EdgeType::TL, (t, l));
        for &w in &words {
            acc.bump(EdgeType::LW, (l, w));
            acc.bump(EdgeType::WT, (w, t));
        }
        for (i, &wi) in words.iter().enumerate() {
            for &wj in &words[i + 1..] {
                acc.bump(EdgeType::WW, (wi, wj));
            }
        }

        // Each record realizes one intra-record meta-graph instance
        // (Fig. 3a): its T–L–W clique.
        acc.intra += 1;

        let mut user_node = None;
        if self.options.include_users {
            let author = space.node(NodeType::User, r.user.0);
            user_node = Some(author);
            let connect = |u: NodeId, acc: &mut ShardAcc| {
                acc.bump(EdgeType::UT, (u, t));
                acc.bump(EdgeType::UL, (u, l));
                for &w in &words {
                    acc.bump(EdgeType::UW, (u, w));
                }
            };
            connect(author, acc);
            if self.options.include_mentioned_users {
                for &m in &r.mentions {
                    if m != r.user {
                        connect(space.node(NodeType::User, m.0), acc);
                        // A mentioned user realizes one inter-record
                        // meta-graph instance (Fig. 3b).
                        acc.inter += 1;
                    }
                }
            }
        }

        acc.units.push(RecordUnits {
            record: rid,
            time: t,
            location: l,
            words,
            user: user_node,
        });
    }
}

/// One shard's private co-occurrence counts, unit rows, and meta-graph
/// instance tallies. Map values stay integer-valued, so merging shards by
/// per-key addition is exact regardless of shard count.
struct ShardAcc {
    /// Count maps indexed by [`EdgeType::index`].
    maps: Vec<HashMap<(NodeId, NodeId), f64>>,
    units: Vec<RecordUnits>,
    intra: u64,
    inter: u64,
}

impl ShardAcc {
    fn new() -> Self {
        Self {
            maps: (0..EdgeType::ALL.len()).map(|_| HashMap::new()).collect(),
            units: Vec::new(),
            intra: 0,
            inter: 0,
        }
    }

    #[inline]
    fn bump(&mut self, ty: EdgeType, key: (NodeId, NodeId)) {
        *self.maps[ty.index()].entry(key).or_insert(0.0) += 1.0;
    }

    /// Folds `other` (a later shard) into `self`. Units concatenate in
    /// shard order — shards are contiguous record ranges, so the result is
    /// the serial record order.
    fn merge(&mut self, other: Self) {
        for (total, map) in self.maps.iter_mut().zip(other.maps) {
            for (key, w) in map {
                *total.entry(key).or_insert(0.0) += w;
            }
        }
        self.units.extend(other.units);
        self.intra += other.intra;
        self.inter += other.inter;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot::MeanShiftParams;
    use mobility::synth::{generate, DatasetPreset};
    use mobility::GeoPoint;

    fn setup() -> (Corpus, SpatialHotspots, TemporalHotspots, Vec<RecordId>) {
        let (corpus, _) = generate(DatasetPreset::Utgeo2011.small_config(42)).unwrap();
        let points: Vec<GeoPoint> = corpus.records().iter().map(|r| r.location).collect();
        let seconds: Vec<f64> = corpus.records().iter().map(|r| r.second_of_day()).collect();
        let spatial =
            SpatialHotspots::detect(&points, MeanShiftParams::with_bandwidth(0.01), 3);
        let temporal =
            TemporalHotspots::detect(&seconds, MeanShiftParams::with_bandwidth(1800.0), 3);
        let ids: Vec<RecordId> = (0..corpus.len()).map(RecordId::from).collect();
        (corpus, spatial, temporal, ids)
    }

    #[test]
    fn build_produces_all_intra_types() {
        let (corpus, spatial, temporal, ids) = setup();
        let b = ActivityGraphBuilder::new(&corpus, &spatial, &temporal, BuildOptions::default());
        let (g, units) = b.build(&ids);
        assert_eq!(units.len(), ids.len());
        for ty in EdgeType::INTRA {
            assert!(g.edges(ty).is_some(), "{ty:?} missing");
        }
        for ty in EdgeType::INTER {
            assert!(g.edges(ty).is_some(), "{ty:?} missing");
        }
        assert!(g.n_edges() > 0);
        assert_eq!(g.space().n_word as usize, corpus.vocab().len());
    }

    #[test]
    fn excluding_users_drops_inter_edges() {
        let (corpus, spatial, temporal, ids) = setup();
        let opts = BuildOptions {
            include_users: false,
            include_mentioned_users: false,
        };
        let b = ActivityGraphBuilder::new(&corpus, &spatial, &temporal, opts);
        let (g, units) = b.build(&ids);
        assert_eq!(g.space().n_user, 0);
        for ty in EdgeType::INTER {
            assert!(g.edges(ty).is_none(), "{ty:?} should be absent");
        }
        assert!(units.iter().all(|u| u.user.is_none()));
    }

    #[test]
    fn mentioned_users_add_edges() {
        let (corpus, spatial, temporal, ids) = setup();
        let with = ActivityGraphBuilder::new(&corpus, &spatial, &temporal, BuildOptions::default())
            .build(&ids)
            .0;
        let without = ActivityGraphBuilder::new(
            &corpus,
            &spatial,
            &temporal,
            BuildOptions {
                include_users: true,
                include_mentioned_users: false,
            },
        )
        .build(&ids)
        .0;
        let w_ut = with.edges(EdgeType::UT).unwrap().total_weight();
        let wo_ut = without.edges(EdgeType::UT).unwrap().total_weight();
        assert!(w_ut > wo_ut, "mentions should add UT weight: {w_ut} vs {wo_ut}");
    }

    #[test]
    fn record_units_reference_valid_nodes() {
        let (corpus, spatial, temporal, ids) = setup();
        let b = ActivityGraphBuilder::new(&corpus, &spatial, &temporal, BuildOptions::default());
        let (g, units) = b.build(&ids);
        let space = *g.space();
        for u in &units {
            assert_eq!(space.type_of(u.time), NodeType::Time);
            assert_eq!(space.type_of(u.location), NodeType::Location);
            for &w in &u.words {
                assert_eq!(space.type_of(w), NodeType::Word);
            }
            // Words are sorted and distinct.
            for pair in u.words.windows(2) {
                assert!(pair[0] < pair[1]);
            }
            assert_eq!(space.type_of(u.user.unwrap()), NodeType::User);
        }
    }

    #[test]
    fn edge_weights_count_records_not_tokens() {
        let (corpus, spatial, temporal, ids) = setup();
        let b = ActivityGraphBuilder::new(&corpus, &spatial, &temporal, BuildOptions::default());
        let (g, units) = b.build(&ids);
        // Total TL weight equals number of records (each record adds one).
        let tl = g.edges(EdgeType::TL).unwrap().total_weight();
        assert_eq!(tl as usize, units.len());
    }

    #[test]
    fn subset_build_scales_down() {
        let (corpus, spatial, temporal, ids) = setup();
        let b = ActivityGraphBuilder::new(&corpus, &spatial, &temporal, BuildOptions::default());
        let (full, _) = b.build(&ids);
        let (half, _) = b.build(&ids[..ids.len() / 2]);
        assert!(half.n_edges() < full.n_edges());
    }
}
