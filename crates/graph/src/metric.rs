//! The two metrics a replacement-path oracle serves: hops over unweighted graphs and sums of
//! non-negative weights over weighted ones.
//!
//! Section 9 of the paper lifts one structure from hops to weights: a canonical tree per
//! source, one row per target indexed by the position of the avoided edge, one cut per tree
//! edge. The tree, row, oracle, sharded-oracle and snapshot types are written once, generic
//! over a [`Metric`], whose items are exactly what differs between the two: the distance
//! type and its sentinel, the graph type, where a tree's hop depth lives, how long an edge
//! is, and which search finds distances with one edge removed.

use std::fmt::Debug;

use crate::csr::{BfsScratch, CsrGraph, NO_PARENT};
use crate::dijkstra::{Weight, INFINITE_WEIGHT};
use crate::distance::{Distance, INFINITE_DISTANCE};
use crate::edge::Edge;
use crate::graph::Vertex;
use crate::weighted::{DijkstraScratch, WeightedCsrGraph};

/// A path metric: what a canonical tree, its replacement rows and the oracles built on them
/// need to know beyond the shared tree structure.
pub trait Metric: Copy + Debug + Eq + Send + Sync + 'static {
    /// Length of a path.
    type Dist: Copy + Ord + Debug + Send + Sync + Into<u64> + 'static;
    /// The "no path" sentinel, larger than every finite length.
    const INFINITY: Self::Dist;
    /// The frozen graph the metric's trees are built over.
    type Graph: Clone + Debug + PartialEq + Send + Sync;
    /// What a tree stores about hop depth beyond its distances.
    type Depths: Clone + Debug + Eq + Send + Sync;
    /// Reusable buffers of the metric's single-source search.
    type Scratch: Default + Debug + Send;

    /// Derives the depth store of the tree given by its `dist`, sentinel-encoded `parent`
    /// and settle `order` (every parent settled before its children).
    fn depths(dist: &[Self::Dist], parent: &[u32], order: &[u32]) -> Self::Depths;

    /// Number of edges on the canonical path to `v` (0 for the root and for unreachable
    /// vertices).
    fn depth(dist: &[Self::Dist], depths: &Self::Depths, v: Vertex) -> u32;

    /// Length of the edge `{u, v}` by a binary search of `v`'s sorted row, or `None` when
    /// the edge is absent.
    fn edge_length(g: &Self::Graph, u: Vertex, v: Vertex) -> Option<Self::Dist>;

    /// Runs the metric's search from `source` in `G \ {avoid}` through `scratch` and returns
    /// the distance of every vertex (`INFINITY` where unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    fn distances_avoiding<'a>(
        g: &Self::Graph,
        source: Vertex,
        avoid: Edge,
        scratch: &'a mut Self::Scratch,
    ) -> &'a [Self::Dist];
}

/// The hop metric of unweighted graphs: BFS trees, `u32` distances.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Hop;

/// The weighted metric: Dijkstra trees, `u64` distances.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Weighted;

impl Metric for Hop {
    type Dist = Distance;
    const INFINITY: Distance = INFINITE_DISTANCE;
    type Graph = CsrGraph;
    /// A BFS tree's depth *is* its distance, so it stores nothing more.
    type Depths = ();
    type Scratch = BfsScratch;

    fn depths(_: &[Distance], _: &[u32], _: &[u32]) {}

    #[inline]
    fn depth(dist: &[Distance], _: &(), v: Vertex) -> u32 {
        let d = dist[v];
        if d == INFINITE_DISTANCE {
            0
        } else {
            d
        }
    }

    #[inline]
    fn edge_length(g: &CsrGraph, u: Vertex, v: Vertex) -> Option<Distance> {
        g.neighbor_row(v).binary_search(&(u as u32)).is_ok().then_some(1)
    }

    fn distances_avoiding<'a>(
        g: &CsrGraph,
        source: Vertex,
        avoid: Edge,
        scratch: &'a mut BfsScratch,
    ) -> &'a [Distance] {
        scratch.run_avoiding(g, source, avoid);
        scratch.dist()
    }
}

impl Metric for Weighted {
    type Dist = Weight;
    const INFINITY: Weight = INFINITE_WEIGHT;
    type Graph = WeightedCsrGraph;
    /// Hop depth per vertex: weighted distance says nothing about edge counts.
    type Depths = Vec<u32>;
    type Scratch = DijkstraScratch;

    fn depths(dist: &[Weight], parent: &[u32], order: &[u32]) -> Vec<u32> {
        let mut depth = vec![0u32; dist.len()];
        for &v in order {
            let p = parent[v as usize];
            if p != NO_PARENT {
                depth[v as usize] = depth[p as usize] + 1;
            }
        }
        depth
    }

    #[inline]
    fn depth(_: &[Weight], depths: &Vec<u32>, v: Vertex) -> u32 {
        depths[v]
    }

    #[inline]
    fn edge_length(g: &WeightedCsrGraph, u: Vertex, v: Vertex) -> Option<Weight> {
        let (targets, weights) = g.neighbor_row(v);
        targets.binary_search(&(u as u32)).ok().map(|i| weights[i])
    }

    fn distances_avoiding<'a>(
        g: &WeightedCsrGraph,
        source: Vertex,
        avoid: Edge,
        scratch: &'a mut DijkstraScratch,
    ) -> &'a [Weight] {
        scratch.run_avoiding(g, source, avoid);
        scratch.dist()
    }
}
