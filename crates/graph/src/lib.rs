//! # sg-graph — graph substrate for serigraph
//!
//! This crate provides everything the engines and synchronization techniques
//! need to know about the input graph:
//!
//! * [`Graph`] — a compact CSR (compressed sparse row) directed graph with
//!   both out- and in-adjacency, so a vertex can enumerate the *neighbors*
//!   the paper's formalism talks about (in-edge **and** out-edge neighbors,
//!   Section 3.1 of Han & Daudjee, EDBT 2016).
//! * [`GraphBuilder`] — incremental edge-list construction, symmetrization
//!   (`to_undirected`) and deduplication.
//! * [`partition`] — vertex → partition → worker maps, the paper's boundary
//!   classifications (Definitions 1 and 4, and the four-way refinement of
//!   Section 5.3), and the *virtual partition edges* of Section 5.4.
//! * [`gen`] — seeded synthetic generators (R-MAT, Erdős–Rényi, preferential
//!   attachment, rings, grids, …) standing in for the paper's SNAP/LAW
//!   datasets, and [`GraphSpec`], the `ring:8`-style grammar the command
//!   lines name the small ones by.
//! * [`io`] — plain-text edge-list reading and writing (the format the paper
//!   loads from HDFS).
//! * [`stats`] — degree/skew/clustering summaries for dataset reports.
//!
//! All identifiers are dense `u32` newtypes ([`VertexId`], [`PartitionId`],
//! [`WorkerId`]) so they can key flat arrays.

pub mod builder;
pub mod gen;
pub mod graph;
pub mod ids;
pub mod io;
pub mod partition;
pub mod rng;
pub mod stats;

pub use builder::GraphBuilder;
pub use gen::GraphSpec;
pub use graph::Graph;
pub use ids::{PartitionId, VertexId, WorkerId};
pub use partition::{ClusterLayout, PartitionMap, VertexClass};
pub use rng::SplitMix64;
