//! Tile-based MP-SoC architecture model for the `sdfrs` workspace.
//!
//! Implements the architecture template of Section 5 of the DAC 2007
//! paper: tiles with a processor (of some [`ProcessorType`]), local memory,
//! a network interface with bounded connections and bandwidth, and a TDMA
//! time wheel; tiles are joined by point-to-point connections with fixed
//! latency ([`ArchitectureGraph`], Definitions 3–4).
//!
//! [`PlatformState`] tracks the occupancy Ω of each tile so successive
//! applications can be allocated onto the same platform (Sec 10.1), and
//! [`mesh`] provides the exact platform families used in the paper's
//! experiments.
//!
//! # Example
//!
//! ```
//! use sdfrs_platform::{ArchitectureGraph, Tile, ProcessorType, PlatformState};
//!
//! let mut arch = ArchitectureGraph::new("demo");
//! let t1 = arch.add_tile(Tile::new("t1", ProcessorType::new("p1"), 10, 700, 5, 100, 100));
//! let t2 = arch.add_tile(Tile::new("t2", ProcessorType::new("p2"), 10, 500, 7, 100, 100));
//! arch.add_connection(t1, t2, 1);
//! let state = PlatformState::new(&arch);
//! assert_eq!(state.available_wheel(&arch, t1), 10);
//! ```

pub mod dot;
pub mod graph;
pub mod mesh;
pub mod presets;
pub mod proc_type;
pub mod region;
pub mod routing;
pub mod state;
pub mod tile_map;

pub use graph::{ArchitectureGraph, Connection, ConnectionId, Tile, TileId};
pub use proc_type::ProcessorType;
pub use region::{ClaimSet, RegionId, RegionMap};
pub use state::{PlatformState, TileCapacity, TileUsage};
pub use tile_map::TileMap;
