//! End-to-end and per-layer benchmark of the sdfrs allocation service.
//!
//! Three seeded workloads drive the public APIs of `sdfrs_net`,
//! `sdfrs_core` and `sdfrs_platform` (see `README.md` in this directory
//! for why each exists and which metric each layer should move):
//!
//! * [`serve_churn`] — a `NetServer` on loopback, one closed-loop
//!   connection of admits, departs, rebinds and status probes;
//! * [`cold_fill`] — the paper's Sec 10.1 protocol in process: fresh
//!   services filled until the first rejection;
//! * [`mesh_replay`] — the offline batch path on a 64×64 grid mesh with
//!   16 regions: parse, enqueue, drain, encode.
//!
//! A run is a fixed number of *passes*, each from a fresh platform and
//! service, drawn from a fixed pool in an order the run seed draws (see
//! [`runner::POOL_SEED`]): a seed always gives the same inputs and the
//! same work counts, and only timings vary.
//!
//! Gated timings are process CPU time, measured while spinner processes
//! keep the CPUs out of their idle state and scaled to a nominal host
//! speed (see [`cpu`]).

#![deny(unsafe_code)]

pub mod cold_fill;
pub mod cpu;
pub mod host;
pub mod inputs;
pub mod layers;
pub mod mesh_replay;
pub mod pass;
pub mod runner;
pub mod serve_churn;
pub mod spans;
pub mod stats;
