//! The repo benchmark: four workloads that each put one layer of the
//! shred → translate → execute → publish pipeline in front, driven
//! through the product's public API only. See `README.md`.

pub mod layers;
pub mod report;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workload;
