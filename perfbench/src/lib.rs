//! The MARP benchmark: four workloads run through the public APIs of the
//! layer crates, every run checked for correctness, with a separate
//! traced run that attributes cost to layers. See `README.md` in this
//! directory for the workloads, the metrics and how to run it.

pub mod calibrate;
pub mod deploy;
pub mod measure;
pub mod run;
pub mod split;
pub mod trace;
pub mod workload;
