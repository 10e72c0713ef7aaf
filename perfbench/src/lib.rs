//! The repository benchmark. Three workloads exercise the SLIDE library
//! through its production entry points (`Trainer::train`, `HttpServer`,
//! `Router`); an untraced run gives the end-to-end metrics and a traced
//! run times the calls into each layer's public functions for the
//! per-layer metrics. See `NOTES.md` for what each metric means.

pub mod idle;
pub mod report;
pub mod serve;
pub mod stats;
pub mod train;
