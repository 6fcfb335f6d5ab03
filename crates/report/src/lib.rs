#![warn(missing_docs)]

//! Rendering and export of fault-injection results.
//!
//! * [`diagram`] — ASCII fault-space diagrams in the style of the paper's
//!   Figures 1 and 3 (cycles on the x-axis, memory bits on the y-axis,
//!   def/use classes and experiment outcomes marked),
//! * [`table`] — aligned text tables for campaign summaries,
//! * [`bars`] — horizontal ASCII bar charts for the Figure 2 panels,
//! * [`export`] — JSON export of campaign results and figure data.

pub mod bars;
pub mod diagram;
pub mod export;
pub mod table;

pub use bars::bar_chart;
pub use diagram::{fault_space_diagram, outcome_diagram};
pub use export::{
    job_artifact, susceptibility_artifact, telemetry_artifact, to_json, write_json, Json,
    JsonWriter, SusceptibilityRow, ToJson, SUSCEPTIBILITY_SCHEMA, TELEMETRY_SCHEMA,
};
pub use table::Table;
