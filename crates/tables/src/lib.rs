//! # autotype-tables — column-type detection over web tables (§9)
//!
//! The application experiment of the paper: run synthesized type-detection
//! logic over a large corpus of web-table columns and compare against the
//! KW (header keyword) and REGEX (Potter's Wheel pattern) baselines.
//!
//! [`corpus`] generates a synthetic column population matching Table 2's
//! per-type counts and failure modes; [`regex`] implements the pattern
//! inference baseline; [`detect`] implements the three detection methods
//! and the precision / pooled-recall / F-score bookkeeping. Its
//! [`detect_columns`] is the one scheduler for the §9.1 column rule
//! (first type in priority order with more than 80 % of values
//! accepted): the table experiment and the serving runtime
//! (`autotype-serve`) both detect through it.

pub mod corpus;
pub mod detect;
pub mod regex;

pub use corpus::{generate_columns, Column, TableConfig, PAPER_TYPE_COUNTS};
pub use detect::{
    column_passes, correct_columns, detect_by_header, detect_by_pattern, detect_by_values_batched,
    detect_columns, score_type, Detection, SyncValueDetector, TypeOutcome, VALUE_THRESHOLD,
};
pub use regex::{infer_pattern, InferredPattern, PTok};
