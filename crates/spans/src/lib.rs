//! # tdpipe-spans — causal analysis over the flight recorder
//!
//! The flight recorder (tdpipe-trace) says *what the scheduler decided
//! and when*. This crate answers the two questions an operator actually
//! asks of a slow run:
//!
//! 1. **Where did this request's latency go?** [`build_spans`]
//!    reconstructs every request's lifecycle from the journal alone —
//!    scheduler queueing, launch-overhead wait, prefill execution,
//!    eviction stalls, recompute, decode — as a [`RequestSpan`] whose
//!    components sum **bit-exactly** to the reported TTFT and latency
//!    (three pinned fold identities, exact by construction because every
//!    journal time is snapped to a `2^-30` s grid; see [`span`]).
//! 2. **Where did the fleet's idle seconds go?** [`attribute_bubbles`]
//!    charges every journalled `StageIdle` gap to one of eight
//!    [`BubbleCause`]s — warm-up, drain, arrival starvation,
//!    phase-switch drain (the paper's §2.3 bubble), memory stalls,
//!    steal imbalance, and the per-phase dependency fallbacks — with
//!    per-device totals that refold bit-exactly from the gap list.
//!
//! On top sit [`critical_path`] (ranked makespan decomposition of the
//! output stage), the byte-stable JSON reports with exactness-checking
//! validators ([`validate_span_report`], [`validate_bubble_report`]),
//! a nested per-request Chrome-trace export, and a metrics bridge so
//! `metrics-diff` can gate bubble-time regressions.
//!
//! **Pure observer.** Everything here consumes a finished journal;
//! nothing feeds back into the engine. The engine-side instrumentation
//! this crate reads (`PrefillLaunch`, `PrefillDone`, `RequestFinish`,
//! `ArrivalWait`) is recorded behind the same `record_trace` gate as
//! the rest of the journal, and the on/off byte-identity of engine
//! results is pinned in `tests/spans_attribution.rs`.
//!
//! **Deterministic.** Analyses walk journal order, group into
//! `BTreeMap`s, sort floats with `total_cmp`, and serialize through the
//! vendored shortest-round-trip `serde_json` — identical journals
//! produce byte-identical reports regardless of thread count.

#![forbid(unsafe_code)]

pub mod bubble;
pub mod critical;
pub mod report;
pub mod span;

pub use bubble::{attribute_bubbles, AttributedBubble, BubbleCause, BubbleLedger, DeviceBubbles};
pub use critical::{critical_path, Contributor, CriticalPath};
pub use report::{
    analyze, bubble_report_json, bubble_table, span_chrome_trace, span_metrics, span_report_json,
    span_table, validate_bubble_report, validate_span_report, Analysis, BubbleReport,
    BubbleReportCheck, ReplicaAnalysis, SpanReport, SpanReportCheck, REPORT_VERSION,
};
pub use span::{build_spans, fold_seconds, snap, RequestSpan, SpanComponents};
