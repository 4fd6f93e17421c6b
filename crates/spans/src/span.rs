//! Per-request span reconstruction from the flight-recorder journal.
//!
//! A [`RequestSpan`] decomposes one request's lifecycle — arrival → first
//! admission → executor launch → prefill completion → decode (with
//! eviction/recompute stalls) → finish — into named duration components
//! that **sum exactly** to the reported latency figures. Exactness is by
//! construction, not tolerance: [`build_spans`] snaps every journal time
//! once to the grid of `2^-30` s ([`snap`]). Every span quantity is then
//! a multiple of `2^-30` below `2^23` s, i.e. an integer count of grid
//! ticks below `2^53`, so each difference and each partial sum of the
//! fold is an exact `f64`. Every component set designates one *closure*
//! component, `target - fold(others)`; the other components are direct
//! timestamp differences. The pinned identities are:
//!
//! 1. `fold([queue, prefill_wait, prefill_exec]) == ttft`
//! 2. `fold([stall_pending, recompute, decode_active]) == decode_total`
//! 3. `fold(all seven components, struct order) == latency`
//!
//! where `fold` is [`fold_seconds`] (a left fold from `+0.0`) and `==`
//! is exact `f64` equality. On the grid the third closure, `residual`,
//! is always `+0.0`.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tdpipe_trace::{AdmitReason, FlightRecorder, TraceEvent};

/// Canonical accumulation order for span identities: a left fold from
/// `+0.0`. Both the builder's closure components and the validator use
/// this fold.
pub fn fold_seconds(parts: &[f64]) -> f64 {
    parts.iter().fold(0.0, |acc, &x| acc + x)
}

/// Ticks per second of the span grid.
const GRID: f64 = (1u64 << 30) as f64;

/// `t` rounded to the nearest multiple of `2^-30` s (about 0.93 ns).
/// Exact for `|t| < 2^23` s: scaling by a power of two and rounding to
/// an integer below `2^53` lose nothing.
pub fn snap(t: f64) -> f64 {
    (t * GRID).round() / GRID
}

/// The named duration components of one request's lifecycle.
///
/// Direct measurements: `queue`, `prefill_wait`, `stall_pending`,
/// `recompute`. Closures (see module docs): `prefill_exec` (against
/// TTFT), `decode_active` (against the decode total), `residual`
/// (against end-to-end latency; always `+0.0` on the span grid).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpanComponents {
    /// Arrival → first prefill admission (scheduler queueing).
    pub queue: f64,
    /// Admission → executor-ready (serialised launch overhead).
    pub prefill_wait: f64,
    /// Executor-ready → first token (closure against TTFT).
    pub prefill_exec: f64,
    /// Σ eviction → re-admission (request sat evicted, KV gone).
    pub stall_pending: f64,
    /// Σ re-admission → re-prefill completion (recompute work).
    pub recompute: f64,
    /// Token generation (closure against `finish - first_token`).
    pub decode_active: f64,
    /// Closure against end-to-end latency; `+0.0` on the span grid, kept
    /// so the report schema can show the third identity closing.
    pub residual: f64,
}

impl SpanComponents {
    /// Component names, in the canonical (struct/fold) order.
    pub const NAMES: [&'static str; 7] = [
        "queue",
        "prefill_wait",
        "prefill_exec",
        "stall_pending",
        "recompute",
        "decode_active",
        "residual",
    ];

    /// Components in the canonical fold order.
    pub fn as_array(&self) -> [f64; 7] {
        [
            self.queue,
            self.prefill_wait,
            self.prefill_exec,
            self.stall_pending,
            self.recompute,
            self.decode_active,
            self.residual,
        ]
    }
}

/// One request's reconstructed lifecycle span.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestSpan {
    /// Request id (trace-level identity).
    pub request: u64,
    /// Time the request entered the system.
    pub arrival: f64,
    /// Time its first output token appeared.
    pub first_token: f64,
    /// Time its last output token appeared.
    pub finish: f64,
    /// `first_token - arrival` — the reported TTFT.
    pub ttft: f64,
    /// `finish - first_token` — the decode side of the lifecycle.
    pub decode_total: f64,
    /// `finish - arrival` — the reported end-to-end latency.
    pub latency: f64,
    /// Times the request was evicted (recompute or swap).
    pub evictions: u32,
    /// Session-KV reuse hit on admission.
    pub reuse_hit: bool,
    /// Resumed session turn that paid a full prefill.
    pub reuse_miss: bool,
    /// The exact decomposition (see [`SpanComponents`]).
    pub components: SpanComponents,
}

impl RequestSpan {
    /// Check the three exactness identities (module docs) on this span.
    pub fn identities_hold(&self) -> bool {
        let c = self.components;
        fold_seconds(&[c.queue, c.prefill_wait, c.prefill_exec]) == self.ttft
            && fold_seconds(&[c.stall_pending, c.recompute, c.decode_active])
                == self.decode_total
            && fold_seconds(&c.as_array()) == self.latency
    }
}

/// Per-request builder state while walking the journal.
struct Build {
    arrival: f64,
    admit: f64,
    batch_ready: f64,
    first_token: f64,
    finish: f64,
    evicted_at: f64,
    recompute_open: f64,
    stall_pending: f64,
    recompute: f64,
    evictions: u32,
    reuse_hit: bool,
    reuse_miss: bool,
}

impl Default for Build {
    fn default() -> Self {
        Build {
            arrival: f64::NAN,
            admit: f64::NAN,
            batch_ready: f64::NAN,
            first_token: f64::NAN,
            finish: f64::NAN,
            evicted_at: f64::NAN,
            recompute_open: f64::NAN,
            stall_pending: 0.0,
            recompute: 0.0,
            evictions: 0,
            reuse_hit: false,
            reuse_miss: false,
        }
    }
}

/// Reconstruct per-request spans from a journal. Returns the spans
/// (sorted by request id) plus the number of requests whose lifecycle
/// was incomplete in the journal (no `RequestFinish` — e.g. a journal
/// from a run that was cut short) and therefore skipped. Every journal
/// time is [`snap`]ped before use, so span times sit on the grid.
pub fn build_spans(journal: &FlightRecorder) -> (Vec<RequestSpan>, usize) {
    let mut builds: BTreeMap<u64, Build> = BTreeMap::new();
    // The launch-ready instant of the prefill batch currently being
    // journalled: `PrefillLaunch` precedes its members' `PrefillAdmit`
    // events; `PrefillStop` terminates the batch.
    let mut cur_launch: Option<f64> = None;
    for e in journal.events() {
        let t = snap(e.t);
        match e.event {
            TraceEvent::PrefillLaunch { ready, .. } => cur_launch = Some(snap(ready)),
            TraceEvent::PrefillStop { .. } => cur_launch = None,
            TraceEvent::PrefillAdmit {
                request, reason, ..
            } => {
                let b = builds.entry(request).or_default();
                if b.admit.is_nan() {
                    // First admission: anchors queue + prefill-wait.
                    b.admit = t;
                    b.batch_ready = match reason {
                        // Swap-ins re-enter via a host-link transfer, not
                        // a prefill batch: no launch-overhead wait.
                        AdmitReason::SwapIn => t,
                        _ => cur_launch.unwrap_or(t),
                    };
                } else {
                    // Re-admission after an eviction closes the pending
                    // stall; a recompute admission opens a recompute
                    // episode that its `PrefillDone` will close.
                    if !b.evicted_at.is_nan() {
                        b.stall_pending += t - b.evicted_at;
                        b.evicted_at = f64::NAN;
                    }
                    if !matches!(reason, AdmitReason::SwapIn) {
                        b.recompute_open = t;
                    }
                }
            }
            TraceEvent::PrefillDone { request } => {
                let b = builds.entry(request).or_default();
                if b.first_token.is_nan() {
                    b.first_token = t;
                } else if !b.recompute_open.is_nan() {
                    b.recompute += t - b.recompute_open;
                    b.recompute_open = f64::NAN;
                }
            }
            TraceEvent::Evict { victim, .. } => {
                let b = builds.entry(victim).or_default();
                b.evicted_at = t;
                b.evictions += 1;
            }
            TraceEvent::SessionReuseHit { request, .. } => {
                builds.entry(request).or_default().reuse_hit = true;
            }
            TraceEvent::SessionReuseMiss { request } => {
                builds.entry(request).or_default().reuse_miss = true;
            }
            TraceEvent::RequestFinish {
                request,
                arrival,
                first_token,
            } => {
                let b = builds.entry(request).or_default();
                b.arrival = snap(arrival);
                // Authoritative (the engine's set-once stamp); the
                // journal-side `PrefillDone` guard can only differ by
                // completion-time jitter that never occurs in practice.
                b.first_token = snap(first_token);
                b.finish = t;
            }
            _ => {}
        }
    }

    let mut spans = Vec::with_capacity(builds.len());
    let mut incomplete = 0usize;
    for (request, b) in builds {
        if b.finish.is_nan() || b.first_token.is_nan() || b.admit.is_nan() {
            incomplete += 1;
            continue;
        }
        let ttft = b.first_token - b.arrival;
        let decode_total = b.finish - b.first_token;
        let latency = b.finish - b.arrival;
        let queue = b.admit - b.arrival;
        let prefill_wait = b.batch_ready - b.admit;
        let prefill_exec = ttft - fold_seconds(&[queue, prefill_wait]);
        let stall_pending = b.stall_pending;
        let recompute = b.recompute;
        let decode_active = decode_total - fold_seconds(&[stall_pending, recompute]);
        let residual = latency
            - fold_seconds(&[
                queue,
                prefill_wait,
                prefill_exec,
                stall_pending,
                recompute,
                decode_active,
            ]);
        spans.push(RequestSpan {
            request,
            arrival: b.arrival,
            first_token: b.first_token,
            finish: b.finish,
            ttft,
            decode_total,
            latency,
            evictions: b.evictions,
            reuse_hit: b.reuse_hit,
            reuse_miss: b.reuse_miss,
            components: SpanComponents {
                queue,
                prefill_wait,
                prefill_exec,
                stall_pending,
                recompute,
                decode_active,
                residual,
            },
        });
    }
    (spans, incomplete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_trace::{PrefillStopReason, EvictMode};

    fn journal_one_request() -> FlightRecorder {
        let mut r = FlightRecorder::with_capacity(16);
        r.record(
            1.0,
            TraceEvent::PrefillLaunch {
                seq: 1,
                batch: 1,
                tokens: 100,
                ready: 1.25,
            },
        );
        r.record(
            1.0,
            TraceEvent::PrefillAdmit {
                request: 7,
                tokens: 100,
                reason: AdmitReason::FirstPrefill,
            },
        );
        r.record(
            1.0,
            TraceEvent::PrefillStop {
                reason: PrefillStopReason::Exhausted,
                admitted: 1,
            },
        );
        r.record(2.5, TraceEvent::PrefillDone { request: 7 });
        r.record(
            9.0,
            TraceEvent::RequestFinish {
                request: 7,
                arrival: 0.25,
                first_token: 2.5,
            },
        );
        r
    }

    #[test]
    fn single_request_decomposes_exactly() {
        let (spans, incomplete) = build_spans(&journal_one_request());
        assert_eq!(incomplete, 0);
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.request, 7);
        assert_eq!(s.components.queue, 0.75);
        assert_eq!(s.components.prefill_wait, 0.25);
        assert_eq!(s.components.stall_pending, 0.0);
        assert!(s.identities_hold());
        assert_eq!(s.ttft, 2.25);
        assert_eq!(s.latency, 8.75);
    }

    #[test]
    fn eviction_episode_becomes_stall_plus_recompute() {
        let mut r = journal_one_request();
        // A second request that gets evicted mid-decode and recomputed.
        // (Times continue past the first request's journal entries.)
        let mut r2 = FlightRecorder::with_capacity(16);
        for e in r.events() {
            r2.record(e.t, e.event);
        }
        r2.record(
            10.0,
            TraceEvent::Evict {
                mode: EvictMode::Recompute,
                victim: 7,
            },
        );
        r2.record(
            12.0,
            TraceEvent::PrefillAdmit {
                request: 7,
                tokens: 100,
                reason: AdmitReason::Recompute,
            },
        );
        r2.record(13.5, TraceEvent::PrefillDone { request: 7 });
        r = r2;
        // Re-finish later than before (overwrite semantics: the last
        // RequestFinish wins; in real journals there is exactly one).
        r.record(
            20.0,
            TraceEvent::RequestFinish {
                request: 7,
                arrival: 0.25,
                first_token: 2.5,
            },
        );
        let (spans, _) = build_spans(&r);
        let s = &spans[0];
        assert_eq!(s.evictions, 1);
        assert_eq!(s.components.stall_pending, 2.0);
        assert_eq!(s.components.recompute, 1.5);
        assert!(s.identities_hold());
    }

    #[test]
    fn incomplete_lifecycles_are_skipped_not_fabricated() {
        let mut r = FlightRecorder::with_capacity(4);
        r.record(
            1.0,
            TraceEvent::PrefillAdmit {
                request: 3,
                tokens: 64,
                reason: AdmitReason::FirstPrefill,
            },
        );
        let (spans, incomplete) = build_spans(&r);
        assert!(spans.is_empty());
        assert_eq!(incomplete, 1);
    }

    #[test]
    fn grid_times_close_every_identity() {
        // Request 444 of a 20k-request run: queue 21.45018651996412 s and
        // prefill wait 1.4282944275069624 s against a TTFT of
        // 98.2153954923164 s. Off the grid no f64 `c` makes
        // `(queue + prefill_wait) + c == ttft`. On it, all three
        // identities hold and the residual is exactly +0.0.
        let (arrival, admit, ready, first, finish) = (
            0.0,
            21.45018651996412,
            22.878480947471083,
            98.2153954923164,
            120.0,
        );
        let mut r = FlightRecorder::with_capacity(8);
        r.record(
            admit,
            TraceEvent::PrefillLaunch {
                seq: 1,
                batch: 1,
                tokens: 8,
                ready,
            },
        );
        r.record(
            admit,
            TraceEvent::PrefillAdmit {
                request: 444,
                tokens: 8,
                reason: AdmitReason::FirstPrefill,
            },
        );
        r.record(first, TraceEvent::PrefillDone { request: 444 });
        r.record(
            finish,
            TraceEvent::RequestFinish {
                request: 444,
                arrival,
                first_token: first,
            },
        );
        let (spans, _) = build_spans(&r);
        let s = &spans[0];
        assert!(s.identities_hold());
        assert_eq!(s.components.residual.to_bits(), 0.0f64.to_bits());
        for v in s.components.as_array() {
            assert_eq!(snap(v), v, "{v} is on the grid");
        }
    }
}
