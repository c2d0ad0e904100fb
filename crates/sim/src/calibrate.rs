//! Cost-model calibration: fit the simulator's per-vertex / per-message
//! charges from a real instrumented run's trace events.
//!
//! The thread engine stamps every `VertexExecute` with its wall-clock
//! duration and the number of messages consumed (`arg`), and every
//! `BatchFlush` with the time it took to land and its batch size. A
//! least-squares line through the observed `(arg, dur)` points fits the
//! cost model's linear shapes (`vertex_cost = a + b·msgs_in`, `batch_cost
//! = lat + c·msgs`), so a cost model fitted from a run on *this* machine
//! replays that machine's shape inside the simulator.

use sg_metrics::{CostModel, TraceEvent, TraceEventKind};

/// A fitted cost model plus how much evidence backed each fit.
#[derive(Clone, Copy, Debug)]
pub struct CostFit {
    /// The calibrated model (unfitted fields keep the base model's value).
    pub model: CostModel,
    /// `VertexExecute` samples behind the compute fit (0 = kept base).
    pub vertex_samples: usize,
    /// `BatchFlush` samples behind the wire fit (0 = kept base).
    pub batch_samples: usize,
}

/// Ordinary least squares for `y = a + b·x` over integer samples.
/// Returns `None` with fewer than two distinct `x` values.
fn least_squares(points: &[(u64, u64)]) -> Option<(f64, f64)> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|&(x, _)| x as f64).sum();
    let sy: f64 = points.iter().map(|&(_, y)| y as f64).sum();
    let sxx: f64 = points.iter().map(|&(x, _)| (x as f64) * (x as f64)).sum();
    let sxy: f64 = points.iter().map(|&(x, y)| (x as f64) * (y as f64)).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    Some((intercept, slope))
}

fn clamp_ns(v: f64) -> u64 {
    if v.is_finite() && v > 0.0 {
        v.round() as u64
    } else {
        0
    }
}

/// Fit a [`CostModel`] from trace events of a real run, starting from
/// `base` for every parameter the trace has no evidence for.
pub fn fit_cost_model(events: &[TraceEvent], base: &CostModel) -> CostFit {
    let mut model = *base;

    let vertex: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.kind == TraceEventKind::VertexExecute)
        .map(|e| (e.arg, e.dur_ns))
        .collect();
    let vertex_samples = vertex.len();
    match least_squares(&vertex) {
        Some((a, b)) => {
            model.vertex_compute_ns = clamp_ns(a);
            model.per_message_compute_ns = clamp_ns(b);
        }
        None if !vertex.is_empty() => {
            // All samples at one message count: no slope; take the mean as
            // the fixed compute charge, keep the base per-message term.
            let mean = vertex.iter().map(|&(_, y)| y as f64).sum::<f64>() / vertex.len() as f64;
            model.vertex_compute_ns =
                clamp_ns(mean - base.per_message_compute_ns as f64 * vertex[0].0 as f64);
        }
        None => {}
    }

    let batches: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.kind == TraceEventKind::BatchFlush)
        .map(|e| (e.arg, e.dur_ns))
        .collect();
    let batch_samples = batches.len();
    if let Some((a, b)) = least_squares(&batches) {
        model.network_latency_ns = clamp_ns(a);
        model.per_remote_message_ns = clamp_ns(b);
    }

    CostFit {
        model,
        vertex_samples,
        batch_samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceEventKind, arg: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            worker: 0,
            superstep: 0,
            kind,
            ts_ns: 0,
            dur_ns: dur,
            arg,
            peer: None,
        }
    }

    #[test]
    fn recovers_exact_linear_model() {
        // dur = 300 + 25·msgs, batches = 1000 + 7·msgs.
        let mut events = Vec::new();
        for n in [0u64, 1, 2, 5, 16] {
            events.push(ev(TraceEventKind::VertexExecute, n, 300 + 25 * n));
        }
        for n in [1u64, 8, 64] {
            events.push(ev(TraceEventKind::BatchFlush, n, 1000 + 7 * n));
        }
        let fit = fit_cost_model(&events, &CostModel::default());
        assert_eq!(fit.vertex_samples, 5);
        assert_eq!(fit.batch_samples, 3);
        assert_eq!(fit.model.vertex_compute_ns, 300);
        assert_eq!(fit.model.per_message_compute_ns, 25);
        assert_eq!(fit.model.network_latency_ns, 1000);
        assert_eq!(fit.model.per_remote_message_ns, 7);
    }

    #[test]
    fn no_evidence_keeps_base() {
        let base = CostModel::default();
        let fit = fit_cost_model(&[], &base);
        assert_eq!(fit.model, base);
        assert_eq!(fit.vertex_samples, 0);
    }

    #[test]
    fn degenerate_x_falls_back_to_mean() {
        let base = CostModel::default();
        let events = vec![
            ev(TraceEventKind::VertexExecute, 2, 400),
            ev(TraceEventKind::VertexExecute, 2, 480),
        ];
        let fit = fit_cost_model(&events, &base);
        // mean 440 minus base per-message charge for the constant 2 msgs.
        assert_eq!(
            fit.model.vertex_compute_ns,
            440 - 2 * base.per_message_compute_ns
        );
        assert_eq!(
            fit.model.per_message_compute_ns,
            base.per_message_compute_ns
        );
    }
}
