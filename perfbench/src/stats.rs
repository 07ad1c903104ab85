//! Order statistics over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; `NaN` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The request mix of `groups` with every sample replaced by its group's
/// fastest: one value per sample. Requests of one group do the same work,
/// and a shared host runs them at two speeds for seconds at a time (a
/// slow phase takes ~1.85× as long, in CPU time as well as wall time, so
/// it is not time spent descheduled). A group's median moves with the
/// share of the run that fell in slow phases; its fastest request is the
/// one that ran in a fast phase. Quantiles are then taken over the
/// unchanged mix.
pub fn fastest<'a>(groups: impl IntoIterator<Item = &'a Vec<f64>>) -> Vec<f64> {
    groups
        .into_iter()
        .filter(|g| !g.is_empty())
        .flat_map(|g| std::iter::repeat_n(quantile(g, 0.0), g.len()))
        .collect()
}

/// Runs `f` once and returns its wall time in ms with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = std::time::Instant::now();
    let out = std::hint::black_box(f());
    (ms(t.elapsed()), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
        let groups = [vec![1.0, 9.0, 2.0], vec![], vec![5.0]];
        assert_eq!(fastest(&groups), [1.0, 1.0, 1.0, 5.0]);
    }
}
