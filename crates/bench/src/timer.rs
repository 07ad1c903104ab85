//! A minimal wall-clock benchmark harness, replacing the external
//! `criterion` crate so the workspace builds with zero external
//! dependencies.
//!
//! Each measurement runs a closure `warmup + iters` times and reports the
//! median of the timed iterations — enough to compare implementations and
//! track a trajectory across PRs, without criterion's statistical
//! machinery.

use std::time::Instant;

/// One timed measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Label (e.g. `hcpa_window_8`).
    pub name: String,
    /// Median wall-clock seconds per iteration.
    pub median_s: f64,
    /// Minimum observed seconds per iteration.
    pub min_s: f64,
    /// Timed iterations.
    pub iters: usize,
}

impl Measurement {
    /// Median in milliseconds.
    pub fn median_ms(&self) -> f64 {
        self.median_s * 1e3
    }
}

/// Times `f` with `warmup` untimed and `iters` timed runs; returns the
/// per-iteration median.
pub fn bench<T>(name: &str, warmup: usize, iters: usize, mut f: impl FnMut() -> T) -> Measurement {
    assert!(iters >= 1, "need at least one timed iteration");
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let median_s = samples[samples.len() / 2];
    Measurement { name: name.to_owned(), median_s, min_s: samples[0], iters }
}

/// Times several passes interleaved: every iteration runs each pass once,
/// in order, so drift of a shared host reaches all of them alike. Returns
/// one row per timed iteration holding each pass's seconds, for the
/// caller to take per-pass minimums or per-iteration ratios from.
pub fn interleaved(warmup: usize, iters: usize, passes: &mut [&mut dyn FnMut()]) -> Vec<Vec<f64>> {
    assert!(iters >= 1, "need at least one timed iteration");
    for _ in 0..warmup {
        for pass in passes.iter_mut() {
            pass();
        }
    }
    (0..iters)
        .map(|_| {
            passes
                .iter_mut()
                .map(|pass| {
                    let t0 = Instant::now();
                    pass();
                    t0.elapsed().as_secs_f64()
                })
                .collect()
        })
        .collect()
}

/// A named group of measurements with aligned console output, loosely
/// mirroring criterion's group API.
pub struct Group {
    name: String,
    results: Vec<Measurement>,
}

impl Group {
    /// Creates a group.
    pub fn new(name: &str) -> Group {
        println!("== {name} ==");
        Group { name: name.to_owned(), results: Vec::new() }
    }

    /// Runs and records one measurement (5 warmup + 9 timed runs).
    pub fn bench<T>(&mut self, name: &str, f: impl FnMut() -> T) -> &Measurement {
        let m = bench(name, 5, 9, f);
        println!("{:<40} {:>12.3} ms/iter  (min {:.3})", m.name, m.median_ms(), m.min_s * 1e3);
        self.results.push(m);
        self.results.last().expect("just pushed")
    }

    /// All measurements so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Group name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_plausible_times() {
        let m = bench("spin", 1, 5, || {
            let mut s = 0u64;
            for i in 0..1000u64 {
                s = s.wrapping_add(i * i);
            }
            s
        });
        assert!(m.median_s >= 0.0);
        assert!(m.min_s <= m.median_s);
        assert_eq!(m.iters, 5);
    }

    #[test]
    fn interleaved_passes_run_in_order_one_row_per_iteration() {
        let log = std::cell::RefCell::new(Vec::new());
        let mut a = || log.borrow_mut().push('a');
        let mut b = || {
            log.borrow_mut().push('b');
            std::thread::sleep(std::time::Duration::from_millis(2));
        };
        let rows = interleaved(1, 3, &mut [&mut a, &mut b]);
        assert_eq!(log.borrow().iter().collect::<String>(), "abababab");
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.len(), 2);
            assert!(row[0] < row[1] && row[1] >= 0.002, "{row:?}");
        }
    }

    #[test]
    fn group_collects_results() {
        let mut g = Group::new("t");
        g.bench("a", || 1 + 1);
        g.bench("b", || 2 + 2);
        assert_eq!(g.results().len(), 2);
        assert_eq!(g.name(), "t");
    }
}
