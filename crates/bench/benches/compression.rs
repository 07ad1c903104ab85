//! Dictionary compression benchmarks (paper §4.4): interning throughput
//! for a repetitive region stream, and the compressed-domain analyses
//! (instance counts, self-parallelism) whose cost depends on the
//! *alphabet* size rather than the dynamic region count — the property
//! that turned "minutes" of planning into "small fractions of a second".
//!
//! Hand-rolled `fn main` timer harness (`kremlin_bench::timer`).

use kremlin_bench::timer::Group;
use kremlin_compress::Dictionary;

/// Builds a dictionary shaped like a profiled triple nest:
/// `reps` outer iterations of a loop whose bodies contain an inner loop
/// with a handful of distinct summaries.
fn build_dict(reps: u64) -> Dictionary {
    let mut d = Dictionary::new();
    let mut outer_children = Vec::new();
    for r in 0..reps {
        // Inner loop: 64 bodies, 4 distinct shapes.
        let mut inner_children = Vec::new();
        for k in 0..64u64 {
            let shape = k % 4;
            let b = d.intern(5, 40 + shape, 20 + shape, &[]);
            inner_children.push((b, 1));
        }
        let inner = d.intern(4, 4000, 80 + (r % 2), &inner_children);
        let body = d.intern(3, 4100, 160 + (r % 2), &[(inner, 1)]);
        outer_children.push((body, 1));
    }
    let outer = d.intern(2, 4200 * reps, 900, &outer_children);
    let root = d.intern(1, 4300 * reps, 1000, &[(outer, 1)]);
    d.set_root(root);
    d
}

fn main() {
    let mut g = Group::new("compression");

    g.bench("intern_100k_summaries", || build_dict(1500)); // ~100k interns

    let d = build_dict(1500);
    g.bench("instance_counts_on_alphabet", || d.instance_counts());
    g.bench("self_parallelism_on_alphabet", || d.self_parallelism());

    // Scaling: doubling the dynamic stream should *not* double analysis
    // cost (alphabet barely grows).
    let d2 = build_dict(3000);
    g.bench("self_parallelism_on_2x_stream", || d2.self_parallelism());
}
