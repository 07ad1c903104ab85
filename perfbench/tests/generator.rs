//! The benchmark's own inputs and names: the generator is a pure
//! function of the seed, the paper programs are the suite's, and every
//! metric name is well-formed and declared in `BENCHMARK.json`.

use kremlin::obs::json::{self, Value};
use kremlin_perfbench::gen::{self, Request, Stream};
use kremlin_perfbench::{reference, END_TO_END, PER_LAYER};

fn wire_bytes(seed: u64, programs: &[gen::Program]) -> Vec<u8> {
    let requests = gen::serve_requests(seed, 1);
    gen::encode(&requests, programs, &gen::upload_bodies(&requests, programs))
}

#[test]
fn same_seed_same_requests_other_seed_other_requests() {
    let programs = gen::paper_programs();
    let a = wire_bytes(7, &programs);
    assert_eq!(a, wire_bytes(7, &programs), "same seed must give the same bytes");
    assert_ne!(a, wire_bytes(8, &programs), "another seed must give other bytes");

    let order = |seed| gen::shuffled(&mut gen::rng(seed, Stream::PassOrder), programs.len());
    assert_eq!(order(7), order(7));
    assert_ne!(order(7), order(8));
}

#[test]
fn upload_bytes_are_reproducible_traces() {
    let programs = gen::paper_programs();
    let ep = programs.iter().find(|p| p.name == "ep").expect("ep is a paper program");
    let body = gen::upload_body(ep, 1);
    assert_eq!(body, gen::upload_body(ep, 1));
    assert_ne!(body, gen::upload_body(ep, 0), "variants are distinct modules");
    let trace = kremlin::Trace::from_bytes(&body).expect("upload is a valid .ktrace");
    assert_eq!(trace.source, gen::upload_source(ep, 1), "the upload embeds its source");
    assert!(trace.source.starts_with(ep.source));
}

#[test]
fn decks_have_the_documented_mix() {
    let requests = gen::serve_requests(3, 2);
    assert_eq!(requests.len(), 2 * gen::DECK);
    assert_eq!(gen::PAPER_SLOTS.iter().sum::<usize>() + gen::SCENARIO_SLOTS + 12, gen::DECK);
    let count = |f: &dyn Fn(&Request) -> bool| requests.iter().filter(|r| f(r)).count();
    assert_eq!(
        count(&|r| matches!(r, Request::Paper(_))),
        2 * gen::PAPER_SLOTS.iter().sum::<usize>()
    );
    assert_eq!(count(&|r| matches!(r, Request::Scenario { .. })), 2 * gen::SCENARIO_SLOTS);
    assert_eq!(count(&|r| matches!(r, Request::Upload { .. })), 2 * 12);
    let mut names: Vec<&str> = requests
        .iter()
        .filter_map(|r| match r {
            Request::Scenario { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 2 * gen::SCENARIO_SLOTS, "scenario names must be unique");
}

#[test]
fn paper_programs_are_the_suite() {
    let ours = gen::paper_programs();
    let suite = kremlin_workloads::all();
    assert_eq!(ours.len(), 12);
    for (p, w) in ours.iter().zip(&suite) {
        assert_eq!((p.name, p.source), (w.name, w.source));
        assert_eq!(p.file, w.file_name());
    }
    let expected = reference::load(&ours).expect("expected_plans.json covers the suite");
    assert!(expected.iter().all(|e| e.events > 0 && !e.plan.is_empty()));
}

#[test]
fn metric_names_are_well_formed_and_declared() {
    let ok = |n: &str| {
        !n.is_empty() && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
    for n in &all {
        assert!(ok(n), "metric name {n:?} must match [A-Za-z0-9_.-]+");
    }
    let mut unique = all.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "metric names must be unique");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(names("end_to_end"), owned(END_TO_END));
    assert_eq!(names("per_layer"), owned(PER_LAYER));
}
