//! Seeded inputs. Everything a run submits is a pure function of
//! `--seed`: the cold workloads' pass orders, and the serve-mix request
//! sequence (program choice, scenario sources, upload bytes).

use kremlin::interp::trace;
use kremlin_workloads::rng::XorShift;
use kremlin_workloads::scenario::ScenarioSpec;

/// One paper workload as submitted.
#[derive(Debug, Clone)]
pub struct Program {
    /// Workload name (`bt`, `cg`, ...).
    pub name: &'static str,
    /// Source file name sent with the program (`bt.kc`).
    pub file: String,
    /// mini-C source.
    pub source: &'static str,
}

/// The 12 paper workloads, in `kremlin_workloads::all()` order.
pub fn paper_programs() -> Vec<Program> {
    kremlin_workloads::all()
        .into_iter()
        .map(|w| Program { name: w.name, file: w.file_name(), source: w.source })
        .collect()
}

/// Independent generator streams derived from one seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Cold-workload pass orders.
    PassOrder = 1,
    /// Serve-mix request sequence.
    ServeMix = 2,
}

/// A generator for `stream` of `seed` (splitmix64 spreads nearby seeds).
pub fn rng(seed: u64, stream: Stream) -> XorShift {
    let mut z = seed ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    XorShift::new(z ^ (z >> 31))
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn shuffled(rng: &mut XorShift, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.index(i + 1));
    }
    order
}

/// One serve-mix request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `POST /v1/profile` of paper program `i` (a resubmission).
    Paper(usize),
    /// `POST /v1/profile` of a generated program under a name no other
    /// request uses, so every stage misses the cache.
    Scenario {
        /// Unique source name.
        name: String,
        /// Lowered mini-C source.
        source: String,
    },
    /// `POST /v1/trace` of a recorded `.ktrace` of paper program
    /// `program`, made unique by [`upload_source`] `variant`.
    Upload {
        /// Paper program index.
        program: usize,
        /// Distinguishes the module from every other upload of the run.
        variant: usize,
    },
}

/// Paper-program resubmissions per deck, by program index (popularity
/// rank): Zipf(1) over the 12 programs, scaled to 90 slots.
pub const PAPER_SLOTS: [usize; 12] = [29, 15, 10, 7, 6, 5, 4, 4, 3, 3, 2, 2];
/// Unique scenario programs per deck.
pub const SCENARIO_SLOTS: usize = 18;
/// Seed of the fixed deck order.
const DECK_ORDER_SEED: u64 = 0x6b72_656d;
/// Requests per deck: 75% resubmissions, 15% unique scenario programs,
/// 10% uploads (each paper program's `.ktrace` once, as a module no other
/// request submits, so every upload decodes).
pub const DECK: usize = 120;

/// The serve-mix request sequence: `decks` decks, with scenario programs
/// drawn from `seed`.
///
/// Every deck holds the same multiset of requests — the popularity
/// counts of [`PAPER_SLOTS`], [`SCENARIO_SLOTS`] generated programs and
/// one upload per paper program — in a fixed order. The seed draws the
/// scenario specs. The schedule of resubmissions and uploads, and so
/// which of them the LRU cache holds, is the same for every seed: the
/// tail of the latency distribution is its cache misses, and a seeded
/// order would change which programs miss from run to run.
pub fn serve_requests(seed: u64, decks: usize) -> Vec<Request> {
    let mut order = rng(DECK_ORDER_SEED, Stream::ServeMix);
    let mut rng = rng(seed, Stream::ServeMix);
    let mut deck: Vec<Option<Request>> = Vec::with_capacity(DECK);
    for (i, &n) in PAPER_SLOTS.iter().enumerate() {
        deck.extend(std::iter::repeat_n(Some(Request::Paper(i)), n));
    }
    deck.extend(std::iter::repeat_n(None, SCENARIO_SLOTS));
    deck.extend(
        (0..PAPER_SLOTS.len()).map(|program| Some(Request::Upload { program, variant: 0 })),
    );
    debug_assert_eq!(deck.len(), DECK);

    let mut out = Vec::with_capacity(decks * DECK);
    for variant in 0..decks {
        for slot in shuffled(&mut order, DECK) {
            let index = out.len();
            let request = match &deck[slot] {
                Some(Request::Upload { program, .. }) => {
                    Some(Request::Upload { program: *program, variant })
                }
                other => other.clone(),
            };
            out.push(request.unwrap_or_else(|| {
                let spec = ScenarioSpec::sample(&mut rng);
                let name = format!("u{index:05}_{}.kc", spec.name());
                Request::Scenario { name, source: spec.lower() }
            }));
        }
    }
    out
}

/// The source an upload records: `program`'s source followed by
/// `variant + 1` functions that are never called. The module (and so its
/// fingerprint) is new, so the upload misses every cache stage, while
/// the executed code, its line numbers and hence its plan are the
/// program's own.
pub fn upload_source(program: &Program, variant: usize) -> String {
    let mut source = program.source.to_owned();
    for k in 0..=variant {
        source.push_str(&format!("\nint perfbench_upload_{k}() {{ return {k}; }}\n"));
    }
    source
}

/// The `.ktrace` bytes a client uploads: one recorded execution of
/// [`upload_source`], with that source embedded so the trace is
/// self-contained.
///
/// # Panics
///
/// If a paper program fails to compile or run — the suite is fixed.
pub fn upload_body(program: &Program, variant: usize) -> Vec<u8> {
    let source = upload_source(program, variant);
    let unit = kremlin::ir::compile(&source, &program.file).expect("paper program compiles");
    let mut recorded =
        trace::record(&unit.module, kremlin::MachineConfig::default()).expect("paper program runs");
    recorded.source = source;
    recorded.to_bytes()
}

/// The upload bodies of `requests`, parallel to it (empty for other
/// requests).
pub fn upload_bodies(requests: &[Request], programs: &[Program]) -> Vec<Vec<u8>> {
    requests
        .iter()
        .map(|r| match r {
            Request::Upload { program, variant } => upload_body(&programs[*program], *variant),
            _ => Vec::new(),
        })
        .collect()
}

/// Canonical bytes of a request sequence: what goes on the wire, in
/// order. Two sequences are the same workload exactly when these bytes
/// are equal.
pub fn encode(requests: &[Request], programs: &[Program], uploads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for (r, upload) in requests.iter().zip(uploads) {
        let (tag, name, body): (u8, &str, &[u8]) = match r {
            Request::Paper(i) => (b'P', &programs[*i].file, programs[*i].source.as_bytes()),
            Request::Scenario { name, source } => (b'S', name, source.as_bytes()),
            Request::Upload { program, .. } => (b'U', &programs[*program].file, upload),
        };
        out.push(tag);
        out.extend_from_slice(&(name.len() as u64).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(body);
    }
    out
}
