//! Which instruction events a profile needs (the static half of the
//! paper's instrumentation pass, §3 and Fig. 4: kremlin-cc decides which
//! instructions report to KremLib at all).
//!
//! Each block is split into *segments* at region and control-dependence
//! markers and at calls; inside a segment the profiler's control
//! dependence, open regions and tracked depths are constant. A value is
//! **committed** if it is a parameter, phi, load or store; if it is used
//! outside its segment, or by a phi, a call, a `cd.push`, a branch or a
//! return; or if nothing in its segment reads it (the *sink rule*, over
//! the operands that survive [`ValueData::break_dep_on`]). Every other
//! value is **folded**: its event carries nothing the profile needs, since
//! the committed values of its segment that read it, directly or through
//! other folded values, account for its count, latency and times.
//!
//! [`committed`] is the one definition of that set. The profiler selects
//! exactly those events, the trace recorder writes only those, and trace
//! replay rejects any other instruction event.

use crate::func::{Function, ValueData};
use crate::ids::ValueId;
use crate::instr::{InstrKind, Terminator};

/// Whether `kind` ends a segment and belongs to none: a region or
/// control-dependence marker, or a call. Their events are not
/// instruction events.
pub fn splits(kind: &InstrKind) -> bool {
    kind.is_marker() || matches!(kind, InstrKind::Call { .. })
}

/// The operands whose times `v` reads: distinct, in operand order, and
/// without the dependence it breaks ([`ValueData::break_dep_on`]) when
/// `break_deps` is set. Parameters and phis read theirs at run time and
/// get none.
pub fn reads(v: &ValueData, break_deps: bool) -> Vec<ValueId> {
    if matches!(v.kind, InstrKind::Param(_) | InstrKind::Phi { .. }) {
        return Vec::new();
    }
    let broken = if break_deps { v.break_dep_on } else { None };
    let mut operands = Vec::new();
    v.kind.operands(&mut operands);
    let mut reads: Vec<ValueId> = Vec::with_capacity(operands.len());
    for o in operands {
        if Some(o) != broken && !reads.contains(&o) {
            reads.push(o);
        }
    }
    reads
}

/// Whether each value of `f` is committed (see the module docs), indexed
/// by value. Markers, calls and values in no block count as committed:
/// they fold into nothing.
pub fn committed(f: &Function) -> Vec<bool> {
    // Segment of each value; markers, calls and values in no block have
    // none (`NONE`).
    const NONE: u32 = u32::MAX;
    let n = f.values.len();
    let mut segment = vec![NONE; n];
    let mut next = 0;
    for b in &f.blocks {
        next += 1;
        for &v in &b.instrs {
            if splits(&f.value(v).kind) {
                next += 1;
            } else {
                segment[v.index()] = next;
            }
        }
    }

    let mut committed: Vec<bool> = f
        .values
        .iter()
        .zip(&segment)
        .map(|(v, &seg)| {
            seg == NONE
                || matches!(
                    v.kind,
                    InstrKind::Param(_)
                        | InstrKind::Phi { .. }
                        | InstrKind::Load(_)
                        | InstrKind::Store { .. }
                )
        })
        .collect();
    let mut read = vec![false; n];
    let mut operands = Vec::new();
    for b in &f.blocks {
        for &u in &b.instrs {
            let value = f.value(u);
            // A phi, a call and a `cd.push` read their operands' runs.
            let boundary = matches!(
                value.kind,
                InstrKind::Phi { .. } | InstrKind::Call { .. } | InstrKind::CdPush(_)
            );
            operands.clear();
            value.kind.operands(&mut operands);
            for &o in &operands {
                if boundary || segment[o.index()] != segment[u.index()] {
                    committed[o.index()] = true;
                }
            }
            for o in reads(value, true) {
                read[o.index()] = true;
            }
        }
        match b.term {
            Some(Terminator::CondBr { cond: v, .. }) | Some(Terminator::Ret(Some(v))) => {
                committed[v.index()] = true;
            }
            _ => {}
        }
    }
    // The sink rule: a value nothing in its segment reads is committed.
    // Every folded value then has a committed reader later in its
    // segment, directly or through folded values, and every segment ends
    // in a committed value.
    for (c, &r) in committed.iter_mut().zip(&read) {
        *c |= !r;
    }
    committed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    #[test]
    fn memory_phis_params_markers_and_calls_are_committed() {
        let src = "float a[8];\n\
            float g(float x) { return x * 2.0 + 1.0; }\n\
            int main() { for (int i = 0; i < 8; i++) { a[i] = g((float) i) * 3.0; } return (int) a[3]; }";
        let unit = compile(src, "t.kc").unwrap();
        for f in &unit.module.funcs {
            let c = committed(f);
            for (v, data) in f.values.iter().enumerate() {
                if matches!(
                    data.kind,
                    InstrKind::Param(_)
                        | InstrKind::Phi { .. }
                        | InstrKind::Load(_)
                        | InstrKind::Store { .. }
                        | InstrKind::Call { .. }
                ) || data.kind.is_marker()
                {
                    assert!(c[v], "{}: v{v} {:?} must be committed", f.name, data.kind);
                }
            }
        }
        // `x * 2.0` feeds `+ 1.0` in its own segment: folded.
        let g = committed(unit.module.func_by_name("g").unwrap());
        assert!(g.contains(&false), "g folds its product");
    }

    #[test]
    fn a_broken_dependence_is_no_read() {
        // `s += a[i]` and `i++` break their dependence on their phis.
        let unit = compile(
            "float a[8]; int main() { float s = 0.0; for (int i = 0; i < 8; i++) { s += a[i]; } return (int) s; }",
            "t.kc",
        )
        .unwrap();
        let f = unit.module.func_by_name("main").unwrap();
        let broken: Vec<&ValueData> =
            f.values.iter().filter(|v| v.break_dep_on.is_some()).collect();
        assert!(!broken.is_empty(), "the loop has dependence-breaking updates");
        for v in broken {
            let dep = v.break_dep_on.unwrap();
            assert!(!reads(v, true).contains(&dep));
            assert!(reads(v, false).contains(&dep));
        }
    }
}
