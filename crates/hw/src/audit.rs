//! Structural heap integrity auditing.
//!
//! A checkpoint is only worth rolling back to if the heap inside it is
//! *well-formed*: every reference in bounds, every constructor saturated,
//! every tag one the hardware could have written. This module checks those
//! invariants directly against the object graph — the same properties the
//! paper's type system guarantees statically, re-verified dynamically at
//! snapshot boundaries (and on demand after any collection).
//!
//! The auditor is pure and read-only. It returns the first violation as a
//! typed [`AuditError`]; a clean pass returns an [`AuditReport`] with the
//! object/word/reachability census. In *strict* mode — used on snapshot
//! heaps, which are compacted live sets by construction — unreachable
//! objects are themselves a violation.

use std::fmt;

use zarf_core::prim::{PrimOp, ERROR_CON_INDEX};

use crate::heap::Heap;
use crate::obj::{AppTarget, HValue, HeapObj, HeapRef};

/// A structural invariant the heap violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditError {
    /// A host root points outside the heap.
    DanglingRoot {
        /// Root slot index.
        slot: usize,
        /// The out-of-bounds reference.
        reference: HeapRef,
    },
    /// An object's payload points outside the heap.
    DanglingField {
        /// The object holding the bad reference.
        object: HeapRef,
        /// Payload slot index within the object.
        slot: usize,
        /// The out-of-bounds reference.
        reference: HeapRef,
    },
    /// A GC forwarding pointer survived outside a collection cycle.
    ForwardedObject {
        /// The offending object.
        object: HeapRef,
    },
    /// A constructor's identifier names nothing constructible.
    UnknownConstructor {
        /// The offending object.
        object: HeapRef,
        /// The unknown identifier.
        id: u32,
    },
    /// A constructor's field count disagrees with its declared arity.
    ArityMismatch {
        /// The offending object.
        object: HeapRef,
        /// The constructor identifier.
        id: u32,
        /// Declared arity.
        expected: usize,
        /// Fields actually present.
        found: usize,
    },
    /// An application's global target names nothing callable.
    UnknownTarget {
        /// The offending object.
        object: HeapRef,
        /// The unknown identifier.
        id: u32,
    },
    /// The heap's word accounting disagrees with its contents.
    WordsMismatch {
        /// `words_used` as recorded by the heap.
        recorded: usize,
        /// Σ `words()` over the actual objects.
        computed: usize,
    },
    /// Strict mode: objects exist that no root reaches (a snapshot heap
    /// must be exactly the live set).
    Unreachable {
        /// How many objects are unreachable.
        objects: usize,
    },
}

impl AuditError {
    /// Stable short name, used in trace events and CLI output.
    pub fn kind(&self) -> &'static str {
        match self {
            AuditError::DanglingRoot { .. } => "dangling-root",
            AuditError::DanglingField { .. } => "dangling-field",
            AuditError::ForwardedObject { .. } => "forwarded",
            AuditError::UnknownConstructor { .. } => "unknown-con",
            AuditError::ArityMismatch { .. } => "arity-mismatch",
            AuditError::UnknownTarget { .. } => "unknown-target",
            AuditError::WordsMismatch { .. } => "words-mismatch",
            AuditError::Unreachable { .. } => "unreachable",
        }
    }
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::DanglingRoot { slot, reference } => {
                write!(f, "root slot {slot} dangles at {reference:#x}")
            }
            AuditError::DanglingField {
                object,
                slot,
                reference,
            } => write!(
                f,
                "object {object:#x} field {slot} dangles at {reference:#x}"
            ),
            AuditError::ForwardedObject { object } => {
                write!(f, "object {object:#x} is a forwarding pointer outside GC")
            }
            AuditError::UnknownConstructor { object, id } => {
                write!(f, "object {object:#x} has unknown constructor {id:#x}")
            }
            AuditError::ArityMismatch {
                object,
                id,
                expected,
                found,
            } => write!(
                f,
                "object {object:#x}: constructor {id:#x} wants {expected} field(s), has {found}"
            ),
            AuditError::UnknownTarget { object, id } => {
                write!(f, "object {object:#x} applies unknown global {id:#x}")
            }
            AuditError::WordsMismatch { recorded, computed } => {
                write!(
                    f,
                    "heap records {recorded} used word(s) but holds {computed}"
                )
            }
            AuditError::Unreachable { objects } => {
                write!(f, "{objects} object(s) unreachable from the roots")
            }
        }
    }
}

impl std::error::Error for AuditError {}

/// Census of a heap that passed the audit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Objects in the heap (live + garbage).
    pub objects: usize,
    /// Words those objects occupy.
    pub words: usize,
    /// Objects reachable from the roots.
    pub reachable: usize,
}

/// Audit `heap` against `roots`.
///
/// `item_shape` maps a global identifier to `(arity, is_constructor)` for
/// program items, `None` for identifiers the program does not define
/// (primitives and the error constructor are recognised internally).
/// `strict` additionally requires every object to be reachable.
pub fn audit_heap(
    heap: &Heap,
    roots: &[HValue],
    item_shape: &dyn Fn(u32) -> Option<(usize, bool)>,
    strict: bool,
) -> Result<AuditReport, AuditError> {
    audit_objects(
        heap.objects(),
        Some(heap.words_used()),
        roots,
        item_shape,
        strict,
    )
}

/// [`audit_heap`] over a borrowed object vector (a snapshot audits its
/// heap in place). `recorded_words`, when given, is the heap's own word
/// count, which must agree with the objects.
pub(crate) fn audit_objects(
    objs: &[HeapObj],
    recorded_words: Option<usize>,
    roots: &[HValue],
    item_shape: &dyn Fn(u32) -> Option<(usize, bool)>,
    strict: bool,
) -> Result<AuditReport, AuditError> {
    let n = objs.len();

    // Word accounting must agree with the contents.
    let computed: usize = objs.iter().map(|o| o.words()).sum();
    if let Some(recorded) = recorded_words {
        if computed != recorded {
            return Err(AuditError::WordsMismatch { recorded, computed });
        }
    }

    // Roots in bounds.
    for (slot, r) in roots.iter().enumerate() {
        if let HValue::Ref(reference) = *r {
            if reference >= n {
                return Err(AuditError::DanglingRoot { slot, reference });
            }
        }
    }

    // Per-object structure: tags, pointer bounds, constructor arity,
    // application targets.
    for (object, obj) in objs.iter().enumerate() {
        for (slot, v) in obj.payload().iter().enumerate() {
            if let HValue::Ref(reference) = *v {
                if reference >= n {
                    return Err(AuditError::DanglingField {
                        object,
                        slot,
                        reference,
                    });
                }
            }
        }
        match obj {
            HeapObj::Forwarded(_) => return Err(AuditError::ForwardedObject { object }),
            HeapObj::Con { id, fields } => {
                let expected = if *id == ERROR_CON_INDEX {
                    // The reserved error constructor carries one code word.
                    1
                } else {
                    match item_shape(*id) {
                        Some((arity, true)) => arity,
                        _ => return Err(AuditError::UnknownConstructor { object, id: *id }),
                    }
                };
                if fields.len() != expected {
                    return Err(AuditError::ArityMismatch {
                        object,
                        id: *id,
                        expected,
                        found: fields.len(),
                    });
                }
            }
            HeapObj::App { target, .. } => {
                if let AppTarget::Global(id) = target {
                    let known = *id == ERROR_CON_INDEX
                        || PrimOp::from_index(*id).is_some()
                        || item_shape(*id).is_some();
                    if !known {
                        return Err(AuditError::UnknownTarget { object, id: *id });
                    }
                } else if let AppTarget::Value(HValue::Ref(reference)) = target {
                    if *reference >= n {
                        return Err(AuditError::DanglingField {
                            object,
                            slot: 0,
                            reference: *reference,
                        });
                    }
                }
            }
            HeapObj::Ind(HValue::Ref(reference)) => {
                if *reference >= n {
                    return Err(AuditError::DanglingField {
                        object,
                        slot: 0,
                        reference: *reference,
                    });
                }
            }
            HeapObj::Ind(_) | HeapObj::BlackHole => {}
        }
    }

    // Reachability census (all references already verified in bounds).
    let mut seen = vec![false; n];
    let mut stack: Vec<HeapRef> = Vec::new();
    let mark = |v: &HValue, seen: &mut Vec<bool>, stack: &mut Vec<HeapRef>| {
        if let HValue::Ref(r) = *v {
            if let Some(flag) = seen.get_mut(r) {
                if !*flag {
                    *flag = true;
                    stack.push(r);
                }
            }
        }
    };
    for r in roots {
        mark(r, &mut seen, &mut stack);
    }
    let mut reachable = 0usize;
    while let Some(r) = stack.pop() {
        reachable += 1;
        let Some(obj) = objs.get(r) else { continue };
        if let HeapObj::App {
            target: AppTarget::Value(v),
            ..
        } = obj
        {
            mark(v, &mut seen, &mut stack);
        }
        if let HeapObj::Ind(v) = obj {
            mark(v, &mut seen, &mut stack);
        }
        for v in obj.payload() {
            mark(v, &mut seen, &mut stack);
        }
    }
    if strict && reachable != n {
        return Err(AuditError::Unreachable {
            objects: n - reachable,
        });
    }

    Ok(AuditReport {
        objects: n,
        words: computed,
        reachable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes(id: u32) -> Option<(usize, bool)> {
        match id {
            0x101 => Some((2, true)),  // a two-field constructor
            0x102 => Some((0, true)),  // a nullary constructor
            0x100 => Some((1, false)), // a one-argument function
            _ => None,
        }
    }

    fn two_cell_heap() -> (Heap, Vec<HValue>) {
        let mut h = Heap::new(1024);
        let leaf = h
            .alloc(HeapObj::Con {
                id: 0x102,
                fields: vec![],
            })
            .unwrap();
        let pair = h
            .alloc(HeapObj::Con {
                id: 0x101,
                fields: vec![HValue::Ref(leaf), HValue::Int(7)],
            })
            .unwrap();
        (h, vec![HValue::Ref(pair)])
    }

    #[test]
    fn clean_heap_passes_with_census() {
        let (h, roots) = two_cell_heap();
        let report = audit_heap(&h, &roots, &shapes, true).unwrap();
        assert_eq!(report.objects, 2);
        assert_eq!(report.words, 2 + 4);
        assert_eq!(report.reachable, 2);
    }

    #[test]
    fn garbage_is_fine_unless_strict() {
        let (mut h, roots) = two_cell_heap();
        h.alloc(HeapObj::Con {
            id: 0x102,
            fields: vec![],
        })
        .unwrap();
        let report = audit_heap(&h, &roots, &shapes, false).unwrap();
        assert_eq!(report.objects, 3);
        assert_eq!(report.reachable, 2);
        assert_eq!(
            audit_heap(&h, &roots, &shapes, true),
            Err(AuditError::Unreachable { objects: 1 })
        );
    }

    #[test]
    fn dangling_references_are_caught() {
        let (mut h, roots) = two_cell_heap();
        if let HeapObj::Con { fields, .. } = h.get_mut(1).unwrap() {
            fields[0] = HValue::Ref(99);
        }
        assert_eq!(
            audit_heap(&h, &roots, &shapes, false),
            Err(AuditError::DanglingField {
                object: 1,
                slot: 0,
                reference: 99
            })
        );
        let bad_root = [HValue::Ref(50)];
        let (h2, _) = two_cell_heap();
        assert_eq!(
            audit_heap(&h2, &bad_root, &shapes, false),
            Err(AuditError::DanglingRoot {
                slot: 0,
                reference: 50
            })
        );
    }

    #[test]
    fn tag_and_arity_violations_are_caught() {
        let (mut h, roots) = two_cell_heap();
        if let HeapObj::Con { id, .. } = h.get_mut(0).unwrap() {
            *id = 0xBEEF;
        }
        assert_eq!(
            audit_heap(&h, &roots, &shapes, false),
            Err(AuditError::UnknownConstructor {
                object: 0,
                id: 0xBEEF
            })
        );

        let (mut h, roots) = two_cell_heap();
        if let HeapObj::Con { fields, .. } = h.get_mut(1).unwrap() {
            fields.pop();
        }
        // Accounting notices the missing word before the arity check can.
        assert_eq!(
            audit_heap(&h, &roots, &shapes, false),
            Err(AuditError::WordsMismatch {
                recorded: 6,
                computed: 5
            })
        );

        let mut h = Heap::new(64);
        let r = h
            .alloc(HeapObj::Con {
                id: 0x101,
                fields: vec![HValue::Int(1)],
            })
            .unwrap();
        assert_eq!(
            audit_heap(&h, &[HValue::Ref(r)], &shapes, false),
            Err(AuditError::ArityMismatch {
                object: 0,
                id: 0x101,
                expected: 2,
                found: 1
            })
        );
    }

    #[test]
    fn forwarding_pointers_and_bad_targets_are_caught() {
        let mut h = Heap::new(64);
        h.alloc(HeapObj::Forwarded(HValue::Int(0))).unwrap();
        assert_eq!(
            audit_heap(&h, &[], &shapes, false),
            Err(AuditError::ForwardedObject { object: 0 })
        );

        let mut h = Heap::new(64);
        let r = h
            .alloc(HeapObj::App {
                target: AppTarget::Global(0xDEAD),
                args: vec![],
            })
            .unwrap();
        assert_eq!(
            audit_heap(&h, &[HValue::Ref(r)], &shapes, false),
            Err(AuditError::UnknownTarget {
                object: 0,
                id: 0xDEAD
            })
        );
    }

    #[test]
    fn error_constructor_is_recognised() {
        let mut h = Heap::new(64);
        let r = h
            .alloc(HeapObj::Con {
                id: ERROR_CON_INDEX,
                fields: vec![HValue::Int(3)],
            })
            .unwrap();
        assert!(audit_heap(&h, &[HValue::Ref(r)], &shapes, true).is_ok());
    }
}
