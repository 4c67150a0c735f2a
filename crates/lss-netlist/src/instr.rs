//! The instruction codec: the one place an instruction becomes a port
//! datum and back.
//!
//! The CPU behaviors in `lss-corelib` move instructions through ports as
//! `Datum::Struct` values with the fields of [`INSTR_FIELDS`]. They share
//! this codec, so every behavior builds instructions over one static
//! [`Layout`] and agrees on the op codes. Decoding reads fields by position when a value carries that
//! layout, and by name otherwise (structs decoded from JSON or binary, or
//! built with `Datum::record`, have layouts of their own).

use std::sync::{Arc, LazyLock};

use lss_types::{Datum, Layout, Record};

/// Operation classes (the `op` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// No-op / bubble.
    Nop = 0,
    /// Integer ALU.
    IAlu = 1,
    /// Integer multiply/divide.
    IMul = 2,
    /// Floating point.
    Fp = 3,
    /// Memory load.
    Load = 4,
    /// Memory store.
    Store = 5,
    /// Branch.
    Branch = 6,
}

impl OpClass {
    /// Decodes the integer encoding used in instruction structs.
    pub fn from_code(code: i64) -> Option<OpClass> {
        Some(match code {
            0 => OpClass::Nop,
            1 => OpClass::IAlu,
            2 => OpClass::IMul,
            3 => OpClass::Fp,
            4 => OpClass::Load,
            5 => OpClass::Store,
            6 => OpClass::Branch,
            _ => return None,
        })
    }

    /// Default execution latency in cycles.
    pub fn latency(self) -> i64 {
        match self {
            OpClass::Nop => 1,
            OpClass::IAlu => 1,
            OpClass::IMul => 3,
            OpClass::Fp => 4,
            OpClass::Load => 2,
            OpClass::Store => 1,
            OpClass::Branch => 1,
        }
    }

    /// True for loads and stores.
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Class matching for functional-unit lanes: `0` accepts anything,
    /// `1..=6` match one class exactly, `7` is a memory unit (loads and
    /// stores), and `8` is an integer-side unit (ALU ops, multiplies, and
    /// branches).
    pub fn accepted_by(self, class: i64) -> bool {
        match class {
            0 => true,
            7 => self.is_mem(),
            8 => matches!(self, OpClass::IAlu | OpClass::IMul | OpClass::Branch),
            c => c == self as i64,
        }
    }
}

/// The instruction struct's field names, in port order.
pub const INSTR_FIELDS: [&str; 8] = ["pc", "op", "dst", "src1", "src2", "lat", "tgt", "taken"];

static INSTR_LAYOUT: LazyLock<Layout> = LazyLock::new(|| Layout::new(INSTR_FIELDS));

/// The layout every instruction datum built by [`Instr::to_datum`] shares.
pub fn instr_layout() -> &'static Layout {
    &INSTR_LAYOUT
}

/// A decoded instruction (component-side view of the struct datum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Program counter.
    pub pc: i64,
    /// Operation class code.
    pub op: i64,
    /// Destination register (-1 = none).
    pub dst: i64,
    /// First source register (-1 = none).
    pub src1: i64,
    /// Second source register (-1 = none).
    pub src2: i64,
    /// Execution latency in cycles.
    pub lat: i64,
    /// Branch target / memory address.
    pub tgt: i64,
    /// Branch outcome (1 = taken); carried with the instruction because the
    /// trace is synthetic.
    pub taken: i64,
}

impl Instr {
    /// A no-op bubble.
    pub fn nop(pc: i64) -> Instr {
        Instr {
            pc,
            op: OpClass::Nop as i64,
            dst: -1,
            src1: -1,
            src2: -1,
            lat: 1,
            tgt: 0,
            taken: 0,
        }
    }

    /// Converts to the port datum representation over the shared
    /// instruction layout: two allocations, the record and its values.
    pub fn to_datum(&self) -> Datum {
        let values = [
            self.pc, self.op, self.dst, self.src1, self.src2, self.lat, self.tgt, self.taken,
        ]
        .map(Datum::Int);
        Datum::Struct(Arc::new(Record::new(
            instr_layout().clone(),
            Vec::from(values),
        )))
    }

    /// Parses the port datum representation: by position when the value
    /// carries the shared layout, by field name otherwise.
    pub fn from_datum(datum: &Datum) -> Option<Instr> {
        let Datum::Struct(rec) = datum else {
            return None;
        };
        let mut f = [0i64; 8];
        if rec.layout().same(instr_layout()) {
            for (slot, v) in f.iter_mut().zip(rec.values()) {
                *slot = v.as_int()?;
            }
        } else {
            for (slot, name) in f.iter_mut().zip(INSTR_FIELDS) {
                *slot = datum.field(name)?.as_int()?;
            }
        }
        let [pc, op, dst, src1, src2, lat, tgt, taken] = f;
        Some(Instr {
            pc,
            op,
            dst,
            src1,
            src2,
            lat,
            tgt,
            taken,
        })
    }

    /// The op class, defaulting to `Nop` for out-of-range codes.
    pub fn op_class(&self) -> OpClass {
        OpClass::from_code(self.op).unwrap_or(OpClass::Nop)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn sample() -> Instr {
        Instr {
            pc: 0x1000,
            op: OpClass::Load as i64,
            dst: 3,
            src1: 1,
            src2: -1,
            lat: 2,
            tgt: 64,
            taken: 0,
        }
    }

    #[test]
    fn shared_layout_round_trips() {
        let d = sample().to_datum();
        let Datum::Struct(rec) = &d else {
            panic!("an instruction is a struct")
        };
        assert!(rec.layout().same(instr_layout()));
        assert_eq!(Instr::from_datum(&d), Some(sample()));
    }

    #[test]
    fn decodes_by_name_from_any_layout() {
        // Same fields, different order: only the by-name path can read it.
        let i = sample();
        let mut fields: Vec<(&str, Datum)> = INSTR_FIELDS
            .iter()
            .zip([i.pc, i.op, i.dst, i.src1, i.src2, i.lat, i.tgt, i.taken])
            .map(|(n, v)| (*n, Datum::Int(v)))
            .collect();
        fields.reverse();
        assert_eq!(Instr::from_datum(&Datum::record(fields)), Some(i));
    }

    #[test]
    fn malformed_values_do_not_decode() {
        assert_eq!(Instr::from_datum(&Datum::Int(1)), None);
        assert_eq!(
            Instr::from_datum(&Datum::record([("pc", Datum::Int(1))])),
            None
        );
        let mut d = sample().to_datum();
        *d.field_mut("lat").unwrap() = Datum::Bool(true);
        assert_eq!(Instr::from_datum(&d), None);
    }

    #[test]
    fn equals_the_same_struct_decoded_from_json_and_binary() {
        use crate::binary::{read_datum, write_datum, Reader, Writer};
        use crate::json::{datum_from, datum_json};

        let d = sample().to_datum();
        let json = datum_json(&d);
        let from_json = datum_from(&crate::jsonval::parse_json(&json).unwrap()).unwrap();
        let mut w = Writer::new();
        write_datum(&mut w, &d);
        let bytes = w.finish();
        let from_binary = read_datum(&mut Reader::new(&bytes)).unwrap();
        for decoded in [&from_json, &from_binary] {
            let Datum::Struct(rec) = decoded else {
                panic!("decodes to a struct")
            };
            // A decoded struct has a layout of its own, so equality and
            // decoding go by field name.
            assert!(!rec.layout().same(instr_layout()));
            assert_eq!(decoded, &d);
            assert_eq!(&d, decoded);
            assert_eq!(Instr::from_datum(decoded), Some(sample()));
        }
    }

    #[test]
    fn class_constraints() {
        assert!(OpClass::Fp.accepted_by(0));
        assert!(OpClass::Store.accepted_by(7));
        assert!(!OpClass::IAlu.accepted_by(7));
        assert!(OpClass::Branch.accepted_by(8));
        assert!(!OpClass::Fp.accepted_by(8));
        assert!(OpClass::Fp.accepted_by(3));
        assert!(!OpClass::Fp.accepted_by(4));
    }
}
