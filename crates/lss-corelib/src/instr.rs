//! The synthetic instruction model shared by the CPU components.
//!
//! The paper's models run real ISAs (DLX, IA-64, Itanium 2) on real traces.
//! Our substitute (DESIGN.md) is a seeded synthetic instruction stream with
//! a controllable operation mix, register locality, branch behavior, and
//! memory-address stream — enough to exercise every pipeline code path
//! (RAW hazards, structural hazards, branch mispredictions, cache misses)
//! that the paper's structural metrics and examples depend on.
//!
//! An instruction travels through ports as a `Datum::Struct` with the
//! fields of [`INSTR_TYPE_LSS`]; [`Instr`] and [`OpClass`] come from the
//! codec in `lss_netlist::instr`.

use lss_netlist::INSTR_FIELDS;
pub use lss_netlist::{Instr, OpClass};
use lss_types::{SplitMix64, Ty};

/// The LSS type of an instruction, for port declarations in corelib.lss.
pub const INSTR_TYPE_LSS: &str =
    "struct { pc:int; op:int; dst:int; src1:int; src2:int; lat:int; tgt:int; taken:int; }";

/// The ground [`Ty`] matching [`INSTR_TYPE_LSS`].
pub fn instr_ty() -> Ty {
    Ty::Struct(
        INSTR_FIELDS
            .iter()
            .map(|f| (f.to_string(), Ty::Int))
            .collect(),
    )
}

/// Instruction-mix percentages for the synthetic workload. Values are
/// weights (they need not sum to 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Integer ALU weight.
    pub ialu: u32,
    /// Integer multiply weight.
    pub imul: u32,
    /// Floating-point weight.
    pub fp: u32,
    /// Load weight.
    pub load: u32,
    /// Store weight.
    pub store: u32,
    /// Branch weight.
    pub branch: u32,
}

impl Default for Mix {
    /// A SPECint-flavored default mix.
    fn default() -> Self {
        Mix {
            ialu: 40,
            imul: 4,
            fp: 8,
            load: 24,
            store: 12,
            branch: 12,
        }
    }
}

/// Deterministic synthetic instruction-stream generator.
///
/// Branches are drawn from a fixed set of *branch sites*, each with its own
/// strongly biased direction around the stream-wide `taken_pct` — this is
/// what makes history-based predictors learnable, like real code.
#[derive(Debug)]
pub struct Workload {
    rng: SplitMix64,
    mix: Mix,
    num_regs: i64,
    pc: i64,
    /// Probability (in percent) that a branch is taken, stream-wide.
    taken_pct: u32,
    /// (site pc, per-site taken probability in percent).
    branch_sites: Vec<(i64, u32)>,
    /// Working-set size in words for memory addresses.
    mem_footprint: i64,
    emitted: u64,
}

impl Workload {
    /// Creates a generator.
    pub fn new(seed: u64, mix: Mix, num_regs: i64) -> Workload {
        let mut w = Workload {
            rng: SplitMix64::new(seed),
            mix,
            num_regs: num_regs.max(2),
            pc: 0x1000,
            taken_pct: 60,
            branch_sites: Vec::new(),
            mem_footprint: 1 << 14,
            emitted: 0,
        };
        w.reseed_branch_sites();
        w
    }

    /// Rebuilds the branch-site table for the current `taken_pct`: sites
    /// are strongly biased (90/10) with the mix of directions chosen so the
    /// stream-wide taken rate matches `taken_pct`.
    fn reseed_branch_sites(&mut self) {
        const SITES: usize = 64;
        self.branch_sites = (0..SITES)
            .map(|i| {
                let pc = 0x9000 + (i as i64) * 4;
                let bias = if self.rng.percent(self.taken_pct) {
                    90
                } else {
                    10
                };
                (pc, bias)
            })
            .collect();
    }

    /// Overrides the branch-taken probability (percent).
    pub fn with_taken_pct(mut self, pct: u32) -> Workload {
        self.taken_pct = pct.min(100);
        self.reseed_branch_sites();
        self
    }

    /// Overrides the memory working-set size (words).
    pub fn with_mem_footprint(mut self, words: i64) -> Workload {
        self.mem_footprint = words.max(1);
        self
    }

    /// Number of instructions generated so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    fn pick_class(&mut self) -> OpClass {
        let m = self.mix;
        let total = m.ialu + m.imul + m.fp + m.load + m.store + m.branch;
        if total == 0 {
            return OpClass::IAlu;
        }
        let mut roll = self.rng.range_u32(0, total);
        for (weight, class) in [
            (m.ialu, OpClass::IAlu),
            (m.imul, OpClass::IMul),
            (m.fp, OpClass::Fp),
            (m.load, OpClass::Load),
            (m.store, OpClass::Store),
            (m.branch, OpClass::Branch),
        ] {
            if roll < weight {
                return class;
            }
            roll -= weight;
        }
        OpClass::IAlu
    }

    /// Generates the next instruction.
    pub fn next_instr(&mut self) -> Instr {
        let class = self.pick_class();
        let reg = |rng: &mut SplitMix64, n: i64| rng.range_i64(0, n);
        // Register locality: bias sources toward recently written registers
        // (low numbers) to create realistic RAW-hazard density.
        let src_reg = |rng: &mut SplitMix64, n: i64| {
            if rng.percent(60) {
                rng.range_i64(0, (n / 4).max(1))
            } else {
                rng.range_i64(0, n)
            }
        };
        let n = self.num_regs;
        let pc = self.pc;
        let mut instr = match class {
            OpClass::Nop => Instr::nop(pc),
            OpClass::Branch => {
                let site = self.rng.index(self.branch_sites.len());
                let (site_pc, bias) = self.branch_sites[site];
                let taken = self.rng.percent(bias) as i64;
                Instr {
                    pc: site_pc,
                    op: class as i64,
                    dst: -1,
                    src1: src_reg(&mut self.rng, n),
                    src2: -1,
                    lat: class.latency(),
                    tgt: site_pc + 64,
                    taken,
                }
            }
            OpClass::Load => Instr {
                pc,
                op: class as i64,
                dst: reg(&mut self.rng, n),
                src1: src_reg(&mut self.rng, n),
                src2: -1,
                lat: class.latency(),
                tgt: self.mem_addr(),
                taken: 0,
            },
            OpClass::Store => Instr {
                pc,
                op: class as i64,
                dst: -1,
                src1: src_reg(&mut self.rng, n),
                src2: src_reg(&mut self.rng, n),
                lat: class.latency(),
                tgt: self.mem_addr(),
                taken: 0,
            },
            _ => Instr {
                pc,
                op: class as i64,
                dst: reg(&mut self.rng, n),
                src1: src_reg(&mut self.rng, n),
                src2: src_reg(&mut self.rng, n),
                lat: class.latency(),
                tgt: 0,
                taken: 0,
            },
        };
        // Mark nops explicitly (shouldn't happen through pick_class).
        if instr.op == OpClass::Nop as i64 {
            instr.lat = 1;
        }
        self.pc += 4;
        self.emitted += 1;
        instr
    }

    /// A memory address with 75% spatial locality.
    fn mem_addr(&mut self) -> i64 {
        if self.rng.percent(75) {
            // Near the last address region.
            (self.pc / 4 % self.mem_footprint) * 4
        } else {
            self.rng.range_i64(0, self.mem_footprint) * 4
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datum_round_trip() {
        let mut w = Workload::new(7, Mix::default(), 32);
        for _ in 0..100 {
            let i = w.next_instr();
            let d = i.to_datum();
            assert!(
                d.conforms_to(&instr_ty()),
                "{d} should conform to the instr type"
            );
            assert_eq!(Instr::from_datum(&d), Some(i));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a: Vec<Instr> = (0..50)
            .map(|_| Workload::new(42, Mix::default(), 32).next_instr())
            .collect();
        let mut w1 = Workload::new(42, Mix::default(), 32);
        let mut w2 = Workload::new(42, Mix::default(), 32);
        for _ in 0..50 {
            assert_eq!(w1.next_instr(), w2.next_instr());
        }
        // Different seed differs somewhere in the first 50.
        let mut w3 = Workload::new(43, Mix::default(), 32);
        let differs = a.iter().any(|i| *i != w3.next_instr());
        assert!(differs);
    }

    #[test]
    fn mix_weights_are_respected() {
        let mix = Mix {
            ialu: 0,
            imul: 0,
            fp: 0,
            load: 100,
            store: 0,
            branch: 0,
        };
        let mut w = Workload::new(1, mix, 32);
        for _ in 0..200 {
            assert_eq!(w.next_instr().op_class(), OpClass::Load);
        }
        assert_eq!(w.emitted(), 200);
    }

    #[test]
    fn branch_taken_rate_tracks_parameter() {
        let mix = Mix {
            ialu: 0,
            imul: 0,
            fp: 0,
            load: 0,
            store: 0,
            branch: 100,
        };
        let mut w = Workload::new(9, mix, 32).with_taken_pct(80);
        let taken: i64 = (0..1000).map(|_| w.next_instr().taken).sum();
        assert!(
            (700..900).contains(&taken),
            "taken rate {taken}/1000 should be near 80%"
        );
    }

    #[test]
    fn destinations_are_valid_registers() {
        let mut w = Workload::new(3, Mix::default(), 16);
        for _ in 0..500 {
            let i = w.next_instr();
            assert!(i.dst >= -1 && i.dst < 16);
            assert!(i.src1 >= -1 && i.src1 < 16);
            assert!(i.lat >= 1);
        }
    }

    #[test]
    fn op_class_codes_round_trip() {
        for class in [
            OpClass::Nop,
            OpClass::IAlu,
            OpClass::IMul,
            OpClass::Fp,
            OpClass::Load,
            OpClass::Store,
            OpClass::Branch,
        ] {
            assert_eq!(OpClass::from_code(class as i64), Some(class));
        }
        assert_eq!(OpClass::from_code(99), None);
    }
}
