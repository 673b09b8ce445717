//! Instruction-mix profiling over execution traces.
//!
//! The §2 motivation argument is about *where a sparse kernel's
//! instructions go* — metadata loads, address arithmetic, gathers — so the
//! simulator provides a categorized histogram of any traced run. The
//! `motivation` figure uses the aggregate counters; this module gives the
//! per-category breakdown for kernel debugging and for readers who want to
//! see the overhead instruction by instruction.

use crate::core::TraceEntry;
use hht_isa::Instr;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Coarse instruction categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Integer ALU and immediate ops (address arithmetic lives here).
    IntAlu,
    /// Multiplies and divides.
    MulDiv,
    /// Scalar loads.
    ScalarLoad,
    /// Scalar stores.
    ScalarStore,
    /// Branches and jumps.
    ControlFlow,
    /// Scalar floating point.
    Float,
    /// Vector arithmetic (incl. reductions and moves).
    VectorArith,
    /// Vector unit-stride memory.
    VectorMem,
    /// Vector indexed (gather) memory — the §2 indirect accesses.
    VectorGather,
    /// CSR access, ecall/ebreak, vsetvli.
    System,
}

impl Category {
    /// All categories in display order.
    pub const ALL: [Category; 10] = [
        Category::IntAlu,
        Category::MulDiv,
        Category::ScalarLoad,
        Category::ScalarStore,
        Category::ControlFlow,
        Category::Float,
        Category::VectorArith,
        Category::VectorMem,
        Category::VectorGather,
        Category::System,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Category::IntAlu => "int-alu",
            Category::MulDiv => "mul/div",
            Category::ScalarLoad => "load",
            Category::ScalarStore => "store",
            Category::ControlFlow => "control",
            Category::Float => "float",
            Category::VectorArith => "vec-arith",
            Category::VectorMem => "vec-mem",
            Category::VectorGather => "vec-gather",
            Category::System => "system",
        }
    }
}

/// Categorize one instruction.
pub fn categorize(i: &Instr) -> Category {
    use Instr::*;
    match i {
        Lui { .. } | Auipc { .. } | OpImm { .. } | Op { .. } => Category::IntAlu,
        Mul { .. } | MulDiv { .. } => Category::MulDiv,
        Lw { .. } | LoadNarrow { .. } | Flw { .. } => Category::ScalarLoad,
        Sw { .. } | StoreNarrow { .. } | Fsw { .. } => Category::ScalarStore,
        Jal { .. } | Jalr { .. } | Branch { .. } => Category::ControlFlow,
        FaddS { .. }
        | FsubS { .. }
        | FmulS { .. }
        | FmaddS { .. }
        | FmvWX { .. }
        | FmvXW { .. } => Category::Float,
        VfmaccVV { .. }
        | VfmulVV { .. }
        | VfaddVV { .. }
        | VfredosumVS { .. }
        | VsllVI { .. }
        | VmvVI { .. }
        | VmvVX { .. }
        | VfmvFS { .. } => Category::VectorArith,
        Vle32 { .. } | Vse32 { .. } => Category::VectorMem,
        Vluxei32 { .. } => Category::VectorGather,
        Vsetvli { .. } | Csrrs { .. } | Ecall | Ebreak => Category::System,
    }
}

/// Instruction-mix histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstructionMix {
    counts: std::collections::BTreeMap<&'static str, u64>,
    total: u64,
}

impl InstructionMix {
    /// Build from a recorded trace.
    pub fn from_trace(trace: &[TraceEntry]) -> Self {
        let mut mix = InstructionMix::default();
        for e in trace {
            *mix.counts.entry(categorize(&e.instr).name()).or_insert(0) += 1;
            mix.total += 1;
        }
        mix
    }

    /// Total instructions counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count in one category.
    pub fn count(&self, c: Category) -> u64 {
        self.counts.get(c.name()).copied().unwrap_or(0)
    }

    /// Fraction of instructions in one category.
    pub fn fraction(&self, c: Category) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.count(c) as f64 / self.total as f64
    }

    /// The §2 "metadata overhead" share: scalar metadata loads plus gathers
    /// plus the address arithmetic feeding them cannot be separated exactly
    /// post-hoc, so this reports the conservative lower bound — explicit
    /// gather instructions plus scalar loads.
    pub fn indirect_access_fraction(&self) -> f64 {
        self.fraction(Category::VectorGather) + self.fraction(Category::ScalarLoad)
    }
}

impl fmt::Display for InstructionMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:>12} {:>10} {:>7}", "category", "count", "share")?;
        for c in Category::ALL {
            let n = self.count(c);
            if n > 0 {
                writeln!(f, "{:>12} {:>10} {:>6.1}%", c.name(), n, self.fraction(c) * 100.0)?;
            }
        }
        write!(f, "{:>12} {:>10}", "total", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Core, CoreConfig};
    use hht_isa::asm::assemble;
    use hht_mem::mmio::NullDevice;
    use hht_mem::{ByteStore, Dram, DramConfig, FabricPort, SharedMemory};

    fn mix_of(src: &str) -> InstructionMix {
        let store = ByteStore::new(4096);
        let mut sram = Dram::new(SharedMemory::new(store, 1, 1, 1), DramConfig::flat());
        sram.inner_mut().load_words(0x200, &[0, 4, 8, 12, 16, 20, 24, 28]);
        let mut core = Core::new(CoreConfig::paper_default(), assemble(src).unwrap());
        core.enable_trace();
        let mut dev = NullDevice;
        let mut now = 0;
        while !core.halted() {
            core.step(now, &mut FabricPort::new(&mut sram, 0), &mut dev);
            now += 1;
            assert!(now < 100_000);
        }
        InstructionMix::from_trace(&core.trace())
    }

    #[test]
    fn categorizes_a_mixed_program() {
        let m = mix_of(
            "li a0, 8\nvsetvli t0, a0, e32, m1\nli a1, 0x200\nvle32.v v1, (a1)\n\
             vluxei32.v v2, (a1), v1\nvfmacc.vv v0, v1, v2\nlw t1, 0(a1)\n\
             sw t1, 4(a1)\nmul t2, t1, t1\nbeq t2, t2, next\nnext:\nebreak",
        );
        assert_eq!(m.count(Category::VectorGather), 1);
        assert_eq!(m.count(Category::VectorMem), 1);
        assert_eq!(m.count(Category::VectorArith), 1);
        assert_eq!(m.count(Category::ScalarLoad), 1);
        assert_eq!(m.count(Category::ScalarStore), 1);
        assert_eq!(m.count(Category::MulDiv), 1);
        assert_eq!(m.count(Category::ControlFlow), 1);
        assert_eq!(m.count(Category::System), 2); // vsetvli + ebreak
        assert_eq!(m.count(Category::IntAlu), 2); // the two li expansions
        assert_eq!(m.total(), 11);
    }

    #[test]
    fn fractions_sum_to_one() {
        let m = mix_of("li a0, 1\nadd a1, a0, a0\nebreak");
        let sum: f64 = Category::ALL.iter().map(|c| m.fraction(*c)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_renders_nonzero_rows() {
        let m = mix_of("li a0, 1\nebreak");
        let text = m.to_string();
        assert!(text.contains("int-alu"));
        assert!(text.contains("system"));
        assert!(!text.contains("vec-gather"));
    }

    #[test]
    fn empty_trace() {
        let m = InstructionMix::from_trace(&[]);
        assert_eq!(m.total(), 0);
        assert_eq!(m.indirect_access_fraction(), 0.0);
    }
}
