//! The ActiveRMT instruction set (Appendix A of the paper).
//!
//! Instructions are grouped into six classes mirroring the paper's
//! appendix: data copying (A.1), data manipulation (A.2), control flow
//! (A.3), memory access (A.4), packet forwarding (A.5) and special
//! instructions (A.6). Each opcode carries a set of static properties the
//! allocator and the compiler both rely on:
//!
//! * whether it accesses stage-local register memory (and therefore needs
//!   a per-stage allocation — Section 4.1),
//! * whether it must execute in the ingress pipeline to avoid an extra
//!   recirculation (RTS and friends — Section 3.1),
//! * whether it participates in control flow (branching / termination),
//! * whether it consumes an argument-field selector or a branch label in
//!   the instruction's flag byte.

use crate::error::{Error, Result};
use core::fmt;

/// Instruction classes, mirroring Appendix A's grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpcodeClass {
    /// A.1 — moves between PHV containers and packet data fields.
    DataCopy,
    /// A.2 — ALU operations on MAR/MBR/MBR2.
    DataManipulation,
    /// A.3 — branching and termination.
    ControlFlow,
    /// A.4 — stateful register-memory access.
    MemoryAccess,
    /// A.5 — forwarding decisions (drop, clone, redirect).
    Forwarding,
    /// A.6 — fixed-function helpers (EOF, NOP, hashing, address
    /// translation).
    Special,
}

/// What the low six bits of the instruction flag byte mean for a given
/// opcode (see [`crate::instr::InstrFlags`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandKind {
    /// The opcode takes no inline operand.
    None,
    /// The operand selects one of the four 32-bit argument fields.
    ArgIndex,
    /// The operand names a forward branch label.
    Label,
}

macro_rules! opcodes {
    ($( $(#[$doc:meta])* $name:ident = $val:expr, $class:ident, $operand:ident,
        mem: $mem:expr, ingress: $ingress:expr, branch: $branch:expr, term: $term:expr; )*) => {
        /// An ActiveRMT instruction opcode.
        ///
        /// The discriminant is the on-wire opcode byte. Variant names
        /// deliberately keep the paper's SCREAMING_SNAKE mnemonics so the
        /// Rust source reads like the listings in Appendices A-C.
        #[allow(non_camel_case_types)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u8)]
        pub enum Opcode {
            $( $(#[$doc])* $name = $val, )*
        }

        impl Opcode {
            /// Every opcode in the instruction set, in encoding order.
            pub const ALL: &'static [Opcode] = &[ $(Opcode::$name,)* ];

            /// The decode table: entry `b` is the opcode whose wire byte
            /// is `b`, if any. The switch decodes with a pre-installed
            /// exact-match table; this is its software analogue, one
            /// indexed load per instruction word.
            const DECODE: [Option<Opcode>; 256] = {
                let mut table = [None; 256];
                $( table[$val as usize] = Some(Opcode::$name); )*
                table
            };

            /// Decode an opcode byte.
            #[inline]
            pub fn from_u8(b: u8) -> Result<Opcode> {
                match Opcode::DECODE[b as usize] {
                    Some(op) => Ok(op),
                    None => Err(Error::UnknownOpcode(b)),
                }
            }

            /// The instruction class (Appendix A grouping).
            pub fn class(self) -> OpcodeClass {
                match self {
                    $( Opcode::$name => OpcodeClass::$class, )*
                }
            }

            /// How this opcode interprets the operand bits of its flag byte.
            pub fn operand_kind(self) -> OperandKind {
                match self {
                    $( Opcode::$name => OperandKind::$operand, )*
                }
            }

            /// Does this instruction access stage-local register memory?
            ///
            /// Such instructions require a memory allocation in the stage
            /// they execute in (Section 4.1) and a protection-table match
            /// on MAR (Section 3.1).
            pub fn is_memory_access(self) -> bool {
                match self {
                    $( Opcode::$name => $mem, )*
                }
            }

            /// Must this instruction execute in the ingress pipeline to
            /// avoid an extra recirculation (Section 3.1)?
            pub fn requires_ingress(self) -> bool {
                match self {
                    $( Opcode::$name => $ingress, )*
                }
            }

            /// Does this instruction begin a (conditional) branch?
            pub fn is_branch(self) -> bool {
                match self {
                    $( Opcode::$name => $branch, )*
                }
            }

            /// Can this instruction terminate the program (set the
            /// `complete` flag)?
            pub fn can_terminate(self) -> bool {
                match self {
                    $( Opcode::$name => $term, )*
                }
            }

            /// Does this instruction require a privileged FID when the
            /// runtime enforces privilege levels (Section 7.2's ongoing
            /// work)? Cloning amplifies bandwidth and destination
            /// overrides bypass forwarding policy, so FORK and SET_DST
            /// are gated.
            pub fn requires_privilege(self) -> bool {
                matches!(self, Opcode::FORK | Opcode::SET_DST)
            }

            /// The canonical mnemonic, as used in the paper's listings.
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $( Opcode::$name => stringify!($name), )*
                }
            }

            /// Parse a mnemonic (case-insensitive). Accepts the paper's
            /// `CRET1` spelling as an alias for `CRETI`.
            pub fn from_mnemonic(s: &str) -> Option<Opcode> {
                let upper = s.to_ascii_uppercase();
                let canon: &str = match upper.as_str() {
                    // The paper's listings spell CRETI/CJUMPI with a
                    // trailing '1' in some places; accept both.
                    "CRET1" => "CRETI",
                    "CJUMP1" => "CJUMPI",
                    other => other,
                };
                match canon {
                    $( stringify!($name) => Some(Opcode::$name), )*
                    _ => None,
                }
            }
        }
    };
}

opcodes! {
    // ----- A.6 Special (EOF first so opcode 0 terminates) -----
    /// Marks the end of the active program.
    EOF = 0x00, Special, None, mem: false, ingress: false, branch: false, term: true;
    /// No-operation; skips a stage. Used to synthesize mutants
    /// (Section 4.1).
    NOP = 0x01, Special, None, mem: false, ingress: false, branch: false, term: false;
    /// Applies the per-(FID, stage) address mask for the next memory
    /// access (runtime address translation, Section 3.2 / A.6).
    ADDR_MASK = 0x02, Special, None, mem: false, ingress: false, branch: false, term: false;
    /// Adds the per-(FID, stage) address offset for the next memory
    /// access (runtime address translation, Section 3.2 / A.6).
    ADDR_OFFSET = 0x03, Special, None, mem: false, ingress: false, branch: false, term: false;
    /// Computes a CRC hash over the hash-data fields and stores the
    /// result in MAR (used by Listings 2-4). The flag byte's 6-bit
    /// operand selects among pre-configured hash functions: equal
    /// selectors compute equal functions anywhere in the pipeline
    /// (Cheetah's cookie algebra), distinct selectors are independent
    /// (the count-min sketch rows).
    HASH = 0x04, Special, None, mem: false, ingress: false, branch: false, term: false;

    // ----- A.1 Data copying -----
    /// MBR <- args[i].
    MBR_LOAD = 0x10, DataCopy, ArgIndex, mem: false, ingress: false, branch: false, term: false;
    /// args[i] <- MBR (writes a value back into the packet's data field).
    MBR_STORE = 0x11, DataCopy, ArgIndex, mem: false, ingress: false, branch: false, term: false;
    /// MBR2 <- args[i].
    MBR2_LOAD = 0x12, DataCopy, ArgIndex, mem: false, ingress: false, branch: false, term: false;
    /// MAR <- args[i].
    MAR_LOAD = 0x13, DataCopy, ArgIndex, mem: false, ingress: false, branch: false, term: false;
    /// MBR2 <- MBR (destination-first naming; see crate docs).
    COPY_MBR2_MBR = 0x14, DataCopy, None, mem: false, ingress: false, branch: false, term: false;
    /// MBR <- MBR2.
    COPY_MBR_MBR2 = 0x15, DataCopy, None, mem: false, ingress: false, branch: false, term: false;
    /// MBR <- MAR.
    COPY_MBR_MAR = 0x16, DataCopy, None, mem: false, ingress: false, branch: false, term: false;
    /// MAR <- MBR.
    COPY_MAR_MBR = 0x17, DataCopy, None, mem: false, ingress: false, branch: false, term: false;
    /// Appends MBR to the hash-data fields.
    COPY_HASHDATA_MBR = 0x18, DataCopy, None, mem: false, ingress: false, branch: false, term: false;
    /// Appends MBR2 to the hash-data fields.
    COPY_HASHDATA_MBR2 = 0x19, DataCopy, None, mem: false, ingress: false, branch: false, term: false;
    /// Loads the flow's 5-tuple digest into the hash-data fields
    /// (used by the Cheetah listings, which "load the TCP 5-tuple into a
    /// hashing data structure").
    COPY_HASHDATA_5TUPLE = 0x1A, DataCopy, None, mem: false, ingress: false, branch: false, term: false;

    // ----- A.2 Data manipulation -----
    /// MBR <- MBR + MBR2.
    MBR_ADD_MBR2 = 0x20, DataManipulation, None, mem: false, ingress: false, branch: false, term: false;
    /// MAR <- MAR + MBR.
    MAR_ADD_MBR = 0x21, DataManipulation, None, mem: false, ingress: false, branch: false, term: false;
    /// MAR <- MAR + MBR2.
    MAR_ADD_MBR2 = 0x22, DataManipulation, None, mem: false, ingress: false, branch: false, term: false;
    /// MAR <- MBR + MBR2.
    MAR_MBR_ADD_MBR2 = 0x23, DataManipulation, None, mem: false, ingress: false, branch: false, term: false;
    /// MBR <- MBR - MBR2.
    MBR_SUBTRACT_MBR2 = 0x24, DataManipulation, None, mem: false, ingress: false, branch: false, term: false;
    /// MAR <- MAR & MBR.
    BIT_AND_MAR_MBR = 0x25, DataManipulation, None, mem: false, ingress: false, branch: false, term: false;
    /// MBR <- MBR | MBR2.
    BIT_OR_MBR_MBR2 = 0x26, DataManipulation, None, mem: false, ingress: false, branch: false, term: false;
    /// MBR <- MBR ^ MBR2 (zero iff equal; doubles as bitwise XOR for the
    /// Cheetah cookie computation).
    MBR_EQUALS_MBR2 = 0x27, DataManipulation, None, mem: false, ingress: false, branch: false, term: false;
    /// MBR <- MBR ^ args[0] (compare MBR with the first data field;
    /// Listing 1).
    MBR_EQUALS_DATA_1 = 0x28, DataManipulation, None, mem: false, ingress: false, branch: false, term: false;
    /// MBR <- MBR ^ args[1] (compare MBR with the second data field;
    /// Listing 1).
    MBR_EQUALS_DATA_2 = 0x29, DataManipulation, None, mem: false, ingress: false, branch: false, term: false;
    /// MBR <- max(MBR, MBR2).
    MAX = 0x2A, DataManipulation, None, mem: false, ingress: false, branch: false, term: false;
    /// MBR <- min(MBR, MBR2).
    MIN = 0x2B, DataManipulation, None, mem: false, ingress: false, branch: false, term: false;
    /// MBR2 <- min(MBR, MBR2).
    REVMIN = 0x2C, DataManipulation, None, mem: false, ingress: false, branch: false, term: false;
    /// Swap MBR and MBR2.
    SWAP_MBR_MBR2 = 0x2D, DataManipulation, None, mem: false, ingress: false, branch: false, term: false;
    /// MBR <- !MBR (bitwise NOT).
    MBR_NOT = 0x2E, DataManipulation, None, mem: false, ingress: false, branch: false, term: false;

    // ----- A.3 Control flow -----
    /// Marks execution complete; the packet is forwarded to its resolved
    /// destination. Remaining instructions are skipped.
    RETURN = 0x30, ControlFlow, None, mem: false, ingress: false, branch: false, term: true;
    /// Conditionally RETURN if true (MBR != 0).
    CRET = 0x31, ControlFlow, None, mem: false, ingress: false, branch: false, term: true;
    /// Conditionally RETURN if false (MBR == 0). The paper spells this
    /// `CRET1` in Listing 2.
    CRETI = 0x32, ControlFlow, None, mem: false, ingress: false, branch: false, term: true;
    /// Conditional jump to a forward label if true (MBR != 0).
    CJUMP = 0x33, ControlFlow, Label, mem: false, ingress: false, branch: true, term: false;
    /// Conditional jump to a forward label if false (MBR == 0).
    CJUMPI = 0x34, ControlFlow, Label, mem: false, ingress: false, branch: true, term: false;
    /// Unconditional jump to a forward label.
    UJUMP = 0x35, ControlFlow, Label, mem: false, ingress: false, branch: true, term: false;

    // ----- A.4 Memory access -----
    /// mem[MAR] <- MBR.
    MEM_WRITE = 0x40, MemoryAccess, None, mem: true, ingress: false, branch: false, term: false;
    /// MBR <- mem[MAR].
    MEM_READ = 0x41, MemoryAccess, None, mem: true, ingress: false, branch: false, term: false;
    /// mem[MAR] <- mem[MAR] + 1; MBR <- mem[MAR] (the stage counter is
    /// incremented and the result stored into MBR).
    MEM_INCREMENT = 0x42, MemoryAccess, None, mem: true, ingress: false, branch: false, term: false;
    /// MBR <- mem[MAR]; MBR2 <- min(MBR, MBR2).
    MEM_MINREAD = 0x43, MemoryAccess, None, mem: true, ingress: false, branch: false, term: false;
    /// mem[MAR] <- mem[MAR] + 1; MBR <- mem[MAR]; MBR2 <- min(MBR, MBR2)
    /// (one count-min-sketch row update; Listing 2).
    MEM_MINREADINC = 0x44, MemoryAccess, None, mem: true, ingress: false, branch: false, term: false;

    // ----- A.5 Packet forwarding -----
    /// Drop the current packet.
    DROP = 0x50, Forwarding, None, mem: false, ingress: false, branch: false, term: true;
    /// Clone the current packet and continue execution (like fork()).
    /// The clone inherently costs a recirculation (Section 3.1), but
    /// that cost is position-independent, so FORK does not constrain
    /// mutant placement.
    FORK = 0x51, Forwarding, None, mem: false, ingress: false, branch: false, term: false;
    /// Set the destination for the packet from MBR. Not position
    /// constrained: the paper's Cheetah server-selection program
    /// (Listing 3, 27 instructions) executes SET_DST at line 19 and is
    /// still admitted under the most-constrained policy, so the
    /// destination override must take effect via intrinsic metadata
    /// regardless of the stage it is written in.
    SET_DST = 0x52, Forwarding, None, mem: false, ingress: false, branch: false, term: false;
    /// Return-to-sender: swap source/destination and redirect to the
    /// source. Must execute at an ingress stage to avoid a recirculation
    /// (ports cannot change at egress on the Tofino; Section 3.1).
    RTS = 0x53, Forwarding, None, mem: false, ingress: true, branch: false, term: false;
    /// Conditional return-to-sender if true (MBR != 0).
    CRTS = 0x54, Forwarding, None, mem: false, ingress: true, branch: false, term: false;
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_opcodes() {
        // Every byte value: the ones in `ALL` decode to themselves, every
        // other byte is rejected with that byte.
        for b in 0..=u8::MAX {
            match Opcode::ALL.iter().find(|&&op| op as u8 == b) {
                Some(&op) => assert_eq!(Opcode::from_u8(b), Ok(op)),
                None => assert_eq!(Opcode::from_u8(b), Err(Error::UnknownOpcode(b))),
            }
        }
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
            // Mnemonics are case-insensitive.
            assert_eq!(
                Opcode::from_mnemonic(&op.mnemonic().to_ascii_lowercase()),
                Some(op)
            );
        }
    }

    #[test]
    fn opcode_bytes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &op in Opcode::ALL {
            assert!(seen.insert(op as u8), "duplicate opcode byte for {op}");
        }
    }

    #[test]
    fn unknown_bytes_are_rejected() {
        assert_eq!(Opcode::from_u8(0xff), Err(Error::UnknownOpcode(0xff)));
        assert_eq!(Opcode::from_u8(0x0f), Err(Error::UnknownOpcode(0x0f)));
        assert_eq!(Opcode::from_mnemonic("FROBNICATE"), None);
    }

    #[test]
    fn paper_aliases() {
        assert_eq!(Opcode::from_mnemonic("CRET1"), Some(Opcode::CRETI));
        assert_eq!(Opcode::from_mnemonic("cret1"), Some(Opcode::CRETI));
    }

    #[test]
    fn memory_access_set_matches_appendix_a4() {
        let mem: Vec<_> = Opcode::ALL
            .iter()
            .copied()
            .filter(|o| o.is_memory_access())
            .collect();
        assert_eq!(
            mem,
            vec![
                Opcode::MEM_WRITE,
                Opcode::MEM_READ,
                Opcode::MEM_INCREMENT,
                Opcode::MEM_MINREAD,
                Opcode::MEM_MINREADINC,
            ]
        );
        for op in mem {
            assert_eq!(op.class(), OpcodeClass::MemoryAccess);
        }
    }

    #[test]
    fn ingress_constrained_set() {
        // Section 3.1: only RTS (and its conditional variant) pin the
        // program to the ingress pipeline; FORK costs a recirculation
        // regardless of position and SET_DST is metadata-only.
        for op in [Opcode::RTS, Opcode::CRTS] {
            assert!(op.requires_ingress(), "{op} should be ingress-bound");
        }
        for op in [Opcode::FORK, Opcode::SET_DST, Opcode::MEM_READ, Opcode::NOP] {
            assert!(!op.requires_ingress(), "{op} should not be ingress-bound");
        }
    }

    #[test]
    fn branch_opcodes_take_labels() {
        for op in [Opcode::CJUMP, Opcode::CJUMPI, Opcode::UJUMP] {
            assert!(op.is_branch());
            assert_eq!(op.operand_kind(), OperandKind::Label);
        }
        assert!(!Opcode::CRET.is_branch());
    }

    #[test]
    fn terminators() {
        for op in [
            Opcode::RETURN,
            Opcode::CRET,
            Opcode::CRETI,
            Opcode::DROP,
            Opcode::EOF,
        ] {
            assert!(op.can_terminate(), "{op} should be able to terminate");
        }
        assert!(!Opcode::RTS.can_terminate());
        assert!(!Opcode::MEM_WRITE.can_terminate());
    }

    #[test]
    fn arg_loads_take_arg_indices() {
        for op in [
            Opcode::MBR_LOAD,
            Opcode::MBR2_LOAD,
            Opcode::MAR_LOAD,
            Opcode::MBR_STORE,
        ] {
            assert_eq!(op.operand_kind(), OperandKind::ArgIndex);
        }
        assert_eq!(Opcode::NOP.operand_kind(), OperandKind::None);
    }

    #[test]
    fn class_counts_match_appendix() {
        let count = |c: OpcodeClass| Opcode::ALL.iter().filter(|o| o.class() == c).count();
        assert_eq!(count(OpcodeClass::MemoryAccess), 5); // A.4 lists 5
        assert_eq!(count(OpcodeClass::ControlFlow), 6); // A.3 lists 6
        assert_eq!(count(OpcodeClass::Forwarding), 5); // A.5 lists 5
                                                       // A.1 lists 9 + COPY_MBR_MBR2 and COPY_HASHDATA_5TUPLE used by the
                                                       // listings.
        assert_eq!(count(OpcodeClass::DataCopy), 11);
        // A.2 lists 13 + the two MBR_EQUALS_DATA_i from Listing 1.
        assert_eq!(count(OpcodeClass::DataManipulation), 15);
    }
}
