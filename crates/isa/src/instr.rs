//! The 2-byte on-wire instruction encoding.
//!
//! Section 3.3: each instruction header "contains two bytes: a one-byte
//! opcode and a one-byte flag. The former is used to identify the
//! instruction to be executed while the latter is used for control flow."
//!
//! We give the flag byte the following concrete layout (the paper leaves
//! it unspecified):
//!
//! ```text
//!  bit 7      bit 6      bits 5..0
//! +----------+----------+---------------------------+
//! | EXECUTED | LABELED  | operand (arg idx / label) |
//! +----------+----------+---------------------------+
//! ```
//!
//! * `EXECUTED` — set by the switch once the instruction has run on a
//!   logical stage; tells the parser the field "should be discarded from
//!   the packet" so active packets shrink after execution (Section 3.1).
//! * `LABELED` — marks this instruction as a branch target; the 6-bit
//!   operand then carries the label id. A pending branch is resolved (the
//!   `disabled` flag reset) when execution reaches an instruction whose
//!   label matches the branch's target (Section 3.1).
//! * `operand` — for `MBR_LOAD`-style instructions, the argument-field
//!   index (0..4); for branch instructions, the target label id.

use crate::constants::{MAX_LABEL, NUM_ARGS};
use crate::error::{Error, Result};
use crate::opcode::{Opcode, OperandKind};
use core::fmt;

/// The decoded flag byte of an instruction header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct InstrFlags {
    /// The instruction has already executed on a logical stage.
    pub executed: bool,
    /// This instruction is a branch target; `operand` carries its label.
    pub labeled: bool,
    /// Operand bits: an argument-field index or a branch-label id.
    pub operand: u8,
}

impl InstrFlags {
    const EXECUTED_BIT: u8 = 0x80;
    const LABELED_BIT: u8 = 0x40;
    const OPERAND_MASK: u8 = 0x3F;

    /// Decode a raw flag byte.
    #[inline]
    pub fn from_byte(b: u8) -> InstrFlags {
        InstrFlags {
            executed: b & Self::EXECUTED_BIT != 0,
            labeled: b & Self::LABELED_BIT != 0,
            operand: b & Self::OPERAND_MASK,
        }
    }

    /// Encode to a raw flag byte.
    pub fn to_byte(self) -> u8 {
        let mut b = self.operand & Self::OPERAND_MASK;
        if self.executed {
            b |= Self::EXECUTED_BIT;
        }
        if self.labeled {
            b |= Self::LABELED_BIT;
        }
        b
    }
}

/// A single decoded instruction: an opcode plus its flag byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// The operation to perform.
    pub opcode: Opcode,
    /// Control-flow and operand bits.
    pub flags: InstrFlags,
}

impl Instruction {
    /// A plain instruction with no operand and no labels.
    pub fn new(opcode: Opcode) -> Instruction {
        Instruction {
            opcode,
            flags: InstrFlags::default(),
        }
    }

    /// An instruction reading/writing one of the four argument fields.
    pub fn with_arg(opcode: Opcode, arg: u8) -> Result<Instruction> {
        if usize::from(arg) >= NUM_ARGS {
            return Err(Error::ArgIndexOutOfRange(arg));
        }
        debug_assert_eq!(opcode.operand_kind(), OperandKind::ArgIndex);
        Ok(Instruction {
            opcode,
            flags: InstrFlags {
                operand: arg,
                ..InstrFlags::default()
            },
        })
    }

    /// A branch instruction targeting `label`.
    pub fn with_label(opcode: Opcode, label: u8) -> Result<Instruction> {
        if label > MAX_LABEL {
            return Err(Error::LabelOutOfRange(u16::from(label)));
        }
        debug_assert!(opcode.is_branch());
        Ok(Instruction {
            opcode,
            flags: InstrFlags {
                operand: label,
                ..InstrFlags::default()
            },
        })
    }

    /// Mark this instruction as a branch target carrying `label`.
    pub fn labeled(mut self, label: u8) -> Result<Instruction> {
        if label > MAX_LABEL {
            return Err(Error::LabelOutOfRange(u16::from(label)));
        }
        self.flags.labeled = true;
        self.flags.operand = label;
        Ok(self)
    }

    /// Decode from the two wire bytes.
    #[inline]
    pub fn from_bytes(opcode: u8, flags: u8) -> Result<Instruction> {
        Ok(Instruction {
            opcode: Opcode::from_u8(opcode)?,
            flags: InstrFlags::from_byte(flags),
        })
    }

    /// Encode to the two wire bytes `(opcode, flags)`.
    pub fn to_bytes(self) -> [u8; 2] {
        [self.opcode as u8, self.flags.to_byte()]
    }

    /// The argument-field index, if this opcode takes one.
    pub fn arg_index(self) -> Option<usize> {
        match self.opcode.operand_kind() {
            OperandKind::ArgIndex => Some(usize::from(self.flags.operand)),
            _ => None,
        }
    }

    /// The branch-target label, if this is a branch.
    pub fn branch_target(self) -> Option<u8> {
        match self.opcode.operand_kind() {
            OperandKind::Label => Some(self.flags.operand),
            _ => None,
        }
    }

    /// The label this instruction is marked with, if any.
    pub fn label(self) -> Option<u8> {
        if self.flags.labeled {
            Some(self.flags.operand)
        } else {
            None
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode)?;
        match self.opcode.operand_kind() {
            OperandKind::ArgIndex => write!(f, " ${}", self.flags.operand)?,
            OperandKind::Label => write!(f, " @{}", self.flags.operand)?,
            OperandKind::None => {}
        }
        if self.flags.labeled {
            write!(f, " [label {}]", self.flags.operand)?;
        }
        if self.flags.executed {
            write!(f, " [executed]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_byte_roundtrip() {
        for b in 0..=u8::MAX {
            assert_eq!(InstrFlags::from_byte(b).to_byte(), b);
        }
    }

    #[test]
    fn instruction_roundtrip() {
        let i = Instruction::with_arg(Opcode::MBR_LOAD, 3).unwrap();
        let [op, fl] = i.to_bytes();
        assert_eq!(Instruction::from_bytes(op, fl).unwrap(), i);
        assert_eq!(i.arg_index(), Some(3));
        assert_eq!(i.branch_target(), None);
    }

    #[test]
    fn branch_labels() {
        let j = Instruction::with_label(Opcode::CJUMP, 7).unwrap();
        assert_eq!(j.branch_target(), Some(7));
        assert_eq!(j.arg_index(), None);
        let tgt = Instruction::new(Opcode::NOP).labeled(7).unwrap();
        assert_eq!(tgt.label(), Some(7));
    }

    #[test]
    fn bounds_are_enforced() {
        assert_eq!(
            Instruction::with_arg(Opcode::MBR_LOAD, 4),
            Err(Error::ArgIndexOutOfRange(4))
        );
        assert_eq!(
            Instruction::with_label(Opcode::UJUMP, 64),
            Err(Error::LabelOutOfRange(64))
        );
        assert_eq!(
            Instruction::new(Opcode::NOP).labeled(64),
            Err(Error::LabelOutOfRange(64))
        );
    }

    #[test]
    fn executed_bit_survives_roundtrip() {
        let mut i = Instruction::new(Opcode::MEM_READ);
        i.flags.executed = true;
        let [op, fl] = i.to_bytes();
        let back = Instruction::from_bytes(op, fl).unwrap();
        assert!(back.flags.executed);
    }

    #[test]
    fn display_formats() {
        let i = Instruction::with_arg(Opcode::MAR_LOAD, 0).unwrap();
        assert_eq!(i.to_string(), "MAR_LOAD $0");
        let j = Instruction::with_label(Opcode::UJUMP, 2).unwrap();
        assert_eq!(j.to_string(), "UJUMP @2");
    }
}
