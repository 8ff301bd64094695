//! Program decode into a fixed-size instruction scratch.
//!
//! The paper's hardware decodes each instruction with a pre-installed
//! exact-match table, so decoding costs nothing at line rate. The
//! software runtime does the same: [`Opcode::from_u8`] is one load from
//! a 256-entry table, and [`decode_into`] fills a fixed-size
//! [`InstrScratch`] (capacity [`MAX_INSTRS`]) in place. Every active
//! frame is decoded afresh, with no per-frame `Vec` and no memo keyed by
//! FID, so there is no decoded state for the control plane to keep
//! coherent.

use activermt_isa::constants::MAX_PROGRAM_LEN;
use activermt_isa::{Instruction, Opcode};

/// Maximum decoded instructions per program (the one-byte program-length
/// field bounds the encodable length).
pub const MAX_INSTRS: usize = MAX_PROGRAM_LEN;

/// Fixed-size decode scratch; lives in the runtime, reused per frame.
pub type InstrScratch = [Instruction; MAX_INSTRS];

/// A freshly zeroed scratch (NOP-filled; only the decoded prefix is
/// ever read).
pub fn new_scratch() -> Box<InstrScratch> {
    Box::new([Instruction::new(Opcode::NOP); MAX_INSTRS])
}

/// The instruction stream could not be decoded: an invalid opcode
/// word, a missing EOF terminator, or more than [`MAX_INSTRS`]
/// instructions. The frame carrying it must be counted malformed and
/// dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MalformedProgram;

/// Decode an EOF-terminated instruction stream into `scratch`.
///
/// Returns `(instruction_count, executed_prefix)` — the number of
/// decoded instructions before EOF and the length of the
/// already-executed prefix (the resume `pc`). An undecodable word, a
/// missing EOF, or a stream longer than [`MAX_INSTRS`] is a malformed
/// program: the caller must count and drop the frame rather than
/// compacting the stream around the bad word (compaction would misalign
/// `pc` against the executed-flags prefix written back into the frame).
pub fn decode_into(
    bytes: &[u8],
    scratch: &mut InstrScratch,
) -> Result<(usize, usize), MalformedProgram> {
    let mut executed_prefix = 0usize;
    let mut in_prefix = true;
    // Every chunk before EOF stores exactly one instruction, so the
    // chunk index doubles as the instruction count.
    for (count, chunk) in bytes.chunks_exact(2).enumerate() {
        let ins = Instruction::from_bytes(chunk[0], chunk[1]).map_err(|_| MalformedProgram)?;
        if ins.opcode == Opcode::EOF {
            return Ok((count, executed_prefix));
        }
        if count >= MAX_INSTRS {
            return Err(MalformedProgram);
        }
        if in_prefix && ins.flags.executed {
            executed_prefix += 1;
        } else {
            in_prefix = false;
        }
        scratch[count] = ins;
    }
    Err(MalformedProgram) // no EOF terminator
}

/// The shape of [`SwitchRuntime::decode_stats`](crate::SwitchRuntime::decode_stats).
/// The runtime keeps no decode cache, so both counts are always zero;
/// the accessor remains for readers of the former cache hit ratio.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Always zero: no frame is served from a cache.
    pub hits: u64,
    /// Always zero: decodes are not counted.
    pub misses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(ops: &[Opcode]) -> Vec<u8> {
        let mut b = Vec::new();
        for &op in ops {
            b.extend_from_slice(&Instruction::new(op).to_bytes());
        }
        b.extend_from_slice(&Instruction::new(Opcode::EOF).to_bytes());
        b
    }

    #[test]
    fn decode_matches_stream_and_reports_prefix() {
        let mut scratch = new_scratch();
        let bytes = encode(&[Opcode::NOP, Opcode::MEM_READ, Opcode::RETURN]);
        let (n, pc) = decode_into(&bytes, &mut scratch).unwrap();
        assert_eq!(n, 3);
        assert_eq!(pc, 0);
        assert_eq!(scratch[1].opcode, Opcode::MEM_READ);
        // Mark the first word executed: resume pc moves to 1.
        let mut bytes2 = bytes.clone();
        bytes2[1] |= 0x80;
        let (n2, pc2) = decode_into(&bytes2, &mut scratch).unwrap();
        assert_eq!((n2, pc2), (3, 1));
    }

    #[test]
    fn executed_prefix_stops_at_first_gap() {
        let mut scratch = new_scratch();
        let mut bytes = encode(&[Opcode::NOP, Opcode::NOP, Opcode::NOP]);
        bytes[1] |= 0x80; // word 0 executed
        bytes[5] |= 0x80; // word 2 executed, word 1 not: not a prefix
        let (_, pc) = decode_into(&bytes, &mut scratch).unwrap();
        assert_eq!(pc, 1);
    }

    #[test]
    fn undecodable_word_is_an_error_not_a_compaction() {
        let mut scratch = new_scratch();
        let mut bytes = encode(&[Opcode::NOP, Opcode::MEM_READ]);
        bytes[2] = 0xFF; // invalid opcode in the middle
        assert!(decode_into(&bytes, &mut scratch).is_err());
    }

    #[test]
    fn missing_eof_is_an_error() {
        let mut scratch = new_scratch();
        let bytes = Instruction::new(Opcode::NOP).to_bytes().to_vec();
        assert!(decode_into(&bytes, &mut scratch).is_err());
    }
}
