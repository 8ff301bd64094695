//! Wire formats for active packets (Section 3.3).
//!
//! Every active packet starts with an Ethernet-like L2 header carrying
//! the active EtherType, followed by the 10-byte *initial active header*
//! common to all three packet kinds:
//!
//! ```text
//! +-------------------+---------------------+------------------------+
//! | Ethernet (14 B)   | Initial hdr (10 B)  | type-specific payload  |
//! +-------------------+---------------------+------------------------+
//! ```
//!
//! The initial header's `type` field selects the payload:
//!
//! * [`PacketType::Program`] — one 16-byte argument header (four 32-bit
//!   data fields) followed by 2-byte instruction headers terminated by
//!   EOF, then the opaque application payload (e.g. the original
//!   TCP/UDP datagram).
//! * [`PacketType::AllocRequest`] — a 24-byte request header: eight
//!   3-byte access descriptors characterizing the program's memory
//!   access pattern (Section 4.3).
//! * [`PacketType::AllocResponse`] — a 160-byte response header: twenty
//!   8-byte `(start, end)` register-index regions, one per stage.
//! * [`PacketType::Control`] — only the initial header; used for
//!   snapshot-complete notifications, deallocation and (re)activation
//!   signalling (Section 4.3).
//!
//! All views are bounds-checked on construction (`new_checked`) in the
//! smoltcp style; accessors never panic on a checked view.

mod active;
mod allocreq;
mod allocresp;
mod ethernet;

pub use active::{ActiveHeader, ControlOp, PacketFlags, PacketType};
pub use allocreq::{AccessDescriptor, AllocRequest};
pub use allocresp::{AllocResponse, RegionEntry};
pub use ethernet::EthernetFrame;

use crate::constants::{
    ACTIVE_ETHERTYPE, ALLOC_REQUEST_LEN, ALLOC_RESPONSE_LEN, ARG_HEADER_LEN, ETHERNET_HEADER_LEN,
    INITIAL_HEADER_LEN, INSTR_HEADER_LEN, NUM_ARGS,
};
use crate::error::Result;
use crate::program::Program;

/// Read a big-endian u16 at `off`.
pub(crate) fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([buf[off], buf[off + 1]])
}

/// Write a big-endian u16 at `off`.
pub(crate) fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_be_bytes());
}

/// Read a big-endian u32 at `off`.
pub(crate) fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_be_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// Write a big-endian u32 at `off`.
pub(crate) fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_be_bytes());
}

/// Build a complete program packet: Ethernet + initial header + argument
/// header + instructions (EOF-terminated) + `payload`.
///
/// This is the client shim's "activation" step — the application payload
/// is left untouched and the active headers are prepended (Section 3.3).
pub fn build_program_packet(
    dst: [u8; 6],
    src: [u8; 6],
    fid: u16,
    seq: u16,
    program: &Program,
    payload: &[u8],
) -> Vec<u8> {
    let instr_bytes = program.encode_instructions();
    let total = ETHERNET_HEADER_LEN
        + INITIAL_HEADER_LEN
        + ARG_HEADER_LEN
        + instr_bytes.len()
        + payload.len();
    let mut buf = vec![0u8; total];
    {
        let mut eth = EthernetFrame::new_unchecked(&mut buf[..]);
        eth.set_dst(dst);
        eth.set_src(src);
        eth.set_ethertype(ACTIVE_ETHERTYPE);
    }
    {
        let body = &mut buf[ETHERNET_HEADER_LEN..];
        let mut hdr = ActiveHeader::new_unchecked(body);
        hdr.set_fid(fid);
        hdr.set_flags(PacketFlags::default().with_type(PacketType::Program));
        hdr.set_seq(seq);
        hdr.set_program_len(program.len() as u8);
        hdr.set_recirc_count(0);
        hdr.set_aux(0);
    }
    let args_off = ETHERNET_HEADER_LEN + INITIAL_HEADER_LEN;
    for (i, a) in program.args().iter().enumerate() {
        put_u32(&mut buf, args_off + i * 4, *a);
    }
    let instr_off = args_off + ARG_HEADER_LEN;
    buf[instr_off..instr_off + instr_bytes.len()].copy_from_slice(&instr_bytes);
    buf[instr_off + instr_bytes.len()..].copy_from_slice(payload);
    buf
}

/// A pre-encoded program-packet prefix: Ethernet + initial header +
/// argument header + EOF-terminated instruction bytes, everything up to
/// the application payload.
///
/// The client shim activates every outbound packet with the same
/// program; re-encoding the instruction stream per packet is pure
/// waste. A template encodes once and [`ProgramTemplate::build`] merely
/// stamps the per-packet fields (sequence number, arguments) and
/// appends the payload. The shim must rebuild its template whenever it
/// resynthesizes the program (a reallocation moved its regions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramTemplate {
    prefix: Vec<u8>,
}

impl ProgramTemplate {
    /// Encode the fixed prefix once.
    pub fn new(dst: [u8; 6], src: [u8; 6], fid: u16, program: &Program) -> ProgramTemplate {
        ProgramTemplate {
            prefix: build_program_packet(dst, src, fid, 0, program, &[]),
        }
    }

    /// Stamp out one program packet: copy the prefix, set the sequence
    /// number and arguments, append the payload.
    pub fn build(&self, seq: u16, args: &[u32; NUM_ARGS], payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.prefix.len() + payload.len());
        buf.extend_from_slice(&self.prefix);
        {
            let mut hdr = ActiveHeader::new_unchecked(&mut buf[ETHERNET_HEADER_LEN..]);
            hdr.set_seq(seq);
        }
        let args_off = ETHERNET_HEADER_LEN + INITIAL_HEADER_LEN;
        for (i, a) in args.iter().enumerate() {
            put_u32(&mut buf, args_off + i * 4, *a);
        }
        buf.extend_from_slice(payload);
        buf
    }
}

fn build_frame_with_header(
    dst: [u8; 6],
    src: [u8; 6],
    fid: u16,
    seq: u16,
    flags: PacketFlags,
    aux: u16,
    body_len: usize,
) -> Vec<u8> {
    let mut buf = vec![0u8; ETHERNET_HEADER_LEN + INITIAL_HEADER_LEN + body_len];
    {
        let mut eth = EthernetFrame::new_unchecked(&mut buf[..]);
        eth.set_dst(dst);
        eth.set_src(src);
        eth.set_ethertype(ACTIVE_ETHERTYPE);
    }
    {
        let mut hdr = ActiveHeader::new_unchecked(&mut buf[ETHERNET_HEADER_LEN..]);
        hdr.set_fid(fid);
        hdr.set_flags(flags);
        hdr.set_seq(seq);
        hdr.set_aux(aux);
    }
    buf
}

/// Build an allocation-request packet (Section 4.3).
///
/// `prog_len` and the `elastic` / `pinned` options travel in the initial
/// header; `ingress_position` (compact position of the first
/// ingress-bound instruction, or 0) travels in `aux`.
#[allow(clippy::too_many_arguments)]
pub fn build_alloc_request(
    dst: [u8; 6],
    src: [u8; 6],
    fid: u16,
    seq: u16,
    accesses: &[AccessDescriptor],
    prog_len: u8,
    elastic: bool,
    pinned: bool,
    ingress_position: u16,
) -> Result<Vec<u8>> {
    build_alloc_request_with_program(
        dst,
        src,
        fid,
        seq,
        accesses,
        prog_len,
        elastic,
        pinned,
        ingress_position,
        &[],
    )
}

/// Build an allocation-request packet carrying the compact program
/// bytecode after the 24-byte descriptor header, so the switch can
/// statically verify the program it is about to admit.
///
/// `program` is the EOF-terminated instruction stream
/// ([`Program::encode_instructions`]); pass `&[]` for a descriptor-only
/// request (legacy format — receivers ignore absent trailing bytes, so
/// the extension is backward compatible in both directions).
#[allow(clippy::too_many_arguments)]
pub fn build_alloc_request_with_program(
    dst: [u8; 6],
    src: [u8; 6],
    fid: u16,
    seq: u16,
    accesses: &[AccessDescriptor],
    prog_len: u8,
    elastic: bool,
    pinned: bool,
    ingress_position: u16,
    program: &[u8],
) -> Result<Vec<u8>> {
    let mut flags = PacketFlags::default().with_type(PacketType::AllocRequest);
    flags.set_elastic(elastic);
    flags.set_pinned(pinned);
    let mut buf = build_frame_with_header(
        dst,
        src,
        fid,
        seq,
        flags,
        ingress_position,
        ALLOC_REQUEST_LEN + program.len(),
    );
    {
        let mut hdr = ActiveHeader::new_unchecked(&mut buf[ETHERNET_HEADER_LEN..]);
        hdr.set_program_len(prog_len);
    }
    let off = ETHERNET_HEADER_LEN + INITIAL_HEADER_LEN;
    let mut req = AllocRequest::new_unchecked(&mut buf[off..]);
    req.set_accesses(accesses)?;
    buf[off + ALLOC_REQUEST_LEN..].copy_from_slice(program);
    Ok(buf)
}

/// Build an allocation-response packet: twenty per-stage regions (or a
/// failure notification when `regions` is `None`).
pub fn build_alloc_response(
    dst: [u8; 6],
    src: [u8; 6],
    fid: u16,
    seq: u16,
    regions: Option<&[(usize, RegionEntry)]>,
) -> Vec<u8> {
    let mut flags = PacketFlags::default().with_type(PacketType::AllocResponse);
    flags.set_from_switch(true);
    flags.set_failed(regions.is_none());
    let mut buf = build_frame_with_header(dst, src, fid, seq, flags, 0, ALLOC_RESPONSE_LEN);
    if let Some(regions) = regions {
        let off = ETHERNET_HEADER_LEN + INITIAL_HEADER_LEN;
        let mut resp = AllocResponse::new_unchecked(&mut buf[off..]);
        resp.clear();
        for &(stage, region) in regions {
            resp.set_region(stage, region);
        }
    }
    buf
}

/// Build a control packet (snapshot-complete, deallocate, deactivate /
/// reactivate notices, heartbeats) — "special packets containing only
/// the global active header" (Section 4.3).
pub fn build_control(
    dst: [u8; 6],
    src: [u8; 6],
    fid: u16,
    seq: u16,
    op: ControlOp,
    from_switch: bool,
) -> Vec<u8> {
    let mut flags = PacketFlags::default().with_type(PacketType::Control);
    flags.set_from_switch(from_switch);
    build_frame_with_header(dst, src, fid, seq, flags, op as u16, 0)
}

/// Offsets of the pieces of a program packet within the full frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramPacketLayout {
    /// Offset of the argument header.
    pub args_off: usize,
    /// Offset of the first instruction header.
    pub instr_off: usize,
    /// Offset of the application payload (after the EOF terminator).
    pub payload_off: usize,
}

/// Locate the argument header, instruction stream and payload within a
/// program packet, verifying the EOF terminator is present.
pub fn program_packet_layout(frame: &[u8]) -> Result<ProgramPacketLayout> {
    use crate::error::Error;
    let eth = EthernetFrame::new_checked(frame)?;
    if eth.ethertype() != ACTIVE_ETHERTYPE {
        return Err(Error::NotActive {
            ethertype: eth.ethertype(),
        });
    }
    let body = &frame[ETHERNET_HEADER_LEN..];
    let hdr = ActiveHeader::new_checked(body)?;
    if hdr.flags().packet_type() != PacketType::Program {
        return Err(Error::BadPacketType(hdr.flags().packet_type() as u8));
    }
    let args_off = ETHERNET_HEADER_LEN + INITIAL_HEADER_LEN;
    if frame.len() < args_off + ARG_HEADER_LEN {
        return Err(Error::Truncated {
            what: "argument header",
            need: args_off + ARG_HEADER_LEN,
            have: frame.len(),
        });
    }
    let instr_off = args_off + ARG_HEADER_LEN;
    // Scan for EOF.
    let mut off = instr_off;
    loop {
        if frame.len() < off + INSTR_HEADER_LEN {
            return Err(Error::InvalidProgram("missing EOF terminator"));
        }
        let op = frame[off];
        off += INSTR_HEADER_LEN;
        if op == crate::opcode::Opcode::EOF as u8 {
            break;
        }
    }
    Ok(ProgramPacketLayout {
        args_off,
        instr_off,
        payload_off: off,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instruction;
    use crate::opcode::Opcode;
    use crate::program::ProgramBuilder;

    fn tiny_program() -> Program {
        ProgramBuilder::new()
            .op(Opcode::NOP)
            .op(Opcode::RTS)
            .op(Opcode::RETURN)
            .arg(0, 42)
            .arg(3, 0xffff_ffff)
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_parse_program_packet() {
        let p = tiny_program();
        let frame = build_program_packet([1; 6], [2; 6], 0x1234, 7, &p, b"hello");
        let layout = program_packet_layout(&frame).unwrap();
        assert_eq!(layout.args_off, 24);
        assert_eq!(layout.instr_off, 40);
        // 3 instructions + EOF = 8 bytes.
        assert_eq!(layout.payload_off, 48);
        assert_eq!(&frame[layout.payload_off..], b"hello");
        assert_eq!(get_u32(&frame, layout.args_off), 42);
        assert_eq!(get_u32(&frame, layout.args_off + 12), 0xffff_ffff);

        let hdr = ActiveHeader::new_checked(&frame[ETHERNET_HEADER_LEN..]).unwrap();
        assert_eq!(hdr.fid(), 0x1234);
        assert_eq!(hdr.seq(), 7);
        assert_eq!(hdr.program_len(), 3);
        assert_eq!(hdr.flags().packet_type(), PacketType::Program);
    }

    #[test]
    fn template_matches_fresh_builds() {
        let p = tiny_program();
        let tpl = ProgramTemplate::new([1; 6], [2; 6], 0x1234, &p);
        for (seq, payload) in [(7u16, &b"hello"[..]), (8, b""), (9, b"abcdefgh")] {
            let mut q = p.clone();
            q.set_arg(1, u32::from(seq)).unwrap();
            let args = q.args();
            let fresh = build_program_packet([1; 6], [2; 6], 0x1234, seq, &q, payload);
            assert_eq!(tpl.build(seq, &args, payload), fresh);
        }
    }

    #[test]
    fn non_active_frames_are_rejected() {
        let p = tiny_program();
        let mut frame = build_program_packet([1; 6], [2; 6], 1, 0, &p, b"");
        // Corrupt the EtherType.
        frame[12] = 0x08;
        frame[13] = 0x00;
        assert!(matches!(
            program_packet_layout(&frame),
            Err(crate::error::Error::NotActive { ethertype: 0x0800 })
        ));
    }

    #[test]
    fn truncated_instruction_stream_is_rejected() {
        let p = tiny_program();
        let frame = build_program_packet([1; 6], [2; 6], 1, 0, &p, b"");
        // Cut the frame before the EOF.
        let cut = &frame[..frame.len() - 2];
        assert!(program_packet_layout(cut).is_err());
    }

    #[test]
    fn instructions_decode_from_frame() {
        let p = tiny_program();
        let frame = build_program_packet([1; 6], [2; 6], 1, 0, &p, b"xyz");
        let layout = program_packet_layout(&frame).unwrap();
        let decoded =
            Program::decode_instructions(&frame[layout.instr_off..layout.payload_off]).unwrap();
        assert_eq!(decoded.instructions(), p.instructions());
        assert_eq!(decoded.instructions()[1], Instruction::new(Opcode::RTS));
    }

    #[test]
    fn alloc_request_frame_roundtrips() {
        let accesses = [
            AccessDescriptor {
                min_position: 2,
                min_gap: 2,
                demand: 0,
            },
            AccessDescriptor {
                min_position: 5,
                min_gap: 3,
                demand: 4,
            },
        ];
        let frame =
            build_alloc_request([1; 6], [2; 6], 9, 3, &accesses, 11, true, true, 8).unwrap();
        let hdr = ActiveHeader::new_checked(&frame[ETHERNET_HEADER_LEN..]).unwrap();
        assert_eq!(hdr.flags().packet_type(), PacketType::AllocRequest);
        assert!(hdr.flags().elastic());
        assert!(hdr.flags().pinned());
        assert_eq!(hdr.program_len(), 11);
        assert_eq!(hdr.aux(), 8);
        let req =
            AllocRequest::new_checked(&frame[ETHERNET_HEADER_LEN + INITIAL_HEADER_LEN..]).unwrap();
        assert_eq!(req.accesses(), accesses.to_vec());
    }

    #[test]
    fn alloc_request_carries_verifiable_bytecode() {
        let accesses = [AccessDescriptor {
            min_position: 2,
            min_gap: 2,
            demand: 0,
        }];
        let program = crate::ProgramBuilder::new()
            .op_arg(Opcode::MAR_LOAD, 0)
            .op(Opcode::MEM_READ)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let encoded = program.encode_instructions();
        let frame = build_alloc_request_with_program(
            [1; 6], [2; 6], 9, 3, &accesses, 3, false, false, 0, &encoded,
        )
        .unwrap();
        let body = &frame[ETHERNET_HEADER_LEN + INITIAL_HEADER_LEN..];
        // The descriptor header still parses in place...
        let req = AllocRequest::new_checked(body).unwrap();
        assert_eq!(req.accesses(), accesses.to_vec());
        // ...and the trailing bytes decode back to the same program.
        let decoded = crate::Program::decode_instructions(&body[ALLOC_REQUEST_LEN..]).unwrap();
        assert_eq!(decoded.instructions(), program.instructions());
        // The legacy builder ships no trailing bytecode at all.
        let legacy =
            build_alloc_request([1; 6], [2; 6], 9, 3, &accesses, 3, false, false, 0).unwrap();
        assert_eq!(
            legacy.len(),
            ETHERNET_HEADER_LEN + INITIAL_HEADER_LEN + ALLOC_REQUEST_LEN
        );
    }

    #[test]
    fn alloc_response_frame_roundtrips() {
        let regions = [(1usize, RegionEntry { start: 0, end: 256 })];
        let frame = build_alloc_response([1; 6], [2; 6], 9, 4, Some(&regions));
        let hdr = ActiveHeader::new_checked(&frame[ETHERNET_HEADER_LEN..]).unwrap();
        assert_eq!(hdr.flags().packet_type(), PacketType::AllocResponse);
        assert!(!hdr.flags().failed());
        assert!(hdr.flags().from_switch());
        let resp =
            AllocResponse::new_checked(&frame[ETHERNET_HEADER_LEN + INITIAL_HEADER_LEN..]).unwrap();
        assert_eq!(resp.allocated_stages(), vec![1]);
        // Failure notification.
        let fail = build_alloc_response([1; 6], [2; 6], 9, 5, None);
        let hdr = ActiveHeader::new_checked(&fail[ETHERNET_HEADER_LEN..]).unwrap();
        assert!(hdr.flags().failed());
        assert_eq!(
            fail.len(),
            ETHERNET_HEADER_LEN + INITIAL_HEADER_LEN + ALLOC_RESPONSE_LEN
        );
    }

    #[test]
    fn control_frame_roundtrips() {
        let frame = build_control([1; 6], [2; 6], 9, 6, ControlOp::SnapshotComplete, false);
        assert_eq!(frame.len(), ETHERNET_HEADER_LEN + INITIAL_HEADER_LEN);
        let hdr = ActiveHeader::new_checked(&frame[ETHERNET_HEADER_LEN..]).unwrap();
        assert_eq!(hdr.flags().packet_type(), PacketType::Control);
        assert_eq!(hdr.control_op().unwrap(), ControlOp::SnapshotComplete);
        assert!(!hdr.flags().from_switch());
        let notice = build_control([1; 6], [2; 6], 9, 7, ControlOp::DeactivateNotice, true);
        let hdr = ActiveHeader::new_checked(&notice[ETHERNET_HEADER_LEN..]).unwrap();
        assert_eq!(hdr.control_op().unwrap(), ControlOp::DeactivateNotice);
        assert!(hdr.flags().from_switch());
    }

    #[test]
    fn endian_helpers_roundtrip() {
        let mut buf = [0u8; 8];
        put_u16(&mut buf, 1, 0xBEEF);
        assert_eq!(get_u16(&buf, 1), 0xBEEF);
        put_u32(&mut buf, 4, 0xDEAD_BEEF);
        assert_eq!(get_u32(&buf, 4), 0xDEAD_BEEF);
        assert_eq!(buf[4], 0xDE); // big-endian on the wire
    }
}
