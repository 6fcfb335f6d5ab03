//! Trace statistics.
//!
//! Summary numbers about a golden run's memory behaviour. These feed the
//! paper's Figure 2g (runtime and memory usage of each benchmark variant)
//! and help explain *why* weighting matters: the wider the spread of data
//! lifetimes, the larger the bias of unweighted accounting (§III-D).

use crate::golden::GoldenRun;
use sofi_machine::AccessKind;

/// Aggregate statistics over a golden run's access trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Runtime in cycles (`Δt`).
    pub cycles: u64,
    /// RAM size in bits (`Δm`).
    pub ram_bits: u64,
    /// Fault-space size `w = Δt · Δm`.
    pub fault_space: u64,
    /// Dynamic load count.
    pub loads: u64,
    /// Dynamic store count.
    pub stores: u64,
    /// Bits read over the whole run (loads × width).
    pub bits_read: u64,
    /// Bits written over the whole run (stores × width).
    pub bits_written: u64,
    /// Bytes of RAM touched at least once.
    pub bytes_touched: u64,
    /// Serial output length (bytes).
    pub output_len: usize,
}

impl TraceStats {
    /// Computes statistics from a golden run.
    pub fn from_golden(golden: &GoldenRun) -> TraceStats {
        let mut loads = 0;
        let mut stores = 0;
        let mut bits_read = 0;
        let mut bits_written = 0;
        let mut touched = vec![false; (golden.ram_bits / 8) as usize];
        for a in &golden.trace {
            match a.kind {
                AccessKind::Read => {
                    loads += 1;
                    bits_read += a.width.bits() as u64;
                }
                AccessKind::Write => {
                    stores += 1;
                    bits_written += a.width.bits() as u64;
                }
            }
            for byte in a.addr..a.addr + a.width.bytes() {
                touched[byte as usize] = true;
            }
        }
        TraceStats {
            cycles: golden.cycles,
            ram_bits: golden.ram_bits,
            fault_space: golden.fault_space_size(),
            loads,
            stores,
            bits_read,
            bits_written,
            bytes_touched: touched.iter().filter(|&&t| t).count() as u64,
            output_len: golden.serial.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofi_isa::{Asm, Reg};

    #[test]
    fn counts_match_program() {
        let mut a = Asm::new();
        let buf = a.data_space("buf", 8);
        a.li(Reg::R1, 5);
        a.sw(Reg::R1, Reg::R0, buf.offset()); // store word
        a.lw(Reg::R2, Reg::R0, buf.offset()); // load word
        a.lb(Reg::R3, Reg::R0, buf.offset()); // load byte
        let p = a.build().unwrap();
        let g = GoldenRun::capture(&p, 1_000).unwrap();
        let s = TraceStats::from_golden(&g);
        assert_eq!(s.loads, 2);
        assert_eq!(s.stores, 1);
        assert_eq!(s.bits_read, 40);
        assert_eq!(s.bits_written, 32);
        assert_eq!(s.bytes_touched, 4);
        assert_eq!(s.cycles, 4);
        assert_eq!(s.ram_bits, 64);
        assert_eq!(s.fault_space, 256);
        assert_eq!(s.output_len, 0);
    }
}
