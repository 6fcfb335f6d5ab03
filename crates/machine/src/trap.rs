//! CPU exceptions.

use sofi_isa::MemWidth;
use std::error::Error;
use std::fmt;

/// A CPU exception raised during execution.
///
/// In a fault-injection experiment a trap is a *failure mode*: the injected
/// bit-flip propagated into an address or control-flow value the hardware
/// rejects (the "CPU exceptions" outcome monitored in §II-D of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trap {
    /// A data access was not naturally aligned.
    Misaligned {
        /// Faulting address.
        addr: u32,
        /// Access width that required alignment.
        width: MemWidth,
    },
    /// A data access fell outside RAM and the MMIO page.
    OutOfRange {
        /// Faulting address.
        addr: u32,
    },
    /// A read from a write-only or unmapped MMIO register.
    MmioRead {
        /// Faulting address.
        addr: u32,
    },
    /// Control flow left the instruction ROM (jump/branch beyond the last
    /// instruction plus one).
    BadJump {
        /// Target instruction index.
        target: u32,
    },
    /// The configured serial output limit was exceeded (a runaway faulted
    /// run spewing output; bounded so experiments terminate).
    SerialOverflow,
    /// The fetched instruction word did not decode (only reachable under
    /// opcode-corruption injection: a flipped bit landed in the opcode
    /// field and produced an encoding the decoder rejects, exactly as it
    /// would reject ROM garbage).
    IllegalOpcode {
        /// The rejected 6-bit opcode field (bits 31:26 of the word).
        opcode: u8,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Misaligned { addr, width } => {
                write!(f, "misaligned {:?} access at {addr:#010x}", width)
            }
            Trap::OutOfRange { addr } => write!(f, "access outside memory at {addr:#010x}"),
            Trap::MmioRead { addr } => write!(f, "read from write-only MMIO {addr:#010x}"),
            Trap::BadJump { target } => write!(f, "jump outside ROM to index {target}"),
            Trap::SerialOverflow => write!(f, "serial output limit exceeded"),
            Trap::IllegalOpcode { opcode } => {
                write!(f, "illegal opcode {opcode:#04x} after corruption")
            }
        }
    }
}

impl Error for Trap {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(
            Trap::OutOfRange { addr: 0x10 }.to_string(),
            "access outside memory at 0x00000010"
        );
        assert_eq!(
            Trap::BadJump { target: 99 }.to_string(),
            "jump outside ROM to index 99"
        );
    }
}
