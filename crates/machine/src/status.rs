//! Execution status types.

use crate::trap::Trap;

/// Result of a single [`crate::Machine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// The instruction executed; the machine can continue.
    Running,
    /// The machine halted (explicit `halt` or run-to-completion).
    Halted {
        /// Exit code (0 = normal completion).
        code: u16,
    },
    /// A CPU exception occurred; the machine is stopped.
    Trapped(Trap),
}

/// Result of running a machine until completion or a cycle limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The program finished (explicit `halt` or fell off the end of ROM).
    Halted {
        /// Exit code (0 = normal completion).
        code: u16,
    },
    /// A CPU exception stopped the machine.
    Trapped(Trap),
    /// The cycle limit was reached before the program finished. In an FI
    /// experiment this is classified as a timeout failure.
    CycleLimit,
}

impl RunStatus {
    /// `true` for a clean `Halted { code: 0 }`.
    pub fn is_clean_halt(self) -> bool {
        matches!(self, RunStatus::Halted { code: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_halt() {
        assert!(RunStatus::Halted { code: 0 }.is_clean_halt());
        assert!(!RunStatus::Halted { code: 1 }.is_clean_halt());
        assert!(!RunStatus::CycleLimit.is_clean_halt());
        assert!(!RunStatus::Trapped(Trap::SerialOverflow).is_clean_halt());
    }
}
