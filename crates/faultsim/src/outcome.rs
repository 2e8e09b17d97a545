//! Classification of what happened to an injected fault.

/// The observed consequence of one fault-injection trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOutcome {
    /// Detected and repaired in place by the embedded ECC; the run completed
    /// with the correct answer.
    Corrected,
    /// Detected as uncorrectable by the embedded ECC, then rebuilt from the
    /// XOR parity tier (the erasure escalation ladder); the run completed
    /// with the correct answer.
    DetectedRebuilt,
    /// Detected but not repairable by either tier; the run was aborted with
    /// an error the application can act on (re-assemble, restart the
    /// step, …).
    DetectedAborted,
    /// An out-of-range index produced by the corruption was caught by a
    /// bounds check before it could cause an out-of-bounds access.
    BoundsCaught,
    /// The fault was never flagged but had no effect on the result (it hit a
    /// reserved bit, a stored zero, or was numerically negligible).
    Masked,
    /// The fault was never flagged and the result is wrong — a silent
    /// corruption, the failure mode the protection exists to prevent.
    SilentCorruption,
}

impl FaultOutcome {
    /// All outcomes in reporting order — declaration order, so
    /// `outcome as usize` is an outcome's position here (the index of the
    /// campaign histograms).
    pub const ALL: [FaultOutcome; 6] = [
        FaultOutcome::Corrected,
        FaultOutcome::DetectedRebuilt,
        FaultOutcome::DetectedAborted,
        FaultOutcome::BoundsCaught,
        FaultOutcome::Masked,
        FaultOutcome::SilentCorruption,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            FaultOutcome::Corrected => "corrected",
            FaultOutcome::DetectedRebuilt => "detected (rebuilt from parity)",
            FaultOutcome::DetectedAborted => "detected (aborted)",
            FaultOutcome::BoundsCaught => "caught by bounds check",
            FaultOutcome::Masked => "masked (no effect)",
            FaultOutcome::SilentCorruption => "silent corruption",
        }
    }

    /// Whether the protection did its job for this trial: either the fault
    /// was handled (corrected / rebuilt / detected / contained) or it was
    /// harmless.
    pub fn is_safe(self) -> bool {
        !matches!(self, FaultOutcome::SilentCorruption)
    }

    /// Whether the trial still produced a correct answer (the fault was
    /// absorbed rather than merely contained).
    pub fn is_recovered(self) -> bool {
        matches!(
            self,
            FaultOutcome::Corrected | FaultOutcome::DetectedRebuilt | FaultOutcome::Masked
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safety_classification() {
        assert!(FaultOutcome::Corrected.is_safe());
        assert!(FaultOutcome::DetectedRebuilt.is_safe());
        assert!(FaultOutcome::DetectedAborted.is_safe());
        assert!(FaultOutcome::BoundsCaught.is_safe());
        assert!(FaultOutcome::Masked.is_safe());
        assert!(!FaultOutcome::SilentCorruption.is_safe());
        assert_eq!(FaultOutcome::ALL.len(), 6);
        for (index, outcome) in FaultOutcome::ALL.into_iter().enumerate() {
            assert_eq!(outcome as usize, index, "{outcome:?}");
        }
        assert!(FaultOutcome::SilentCorruption.label().contains("silent"));
        assert!(FaultOutcome::DetectedRebuilt.label().contains("parity"));
    }

    #[test]
    fn recovery_classification() {
        assert!(FaultOutcome::Corrected.is_recovered());
        assert!(FaultOutcome::DetectedRebuilt.is_recovered());
        assert!(FaultOutcome::Masked.is_recovered());
        assert!(!FaultOutcome::DetectedAborted.is_recovered());
        assert!(!FaultOutcome::BoundsCaught.is_recovered());
        assert!(!FaultOutcome::SilentCorruption.is_recovered());
    }
}
