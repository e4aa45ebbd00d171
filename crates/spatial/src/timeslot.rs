//! Uniform time slotting — the temporal half of the spatial-temporal
//! division (Definition 8). The time domain is partitioned into equal slots
//! of length τ.

use seeker_trace::Timestamp;

/// A partition of a time interval into equal slots of length τ.
///
/// Slots are half-open `[start, start + τ)`, except that the final slot is
/// closed on the right so the interval end is always covered: a check-in at
/// exactly `end` lands in the final (possibly partial) slot, and instants
/// beyond `end` are outside the slotting.
///
/// ```
/// use seeker_spatial::TimeSlots;
/// use seeker_trace::Timestamp;
///
/// let slots = TimeSlots::new(Timestamp::from_secs(0), Timestamp::from_days(21.0), 7.0);
/// assert_eq!(slots.n_slots(), 3); // [0,7), [7,14), [14,21]
/// assert_eq!(slots.slot_of(Timestamp::from_days(8.0)), Some(1));
/// assert_eq!(slots.slot_of(Timestamp::from_days(21.0)), Some(2)); // end is covered
/// assert_eq!(slots.slot_of(Timestamp::from_days(21.5)), None); // beyond end is not
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeSlots {
    origin: Timestamp,
    slot_secs: i64,
    span_secs: i64,
    n_slots: usize,
}

impl TimeSlots {
    /// Creates a slotting of `[origin, end]` with slots of `tau_days` days.
    ///
    /// The final partial slot, if any, is kept (so `end` is always covered).
    ///
    /// # Panics
    ///
    /// Panics if `tau_days` is not positive and finite, or if `end < origin`.
    pub fn new(origin: Timestamp, end: Timestamp, tau_days: f64) -> Self {
        assert!(tau_days.is_finite() && tau_days > 0.0, "tau must be positive, got {tau_days}");
        assert!(end >= origin, "time range must be non-empty");
        let slot_secs = ((tau_days * Timestamp::SECS_PER_DAY as f64).round() as i64).max(1);
        let span_secs = end.delta_secs(origin);
        // Ceiling division: exactly enough slots to tile [origin, end]. The
        // old `span / slot_secs + 1` formula minted a spurious extra slot
        // whenever the span was an exact multiple of τ. Quotient plus a
        // remainder test, because `span + slot - 1` overflows for spans
        // near `i64::MAX`.
        let n_slots =
            ((span_secs / slot_secs + i64::from(span_secs % slot_secs != 0)) as usize).max(1);
        TimeSlots { origin, slot_secs, span_secs, n_slots }
    }

    /// Number of slots (the `J` of the STD).
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// Slot length in seconds.
    pub fn slot_secs(&self) -> i64 {
        self.slot_secs
    }

    /// The start of the covered interval.
    pub fn origin(&self) -> Timestamp {
        self.origin
    }

    /// The end of the covered interval (inclusive).
    pub fn end(&self) -> Timestamp {
        Timestamp::from_secs(self.origin.as_secs() + self.span_secs)
    }

    /// The slot index of `t`, or `None` if `t` lies outside the covered
    /// interval `[origin, end]`.
    ///
    /// An instant at exactly `end` is clamped into the final slot even when
    /// the span is an exact multiple of τ (the closed right edge).
    pub fn slot_of(&self, t: Timestamp) -> Option<usize> {
        // An instant so far from the origin that the difference overflows
        // lies outside every slot.
        let delta = t.as_secs().checked_sub(self.origin.as_secs())?;
        if delta < 0 || delta > self.span_secs {
            return None;
        }
        Some(((delta / self.slot_secs) as usize).min(self.n_slots - 1))
    }

    /// The start timestamp of slot `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn slot_start(&self, j: usize) -> Timestamp {
        assert!(j < self.n_slots, "slot {j} out of range (n = {})", self.n_slots);
        Timestamp::from_secs(self.origin.as_secs() + j as i64 * self.slot_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division() {
        let s = TimeSlots::new(Timestamp::from_secs(0), Timestamp::from_days(21.0), 7.0);
        assert_eq!(s.n_slots(), 3); // days [0,7), [7,14), [14,21]
        assert_eq!(s.slot_of(Timestamp::from_secs(0)), Some(0));
        assert_eq!(s.slot_of(Timestamp::from_days(6.999)), Some(0));
        assert_eq!(s.slot_of(Timestamp::from_days(7.0)), Some(1));
        // The interval end is clamped into the final slot (closed right
        // edge), not pushed into a phantom fourth slot.
        assert_eq!(s.slot_of(Timestamp::from_days(21.0)), Some(2));
    }

    #[test]
    fn partial_final_slot_is_kept() {
        let s = TimeSlots::new(Timestamp::from_secs(0), Timestamp::from_days(10.0), 7.0);
        assert_eq!(s.n_slots(), 2);
        assert_eq!(s.slot_of(Timestamp::from_days(10.0)), Some(1));
    }

    #[test]
    fn out_of_range_is_none() {
        let s = TimeSlots::new(Timestamp::from_days(1.0), Timestamp::from_days(8.0), 7.0);
        assert_eq!(s.slot_of(Timestamp::from_secs(0)), None);
        assert_eq!(s.slot_of(Timestamp::from_days(100.0)), None);
    }

    #[test]
    fn beyond_end_is_none_even_inside_final_slot_width() {
        // Regression: span 10 d with τ = 7 d leaves a partial final slot
        // [7, 10]. The old code accepted any instant below the 14-day slot
        // boundary, so day 13 mapped to Some(1) despite lying past `end`.
        let s = TimeSlots::new(Timestamp::from_secs(0), Timestamp::from_days(10.0), 7.0);
        assert_eq!(s.slot_of(Timestamp::from_days(13.0)), None);
        assert_eq!(s.slot_of(Timestamp::from_secs(10 * 86_400 + 1)), None);
        assert_eq!(s.end(), Timestamp::from_days(10.0));
    }

    #[test]
    fn fractional_tau() {
        let s = TimeSlots::new(Timestamp::from_secs(0), Timestamp::from_days(1.0), 0.5);
        assert_eq!(s.n_slots(), 2);
        assert_eq!(s.slot_secs(), 43_200);
        assert_eq!(s.slot_of(Timestamp::from_secs(43_199)), Some(0));
        assert_eq!(s.slot_of(Timestamp::from_secs(43_200)), Some(1));
        // End of day lands in the final slot; a second later is outside.
        assert_eq!(s.slot_of(Timestamp::from_secs(86_400)), Some(1));
        assert_eq!(s.slot_of(Timestamp::from_secs(86_401)), None);
    }

    #[test]
    fn slot_start_roundtrip() {
        let s = TimeSlots::new(Timestamp::from_days(2.0), Timestamp::from_days(30.0), 7.0);
        for j in 0..s.n_slots() {
            assert_eq!(s.slot_of(s.slot_start(j)), Some(j));
        }
    }

    #[test]
    fn degenerate_single_instant() {
        let t = Timestamp::from_secs(5);
        let s = TimeSlots::new(t, t, 7.0);
        assert_eq!(s.n_slots(), 1);
        assert_eq!(s.slot_of(t), Some(0));
        // A single-instant interval covers nothing but that instant.
        assert_eq!(s.slot_of(Timestamp::from_secs(4)), None);
        assert_eq!(s.slot_of(Timestamp::from_secs(6)), None);
        assert_eq!(s.end(), t);
    }

    #[test]
    #[should_panic(expected = "tau")]
    fn rejects_non_positive_tau() {
        let _ = TimeSlots::new(Timestamp::from_secs(0), Timestamp::from_secs(10), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_inverted_range() {
        let _ = TimeSlots::new(Timestamp::from_secs(10), Timestamp::from_secs(0), 1.0);
    }
}
