//! TDMA time-wheel arithmetic (Section 4 / Section 8.2).
//!
//! Every tile has a periodically rotating wheel of size `w`; the analyzed
//! application owns the slice `[0, ω)` of each wheel (all wheels aligned
//! at phase 0 — misalignment between tiles is covered conservatively by
//! the sync actors of the binding-aware graph). A firing bound to a tile
//! only makes progress while the wheel phase is inside the slice.

/// One tile's TDMA configuration as seen by the analyzed application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TdmaSlice {
    /// Wheel size `w` in time units.
    pub wheel: u64,
    /// Slice `ω` (time units per revolution) owned by the application,
    /// `0 < slice ≤ wheel`.
    pub slice: u64,
}

impl TdmaSlice {
    /// Creates a slice configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < slice ≤ wheel`.
    pub fn new(wheel: u64, slice: u64) -> Self {
        assert!(wheel > 0, "wheel size must be positive");
        assert!(
            slice > 0 && slice <= wheel,
            "slice must satisfy 0 < slice ≤ wheel (got {slice}/{wheel})"
        );
        TdmaSlice { wheel, slice }
    }

    /// A slice owning the entire wheel (no TDMA interference).
    pub fn full(wheel: u64) -> Self {
        TdmaSlice::new(wheel, wheel)
    }

    /// `true` if wall-clock `time` falls inside the application's slice.
    pub fn in_slice(&self, time: u64) -> bool {
        time % self.wheel < self.slice
    }

    /// Wall-clock time needed, starting at `time`, to accumulate `work`
    /// units of in-slice processing.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdfrs_core::tdma::TdmaSlice;
    /// let t = TdmaSlice::new(10, 5); // slice [0,5) of a 10-wheel
    /// assert_eq!(t.wall_time_for(0, 3), 3);   // fits in current slice
    /// assert_eq!(t.wall_time_for(0, 5), 5);
    /// assert_eq!(t.wall_time_for(0, 6), 11);  // 5 now, wait 5, 1 more
    /// assert_eq!(t.wall_time_for(7, 2), 5);   // wait 3 to phase 0, then 2
    /// ```
    pub fn wall_time_for(&self, time: u64, work: u64) -> u64 {
        self.wall_time_from_phase(time % self.wheel, work)
    }

    /// [`wall_time_for`](TdmaSlice::wall_time_for) starting at wheel
    /// phase `phase < wheel`, for callers that track the phase and so
    /// need no division to find it.
    pub(crate) fn wall_time_from_phase(&self, phase: u64, work: u64) -> u64 {
        if work == 0 {
            return 0;
        }
        let mut wall = 0u64;
        let mut remaining = work;
        if phase < self.slice {
            let avail = self.slice - phase;
            if remaining <= avail {
                return remaining;
            }
            remaining -= avail;
            // Advance to the start of the next revolution.
            wall += self.wheel - phase;
        } else {
            wall += self.wheel - phase;
        }
        // Now at phase 0 with `remaining > 0`.
        let full = (remaining - 1) / self.slice;
        let leftover = remaining - full * self.slice;
        wall + full * self.wheel + leftover
    }

    /// In-slice processing time contained in the wall-clock interval
    /// `[time, time + span)`.
    ///
    /// Inverse companion of [`wall_time_for`](TdmaSlice::wall_time_for):
    /// `slice_time_in(t, wall_time_for(t, w)) == w` for every `t`, `w`.
    pub fn slice_time_in(&self, time: u64, span: u64) -> u64 {
        if span == 0 {
            return 0;
        }
        let phase = time % self.wheel;
        let end = phase + span;
        let full = end / self.wheel;
        let tail = end % self.wheel;
        // Work available in [phase, end) unwrapped over revolutions.
        let mut work = full * self.slice + tail.min(self.slice);
        // Subtract the part of revolution 0 before `phase`.
        work -= phase.min(self.slice);
        work
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_slice_boundaries() {
        let t = TdmaSlice::new(10, 4);
        assert!(t.in_slice(0));
        assert!(t.in_slice(3));
        assert!(!t.in_slice(4));
        assert!(!t.in_slice(9));
        assert!(t.in_slice(10));
        assert!(t.in_slice(23));
    }

    #[test]
    fn full_slice_is_transparent() {
        let t = TdmaSlice::full(10);
        for time in 0..25 {
            assert!(t.in_slice(time));
            assert_eq!(t.wall_time_for(time, 7), 7);
            assert_eq!(t.slice_time_in(time, 7), 7);
        }
    }

    #[test]
    fn wall_time_examples() {
        let t = TdmaSlice::new(10, 5);
        assert_eq!(t.wall_time_for(0, 0), 0);
        assert_eq!(t.wall_time_for(2, 3), 3);
        assert_eq!(t.wall_time_for(2, 4), 10 - 2 + 1);
        assert_eq!(t.wall_time_for(5, 1), 6);
        assert_eq!(t.wall_time_for(9, 5), 6);
        assert_eq!(t.wall_time_for(0, 12), 10 + 10 + 2);
    }

    #[test]
    fn wall_and_slice_time_are_inverse() {
        for (wheel, slice) in [(10u64, 5u64), (10, 1), (10, 10), (7, 3), (100, 37)] {
            let t = TdmaSlice::new(wheel, slice);
            for time in 0..(2 * wheel) {
                for work in 0..(3 * slice + 2) {
                    let wall = t.wall_time_for(time, work);
                    assert_eq!(
                        t.slice_time_in(time, wall),
                        work,
                        "wheel={wheel} slice={slice} time={time} work={work}"
                    );
                    // Completion is tight: one unit less wall time must
                    // yield less work.
                    if work > 0 {
                        assert!(t.slice_time_in(time, wall - 1) < work);
                    }
                }
            }
        }
    }

    #[test]
    fn slice_time_monotone_in_span() {
        let t = TdmaSlice::new(10, 4);
        for time in 0..20 {
            let mut prev = 0;
            for span in 0..35 {
                let cur = t.slice_time_in(time, span);
                assert!(cur >= prev);
                prev = cur;
            }
        }
    }

    #[test]
    #[should_panic(expected = "slice must satisfy")]
    fn zero_slice_panics() {
        TdmaSlice::new(10, 0);
    }

    #[test]
    #[should_panic(expected = "slice must satisfy")]
    fn oversize_slice_panics() {
        TdmaSlice::new(10, 11);
    }
}
