//! Slot indices.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A discrete time slot index.
///
/// Newtype over `u64` so slot arithmetic cannot be confused with counts or
/// energy units.
///
/// # Example
///
/// ```
/// use rcb_radio::Slot;
/// let s = Slot::new(10) + 5;
/// assert_eq!(s.index(), 15);
/// assert_eq!(s - Slot::new(10), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Slot(u64);

impl Slot {
    /// The first slot.
    pub const ZERO: Slot = Slot(0);

    /// Creates a slot from its index.
    #[must_use]
    pub const fn new(index: u64) -> Self {
        Slot(index)
    }

    /// The raw index.
    #[must_use]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The next slot.
    #[must_use]
    pub const fn next(self) -> Self {
        Slot(self.0 + 1)
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot {}", self.0)
    }
}

impl From<u64> for Slot {
    fn from(v: u64) -> Self {
        Slot(v)
    }
}

impl Add<u64> for Slot {
    type Output = Slot;
    fn add(self, rhs: u64) -> Slot {
        Slot(self.0 + rhs)
    }
}

impl AddAssign<u64> for Slot {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Slot> for Slot {
    type Output = u64;
    /// Number of slots from `rhs` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self`.
    fn sub(self, rhs: Slot) -> u64 {
        debug_assert!(rhs.0 <= self.0, "slot subtraction underflow");
        self.0 - rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let s = Slot::new(5);
        assert_eq!((s + 3).index(), 8);
        assert_eq!(s.next().index(), 6);
        assert_eq!(Slot::new(9) - Slot::new(4), 5);
        let mut t = Slot::ZERO;
        t += 7;
        assert_eq!(t, Slot::new(7));
    }

    #[test]
    fn ordering_and_display() {
        assert!(Slot::new(1) < Slot::new(2));
        assert_eq!(Slot::new(3).to_string(), "slot 3");
    }
}
