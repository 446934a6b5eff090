//! Grid/block dimension helpers mirroring CUDA's `dim3`.

/// A three-component extent, as in CUDA `dim3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    pub x: usize,
    pub y: usize,
    pub z: usize,
}

impl Dim3 {
    /// A 1-D extent.
    pub const fn x(x: usize) -> Self {
        Dim3 { x, y: 1, z: 1 }
    }

    /// A 2-D extent.
    pub const fn xy(x: usize, y: usize) -> Self {
        Dim3 { x, y, z: 1 }
    }

    /// Total number of elements covered.
    pub const fn volume(&self) -> usize {
        self.x * self.y * self.z
    }

    /// Linearize an index within this extent (x fastest).
    pub fn linear(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.x && y < self.y && z < self.z);
        (z * self.y + y) * self.x + x
    }

    /// Inverse of [`Dim3::linear`].
    pub fn unlinear(&self, idx: usize) -> (usize, usize, usize) {
        debug_assert!(idx < self.volume());
        let x = idx % self.x;
        let y = (idx / self.x) % self.y;
        let z = idx / (self.x * self.y);
        (x, y, z)
    }
}

/// `ceil(a / b)` for grid sizing.
pub const fn ceil_div(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

/// Round `a` up to the next multiple of `b`.
pub const fn round_up(a: usize, b: usize) -> usize {
    ceil_div(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_linearization() {
        let d = Dim3 { x: 4, y: 3, z: 2 };
        assert_eq!(d.volume(), 24);
        for idx in 0..d.volume() {
            let (x, y, z) = d.unlinear(idx);
            assert_eq!(d.linear(x, y, z), idx);
        }
    }

    #[test]
    fn constructors() {
        assert_eq!(Dim3::x(7).volume(), 7);
        assert_eq!(Dim3::xy(3, 5).volume(), 15);
    }

    #[test]
    fn rounding_helpers() {
        assert_eq!(ceil_div(10, 4), 3);
        assert_eq!(ceil_div(8, 4), 2);
        assert_eq!(round_up(10, 4), 12);
        assert_eq!(round_up(8, 4), 8);
        assert_eq!(ceil_div(1, 256), 1);
    }
}
