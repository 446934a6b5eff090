//! The competing fault-tolerance schemes evaluated in the paper (Fig. 5).
//!
//! | scheme | level | SIMT | tensor core | detection | correction |
//! |---|---|---|---|---|---|
//! | Wu (ICS'23) | threadblock | ✓ | ✗ | ✓ | ✓ (register reuse — broken by `cp.async`) |
//! | Kosaian (SC'21) | warp | ✓ | ✓ | ✓ | ✗ (recompute) |
//! | **FT K-means** | warp | ✓ | ✓ | ✓ | ✓ (location encoding) |

pub mod wu;

use gpu_sim::timing::FtMode;

/// Identifies a fault-tolerance scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// No protection.
    None,
    /// The paper's warp-level detect-and-correct scheme.
    FtKMeans,
    /// Warp-level detection only (correction via recomputation).
    Kosaian,
    /// Threadblock-level register-reuse scheme.
    Wu,
}

impl SchemeKind {
    /// Map to the timing model's [`FtMode`].
    pub fn ft_mode(self) -> FtMode {
        match self {
            SchemeKind::None => FtMode::None,
            SchemeKind::FtKMeans => FtMode::FtKMeans,
            SchemeKind::Kosaian => FtMode::Kosaian,
            SchemeKind::Wu => FtMode::Wu,
        }
    }

    /// Display name used in reports (matches the paper's figure legends).
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::None => "no FT",
            SchemeKind::FtKMeans => "FT K-Means",
            SchemeKind::Kosaian => "Kosaian's",
            SchemeKind::Wu => "Wu's",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_to_ft_mode() {
        assert_eq!(SchemeKind::None.ft_mode(), FtMode::None);
        assert_eq!(SchemeKind::FtKMeans.ft_mode(), FtMode::FtKMeans);
        assert_eq!(SchemeKind::Kosaian.ft_mode(), FtMode::Kosaian);
        assert_eq!(SchemeKind::Wu.ft_mode(), FtMode::Wu);
    }
}
