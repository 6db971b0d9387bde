//! Engine configuration and per-level parameters.

use qip_core::QpConfig;
use qip_predict::InterpKind;

/// Axis permutations a stream's order tag can name. Index into this table is
/// the on-stream order tag (per dimensionality); the encoder always writes
/// the [`default_order`].
pub const ORDERS_3D: [[usize; 3]; 6] =
    [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
/// 2-D axis permutations.
pub const ORDERS_2D: [[usize; 2]; 2] = [[0, 1], [1, 0]];

/// Default dimension order: fastest-varying axis first, which is the paper's
/// narrative for SZ3 on SegSalt (interpolate along z, then y, then x with z
/// contiguous).
pub fn default_order(ndim: usize) -> Vec<usize> {
    (0..ndim).rev().collect()
}

/// Resolve an order tag to a permutation for the given dimensionality.
pub fn order_from_tag(ndim: usize, tag: u8) -> Option<Vec<usize>> {
    match ndim {
        1 => (tag == 0).then(|| vec![0]),
        2 => ORDERS_2D.get(tag as usize).map(|o| o.to_vec()),
        3 => ORDERS_3D.get(tag as usize).map(|o| o.to_vec()),
        // 4-D fields (RTM) have no table: tag 0 is the default order.
        4 => (tag == 0).then(|| default_order(4)),
        _ => None,
    }
}

/// Tag of a permutation (inverse of [`order_from_tag`]).
pub fn order_tag(order: &[usize]) -> u8 {
    match order.len() {
        1 => 0,
        2 => ORDERS_2D.iter().position(|o| o == order).unwrap() as u8,
        3 => ORDERS_3D.iter().position(|o| o == order).unwrap() as u8,
        4 => {
            assert_eq!(order, default_order(4), "4-D supports the default order only");
            0
        }
        _ => panic!("unsupported dimensionality"),
    }
}

/// How a level's passes cover the new lattice points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassStructure {
    /// SZ3/QoZ: one directional pass per axis (paper Fig. 2).
    Directional,
    /// HPEZ: parity-class passes — edge midpoints (1 odd axis), face centers
    /// (2 odd axes), cube centers (3 odd axes) — each predicted by averaging
    /// the 1-D interpolations along its odd axes ("multi-dimensional
    /// interpolation").
    MultiDim,
}

impl PassStructure {
    /// Stable stream tag.
    pub fn tag(self) -> u8 {
        match self {
            PassStructure::Directional => 0,
            PassStructure::MultiDim => 1,
        }
    }

    /// Inverse of [`PassStructure::tag`].
    pub fn from_tag(t: u8) -> Option<Self> {
        match t {
            0 => Some(PassStructure::Directional),
            1 => Some(PassStructure::MultiDim),
            _ => None,
        }
    }
}

/// Static engine configuration (fixed per compressor, recorded per stream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Stream magic byte identifying the compressor built on this engine.
    pub magic: u8,
    /// Lossless anchor grid spacing `2^k` (QoZ/HPEZ); `None` stores a single
    /// root point like SZ3.
    pub anchor_log2: Option<u32>,
    /// Per-level error-bound decay: level `l` uses `eb / α^(l−1)` …
    pub alpha: f64,
    /// … clamped from below by `eb / β`.
    pub beta: f64,
    /// Pass structure (directional vs multi-dimensional; the latter also
    /// searches each level's axis mask).
    pub passes: PassStructure,
    /// Quantization index prediction configuration (the paper's contribution).
    pub qp: QpConfig,
}

impl EngineConfig {
    /// SZ3-like baseline: no anchors, uniform per-level bounds, directional
    /// passes.
    pub fn sz3_like(magic: u8) -> Self {
        EngineConfig {
            magic,
            anchor_log2: None,
            alpha: 1.0,
            beta: 1.0,
            passes: PassStructure::Directional,
            qp: QpConfig::off(),
        }
    }

    /// QoZ-like: anchors every 64 points, tuned per-level bounds.
    pub fn qoz_like(magic: u8) -> Self {
        EngineConfig {
            anchor_log2: Some(6),
            alpha: 1.25,
            beta: 2.0,
            ..Self::sz3_like(magic)
        }
    }

    /// HPEZ-like: QoZ plus multi-dimensional interpolation with a per-level
    /// axis-mask search.
    pub fn hpez_like(magic: u8) -> Self {
        EngineConfig {
            passes: PassStructure::MultiDim,
            ..Self::qoz_like(magic)
        }
    }

    /// Absolute error bound for interpolation level `l` (1 = finest), given
    /// the user bound `eb` (QoZ's α/β scheme; α = β = 1 reproduces SZ3).
    pub fn level_eb(&self, eb: f64, level: usize) -> f64 {
        debug_assert!(level >= 1);
        let decayed = eb / self.alpha.powi(level as i32 - 1);
        let eb_l = decayed.max(eb / self.beta);
        // Robustness floor: corrupted stream parameters must never produce a
        // non-positive or non-finite bound (the quantizer rejects those).
        if eb_l.is_finite() && eb_l > 0.0 {
            eb_l
        } else {
            f64::MIN_POSITIVE
        }
    }
}

/// Per-level parameters chosen at compression time and recorded in the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelParams {
    /// Interpolation family for every pass of this level.
    pub kind: InterpKind,
    /// Axis visiting order for this level's passes.
    pub order: Vec<usize>,
    /// Axes allowed to contribute to multi-dimensional prediction (HPEZ's
    /// "dynamic dimension freezing"): bit `a` set = axis `a` participates.
    /// Ignored by directional passes. A pass whose odd axes are all frozen
    /// falls back to using them all.
    pub axis_mask: u8,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_tags_roundtrip() {
        for (i, o) in ORDERS_3D.iter().enumerate() {
            assert_eq!(order_tag(o), i as u8);
            assert_eq!(order_from_tag(3, i as u8).unwrap(), o.to_vec());
        }
        for (i, o) in ORDERS_2D.iter().enumerate() {
            assert_eq!(order_from_tag(2, i as u8).unwrap(), o.to_vec());
        }
        assert_eq!(order_from_tag(3, 6), None);
        assert_eq!(order_from_tag(1, 0).unwrap(), vec![0]);
    }

    #[test]
    fn default_order_is_fastest_first() {
        assert_eq!(default_order(3), vec![2, 1, 0]);
        assert_eq!(default_order(1), vec![0]);
    }

    #[test]
    fn level_eb_decay_and_floor() {
        let mut cfg = EngineConfig::sz3_like(0);
        assert_eq!(cfg.level_eb(1e-3, 1), 1e-3);
        assert_eq!(cfg.level_eb(1e-3, 5), 1e-3); // α = 1: uniform

        cfg.alpha = 2.0;
        cfg.beta = 4.0;
        assert_eq!(cfg.level_eb(1e-3, 1), 1e-3);
        assert_eq!(cfg.level_eb(1e-3, 2), 5e-4);
        assert_eq!(cfg.level_eb(1e-3, 3), 2.5e-4);
        // Floor at eb/β:
        assert_eq!(cfg.level_eb(1e-3, 10), 2.5e-4);
    }

    #[test]
    fn presets_differ_as_documented() {
        let sz3 = EngineConfig::sz3_like(1);
        let qoz = EngineConfig::qoz_like(2);
        let hpez = EngineConfig::hpez_like(3);
        assert!(sz3.anchor_log2.is_none() && qoz.anchor_log2.is_some());
        assert_eq!(sz3.passes, PassStructure::Directional);
        assert_eq!(hpez.passes, PassStructure::MultiDim);
        assert!(qoz.alpha > sz3.alpha);
    }

    #[test]
    fn pass_structure_tags() {
        for p in [PassStructure::Directional, PassStructure::MultiDim] {
            assert_eq!(PassStructure::from_tag(p.tag()), Some(p));
        }
        assert_eq!(PassStructure::from_tag(7), None);
    }
}
