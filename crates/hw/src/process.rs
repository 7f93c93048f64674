//! Silicon process nodes and area scaling.

use core::fmt;

/// A manufacturing process node.
///
/// Used to normalize die areas across designs built on different nodes
/// (paper Fig. 4a reports both absolute and 4 nm-normalized area
/// efficiency; Table I lists 4 nm / 7 nm / 14 nm devices).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessNode {
    /// 4 nm-class (e.g. NVIDIA H100).
    N4,
    /// 5 nm-class.
    N5,
    /// 7 nm-class (e.g. NVIDIA A100, Google TPUv4) — the cost model's
    /// reference node.
    #[default]
    N7,
    /// 12 nm-class.
    N12,
    /// 14 nm-class (e.g. Groq TSP).
    N14,
    /// 16 nm-class.
    N16,
}

impl ProcessNode {
    /// Logic/SRAM area of this node relative to the 7 nm reference.
    ///
    /// Factors follow published density ratios (TSMC N7→N5 ≈ 1.8×,
    /// N5→N4 ≈ 1.06×, N16/N14 ≈ 2.5–2.8× N7).
    pub fn area_scale_vs_7nm(self) -> f64 {
        match self {
            ProcessNode::N4 => 0.58,
            ProcessNode::N5 => 0.70,
            ProcessNode::N7 => 1.00,
            ProcessNode::N12 => 2.00,
            ProcessNode::N14 => 2.50,
            ProcessNode::N16 => 2.80,
        }
    }

    /// Rescales an area measured on this node to what it would occupy on
    /// `target` (only logic/SRAM scales; analog PHYs are handled separately
    /// by the [`crate::AreaModel`]).
    pub fn rescale_area(self, area_mm2: f64, target: ProcessNode) -> f64 {
        area_mm2 * target.area_scale_vs_7nm() / self.area_scale_vs_7nm()
    }

    /// All nodes, densest first.
    pub fn all() -> [ProcessNode; 6] {
        [
            ProcessNode::N4,
            ProcessNode::N5,
            ProcessNode::N7,
            ProcessNode::N12,
            ProcessNode::N14,
            ProcessNode::N16,
        ]
    }
}

impl fmt::Display for ProcessNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProcessNode::N4 => "4nm",
            ProcessNode::N5 => "5nm",
            ProcessNode::N7 => "7nm",
            ProcessNode::N12 => "12nm",
            ProcessNode::N14 => "14nm",
            ProcessNode::N16 => "16nm",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_node_is_identity() {
        assert_eq!(ProcessNode::N7.area_scale_vs_7nm(), 1.0);
        assert_eq!(ProcessNode::N7.rescale_area(100.0, ProcessNode::N7), 100.0);
    }

    #[test]
    fn scales_are_monotone_in_node_size() {
        let scales: Vec<f64> = ProcessNode::all()
            .iter()
            .map(|n| n.area_scale_vs_7nm())
            .collect();
        assert!(scales.windows(2).all(|w| w[0] < w[1]), "{scales:?}");
    }

    #[test]
    fn rescale_roundtrips() {
        let there = ProcessNode::N14.rescale_area(725.0, ProcessNode::N4);
        let back = ProcessNode::N4.rescale_area(there, ProcessNode::N14);
        assert!((back - 725.0).abs() < 1e-9);
        // A 14 nm die shrinks dramatically at 4 nm.
        assert!(there < 725.0 * 0.3);
    }

    #[test]
    fn display_names() {
        assert_eq!(format!("{}", ProcessNode::N4), "4nm");
        assert_eq!(format!("{}", ProcessNode::N14), "14nm");
    }
}
