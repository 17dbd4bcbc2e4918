//! Mesh topology primitives: node identifiers, coordinates, directions and
//! XY-routing helpers.
//!
//! The LOCO paper evaluates 8x8 (64-core) and 16x16 (256-core) meshes with
//! XY dimension-ordered routing; everything in this module is generic over
//! the mesh dimensions.

use std::fmt;

/// Identifier of a tile / router in the mesh, numbered row-major from the
/// bottom-left corner: node `y * width + x`.
///
/// ```rust
/// use loco_noc::{Mesh, NodeId};
/// let mesh = Mesh::new(8, 8);
/// let n = NodeId(10);
/// assert_eq!(mesh.coord(n).x, 2);
/// assert_eq!(mesh.coord(n).y, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Returns the raw index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v as u16)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// A 2-D tile coordinate within the mesh. `x` grows eastwards, `y` grows
/// northwards, matching the figures in the paper (router `30` is the
/// north-west corner of a 4x4 mesh).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column (0 = west edge).
    pub x: u16,
    /// Row (0 = south edge).
    pub y: u16,
}

impl Coord {
    /// Creates a new coordinate.
    pub fn new(x: u16, y: u16) -> Self {
        Coord { x, y }
    }

    /// Manhattan distance to `other`.
    pub fn manhattan(self, other: Coord) -> u16 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// Output / input port direction of a mesh router.
///
/// `Local` is the ejection/injection port connecting the router to the tile's
/// network interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// Towards larger `x`.
    East,
    /// Towards smaller `x`.
    West,
    /// Towards larger `y`.
    North,
    /// Towards smaller `y`.
    South,
    /// The local (NIC) port.
    Local,
}

impl Direction {
    /// All five ports of a mesh router, in a fixed order.
    pub const ALL: [Direction; 5] = [
        Direction::East,
        Direction::West,
        Direction::North,
        Direction::South,
        Direction::Local,
    ];

    /// The four non-local directions.
    pub const CARDINAL: [Direction; 4] = [
        Direction::East,
        Direction::West,
        Direction::North,
        Direction::South,
    ];

    /// The opposite direction (`Local` maps to itself).
    pub fn opposite(self) -> Direction {
        match self {
            Direction::East => Direction::West,
            Direction::West => Direction::East,
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::Local => Direction::Local,
        }
    }

    /// Stable small index, useful for array-indexed port tables.
    pub fn index(self) -> usize {
        match self {
            Direction::East => 0,
            Direction::West => 1,
            Direction::North => 2,
            Direction::South => 3,
            Direction::Local => 4,
        }
    }

    /// Whether this direction moves along the X dimension.
    pub fn is_horizontal(self) -> bool {
        matches!(self, Direction::East | Direction::West)
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::East => "E",
            Direction::West => "W",
            Direction::North => "N",
            Direction::South => "S",
            Direction::Local => "L",
        };
        f.write_str(s)
    }
}

/// A rectangular mesh of `width x height` tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mesh {
    width: u16,
    height: u16,
}

impl Mesh {
    /// Creates a `width x height` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be non-zero");
        Mesh { width, height }
    }

    /// Mesh width (number of columns).
    pub fn width(self) -> u16 {
        self.width
    }

    /// Mesh height (number of rows).
    pub fn height(self) -> u16 {
        self.height
    }

    /// Total number of nodes.
    pub fn len(self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Whether the mesh contains zero nodes (never true; kept for clippy's
    /// `len`-without-`is_empty` lint).
    pub fn is_empty(self) -> bool {
        false
    }

    /// Coordinate of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn coord(self, node: NodeId) -> Coord {
        assert!(
            node.index() < self.len(),
            "node {node} out of range for {}x{} mesh",
            self.width,
            self.height
        );
        Coord {
            x: node.0 % self.width,
            y: node.0 / self.width,
        }
    }

    /// NodeId at coordinate `c`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate lies outside the mesh.
    pub fn node_at(self, c: Coord) -> NodeId {
        assert!(
            c.x < self.width && c.y < self.height,
            "coord {c} out of range for {}x{} mesh",
            self.width,
            self.height
        );
        NodeId(c.y * self.width + c.x)
    }

    /// Returns whether `c` lies inside the mesh.
    pub fn contains(self, c: Coord) -> bool {
        c.x < self.width && c.y < self.height
    }

    /// Iterator over all node ids, in index order.
    pub fn nodes(self) -> impl Iterator<Item = NodeId> {
        (0..self.len() as u16).map(NodeId)
    }

    /// The neighbour of `node` in direction `dir`, or `None` at the mesh edge
    /// (and always `None` for `Local`).
    pub fn neighbor(self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let c = self.coord(node);
        let n = match dir {
            Direction::East if c.x + 1 < self.width => Coord::new(c.x + 1, c.y),
            Direction::West if c.x > 0 => Coord::new(c.x - 1, c.y),
            Direction::North if c.y + 1 < self.height => Coord::new(c.x, c.y + 1),
            Direction::South if c.y > 0 => Coord::new(c.x, c.y - 1),
            _ => return None,
        };
        Some(self.node_at(n))
    }

    /// Hop (Manhattan) distance between two nodes.
    pub fn hops(self, a: NodeId, b: NodeId) -> u16 {
        self.coord(a).manhattan(self.coord(b))
    }

    /// Number of SMART-hops needed for an XY traversal from `a` to `b`
    /// with the given `hpc_max`, following the SMART-1D rule that a flit must
    /// stop at the turning router: `ceil(dx/hpc) + ceil(dy/hpc)`.
    pub fn smart_hops(self, a: NodeId, b: NodeId, hpc_max: u16) -> u16 {
        assert!(hpc_max > 0, "hpc_max must be non-zero");
        let ca = self.coord(a);
        let cb = self.coord(b);
        let dx = ca.x.abs_diff(cb.x);
        let dy = ca.y.abs_diff(cb.y);
        dx.div_ceil(hpc_max) + dy.div_ceil(hpc_max)
    }

    /// The next direction on the XY route from `from` towards `to`
    /// (X first, then Y), or `None` if already there.
    pub fn xy_next_dir(self, from: NodeId, to: NodeId) -> Option<Direction> {
        let f = self.coord(from);
        let t = self.coord(to);
        if t.x > f.x {
            Some(Direction::East)
        } else if t.x < f.x {
            Some(Direction::West)
        } else if t.y > f.y {
            Some(Direction::North)
        } else if t.y < f.y {
            Some(Direction::South)
        } else {
            None
        }
    }

    /// The node reached by starting at `from` and moving `steps` hops in
    /// direction `dir`, clamped to the mesh edge.
    pub fn advance(self, from: NodeId, dir: Direction, steps: u16) -> NodeId {
        let c = self.coord(from);
        let c = match dir {
            Direction::East => Coord::new((c.x + steps).min(self.width - 1), c.y),
            Direction::West => Coord::new(c.x.saturating_sub(steps), c.y),
            Direction::North => Coord::new(c.x, (c.y + steps).min(self.height - 1)),
            Direction::South => Coord::new(c.x, c.y.saturating_sub(steps)),
            Direction::Local => c,
        };
        self.node_at(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_coord_roundtrip() {
        let m = Mesh::new(8, 8);
        for n in m.nodes() {
            assert_eq!(m.node_at(m.coord(n)), n);
        }
    }

    #[test]
    fn coord_layout_matches_paper_figure() {
        // In Figure 1/2 of the paper, router "31" of a 4x4 mesh is row 3,
        // column 1.
        let m = Mesh::new(4, 4);
        let n = m.node_at(Coord::new(1, 3));
        assert_eq!(n.index(), 13);
        assert_eq!(m.coord(NodeId(13)), Coord::new(1, 3));
    }

    #[test]
    fn neighbors_at_edges() {
        let m = Mesh::new(4, 4);
        let sw = m.node_at(Coord::new(0, 0));
        assert_eq!(m.neighbor(sw, Direction::West), None);
        assert_eq!(m.neighbor(sw, Direction::South), None);
        assert_eq!(
            m.neighbor(sw, Direction::East),
            Some(m.node_at(Coord::new(1, 0)))
        );
        assert_eq!(
            m.neighbor(sw, Direction::North),
            Some(m.node_at(Coord::new(0, 1)))
        );
        assert_eq!(m.neighbor(sw, Direction::Local), None);
    }

    #[test]
    fn hops_and_smart_hops() {
        let m = Mesh::new(8, 8);
        let a = m.node_at(Coord::new(0, 0));
        let b = m.node_at(Coord::new(7, 7));
        assert_eq!(m.hops(a, b), 14);
        // The paper: corner-to-corner on 8x8 with HPCmax=4 is 4 SMART-hops.
        assert_eq!(m.smart_hops(a, b, 4), 4);
        // X-only traversal of 3 hops is a single SMART-hop.
        let c = m.node_at(Coord::new(3, 0));
        assert_eq!(m.smart_hops(a, c, 4), 1);
        // Same node: zero.
        assert_eq!(m.smart_hops(a, a, 4), 0);
    }

    #[test]
    fn advance_clamps_at_edge() {
        let m = Mesh::new(4, 4);
        let a = m.node_at(Coord::new(2, 2));
        assert_eq!(
            m.advance(a, Direction::East, 5),
            m.node_at(Coord::new(3, 2))
        );
        assert_eq!(
            m.advance(a, Direction::South, 10),
            m.node_at(Coord::new(2, 0))
        );
        assert_eq!(m.advance(a, Direction::Local, 3), a);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coord_out_of_range_panics() {
        Mesh::new(2, 2).coord(NodeId(4));
    }
}
