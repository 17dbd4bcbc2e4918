//! Virtual Meshes with SMART (VMS) and XY-tree multicast routing.
//!
//! LOCO creates, for every home-node offset (`HNid`), a *virtual mesh*
//! connecting the corresponding home node of every cluster. Global data
//! searches and invalidations are broadcast over this virtual mesh using an
//! XY-tree: the request travels east and west along the root's row of home
//! nodes; every home node reached horizontally forks north and south along
//! its column of home nodes; every home node on the tree also ejects a copy
//! (Section 3.2, Figure 3 of the paper).
//!
//! [`VirtualMesh`] computes home-node membership from a cluster geometry;
//! [`MulticastTree`] provides the generic fork/continue decisions used by the
//! network for any registered multicast group whose members form a grid.

use crate::topology::{Coord, Direction, Mesh, NodeId};
use std::cmp::Ordering;

/// The set of home nodes (one per cluster) that share a given home-node
/// offset, i.e. one virtual mesh of the LOCO design.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct VirtualMesh {
    mesh: Mesh,
    cluster_w: u16,
    cluster_h: u16,
    offset: Coord,
    members: Vec<NodeId>,
}

impl VirtualMesh {
    /// Builds the virtual mesh for the home-node `offset` (coordinates within
    /// a cluster) of a chip partitioned into `cluster_w x cluster_h`
    /// clusters.
    ///
    /// # Panics
    ///
    /// Panics if the cluster does not evenly tile the mesh or the offset lies
    /// outside the cluster.
    pub fn new(mesh: Mesh, cluster_w: u16, cluster_h: u16, offset: Coord) -> Self {
        assert!(
            cluster_w > 0
                && cluster_h > 0
                && mesh.width() % cluster_w == 0
                && mesh.height() % cluster_h == 0,
            "clusters of {cluster_w}x{cluster_h} must evenly tile the {}x{} mesh",
            mesh.width(),
            mesh.height()
        );
        assert!(
            offset.x < cluster_w && offset.y < cluster_h,
            "home-node offset {offset} outside {cluster_w}x{cluster_h} cluster"
        );
        let mut members = Vec::new();
        let mut cy = 0;
        while cy < mesh.height() {
            let mut cx = 0;
            while cx < mesh.width() {
                members.push(mesh.node_at(Coord::new(cx + offset.x, cy + offset.y)));
                cx += cluster_w;
            }
            cy += cluster_h;
        }
        VirtualMesh {
            mesh,
            cluster_w,
            cluster_h,
            offset,
            members,
        }
    }

    /// The home nodes forming this virtual mesh, in row-major order.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Number of clusters (= number of members).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the virtual mesh has no members (never true for a valid
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The home node of this virtual mesh inside the cluster containing
    /// `node`.
    pub fn home_for(&self, node: NodeId) -> NodeId {
        let c = self.mesh.coord(node);
        let base_x = (c.x / self.cluster_w) * self.cluster_w;
        let base_y = (c.y / self.cluster_h) * self.cluster_h;
        self.mesh
            .node_at(Coord::new(base_x + self.offset.x, base_y + self.offset.y))
    }

    /// Worst-case number of SMART-hops of a broadcast over this virtual mesh
    /// (the longest root-to-leaf path in the XY tree), assuming each
    /// home-to-home segment fits in one SMART-hop.
    pub fn broadcast_depth(&self, root: NodeId) -> u16 {
        let rc = self.mesh.coord(root);
        let cols = self.mesh.width() / self.cluster_w;
        let rows = self.mesh.height() / self.cluster_h;
        let root_col = rc.x / self.cluster_w;
        let root_row = rc.y / self.cluster_h;
        let horiz = root_col.max(cols - 1 - root_col);
        let vert = root_row.max(rows - 1 - root_row);
        horiz + vert
    }
}

/// Generic XY-tree multicast routing over an arbitrary grid-aligned set of
/// nodes. This is what the network consults to decide where a broadcast flit
/// forks at each member router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MulticastTree {
    members: Vec<NodeId>,
    /// Indexed by node, `Some` for members only: the nearest member strictly
    /// east / west in the same row, and strictly north / south in the same
    /// column.
    next: Vec<Option<[Option<NodeId>; 4]>>,
}

impl MulticastTree {
    /// Builds the tree-routing tables for `members` of `mesh`.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(mesh: Mesh, members: Vec<NodeId>) -> Self {
        assert!(!members.is_empty(), "multicast group must not be empty");
        let mut next = vec![None; mesh.len()];
        for &m in &members {
            let mc = mesh.coord(m);
            let mut slots: [Option<NodeId>; 4] = [None; 4];
            let mut nearest = [u16::MAX; 4];
            for &o in &members {
                let oc = mesh.coord(o);
                let (dir, dist) = match (oc.x.cmp(&mc.x), oc.y.cmp(&mc.y)) {
                    (Ordering::Greater, Ordering::Equal) => (Direction::East, oc.x - mc.x),
                    (Ordering::Less, Ordering::Equal) => (Direction::West, mc.x - oc.x),
                    (Ordering::Equal, Ordering::Greater) => (Direction::North, oc.y - mc.y),
                    (Ordering::Equal, Ordering::Less) => (Direction::South, mc.y - oc.y),
                    _ => continue,
                };
                if dist < nearest[dir.index()] {
                    nearest[dir.index()] = dist;
                    slots[dir.index()] = Some(o);
                }
            }
            next[m.index()] = Some(slots);
        }
        MulticastTree { members, next }
    }

    /// Group members.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Whether `node` is a member of the group.
    pub fn contains(&self, node: NodeId) -> bool {
        matches!(self.next.get(node.index()), Some(Some(_)))
    }

    /// The next members to forward to from `at`, given the direction the
    /// flit was travelling when it arrived (`None` at the broadcast root).
    ///
    /// Horizontal travellers continue horizontally and fork north/south;
    /// vertical travellers only continue vertically; the root fans out in all
    /// four directions. Every member also delivers a local copy (handled by
    /// the caller).
    pub fn children(
        &self,
        at: NodeId,
        travelling: Option<Direction>,
    ) -> impl Iterator<Item = (Direction, NodeId)> {
        let slots = self.next.get(at.index()).copied().flatten().unwrap_or_default();
        let dirs: &'static [Direction] = match travelling {
            None => &[
                Direction::East,
                Direction::West,
                Direction::North,
                Direction::South,
            ],
            Some(Direction::East) => &[Direction::East, Direction::North, Direction::South],
            Some(Direction::West) => &[Direction::West, Direction::North, Direction::South],
            Some(Direction::North) => &[Direction::North],
            Some(Direction::South) => &[Direction::South],
            Some(Direction::Local) => &[],
        };
        dirs.iter()
            .filter_map(move |&d| slots[d.index()].map(|n| (d, n)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn vms_members_of_8x8_with_4x4_clusters() {
        // Figure 1: a 64-core chip with 4x4 clusters has 4 clusters, so each
        // VMS has 4 home nodes.
        let mesh = Mesh::new(8, 8);
        let vms = VirtualMesh::new(mesh, 4, 4, Coord::new(1, 1));
        assert_eq!(vms.len(), 4);
        let expect: HashSet<NodeId> = [
            mesh.node_at(Coord::new(1, 1)),
            mesh.node_at(Coord::new(5, 1)),
            mesh.node_at(Coord::new(1, 5)),
            mesh.node_at(Coord::new(5, 5)),
        ]
        .into_iter()
        .collect();
        assert_eq!(vms.members().iter().copied().collect::<HashSet<_>>(), expect);
    }

    #[test]
    fn vms_4x1_clusters_give_16_members() {
        let mesh = Mesh::new(8, 8);
        let vms = VirtualMesh::new(mesh, 4, 1, Coord::new(2, 0));
        assert_eq!(vms.len(), 16);
    }

    #[test]
    fn home_for_maps_any_node_to_its_cluster_home() {
        let mesh = Mesh::new(8, 8);
        let vms = VirtualMesh::new(mesh, 4, 4, Coord::new(3, 3));
        // A node in the north-east cluster maps to that cluster's home.
        let n = mesh.node_at(Coord::new(6, 7));
        assert_eq!(vms.home_for(n), mesh.node_at(Coord::new(7, 7)));
        // A node in the south-west cluster.
        let n = mesh.node_at(Coord::new(0, 2));
        assert_eq!(vms.home_for(n), mesh.node_at(Coord::new(3, 3)));
    }

    #[test]
    #[should_panic(expected = "evenly tile")]
    fn vms_rejects_non_tiling_cluster() {
        VirtualMesh::new(Mesh::new(8, 8), 3, 4, Coord::new(0, 0));
    }

    #[test]
    fn broadcast_tree_covers_all_members_exactly_once() {
        let mesh = Mesh::new(8, 8);
        let vms = VirtualMesh::new(mesh, 4, 4, Coord::new(1, 1));
        let tree = MulticastTree::new(mesh, vms.members().to_vec());
        // Walk the tree from each possible root and check coverage.
        for &root in vms.members() {
            let mut visited = HashSet::new();
            let mut frontier = vec![(root, None)];
            while let Some((node, travelling)) = frontier.pop() {
                assert!(visited.insert(node), "node {node} visited twice");
                for (dir, child) in tree.children(node, travelling) {
                    frontier.push((child, Some(dir)));
                }
            }
            assert_eq!(visited.len(), vms.len(), "root {root}");
        }
    }

    #[test]
    fn broadcast_tree_covers_16_member_vms() {
        let mesh = Mesh::new(16, 16);
        let vms = VirtualMesh::new(mesh, 4, 4, Coord::new(2, 1));
        let tree = MulticastTree::new(mesh, vms.members().to_vec());
        let root = vms.members()[5];
        let mut visited = HashSet::new();
        let mut frontier = vec![(root, None)];
        while let Some((node, travelling)) = frontier.pop() {
            assert!(visited.insert(node));
            for (dir, child) in tree.children(node, travelling) {
                frontier.push((child, Some(dir)));
            }
        }
        assert_eq!(visited.len(), 16);
    }

    #[test]
    fn vertical_travellers_do_not_fork_horizontally() {
        let mesh = Mesh::new(8, 8);
        let vms = VirtualMesh::new(mesh, 4, 4, Coord::new(0, 0));
        let tree = MulticastTree::new(mesh, vms.members().to_vec());
        let lower_left = mesh.node_at(Coord::new(0, 0));
        let children = tree.children(lower_left, Some(Direction::South));
        assert_eq!(children.count(), 0);
        let upper_left = mesh.node_at(Coord::new(0, 4));
        let children = tree.children(upper_left, Some(Direction::North));
        assert_eq!(children.count(), 0);
    }

    #[test]
    fn broadcast_depth_matches_figure3() {
        // Figure 3: a corner-rooted broadcast over a 4-cluster VMS finishes
        // in 2 tree levels (the paper counts 4 SMART-hops because each level
        // has X and Y components; our depth counts levels per dimension).
        let mesh = Mesh::new(8, 8);
        let vms = VirtualMesh::new(mesh, 4, 4, Coord::new(1, 1));
        let corner_home = mesh.node_at(Coord::new(1, 1));
        assert_eq!(vms.broadcast_depth(corner_home), 2);
        let mesh16 = Mesh::new(16, 16);
        let vms16 = VirtualMesh::new(mesh16, 4, 4, Coord::new(1, 1));
        let corner_home = mesh16.node_at(Coord::new(1, 1));
        assert_eq!(vms16.broadcast_depth(corner_home), 6);
    }
}
