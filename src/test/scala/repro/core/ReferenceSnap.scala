package repro.core

import repro.h3.HexGrid

/** The nearest-node snap by exhaustion: the node index of least
  * (hex distance, index) over every node, -1 on an empty graph.
  */
object ReferenceSnap {
  def nearestIndex(g: MotionGraph, cell: Long): Int =
    if (g.nodeCount == 0) -1
    else g.ids.indices.minBy(i => (HexGrid.gridDistance(cell, g.ids(i)), i))
}
