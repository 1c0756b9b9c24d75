package repro.core

import repro.h3.HexGrid

/** A* search over the motion graph (paper §3.3): finds the path between
  * two cells minimizing the number of cell transitions, with transition
  * frequency as a tie-break so that among equally short paths the most
  * travelled one wins ("reveals the most frequent path").
  *
  * Edge cost = hex distance of the transition (>= 1) plus an epsilon
  * penalty shrinking with the transition count; the heuristic is the hex
  * grid distance to the goal, which never exceeds the summed hex
  * distances along any path (triangle inequality) — admissible, since the
  * graph derives each edge's distance with the same formula. The search
  * itself is [[Search.aStar]] over the graph's CSR arrays.
  */
object AStar {

  /** Shortest cell path from `start` to `goal`, inclusive of both; None if
    * either is not a node or the goal is unreachable in the graph.
    */
  def shortestPath(g: MotionGraph, start: Long, goal: Long): Option[IndexedSeq[Long]] = {
    if (start == goal) return Some(IndexedSeq(start))
    val s = g.indexOf(start); val t = g.indexOf(goal)
    if (s < 0 || t < 0) None
    else search(g, s, t).map(_.map(g.ids(_)).toIndexedSeq)
  }

  /** The same search on node indices of `g`. */
  private[core] def search(g: MotionGraph, start: Int, goal: Int): Option[Array[Int]] = {
    val (q, r) = (g.q, g.r)
    val (gq, gr) = (q(goal), r(goal))
    val h = (i: Int) => HexGrid.axialDistance(q(i) - gq, r(i) - gr).toDouble
    Search.aStar(g.off, g.tgt, g.cost, h, start, goal)
  }

  /** Hex-distance edge cost with a frequency tie-break epsilon. */
  def edgeCost(e: GraphEdge): Double = edgeCost(e.transitions, e.dist)

  def edgeCost(transitions: Long, dist: Int): Double =
    math.max(1, dist).toDouble + 0.001 / (1.0 + transitions.toDouble)
}
