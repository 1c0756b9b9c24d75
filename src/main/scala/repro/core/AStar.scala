package repro.core

import repro.h3.HexGrid

/** A* search over the motion graph (paper §3.3): finds the path between
  * two cells minimizing the number of cell transitions, with transition
  * frequency as a tie-break so that among equally short paths the most
  * travelled one wins ("reveals the most frequent path").
  *
  * Edge cost = hex distance of the transition (>= 1) plus an epsilon
  * penalty shrinking with the transition count. The heuristic toward a
  * goal is the larger of two lower bounds on the least cost, both
  * consistent, so the path found is a least-cost one:
  *  - the hex grid distance, which never exceeds the summed hex distances
  *    along any path (triangle inequality), since the graph derives each
  *    edge's distance with the same formula;
  *  - the [[Landmarks]] (ALT) bound, less a fixed slack for rounding,
  *    which also sees the lanes and the epsilon penalties.
  * It is +∞ exactly when the landmark tables prove that a node cannot
  * reach the goal: such nodes are never pushed, and a start proven so is
  * answered None without a search. The search itself is [[Search.aStar]]
  * over the graph's CSR arrays.
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
  private[core] def search(g: MotionGraph, start: Int, goal: Int): Option[Array[Int]] =
    Search.aStar(g.off, g.tgt, g.cost, heuristic(g, goal), start, goal)

  /** The heuristic of the search toward the node `goal`, over cells: a
    * lower bound on the least cost from a node to `goal`, +∞ only if the
    * node cannot reach it.
    */
  def lowerBound(g: MotionGraph, goal: Long): Long => Double = {
    val t = g.indexOf(goal)
    require(t >= 0, s"goal $goal is not a node")
    val h = heuristic(g, t)
    cell => {
      val v = g.indexOf(cell)
      require(v >= 0, s"$cell is not a node")
      h(v)
    }
  }

  /** The heuristic toward `goal`, over node indices. Builds the landmark
    * tables on first use, before any search starts on this thread.
    */
  private[core] def heuristic(g: MotionGraph, goal: Int): Int => Double = {
    val lm = g.landmarks
    val (q, r, k, from, to) = (g.q, g.r, lm.k, lm.from, lm.to)
    val (gq, gr) = (q(goal), r(goal))
    val goalFrom = java.util.Arrays.copyOfRange(from, goal * k, goal * k + k)  // d(L, goal)
    val goalTo = java.util.Arrays.copyOfRange(to, goal * k, goal * k + k)      // d(goal, L)
    v => {
      // Each term is a difference of two table entries: +∞ when only the
      // first is infinite, which proves that v cannot reach the goal; -∞
      // or NaN, which never raise `alt`, when the second is.
      var alt = 0.0
      var l = 0; val row = v * k
      while (l < k) {
        val toL = to(row + l) - goalTo(l)        // d(v, L) - d(goal, L)
        if (toL > alt) alt = toL
        val fromL = goalFrom(l) - from(row + l)  // d(L, goal) - d(L, v)
        if (fromL > alt) alt = fromL
        l += 1
      }
      val hex = HexGrid.axialDistance(q(v) - gq, r(v) - gr).toDouble
      if (alt - Landmarks.Slack > hex) alt - Landmarks.Slack else hex
    }
  }

  /** Hex-distance edge cost with a frequency tie-break epsilon. */
  def edgeCost(e: GraphEdge): Double = edgeCost(e.transitions, e.dist)

  def edgeCost(transitions: Long, dist: Int): Double =
    math.max(1, dist).toDouble + 0.001 / (1.0 + transitions.toDouble)
}
