package repro.core

import repro.h3.HexGrid

/** ALT lower bounds for A* over a motion graph (Goldberg & Harrelson,
  * "Computing the shortest path: A* search meets graph theory", SODA 2005).
  *
  * For each landmark L the tables hold the exact least costs, over the
  * graph's own `cost` array, from L to every node (`from`) and from every
  * node to L (`to`), +∞ where there is no path. They are node-major:
  * landmark l of node v is slot `v * k + l`, so one bound reads two
  * contiguous rows. By the triangle inequality, for a goal t,
  * `d(v, L) - d(t, L)` and `d(L, t) - d(L, v)` are lower bounds on
  * `d(v, t)` and change by at most an edge's cost along that edge.
  *
  * The same tables prove unreachability: if t reaches L but v does not
  * (`d(t, L) < ∞ = d(v, L)`), or L reaches v but not t
  * (`d(L, v) < ∞ = d(L, t)`), then v cannot reach t, and the bound is +∞.
  *
  * Landmarks lie in the largest strongly connected component (the first by
  * component id among equal sizes), where every node reaches and is
  * reached by each of them. They are picked by farthest-point selection
  * on hex distance: the first is the member farthest from the member of
  * least index, each next one the member whose least distance to the
  * landmarks already picked is greatest; ties go to the least index.
  */
private[core] final class Landmarks private (val nodes: Array[Int],
                                             val from: Array[Double],
                                             val to: Array[Double]) {
  val k: Int = nodes.length
}

private[core] object Landmarks {

  /** Landmarks per graph (fewer only when the largest component is smaller). */
  val K = 8

  /** Subtracted from every finite landmark bound, so that the rounding of
    * the table sums cannot lift a bound above the least cost (DESIGN.md
    * item 9).
    */
  val Slack = 1e-9

  def apply(g: MotionGraph): Landmarks = {
    val comp = g.component
    val size = new Array[Int](if (comp.isEmpty) 0 else comp.max + 1)
    comp.foreach(c => size(c) += 1)
    val giant = size.indices.maxByOption(c => (size(c), -c)).getOrElse(-1)
    val members = comp.indices.filter(comp(_) == giant).toArray
    val nodes = farthestPoints(g.q, g.r, members, math.min(K, members.length))
    val k = nodes.length
    val n = g.nodeCount
    val (roff, rtgt, rcost) = reverse(g.off, g.tgt, g.cost)
    val from = new Array[Double](n * k); val to = new Array[Double](n * k)
    for (l <- 0 until k) {
      val dFrom = Search.distances(g.off, g.tgt, g.cost, nodes(l))
      val dTo = Search.distances(roff, rtgt, rcost, nodes(l))
      for (v <- 0 until n) { from(v * k + l) = dFrom(v); to(v * k + l) = dTo(v) }
    }
    new Landmarks(nodes, from, to)
  }

  private def farthestPoints(q: Array[Int], r: Array[Int], members: Array[Int], k: Int): Array[Int] = {
    def dist(a: Int, b: Int): Int = HexGrid.axialDistance(q(a) - q(b), r(a) - r(b))
    // Least index among the members at the greatest `key`.
    def farthest(key: Int => Int): Int = members.maxBy(v => (key(v), -v))
    val picked = new Array[Int](k)
    val least = Array.fill(q.length)(Int.MaxValue)  // hex distance to the nearest landmark
    for (l <- 0 until k) {
      picked(l) = if (l == 0) farthest(dist(_, members(0))) else farthest(least(_))
      for (v <- members) least(v) = math.min(least(v), dist(v, picked(l)))
    }
    picked
  }

  /** The CSR graph with every edge reversed. */
  private def reverse(off: Array[Int], tgt: Array[Int], cost: Array[Double]): (Array[Int], Array[Int], Array[Double]) = {
    val n = off.length - 1
    val roff = new Array[Int](n + 1)
    tgt.foreach(v => roff(v + 1) += 1)
    for (v <- 0 until n) roff(v + 1) += roff(v)
    val fill = java.util.Arrays.copyOf(roff, n)
    val rtgt = new Array[Int](tgt.length); val rcost = new Array[Double](tgt.length)
    for (u <- 0 until n; e <- off(u) until off(u + 1)) {
      val v = tgt(e)
      rtgt(fill(v)) = u; rcost(fill(v)) = cost(e)
      fill(v) += 1
    }
    (roff, rtgt, rcost)
  }
}
