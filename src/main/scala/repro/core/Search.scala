package repro.core

/** The one A* kernel, shared by HABIT's motion graph and GTI's point
  * graph. A graph is given in CSR form: the out-edges of node `u` are the
  * slots `off(u) until off(u + 1)` of `tgt` (target node) and `cost`.
  *
  * Ties between equal f values pop in the order of a
  * `scala.collection.mutable.PriorityQueue`: the heap below repeats its
  * sift-up and sift-down comparisons, so the path chosen among equal-cost
  * paths is the same as a search over that queue.
  *
  * A node whose heuristic is +∞ is never pushed: the caller's heuristic
  * returns +∞ only for nodes proven unable to reach the goal, so a start
  * with an infinite heuristic is answered None without a search.
  *
  * Each thread keeps its own scratch arrays (distances, predecessors, the
  * closed set and the heap). They are reused across queries: an entry is
  * valid only when its stamp equals the query's generation, so nothing is
  * cleared between queries. A heuristic must not itself start a search on
  * the calling thread while a search runs, since both would share them.
  */
object Search {

  private final class Scratch {
    var gen: Int = 0
    var seen: Array[Int] = new Array[Int](0)    // dist/prev valid when == gen
    var closed: Array[Int] = new Array[Int](0)  // expanded when == gen
    var dist: Array[Double] = new Array[Double](0)
    var prev: Array[Int] = new Array[Int](0)
    // 1-indexed binary min-heap on f; slot 0 unused.
    var heapNode: Array[Int] = new Array[Int](64)
    var heapF: Array[Double] = new Array[Double](64)
    var size: Int = 0
    var expanded: Int = 0

    def begin(n: Int): Unit = {
      if (seen.length < n) {
        val cap = math.max(n, seen.length * 2)
        seen = new Array[Int](cap); closed = new Array[Int](cap)
        dist = new Array[Double](cap); prev = new Array[Int](cap)
        gen = 0
      }
      if (gen == Int.MaxValue) {
        java.util.Arrays.fill(seen, 0); java.util.Arrays.fill(closed, 0)
        gen = 0
      }
      gen += 1
      size = 0
    }

    def push(u: Int, f: Double): Unit = {
      size += 1
      if (size == heapNode.length) {
        heapNode = java.util.Arrays.copyOf(heapNode, size * 2)
        heapF = java.util.Arrays.copyOf(heapF, size * 2)
      }
      var k = size
      // Sift up while the child's f is strictly below its parent's.
      while (k > 1 && f < heapF(k / 2)) {
        heapNode(k) = heapNode(k / 2); heapF(k) = heapF(k / 2)
        k /= 2
      }
      heapNode(k) = u; heapF(k) = f
    }

    def pop(): Int = {
      val top = heapNode(1)
      val u = heapNode(size); val f = heapF(size)
      size -= 1
      var k = 1
      var sifting = true
      while (sifting && size >= 2 * k) {
        var j = 2 * k
        // The right child only when its f is strictly below the left's.
        if (j < size && heapF(j + 1) < heapF(j)) j += 1
        // Stop once the child's f is >= the moving entry's.
        if (heapF(j) < f) {
          heapNode(k) = heapNode(j); heapF(k) = heapF(j)
          k = j
        } else sifting = false
      }
      if (size >= 1) { heapNode(k) = u; heapF(k) = f }
      top
    }
  }

  private val scratch = ThreadLocal.withInitial[Scratch](() => new Scratch)

  /** Nodes expanded (taken off the heap and relaxed) by the last search on
    * the calling thread: a work counter that reads no clock.
    */
  def lastExpanded: Int = scratch.get().expanded

  /** Least-cost path from `start` to `goal` over a CSR graph with `n =
    * off.length - 1` nodes, guided by the consistent heuristic `h`
    * (+∞ only for nodes that cannot reach `goal`); the node sequence
    * including both ends, or None if `goal` is unreachable.
    */
  def aStar(off: Array[Int], tgt: Array[Int], cost: Array[Double],
            h: Int => Double, start: Int, goal: Int): Option[Array[Int]] = {
    val s = scratch.get()
    s.expanded = 0
    if (start == goal) return Some(Array(start))
    val h0 = h(start)
    if (h0 == Double.PositiveInfinity) return None
    if (run(s, off, tgt, cost, h, start, h0, goal)) Some(path(s.prev, start, goal)) else None
  }

  /** Least cost from `source` to every node of a CSR graph, +∞ where
    * unreachable: the same search with a zero heuristic and no goal.
    */
  def distances(off: Array[Int], tgt: Array[Int], cost: Array[Double], source: Int): Array[Double] = {
    val s = scratch.get()
    run(s, off, tgt, cost, null, source, 0.0, -1)
    val d = Array.fill(off.length - 1)(Double.PositiveInfinity)
    for (v <- d.indices if s.seen(v) == s.gen) d(v) = s.dist(v)
    d
  }

  /** The search from `start` (heuristic `h0`) until `goal` pops, true, or
    * the heap runs empty, false; a null `h` reads as zero. Distances and
    * predecessors are left in the scratch arrays.
    *
    * The null, rather than a zero function, keeps the call `h(v)` seeing
    * only the searches' heuristics (A*'s and GTI's), so the JIT can still
    * inline both.
    */
  private def run(s: Scratch, off: Array[Int], tgt: Array[Int], cost: Array[Double],
                  h: Int => Double, start: Int, h0: Double, goal: Int): Boolean = {
    s.begin(off.length - 1)
    val gen = s.gen; val seen = s.seen; val closed = s.closed
    val dist = s.dist; val prev = s.prev
    seen(start) = gen; dist(start) = 0.0
    s.push(start, h0)
    while (s.size > 0) {
      val u = s.pop()
      if (u == goal) return true
      if (closed(u) != gen) {
        closed(u) = gen
        s.expanded += 1
        val du = dist(u)
        var k = off(u); val end = off(u + 1)
        while (k < end) {
          val v = tgt(k)
          if (closed(v) != gen) {
            val cand = du + cost(k)
            if (cand < (if (seen(v) == gen) dist(v) else Double.PositiveInfinity)) {
              val hv = if (h eq null) 0.0 else h(v)
              if (hv != Double.PositiveInfinity) {
                seen(v) = gen; dist(v) = cand; prev(v) = u
                s.push(v, cand + hv)
              }
            }
          }
          k += 1
        }
      }
    }
    false
  }

  private def path(prev: Array[Int], start: Int, goal: Int): Array[Int] = {
    var n = 1; var v = goal
    while (v != start) { v = prev(v); n += 1 }
    val out = new Array[Int](n)
    v = goal
    var i = n - 1
    while (i >= 0) { out(i) = v; if (i > 0) v = prev(v); i -= 1 }
    out
  }
}
