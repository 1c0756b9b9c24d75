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
  * Each thread keeps its own scratch arrays (distances, predecessors, the
  * closed set and the heap). They are reused across queries: an entry is
  * valid only when its stamp equals the query's generation, so nothing is
  * cleared between queries.
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

  /** Least-cost path from `start` to `goal` over a CSR graph with `n =
    * off.length - 1` nodes, guided by the admissible heuristic `h`;
    * the node sequence including both ends, or None if `goal` is
    * unreachable.
    */
  def aStar(off: Array[Int], tgt: Array[Int], cost: Array[Double],
            h: Int => Double, start: Int, goal: Int): Option[Array[Int]] = {
    if (start == goal) return Some(Array(start))
    val s = scratch.get()
    s.begin(off.length - 1)
    val gen = s.gen; val seen = s.seen; val closed = s.closed
    val dist = s.dist; val prev = s.prev
    seen(start) = gen; dist(start) = 0.0
    s.push(start, h(start))
    while (s.size > 0) {
      val u = s.pop()
      if (u == goal) return Some(path(prev, start, goal))
      if (closed(u) != gen) {
        closed(u) = gen
        val du = dist(u)
        var k = off(u); val end = off(u + 1)
        while (k < end) {
          val v = tgt(k)
          if (closed(v) != gen) {
            val cand = du + cost(k)
            if (cand < (if (seen(v) == gen) dist(v) else Double.PositiveInfinity)) {
              seen(v) = gen; dist(v) = cand; prev(v) = u
              s.push(v, cand + h(v))
            }
          }
          k += 1
        }
      }
    }
    None
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
