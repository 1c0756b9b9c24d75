package repro.eval

import repro.geo.{Geo, LatLng}

/** Dynamic Time Warping accuracy metric (paper §4.1): both the imputed and
  * the original path are densified so consecutive positions are at most
  * 250 m apart, then aligned with classic DTW under the haversine ground
  * distance. We report the *normalized* DTW — alignment cost divided by
  * warping-path length — so the score is an average displacement in
  * meters, matching the magnitude of the paper's plots.
  */
object DTW {
  val DensifyM = 250.0

  /** Raw DTW alignment cost (sum of matched-pair distances, meters). */
  def cost(a: IndexedSeq[LatLng], b: IndexedSeq[LatLng]): Double = align(a, b)._1

  /** Normalized DTW in meters: cost / warping-path length. */
  def normalized(a: IndexedSeq[LatLng], b: IndexedSeq[LatLng]): Double = {
    val (c, steps) = align(a, b)
    if (steps == 0) 0.0 else c / steps
  }

  /** Densify both paths to 250 m then compute normalized DTW. */
  def pathErrorM(imputed: Seq[LatLng], original: Seq[LatLng]): Double =
    normalized(Geo.densify(imputed, DensifyM), Geo.densify(original, DensifyM))

  /** A path as primitive arrays: degrees and each point's cos(lat). */
  private[eval] final class Points(path: IndexedSeq[LatLng], name: String) {
    val n: Int = path.size
    val lat = new Array[Double](n); val lon = new Array[Double](n); val cos = new Array[Double](n)
    for (k <- 0 until n) {
      val p = path(k)
      require(math.abs(p.lat) <= 90.0 && p.lon.isFinite,
        s"DTW over a non-finite or out-of-range point: $name($k) = $p")
      lat(k) = p.lat; lon(k) = p.lon; cos(k) = math.cos(Geo.toRad(p.lat))
    }
  }

  /** Per-thread state: the work counters of the last alignment and the
    * planar pass's direction buffer, which grows as needed and is reused.
    */
  private final class Scratch {
    var cells = 0L
    var planarCells = 0L
    var dirs = new Array[Byte](1 << 12)
  }
  private val scratch = ThreadLocal.withInitial[Scratch](() => new Scratch)

  /** Accumulated-cost cells computed by the exact pass of the last
    * alignment on the calling thread (by [[cost]], [[normalized]] or
    * [[pathErrorM]]): a work counter that reads no clock.
    */
  def lastCells: Long = scratch.get().cells

  /** Cells computed by the planar pass of the same alignment, the pass
    * that finds the upper bound's warping path; read like [[lastCells]].
    */
  def lastPlanarCells: Long = scratch.get().planarCells

  /** (cost, warping-path length) of the optimal alignment: PrunedDTW (Silva
    * & Batista, SDM 2016) with cumulative lower bounds as in EAPrunedDTW
    * (Herrmann & Webb, DMKD 2021), exact.
    *
    * Cell (i, j) of the accumulated-cost matrix is d(i, j) + the least of
    * its diagonal, upper and left predecessors; among equal predecessors
    * the diagonal wins, then the cell above, then the one to the left.
    * Rows are kept two at a time. First [[suffixBounds]] gives LB(i, j), a
    * lower bound on the cost any warping path still has to pay after cell
    * (i, j), and [[boundingPath]] a warping path whose cost UB is summed
    * with the recurrence's own `d + acc`. A cell is *live* when
    * `acc + LB(i, j) <= cut`, where cut is UB plus a rounding margin. Row i
    * is computed only over a column window: from the previous row's first
    * live cell, up to the previous row's last live cell plus one, and on
    * while the left neighbour is live. Cells outside the window read as +∞:
    * the cell left of a window and whatever an older row left beyond its
    * right end are reset in the rolling arrays.
    *
    * Why the scores equal the full matrix's bit for bit (DESIGN.md item 13).
    * Distances are ≥ 0 and never NaN (coordinates are finite and
    * |lat| ≤ 90), and IEEE addition is monotone, so an accumulated cost is
    * ≥ that of the predecessor it extends.
    *  - UB ≥ the full matrix's final cell OPT: along the bounding path each
    *    cell's matrix value is at most the path's running sum, since
    *    `d + min(...)` ≤ `d + acc` term by term. This holds for any warping
    *    path, however it was found.
    *  - A skipped cell reads +∞ and a computed one takes the minimum of
    *    values that are each ≥ their full-matrix values, so every value
    *    here is ≥ its full-matrix value.
    *  - Take the full matrix's traceback path from its final cell. After a
    *    cell (i, j) of it, the path still visits every later row and every
    *    later column, so it pays at least LB(i, j): the matrix value of
    *    (i, j) plus LB(i, j) is at most OPT ≤ UB, up to the rounding that
    *    the margins cover. So every cell of that path is live once it is
    *    computed exactly. By induction along the path each one is: its
    *    chosen predecessor is on the path, live and exact, so the cell lies
    *    in its row's window. Every other predecessor reads ≥ its
    *    full-matrix value, and equals the chosen one's value only if its
    *    full-matrix value does, so the tie order picks the same
    *    predecessor: the same cost and the same length.
    *  - The final cell is on that path. Each row holds a cell of it; a row
    *    with no live cell is an internal error.
    */
  private def align(a: IndexedSeq[LatLng], b: IndexedSeq[LatLng]): (Double, Int) = {
    require(a.nonEmpty && b.nonEmpty, "DTW over empty path")
    val pa = new Points(a, "a"); val pb = new Points(b, "b")
    val n = pa.n; val m = pb.n
    val s = scratch.get()
    val margin = marginOf(n, m)
    val (rowDeg, colDeg) = suffixBounds(pa, pb)
    val pi = new Array[Int](n + m - 1); val pj = new Array[Int](n + m - 1)
    val ub = pathCost(pa, pb, pi, pj, boundingPath(pa, pb, rowDeg, colDeg, margin, pi, pj, s))
    val cut = ub * (1 + margin) + Underflow
    // The suffix bounds in metres: R·π/180·(1 - Eps)·(1 - margin) per degree.
    val scale = Geo.EarthRadiusM * math.Pi / 180.0 * (1 - Eps) * (1 - margin)
    val rowLb = new Array[Double](n + 1); val colLb = new Array[Double](m + 1)
    var k = 0; while (k <= n) { rowLb(k) = rowDeg(k) * scale; k += 1 }
    k = 0;     while (k <= m) { colLb(k) = colDeg(k) * scale; k += 1 }
    val Inf = Double.PositiveInfinity
    // Row i - 1 (prev) and row i (cur); column 0 is the infinite border.
    // Hi is the last column each array was written to.
    var prevC = Array.fill(m + 1)(Inf); var curC = Array.fill(m + 1)(Inf)
    var prevL = new Array[Int](m + 1);  var curL = new Array[Int](m + 1)
    var prevHi = 0;                     var curHi = 0
    prevC(0) = 0.0
    // First and last live column of the previous row.
    var first = 0; var last = 0
    var cells = 0L
    var i = 1
    while (i <= n) {
      val lat = pa.lat(i - 1); val lon = pa.lon(i - 1); val cos = pa.cos(i - 1)
      val lbI = rowLb(i)
      var j = math.max(first, 1)
      curC(j - 1) = Inf
      val j0 = j; val pLast = last
      first = -1
      var leftLive = false
      while (j <= m && (j <= pLast + 1 || leftLive)) {
        val d = Geo.haversineM(lat, lon, cos, pb.lat(j - 1), pb.lon(j - 1), pb.cos(j - 1))
        val c1 = prevC(j); val c2 = curC(j - 1); val c3 = prevC(j - 1)
        if (c3 <= c1 && c3 <= c2) { curC(j) = d + c3; curL(j) = prevL(j - 1) + 1 }
        else if (c1 <= c2)        { curC(j) = d + c1; curL(j) = prevL(j) + 1 }
        else                      { curC(j) = d + c2; curL(j) = curL(j - 1) + 1 }
        leftLive = curC(j) + math.max(lbI, colLb(j)) <= cut
        if (leftLive) { if (first < 0) first = j; last = j }
        j += 1
      }
      if (first < 0) throw new IllegalStateException(s"DTW: row $i has no live cell under the upper bound $ub")
      cells += j - j0
      // Clear what row i - 2 left beyond this row's window.
      var k = j
      while (k <= curHi) { curC(k) = Inf; k += 1 }
      curHi = j - 1
      val tc = prevC; prevC = curC; curC = tc
      val tl = prevL; prevL = curL; curL = tl
      val th = prevHi; prevHi = curHi; curHi = th
      i += 1
    }
    s.cells = cells
    (prevC(m), prevL(m))
  }

  /** Relative rounding margin of every sum and product the pruning rules
    * compare, for paths of n and m points.
    */
  private def marginOf(n: Int, m: Int): Double = (n + m + 64) * 1e-15

  /** Absolute margin of the pruning cuts (metres in the exact pass, degrees
    * in the planar one): it covers the haversine's underflow for points
    * less than about 1e-150 rad apart, where the relative margin does not
    * hold.
    */
  private val Underflow = 1e-100

  /** The widest latitude or longitude range (degrees) over both paths for
    * which the lower bound is used; wider pairs fall back to the upper
    * bound alone. Within it every |Δφ/2| and |Δλ/2| is at most X =
    * toRad(MaxSpanDeg) / 2, so sin(x) ≥ x·(1 - x²/6) ≥ x·(1 - Eps).
    */
  private val MaxSpanDeg = 5.0
  private val Eps = { val x = Geo.toRad(MaxSpanDeg) / 2; x * x / 6 }

  /** Suffix lower bounds in degrees, indexed like the rows (0 to n) and the
    * columns (0 to m): rowDeg(i) is at most the planar cost (degrees) of any
    * warping path over rows i + 1 to n, and colDeg(j) over columns j + 1 to
    * m. Both are 0 when the paths span more than [[MaxSpanDeg]]. The planar
    * pass prunes with them as they are; the exact pass scales them to
    * metres.
    *
    * The pair bound. With Δφ, Δλ the radian differences the haversine
    * itself computes, and c the least cos(lat) over both paths,
    * haversine = 2R·asin(√s) ≥ 2R·√s (asin(y) ≥ y), and
    * s = sin²(Δφ/2) + cos φ1·cos φ2·sin²(Δλ/2) ≥ (1 - Eps)²·(Δφ² + c²·Δλ²)/4,
    * so d ≥ R·(1 - Eps)·√(Δφ² + c²·Δλ²). In degrees √(Δφ² + c²·Δλ²) is also
    * at most the planar distance, whose product cos φ1·cos φ2 is ≥ c·c in
    * floating point too. Every row and every column pays at least its least
    * pair bound ([[leastQ]]), and a warping path after (i, j) crosses every
    * later row and every later column.
    */
  private def suffixBounds(pa: Points, pb: Points): (Array[Double], Array[Double]) = {
    val n = pa.n; val m = pb.n
    val rowDeg = new Array[Double](n + 1); val colDeg = new Array[Double](m + 1)
    var latMin = Double.PositiveInfinity; var latMax = Double.NegativeInfinity
    var lonMin = Double.PositiveInfinity; var lonMax = Double.NegativeInfinity
    var c = 1.0
    for (p <- Array(pa, pb)) {
      latMin = math.min(latMin, p.lat.min); latMax = math.max(latMax, p.lat.max)
      lonMin = math.min(lonMin, p.lon.min); lonMax = math.max(lonMax, p.lon.max)
      c = math.min(c, p.cos.min)
    }
    if (latMax - latMin > MaxSpanDeg || lonMax - lonMin > MaxSpanDeg) return (rowDeg, colDeg)
    val rowMin = leastQ(pa, pb, c); val colMin = leastQ(pb, pa, c)
    var i = n
    while (i > 0) { rowDeg(i - 1) = rowDeg(i) + math.sqrt(rowMin(i - 1)); i -= 1 }
    var j = m
    while (j > 0) { colDeg(j - 1) = colDeg(j) + math.sqrt(colMin(j - 1)); j -= 1 }
    (rowDeg, colDeg)
  }

  /** Points per block of [[leastQ]]'s search. */
  private val Block = 16

  /** For each point of `from`, the least (Δlat)² + c²·(Δlon)² (degrees²)
    * over the points of `to`: bit for bit the minimum over every pair, from
    * fewer pairs. `to` is cut into blocks of [[Block]] consecutive points,
    * each with a bounding circle in the (lat, c·lon) plane, where the
    * quantity is the squared distance. A point starts at the block that held
    * the previous point's minimum, then skips every block whose centre is
    * farther than its radius plus √best: no point of it can be below best.
    * The skip test widens the reach by 1e-9 relative and by 1e-9 of the
    * largest coordinate, far more than the plane's rounding, so it never
    * skips a pair that would set the minimum. The pairs it does compute use
    * the brute-force formula, so the minimum is the same double.
    */
  private[eval] def leastQ(from: Points, to: Points, c: Double): Array[Double] = {
    val n = from.n; val m = to.n; val c2 = c * c
    val nb = (m + Block - 1) / Block
    val cy = new Array[Double](nb); val cx = new Array[Double](nb); val rad = new Array[Double](nb)
    var big = 0.0
    var b = 0
    while (b < nb) {
      val k0 = b * Block; val k1 = math.min(k0 + Block, m)
      var yMin = Double.PositiveInfinity; var yMax = Double.NegativeInfinity
      var xMin = Double.PositiveInfinity; var xMax = Double.NegativeInfinity
      var k = k0
      while (k < k1) {
        val y = to.lat(k); val x = c * to.lon(k)
        yMin = math.min(yMin, y); yMax = math.max(yMax, y); xMin = math.min(xMin, x); xMax = math.max(xMax, x)
        k += 1
      }
      cy(b) = (yMin + yMax) / 2; cx(b) = (xMin + xMax) / 2
      big = math.max(big, math.max(math.max(-yMin, yMax), math.max(-xMin, xMax)))
      var r2 = 0.0
      k = k0
      while (k < k1) {
        val dy = to.lat(k) - cy(b); val dx = c * to.lon(k) - cx(b)
        r2 = math.max(r2, dy * dy + dx * dx)
        k += 1
      }
      rad(b) = math.sqrt(r2)
      b += 1
    }
    var i = 0
    while (i < n) { big = math.max(big, math.max(math.abs(from.lat(i)), math.abs(c * from.lon(i)))); i += 1 }
    val slack = 1e-9 * (1 + big)
    val out = new Array[Double](n)
    var start = 0
    i = 0
    while (i < n) {
      val lat = from.lat(i); val lon = from.lon(i); val x = c * lon
      var best = Double.PositiveInfinity; var reachBest = Double.PositiveInfinity; var bestBlock = start
      var t = -1
      while (t < nb) {
        val b = if (t < 0) start else t
        if (t < 0 || b != start) {
          val dy = lat - cy(b); val dx = x - cx(b)
          val reach = (rad(b) + reachBest) * (1 + 1e-9) + slack
          if (!(dy * dy + dx * dx > reach * reach)) {
            var k = b * Block; val k1 = math.min(k + Block, m)
            while (k < k1) {
              val qy = to.lat(k) - lat; val qx = to.lon(k) - lon
              val q = qy * qy + c2 * (qx * qx)
              if (q < best) { best = q; bestBlock = b }
              k += 1
            }
            reachBest = math.sqrt(best)
          }
        }
        t += 1
      }
      out(i) = best; start = bestBlock
      i += 1
    }
    out
  }

  /** The haversine cost of the warping path in `pi`, `pj` (row and column
    * of each of its `len` cells, from (0, 0)), summed in path order as
    * `d + acc`, as the recurrence sums.
    */
  private def pathCost(pa: Points, pb: Points, pi: Array[Int], pj: Array[Int], len: Int): Double = {
    def d(k: Int): Double = {
      val i = pi(k); val j = pj(k)
      Geo.haversineM(pa.lat(i), pa.lon(i), pa.cos(i), pb.lat(j), pb.lon(j), pb.cos(j))
    }
    var acc = d(0) + 0.0
    var k = 1
    while (k < len) { acc = d(k) + acc; k += 1 }
    acc
  }

  /** The warping path that sets UB, written to `pi`, `pj` from (0, 0) to
    * (n - 1, m - 1); returns its length. It is the optimal alignment under
    * the trig-free planar distance √(Δφ² + cos φ1·cos φ2·Δλ²) (degrees),
    * found by the planar pass: the same pruned two-row recurrence as
    * [[align]], with the same tie order, pruned by the degree-valued suffix
    * bounds and by the cheaper of two planar path costs (a greedy path that
    * steps to its nearest successor, diagonal first on ties, and the
    * [[linePath]]). Each computed cell stores which predecessor it took, in
    * the per-thread direction buffer, and the path is traced back from the
    * final cell. Nothing here needs to be exact: any warping path gives a
    * valid UB. A row with no live cell (possible only by rounding) gives
    * the line path instead.
    */
  private def boundingPath(pa: Points, pb: Points, rowDeg: Array[Double], colDeg: Array[Double],
                           margin: Double, pi: Array[Int], pj: Array[Int], s: Scratch): Int = {
    val n = pa.n; val m = pb.n
    def q(i: Int, j: Int): Double = {
      val dy = pb.lat(j) - pa.lat(i); val dx = pb.lon(j) - pa.lon(i)
      dy * dy + pa.cos(i) * pb.cos(j) * (dx * dx)
    }
    var gi = 0; var gj = 0; var greedy = math.sqrt(q(0, 0)) + 0.0
    while (gi < n - 1 || gj < m - 1) {
      if (gi == n - 1) gj += 1
      else if (gj == m - 1) gi += 1
      else {
        val qd = q(gi + 1, gj + 1); val qu = q(gi + 1, gj); val ql = q(gi, gj + 1)
        if (qd <= qu && qd <= ql) { gi += 1; gj += 1 } else if (qu <= ql) gi += 1 else gj += 1
      }
      greedy = math.sqrt(q(gi, gj)) + greedy
    }
    val lineLen = linePath(n, m, pi, pj)
    var line = math.sqrt(q(0, 0)) + 0.0
    var k = 1
    while (k < lineLen) { line = math.sqrt(q(pi(k), pj(k))) + line; k += 1 }
    val cut = math.min(greedy, line) * (1 + margin) + Underflow

    val Inf = Double.PositiveInfinity
    var prevC = Array.fill(m + 1)(Inf); var curC = Array.fill(m + 1)(Inf)
    var curHi = 0; var prevHi = 0
    prevC(0) = 0.0
    // Cell (i, j)'s direction is at dirs(rowOff(i) + j): 0 diagonal, 1 up, 2 left.
    val rowOff = new Array[Int](n + 1)
    var dirs = s.dirs
    var off = 0
    var first = 0; var last = 0
    var cells = 0L
    var i = 1
    while (i <= n) {
      val lat = pa.lat(i - 1); val lon = pa.lon(i - 1); val cos = pa.cos(i - 1)
      val lbI = rowDeg(i)
      var j = math.max(first, 1)
      curC(j - 1) = Inf
      val j0 = j; val pLast = last
      if (off + m > dirs.length) { dirs = java.util.Arrays.copyOf(dirs, math.max(2 * dirs.length, off + m)); s.dirs = dirs }
      rowOff(i) = off - j0
      first = -1
      var leftLive = false
      while (j <= m && (j <= pLast + 1 || leftLive)) {
        val dy = pb.lat(j - 1) - lat; val dx = pb.lon(j - 1) - lon
        val d = math.sqrt(dy * dy + cos * pb.cos(j - 1) * (dx * dx))
        val c1 = prevC(j); val c2 = curC(j - 1); val c3 = prevC(j - 1)
        if (c3 <= c1 && c3 <= c2) { curC(j) = d + c3; dirs(off) = 0 }
        else if (c1 <= c2)        { curC(j) = d + c1; dirs(off) = 1 }
        else                      { curC(j) = d + c2; dirs(off) = 2 }
        off += 1
        leftLive = curC(j) + math.max(lbI, colDeg(j)) <= cut
        if (leftLive) { if (first < 0) first = j; last = j }
        j += 1
      }
      cells += j - j0
      if (first < 0) { s.planarCells = cells; return lineLen }
      var k = j
      while (k <= curHi) { curC(k) = Inf; k += 1 }
      curHi = j - 1
      val tc = prevC; prevC = curC; curC = tc
      val th = prevHi; prevHi = curHi; curHi = th
      i += 1
    }
    s.planarCells = cells
    // Trace back from (n, m) to (1, 1), then reverse into path order.
    var len = 0
    i = n; var j = m
    while (i > 1 || j > 1) {
      pi(len) = i - 1; pj(len) = j - 1; len += 1
      dirs(rowOff(i) + j) match {
        case 0 => i -= 1; j -= 1
        case 1 => i -= 1
        case _ => j -= 1
      }
    }
    pi(len) = 0; pj(len) = 0; len += 1
    var lo = 0; var hi = len - 1
    while (lo < hi) {
      val ti = pi(lo); pi(lo) = pi(hi); pi(hi) = ti
      val tj = pj(lo); pj(lo) = pj(hi); pj(hi) = tj
      lo += 1; hi -= 1
    }
    len
  }

  /** The warping path from (0, 0) to (n - 1, m - 1) that keeps closest to
    * the straight line between the corners, written to `pi`, `pj`; returns
    * its length.
    */
  private def linePath(n: Int, m: Int, pi: Array[Int], pj: Array[Int]): Int = {
    // Distance of (i, j) from the corner-to-corner line, scaled.
    def off(i: Int, j: Int): Long = math.abs(i.toLong * (m - 1) - j.toLong * (n - 1))
    var i = 0; var j = 0; var len = 1
    pi(0) = 0; pj(0) = 0
    while (i < n - 1 || j < m - 1) {
      if (i == n - 1) j += 1
      else if (j == m - 1) i += 1
      else {
        val od = off(i + 1, j + 1); val ou = off(i + 1, j); val ol = off(i, j + 1)
        if (od <= ou && od <= ol) { i += 1; j += 1 } else if (ou <= ol) i += 1 else j += 1
      }
      pi(len) = i; pj(len) = j; len += 1
    }
    len
  }

  /** UB of the alignment of `a` and `b` and the warping path it is the
    * cost of, as (row, column) pairs from (0, 0).
    */
  private[eval] def upperBound(a: IndexedSeq[LatLng], b: IndexedSeq[LatLng]): (Double, IndexedSeq[(Int, Int)]) = {
    require(a.nonEmpty && b.nonEmpty, "DTW over empty path")
    val pa = new Points(a, "a"); val pb = new Points(b, "b")
    val (rowDeg, colDeg) = suffixBounds(pa, pb)
    val pi = new Array[Int](pa.n + pb.n - 1); val pj = new Array[Int](pa.n + pb.n - 1)
    val len = boundingPath(pa, pb, rowDeg, colDeg, marginOf(pa.n, pb.n), pi, pj, scratch.get())
    (pathCost(pa, pb, pi, pj, len), IndexedSeq.tabulate(len)(k => (pi(k), pj(k))))
  }
}
