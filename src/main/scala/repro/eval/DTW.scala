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
  private final class Points(path: IndexedSeq[LatLng], name: String) {
    val n: Int = path.size
    val lat = new Array[Double](n); val lon = new Array[Double](n); val cos = new Array[Double](n)
    for (k <- 0 until n) {
      val p = path(k)
      require(math.abs(p.lat) <= 90.0 && p.lon.isFinite,
        s"DTW over a non-finite or out-of-range point: $name($k) = $p")
      lat(k) = p.lat; lon(k) = p.lon; cos(k) = math.cos(Geo.toRad(p.lat))
    }
  }

  /** (cost, warping-path length) of the optimal alignment: PrunedDTW (Silva
    * & Batista, SDM 2016) with cumulative lower bounds as in EAPrunedDTW
    * (Herrmann & Webb, DMKD 2021), exact.
    *
    * Cell (i, j) of the accumulated-cost matrix is d(i, j) + the least of
    * its diagonal, upper and left predecessors; among equal predecessors
    * the diagonal wins, then the cell above, then the one to the left.
    * Rows are kept two at a time. First [[upperBound]] gives UB, the cost
    * of one valid warping path summed with the recurrence's own `d + acc`,
    * and [[suffixBounds]] gives LB(i, j), a lower bound on the cost any
    * warping path still has to pay after cell (i, j). A cell is *live* when
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
    *    `d + min(...)` ≤ `d + acc` term by term.
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
    val ub = upperBound(pa, pb)
    // Relative rounding margin of every sum and product the rule compares.
    val margin = (n + m + 64) * 1e-15
    val cut = ub * (1 + margin) + Underflow
    val (rowLb, colLb) = suffixBounds(pa, pb, margin)
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
    lastCellsOf.get()(0) = cells
    (prevC(m), prevL(m))
  }

  private val lastCellsOf = ThreadLocal.withInitial[Array[Long]](() => new Array[Long](1))

  /** Accumulated-cost cells computed by the last alignment on the calling
    * thread (by [[cost]], [[normalized]] or [[pathErrorM]]): a work counter
    * that reads no clock. The bound passes are not counted.
    */
  def lastCells: Long = lastCellsOf.get()(0)

  /** Absolute margin (m) of the pruning cut: it covers the haversine's
    * underflow for points less than about 1e-150 rad apart, where the
    * relative margin does not hold.
    */
  private val Underflow = 1e-100

  /** The widest latitude or longitude range (degrees) over both paths for
    * which the lower bound is used; wider pairs fall back to the upper
    * bound alone. Within it every |Δφ/2| and |Δλ/2| is at most X =
    * toRad(MaxSpanDeg) / 2, so sin(x) ≥ x·(1 - x²/6) ≥ x·(1 - Eps).
    */
  private val MaxSpanDeg = 5.0
  private val Eps = { val x = Geo.toRad(MaxSpanDeg) / 2; x * x / 6 }

  /** Suffix lower bounds in metres, indexed like the rows (0 to n) and the
    * columns (0 to m): rowLb(i) is at most the cost of any warping path
    * over rows i + 1 to n, and colLb(j) over columns j + 1 to m. Both are
    * 0 when the paths span more than [[MaxSpanDeg]].
    *
    * The pair bound. With Δφ, Δλ the radian differences the haversine
    * itself computes, and c the least cos(lat) over both paths,
    * haversine = 2R·asin(√s) ≥ 2R·√s (asin(y) ≥ y), and
    * s = sin²(Δφ/2) + cos φ1·cos φ2·sin²(Δλ/2) ≥ (1 - Eps)²·(Δφ² + c²·Δλ²)/4,
    * so d ≥ R·(1 - Eps)·√(Δφ² + c²·Δλ²). Every row and every column pays at
    * least its least pair bound, and a warping path after (i, j) crosses
    * every later row and every later column. The sums are taken in degrees
    * and scaled once, by R·π/180·(1 - Eps)·(1 - margin).
    */
  private def suffixBounds(pa: Points, pb: Points, margin: Double): (Array[Double], Array[Double]) = {
    val n = pa.n; val m = pb.n
    val rowLb = new Array[Double](n + 1); val colLb = new Array[Double](m + 1)
    var latMin = Double.PositiveInfinity; var latMax = Double.NegativeInfinity
    var lonMin = Double.PositiveInfinity; var lonMax = Double.NegativeInfinity
    var c = 1.0
    for (p <- Array(pa, pb)) {
      latMin = math.min(latMin, p.lat.min); latMax = math.max(latMax, p.lat.max)
      lonMin = math.min(lonMin, p.lon.min); lonMax = math.max(lonMax, p.lon.max)
      c = math.min(c, p.cos.min)
    }
    if (latMax - latMin > MaxSpanDeg || lonMax - lonMin > MaxSpanDeg) return (rowLb, colLb)
    // Least (Δlat)² + c²·(Δlon)² (degrees²) of each row and each column.
    val c2 = c * c
    val rowMin = Array.fill(n)(Double.PositiveInfinity)
    val colMin = Array.fill(m)(Double.PositiveInfinity)
    var i = 0
    while (i < n) {
      val lat = pa.lat(i); val lon = pa.lon(i)
      var best = Double.PositiveInfinity
      var j = 0
      while (j < m) {
        val dy = pb.lat(j) - lat; val dx = pb.lon(j) - lon
        val q = dy * dy + c2 * (dx * dx)
        if (q < best) best = q
        if (q < colMin(j)) colMin(j) = q
        j += 1
      }
      rowMin(i) = best
      i += 1
    }
    val scale = Geo.EarthRadiusM * math.Pi / 180.0 * (1 - Eps) * (1 - margin)
    i = n
    while (i > 0) { rowLb(i - 1) = rowLb(i) + math.sqrt(rowMin(i - 1)); i -= 1 }
    var j = m
    while (j > 0) { colLb(j - 1) = colLb(j) + math.sqrt(colMin(j - 1)); j -= 1 }
    i = 0; while (i <= n) { rowLb(i) *= scale; i += 1 }
    j = 0; while (j <= m) { colLb(j) *= scale; j += 1 }
    (rowLb, colLb)
  }

  /** The cheaper of two warping paths from (0, 0) to (n - 1, m - 1), each
    * summed in path order as `d + acc`: a greedy path that steps to the
    * nearest of its three successors in the local equirectangular plane
    * (diagonal first on ties), so that only the step taken needs a
    * haversine, and the path that keeps closest to the straight line
    * between the corners.
    */
  private def upperBound(pa: Points, pb: Points): Double = {
    val n = pa.n; val m = pb.n
    def d(i: Int, j: Int): Double =
      Geo.haversineM(pa.lat(i), pa.lon(i), pa.cos(i), pb.lat(j), pb.lon(j), pb.cos(j))
    // Squared distance (degrees²) of (i, j) in the local plane.
    def q(i: Int, j: Int): Double = {
      val dy = pb.lat(j) - pa.lat(i); val dx = pb.lon(j) - pa.lon(i)
      dy * dy + pa.cos(i) * pb.cos(j) * (dx * dx)
    }
    // Distance of (i, j) from the corner-to-corner line, scaled.
    def off(i: Int, j: Int): Long = math.abs(i.toLong * (m - 1) - j.toLong * (n - 1))

    var i = 0; var j = 0; var greedy = d(0, 0) + 0.0
    while (i < n - 1 || j < m - 1) {
      val step =
        if (i == n - 1) { j += 1; d(i, j) }
        else if (j == m - 1) { i += 1; d(i, j) }
        else {
          val qd = q(i + 1, j + 1); val qu = q(i + 1, j); val ql = q(i, j + 1)
          if (qd <= qu && qd <= ql) { i += 1; j += 1 } else if (qu <= ql) i += 1 else j += 1
          d(i, j)
        }
      greedy = step + greedy
    }
    i = 0; j = 0; var line = d(0, 0) + 0.0
    while (i < n - 1 || j < m - 1) {
      if (i == n - 1) j += 1
      else if (j == m - 1) i += 1
      else {
        val od = off(i + 1, j + 1); val ou = off(i + 1, j); val ol = off(i, j + 1)
        if (od <= ou && od <= ol) { i += 1; j += 1 } else if (ou <= ol) i += 1 else j += 1
      }
      line = d(i, j) + line
    }
    math.min(greedy, line)
  }
}
