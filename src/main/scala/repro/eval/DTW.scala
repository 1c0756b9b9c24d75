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
    * & Batista, SDM 2016), exact.
    *
    * Cell (i, j) of the accumulated-cost matrix is d(i, j) + the least of
    * its diagonal, upper and left predecessors; among equal predecessors
    * the diagonal wins, then the cell above, then the one to the left.
    * Rows are kept two at a time. First [[upperBound]] gives UB, the cost
    * of one valid warping path summed with the recurrence's own `d + acc`.
    * Then row i is computed only over a column window: from the previous
    * row's first cell ≤ UB, up to the previous row's last cell ≤ UB plus
    * one, and on while the left neighbour is ≤ UB. Cells outside the
    * window read as +∞: the cell left of a window and whatever an older
    * row left beyond its right end are reset in the rolling arrays.
    *
    * Why the scores equal the full matrix's bit for bit. Distances are
    * ≥ 0 and never NaN (coordinates are finite and |lat| ≤ 90), and IEEE
    * addition is monotone, so an accumulated cost is ≥ that of the
    * predecessor it extends.
    *  - UB ≥ the full matrix's final cell: along the bounding path each
    *    cell's matrix value is at most the path's running sum, since
    *    `d + min(...)` ≤ `d + acc` term by term.
    *  - A skipped cell reads +∞ and a computed one takes the minimum of
    *    values that are each ≥ their full-matrix values, so every value
    *    here is ≥ its full-matrix value.
    *  - A cell whose full-matrix value is ≤ UB has its chosen predecessor
    *    ≤ UB too; by induction that predecessor lies in its row's window
    *    and is exact, so the cell lies in its own window (the window
    *    rules above cover every cell with such a predecessor). Every other
    *    predecessor reads ≥ its full-matrix value, and equals the chosen
    *    one's value only if its full-matrix value does, so the tie order
    *    picks the same predecessor: the same cost and the same length.
    *  - The final cell is ≤ UB, so it is one of these exact cells. Each
    *    row holds a cell of the optimal path, which is ≤ UB; a row with
    *    none is an internal error.
    */
  private def align(a: IndexedSeq[LatLng], b: IndexedSeq[LatLng]): (Double, Int) = {
    require(a.nonEmpty && b.nonEmpty, "DTW over empty path")
    val pa = new Points(a, "a"); val pb = new Points(b, "b")
    val n = pa.n; val m = pb.n
    val ub = upperBound(pa, pb)
    val Inf = Double.PositiveInfinity
    // Row i - 1 (prev) and row i (cur); column 0 is the infinite border.
    // Hi is the last column each array was written to.
    var prevC = Array.fill(m + 1)(Inf); var curC = Array.fill(m + 1)(Inf)
    var prevL = new Array[Int](m + 1);  var curL = new Array[Int](m + 1)
    var prevHi = 0;                     var curHi = 0
    prevC(0) = 0.0
    // First and last column ≤ UB of the previous row.
    var first = 0; var last = 0
    var i = 1
    while (i <= n) {
      val lat = pa.lat(i - 1); val lon = pa.lon(i - 1); val cos = pa.cos(i - 1)
      var j = math.max(first, 1)
      curC(j - 1) = Inf
      val pLast = last
      first = -1
      while (j <= m && (j <= pLast + 1 || curC(j - 1) <= ub)) {
        val d = Geo.haversineM(lat, lon, cos, pb.lat(j - 1), pb.lon(j - 1), pb.cos(j - 1))
        val c1 = prevC(j); val c2 = curC(j - 1); val c3 = prevC(j - 1)
        if (c3 <= c1 && c3 <= c2) { curC(j) = d + c3; curL(j) = prevL(j - 1) + 1 }
        else if (c1 <= c2)        { curC(j) = d + c1; curL(j) = prevL(j) + 1 }
        else                      { curC(j) = d + c2; curL(j) = curL(j - 1) + 1 }
        if (curC(j) <= ub) { if (first < 0) first = j; last = j }
        j += 1
      }
      if (first < 0) throw new IllegalStateException(s"DTW: row $i has no cell within the bound $ub")
      // Clear what row i - 2 left beyond this row's window.
      var k = j
      while (k <= curHi) { curC(k) = Inf; k += 1 }
      curHi = j - 1
      val tc = prevC; prevC = curC; curC = tc
      val tl = prevL; prevL = curL; curL = tl
      val th = prevHi; prevHi = curHi; curHi = th
      i += 1
    }
    (prevC(m), prevL(m))
  }

  /** The cheaper of two warping paths from (0, 0) to (n - 1, m - 1), each
    * summed in path order as `d + acc`: a greedy path that steps to the
    * nearest of its three successors (diagonal first on ties), and the
    * path that keeps closest to the straight line between the corners.
    */
  private def upperBound(pa: Points, pb: Points): Double = {
    val n = pa.n; val m = pb.n
    def d(i: Int, j: Int): Double =
      Geo.haversineM(pa.lat(i), pa.lon(i), pa.cos(i), pb.lat(j), pb.lon(j), pb.cos(j))
    // Distance of (i, j) from the corner-to-corner line, scaled.
    def off(i: Int, j: Int): Long = math.abs(i.toLong * (m - 1) - j.toLong * (n - 1))

    var i = 0; var j = 0; var greedy = d(0, 0) + 0.0
    while (i < n - 1 || j < m - 1) {
      val step =
        if (i == n - 1) { j += 1; d(i, j) }
        else if (j == m - 1) { i += 1; d(i, j) }
        else {
          val dd = d(i + 1, j + 1); val du = d(i + 1, j); val dl = d(i, j + 1)
          if (dd <= du && dd <= dl) { i += 1; j += 1; dd }
          else if (du <= dl) { i += 1; du }
          else { j += 1; dl }
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
