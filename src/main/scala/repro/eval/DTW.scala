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
    normalized(Geo.densify(imputed, DensifyM).toIndexedSeq,
               Geo.densify(original, DensifyM).toIndexedSeq)

  /** (cost, warping-path length) of the optimal alignment, over two rolling
    * rows of the cost and length matrices. Among equal predecessors the
    * diagonal wins, then the cell above, then the one to the left.
    */
  private def align(a: IndexedSeq[LatLng], b: IndexedSeq[LatLng]): (Double, Int) = {
    require(a.nonEmpty && b.nonEmpty, "DTW over empty path")
    val n = a.size; val m = b.size
    val aCos = a.map(p => math.cos(Geo.toRad(p.lat))).toArray
    val bLat = b.map(_.lat).toArray; val bLon = b.map(_.lon).toArray
    val bCos = bLat.map(lat => math.cos(Geo.toRad(lat)))
    // Row i - 1 (prev) and row i (cur); column 0 is the infinite border.
    var prevC = Array.fill(m + 1)(Double.PositiveInfinity); var curC = new Array[Double](m + 1)
    var prevL = new Array[Int](m + 1);                       var curL = new Array[Int](m + 1)
    prevC(0) = 0.0
    curC(0) = Double.PositiveInfinity
    var i = 1
    while (i <= n) {
      val p = a(i - 1); val pCos = aCos(i - 1)
      var j = 1
      while (j <= m) {
        val d = Geo.haversineM(p.lat, p.lon, pCos, bLat(j - 1), bLon(j - 1), bCos(j - 1))
        val c1 = prevC(j); val c2 = curC(j - 1); val c3 = prevC(j - 1)
        if (c3 <= c1 && c3 <= c2) { curC(j) = d + c3; curL(j) = prevL(j - 1) + 1 }
        else if (c1 <= c2)        { curC(j) = d + c1; curL(j) = prevL(j) + 1 }
        else                      { curC(j) = d + c2; curL(j) = curL(j - 1) + 1 }
        j += 1
      }
      val tc = prevC; prevC = curC; curC = tc
      val tl = prevL; prevL = curL; curL = tl
      curC(0) = Double.PositiveInfinity
      i += 1
    }
    (prevC(m), prevL(m))
  }
}
