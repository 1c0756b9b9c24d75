package repro.eval

import repro.geo.{Geo, LatLng}

/** The full n x m matrix DTW that the rolling-row and then the pruned
  * [[DTW]] replaced, kept as the reference for the differential tests:
  * every cell computed, with the same haversine and the same tie order
  * (diagonal, then up, then left).
  */
object ReferenceDTW {

  /** (cost, warping-path length) of the optimal alignment. */
  def align(a: IndexedSeq[LatLng], b: IndexedSeq[LatLng]): (Double, Int) = {
    val n = a.size; val m = b.size
    val cost = Array.fill(n + 1, m + 1)(Double.PositiveInfinity)
    val len  = Array.fill(n + 1, m + 1)(0)
    cost(0)(0) = 0.0
    for (i <- 1 to n; j <- 1 to m) {
      val d = Geo.haversineM(a(i - 1), b(j - 1))
      val c1 = cost(i - 1)(j); val c2 = cost(i)(j - 1); val c3 = cost(i - 1)(j - 1)
      val (pc, pl) =
        if (c3 <= c1 && c3 <= c2) (c3, len(i - 1)(j - 1))
        else if (c1 <= c2) (c1, len(i - 1)(j))
        else (c2, len(i)(j - 1))
      cost(i)(j) = d + pc
      len(i)(j) = pl + 1
    }
    (cost(n)(m), len(n)(m))
  }

  /** Normalized DTW in meters, as [[DTW.normalized]] defines it. */
  def normalized(a: IndexedSeq[LatLng], b: IndexedSeq[LatLng]): Double = {
    val (c, steps) = align(a, b)
    if (steps == 0) 0.0 else c / steps
  }

  /** The least (Δlat)² + c²·(Δlon)² (degrees²) of each point of `a` (the
    * rows) and of each point of `b` (the columns) over every pair: the one
    * O(n·m) pass that [[DTW.leastQ]]'s block search replaced.
    */
  def leastQ(a: DTW.Points, b: DTW.Points, c: Double): (Array[Double], Array[Double]) = {
    val c2 = c * c
    val rowMin = Array.fill(a.n)(Double.PositiveInfinity)
    val colMin = Array.fill(b.n)(Double.PositiveInfinity)
    for (i <- 0 until a.n; j <- 0 until b.n) {
      val dy = b.lat(j) - a.lat(i); val dx = b.lon(j) - a.lon(i)
      val q = dy * dy + c2 * (dx * dx)
      if (q < rowMin(i)) rowMin(i) = q
      if (q < colMin(j)) colMin(j) = q
    }
    (rowMin, colMin)
  }

  /** [[DTW.pathErrorM]] over the reference alignment. */
  def pathErrorM(imputed: Seq[LatLng], original: Seq[LatLng]): Double =
    normalized(Geo.densify(imputed, DTW.DensifyM).toIndexedSeq,
               Geo.densify(original, DTW.DensifyM).toIndexedSeq)
}
