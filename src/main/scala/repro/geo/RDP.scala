package repro.geo

/** Ramer–Douglas–Peucker polyline simplification (paper §3.4).
  *
  * The tolerance is metric (meters of maximum allowed deviation), matching
  * the paper's t ∈ {0, 100, 250, 500, 1000}. t = 0 returns the input
  * unchanged, which is how the paper reports the unsimplified baseline row.
  */
object RDP {

  /** Simplify `path` keeping every vertex whose removal would deviate the
    * result by more than `toleranceM` meters. Endpoints always survive.
    */
  def simplify(path: IndexedSeq[LatLng], toleranceM: Double): IndexedSeq[LatLng] = {
    require(toleranceM >= 0, "tolerance must be non-negative")
    if (toleranceM == 0 || path.size <= 2) return path
    val kept = keep(path.map(_.lat).toArray, path.map(_.lon).toArray, path.size, toleranceM)
    path.indices.collect { case i if kept(i) => path(i) }
  }

  /** The vertices of the polyline `(lat(i), lon(i))`, i < n, that RDP keeps
    * at `toleranceM`: every one when t = 0 or n <= 2. Iterative over an int
    * stack of (lo, hi) pairs, so long paths cannot overflow the call stack.
    * A segment's deviation is `Geo.pointSegmentDistM`'s, operation for
    * operation, with the segment's cos(lat), far end and squared length
    * taken once; the first vertex of greatest deviation splits it.
    */
  def keep(lat: Array[Double], lon: Array[Double], n: Int, toleranceM: Double): Array[Boolean] = {
    require(toleranceM >= 0, "tolerance must be non-negative")
    val keep = new Array[Boolean](n)
    if (toleranceM == 0 || n <= 2) { java.util.Arrays.fill(keep, true); return keep }
    keep(0) = true; keep(n - 1) = true
    // The pending segments are disjoint, so at most n - 1 are on the stack.
    val stack = new Array[Int](2 * (n - 1))
    stack(0) = 0; stack(1) = n - 1
    var top = 2
    while (top > 0) {
      top -= 2
      val lo = stack(top); val hi = stack(top + 1)
      if (hi > lo + 1) {
        // The plane of `pointSegmentDistM`, anchored at the segment's start.
        val aLat   = lat(lo); val aLon = lon(lo)
        val cosLat = math.cos(Geo.toRad(aLat))
        val bx     = Geo.toRad(lon(hi) - aLon) * cosLat * Geo.EarthRadiusM
        val by     = Geo.toRad(lat(hi) - aLat) * Geo.EarthRadiusM
        val len2   = bx * bx + by * by
        var bestIdx  = -1
        var bestDist = -1.0
        var i        = lo + 1
        while (i < hi) {
          val px = Geo.toRad(lon(i) - aLon) * cosLat * Geo.EarthRadiusM
          val py = Geo.toRad(lat(i) - aLat) * Geo.EarthRadiusM
          val t  = if (len2 == 0) 0.0 else math.max(0.0, math.min(1.0, (px * bx + py * by) / len2))
          val dx = px - t * bx; val dy = py - t * by
          val d  = math.sqrt(dx * dx + dy * dy)
          if (d > bestDist) { bestDist = d; bestIdx = i }
          i += 1
        }
        if (bestDist > toleranceM) {
          keep(bestIdx) = true
          stack(top) = bestIdx; stack(top + 1) = hi
          stack(top + 2) = lo; stack(top + 3) = bestIdx
          top += 4
        }
      }
    }
    keep
  }
}
