package repro.geo

/** The boxed RDP that the array kernel [[RDP.keep]] replaced, kept as the
  * reference for the differential tests: `Geo.pointSegmentDistM` per
  * vertex and a `List` of (lo, hi) frames as the stack.
  */
object ReferenceRDP {

  def simplify(path: IndexedSeq[LatLng], toleranceM: Double): IndexedSeq[LatLng] = {
    require(toleranceM >= 0, "tolerance must be non-negative")
    if (toleranceM == 0 || path.size <= 2) return path
    val keep  = Array.fill(path.size)(false)
    keep(0) = true; keep(path.size - 1) = true
    var stack = List((0, path.size - 1))
    while (stack.nonEmpty) {
      val (lo, hi) = stack.head
      stack = stack.tail
      if (hi > lo + 1) {
        var bestIdx  = -1
        var bestDist = -1.0
        var i        = lo + 1
        while (i < hi) {
          val d = Geo.pointSegmentDistM(path(i), path(lo), path(hi))
          if (d > bestDist) { bestDist = d; bestIdx = i }
          i += 1
        }
        if (bestDist > toleranceM) {
          keep(bestIdx) = true
          stack = (lo, bestIdx) :: (bestIdx, hi) :: stack
        }
      }
    }
    path.indices.collect { case i if keep(i) => path(i) }
  }
}
