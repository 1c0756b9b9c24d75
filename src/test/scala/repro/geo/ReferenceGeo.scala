package repro.geo

/** The `sliding`-window [[Geo.densify]] that the one-pass loop replaced,
  * kept as the reference for the differential test.
  */
object ReferenceGeo {

  def densify(path: Seq[LatLng], maxGapM: Double): Seq[LatLng] = {
    require(maxGapM > 0, "maxGapM must be positive")
    if (path.size < 2) path
    else path.head +: path.sliding(2).flatMap { case Seq(a, b) =>
      val d = Geo.haversineM(a, b)
      val n = math.max(1, math.ceil(d / maxGapM).toInt)
      (1 to n).map(i => Geo.interpolate(a, b, i.toDouble / n))
    }.toSeq
  }
}
