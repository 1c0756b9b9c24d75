package repro.geo

/** A WGS-84 position in degrees. */
final case class LatLng(lat: Double, lon: Double)

/** The imputers' endpoint filter: a path vertex between the two gap
  * endpoints is kept only when it lies more than 1 m from both, so no
  * projected vertex duplicates an endpoint. `keeps(lat, lon)` decides
  * exactly as `Geo.haversineM(p, from) > 1.0 && Geo.haversineM(p, to) > 1.0`
  * with p = LatLng(lat, lon), for latitudes in [-90, 90]: it takes each
  * endpoint's cos(lat) once, and an endpoint whose latitude differs from
  * the vertex's by more than `Geo.ApartLatDeg` is proven more than 1 m
  * away without the haversine (DESIGN.md item 10).
  */
final class EndpointFilter(from: LatLng, to: LatLng) {
  private val cosFrom = math.cos(Geo.toRad(from.lat))
  private val cosTo   = math.cos(Geo.toRad(to.lat))

  def keeps(lat: Double, lon: Double): Boolean = {
    val farFrom = math.abs(lat - from.lat) > Geo.ApartLatDeg
    val farTo   = math.abs(lat - to.lat) > Geo.ApartLatDeg
    farFrom && farTo || {
      val cosP = math.cos(Geo.toRad(lat))
      (farFrom || Geo.haversineM(lat, lon, cosP, from.lat, from.lon, cosFrom) > 1.0) &&
        (farTo || Geo.haversineM(lat, lon, cosP, to.lat, to.lon, cosTo) > 1.0)
    }
  }
}

/** Core geodesic utilities shared by the grid index, the imputers, the
  * synthetic AIS generator and the evaluation metrics.
  *
  * All distances are in meters, all angles in degrees unless noted.
  * A spherical earth (R = 6371.0088 km) is used throughout — the paper's
  * measurements (DTW in meters, RDP tolerances of 100–1000 m) are far
  * coarser than the spherical-vs-ellipsoidal discrepancy (< 0.5%).
  */
object Geo {
  val EarthRadiusM: Double = 6371008.8

  @inline def toRad(d: Double): Double = d * math.Pi / 180.0
  @inline def toDeg(r: Double): Double = r * 180.0 / math.Pi

  /** Great-circle distance in meters between two positions. */
  def haversineM(a: LatLng, b: LatLng): Double = haversineM(a.lat, a.lon, b.lat, b.lon)

  def haversineM(lat1: Double, lon1: Double, lat2: Double, lon2: Double): Double =
    haversineM(lat1, lon1, math.cos(toRad(lat1)), lat2, lon2, math.cos(toRad(lat2)))

  /** The same distance with each point's `cos(toRad(lat))` given, for
    * callers that measure one point against many.
    */
  def haversineM(lat1: Double, lon1: Double, cos1: Double,
                 lat2: Double, lon2: Double, cos2: Double): Double = {
    val dLat = toRad(lat2 - lat1)
    val dLon = toRad(lon2 - lon1)
    val s = math.pow(math.sin(dLat / 2), 2) + cos1 * cos2 * math.pow(math.sin(dLon / 2), 2)
    2 * EarthRadiusM * math.asin(math.min(1.0, math.sqrt(s)))
  }

  /** A latitude difference (degrees) that alone puts two points more than
    * 1 m apart: the haversine distance is at least R·|Δφ|, and 1e-4° is
    * about 11.1 m, far beyond any rounding of the 1 m decision.
    */
  private[geo] val ApartLatDeg: Double = 1e-4

  /** Initial bearing from `a` to `b`, degrees in [0, 360). */
  def bearingDeg(a: LatLng, b: LatLng): Double = {
    val (f1, f2) = (toRad(a.lat), toRad(b.lat))
    val dl       = toRad(b.lon - a.lon)
    val y        = math.sin(dl) * math.cos(f2)
    val x        = math.cos(f1) * math.sin(f2) - math.sin(f1) * math.cos(f2) * math.cos(dl)
    (toDeg(math.atan2(y, x)) + 360.0) % 360.0
  }

  /** Destination point given start, bearing (deg) and distance (m). */
  def destination(a: LatLng, bearing: Double, distM: Double): LatLng = {
    val d  = distM / EarthRadiusM
    val br = toRad(bearing)
    val f1 = toRad(a.lat); val l1 = toRad(a.lon)
    val f2 = math.asin(math.sin(f1) * math.cos(d) + math.cos(f1) * math.sin(d) * math.cos(br))
    val l2 = l1 + math.atan2(
      math.sin(br) * math.sin(d) * math.cos(f1),
      math.cos(d) - math.sin(f1) * math.sin(f2))
    LatLng(toDeg(f2), ((toDeg(l2) + 540.0) % 360.0) - 180.0)
  }

  /** Linear interpolation between two positions at fraction `f` in [0,1].
    * Adequate for the short (< tens of km) hops used in densification.
    */
  def interpolate(a: LatLng, b: LatLng, f: Double): LatLng =
    LatLng(a.lat + (b.lat - a.lat) * f, a.lon + (b.lon - a.lon) * f)

  /** Distance (m) from point `p` to segment `a`-`b`, computed in a local
    * equirectangular plane anchored at `a` — accurate for segments much
    * shorter than the earth radius, which holds for all AIS hops here.
    */
  def pointSegmentDistM(p: LatLng, a: LatLng, b: LatLng): Double = {
    val cosLat = math.cos(toRad(a.lat))
    def xy(q: LatLng): (Double, Double) =
      (toRad(q.lon - a.lon) * cosLat * EarthRadiusM, toRad(q.lat - a.lat) * EarthRadiusM)
    val (px, py) = xy(p); val (bx, by) = xy(b)
    val len2 = bx * bx + by * by
    val t    = if (len2 == 0) 0.0 else math.max(0.0, math.min(1.0, (px * bx + py * by) / len2))
    val (dx, dy) = (px - t * bx, py - t * by)
    math.sqrt(dx * dx + dy * dy)
  }

  /** Total length of a polyline in meters. */
  def pathLengthM(path: Seq[LatLng]): Double =
    if (path.size < 2) 0.0 else path.sliding(2).map { case Seq(a, b) => haversineM(a, b) }.sum

  /** Densify a polyline so consecutive points are at most `maxGapM` apart
    * (the paper densifies to 250 m before DTW). Endpoints are preserved.
    */
  def densify(path: Seq[LatLng], maxGapM: Double): IndexedSeq[LatLng] = {
    require(maxGapM > 0, "maxGapM must be positive")
    val out = scala.collection.immutable.ArraySeq.newBuilder[LatLng]
    val it = path.iterator
    if (it.hasNext) {
      var a = it.next()
      out += a
      while (it.hasNext) {
        val b = it.next()
        val n = math.max(1, math.ceil(haversineM(a, b) / maxGapM).toInt)
        var i = 1
        while (i <= n) { out += interpolate(a, b, i.toDouble / n); i += 1 }
        a = b
      }
    }
    out.result()
  }

  /** Absolute course change (deg, in [0, 180]) at each interior vertex of a
    * polyline. Used for the rate-of-turn statistics of Table 3.
    */
  def turnAnglesDeg(path: Seq[LatLng]): Seq[Double] =
    if (path.size < 3) Seq.empty
    else path.sliding(3).map { case Seq(a, b, c) =>
      val d = math.abs(bearingDeg(b, c) - bearingDeg(a, b))
      math.min(d, 360.0 - d)
    }.toSeq

  /** Table 3 row statistics for one path: position count, average and
    * maximum turn angle, and number of turns exceeding 45 degrees.
    */
  final case class TurnStats(cnt: Int, avgRot: Double, maxRot: Double, over45: Int)

  def turnStats(path: Seq[LatLng]): TurnStats = {
    val turns = turnAnglesDeg(path)
    TurnStats(
      cnt    = path.size,
      avgRot = if (turns.isEmpty) 0.0 else turns.sum / turns.size,
      maxRot = if (turns.isEmpty) 0.0 else turns.max,
      over45 = turns.count(_ > 45.0))
  }
}
