package repro.h3

import org.apache.spark.sql.expressions.UserDefinedFunction
import org.apache.spark.sql.functions
import repro.geo.{Geo, LatLng}

/** Hexagonal spatial index standing in for Uber's H3 (no H3 jar is
  * available offline — substitution documented in DESIGN.md).
  *
  * Points are projected with the sinusoidal equal-area projection
  * (x = R·λ·cos φ, y = R·φ) and binned into a pointy-top hexagonal grid in
  * axial coordinates. Per-resolution average edge lengths are matched to
  * H3: res 6 = 3724.6 m and an aperture-7 step (edge shrinks by √7 per
  * resolution), so cell areas per resolution equal H3's averages and the
  * paper's r ∈ {6..10} sweep keeps its meaning.
  *
  * Cell ids are 64-bit longs encoding (resolution, q, r); `gridDistance`
  * is the standard axial hex distance, the analogue of h3_grid_distance.
  * Sorted ids run column by column (q), each column sorted by r; the
  * nearest-node snap (`MotionGraph.nearestIndex`) scans those columns.
  */
object HexGrid {
  /** Average hex edge length in meters at resolution `res` (H3-matched). */
  def edgeM(res: Int): Double = {
    require(res >= 0 && res <= 15, s"resolution out of range: $res")
    3724.6 * math.pow(math.sqrt(7.0), 6.0 - res)
  }

  private val Offset  = 1 << 23            // axial coords stored offset-binary in 24 bits
  private val Mask24  = (1L << 24) - 1
  val MaxAxial: Int   = Offset - 1         // the largest |q| or |r| a cell id holds

  /** Pack (res, q, r) into a cell id. Ids sort by (res, q, r). */
  def encode(res: Int, q: Int, r: Int): Long = {
    require(math.abs(q) <= MaxAxial && math.abs(r) <= MaxAxial, s"axial coord overflow: ($q,$r)")
    (res.toLong << 48) | ((q + Offset).toLong << 24) | (r + Offset).toLong
  }

  def resolution(cell: Long): Int = (cell >> 48).toInt
  def axialQ(cell: Long): Int     = ((cell >> 24) & Mask24).toInt - Offset
  def axialR(cell: Long): Int     = (cell & Mask24).toInt - Offset

  /** Sinusoidal forward projection to meters. */
  private[h3] def project(p: LatLng): (Double, Double) = {
    val phi = Geo.toRad(p.lat)
    (Geo.EarthRadiusM * Geo.toRad(p.lon) * math.cos(phi), Geo.EarthRadiusM * phi)
  }

  /** Sinusoidal inverse projection. */
  private[h3] def unproject(x: Double, y: Double): LatLng = {
    val phi = y / Geo.EarthRadiusM
    val cos = math.cos(phi)
    val lam = if (math.abs(cos) < 1e-12) 0.0 else x / (Geo.EarthRadiusM * cos)
    LatLng(Geo.toDeg(phi), Geo.toDeg(lam))
  }

  /** Assign a position to its cell at `res` (analogue of latLngToCell).
    * Rejects a NaN or infinite coordinate, |lat| > 90 and |lon| > 180:
    * `math.round(NaN)` is 0, so a NaN would otherwise land in cell (0, 0).
    */
  def latLngToCell(p: LatLng, res: Int): Long = {
    require(math.abs(p.lat) <= 90.0 && math.abs(p.lon) <= 180.0,
      s"latLngToCell: non-finite or out-of-range position $p")
    val s        = edgeM(res)
    val (x, y)   = project(p)
    val qf       = (math.sqrt(3.0) / 3.0 * x - y / 3.0) / s
    val rf       = (2.0 / 3.0 * y) / s
    val (q, r)   = cubeRound(qf, rf)
    encode(res, q, r)
  }

  /** [[latLngToCell]] as a Spark column function: `cellOf(lat, lon, res)`.
    * Lazy, so callers that never touch Spark do not build it.
    */
  lazy val cellOf: UserDefinedFunction =
    functions.udf((lat: Double, lon: Double, res: Int) => latLngToCell(LatLng(lat, lon), res))

  /** Geometric center of a cell (analogue of cellToLatLng). */
  def cellCenter(cell: Long): LatLng = {
    val s = edgeM(resolution(cell))
    val q = axialQ(cell).toDouble; val r = axialR(cell).toDouble
    unproject(s * math.sqrt(3.0) * (q + r / 2.0), s * 1.5 * r)
  }

  /** Hex distance in cells between two cells of the same resolution
    * (analogue of h3_grid_distance).
    */
  def gridDistance(a: Long, b: Long): Int = {
    require(resolution(a) == resolution(b), "gridDistance across resolutions")
    axialDistance(axialQ(a) - axialQ(b), axialR(a) - axialR(b))
  }

  /** Hex distance in cells of the axial offset (dq, dr). */
  def axialDistance(dq: Int, dr: Int): Int =
    (math.abs(dq) + math.abs(dr) + math.abs(dq + dr)) / 2

  private def cubeRound(qf: Double, rf: Double): (Int, Int) = {
    val sf = -qf - rf
    var q  = math.round(qf).toInt
    var r  = math.round(rf).toInt
    val s  = math.round(sf).toInt
    val (dq, dr, ds) = (math.abs(q - qf), math.abs(r - rf), math.abs(s - sf))
    if (dq > dr && dq > ds) q = -r - s
    else if (dr > ds) r = -q - s
    (q, r)
  }
}
