package repro.baselines

import repro.core.Search
import repro.geo.{EndpointFilter, Geo, LatLng}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** Reimplementation of GTI (Isufaj et al., SIGSPATIAL 2023) — the paper's
  * state-of-the-art competitor. GTI is network-agnostic: it builds a
  * directed graph whose nodes are the raw training-trajectory points,
  * with edges (a) between consecutive points of the same trajectory and
  * (b) between points of different trajectories within the two radius
  * parameters — `rm` meters and `rd` degrees — and imputes a gap as the
  * Dijkstra shortest path (in meters) between the nodes nearest to the
  * gap endpoints. The edges are stored in CSR form: the out-edges of point
  * `u` are the slots `off(u) until off(u + 1)` of `tgt` and `cost`.
  *
  * Per-point cross-trajectory edges are capped (`MaxCross`) so dense lanes
  * stay computable at bench scale; the cap is far above what the sparse
  * configurations produce, so the paper's size-vs-rd explosion (Table 2)
  * is preserved. `buckets` holds the indices of the points in each rd × rd
  * bucket, in index order: the build finds cross edges with it, and
  * snapping searches it.
  */
final class GTI private (lats: Array[Double], lons: Array[Double],
                         off: Array[Int], tgt: Array[Int], cost: Array[Double],
                         rdDeg: Double, buckets: GTI.Buckets) extends Serializable {

  private val cosLat: Array[Double] = lats.map(lat => math.cos(Geo.toRad(lat)))
  private val maxAbsLat: Double = lats.foldLeft(0.0)((m, lat) => math.max(m, math.abs(lat)))

  def nodeCount: Int = lats.length
  def edgeCount: Int = tgt.length

  /** Serialized footprint in bytes — the Table 2 storage metric. */
  def serializedSizeBytes: Long = {
    val bos = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(bos)
    // One array per point's edge targets and costs.
    val ends = off.indices.drop(1)
    oos.writeObject(lats); oos.writeObject(lons)
    oos.writeObject(ends.map(u => java.util.Arrays.copyOfRange(tgt, off(u - 1), off(u))).toArray)
    oos.writeObject(ends.map(u => java.util.Arrays.copyOfRange(cost, off(u - 1), off(u))).toArray)
    oos.close()
    bos.size().toLong
  }

  /** Index of the training point nearest to `p`, the least index among
    * ties: expanding rings of buckets (ring k holds the buckets at Chebyshev
    * distance k), while the least distance a ring's points can have, that
    * of (k - 1)·rd degrees of longitude on the parallel of the largest |lat|,
    * does not exceed the best found (DESIGN.md item 12). Only buckets that
    * hold points are visited: a bucket row joins when the rings reach it,
    * at the slot where column br would sort, and from then on each ring
    * takes the next slot on either side while its column is within reach.
    */
  def nearestNode(p: LatLng): Int = {
    val bq = GTI.bucketOf(p.lat, rdDeg); val br = GTI.bucketOf(p.lon, rdDeg)
    val cosP = math.cos(Geo.toRad(p.lat))
    val farLat = math.max(maxAbsLat, math.abs(p.lat))
    var best = -1; var bestD = Double.PositiveInfinity
    def visit(b: Int): Unit = {
      var k = buckets.start(b)
      while (k < buckets.start(b + 1)) {
        val i = buckets.points(k)
        val d = Geo.haversineM(p.lat, p.lon, cosP, lats(i), lons(i), cosLat(i))
        if (d < bestD || (d == bestD && i < best)) { bestD = d; best = i }
        k += 1
      }
    }
    val rows = buckets.rows
    // The next row to join above and below.
    var up = java.util.Arrays.binarySearch(rows, bq)
    if (up < 0) up = -up - 1
    var down = up - 1
    // Rows joined and not used up: the row, and its next unvisited slot
    // on the left (-1 when none is left) and on the right (likewise).
    var row = new Array[Int](8); var left = new Array[Int](8); var right = new Array[Int](8)
    var open = 0
    def join(w: Int): Unit = {
      if (open == row.length) {
        row = java.util.Arrays.copyOf(row, 2 * open)
        left = java.util.Arrays.copyOf(left, 2 * open); right = java.util.Arrays.copyOf(right, 2 * open)
      }
      val at = buckets.ceiling(w, br)
      row(open) = w
      left(open) = if (at > buckets.rowStart(w)) at - 1 else -1
      right(open) = if (at < buckets.rowStart(w + 1)) at else -1
      open += 1
    }
    var ring = 0
    while (ring < 1000 && (best < 0 || Geo.haversineM(farLat, 0.0, farLat, (ring - 1) * rdDeg) <= bestD) &&
           (best < 0 || open > 0 || up < rows.length || down >= 0)) {
      if (up < rows.length && rows(up) == bq + ring) { join(up); up += 1 }
      if (ring > 0 && down >= 0 && rows(down) == bq - ring) { join(down); down -= 1 }
      var a = 0
      while (a < open) {
        val w = row(a)
        while (left(a) >= 0 && buckets.column(left(a)) >= br - ring) {
          visit(left(a))
          left(a) = if (left(a) > buckets.rowStart(w)) left(a) - 1 else -1
        }
        while (right(a) >= 0 && buckets.column(right(a)) <= br + ring) {
          visit(right(a))
          right(a) = if (right(a) + 1 < buckets.rowStart(w + 1)) right(a) + 1 else -1
        }
        if (left(a) < 0 && right(a) < 0) {
          open -= 1
          row(a) = row(open); left(a) = left(open); right(a) = right(open)
        } else a += 1
      }
      ring += 1
    }
    if (ring < 1000) best
    // Degenerate fallback: full scan; `minBy` keeps the least index among ties.
    else (0 until lats.length).minBy(i => Geo.haversineM(p.lat, p.lon, cosP, lats(i), lons(i), cosLat(i)))
  }

  /** Impute the gap between `from` and `to`: Dijkstra over the point graph
    * (cost in meters), guided by the straight-line distance to the goal;
    * straight segment if no path exists.
    */
  def impute(from: LatLng, to: LatLng): IndexedSeq[LatLng] =
    shortestPath(nearestNode(from), nearestNode(to)) match {
      case Some(path) =>
        val ends = new EndpointFilter(from, to)
        val out = ArraySeq.newBuilder[LatLng]
        out += from
        for (i <- path if ends.keeps(lats(i), lons(i))) out += LatLng(lats(i), lons(i))
        out += to
        out.result()
      case None => IndexedSeq(from, to)
    }

  /** Point indices of the least-cost path from `s` to `g`. */
  private[baselines] def shortestPath(s: Int, g: Int): Option[Array[Int]] = {
    // A*-style lower bound (straight-line meters to goal) keeps Dijkstra
    // from flooding the whole point graph on long lanes.
    val (gLat, gLon, gCos) = (lats(g), lons(g), cosLat(g))
    Search.aStar(off, tgt, cost, i => Geo.haversineM(lats(i), lons(i), cosLat(i), gLat, gLon, gCos), s, g)
  }

  /** Out-edges of point `u` as (target, cost), in stored order. */
  private[baselines] def edges(u: Int): IndexedSeq[(Int, Double)] =
    (off(u) until off(u + 1)).map(k => (tgt(k), cost(k)))

  private[baselines] def point(i: Int): LatLng = LatLng(lats(i), lons(i))
}

object GTI {
  /** Cross-trajectory edges kept per point, the nearest first. */
  private val MaxCross = 16

  /** The bucket row (of a latitude) or column (of a longitude). */
  private def bucketOf(deg: Double, rd: Double): Long = math.floor(deg / rd).toLong

  /** The rd × rd buckets that hold points, in the way `MotionGraph` stores
    * its cells: the buckets' packed (row, column) keys sorted, and the
    * points of the bucket in slot b at `points(start(b) until start(b + 1))`,
    * in index order. Keys sort by row, then column. The distinct rows are
    * `rows`, and the slots of row `rows(w)` are `rowStart(w) until
    * rowStart(w + 1)`.
    */
  private final class Buckets(keys: Array[Long], val start: Array[Int], val points: Array[Int])
      extends Serializable {
    val rowStart: Array[Int] = keys.indices.filter(b => b == 0 || row(b) != row(b - 1)).toArray :+ keys.length
    val rows: Array[Long] = rowStart.init.map(row)

    def row(b: Int): Long = keys(b) >> 32
    def column(b: Int): Long = (keys(b) & 0xFFFFFFFFL) + Int.MinValue

    /** The slot of bucket (q, r), -1 when no point lies in it. */
    def slot(q: Long, r: Long): Int =
      if (q != q.toInt || r != r.toInt) -1
      else math.max(-1, java.util.Arrays.binarySearch(keys, pack(q, r)))

    /** The first slot of row `rows(w)` whose column is at least r, or
      * `rowStart(w + 1)` when there is none.
      */
    def ceiling(w: Int, r: Long): Int = {
      val from = rowStart(w); val until = rowStart(w + 1)
      if (r > Int.MaxValue) until
      else if (r < Int.MinValue) from
      else {
        val at = java.util.Arrays.binarySearch(keys, from, until, pack(rows(w), r))
        if (at >= 0) at else -at - 1
      }
    }
  }

  /** (row, column) packed so that keys sort by row, then by column. */
  private def pack(q: Long, r: Long): Long = (q << 32) | ((r - Int.MinValue) & 0xFFFFFFFFL)

  private def buckets(lats: Array[Double], lons: Array[Double], rd: Double): Buckets = {
    val key = Array.tabulate(lats.length) { i =>
      val q = bucketOf(lats(i), rd); val r = bucketOf(lons(i), rd)
      require(q == q.toInt && r == r.toInt, s"rd = $rd degrees is too fine to number the buckets")
      pack(q, r)
    }
    // A stable sort by key keeps each bucket's points in index order.
    val points = key.indices.sortBy(key(_)).toArray
    val first = points.indices.filter(k => k == 0 || key(points(k)) != key(points(k - 1))).toArray
    new Buckets(first.map(k => key(points(k))), first :+ points.length, points)
  }

  /** Build a GTI model from training trips: each trip is an ordered point
    * sequence (the harness supplies them post-segmentation).
    */
  def build(trips: Seq[IndexedSeq[LatLng]], rmM: Double, rdDeg: Double): GTI = {
    val pts  = trips.flatten.toIndexedSeq
    val lats = pts.map(_.lat).toArray
    val lons = pts.map(_.lon).toArray
    val n    = pts.size
    val adj  = Array.fill(n)(mutable.ArrayBuffer.empty[(Int, Double)])

    // (a) consecutive-in-trajectory edges. Both directions are added: the
    // lanes are sailed both ways, and with our sparser synthetic sampling a
    // direction-restricted graph would disconnect where the real data's
    // density keeps it connected (see DESIGN.md).
    var base = 0
    for (t <- trips) {
      var i = 0
      while (i < t.size - 1) {
        val d = Geo.haversineM(t(i), t(i + 1))
        adj(base + i) += ((base + i + 1, d))
        adj(base + i + 1) += ((base + i, d))
        i += 1
      }
      base += t.size
    }

    // (b) cross-trajectory proximity edges within rd degrees and rm meters.
    val index = buckets(lats, lons, rdDeg)
    for (i <- 0 until n) {
      val bq = bucketOf(lats(i), rdDeg); val br = bucketOf(lons(i), rdDeg)
      val cands = mutable.ArrayBuffer.empty[(Int, Double)]
      var dq = -1
      while (dq <= 1) {
        var dr = -1
        while (dr <= 1) {
          val b = index.slot(bq + dq, br + dr)
          if (b >= 0) for (k <- index.start(b) until index.start(b + 1)) {
            val j = index.points(k)
            if (j != i && math.abs(lats(j) - lats(i)) <= rdDeg && math.abs(lons(j) - lons(i)) <= rdDeg) {
              val d = Geo.haversineM(pts(i), pts(j))
              if (d <= rmM) cands += ((j, d))
            }
          }
          dr += 1
        }
        dq += 1
      }
      adj(i) ++= cands.sortBy(_._2).take(MaxCross)
    }
    val off = adj.scanLeft(0)(_ + _.size)
    val es  = adj.flatten
    new GTI(lats, lons, off, es.map(_._1), es.map(_._2), rdDeg, index)
  }
}
