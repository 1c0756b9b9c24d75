package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{AStar, GraphEdge, GraphNode, MotionGraph, ReferenceAStar, ReferenceSnap, Search}
import repro.eval.DTW
import repro.geo.{Geo, LatLng, RDP}
import repro.h3.{HexGrid, Rings}
import scala.collection.mutable
import scala.util.Random

/** Randomized property tests (seeded, deterministic) for the pure-Scala
  * substrates: A* optimality against a reference Dijkstra, RDP and DTW
  * invariants, and hex-grid geometry under random inputs.
  */
class PropertySpec extends AnyFunSuite {

  // --- A* vs reference Dijkstra on random graphs -------------------------

  private def randomGraph(rnd: Random, n: Int): MotionGraph = {
    val res   = 8
    val cells = (0 until n).map(_ => HexGrid.encode(res, rnd.nextInt(30), rnd.nextInt(30))).distinct
    val nodes = cells.map { c =>
      val p = HexGrid.cellCenter(c)
      GraphNode(c, p.lat, p.lon, 1 + rnd.nextInt(100), 1 + rnd.nextInt(5))
    }
    val edges = (0 until n * 3).map { _ =>
      val a = cells(rnd.nextInt(cells.size)); val b = cells(rnd.nextInt(cells.size))
      GraphEdge(a, b, 1 + rnd.nextInt(50))
    }.filter(e => e.from != e.to)
    MotionGraph(res, nodes, edges)
  }

  private def referenceDijkstra(g: MotionGraph, s: Long, t: Long): Option[Double] = {
    val dist = mutable.Map(s -> 0.0)
    val done = mutable.Set.empty[Long]
    val pq = mutable.PriorityQueue((s, 0.0))(Ordering.by[(Long, Double), Double](_._2).reverse)
    while (pq.nonEmpty) {
      val (u, du) = pq.dequeue()
      if (u == t) return Some(du)
      if (!done(u)) {
        done += u
        for (e <- g.adjacency.getOrElse(u, IndexedSeq.empty)) {
          val nd = du + AStar.edgeCost(e)
          if (nd < dist.getOrElse(e.to, Double.PositiveInfinity)) {
            dist(e.to) = nd; pq.enqueue((e.to, nd))
          }
        }
      }
    }
    None
  }

  test("A* path cost equals reference Dijkstra cost on 40 random graphs") {
    val rnd = new Random(101)
    for (trial <- 1 to 40) {
      val g = randomGraph(rnd, 30)
      val cells = g.nodes.keys.toIndexedSeq
      val s = cells(rnd.nextInt(cells.size)); val t = cells(rnd.nextInt(cells.size))
      val ref = referenceDijkstra(g, s, t)
      val got = AStar.shortestPath(g, s, t)
      assert(got.isDefined == ref.isDefined, s"trial $trial reachability mismatch")
      for (path <- got) {
        val cost = path.sliding(2).collect { case Seq(a, b) =>
          AStar.edgeCost(g.adjacency(a).filter(_.to == b).minBy(AStar.edgeCost))
        }.sum
        assert(math.abs(cost - ref.get) < 1e-9, s"trial $trial: A* $cost vs Dijkstra ${ref.get}")
      }
    }
  }

  test("A* paths equal the reference boxed A* paths on 40 random graphs") {
    val rnd = new Random(112)
    for (trial <- 1 to 40) {
      val g = randomGraph(rnd, 30)
      val cells = g.nodes.keys.toIndexedSeq
      for (s <- cells; t <- cells)
        assert(AStar.shortestPath(g, s, t) == ReferenceAStar.shortestPath(g, s, t, AStar.lowerBound(g, t)),
          s"trial $trial: $s -> $t")
    }
  }

  test("the A* heuristic is admissible: at most the reference Dijkstra cost, +∞ only if unreachable") {
    val rnd = new Random(114)
    var (proven, unreachable) = (0, 0)
    for (trial <- 1 to 40) {
      val g = randomGraph(rnd, 30)
      val cells = g.nodes.keys.toIndexedSeq
      for (t <- cells; h = AStar.lowerBound(g, t); v <- cells) {
        referenceDijkstra(g, v, t) match {
          case Some(d) => assert(h(v) <= d, s"trial $trial: h = ${h(v)} > d = $d for $v -> $t")
          case None =>
            unreachable += 1
            if (h(v) == Double.PositiveInfinity) proven += 1
        }
      }
    }
    // The landmarks prove most unreachable pairs of these random graphs.
    assert(proven > unreachable / 2, s"$proven of $unreachable unreachable pairs proven")
  }

  test("the A* heuristic is consistent: h(u) <= cost(u, v) + h(v) on every edge") {
    val rnd = new Random(115)
    for (trial <- 1 to 40) {
      val g = randomGraph(rnd, 30)
      for (t <- g.nodes.keys; h = AStar.lowerBound(g, t); e <- g.adjacency.values.flatten)
        // The tolerance covers the rounding of the table differences (DESIGN.md item 9).
        assert(h(e.from) <= AStar.edgeCost(e) + h(e.to) + 1e-12,
          s"trial $trial: ${h(e.from)} > ${AStar.edgeCost(e)} + ${h(e.to)} on $e toward $t")
    }
  }

  test("a pair the landmarks prove unreachable returns None with zero nodes expanded") {
    val rnd = new Random(116)
    var proven = 0
    for (_ <- 1 to 20) {
      val g = randomGraph(rnd, 30)
      val cells = g.nodes.keys.toIndexedSeq
      for (t <- cells; h = AStar.lowerBound(g, t); s <- cells if s != t && h(s) == Double.PositiveInfinity) {
        assert(AStar.shortestPath(g, s, t).isEmpty && Search.lastExpanded == 0, s"$s -> $t")
        proven += 1
      }
    }
    assert(proven > 0)
  }

  test("A* paths traverse only existing edges") {
    val rnd = new Random(102)
    for (_ <- 1 to 20) {
      val g = randomGraph(rnd, 25)
      val cells = g.nodes.keys.toIndexedSeq
      val p = AStar.shortestPath(g, cells(rnd.nextInt(cells.size)), cells(rnd.nextInt(cells.size)))
      for (path <- p; Seq(a, b) <- path.sliding(2))
        assert(g.adjacency.getOrElse(a, IndexedSeq.empty).exists(_.to == b))
    }
  }

  test("nearestNode is the node at the least hex distance, smallest id first") {
    val rnd = new Random(113)
    var (near, far) = (0, 0)
    for (_ <- 1 to 40) {
      val g = randomGraph(rnd, 30)
      val cells = g.nodes.keys.toIndexedSeq.sorted
      for (_ <- 1 to 50) {
        // A query 0-60 rings from a node, inside the graph's columns or
        // beyond them: the column scan against the exhaustive reference.
        val ring = Rings.ring(cells(rnd.nextInt(cells.size)), rnd.nextInt(61))
        val q = ring(rnd.nextInt(ring.size))
        val want = g.nodes.keys.minBy(c => (HexGrid.gridDistance(q, c), c))
        assert(g.nearestNode(q) == Some(want), s"query $q")
        assert(g.nearestIndex(q) == ReferenceSnap.nearestIndex(g, q), s"query $q")
        if (HexGrid.gridDistance(q, want) > 16) far += 1 else near += 1
      }
    }
    assert(near > 0 && far > 0, s"$near queries within 16 rings, $far beyond")
  }

  // --- RDP invariants ----------------------------------------------------

  private def randomPath(rnd: Random, n: Int): IndexedSeq[LatLng] =
    IndexedSeq.tabulate(n)(i => LatLng(
      55.0 + math.sin(i / 4.0) * 0.05 + rnd.nextGaussian() * 0.003,
      11.0 + i * 0.004))

  test("RDP never increases length and is idempotent at the same tolerance") {
    val rnd = new Random(103)
    for (_ <- 1 to 30) {
      val p = randomPath(rnd, 20 + rnd.nextInt(60))
      val t = 50.0 + rnd.nextDouble() * 900
      val s = RDP.simplify(p, t)
      assert(Geo.pathLengthM(s) <= Geo.pathLengthM(p) + 1e-6)
      assert(RDP.simplify(s, t) == s)
    }
  }

  test("RDP retains the farthest-deviation vertex") {
    val rnd = new Random(104)
    for (_ <- 1 to 30) {
      val p = randomPath(rnd, 40)
      val t = 100.0
      val s = RDP.simplify(p, t)
      if (s.size > 2) {
        // Every kept interior vertex must deviate > t from the chord of its
        // neighbors at some stage; weaker check: simplification changed
        // nothing essential — all dropped points within t of result.
        val maxDev = p.map(q =>
          s.sliding(2).map { case Seq(a, b) => Geo.pointSegmentDistM(q, a, b) }.min).max
        assert(maxDev <= t + 1.0)
      }
    }
  }

  // --- DTW invariants ----------------------------------------------------

  test("DTW is non-negative and zero only for identical paths") {
    val rnd = new Random(105)
    for (_ <- 1 to 25) {
      val a = randomPath(rnd, 10 + rnd.nextInt(20))
      val b = randomPath(rnd, 10 + rnd.nextInt(20))
      assert(DTW.cost(a, a) == 0.0)
      assert(DTW.cost(a, b) >= 0.0)
    }
  }

  test("DTW cost never exceeds worst-case pairing bound") {
    val rnd = new Random(106)
    for (_ <- 1 to 20) {
      val a = randomPath(rnd, 15)
      val b = randomPath(rnd, 15)
      val maxPair = (for (x <- a; y <- b) yield Geo.haversineM(x, y)).max
      assert(DTW.normalized(a, b) <= maxPair + 1e-9)
    }
  }

  test("shifting a path by d meters shifts normalized DTW by at most d") {
    val rnd = new Random(107)
    for (_ <- 1 to 20) {
      val a = randomPath(rnd, 20)
      val d = rnd.nextDouble() * 2000
      val b = a.map(p => Geo.destination(p, 90.0, d))
      assert(DTW.normalized(a, b) <= d + 1.0)
    }
  }

  // --- Hex grid under random inputs --------------------------------------

  test("every point maps into exactly one cell whose center is nearby") {
    val rnd = new Random(108)
    for (_ <- 1 to 300) {
      val p   = LatLng(rnd.nextDouble() * 140 - 70, rnd.nextDouble() * 340 - 170)
      val res = 6 + rnd.nextInt(5)
      val c   = HexGrid.latLngToCell(p, res)
      assert(HexGrid.resolution(c) == res)
      assert(Geo.haversineM(p, HexGrid.cellCenter(c)) <= HexGrid.edgeM(res) * 2.5)
    }
  }

  test("neighboring cells have distinct centers") {
    val rnd = new Random(109)
    for (_ <- 1 to 50) {
      val c = HexGrid.latLngToCell(LatLng(50 + rnd.nextDouble() * 10, 10 + rnd.nextDouble() * 5), 8)
      val centers = (Rings.ring(c, 1) :+ c).map(HexGrid.cellCenter)
      assert(centers.distinct.size == 7)
    }
  }

  test("grid distance approximates metric distance within hex geometry bounds") {
    val rnd = new Random(110)
    for (_ <- 1 to 100) {
      val a = LatLng(54 + rnd.nextDouble() * 3, 10 + rnd.nextDouble() * 3)
      val b = LatLng(54 + rnd.nextDouble() * 3, 10 + rnd.nextDouble() * 3)
      val res = 7
      val gd  = HexGrid.gridDistance(HexGrid.latLngToCell(a, res), HexGrid.latLngToCell(b, res))
      val m   = Geo.haversineM(a, b)
      val w   = HexGrid.edgeM(res) * math.sqrt(3.0) // hex width between flat sides
      // gd * w is within a factor ~2.2 of the metric distance (shear + quantization).
      if (m > 5 * w) {
        assert(gd * w > m / 2.2, s"grid $gd * $w far below metric $m")
        assert(gd * w < m * 2.2, s"grid $gd * $w far above metric $m")
      }
    }
  }

  // --- Generator invariants ---------------------------------------------

  test("trip specs are schedulable: waypoints valid, speeds positive") {
    for (spec <- repro.ais.Datasets.danSpecs(50) ++ repro.ais.Datasets.sarSpecs(50, 20)) {
      assert(spec.wpts.length >= 4 && spec.wpts.length % 2 == 0)
      assert(spec.cruiseKn > 0 && spec.cruiseKn < 35)
      assert(spec.sampleSec > 0)
      assert(spec.dwellBeforeSec > 0 && spec.dwellAfterSec > 0)
      val pts = spec.wpts.grouped(2).map(a => LatLng(a(0), a(1))).toSeq
      assert(pts.forall(p => math.abs(p.lat) <= 90 && math.abs(p.lon) <= 180))
    }
  }

  test("simulated records carry physically plausible fields") {
    val rnd = new Random(111)
    for (spec <- repro.ais.Datasets.sarSpecs(8, 4)) {
      val pts = repro.ais.SynthAIS.simulate(spec.copy(noisy = false))
      assert(pts.nonEmpty)
      pts.foreach { p =>
        assert(p.sog >= 0 && p.sog < 60)
        assert(p.cog >= 0 && p.cog < 360)
        assert(math.abs(p.lat) <= 90 && math.abs(p.lon) <= 180)
      }
    }
  }
}
