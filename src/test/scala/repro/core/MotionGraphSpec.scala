package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.geo.{Geo, LatLng}
import repro.h3.HexGrid
import repro.preprocess.{Cleaner, TripSegmenter}

class MotionGraphSpec extends AnyFunSuite with SparkSpec {

  private lazy val trips = {
    val raw = repro.ais.Datasets.kiel(spark, nTrips = 4)
    TripSegmenter.segment(Cleaner.clean(raw)).cache()
  }
  private lazy val g8 = MotionGraph.build(trips, 8, exact = true)

  test("nodes carry the aggregate attributes") {
    assert(g8.nodeCount > 50)
    assert(g8.nodes.values.forall(n => n.cnt > 0 && n.vessels > 0 && n.vessels <= 2))
  }

  test("every edge endpoint is a known node") {
    assert(g8.adjacency.values.flatten.forall(e =>
      g8.nodes.contains(e.from) && g8.nodes.contains(e.to)))
  }

  test("no self-loop edges") {
    assert(g8.adjacency.values.flatten.forall(e => e.from != e.to))
  }

  test("median node position lies inside its own cell vicinity") {
    g8.nodes.values.foreach { n =>
      val d = Geo.haversineM(LatLng(n.medLat, n.medLon), HexGrid.cellCenter(n.cell))
      assert(d <= HexGrid.edgeM(8) * 1.5, s"median ${d} m from center of its cell")
    }
  }

  test("medianLatLng falls back to the geometric center off-graph") {
    val off = HexGrid.latLngToCell(LatLng(40.0, 5.0), 8)
    assert(g8.medianLatLng(off) == HexGrid.cellCenter(off))
  }

  test("a node's cell is its own nearest node") {
    val any = g8.nodes.keysIterator.next()
    assert(g8.nearestNode(any) == Some(any))
  }

  test("nearestNode snaps an off-route cell to the lane") {
    val lanePoint = LatLng(55.0, 11.05) // on the KIEL lane
    val off = Geo.destination(lanePoint, 90.0, 3000.0)
    val cell = HexGrid.latLngToCell(off, 8)
    val snapped = g8.nearestNode(cell)
    assert(snapped.isDefined)
    val d = Geo.haversineM(HexGrid.cellCenter(snapped.get), off)
    assert(d < 15000, s"snapped $d m away")
  }

  test("nearestNode on an empty graph is None") {
    val empty = MotionGraph(8, Nil, Nil)
    assert(empty.nearestNode(HexGrid.latLngToCell(LatLng(55, 11), 8)).isEmpty)
    assert(empty.nearestIndex(HexGrid.encode(8, 3, -2)) == -1)
  }

  test("nearestNode snaps a cell more than 16 rings from every node") {
    val far = HexGrid.latLngToCell(LatLng(30.0, -40.0), 8)
    assert(g8.nodes.keys.forall(HexGrid.gridDistance(far, _) > 16))
    assert(g8.nearestNode(far).isDefined)
  }

  private def nodesAt(res: Int, cells: Seq[(Int, Int)]): MotionGraph =
    MotionGraph(res, cells.map { case (q, r) => GraphNode(HexGrid.encode(res, q, r), 0.0, 0.0, 1, 1) }, Nil)

  test("a graph of one node snaps every cell to it") {
    val g = nodesAt(9, Seq((5, -7)))
    for ((q, r) <- Seq((5, -7), (5, 40), (-30, -7), (100, -100), (-HexGrid.MaxAxial, HexGrid.MaxAxial)))
      assert(g.nearestIndex(HexGrid.encode(9, q, r)) == 0, s"($q, $r)")
  }

  test("queries at the edges of the axial range snap like the reference") {
    val m = HexGrid.MaxAxial
    val g = nodesAt(9, Seq((0, 0), (3, -2), (-4, 7), (3, 5), (10, -10), (-m, 0), (m, -m)))
    for (q <- Seq(-m, -m + 1, 0, m - 1, m); r <- Seq(-m, -1, 0, 1, m)) {
      val c = HexGrid.encode(9, q, r)
      assert(g.nearestIndex(c) == ReferenceSnap.nearestIndex(g, c), s"($q, $r)")
    }
  }

  test("nearestNode rejects a cell at another resolution") {
    val e = intercept[IllegalArgumentException](g8.nearestNode(HexGrid.latLngToCell(LatLng(55.0, 11.05), 9)))
    assert(e.getMessage.contains("not at the graph's resolution 8"))
  }

  test("graph is deterministic across rebuilds") {
    val g2 = MotionGraph.build(trips, 8, exact = true)
    assert(g2.nodes == g8.nodes)
    assert(g2.adjacency.view.mapValues(_.toSet).toMap ==
      g8.adjacency.view.mapValues(_.toSet).toMap)
  }

  test("resolution is carried through") {
    assert(g8.res == 8)
    assert(MotionGraph.build(trips, 7, exact = true).res == 7)
  }

  test("finer resolutions make bigger graphs (Table 2 trend)") {
    val sizes = Seq(6, 7, 8).map(r => MotionGraph.build(trips, r, exact = true).serializedSizeBytes)
    assert(sizes.zip(sizes.tail).forall { case (a, b) => a < b }, s"sizes $sizes")
  }

  test("serialized size scales with node and edge count") {
    val s = g8.serializedSizeBytes
    assert(s > (g8.nodeCount * 36 + g8.edgeCount * 28).toLong / 2)
    assert(s > 0)
  }

  test("edges follow the sailed lane: endpoints within a few cells") {
    assert(g8.adjacency.values.flatten.forall(e =>
      HexGrid.gridDistance(e.from, e.to) <= 20))
  }

  test("connectivity: a path exists between the two route endpoints") {
    val kielCell = g8.nearestNode(HexGrid.latLngToCell(LatLng(54.32, 10.14), 8)).get
    val gothCell = g8.nearestNode(HexGrid.latLngToCell(LatLng(57.70, 11.97), 8)).get
    assert(AStar.shortestPath(g8, kielCell, gothCell).isDefined)
  }
}
