package repro.core

import java.util.Arrays
import org.apache.spark.sql.{DataFrame, functions => F}
import repro.geo.LatLng
import repro.h3.HexGrid

/** The weighted maritime-network graph of paper §3.2, assembled from the
  * CellStats aggregates. Nodes are H3 cells carrying median position and
  * traffic counts; directed edges carry distinct-trip transition counts
  * and the hex distance between the two cells.
  */
final case class GraphNode(cell: Long, medLat: Double, medLon: Double,
                           cnt: Long, vessels: Long)
final case class GraphEdge(from: Long, to: Long, transitions: Long, dist: Int)

/** Stored as int-indexed arrays. Node `i` is the cell `ids(i)` (ids
  * sorted, so a binary search maps a cell to its index); its out-edges
  * are the CSR slots `off(i) until off(i + 1)` of `tgt` (target index),
  * `transitions`, `dist` and `cost` (the A* edge cost), ordered by target
  * index. The order is canonical: it does not depend on how the edge rows
  * arrived, so A*'s choice among equal-cost paths does not either.
  */
final class MotionGraph private (val res: Int, c: MotionGraph.Columns) extends Serializable {

  private[core] val ids: Array[Long]           = c.ids
  private[core] val medLat: Array[Double]      = c.medLat
  private[core] val medLon: Array[Double]      = c.medLon
  private[core] val cnt: Array[Long]           = c.cnt
  private[core] val vessels: Array[Long]       = c.vessels
  private[core] val off: Array[Int]            = c.off
  private[core] val tgt: Array[Int]            = c.tgt
  private[core] val transitions: Array[Long]   = c.transitions
  private[core] val dist: Array[Int]           = c.dist
  private[core] val cost: Array[Double]        =
    Array.tabulate(tgt.length)(k => AStar.edgeCost(transitions(k), dist(k)))
  // Axial coordinates of each node, for the A* heuristic.
  private[core] val q: Array[Int] = ids.map(HexGrid.axialQ)
  private[core] val r: Array[Int] = ids.map(HexGrid.axialR)

  /** A graph from node and adjacency maps (hand-built graphs). Edges whose
    * endpoints are not nodes are dropped, as in [[MotionGraph.fromTables]].
    */
  def this(res: Int, nodes: Map[Long, GraphNode], adjacency: Map[Long, IndexedSeq[GraphEdge]]) =
    this(res, MotionGraph.columns(nodes.values.toArray, adjacency.valuesIterator.flatten.toArray))

  def edgeCount: Int = tgt.length
  def nodeCount: Int = ids.length

  /** Index of `cell`, or a negative number if it is not a node. */
  def indexOf(cell: Long): Int = Arrays.binarySearch(ids, cell)

  /** Read-only map views of the nodes and of the non-empty adjacency
    * lists, built on first use.
    */
  lazy val nodes: Map[Long, GraphNode] =
    ids.indices.iterator.map(i => ids(i) -> GraphNode(ids(i), medLat(i), medLon(i), cnt(i), vessels(i))).toMap
  lazy val adjacency: Map[Long, IndexedSeq[GraphEdge]] =
    ids.indices.iterator.filter(i => off(i + 1) > off(i)).map { i =>
      ids(i) -> (off(i) until off(i + 1)).map(k => GraphEdge(ids(i), ids(tgt(k)), transitions(k), dist(k)))
    }.toMap

  /** Median-based coordinates of a cell (projection p = w), falling back
    * to the geometric center for cells without statistics.
    */
  def medianLatLng(cell: Long): LatLng = {
    val i = indexOf(cell)
    if (i >= 0) LatLng(medLat(i), medLon(i)) else HexGrid.cellCenter(cell)
  }

  /** Nearest graph node to `cell`: expanding k-ring search (cheap, local),
    * falling back to a full scan by hex distance for far-off cells. Ties go
    * to the smallest cell id in both.
    */
  def nearestNode(cell: Long, maxRing: Int = 16): Option[Long] = {
    val i = nearestIndex(cell, maxRing)
    if (i < 0) None else Some(ids(i))
  }

  /** Index of the node [[nearestNode]] picks; -1 on an empty graph. */
  def nearestIndex(cell: Long, maxRing: Int = 16): Int = {
    val self = indexOf(cell)
    if (self >= 0) return self
    var k = 1
    while (k <= maxRing) {
      var best = -1
      for (c <- HexGrid.ring(cell, k)) {
        val i = indexOf(c)
        if (i >= 0 && (best < 0 || i < best)) best = i
      }
      if (best >= 0) return best
      k += 1
    }
    // Full scan; `minBy` keeps the first, so the smallest id, among ties.
    if (ids.isEmpty) -1 else ids.indices.minBy(i => HexGrid.gridDistance(cell, ids(i)))
  }

  /** Serialized footprint in bytes — the Table 2 storage metric. */
  def serializedSizeBytes: Long = {
    val bos = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(bos)
    // Serialize as flat primitive arrays: measures the information content
    // of the framework rather than JVM map overhead.
    oos.writeObject(ids); oos.writeObject(medLat)
    oos.writeObject(medLon); oos.writeObject(cnt)
    oos.writeObject(vessels)
    val from = new Array[Long](tgt.length)
    for (i <- ids.indices; k <- off(i) until off(i + 1)) from(k) = ids(i)
    oos.writeObject(from); oos.writeObject(tgt.map(ids(_)))
    oos.writeObject(transitions); oos.writeObject(dist)
    oos.close()
    bos.size().toLong
  }
}

object MotionGraph {

  /** The stored arrays of a graph, before the derived ones. */
  private[core] final class Columns(val ids: Array[Long], val medLat: Array[Double], val medLon: Array[Double],
                              val cnt: Array[Long], val vessels: Array[Long],
                              val off: Array[Int], val tgt: Array[Int],
                              val transitions: Array[Long], val dist: Array[Int])

  /** Build from segmented trips via the CellStats dataflow (distributed
    * aggregation, then collect of the small aggregate — mirrors the
    * paper's DuckDB-aggregate → NetworkX-graph split).
    */
  def build(trips: DataFrame, res: Int, exact: Boolean = false): MotionGraph = {
    fromTables(CellStats.cellTable(trips, res, exact),
               CellStats.edgeTable(trips, res, exact), res)
  }

  /** Assemble a graph from already-computed cell/edge aggregate tables.
    * Both are collected in one Spark job, a union of the node and edge
    * rows told apart by a tag, so their shuffle stages run side by side.
    */
  def fromTables(cellDf: DataFrame, edgeDf: DataFrame, res: Int): MotionGraph = {
    val nodeRows = cellDf.select(F.lit(false).as("edge"), F.col("cl").as("cell"),
      F.col("med_lat"), F.col("med_lon"), F.col("cnt"), F.col("vessels"))
    val edgeRows = edgeDf.select(F.lit(true).as("edge"), F.col("lag_cl").as("cell"), F.col("cl").as("to"),
      F.col("transitions").as("cnt"), F.col("dist"))
    val (e, n) = nodeRows.unionByName(edgeRows, allowMissingColumns = true)
      .select("edge", "cell", "to", "med_lat", "med_lon", "cnt", "vessels", "dist")
      .collect().partition(_.getBoolean(0))
    new MotionGraph(res, assemble(
      n.map(_.getLong(1)), n.map(_.getDouble(3)), n.map(_.getDouble(4)), n.map(_.getLong(5)), n.map(_.getLong(6)),
      e.map(_.getLong(1)), e.map(_.getLong(2)), e.map(_.getLong(5)), e.map(_.getInt(7))))
  }

  private def columns(ns: Array[GraphNode], es: Array[GraphEdge]): Columns =
    assemble(ns.map(_.cell), ns.map(_.medLat), ns.map(_.medLon), ns.map(_.cnt), ns.map(_.vessels),
             es.map(_.from), es.map(_.to), es.map(_.transitions), es.map(_.dist))

  /** Node and edge rows in any order → sorted nodes and CSR edges, each
    * node's edges ordered by target index (edges with the same source and
    * target keep their arrival order); edges whose endpoints are not nodes
    * are dropped.
    */
  private def assemble(cells: Array[Long], lat: Array[Double], lon: Array[Double],
                       cnt: Array[Long], vessels: Array[Long],
                       from: Array[Long], to: Array[Long], trans: Array[Long], dist: Array[Int]): Columns = {
    val n = cells.length
    val ids = cells.clone()
    Arrays.sort(ids)
    for (i <- 1 until n) require(ids(i) != ids(i - 1), s"duplicate node ${ids(i)}")
    val (sLat, sLon) = (new Array[Double](n), new Array[Double](n))
    val (sCnt, sVes) = (new Array[Long](n), new Array[Long](n))
    var i = 0
    while (i < n) {
      val j = Arrays.binarySearch(ids, cells(i))
      sLat(j) = lat(i); sLon(j) = lon(i); sCnt(j) = cnt(i); sVes(j) = vessels(i)
      i += 1
    }
    // Keep only edges whose endpoints have node statistics.
    val m = from.length
    val src = new Array[Int](m); val dst = new Array[Int](m)
    val off = new Array[Int](n + 1)
    var k = 0
    while (k < m) {
      src(k) = Arrays.binarySearch(ids, from(k)); dst(k) = Arrays.binarySearch(ids, to(k))
      if (src(k) >= 0 && dst(k) >= 0) off(src(k) + 1) += 1 else src(k) = -1
      k += 1
    }
    i = 0
    while (i < n) { off(i + 1) += off(i); i += 1 }
    val kept = off(n)
    // Filling the CSR slots in target order (a stable sort) leaves each
    // node's edges ordered by target.
    val order = (0 until m).filter(src(_) >= 0).sortBy(dst(_))
    val (tgt, sTrans, sDist) = (new Array[Int](kept), new Array[Long](kept), new Array[Int](kept))
    val fill = Arrays.copyOf(off, n)
    for (e <- order) {
      val slot = fill(src(e)); fill(src(e)) += 1
      tgt(slot) = dst(e); sTrans(slot) = trans(e); sDist(slot) = dist(e)
    }
    new Columns(ids, sLat, sLon, sCnt, sVes, off, tgt, sTrans, sDist)
  }
}
