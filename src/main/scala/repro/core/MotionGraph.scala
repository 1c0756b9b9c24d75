package repro.core

import org.apache.spark.sql.DataFrame
import repro.geo.LatLng
import repro.h3.HexGrid
import scala.collection.mutable

/** The weighted maritime-network graph of paper §3.2, assembled from the
  * CellStats aggregates. Nodes are H3 cells carrying median position and
  * traffic counts; directed edges carry distinct-trip transition counts
  * and the hex distance between the two cells.
  */
final case class GraphNode(cell: Long, medLat: Double, medLon: Double,
                           cnt: Long, vessels: Long)
final case class GraphEdge(from: Long, to: Long, transitions: Long, dist: Int)

final class MotionGraph(val res: Int,
                        val nodes: Map[Long, GraphNode],
                        val adjacency: Map[Long, IndexedSeq[GraphEdge]]) extends Serializable {

  def edgeCount: Int = adjacency.valuesIterator.map(_.size).sum
  def nodeCount: Int = nodes.size

  /** Median-based coordinates of a cell (projection p = w), falling back
    * to the geometric center for cells without statistics.
    */
  def medianLatLng(cell: Long): LatLng =
    nodes.get(cell).map(n => LatLng(n.medLat, n.medLon)).getOrElse(HexGrid.cellCenter(cell))

  /** Nearest graph node to `cell`: expanding k-ring search (cheap, local),
    * falling back to a full scan by hex distance for far-off cells.
    */
  def nearestNode(cell: Long, maxRing: Int = 16): Option[Long] = {
    if (nodes.contains(cell)) return Some(cell)
    var k = 1
    while (k <= maxRing) {
      val hits = HexGrid.ring(cell, k).filter(nodes.contains)
      if (hits.nonEmpty) return Some(hits.min)
      k += 1
    }
    if (nodes.isEmpty) None
    else Some(nodes.keysIterator.minBy(c => HexGrid.gridDistance(cell, c)))
  }

  /** Serialized footprint in bytes — the Table 2 storage metric. */
  def serializedSizeBytes: Long = {
    val bos = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(bos)
    // Serialize as flat primitive arrays: measures the information content
    // of the framework rather than JVM map overhead.
    val ns = nodes.values.toArray
    oos.writeObject(ns.map(_.cell)); oos.writeObject(ns.map(_.medLat))
    oos.writeObject(ns.map(_.medLon)); oos.writeObject(ns.map(_.cnt))
    oos.writeObject(ns.map(_.vessels))
    val es = adjacency.values.flatten.toArray
    oos.writeObject(es.map(_.from)); oos.writeObject(es.map(_.to))
    oos.writeObject(es.map(_.transitions)); oos.writeObject(es.map(_.dist))
    oos.close()
    bos.size().toLong
  }
}

object MotionGraph {

  /** Build from segmented trips via the CellStats dataflow (distributed
    * aggregation, then collect of the small aggregate — mirrors the
    * paper's DuckDB-aggregate → NetworkX-graph split).
    */
  def build(trips: DataFrame, res: Int, exact: Boolean = false): MotionGraph = {
    fromTables(CellStats.cellTable(trips, res, exact),
               CellStats.edgeTable(trips, res, exact), res)
  }

  /** Assemble a graph from already-computed cell/edge aggregate tables. */
  def fromTables(cellDf: DataFrame, edgeDf: DataFrame, res: Int): MotionGraph = {
    val nodes = cellDf.select("cl", "med_lat", "med_lon", "cnt", "vessels")
      .collect().map { r =>
        val n = GraphNode(r.getLong(0), r.getDouble(1), r.getDouble(2), r.getLong(3), r.getLong(4))
        n.cell -> n
      }.toMap
    val adj = mutable.Map.empty[Long, mutable.ArrayBuffer[GraphEdge]]
    edgeDf.select("lag_cl", "cl", "transitions", "dist").collect().foreach { r =>
      val e = GraphEdge(r.getLong(0), r.getLong(1), r.getLong(2), r.getInt(3))
      // Keep only edges whose endpoints have node statistics.
      if (nodes.contains(e.from) && nodes.contains(e.to))
        adj.getOrElseUpdate(e.from, mutable.ArrayBuffer.empty) += e
    }
    new MotionGraph(res, nodes, adj.view.mapValues(_.toIndexedSeq).toMap)
  }
}
