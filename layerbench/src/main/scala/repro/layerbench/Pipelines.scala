package repro.layerbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.TimeSeriesGen.Dataset
import repro.spark.{SparkApsp, SparkCorrelation, SparkPipeline, SparkTmfg}

/** Intermediate results of a traced iteration, kept to derive the layer
  * counts after the iteration's clock has stopped.
  */
final case class Detail(s: SymMatrix, tmfg: TmfgResult, bubbles: Bubbles, asg: Dbht.Assignments)

/** What one pipeline iteration produced. `numBubbles` is -1 when the
  * entry point does not expose the bubble tree (`SparkPipeline.run`).
  */
final case class Outcome(labels: Array[Int], dendrogram: Dendrogram, graph: WGraph,
                         numBubbles: Int, detail: Option[Detail])

/** The PAR-TDBHT pipeline composed from each layer's public functions,
  * with one span around every call into a layer.
  */
object Pipelines {

  /** Raw series to labels on the thread-pool kernels. */
  def kernel(data: Array[Array[Double]], prefix: Int, k: Int, par: Par, tr: Tracer): Outcome = {
    val s    = tr("correlation.pearson")(Correlation.pearson(data, par))
    val d    = tr("correlation.dissimilarity")(Correlation.dissimilarity(s))
    val res  = tr("tmfg.build")(Tmfg.build(s, prefix, par))
    val apsp = tr("apsp.all_pairs")(Apsp.allPairs(res.graph, d, par))
    val bub  = tr("bubbles.build")(Dbht.bubblesFromTmfg(res, s, par))
    val asg  = tr("assign")(Dbht.assign(bub, res.graph, s, apsp, par))
    val den  = tr("hierarchy.dendrogram")(Dbht.dendrogram(s.n, asg, apsp, par))
    val labels = tr("hierarchy.cut")(den.cut(k))
    Outcome(labels, den, res.graph, res.tree.numBubbles, Some(Detail(s, res, bub, asg)))
  }

  /** The Spark entry point as users call it. The labels of `Dataset` are
    * not read by the pipeline; they are left empty so that it sees only
    * the series.
    */
  def sparkRun(spark: SparkSession, data: Array[Array[Double]], prefix: Int, k: Int): Outcome = {
    val r = SparkPipeline.run(spark, Dataset("series", data, Array.emptyIntArray), prefix, k)
    Outcome(r.labels, r.dendrogram, r.graph, -1, None)
  }

  /** The same steps as `SparkPipeline.run`, one span per call, so the
    * Spark stages can be timed apart. The traced and untraced outputs
    * must have the same fingerprint.
    */
  def sparkTraced(spark: SparkSession, data: Array[Array[Double]], prefix: Int, k: Int,
                  tr: Tracer): Outcome = {
    val s    = tr("spark.correlation")(SparkCorrelation.pearson(spark, data))
    val d    = tr("correlation.dissimilarity")(Correlation.dissimilarity(s))
    val res  = tr("spark.tmfg")(SparkTmfg.build(spark, s, prefix))
    val apsp = tr("spark.apsp")(SparkApsp.allPairs(spark, res.graph, d))
    val (bub, asg, den) = Par.default { par =>
      val bub = tr("bubbles.build")(Dbht.bubblesFromTmfg(res, s, par))
      val asg = tr("assign")(Dbht.assign(bub, res.graph, s, apsp, par))
      (bub, asg, tr("spark.dendrogram")(SparkPipeline.dendrogram(spark, s.n, asg, apsp)))
    }
    val labels = tr("hierarchy.cut")(den.cut(k))
    Outcome(labels, den, res.graph, res.tree.numBubbles, Some(Detail(s, res, bub, asg)))
  }

  /** Output check: every reason the outcome is wrong, empty if none. */
  def check(o: Outcome, n: Int, k: Int): Seq[String] = {
    val edges = o.graph.numEdges
    Seq(
      Option.when(edges != 3 * n - 6)(s"TMFG has $edges edges, expected ${3 * n - 6}"),
      Option.when(o.numBubbles >= 0 && o.numBubbles != n - 3)(
        s"bubble tree has ${o.numBubbles} bubbles, expected ${n - 3}"),
      Option.when(o.labels.length != n || o.labels.distinct.length != k)(
        s"cut($k) gave ${o.labels.distinct.length} labels over ${o.labels.length} vertices"),
      Option.when(!o.dendrogram.isMonotone)("dendrogram heights are not monotone"),
    ).flatten
  }

  /** FNV-1a 64 over the labels and the dendrogram's merges and heights. */
  def fingerprint(o: Outcome): String = {
    var h = 0xcbf29ce484222325L
    def mix(x: Long): Unit = { h = (h ^ x) * 0x100000001b3L }
    o.labels.foreach(x => mix(x.toLong))
    o.dendrogram.left.foreach(x => mix(x.toLong))
    o.dendrogram.right.foreach(x => mix(x.toLong))
    o.dendrogram.height.foreach(x => mix(java.lang.Double.doubleToLongBits(x)))
    f"$h%016x"
  }

  /** Layer counts derived from a traced iteration's intermediates. */
  def counts(det: Detail, n: Int): Map[String, Double] = {
    val conv = det.bubbles.convergingBubbles
    val inConv = new Array[Boolean](n)
    for (b <- conv; v <- det.bubbles.vertsOf(b)) inConv(v) = true
    val groupSizes = det.asg.group.groupBy(identity).values.map(_.length)
    Map(
      "tmfg.rounds"           -> det.tmfg.rounds.toDouble,
      "tmfg.edge_weight"      -> det.tmfg.graph.totalWeight(det.s),
      "bubbles.count"         -> det.bubbles.numBubbles.toDouble,
      "bubbles.converging"    -> conv.length.toDouble,
      "assign.groups"         -> groupSizes.size.toDouble,
      "assign.lbar_vertices"  -> inConv.count(!_).toDouble,
      "hierarchy.max_group"   -> groupSizes.max.toDouble,
    )
  }
}
