package repro.spark

import repro.{SparkSpec, TestUtils}
import repro.core._
import repro.data.TimeSeriesGen

class SparkPipelineSpec extends SparkSpec {

  /** The kernel pipeline from a similarity matrix: the TMFG graph and dendrogram. */
  private def kernel(s: SymMatrix, prefix: Int, par: Par): (WGraph, Dendrogram) = {
    val d = Correlation.dissimilarity(s)
    val res = Tmfg.build(s, prefix, par)
    val apsp = Apsp.allPairs(res.graph, d, par)
    val bub = Dbht.bubblesFromTmfg(res, s, par)
    val asg = Dbht.assign(bub, res.graph, s, apsp, par)
    (res.graph, Dbht.dendrogram(s.n, asg, apsp, par))
  }

  test("distributed pipeline equals the kernel pipeline end to end") {
    val ds = TimeSeriesGen.make("t", 50, 64, 3, noise = 1.0, seed = 7)
    for (prefix <- Seq(1, 5)) {
      val dist = SparkPipeline.run(spark, ds, prefix, k = 3)
      // on the same correlation matrix every later stage is bit-identical
      val sparkS = SparkCorrelation.pearson(spark, ds.data)
      val (graph, den) = Par.withThreads(4)(kernel(sparkS, prefix, _))
      assert(dist.graph.edges == graph.edges, s"prefix=$prefix")
      assert(dist.dendrogram.left.sameElements(den.left), s"prefix=$prefix")
      assert(dist.dendrogram.right.sameElements(den.right), s"prefix=$prefix")
      TestUtils.assertBitsEqual(dist.dendrogram.height, den.height, s"heights, prefix=$prefix")
      // the kernel correlation differs from the Gramian one only in the
      // last bits, which leaves the clusters unchanged
      val kernelLabels = Par.withThreads(4)(par => kernel(Correlation.pearson(ds.data, par), prefix, par))._2.cut(3)
      assert(Ari.ari(dist.labels, kernelLabels) == 1.0, s"prefix=$prefix")
    }
  }

  test("distributed per-group dendrogram planning equals the Par version") {
    val ds = TimeSeriesGen.make("t", 40, 48, 4, noise = 1.0, seed = 8)
    Par.withThreads(4) { par =>
      val s = Correlation.pearson(ds.data, par)
      val d = Correlation.dissimilarity(s)
      val res = Tmfg.build(s, 2, par)
      val apsp = Apsp.allPairs(res.graph, d, par)
      val bub = Dbht.bubblesFromTmfg(res, s, par)
      val asg = Dbht.assign(bub, res.graph, s, apsp, par)
      val kernelDen = Dbht.dendrogram(s.n, asg, apsp, par)
      val sparkDen  = SparkPipeline.dendrogram(spark, s.n, asg, apsp)
      assert(kernelDen.left.sameElements(sparkDen.left))
      assert(kernelDen.right.sameElements(sparkDen.right))
      TestUtils.assertBitsEqual(kernelDen.height, sparkDen.height, "heights")
    }
  }

  test("pipeline clusters class-structured data far better than chance") {
    val ds = TimeSeriesGen.make("t", 60, 96, 3, noise = 0.7, seed = 9)
    val out = SparkPipeline.run(spark, ds, prefix = 5, k = 3)
    assert(Ari.ari(out.labels, ds.labels) > 0.4)
    assert(out.graph.numEdges == 3 * 60 - 6)
  }
}
