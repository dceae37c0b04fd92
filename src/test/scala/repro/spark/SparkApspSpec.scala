package repro.spark

import repro.{SparkSpec, TestUtils}
import repro.core.{Apsp, Correlation, Par, Tmfg}

class SparkApspSpec extends SparkSpec {

  test("RDD APSP equals the kernel APSP") {
    val s = TestUtils.randomSim(50, 1)
    val d = Correlation.dissimilarity(s)
    val g = Par.withThreads(4)(par => Tmfg.build(s, 4, par)).graph
    val kernel = Par.withThreads(4)(par => Apsp.allPairs(g, d, par))
    val dist = SparkApsp.allPairs(spark, g, d)
    TestUtils.assertBitsEqual(dist.data, kernel.data, "APSP rows")
  }

  test("RDD APSP is symmetric with zero diagonal") {
    val s = TestUtils.randomSim(20, 2)
    val d = Correlation.dissimilarity(s)
    val g = Par.withThreads(2)(par => Tmfg.build(s, 1, par)).graph
    val apsp = SparkApsp.allPairs(spark, g, d)
    for (i <- 0 until 20) {
      assert(apsp(i, i) == 0.0)
      for (j <- 0 until 20) assert(math.abs(apsp(i, j) - apsp(j, i)) < 1e-12)
    }
  }
}
