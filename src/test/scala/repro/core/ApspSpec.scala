package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtils

class ApspSpec extends AnyFunSuite {

  test("dijkstra on a path graph") {
    val g = WGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3)))
    val d = SymMatrix.zeros(4)
    d.update(0, 1, 1.0); d.update(1, 2, 2.0); d.update(2, 3, 3.0)
    val dist = Apsp.dijkstra(g, Apsp.edgeWeights(g, d), 0)
    assert(dist.toSeq == Seq(0.0, 1.0, 3.0, 6.0))
  }

  test("dijkstra prefers the lighter indirect route") {
    val g = WGraph.fromEdges(3, Seq((0, 1), (1, 2), (0, 2)))
    val d = SymMatrix.zeros(3)
    d.update(0, 1, 1.0); d.update(1, 2, 1.0); d.update(0, 2, 5.0)
    assert(Apsp.dijkstra(g, Apsp.edgeWeights(g, d), 0)(2) == 2.0)
  }

  test("unreachable vertices get +inf") {
    val g = WGraph.fromEdges(4, Seq((0, 1), (2, 3)))
    val d = SymMatrix.zeros(4)
    d.update(0, 1, 1.0); d.update(2, 3, 1.0)
    val dist = Apsp.dijkstra(g, Apsp.edgeWeights(g, d), 0)
    assert(dist(2).isPosInfinity && dist(3).isPosInfinity)
  }

  test("allPairs matches Floyd-Warshall on random TMFGs") {
    for (seed <- 1L to 3L) {
      val s = TestUtils.randomSim(25, seed)
      val d = Correlation.dissimilarity(s)
      val g = Par.withThreads(4)(par => Tmfg.build(s, 3, par)).graph
      val apsp = Par.withThreads(4)(par => Apsp.allPairs(g, d, par))
      val fw = TestUtils.floydWarshall(g, d)
      for (i <- 0 until 25; j <- 0 until 25)
        assert(math.abs(apsp(i, j) - fw(i)(j)) < 1e-9, s"seed=$seed ($i,$j)")
    }
  }

  test("allPairs is symmetric with zero diagonal") {
    val s = TestUtils.randomSim(30, 4)
    val d = Correlation.dissimilarity(s)
    val g = Par.withThreads(2)(par => Tmfg.build(s, 5, par)).graph
    val apsp = Par.withThreads(2)(par => Apsp.allPairs(g, d, par))
    for (i <- 0 until 30) {
      assert(apsp(i, i) == 0.0)
      for (j <- 0 until 30) assert(math.abs(apsp(i, j) - apsp(j, i)) < 1e-12)
    }
  }

  test("shortest path distance is bounded above by the direct edge") {
    val s = TestUtils.randomSim(20, 5)
    val d = Correlation.dissimilarity(s)
    val g = Par.withThreads(2)(par => Tmfg.build(s, 1, par)).graph
    val apsp = Par.withThreads(2)(par => Apsp.allPairs(g, d, par))
    for ((u, v) <- g.edges) assert(apsp(u, v) <= d(u, v) + 1e-12)
  }

  test("triangle inequality holds") {
    val s = TestUtils.randomSim(15, 6)
    val d = Correlation.dissimilarity(s)
    val g = Par.withThreads(2)(par => Tmfg.build(s, 2, par)).graph
    val apsp = Par.withThreads(2)(par => Apsp.allPairs(g, d, par))
    for (i <- 0 until 15; j <- 0 until 15; k <- 0 until 15)
      assert(apsp(i, j) <= apsp(i, k) + apsp(k, j) + 1e-9)
  }

  test("allPairs identical across thread counts") {
    val s = TestUtils.randomSim(40, 7)
    val d = Correlation.dissimilarity(s)
    val g = Par.withThreads(4)(par => Tmfg.build(s, 4, par)).graph
    val a1 = Par.withThreads(1)(par => Apsp.allPairs(g, d, par))
    val a8 = Par.withThreads(8)(par => Apsp.allPairs(g, d, par))
    assert(a1.data.sameElements(a8.data))
  }
}
