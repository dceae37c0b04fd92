package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtils

class ApspSpec extends AnyFunSuite {

  test("dijkstra on a path graph") {
    val g = WGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3)))
    val d = SymMatrix.zeros(4)
    d.update(0, 1, 1.0); d.update(1, 2, 2.0); d.update(2, 3, 3.0)
    val dist = Apsp.singleSource(Apsp.prepare(g, d), 0)
    assert(dist.toSeq == Seq(0.0, 1.0, 3.0, 6.0))
  }

  test("dijkstra prefers the lighter indirect route") {
    val g = WGraph.fromEdges(3, Seq((0, 1), (1, 2), (0, 2)))
    val d = SymMatrix.zeros(3)
    d.update(0, 1, 1.0); d.update(1, 2, 1.0); d.update(0, 2, 5.0)
    assert(Apsp.singleSource(Apsp.prepare(g, d), 0)(2) == 2.0)
  }

  test("unreachable vertices get +inf") {
    val g = WGraph.fromEdges(4, Seq((0, 1), (2, 3)))
    val d = SymMatrix.zeros(4)
    d.update(0, 1, 1.0); d.update(2, 3, 1.0)
    val dist = Apsp.singleSource(Apsp.prepare(g, d), 0)
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
    TestUtils.assertBitsEqual(a8.data, a1.data, "8 threads vs 1")
  }

  // ---------------------------------------------------------------------
  // Equivalence with the binary-heap Dijkstra the bucket queue replaced.

  /** The previous implementation, one thread: lazy-deletion binary heap,
    * per-vertex edge weights aligned with `g.adj`, a `done` array.
    */
  private object Reference {
    private final class Heap(capacity: Int) {
      private val hd = new Array[Double](capacity)
      private val hv = new Array[Int](capacity)
      var size = 0

      def push(d: Double, v: Int): Unit = {
        var i = size; size += 1
        hd(i) = d; hv(i) = v
        var cont = i > 0
        while (cont) {
          val p = (i - 1) >> 1
          if (hd(p) <= hd(i)) cont = false
          else {
            val td = hd(p); hd(p) = hd(i); hd(i) = td
            val tv = hv(p); hv(p) = hv(i); hv(i) = tv
            i = p
            cont = i > 0
          }
        }
      }

      def popVertex(): Int = {
        val v = hv(0)
        size -= 1
        if (size > 0) {
          hd(0) = hd(size); hv(0) = hv(size)
          var i = 0
          var cont = true
          while (cont) {
            val l = 2 * i + 1
            val r = l + 1
            var m = i
            if (l < size && hd(l) < hd(m)) m = l
            if (r < size && hd(r) < hd(m)) m = r
            if (m == i) cont = false
            else {
              val td = hd(m); hd(m) = hd(i); hd(i) = td
              val tv = hv(m); hv(m) = hv(i); hv(i) = tv
              i = m
            }
          }
        }
        v
      }
    }

    def edgeWeights(g: WGraph, d: SymMatrix): Array[Array[Double]] =
      Array.tabulate(g.n)(u => g.adj(u).map(d(u, _)))

    def dijkstra(g: WGraph, w: Array[Array[Double]], source: Int): Array[Double] = {
      val n    = g.n
      val dist = Array.fill(n)(Double.PositiveInfinity)
      val done = new Array[Boolean](n)
      val heap = new Heap(2 * g.numEdges + n + 1)
      dist(source) = 0.0
      heap.push(0.0, source)
      while (heap.size > 0) {
        val u = heap.popVertex()
        if (!done(u)) {
          done(u) = true
          val a  = g.adj(u)
          val wu = w(u)
          val du = dist(u)
          var k = 0
          while (k < a.length) {
            val v = a(k)
            if (!done(v)) {
              val nd = du + wu(k)
              if (nd < dist(v)) { dist(v) = nd; heap.push(nd, v) }
            }
            k += 1
          }
        }
      }
      dist
    }

    def allPairs(g: WGraph, d: SymMatrix): SymMatrix = {
      val n   = g.n
      val w   = edgeWeights(g, d)
      val out = SymMatrix.zeros(n)
      for (src <- 0 until n) System.arraycopy(dijkstra(g, w, src), 0, out.data, src * n, n)
      out
    }
  }

  /** (name, graph, weights) for the equivalence test. */
  private def equivalenceInputs(n: Int): Seq[(String, WGraph, SymMatrix)] = {
    val rng = new scala.util.Random(n)
    def series(rows: Int) = Array.fill(rows, 12)(rng.nextGaussian())
    def pearson(rows: Array[Array[Double]]) = Par.withThreads(1)(Correlation.pearson(rows, _))
    def tmfg(s: SymMatrix, prefix: Int) = Par.withThreads(1)(Tmfg.build(s, prefix, _)).graph
    def withDissimilarity(name: String, g: WGraph, s: SymMatrix) =
      (name, g, Correlation.dissimilarity(s))
    val random = TestUtils.randomSim(n, n + 3)
    val quantised = TestUtils.randomSim(n, n + 1)
    for (i <- 0 until n; j <- i + 1 until n) {
      val x = quantised(i, j)
      quantised.update(i, j, if (x < -1.0 / 3) -0.5 else if (x < 1.0 / 3) 0.0 else 0.5)
    }
    val base = series((n + 1) / 2)
    val duplicates = pearson(Array.tabulate(n)(i => base(i / 2)))
    // pairs of rows 1e-3 apart: 0 < wMin < wMax / 256, so a bucket takes several passes
    val nearDuplicates = pearson(Array.tabulate(n)(i => base(i / 2).map(_ + 1e-3 * rng.nextGaussian())))
    // the TMFG without its edges between the two halves of the vertex ids
    val split = tmfg(random, 1)
    val disconnected = WGraph.fromEdges(n, split.edges.filter { case (u, v) => (u < n / 2) == (v < n / 2) })
    // half the weights near 1e-3, half near 1: wMin < wMax / 256, and
    // shortest paths run through many edges near wMin
    val bimodal = SymMatrix.zeros(n)
    for (i <- 0 until n; j <- i + 1 until n)
      bimodal.update(i, j, (1 + rng.nextDouble()) * (if (rng.nextBoolean()) 1e-3 else 1.0))
    // weights around 1e-310: the bucket width falls to its floor
    val tiny = Correlation.dissimilarity(random)
    for (k <- tiny.data.indices) tiny.data(k) *= 1e-310
    Seq(
      withDissimilarity("randomSim prefix 1", tmfg(random, 1), random),
      withDissimilarity("randomSim prefix 5", tmfg(random, 5), random),
      withDissimilarity("PMFG", repro.pmfg.Pmfg.build(random), random),
      withDissimilarity("duplicate rows", tmfg(duplicates, 5), duplicates),
      withDissimilarity("near-duplicate rows", tmfg(nearDuplicates, 5), nearDuplicates),
      withDissimilarity("quantised to 3 values", tmfg(quantised, 1), quantised),
      withDissimilarity("disconnected", disconnected, random),
      ("weights near 1e-3 and near 1", tmfg(random, 1), bimodal),
      ("subnormal weights", tmfg(random, 1), tiny),
    )
  }

  test("allPairs is bit-identical to the heap Dijkstra it replaced") {
    for (n <- Seq(4, 5, 37, 200); (name, g, d) <- equivalenceInputs(n)) {
      val want = Reference.allPairs(g, d)
      for (threads <- Seq(1, 4)) {
        val got = Par.withThreads(threads)(Apsp.allPairs(g, d, _))
        TestUtils.assertBitsEqual(got.data, want.data, s"$name n=$n threads=$threads")
      }
    }
    // the inputs hold what they are named for
    val inputs = equivalenceInputs(37).map { case (name, g, d) => name -> (g, d) }.toMap
    def weights(name: String) = { val (g, d) = inputs(name); g.edges.map { case (u, v) => d(u, v) } }
    assert(weights("duplicate rows").contains(0.0))
    val near = weights("near-duplicate rows")
    assert(near.min > 0.0 && near.min < near.max / 256)
    assert(weights("quantised to 3 values").distinct.size <= 3)
    val (g, d) = inputs("disconnected")
    assert(Reference.allPairs(g, d).data.exists(_.isPosInfinity))
  }

  test("allPairs rejects a negative, NaN or infinite edge weight by edge") {
    val g = WGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3), (0, 3)))
    for (bad <- Seq(-0.5, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val d = SymMatrix.zeros(4)
      d.update(0, 1, 1.0); d.update(1, 2, 1.0); d.update(0, 3, 1.0)
      d.update(2, 3, bad)
      val e = intercept[IllegalArgumentException](Par.withThreads(2)(Apsp.allPairs(g, d, _)))
      assert(e.getMessage.contains(s"edge (2, 3) has weight $bad"), e.getMessage)
    }
    // a bad weight off the graph's edges is never read
    val d = SymMatrix.zeros(4)
    d.update(0, 1, 1.0); d.update(1, 2, 1.0); d.update(2, 3, 1.0); d.update(0, 3, 1.0)
    d.update(0, 2, Double.NaN)
    assert(Par.withThreads(2)(Apsp.allPairs(g, d, _))(0, 2) == 2.0)
  }
}
