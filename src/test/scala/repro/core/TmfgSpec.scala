package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtils
import repro.pmfg.Planarity

class TmfgSpec extends AnyFunSuite {

  private def build(n: Int, prefix: Int, seed: Long = 1, threads: Int = 4): TmfgResult =
    Par.withThreads(threads)(par => Tmfg.build(TestUtils.randomSim(n, seed), prefix, par))

  test("TMFG has exactly 3n-6 edges for various n and prefixes") {
    for (n <- Seq(4, 5, 6, 10, 37, 100); prefix <- Seq(1, 3, 10)) {
      val res = build(n, prefix, seed = n * 31 + prefix)
      assert(res.graph.numEdges == 3 * n - 6, s"n=$n prefix=$prefix")
    }
  }

  test("TMFG is planar (LR test) for various n and prefixes") {
    for (n <- Seq(6, 20, 60); prefix <- Seq(1, 5, 17)) {
      val res = build(n, prefix, seed = n + prefix)
      assert(Planarity.isPlanar(n, res.graph.edges), s"n=$n prefix=$prefix")
    }
  }

  test("TMFG is maximal planar: adding any non-edge exceeds the planar bound") {
    val n = 20
    val res = build(n, 1)
    // 3n-6 edges means Euler's bound is tight; any extra edge is non-planar
    val nonEdges = for {
      u <- 0 until n; v <- u + 1 until n
      if !res.graph.hasEdge(u, v)
    } yield (u, v)
    assert(nonEdges.nonEmpty)
    for (e <- nonEdges.take(10))
      assert(!Planarity.isPlanar(n, res.graph.edges :+ e), s"adding $e stayed planar")
  }

  test("all n vertices are inserted exactly once") {
    val res = build(50, 7)
    assert(res.insertionOrder.sorted.toSeq == (0 until 50))
  }

  test("every vertex has degree >= 3") {
    val res = build(40, 5)
    assert((0 until 40).forall(res.graph.degree(_) >= 3))
  }

  test("prefix=1 equals the brute-force sequential TMFG (Massara)") {
    for (seed <- 1L to 5L) {
      val s = TestUtils.randomSim(30, seed)
      val (bg, border) = TestUtils.bruteTmfg(s)
      val res = Par.withThreads(4)(par => Tmfg.build(s, 1, par))
      assert(res.graph.edges.toSet == bg.edges.toSet, s"seed=$seed edges differ")
      assert(res.insertionOrder.toSeq == border.toSeq, s"seed=$seed order differs")
    }
  }

  test("result is independent of thread count") {
    val s = TestUtils.randomSim(60, 9)
    for (prefix <- Seq(1, 4, 16)) {
      val a = Par.withThreads(1)(par => Tmfg.build(s, prefix, par))
      val b = Par.withThreads(8)(par => Tmfg.build(s, prefix, par))
      assert(a.graph.edges == b.graph.edges, s"prefix=$prefix")
      assert(a.insertionOrder.toSeq == b.insertionOrder.toSeq)
      assert(a.rounds == b.rounds)
    }
  }

  test("rounds shrink as prefix grows") {
    val s = TestUtils.randomSim(100, 2)
    Par.withThreads(4) { par =>
      val r1  = Tmfg.build(s, 1, par).rounds
      val r10 = Tmfg.build(s, 10, par).rounds
      val r50 = Tmfg.build(s, 50, par).rounds
      assert(r1 == 96) // one insertion per round
      assert(r10 < r1 && r50 <= r10)
    }
  }

  test("prefix=1 round count is exactly n-4") {
    for (n <- Seq(5, 8, 21)) {
      val res = build(n, 1, seed = n)
      assert(res.rounds == n - 4)
    }
  }

  test("seed clique is the top-4 row sums and is fully connected") {
    val s = TestUtils.randomSim(25, 11)
    val expected = (0 until 25).sortBy(i => -s.rowSum(i)).take(4).toSet
    val res = Par.withThreads(2)(par => Tmfg.build(s, 3, par))
    assert(res.insertionOrder.take(4).toSet == expected)
    for (a <- expected; b <- expected; if a != b) assert(res.graph.hasEdge(a, b))
  }

  test("n=4 is just the complete graph") {
    val res = build(4, 1)
    assert(res.graph.numEdges == 6)
    assert(res.rounds == 0)
    assert(res.tree.numBubbles == 1)
  }

  test("n=5: one insertion, two bubbles") {
    val res = build(5, 1)
    assert(res.graph.numEdges == 9)
    assert(res.tree.numBubbles == 2)
  }

  test("total edge weight of prefix-p TMFG is close to exact TMFG") {
    val s = TestUtils.randomSim(80, 5)
    Par.withThreads(4) { par =>
      val w1 = Tmfg.build(s, 1, par).graph.totalWeight(s)
      for (prefix <- Seq(2, 5, 10)) {
        val wp = Tmfg.build(s, prefix, par).graph.totalWeight(s)
        // paper reports 92.1-100.3% for real data; random matrices are
        // harsher, so just require the batched result is within 75%
        assert(wp >= 0.75 * w1, s"prefix=$prefix: $wp vs $w1")
      }
    }
  }

  test("a batch never inserts more than prefix vertices") {
    val s = TestUtils.randomSim(40, 3)
    Par.withThreads(2) { par =>
      val res = Tmfg.build(s, 7, par)
      // 36 insertions in ceil(36/7)=6 rounds minimum; rounds can exceed
      // that only if conflicts shrink batches
      assert(res.rounds >= math.ceil(36.0 / 7).toInt)
    }
  }

  test("invalid inputs are rejected") {
    Par.withThreads(1) { par =>
      intercept[IllegalArgumentException](Tmfg.build(TestUtils.randomSim(3, 1), 1, par))
      intercept[IllegalArgumentException](Tmfg.build(TestUtils.randomSim(10, 1), 0, par))
    }
  }

  test("a NaN or -Inf row throws instead of spinning") {
    val bad = 17 // row sums are all non-finite, so the seed is 0..3
    for (value <- Seq(Double.NaN, Double.NegativeInfinity); prefix <- Seq(1, 5)) {
      val s = TestUtils.randomSim(40, 6)
      for (j <- 0 until 40) s.update(bad, j, value)
      val e = intercept[IllegalStateException](Par.withThreads(2)(par => Tmfg.build(s, prefix, par)))
      assert(e.getMessage.contains("1 remaining") && e.getMessage.contains(s"vertex $bad"),
        s"value=$value prefix=$prefix: ${e.getMessage}")
    }
  }

  test("graph is connected") {
    val res = build(45, 9)
    assert(res.graph.isConnectedExcluding(Set.empty))
  }
}
