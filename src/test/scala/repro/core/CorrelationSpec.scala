package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtils
import scala.util.Random

class CorrelationSpec extends AnyFunSuite {

  /** The z-score that `Correlation.zscore` replaced, kept as the reference. */
  private def referenceZscore(rows: Array[Array[Double]]): Array[Array[Double]] =
    rows.map { r =>
      val n    = r.length
      val mean = r.sum / n
      var ss   = 0.0
      var i = 0
      while (i < n) { val d = r(i) - mean; ss += d * d; i += 1 }
      val norm = math.sqrt(ss)
      if (norm == 0.0) new Array[Double](n)
      else r.map(x => (x - mean) / norm)
    }

  /** The per-pair loop that the tiled kernel replaced, kept as the reference. */
  private def referencePearson(rows: Array[Array[Double]]): SymMatrix = {
    val n = rows.length
    val z = referenceZscore(rows)
    val m = SymMatrix.zeros(n)
    for (i <- 0 until n) {
      val zi = z(i)
      m.update(i, i, 1.0)
      var j = i + 1
      while (j < n) {
        val zj = z(j)
        var s  = 0.0
        var k  = 0
        while (k < zi.length) { s += zi(k) * zj(k); k += 1 }
        m.update(i, j, s)
        j += 1
      }
    }
    m
  }

  /** The two-branch dissimilarity loop that the flat one replaced. */
  private def referenceDissimilarity(s: SymMatrix): SymMatrix = {
    val d = SymMatrix.zeros(s.n)
    for (i <- 0 until s.n; j <- 0 until s.n; if i != j)
      d.data(i * s.n + j) = math.sqrt(math.max(0.0, 2.0 * (1.0 - s(i, j))))
    d
  }

  private def naivePearson(a: Array[Double], b: Array[Double]): Double = {
    val n = a.length
    val ma = a.sum / n
    val mb = b.sum / n
    var num = 0.0; var da = 0.0; var db = 0.0
    for (i <- 0 until n) {
      num += (a(i) - ma) * (b(i) - mb)
      da += (a(i) - ma) * (a(i) - ma)
      db += (b(i) - mb) * (b(i) - mb)
    }
    num / math.sqrt(da * db)
  }

  test("zscore gives zero mean and unit norm") {
    val rng = new Random(1)
    val rows = Array.fill(5)(Array.fill(50)(rng.nextGaussian() * 3 + 2))
    for (z <- Correlation.zscore(rows)) {
      assert(math.abs(z.sum) < 1e-9)
      assert(math.abs(z.map(x => x * x).sum - 1.0) < 1e-9)
    }
  }

  test("zscore of a constant row is the zero vector") {
    val z = Correlation.zscore(Array(Array(5.0, 5.0, 5.0)))
    assert(z(0).forall(_ == 0.0))
  }

  test("pearson matches the naive per-pair formula") {
    val rng = new Random(2)
    val rows = Array.fill(8)(Array.fill(64)(rng.nextGaussian()))
    val m = Par.withThreads(4)(par => Correlation.pearson(rows, par))
    for (i <- 0 until 8; j <- 0 until 8; if i != j)
      assert(math.abs(m(i, j) - naivePearson(rows(i), rows(j))) < 1e-9, s"($i,$j)")
  }

  test("pearson diagonal is 1, values within [-1, 1]") {
    val rng = new Random(3)
    val rows = Array.fill(10)(Array.fill(30)(rng.nextGaussian()))
    val m = Par.withThreads(2)(par => Correlation.pearson(rows, par))
    for (i <- 0 until 10) assert(m(i, i) == 1.0)
    for (i <- 0 until 10; j <- 0 until 10) assert(m(i, j) >= -1.0 - 1e-9 && m(i, j) <= 1.0 + 1e-9)
  }

  test("perfectly correlated and anti-correlated rows") {
    val base = Array.tabulate(20)(_.toDouble)
    val rows = Array(base, base.map(_ * 2 + 1), base.map(x => -x))
    val m = Par.withThreads(1)(par => Correlation.pearson(rows, par))
    assert(math.abs(m(0, 1) - 1.0) < 1e-9)
    assert(math.abs(m(0, 2) + 1.0) < 1e-9)
  }

  test("pearson identical across thread counts") {
    val rng = new Random(4)
    val rows = Array.fill(22)(Array.fill(40)(rng.nextGaussian()))
    val a = Par.withThreads(1)(par => Correlation.pearson(rows, par))
    val b = Par.withThreads(8)(par => Correlation.pearson(rows, par))
    TestUtils.assertBitsEqual(a.data, b.data, "1 vs 8 threads")
  }

  test("tiled pearson, zscore and dissimilarity are bit-identical to the loops they replaced") {
    val rng = new Random(5)
    for (n <- (1 to 9) ++ Seq(13, 37, 203); len <- Seq(1, 3, 46, 513); constant <- Seq(false, true)) {
      val rows = Array.fill(n)(Array.fill(len)(rng.nextGaussian() * (1 + rng.nextInt(5)) + rng.nextInt(7) - 3))
      if (constant) rows(n / 2) = Array.fill(len)(2.5)
      val what = s"n=$n L=$len constant=$constant"
      val ref = referencePearson(rows)
      TestUtils.assertBitsEqual(Correlation.dissimilarity(ref).data, referenceDissimilarity(ref).data, s"$what dissimilarity")
      val (z, zRef) = (Correlation.zscore(rows), referenceZscore(rows))
      for (i <- 0 until n) TestUtils.assertBitsEqual(z(i), zRef(i), s"$what zscore row $i")
      for (threads <- Seq(1, 4)) {
        val m = Par.withThreads(threads)(Correlation.pearson(rows, _))
        TestUtils.assertBitsEqual(m.data, ref.data, s"$what threads=$threads")
      }
    }
  }

  test("pearson and zscore reject non-finite values, ragged rows and empty rows by row and column") {
    for ((what, rows, column) <- TestUtils.contractBreaches) {
      for (run <- Seq[() => Any](() => Correlation.zscore(rows),
                                 () => Par.withThreads(4)(Correlation.pearson(rows, _)))) {
        val e = intercept[IllegalArgumentException](run())
        assert(e.getMessage.contains("row 17"), s"$what: ${e.getMessage}")
        column.foreach(c => assert(e.getMessage.contains(s"column $c"), s"$what: ${e.getMessage}"))
      }
    }
  }

  test("dissimilarity: d = sqrt(2(1-p)), zero diagonal") {
    val s = SymMatrix.zeros(3)
    s.update(0, 0, 1); s.update(1, 1, 1); s.update(2, 2, 1)
    s.update(0, 1, 1.0); s.update(0, 2, -1.0); s.update(1, 2, 0.0)
    val d = Correlation.dissimilarity(s)
    assert(d(0, 0) == 0.0)
    assert(math.abs(d(0, 1)) < 1e-12)           // p=1  -> d=0
    assert(math.abs(d(0, 2) - 2.0) < 1e-12)     // p=-1 -> d=2
    assert(math.abs(d(1, 2) - math.sqrt(2)) < 1e-12) // p=0 -> sqrt(2)
  }

  test("dissimilarity is monotone decreasing in correlation") {
    val s = SymMatrix.zeros(4)
    for (i <- 0 until 4) s.update(i, i, 1.0)
    s.update(0, 1, 0.9); s.update(0, 2, 0.5); s.update(0, 3, -0.5)
    val d = Correlation.dissimilarity(s)
    assert(d(0, 1) < d(0, 2) && d(0, 2) < d(0, 3))
  }

  test("dissimilarity clamps tiny negative radicands from fp error") {
    val s = SymMatrix.zeros(2)
    s.update(0, 0, 1); s.update(1, 1, 1)
    s.update(0, 1, 1.0 + 1e-15)
    val d = Correlation.dissimilarity(s)
    assert(!d(0, 1).isNaN)
  }
}
