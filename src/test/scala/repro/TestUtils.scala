package repro

import org.scalatest.Assertions.fail
import repro.core._
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Brute-force reference implementations and generators shared by the
  * test suites. Everything here favors obviousness over speed.
  */
object TestUtils {

  /** Asserts that `a` and `b` hold the same doubles bit for bit, so -0.0
    * differs from 0.0 and a NaN equals the same NaN. A failure names
    * `what`, the first differing index and both values with their raw bits.
    */
  def assertBitsEqual(a: Array[Double], b: Array[Double], what: String): Unit = {
    if (a.length != b.length) fail(s"$what: lengths differ, ${a.length} vs ${b.length}")
    var i = 0
    while (i < a.length) {
      val x = java.lang.Double.doubleToRawLongBits(a(i))
      val y = java.lang.Double.doubleToRawLongBits(b(i))
      if (x != y) fail(f"$what: first mismatch at index $i: ${a(i)} (0x$x%016x) vs ${b(i)} (0x$y%016x)")
      i += 1
    }
  }

  /** Inputs that break the series contract at row 17 of 40 series of
    * length 6: (what is wrong, the rows, the column of the bad value if
    * a value is at fault).
    */
  def contractBreaches: Seq[(String, Array[Array[Double]], Option[Int])] = {
    def rows(): Array[Array[Double]] = Array.tabulate(40, 6)((i, k) => math.sin(i * 7.0 + k))
    def withBad(x: Double) = { val r = rows(); r(17)(3) = x; r }
    def withRow(row: Array[Double]) = { val r = rows(); r(17) = row; r }
    Seq(
      ("NaN", withBad(Double.NaN), Some(3)),
      ("+Inf", withBad(Double.PositiveInfinity), Some(3)),
      ("-Inf", withBad(Double.NegativeInfinity), Some(3)),
      ("ragged row", withRow(Array.fill(5)(1.0)), None),
      ("empty row", withRow(Array.emptyDoubleArray), None),
    )
  }

  /** Random symmetric matrix with entries in (-1, 1), unit diagonal —
    * shaped like a correlation matrix. Continuous entries make gain /
    * distance ties measure-zero, so tie-break conventions don't matter
    * when comparing implementations.
    */
  def randomSim(n: Int, seed: Long): SymMatrix = {
    val rng = new Random(seed)
    val m = SymMatrix.zeros(n)
    for (i <- 0 until n) {
      m.update(i, i, 1.0)
      for (j <- i + 1 until n) m.update(i, j, rng.nextDouble() * 2 - 1)
    }
    m
  }

  /** Random positive distance-like symmetric matrix, zero diagonal. */
  def randomDist(n: Int, seed: Long): SymMatrix = {
    val rng = new Random(seed)
    val m = SymMatrix.zeros(n)
    for (i <- 0 until n; j <- i + 1 until n) m.update(i, j, 0.1 + rng.nextDouble())
    m
  }

  /** Brute-force sequential TMFG (Massara et al.): on each step scan all
    * (face, remaining vertex) pairs for the max gain. Face bookkeeping
    * mirrors `Tmfg.build` (same seed clique, same face-replacement order)
    * so on tie-free inputs the outputs are identical.
    */
  def bruteTmfg(s: SymMatrix): (WGraph, Array[Int]) = {
    val n = s.n
    val rowSums = (0 until n).map(i => s.rowSum(i))
    val seed = (0 until n).sortBy(i => (-rowSums(i), i)).take(4).toArray
    val remaining = collection.mutable.TreeSet.from((0 until n).filterNot(seed.contains))
    val edges = new ArrayBuffer[(Int, Int)]()
    for (i <- 0 until 4; j <- i + 1 until 4) edges += ((seed(i), seed(j)))
    val faces = new ArrayBuffer[Array[Int]]()
    faces += Array(seed(0), seed(1), seed(2))
    faces += Array(seed(0), seed(1), seed(3))
    faces += Array(seed(0), seed(2), seed(3))
    faces += Array(seed(1), seed(2), seed(3))
    val order = new ArrayBuffer[Int]()
    order ++= seed
    while (remaining.nonEmpty) {
      var bestGain = Double.NegativeInfinity
      var bestF = -1
      var bestV = -1
      for (f <- faces.indices; v <- remaining) {
        val t = faces(f)
        val g = s(t(0), v) + s(t(1), v) + s(t(2), v)
        if (g > bestGain) { bestGain = g; bestF = f; bestV = v }
      }
      val t = faces(bestF)
      remaining -= bestV
      order += bestV
      edges += ((bestV, t(0))); edges += ((bestV, t(1))); edges += ((bestV, t(2)))
      faces.remove(bestF)
      faces += Array(bestV, t(0), t(1))
      faces += Array(bestV, t(1), t(2))
      faces += Array(bestV, t(0), t(2))
    }
    (WGraph.fromEdges(n, edges), order.toArray)
  }

  /** Floyd–Warshall APSP over a graph with matrix edge weights. */
  def floydWarshall(g: WGraph, d: SymMatrix): Array[Array[Double]] = {
    val n = g.n
    val dist = Array.fill(n, n)(Double.PositiveInfinity)
    for (i <- 0 until n) dist(i)(i) = 0.0
    for ((u, v) <- g.edges) { dist(u)(v) = d(u, v); dist(v)(u) = d(u, v) }
    for (k <- 0 until n; i <- 0 until n; j <- 0 until n)
      if (dist(i)(k) + dist(k)(j) < dist(i)(j)) dist(i)(j) = dist(i)(k) + dist(k)(j)
    dist
  }

  /** Naive greedy HAC: scan all active cluster pairs for the minimum
    * linkage distance each step. Linkage evaluated from scratch over
    * members — no Lance-Williams, no chains.
    */
  def naiveHac(n: Int, pointDist: (Int, Int) => Double,
               method: Linkage.Method): Array[(Set[Int], Set[Int], Double)] = {
    var clusters: Vector[Set[Int]] = (0 until n).map(Set(_)).toVector
    val merges = new ArrayBuffer[(Set[Int], Set[Int], Double)]()
    def linkDist(a: Set[Int], b: Set[Int]): Double = method match {
      case Linkage.Complete => (for (x <- a; y <- b) yield pointDist(x, y)).max
      case Linkage.Average  =>
        (for (x <- a; y <- b) yield pointDist(x, y)).sum / (a.size.toDouble * b.size)
    }
    while (clusters.length > 1) {
      var bi = -1; var bj = -1; var bd = Double.PositiveInfinity
      for (i <- clusters.indices; j <- i + 1 until clusters.length) {
        val dd = linkDist(clusters(i), clusters(j))
        if (dd < bd) { bd = dd; bi = i; bj = j }
      }
      merges += ((clusters(bi), clusters(bj), bd))
      val merged = clusters(bi) ++ clusters(bj)
      clusters = clusters.zipWithIndex
        .filter { case (_, idx) => idx != bi && idx != bj }
        .map(_._1) :+ merged
    }
    merges.toArray
  }

  /** Interior/exterior connection values of a separating triangle,
    * computed the original way: BFS on G minus the triangle's vertices.
    * Returns (value into the component containing `interiorSeed`, value
    * into everything else).
    */
  def bruteInOutVals(g: WGraph, s: SymMatrix, tri: Array[Int], interiorSeed: Int): (Double, Double) = {
    val tset = tri.toSet
    val seen = collection.mutable.Set[Int]() ++ tset
    val queue = collection.mutable.Queue(interiorSeed)
    seen += interiorSeed
    val interior = collection.mutable.Set(interiorSeed)
    while (queue.nonEmpty) {
      val u = queue.dequeue()
      for (w <- g.adj(u); if !seen.contains(w)) { seen += w; interior += w; queue.enqueue(w) }
    }
    var inV = 0.0; var outV = 0.0
    for (u <- tri; w <- g.adj(u); if !tset.contains(w)) {
      if (interior.contains(w)) inV += s(u, w) else outV += s(u, w)
    }
    (inV, outV)
  }
}
