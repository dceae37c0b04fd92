package repro.core

/** All-pairs shortest paths on the (sparse, planar) TMFG under the
  * dissimilarity measure D, computed as one single-source run per vertex,
  * in parallel over sources (paper Algorithm 4, Line 7). This is the
  * asymptotic bottleneck of the parallel DBHT (paper §VI), which the
  * runtime-decomposition bench (T3) reproduces.
  *
  * '''Graph.''' `prepare` builds the graph once per call: a flat CSR
  * (offsets, neighbours and edge weights in primitive arrays) with the
  * vertices relabelled in BFS order, so a settled vertex's neighbours and
  * their distances lie close together, plus the smallest and largest edge
  * weight `wMin` and `wMax`.
  *
  * '''Bucket rule (Dinitz, 1978).''' Each source runs a label-setting
  * search without a priority heap. Tentative distances sit in a cyclic
  * array of buckets of width `Δ = max(wMin, wMax / 256)`, indexed by
  * `⌊dist/Δ⌋`; `Δ` is floored at the smallest normal double so `1/Δ`
  * stays finite (all-zero weights put every distance in bucket 0). A pass
  * takes the lowest non-empty bucket, finds its smallest key `m` with one
  * scan, and settles every entry of that bucket with `dist ≤ fl(m + wMin)`,
  * in any order, relaxing its edges at once; the other entries stay for
  * another pass.
  * Since `m` is the smallest tentative distance, a path through any
  * unsettled vertex `x` is worth at least `fl(dist(x) + wMin) ≥ fl(m + wMin)`
  * (rounding is monotone and weights are ≥ 0), so no later relaxation can
  * improve a vertex at or below that bound. With `wMin = 0` (duplicate
  * series) a pass settles the entries equal to `m`, so the loop still
  * ends. The smallest key never decreases, so a vertex `v` settled under
  * the bound `fl(m' + wMin)` never passes `nd < dist(v)` later: any
  * `du ≥ m'` gives `fl(du + w) ≥ fl(m' + wMin) ≥ dist(v)`. Relaxation
  * therefore needs no settled check. In real arithmetic the live entries
  * span at most `⌊wMax/Δ⌋ + 2` consecutive buckets from the lowest one;
  * the array has one bucket more, so rounding of `dist/Δ` can never wrap
  * an entry onto the bucket being scanned.
  *
  * '''Bit-identical rows.''' Every correct label-setting algorithm returns,
  * for each vertex, the minimum over paths of the left-to-right
  * floating-point path sum; the settle order among ties does not change
  * that value. So the rows equal a binary-heap Dijkstra's bit for bit.
  *
  * '''Input contract.''' Edge weights must be finite and non-negative;
  * `prepare` throws `IllegalArgumentException` naming the edge otherwise.
  * Unreachable vertices get `+Inf`.
  */
object Apsp {

  /** The graph `g` under weights `d`, relabelled in BFS order and stored
    * as a flat CSR: the neighbours of label `l` are
    * `targets(offsets(l) until offsets(l + 1))` (labels), with weights
    * `weights` at the same positions; `label(v)` is the label of vertex `v`.
    */
  final class Prepared private[Apsp] (
      private[Apsp] val n: Int,
      private[Apsp] val label: Array[Int],
      private[Apsp] val offsets: Array[Int],
      private[Apsp] val targets: Array[Int],
      private[Apsp] val weights: Array[Double],
      private[Apsp] val wMin: Double,
      private[Apsp] val wMax: Double) extends Serializable

  /** Prepares `g` with edge weights `w(u, v) = d(u, v)` for the searches.
    * Throws `IllegalArgumentException` for a negative, NaN or infinite
    * edge weight, naming the edge.
    */
  def prepare(g: WGraph, d: SymMatrix): Prepared = {
    val n     = g.n
    val order = new Array[Int](n)
    val label = Array.fill(n)(-1)
    var next  = 0
    var root  = 0
    while (root < n) {
      if (label(root) < 0) {
        // BFS over one component; `order` doubles as the queue
        var head = next
        label(root) = next; order(next) = root; next += 1
        while (head < next) {
          val a = g.adj(order(head))
          var k = 0
          while (k < a.length) {
            val v = a(k)
            if (label(v) < 0) { label(v) = next; order(next) = v; next += 1 }
            k += 1
          }
          head += 1
        }
      }
      root += 1
    }
    val offsets = new Array[Int](n + 1)
    var l = 0
    while (l < n) { offsets(l + 1) = offsets(l) + g.adj(order(l)).length; l += 1 }
    val targets = new Array[Int](offsets(n))
    val weights = new Array[Double](offsets(n))
    var wMin = Double.PositiveInfinity
    var wMax = 0.0
    l = 0
    while (l < n) {
      val u = order(l)
      val a = g.adj(u)
      var k = 0
      while (k < a.length) {
        val v = a(k)
        val x = d(u, v)
        if (!(x >= 0.0) || x.isInfinite)
          throw new IllegalArgumentException(
            s"edge (${math.min(u, v)}, ${math.max(u, v)}) has weight $x; " +
              "shortest paths need finite, non-negative edge weights")
        targets(offsets(l) + k) = label(v)
        weights(offsets(l) + k) = x
        if (x < wMin) wMin = x
        if (x > wMax) wMax = x
        k += 1
      }
      l += 1
    }
    if (targets.isEmpty) wMin = 0.0
    new Prepared(n, label, offsets, targets, weights, wMin, wMax)
  }

  /** One block's search state, allocated once and reused for each of its
    * sources: distances and settled flags by label, and the buckets.
    */
  private final class Search(p: Prepared) {
    private val n       = p.n
    private val offsets = p.offsets
    private val targets = p.targets
    private val weights = p.weights
    private val wMin    = p.wMin
    private val delta   = math.max(math.max(p.wMin, p.wMax / 256), java.lang.Double.MIN_NORMAL)
    private val inv     = 1.0 / delta
    private val nb      = (p.wMax * inv).toInt + 3
    private val buckets = Array.fill(nb)(new Array[Int](16))
    private val sizes   = new Array[Int](nb)
    private var pending = 0 // entries in all buckets, stale ones included

    val dist            = new Array[Double](n)
    private val settled = new Array[Boolean](n)

    private def push(slot: Int, v: Int): Unit = {
      var b = buckets(slot)
      val s = sizes(slot)
      if (s == b.length) { b = java.util.Arrays.copyOf(b, 2 * s); buckets(slot) = b }
      b(s) = v
      sizes(slot) = s + 1
      pending += 1
    }

    private def relax(u: Int): Unit = {
      val du  = dist(u)
      var k   = offsets(u)
      val end = offsets(u + 1)
      while (k < end) {
        val v  = targets(k)
        val nd = du + weights(k)
        val od = dist(v)
        if (nd < od) {
          dist(v) = nd
          val i = (nd * inv).toInt
          // (+Inf * inv).toInt is Int.MaxValue, never a reachable index
          if (i != (od * inv).toInt) push(i % nb, v)
        }
        k += 1
      }
    }

    /** Fills `dist` with the distances from label `source`. */
    def run(source: Int): Unit = {
      java.util.Arrays.fill(dist, Double.PositiveInfinity)
      java.util.Arrays.fill(settled, false)
      dist(source) = 0.0
      push(0, source)
      var slot = 0
      while (pending > 0) {
        if (sizes(slot) == 0) slot = if (slot + 1 == nb) 0 else slot + 1
        else {
          // drop entries settled from a lower bucket, find the smallest key
          var b  = buckets(slot)
          val s0 = sizes(slot)
          var m  = Double.PositiveInfinity
          var j  = 0
          var i  = 0
          while (i < s0) {
            val v = b(i)
            if (!settled(v)) {
              b(j) = v; j += 1
              if (dist(v) < m) m = dist(v)
            }
            i += 1
          }
          pending -= s0 - j
          sizes(slot) = j
          // settle every entry within wMin of the smallest key; entries
          // pushed onto this bucket meanwhile land at index >= s1
          val s1    = j
          val bound = m + wMin
          j = 0
          i = 0
          while (i < s1) {
            val v = b(i)
            if (dist(v) <= bound) {
              settled(v) = true
              pending -= 1
              relax(v)
              b = buckets(slot)
            } else { b(j) = v; j += 1 }
            i += 1
          }
          val added = sizes(slot) - s1
          System.arraycopy(b, s1, b, j, added)
          sizes(slot) = j + added
        }
      }
    }
  }

  /** Distance rows of the sources `lo until hi` (vertex ids): the row of
    * `src` goes to `out(offset + (src - lo) * n + j)` for every vertex `j`.
    * One block allocates its search state once.
    */
  def rowsInto(p: Prepared, lo: Int, hi: Int, out: Array[Double], offset: Int): Unit = {
    val n      = p.n
    val search = new Search(p)
    val dist   = search.dist
    val label  = p.label
    var src    = lo
    while (src < hi) {
      search.run(label(src))
      val base = offset + (src - lo) * n
      var j = 0
      while (j < n) { out(base + j) = dist(label(j)); j += 1 }
      src += 1
    }
  }

  /** Distances from vertex `source` to every vertex (`+Inf` if unreachable). */
  def singleSource(p: Prepared, source: Int): Array[Double] = {
    val row = new Array[Double](p.n)
    rowsInto(p, source, source + 1, row, 0)
    row
  }

  /** Full APSP matrix: sources in blocks of about `n / (threads * 8)`,
    * parallel over blocks.
    */
  def allPairs(g: WGraph, d: SymMatrix, par: Par): SymMatrix = {
    val n      = g.n
    val p      = prepare(g, d)
    val out    = SymMatrix.zeros(n)
    val blocks = math.min(n, par.threads * 8)
    par.parFor(blocks) { b =>
      val lo = b * n / blocks
      val hi = (b + 1) * n / blocks
      rowsInto(p, lo, hi, out.data, lo * n)
    }
    out
  }
}
