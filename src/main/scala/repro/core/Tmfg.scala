package repro.core

import scala.collection.mutable.ArrayBuffer

/** Output of TMFG construction (paper Algorithm 1 + 2).
  *
  * @param graph    the filtered graph (3n-6 edges, maximal planar)
  * @param tree     the bubble tree built during construction
  * @param rounds   number of batch rounds executed (the paper's rho)
  * @param insertionOrder vertices in the order they were inserted (the
  *                 first four are the seed clique)
  * @param fullScans number of O(remaining) face scans
  * @param scanCells vertex evaluations made by those scans
  * @param conflicts picks dropped because their vertex was already chosen
  *                 in the same round
  *
  * The three counters depend only on the input and the prefix, never on
  * the thread count.
  */
final case class TmfgResult(graph: WGraph, tree: BubbleTree, rounds: Int,
                            insertionOrder: Array[Int],
                            fullScans: Long, scanCells: Long, conflicts: Long)

/** Parallel batched TMFG construction (paper §IV, Algorithm 1).
  *
  * Up to `prefix` vertices are inserted per round: the faces with the
  * highest best-vertex gains are popped from the GAINS table, a face whose
  * vertex was already chosen this round is dropped (a conflict; the vertex
  * stays with its max-gain face), and the chosen vertices are inserted
  * simultaneously. `prefix = 1` reproduces the sequential TMFG of Massara
  * et al. exactly.
  *
  * Tie-break, the one rule for vertices within a face and for faces in the
  * GAINS table (`ranksAbove`): the higher gain wins; equal gains go to the
  * lower vertex or face id, and -0.0 equals +0.0. A NaN or -Inf gain never
  * wins, so a face with no finite gain left has no best vertex. (The seed
  * clique is the four largest row sums, ties to the lower vertex.)
  *
  * The GAINS table is an indexed max-heap of faces keyed by their cached
  * best remaining vertex. A full scan of a face keeps its `K` best
  * remaining vertices in rank order; each vertex keeps a reverse index of
  * the faces it is currently best for (the paper's optimization over
  * rescanning all faces). After a round, the three new faces per insertion
  * get a full scan. A face whose best vertex was just inserted moves on to
  * its next candidate that is still remaining, which is its true best
  * because the remaining set only shrinks; it is scanned again only when
  * a full list runs out. The scans are the dominant work and run in
  * parallel over faces when a round has enough of them.
  */
object Tmfg {

  /** Candidates a full scan keeps per face. */
  private val K = 16

  /** Cells (faces x remaining vertices) a round's full scans must cover
    * before they fan out to the pool; below it a hand-off costs more than
    * it saves.
    */
  private val MinParCells = 1 << 15

  /** The tie-break: gain `g1` of id `id1` ranks above gain `g2` of `id2`. */
  @inline private def ranksAbove(g1: Double, id1: Int, g2: Double, id2: Int): Boolean =
    g1 > g2 || (g1 == g2 && id1 < id2)

  def build(s: SymMatrix, prefix: Int, par: Par): TmfgResult = {
    val n = s.n
    require(n >= 4, s"TMFG needs at least 4 vertices, got $n")
    require(prefix >= 1, s"prefix must be >= 1, got $prefix")

    // --- seed: the four vertices with largest row sums in S ---
    val rowSums = par.parMap(n)(i => s.rowSum(i))
    val seed = (0 until n).sortBy(i => (-rowSums(i), i)).take(4).toArray
    val inserted = new Array[Boolean](n)
    seed.foreach(v => inserted(v) = true)

    val edges = new ArrayBuffer[(Int, Int)](3 * n)
    for (i <- 0 until 4; j <- i + 1 until 4) edges += ((seed(i), seed(j)))

    // remaining vertices in ascending order, compacted once per round
    val vlist = (0 until n).filterNot(inserted).toArray
    var vcount = vlist.length

    // --- face tables: 4 seed faces plus 3 per inserted vertex ---
    val maxFaces   = 3 * n - 8
    val faceVerts  = new Array[Int](3 * maxFaces)
    val faceBubble = new Array[Int](maxFaces)
    val faceAlive  = new Array[Boolean](maxFaces)
    val bestV      = new Array[Int](maxFaces)
    val bestGain   = new Array[Double](maxFaces)
    var numFaces   = 0
    // candidate lists: face f's slots are [f*K, f*K + candLen(f)), and
    // candPos(f) is the slot of its current best vertex
    val candV   = new Array[Int](maxFaces * K)
    val candG   = new Array[Double](maxFaces * K)
    val candLen = new Array[Int](maxFaces)
    val candPos = new Array[Int](maxFaces)
    // reverse index: for each vertex, a linked list of the faces it is the
    // best vertex of (dead faces stay in it and are skipped)
    val bestHead = Array.fill(n)(-1)
    val bestNext = new Array[Int](maxFaces)
    val gains = new GainsHeap(maxFaces, bestGain)

    val tree = new BubbleTree(n)
    val b0 = tree.addBubble(seed.clone())
    tree.root = b0

    // faces queued for a full scan: every new face, and faces whose full
    // candidate list ran out
    val toScan = new Array[Int](maxFaces)
    var numToScan = 0

    def addFace(a: Int, b: Int, c: Int, bubble: Int): Int = {
      val id = numFaces
      faceVerts(3 * id) = a; faceVerts(3 * id + 1) = b; faceVerts(3 * id + 2) = c
      faceBubble(id) = bubble
      faceAlive(id) = true
      numFaces += 1
      toScan(numToScan) = id
      numToScan += 1
      id
    }

    def setBest(f: Int, p: Int): Unit = {
      candPos(f) = p
      if (p < candLen(f)) { bestV(f) = candV(f * K + p); bestGain(f) = candG(f * K + p) }
      else { bestV(f) = -1; bestGain(f) = Double.NegativeInfinity }
    }

    // full scan: the K best remaining vertices of face f, in rank order
    def scan(f: Int): Unit = {
      val r0 = faceVerts(3 * f) * n; val r1 = faceVerts(3 * f + 1) * n; val r2 = faceVerts(3 * f + 2) * n
      val base = f * K
      var len = 0
      // the rank a vertex must beat to enter the list
      var thrG = Double.NegativeInfinity
      var thrV = -1
      var i = 0
      while (i < vcount) {
        val v = vlist(i)
        val g = s.data(r0 + v) + s.data(r1 + v) + s.data(r2 + v)
        if (ranksAbove(g, v, thrG, thrV)) {
          var j = if (len < K) { len += 1; len - 1 } else K - 1
          while (j > 0 && ranksAbove(g, v, candG(base + j - 1), candV(base + j - 1))) {
            candG(base + j) = candG(base + j - 1); candV(base + j) = candV(base + j - 1)
            j -= 1
          }
          candG(base + j) = g; candV(base + j) = v
          if (len == K) { thrG = candG(base + K - 1); thrV = candV(base + K - 1) }
        }
        i += 1
      }
      candLen(f) = len
      setBest(f, 0)
    }

    // a face with a best vertex enters the GAINS table and that vertex's list
    def publish(f: Int): Unit =
      if (bestV(f) >= 0) {
        gains.push(f)
        bestNext(f) = bestHead(bestV(f)); bestHead(bestV(f)) = f
      }

    var fullScans = 0L
    var scanCells = 0L

    def scanAll(): Unit = {
      val cells = numToScan.toLong * vcount
      fullScans += numToScan
      scanCells += cells
      par.parFor(numToScan, grain = if (cells >= MinParCells) 1 else numToScan)(i => scan(toScan(i)))
      var i = 0
      while (i < numToScan) { publish(toScan(i)); i += 1 }
      numToScan = 0
    }

    val f0 = addFace(seed(0), seed(1), seed(2), b0)
    addFace(seed(0), seed(1), seed(3), b0)
    addFace(seed(0), seed(2), seed(3), b0)
    addFace(seed(1), seed(2), seed(3), b0)
    var outerFaceId = f0
    if (vcount > 0) scanAll()

    val insertionOrder = new Array[Int](n)
    System.arraycopy(seed, 0, insertionOrder, 0, 4)
    var numInserted = 4
    var conflicts = 0L

    // insert vertex v into face f (Algorithm 1 lines 11-17, Algorithm 2)
    def insert(f: Int, v: Int): Unit = {
      val t0 = faceVerts(3 * f); val t1 = faceVerts(3 * f + 1); val t2 = faceVerts(3 * f + 2)
      inserted(v) = true
      insertionOrder(numInserted) = v
      numInserted += 1
      edges += ((v, t0)); edges += ((v, t1)); edges += ((v, t2))

      val bStar = tree.addBubble(Array(t0, t1, t2, v))
      val wasOuter = f == outerFaceId
      if (wasOuter) {
        tree.link(bStar, tree.root, Array(t0, t1, t2))
        tree.root = bStar
      } else {
        tree.link(faceBubble(f), bStar, Array(t0, t1, t2))
      }

      // replace face f with the three new faces of bStar
      faceAlive(f) = false
      val nf1 = addFace(v, t0, t1, bStar)
      addFace(v, t1, t2, bStar)
      addFace(v, t0, t2, bStar)
      if (wasOuter) outerFaceId = nf1
    }

    var rounds = 0
    while (vcount > 0) {
      rounds += 1

      // --- Lines 9-10: pop up to `prefix` faces with distinct vertices.
      // A face whose vertex was chosen earlier this round stays out of the
      // table; it is re-keyed below with the other faces of that vertex.
      var picked = 0
      while (picked < prefix && !gains.isEmpty) {
        val f = gains.pop()
        val v = bestV(f)
        if (inserted(v)) conflicts += 1
        else { insert(f, v); picked += 1 }
      }
      // finite S always inserts: every scanned face has a best vertex while
      // vertices remain. A NaN or -Inf row never wins a face and would spin.
      if (picked == 0)
        throw new IllegalStateException(
          s"TMFG round $rounds inserted no vertex: $vcount remaining, e.g. vertex ${vlist(0)}; " +
            "its similarities give no finite gain (NaN or -Inf in S?)")

      var w = 0
      var i = 0
      while (i < vcount) {
        if (!inserted(vlist(i))) { vlist(w) = vlist(i); w += 1 }
        i += 1
      }
      vcount = w

      if (vcount > 0) {
        // faces whose best vertex was just inserted: leave the table, then
        // move to the next remaining candidate or queue a full scan
        i = numInserted - picked
        while (i < numInserted) {
          var f = bestHead(insertionOrder(i))
          while (f >= 0) {
            val next = bestNext(f)
            if (faceAlive(f)) {
              gains.remove(f)
              var p = candPos(f)
              while (p < candLen(f) && inserted(candV(f * K + p))) p += 1
              // a full list that ran out needs a scan; a short one held every
              // vertex with a finite gain, so the face has none left
              if (p == K) { toScan(numToScan) = f; numToScan += 1 }
              else { setBest(f, p); publish(f) }
            }
            f = next
          }
          i += 1
        }
        scanAll()
      }
    }

    val graph = WGraph.fromEdges(n, edges)
    TmfgResult(graph, tree, rounds, insertionOrder, fullScans, scanCells, conflicts)
  }

  /** Indexed binary max-heap of face ids, ordered by `ranksAbove` on
    * their gains. A face's gain must not change while it is in the heap.
    */
  private final class GainsHeap(capacity: Int, gain: Array[Double]) {
    private val heap = new Array[Int](capacity)
    private val pos  = Array.fill(capacity)(-1)
    private var size = 0

    def isEmpty: Boolean = size == 0

    def push(f: Int): Unit = {
      heap(size) = f; pos(f) = size; size += 1
      siftUp(size - 1)
    }

    def pop(): Int = { val f = heap(0); removeAt(0); f }

    def remove(f: Int): Unit = if (pos(f) >= 0) removeAt(pos(f))

    @inline private def above(a: Int, b: Int): Boolean = ranksAbove(gain(a), a, gain(b), b)

    private def place(i: Int, f: Int): Unit = { heap(i) = f; pos(f) = i }

    private def removeAt(i: Int): Unit = {
      pos(heap(i)) = -1
      size -= 1
      if (i < size) {
        place(i, heap(size))
        siftDown(i)
        siftUp(i)
      }
    }

    private def siftUp(i0: Int): Unit = {
      val f = heap(i0)
      var i = i0
      while (i > 0 && above(f, heap((i - 1) / 2))) {
        place(i, heap((i - 1) / 2))
        i = (i - 1) / 2
      }
      place(i, f)
    }

    private def siftDown(i0: Int): Unit = {
      val f = heap(i0)
      var i = i0
      var done = false
      while (!done) {
        val l = 2 * i + 1
        if (l >= size) done = true
        else {
          val c = if (l + 1 < size && above(heap(l + 1), heap(l))) l + 1 else l
          if (above(heap(c), f)) { place(i, heap(c)); i = c } else done = true
        }
      }
      place(i, f)
    }
  }
}
