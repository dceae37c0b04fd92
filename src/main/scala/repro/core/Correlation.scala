package repro.core

/** Pearson correlation similarity and the paper's dissimilarity transform.
  *
  * The paper (§VII, Data sets) uses Pearson correlation p as the
  * similarity measure and d = sqrt(2(1-p)) as the dissimilarity measure
  * (Mantegna's correlation distance); for z-normalized series d equals
  * the Euclidean distance of the normalized vectors.
  */
object Correlation {

  /** Rows (and columns) of one register tile: 4 x 4 = 16 accumulators. */
  private final val Tile = 4

  /** Checks the input contract shared by every consumer of `zscore`:
    * non-empty rows, all of row 0's length, holding finite values.
    * Returns the common row length (0 when there are no rows).
    */
  private def checkRows(rows: Array[Array[Double]]): Int = {
    if (rows.length == 0) return 0
    val len = rows(0).length
    var i = 0
    while (i < rows.length) {
      val r = rows(i)
      require(r.length > 0, s"row $i is empty")
      require(r.length == len, s"row $i has ${r.length} columns, but row 0 has $len")
      var k = 0
      while (k < len) {
        require(java.lang.Double.isFinite(r(k)), s"row $i, column $k: non-finite value ${r(k)}")
        k += 1
      }
      i += 1
    }
    len
  }

  /** Writes the z-scored `r` to `out(off until off + r.length)`, which must
    * hold zeros: a constant row leaves them as they are.
    */
  private def zscoreInto(r: Array[Double], out: Array[Double], off: Int): Unit = {
    val n = r.length
    var sum = 0.0
    var i = 0
    while (i < n) { sum += r(i); i += 1 }
    val mean = sum / n
    var ss = 0.0
    i = 0
    while (i < n) { val d = r(i) - mean; ss += d * d; i += 1 }
    val norm = math.sqrt(ss)
    if (norm != 0.0) {
      i = 0
      while (i < n) { out(off + i) = (r(i) - mean) / norm; i += 1 }
    }
  }

  /** Z-score each row to zero mean / unit L2 norm (of deviations).
    * A constant row z-scores to the zero vector (correlation 0 with
    * everything, matching the convention of treating it as noise).
    * Rejects empty rows, rows whose length differs from row 0's, and
    * non-finite values, naming the row (and the column of a value).
    */
  def zscore(rows: Array[Array[Double]]): Array[Array[Double]] = {
    val len = checkRows(rows)
    Array.tabulate(rows.length) { i =>
      val z = new Array[Double](len)
      zscoreInto(rows(i), z, 0)
      z
    }
  }

  /** Full Pearson correlation matrix of the given series (rows = objects).
    * Diagonal is 1. Input contract as in `zscore`.
    *
    * The z-scored rows are packed into one flat row-major array, padded
    * with zero rows to a multiple of `Tile`. The upper triangle is computed
    * in 4 x 4 register tiles: 16 independent accumulators and 8 loads per
    * time step, so no add waits on the one before it. Each (i, j) sum still
    * adds z(i)(k) * z(j)(k) for k = 0 until L in order, starting from 0.0,
    * and the JVM never fuses a multiply and an add, so every entry is
    * bit-identical to the plain per-pair loop. Tile rows run on `par`,
    * whose shared chunk counter hands them out in order, longest first, so
    * the triangle's uneven rows still finish together.
    */
  def pearson(rows: Array[Array[Double]], par: Par): SymMatrix = {
    val len   = checkRows(rows)
    val n     = rows.length
    val m     = SymMatrix.zeros(n)
    val tiles = (n + Tile - 1) / Tile
    require(tiles.toLong * Tile * len <= Int.MaxValue,
      s"n=$n series of length $len do not fit one packed array")
    val z = new Array[Double](tiles * Tile * len)
    par.parFor(n)(i => zscoreInto(rows(i), z, i * len))
    par.parFor(tiles) { t =>
      var u = t
      while (u < tiles) { tile(z, len, t * Tile, u * Tile, m.data, n); u += 1 }
    }
    var i = 0
    while (i < n) { m.data(i * n + i) = 1.0; i += 1 }
    m
  }

  /** One 4 x 4 tile: rows i0..i0+3 against rows j0..j0+3. The sums of
    * entries above the diagonal (i < j < n) go to both halves of `s`; the
    * other accumulators (padding, diagonal, below it) are dropped.
    */
  private def tile(z: Array[Double], len: Int, i0: Int, j0: Int, s: Array[Double], n: Int): Unit = {
    val a0 = i0 * len; val a1 = a0 + len; val a2 = a1 + len; val a3 = a2 + len
    val b0 = j0 * len; val b1 = b0 + len; val b2 = b1 + len; val b3 = b2 + len
    var c00 = 0.0; var c01 = 0.0; var c02 = 0.0; var c03 = 0.0
    var c10 = 0.0; var c11 = 0.0; var c12 = 0.0; var c13 = 0.0
    var c20 = 0.0; var c21 = 0.0; var c22 = 0.0; var c23 = 0.0
    var c30 = 0.0; var c31 = 0.0; var c32 = 0.0; var c33 = 0.0
    var k = 0
    while (k < len) {
      val x0 = z(a0 + k); val x1 = z(a1 + k); val x2 = z(a2 + k); val x3 = z(a3 + k)
      val y0 = z(b0 + k); val y1 = z(b1 + k); val y2 = z(b2 + k); val y3 = z(b3 + k)
      c00 += x0 * y0; c01 += x0 * y1; c02 += x0 * y2; c03 += x0 * y3
      c10 += x1 * y0; c11 += x1 * y1; c12 += x1 * y2; c13 += x1 * y3
      c20 += x2 * y0; c21 += x2 * y1; c22 += x2 * y2; c23 += x2 * y3
      c30 += x3 * y0; c31 += x3 * y1; c32 += x3 * y2; c33 += x3 * y3
      k += 1
    }
    val i1 = i0 + 1; val i2 = i0 + 2; val i3 = i0 + 3
    val j1 = j0 + 1; val j2 = j0 + 2; val j3 = j0 + 3
    store(s, n, i0, j0, c00); store(s, n, i0, j1, c01); store(s, n, i0, j2, c02); store(s, n, i0, j3, c03)
    store(s, n, i1, j0, c10); store(s, n, i1, j1, c11); store(s, n, i1, j2, c12); store(s, n, i1, j3, c13)
    store(s, n, i2, j0, c20); store(s, n, i2, j1, c21); store(s, n, i2, j2, c22); store(s, n, i2, j3, c23)
    store(s, n, i3, j0, c30); store(s, n, i3, j1, c31); store(s, n, i3, j2, c32); store(s, n, i3, j3, c33)
  }

  @inline private def store(s: Array[Double], n: Int, i: Int, j: Int, v: Double): Unit =
    if (i < j && j < n) { s(i * n + j) = v; s(j * n + i) = v }

  /** Dissimilarity d = sqrt(2(1-p)) from a correlation (similarity) matrix. */
  def dissimilarity(s: SymMatrix): SymMatrix = {
    val n = s.n
    val d = SymMatrix.zeros(n)
    var k = 0
    while (k < d.data.length) { d.data(k) = math.sqrt(math.max(0.0, 2.0 * (1.0 - s.data(k)))); k += 1 }
    var i = 0
    while (i < n) { d.data(i * n + i) = 0.0; i += 1 }
    d
  }
}
