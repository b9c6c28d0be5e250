kernel threshold(double* restrict x, double* restrict y, long n, long iters) {
  long gid = (long)global_id();
  if (gid >= n) { return; }
  long hits = 0;
  double v = x[gid] + (double)(gid % 16) * 0.0625;
  for (long i = 0; i < iters; i++) {
    v = v * 3.75 * (1.0 - v);
    if (v > 0.5) { hits++; }
    if (v <= 0.0) { v = 0.25; }
  }
  y[gid] = (double)hits + v;
}
