kernel clamp(double* restrict x, double* restrict y, long n, long iters) {
  long gid = (long)global_id();
  if (gid >= n) { return; }
  double acc = x[gid] + (double)gid * 0.25;
  for (long i = 0; i < iters; i++) {
    acc = acc * 1.0625 + 0.5;
    if (acc > 100.0) { acc = acc - 100.0; }
  }
  y[gid] = acc;
}
