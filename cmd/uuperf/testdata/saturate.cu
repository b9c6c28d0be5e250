kernel saturate(double* restrict x, double* restrict y, long n, long iters) {
  long gid = (long)global_id();
  if (gid >= n) { return; }
  double lo = (double)(gid % 8);
  double acc = x[gid];
  for (long i = 0; i < iters; i++) {
    double step = (double)i * 0.375 - lo;
    if (step < 0.0) {
      acc = acc - step * step;
    } else {
      acc = acc + sqrt(step + 1.0);
    }
  }
  y[gid] = acc;
}
