kernel bisect(double* restrict x, double* restrict y, long n, long iters) {
  long gid = (long)global_id();
  if (gid >= n) { return; }
  double target = x[gid] + (double)gid / (double)n;
  double lo = 0.0;
  double hi = 1.0;
  for (long i = 0; i < iters; i++) {
    double mid = 0.5 * (lo + hi);
    if (mid * mid < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  y[gid] = 0.5 * (lo + hi);
}
