kernel stride(double* restrict x, double* restrict y, long n, long iters) {
  long gid = (long)global_id();
  if (gid >= n) { return; }
  double sum = 0.0;
  for (long i = 0; i < iters; i++) {
    long j = (gid + i * 17) % n;
    double w = x[j] + (double)j;
    if (j < gid) {
      sum = sum + w;
    } else {
      sum = sum - w * 0.5;
    }
  }
  y[gid] = sum;
}
