kernel countdown(double* restrict x, double* restrict y, long n, long iters) {
  long gid = (long)global_id();
  if (gid >= n) { return; }
  long a = gid % 5;
  long b = gid % 3;
  double s = x[gid] + 1.0;
  long k = iters;
  while (k >= 1) {
    s = s * 1.03125;
    k--;
    if (a > 0) { s = s + 2.0; a--; }
    if (b > 0) { s = s - 0.5; b--; }
  }
  y[gid] = s;
}
