kernel parity(double* restrict x, double* restrict y, long n, long iters) {
  long gid = (long)global_id();
  if (gid >= n) { return; }
  double even = x[gid];
  double odd = 1.0;
  for (long i = 0; i < iters; i++) {
    if ((i + gid) % 2 == 0) {
      even = even + (double)i;
    } else {
      odd = odd * 1.125;
    }
  }
  y[gid] = even + odd;
}
